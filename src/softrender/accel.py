"""Two-level bounding volume hierarchy for ray queries.

A Blas (bottom level) is built once per geometry over object-space
triangles with a binned surface-area heuristic, whose split search
sweeps every (axis, bin) at once.  A Tlas (top level) is rebuilt from
scratch every frame over the world-space boxes of the instances, working
on stacked instance arrays: one corner transform gives every world box
and one batched inversion every inverse.  Rays are transformed into
object space at instance leaves, so hit distances stay parameterized in
world units.  One walk over both levels serves closest-hit and any-hit
queries, and one pre-order walk serves compaction and the debug dumps.

Conventions that tests rely on:
  - Intersection uses the Moller-Trumbore form with determinant cutoff
    EPSILON_INTERSECT; u, v, u+v boundaries are inclusive.
  - Closest-hit treats [t_min, t_max] as closed, any-hit as open.
  - Equal-t ties resolve to the lower (instance id, triangle index).
  - Rebuilding from identical input is byte-identical.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

EPSILON_INTERSECT = 1e-9
SHADOW_OFFSET = 1e-4
SAH_BINS = 16
LEAF_MAX_TRIS = 4
LEAF_MAX_INSTANCES = 2
# corner c of a box takes hi on axis k where bit (2 - k) of c is set
_CORNER_IS_HI = ((np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1).astype(bool)


def _surface_area(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Surface area of boxes along the last axis; an inverted box has 0."""
    d = np.maximum(hi - lo, 0.0)
    return 2.0 * (d[..., 0] * d[..., 1] + d[..., 1] * d[..., 2] + d[..., 2] * d[..., 0])


@dataclass
class Aabb:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)

    def union(self, other: "Aabb") -> "Aabb":
        return Aabb(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def contains_box(self, other: "Aabb", eps: float = 1e-12) -> bool:
        return bool(np.all(other.lo >= self.lo - eps) and np.all(other.hi <= self.hi + eps))

    def surface_area(self) -> float:
        return float(_surface_area(self.lo, self.hi))

    def corners(self) -> np.ndarray:
        """(8, 3) corner points."""
        return np.where(_CORNER_IS_HI, self.hi, self.lo)


@dataclass
class Ray:
    origin: np.ndarray
    direction: np.ndarray  # need not be unit length; t is in these units
    t_min: float = SHADOW_OFFSET
    t_max: float = math.inf

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.direction = np.asarray(self.direction, dtype=np.float64)


@dataclass
class Hit:
    t: float
    instance_id: int
    triangle_index: int  # index into the geometry's triangle list
    u: float
    v: float


# ---------------------------------------------------------------------------
# Generic binned-SAH builder over a set of leaf element boxes.

def _build_bvh(box_lo: np.ndarray, box_hi: np.ndarray, leaf_max: int):
    """Build node arrays over n element boxes.

    Returns (node_lo, node_hi, left, right, start, count, order) where
    internal nodes have left/right child indices (start = -1) and leaves
    have a [start, start+count) range into the order permutation.
    Splits use a 16-bin surface-area heuristic on each axis with a
    median fallback, so leaves never exceed leaf_max elements.
    """
    n = len(box_lo)
    centroids = (box_lo + box_hi) * 0.5
    order = np.arange(n, dtype=np.int64)

    nodes_lo, nodes_hi = [], []
    nodes_left, nodes_right = [], []
    nodes_start, nodes_count = [], []

    def alloc() -> int:
        nodes_lo.append(None)
        nodes_hi.append(None)
        nodes_left.append(-1)
        nodes_right.append(-1)
        nodes_start.append(-1)
        nodes_count.append(0)
        return len(nodes_lo) - 1

    # Stack entries: (node index, slice start, slice end).
    root = alloc()
    stack = [(root, 0, n)]
    while stack:
        ni, s, e = stack.pop()
        idx = order[s:e]
        lo = box_lo[idx].min(axis=0)
        hi = box_hi[idx].max(axis=0)
        nodes_lo[ni] = lo
        nodes_hi[ni] = hi
        count = e - s
        if count <= leaf_max:
            nodes_start[ni] = s
            nodes_count[ni] = count
            continue

        split = _sah_split(box_lo[idx], box_hi[idx], centroids[idx])
        if split is None:
            # degenerate spread: median split keeps the tree balanced
            half = count // 2
            left_mask = np.zeros(count, dtype=bool)
            left_mask[np.argsort(centroids[idx][:, int(np.argmax(hi - lo))],
                                 kind="stable")[:half]] = True
        else:
            left_mask = split
        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        order[s:s + len(left_idx)] = left_idx
        order[s + len(left_idx):e] = right_idx

        li = alloc()
        ri = alloc()
        nodes_left[ni] = li
        nodes_right[ni] = ri
        stack.append((ri, s + len(left_idx), e))
        stack.append((li, s, s + len(left_idx)))

    return (
        np.array(nodes_lo, dtype=np.float64),
        np.array(nodes_hi, dtype=np.float64),
        np.array(nodes_left, dtype=np.int32),
        np.array(nodes_right, dtype=np.int32),
        np.array(nodes_start, dtype=np.int32),
        np.array(nodes_count, dtype=np.int32),
        order,
    )


def _sah_split(lo: np.ndarray, hi: np.ndarray, centroids: np.ndarray):
    """Best 16-bin SAH split over all three axes, or None if no axis works.

    Cost for splitting after bin b is area_L * n_L + area_R * n_R, taken
    for every (axis, bin) at once from prefix and suffix sweeps over the
    bins; ties resolve to the lower axis then the lower bin, so the
    partition is a pure function of the input boxes.
    """
    cmin = centroids.min(axis=0)
    extent = centroids.max(axis=0) - cmin
    # a zero-extent axis bins everything at 0, so all its right sides are empty
    rel = (centroids - cmin) / np.where(extent > 0.0, extent, 1.0)
    bins = np.minimum((rel * SAH_BINS).astype(np.int64), SAH_BINS - 1)  # (n, axis)
    at = (np.arange(3), bins)
    bin_lo = np.full((3, SAH_BINS, 3), np.inf)
    bin_hi = np.full((3, SAH_BINS, 3), -np.inf)
    bin_n = np.zeros((3, SAH_BINS), dtype=np.int64)
    np.minimum.at(bin_lo, at, lo[:, None])
    np.maximum.at(bin_hi, at, hi[:, None])
    np.add.at(bin_n, at, 1)
    nl = np.cumsum(bin_n, axis=1)[:, :-1]
    nr = len(lo) - nl
    al = _surface_area(np.minimum.accumulate(bin_lo, axis=1),
                       np.maximum.accumulate(bin_hi, axis=1))[:, :-1]
    ar = _surface_area(np.minimum.accumulate(bin_lo[:, ::-1], axis=1),
                       np.maximum.accumulate(bin_hi[:, ::-1], axis=1))[:, ::-1][:, 1:]
    cost = np.where((nl > 0) & (nr > 0), al * nl + ar * nr, np.inf)
    best = int(np.argmin(cost))  # first minimum in axis-major order
    if not cost.flat[best] < np.inf:
        return None
    axis, b = divmod(best, SAH_BINS - 1)
    return bins[:, axis] <= b


@dataclass
class _Nodes:
    """The node arrays _build_bvh returns, shared by both levels."""
    node_lo: np.ndarray
    node_hi: np.ndarray
    node_left: np.ndarray
    node_right: np.ndarray
    node_start: np.ndarray  # >= 0 marks a leaf
    node_count: np.ndarray

    @property
    def root_aabb(self) -> Aabb:
        return Aabb(self.node_lo[0].copy(), self.node_hi[0].copy())


def _preorder(nodes: _Nodes):
    """Yield (node index, depth), parents before children, left subtree first."""
    stack = [(0, 0)]
    while stack:
        ni, depth = stack.pop()
        yield ni, depth
        if nodes.node_start[ni] < 0:
            stack.append((int(nodes.node_right[ni]), depth + 1))
            stack.append((int(nodes.node_left[ni]), depth + 1))


def _serialize(header, arrays) -> bytes:
    """int64 header, then each array's int64 shape followed by its bytes."""
    parts = [np.int64(header).tobytes()]
    for arr in arrays:
        parts.append(np.int64(arr.shape).tobytes())
        parts.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Bottom level: triangles of one geometry, object space.

@dataclass
class Blas(_Nodes):
    geometry_id: int
    tri_order: np.ndarray  # permutation; leaves reference this
    v0: np.ndarray  # (M, 3) per tri_order entry
    e1: np.ndarray
    e2: np.ndarray
    compacted: bool = False
    scratch: dict = field(default_factory=dict)

    @property
    def node_total(self) -> int:
        return len(self.node_lo)


def build_blas(positions: np.ndarray, triangles: np.ndarray, geometry_id: int = 0) -> Blas:
    positions = np.asarray(positions, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    a = positions[triangles[:, 0]]
    b = positions[triangles[:, 1]]
    c = positions[triangles[:, 2]]
    tri_lo = np.minimum(np.minimum(a, b), c)
    tri_hi = np.maximum(np.maximum(a, b), c)

    *nodes, order = _build_bvh(tri_lo, tri_hi, LEAF_MAX_TRIS)
    return Blas(
        *nodes,
        geometry_id=geometry_id,
        tri_order=order,
        v0=a[order], e1=b[order] - a[order], e2=c[order] - a[order],
        compacted=False,
        scratch={"tri_lo": tri_lo, "tri_hi": tri_hi,
                 "centroids": (tri_lo + tri_hi) * 0.5},
    )


def serialize_blas(blas: Blas) -> bytes:
    """Every retained array, concatenated with a small shape header.

    Used both for the compaction size comparison and for byte-identity
    checks between rebuilds.
    """
    retained = [blas.node_lo, blas.node_hi, blas.node_left, blas.node_right,
                blas.node_start, blas.node_count, blas.tri_order, blas.v0, blas.e1, blas.e2]
    retained += [blas.scratch[k] for k in sorted(blas.scratch)]
    return _serialize([blas.geometry_id, int(blas.compacted), blas.node_total], retained)


def blas_signature(blas: Blas) -> str:
    return hashlib.sha256(serialize_blas(blas)).hexdigest()


def compact_blas(blas: Blas) -> Blas:
    """Reorder nodes into depth-first order and drop build scratch.

    Query results are unchanged; serialization shrinks (strictly, when
    scratch was present).  Compacting an already compact structure
    returns it as-is.
    """
    if blas.compacted:
        return blas
    dfs = np.array([ni for ni, _ in _preorder(blas)], dtype=np.int64)
    remap = np.argsort(dfs)  # every node is reached once, so dfs is a permutation
    left = blas.node_left[dfs]
    right = blas.node_right[dfs]
    internal = blas.node_start[dfs] < 0
    left[internal] = remap[left[internal]]
    right[internal] = remap[right[internal]]
    return replace(blas, node_lo=blas.node_lo[dfs], node_hi=blas.node_hi[dfs],
                   node_left=left, node_right=right,
                   node_start=blas.node_start[dfs], node_count=blas.node_count[dfs],
                   compacted=True, scratch={})


# ---------------------------------------------------------------------------
# Top level: instances with world transforms.

@dataclass
class TlasInstance:
    blas: Blas
    transform: np.ndarray  # (4, 4) object-to-world, invertible
    node_name: str
    instance_id: int

    def __post_init__(self):
        self.transform = np.asarray(self.transform, dtype=np.float64).reshape(4, 4)


@dataclass
class Tlas(_Nodes):
    instances: list[TlasInstance]
    inst_order: np.ndarray
    inv_transforms: np.ndarray  # (K, 4, 4)
    world_lo: np.ndarray        # (K, 3) per-instance world bounds
    world_hi: np.ndarray
    frame_index: int = 0


def build_tlas(instances: list[TlasInstance], frame_index: int = 0) -> Tlas:
    """Full rebuild over the instance list; no incremental refit."""
    if not instances:
        return Tlas(instances=[], node_lo=np.zeros((1, 3)), node_hi=np.zeros((1, 3)),
                    node_left=np.int32([-1]), node_right=np.int32([-1]),
                    node_start=np.int32([0]), node_count=np.int32([0]),
                    inst_order=np.zeros(0, dtype=np.int64),
                    inv_transforms=np.zeros((0, 4, 4)),
                    world_lo=np.zeros((0, 3)), world_hi=np.zeros((0, 3)),
                    frame_index=frame_index)
    transforms = np.array([inst.transform for inst in instances])
    root_lo = np.array([inst.blas.node_lo[0] for inst in instances])
    root_hi = np.array([inst.blas.node_hi[0] for inst in instances])
    corners = np.where(_CORNER_IS_HI, root_hi[:, None], root_lo[:, None])
    world = corners @ transforms[:, :3, :3].transpose(0, 2, 1) + transforms[:, None, :3, 3]
    world_lo = world.min(axis=1)
    world_hi = world.max(axis=1)
    *nodes, order = _build_bvh(world_lo, world_hi, LEAF_MAX_INSTANCES)
    return Tlas(*nodes, instances=list(instances),
                inst_order=order, inv_transforms=np.linalg.inv(transforms),
                world_lo=world_lo, world_hi=world_hi,
                frame_index=frame_index)


def serialize_tlas(tlas: Tlas) -> bytes:
    return _serialize([tlas.frame_index, len(tlas.instances)],
                      (tlas.node_lo, tlas.node_hi, tlas.node_left, tlas.node_right,
                       tlas.node_start, tlas.node_count, tlas.inst_order,
                       tlas.inv_transforms, tlas.world_lo, tlas.world_hi))


# ---------------------------------------------------------------------------
# Traversal.

def _slab_hit(lo, hi, o, d, t_lo, t_hi):
    """Ray/box overlap test on the open-ended slab interval [t_lo, t_hi]."""
    for k in range(3):
        dk = d[k]
        if dk == 0.0:
            if o[k] < lo[k] or o[k] > hi[k]:
                return False
            continue
        inv = 1.0 / dk
        t1 = (lo[k] - o[k]) * inv
        t2 = (hi[k] - o[k]) * inv
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > t_lo:
            t_lo = t1
        if t2 < t_hi:
            t_hi = t2
        if t_lo > t_hi:
            return False
    return True


def _leaf_triangles(blas: Blas, ni: int, o, d, t_min, t_max, closed: bool):
    """Moller-Trumbore over one leaf; returns (t, order_slot, u, v) arrays."""
    s = int(blas.node_start[ni])
    e = s + int(blas.node_count[ni])
    v0 = blas.v0[s:e]
    e1 = blas.e1[s:e]
    e2 = blas.e2[s:e]
    pvec = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > EPSILON_INTERSECT
    inv_det = np.where(ok, 1.0 / np.where(det == 0.0, 1.0, det), 0.0)
    tvec = o - v0
    u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
    ok &= (u >= 0.0) & (u <= 1.0)
    qvec = np.cross(tvec, e1)
    v = (qvec @ d) * inv_det
    ok &= (v >= 0.0) & (u + v <= 1.0)
    t = np.einsum("ij,ij->i", e2, qvec) * inv_det
    if closed:
        ok &= (t >= t_min) & (t <= t_max)
    else:
        ok &= (t > t_min) & (t < t_max)
    slots = np.nonzero(ok)[0]
    return t[slots], slots + s, u[slots], v[slots]


def _walk(tlas: Tlas, ray: Ray, closed: bool, first_hit_stops: bool):
    """Walk both levels at once; returns (t, instance_id, triangle_index, u, v) or None.

    Stack entries are (node arrays, node index, instance, origin,
    direction): instance is None in the TLAS, where the ray is in world
    space, and the owning TlasInstance in a BLAS, where the ray has been
    moved into object space.  An instance leaf pushes its BLAS roots in
    reverse slot order, so each instance is walked to the end before the
    next.  Candidates compare by (t, instance_id, triangle_index); with
    first_hit_stops the first accepted one is returned (shadow rays).
    """
    best = None
    stack = [(tlas, 0, None, ray.origin, ray.direction)]  # an empty TLAS is one empty leaf
    while stack:
        nodes, ni, inst, o, d = stack.pop()
        limit = ray.t_max if best is None else best[0]
        if not _slab_hit(nodes.node_lo[ni], nodes.node_hi[ni], o, d, ray.t_min, limit):
            continue
        if nodes.node_start[ni] < 0:
            stack.append((nodes, int(nodes.node_right[ni]), inst, o, d))
            stack.append((nodes, int(nodes.node_left[ni]), inst, o, d))
        elif inst is None:
            s = int(tlas.node_start[ni])
            for slot in reversed(range(s, s + int(tlas.node_count[ni]))):
                k = int(tlas.inst_order[slot])
                inv = tlas.inv_transforms[k]
                stack.append((tlas.instances[k].blas, 0, tlas.instances[k],
                              inv[:3, :3] @ o + inv[:3, 3], inv[:3, :3] @ d))
        else:
            ts, slots, us, vs = _leaf_triangles(nodes, ni, o, d, ray.t_min, limit, closed)
            for t, slot, u, v in zip(ts, slots, us, vs):
                cand = (float(t), inst.instance_id, int(nodes.tri_order[slot]), float(u), float(v))
                if best is None or cand[:3] < best[:3]:
                    best = cand
                    if first_hit_stops:
                        return best
    return best


def ray_closest_hit(tlas: Tlas, ray: Ray) -> Hit | None:
    """Closest intersection along the ray, closed t interval.

    Ties on t resolve to the lower (instance id, triangle index) so the
    result is a pure function of the scene.
    """
    best = _walk(tlas, ray, closed=True, first_hit_stops=False)
    return None if best is None else Hit(*best)


def ray_any_hit(tlas: Tlas, ray: Ray) -> bool:
    """True if anything lies strictly inside (t_min, t_max)."""
    return _walk(tlas, ray, closed=False, first_hit_stops=True) is not None


def shadow_visibility(tlas: Tlas, point, normal, light_pos) -> float:
    """1.0 if the segment from the offset point to the light is clear.

    The origin is pushed SHADOW_OFFSET along the surface normal and the
    tested interval is (SHADOW_OFFSET, distance - SHADOW_OFFSET), open on
    both ends, so neither the surface itself nor geometry hugging the
    light counts as an occluder.
    """
    point = np.asarray(point, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    light_pos = np.asarray(light_pos, dtype=np.float64)
    origin = point + normal * SHADOW_OFFSET
    to_light = light_pos - origin
    dist = float(np.linalg.norm(to_light))
    if dist <= 2.0 * SHADOW_OFFSET:
        return 1.0
    direction = to_light / dist
    ray = Ray(origin=origin, direction=direction,
              t_min=SHADOW_OFFSET, t_max=dist - SHADOW_OFFSET)
    return 0.0 if ray_any_hit(tlas, ray) else 1.0


# ---------------------------------------------------------------------------
# Brute-force oracle with the identical query contract.

def all_world_triangles(tlas: Tlas):
    """((K, 3, 3) world vertices, (K,) instance ids, (K,) triangle indices)."""
    verts, inst_ids, tri_ids = [], [], []
    for inst in tlas.instances:
        blas = inst.blas
        base = blas.v0
        b = blas.v0 + blas.e1
        c = blas.v0 + blas.e2
        m = inst.transform
        w0 = base @ m[:3, :3].T + m[:3, 3]
        w1 = b @ m[:3, :3].T + m[:3, 3]
        w2 = c @ m[:3, :3].T + m[:3, 3]
        tri_world = np.stack([w0, w1, w2], axis=1)
        # undo the build permutation so triangle ids match geometry order
        inv_order = np.argsort(blas.tri_order, kind="stable")
        verts.append(tri_world[inv_order])
        inst_ids.append(np.full(len(base), inst.instance_id, dtype=np.int64))
        tri_ids.append(np.arange(len(base), dtype=np.int64))
    if not verts:
        return np.zeros((0, 3, 3)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(verts), np.concatenate(inst_ids), np.concatenate(tri_ids)


def brute_force_closest_hit(tlas: Tlas, ray: Ray) -> Hit | None:
    """Test every world-space triangle; same contract as ray_closest_hit.

    Kept deliberately independent of the tree walk: triangles are
    transformed to world space and intersected there, so agreement with
    the BVH path is a real cross-check rather than a shared code path.
    """
    tris, inst_ids, tri_ids = all_world_triangles(tlas)
    if len(tris) == 0:
        return None
    o, d = ray.origin, ray.direction
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    pvec = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > EPSILON_INTERSECT
    inv_det = np.where(ok, 1.0 / np.where(det == 0.0, 1.0, det), 0.0)
    tvec = o - v0
    u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
    ok &= (u >= 0.0) & (u <= 1.0)
    qvec = np.cross(tvec, e1)
    v = (qvec @ d) * inv_det
    ok &= (v >= 0.0) & (u + v <= 1.0)
    t = np.einsum("ij,ij->i", e2, qvec) * inv_det
    ok &= (t >= ray.t_min) & (t <= ray.t_max)
    if not np.any(ok):
        return None
    cand = np.nonzero(ok)[0]
    keys = sorted(cand, key=lambda i: (t[i], inst_ids[i], tri_ids[i]))
    i = keys[0]
    return Hit(t=float(t[i]), instance_id=int(inst_ids[i]),
               triangle_index=int(tri_ids[i]), u=float(u[i]), v=float(v[i]))


# ---------------------------------------------------------------------------
# Debug dumps.

def _dump_text(header: str, nodes: _Nodes, leaf_text) -> str:
    """Header, then one line per node in pre-order; leaf_text(slot range) lists a leaf."""
    lines = [header]
    for ni, depth in _preorder(nodes):
        lo = nodes.node_lo[ni]
        hi = nodes.node_hi[ni]
        pad = "  " * depth
        box = (f"[{lo[0]:.6g} {lo[1]:.6g} {lo[2]:.6g}] "
               f"[{hi[0]:.6g} {hi[1]:.6g} {hi[2]:.6g}]")
        if nodes.node_start[ni] >= 0:
            s = int(nodes.node_start[ni])
            slots = range(s, s + int(nodes.node_count[ni]))
            lines.append(f"{pad}leaf {ni} {box} {leaf_text(slots)}")
        else:
            lines.append(f"{pad}node {ni} {box}")
    return "\n".join(lines)


def blas_dump_text(blas: Blas) -> str:
    """One node per line, depth-first, with bounds and leaf triangle lists."""
    return _dump_text(f"blas geometry={blas.geometry_id} nodes={blas.node_total} "
                      f"compacted={blas.compacted}", blas,
                      lambda slots: f"tris={[int(blas.tri_order[k]) for k in slots]}")


def tlas_dump_text(tlas: Tlas) -> str:
    header = f"tlas frame={tlas.frame_index} instances={len(tlas.instances)}"
    if not tlas.instances:
        return header

    def leaf_text(slots):
        insts = [tlas.instances[int(tlas.inst_order[k])] for k in slots]
        return (f"instances={[inst.instance_id for inst in insts]} "
                f"names={[inst.node_name for inst in insts]}")

    return _dump_text(header, tlas, leaf_text)
