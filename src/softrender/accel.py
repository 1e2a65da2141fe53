"""Two-level bounding volume hierarchy for ray queries.

Both levels come from one binned surface-area-heuristic build that
splits every node of one tree depth in one array step.  A Blas (bottom
level) is built once per geometry over object-space triangles; a
geometry without triangles gets one empty leaf, and its instances are
left out of the top level.  A Tlas (top level) is built over the
world-space boxes of the instances, given as arrays (transforms, BLAS
indices, names; instance k has id k): one corner transform gives every
world box, and the inverses come from the caller when it has them (the
frame loop reuses those its pose check computed), else from one batched
inversion.  When only the transforms change, refit_tlas keeps the tree
and recomputes its boxes bottom-up, leaves first, then one tree depth
per step.
Queries run in batches: rays walk each level as a frontier of (ray,
node) pairs, every (ray, instance) pair moves into that instance's
object space (so t stays in world units), and Moller-Trumbore runs over
all (ray, triangle) pairs at once.  shadow_mask tests a batch of points;
ray_closest_hit, ray_any_hit and shadow_visibility are batches of one.
A pre-order walk gives compaction its node order.

Conventions that tests rely on:
  - Intersection uses the Moller-Trumbore form with determinant cutoff
    EPSILON_INTERSECT; u, v, u+v boundaries are inclusive.
  - Closest-hit treats [t_min, t_max] as closed, any-hit as open.
  - Equal-t ties resolve to the lower (instance id, triangle index).
  - Rebuilding from identical input is byte-identical, and so is
    refitting to the transforms a TLAS was built with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .linalg import dot_rows
from .scene import check_invertible

EPSILON_INTERSECT = 1e-9
SHADOW_OFFSET = 1e-4
SAH_BINS = 16
LEAF_MAX_TRIS = 4
LEAF_MAX_INSTANCES = 2
# refit_tlas gives up once its nodes' surface area sum passes this multiple
# of the build's: 1,024 orbiting demo bodies stay under 1.24x over 134
# stub ticks, while a shuffle of their anchors reaches 50x and makes
# shadow_mask 4-7x slower than on a new build
REFIT_AREA_LIMIT = 2.0
# corner c of a box takes hi on axis k where bit (2 - k) of c is set
_CORNER_IS_HI = ((np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1).astype(bool)
_AXES = np.arange(3)
_COLUMNS = np.arange(12)
# the (axis, bin) of each of a node's axis-major split costs
_SPLIT_AXIS, _SPLIT_BIN = np.divmod(np.arange(3 * (SAH_BINS - 1)), SAH_BINS - 1)


def _surface_area(extent: np.ndarray) -> np.ndarray:
    """Surface area of boxes whose x, y, z extents run along the first axis;
    a negative extent counts as 0, so an inverted box has 0."""
    d = np.maximum(extent, 0.0)
    return 2.0 * (d[0] * d[1] + d[1] * d[2] + d[2] * d[0])


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
# Binned-SAH builder over a set of leaf element boxes, one tree depth per step.

def _min_at(size: int, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(size,) np.minimum of the values at each flat index; inf where none.

    Values fold in input order, so a tie between 0.0 and -0.0 keeps the
    later one, as a sequential .min(axis=0) over the same rows does.
    """
    table = np.empty(size)
    table.fill(np.inf)
    np.minimum.at(table, index.ravel(), values.ravel())
    return table


def _build_bvh_levels(box_lo: np.ndarray, box_hi: np.ndarray, leaf_max: int):
    """Build node arrays over n element boxes, one tree depth at a time.

    Returns (node_lo, node_hi, left, right, start, count, order) where
    internal nodes have left/right child indices (start = -1) and leaves
    have a [start, start+count) range into the order permutation.
    Splits use a 16-bin surface-area heuristic on each axis with a
    median fallback, so leaves never exceed leaf_max elements.

    Each step splits every node of one depth that holds more than leaf_max
    elements (_level_sides), and a stable sort on (node, side) partitions
    them all.  Every bound is a minimum (a maximum is the minimum of the
    negated values) folded over a node's elements in order, so it is the
    bit-exact sequential .min of those elements, signed zeros included.
    Nodes are numbered breadth first, then renumbered as a depth-first
    build allocates them: the j-th internal node in pre-order has children
    2j + 1 and 2j + 2.  tests/bvh_oracle.py holds that per-node build, the
    reference this one matches bit for bit.
    """
    n = len(box_lo)
    centroids = (box_lo + box_hi) * 0.5
    # per element: [lo, -hi, centroid, -centroid], so a min gives every bound
    folded = np.concatenate([box_lo, -box_hi, centroids, -centroids], axis=1)
    order = np.arange(n, dtype=np.int64)
    # the nodes of one depth: the [start, start + count) slice of order and the
    # folded bounds of each (inf for no elements: the root of none is one empty
    # leaf with an inverted box); first is the breadth-first id of the first
    start, count, first = np.zeros(1, np.int64), np.full(1, n), 0
    bounds = folded.min(axis=0, keepdims=True, initial=np.inf)
    starts, counts, boxes, splits = [start], [count], [bounds], [start[:0]]
    while True:
        split = (count > leaf_max).nonzero()[0]
        if not len(split):
            break
        splits.append(split + first)
        first += len(count)
        start, count, bounds = start[split], count[split], bounds[split]
        seg = np.arange(len(count)).repeat(count)  # each element's node
        pos = np.arange(len(seg)) + (start - count.cumsum() + count).repeat(count)
        idx = order[pos]
        f = folded[idx]
        child = seg * 2 + _level_sides(f, centroids[idx], seg, count, bounds)
        order[pos] = idx[child.argsort(kind="stable")]
        # each child's elements, in order
        bounds = _min_at(24 * len(count), child[:, None] * 12 + _COLUMNS, f).reshape(-1, 12)
        count = np.bincount(child, minlength=2 * len(count))  # no side is empty
        start = start.repeat(2)
        start[1::2] += count[::2]
        starts.append(start)
        counts.append(count)
        boxes.append(bounds)

    start, count, box = np.concatenate(starts), np.concatenate(counts), np.concatenate(boxes)
    inner = np.concatenate(splits)  # breadth first, so the k-th has children 2k + 1, 2k + 2
    # pre-order sorts by (start, depth), and breadth-first ids already rise with depth
    number = np.zeros(len(start), np.int64)  # the per-node build's index of each node
    number[1:].reshape(-1, 2)[start[inner].argsort(kind="stable")] = \
        np.arange(1, len(start)).reshape(-1, 2)
    left, right = np.full((2, len(start)), -1, np.int32)
    left[number[inner]] = number[1::2]
    right[number[inner]] = number[2::2]
    node = number.argsort()
    leaf = left < 0
    return (box[node, :3], -box[node, 3:6], left, right,
            np.where(leaf, start[node], -1).astype(np.int32),
            np.where(leaf, count[node], 0).astype(np.int32),
            order)


def _level_sides(folded, centroids, seg, count, bounds):
    """True for the elements that go right when every node of a level splits.

    folded and centroids hold each element's [lo, -hi, centroid, -centroid]
    and centroid, seg its node, count and bounds each node's size and
    folded minimum.  Each axis's centroid extent is cut into SAH_BINS bins,
    and splitting after bin b costs area_L * n_L + area_R * n_R, inf where
    a side is empty.  The first minimum in (axis, bin) order wins, so ties
    go to the lower axis, then the lower bin.
    """
    nodes = len(count)
    cells = 3 * nodes  # one per (node, axis)
    cmin = bounds[:, 6:9]
    extent = -bounds[:, 9:] - cmin
    # a zero-extent axis bins everything at 0, so all its right sides are empty
    rel = (centroids - cmin[seg]) / np.where(extent > 0.0, extent, 1.0)[seg]
    bins = np.minimum((rel * SAH_BINS).astype(np.int64), SAH_BINS - 1)
    key = bins * cells + seg[:, None] * 3 + _AXES  # (bin, node, axis)
    bin_n = np.bincount(key.ravel(), minlength=SAH_BINS * cells).reshape(SAH_BINS, cells)
    table = _min_at(6 * SAH_BINS * cells, key[:, :, None] * 6 + _COLUMNS[:6],
                    folded[:, :6].repeat(3, axis=0)).reshape(SAH_BINS, 1, cells, 6)
    # one sweep makes the prefix boxes [:, 0], of bins 0..b, and the reversed
    # suffix boxes [:, 1], of bins SAH_BINS - 1 - b..SAH_BINS - 1
    swept = np.concatenate([table, table[::-1]], axis=1)
    steps = list(swept)  # accumulate would walk each column on its own: slow on wide levels
    for prev, step in zip(steps, steps[1:]):
        np.minimum(prev, step, out=step)
    # -(lo + -hi) is hi - lo but for the sign of a zero, which the area's clamp drops
    box = swept[:-1].transpose(3, 1, 0, 2)  # (coordinate, side, bin, cell)
    extent = np.add(box[:3], box[3:], out=np.empty((3, 2, SAH_BINS - 1, cells)))
    area = _surface_area(np.negative(extent, out=extent))
    nl = bin_n.cumsum(axis=0)[:-1]
    nr = count.repeat(3) - nl
    # split after bin b: left bins 0..b, right bins b + 1..SAH_BINS - 1
    cost = np.where(nl * nr > 0, area[0] * nl + area[1, ::-1] * nr, np.inf)
    cost = cost.reshape(SAH_BINS - 1, nodes, 3).transpose(1, 2, 0).reshape(nodes, -1)
    best = cost.argmin(axis=1)  # first minimum in axis-major order
    pick = best[seg]
    right = bins[np.arange(len(seg)), _SPLIT_AXIS[pick]] > _SPLIT_BIN[pick]
    for j in (~(cost.min(axis=1) < np.inf)).nonzero()[0]:
        # degenerate spread: median split keeps the tree balanced
        rows = (seg == j).nonzero()[0]
        axis = int(np.argmax(-bounds[j, 3:6] - bounds[j, :3]))
        right[rows] = True
        right[rows[centroids[rows, axis].argsort(kind="stable")[:count[j] // 2]]] = False
    return right


@dataclass
class _Nodes:
    """The node arrays _build_bvh_levels returns, shared by both levels."""
    node_lo: np.ndarray
    node_hi: np.ndarray
    node_left: np.ndarray
    node_right: np.ndarray
    node_start: np.ndarray  # >= 0 marks a leaf
    node_count: np.ndarray


def _preorder(nodes: _Nodes):
    """Yield node indices, parents before children, left subtree first."""
    stack = [0]
    while stack:
        ni = stack.pop()
        yield ni
        if nodes.node_start[ni] < 0:
            stack.append(int(nodes.node_right[ni]))
            stack.append(int(nodes.node_left[ni]))


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

    *nodes, order = _build_bvh_levels(tri_lo, tri_hi, LEAF_MAX_TRIS)
    v0 = a[order]
    return Blas(
        *nodes,
        geometry_id=geometry_id,
        tri_order=order,
        v0=v0, e1=b[order] - v0, e2=c[order] - v0,
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


def compact_blas(blas: Blas) -> Blas:
    """Reorder nodes into depth-first order and drop build scratch.

    Query results are unchanged; serialization shrinks (strictly, when
    scratch was present).  Compacting an already compact structure
    returns it as-is.
    """
    if blas.compacted:
        return blas
    dfs = np.fromiter(_preorder(blas), np.int64)
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
class Tlas(_Nodes):
    blases: list[Blas]          # as given, used or not
    blas_index: np.ndarray      # (K,) each instance's BLAS, an index into blases
    transforms: np.ndarray      # (K, 4, 4) object to world
    inv_transforms: np.ndarray  # (K, 4, 4)
    node_names: list[str]
    instance_ids: np.ndarray    # (K,)
    inst_order: np.ndarray
    world_lo: np.ndarray        # (K, 3) per-instance world bounds
    world_hi: np.ndarray
    frame_index: int = 0
    # refit_tlas's (leaves, internal nodes by depth, the build's area sum,
    # root corners), made by its first call and kept by later refits
    refit_plan: tuple | None = field(default=None, repr=False)


def _root_corners(blases: list[Blas], blas_index):
    """(K, 8, 3) object-space corners of each instance's BLAS root box."""
    root_lo = np.array([blas.node_lo[0] for blas in blases]).reshape(-1, 3)[blas_index]
    root_hi = np.array([blas.node_hi[0] for blas in blases]).reshape(-1, 3)[blas_index]
    return np.where(_CORNER_IS_HI, root_hi[:, None], root_lo[:, None])


def _world_boxes(corners, transforms):
    """(K, 3) world lo and hi of each instance: its (K, 8, 3) root corners,
    transformed.  The left folds over the corners are ``min(axis=1)`` and
    ``max(axis=1)`` bit for bit, signs of zeros included, and several
    times faster."""
    world = corners @ transforms[:, :3, :3].transpose(0, 2, 1) + transforms[:, None, :3, 3]
    points = [world[:, c] for c in range(8)]
    return reduce(np.minimum, points), reduce(np.maximum, points)


def build_tlas(transforms, blas_index, blases: list[Blas], node_names: list[str],
               frame_index: int = 0, inv_transforms=None) -> Tlas:
    """A new tree over K instances (refit_tlas moves them): instance k is
    blases[blas_index[k]] at transforms[k], named node_names[k], and its
    id is k; without inv_transforms, check_invertible makes the inverses.
    The Tlas keeps the arrays it is given, so each call needs its own
    transforms and inverses.  An instance of a BLAS without triangles is
    left out, as if absent; the others keep their ids."""
    transforms = np.asarray(transforms, dtype=np.float64).reshape(-1, 4, 4)
    blas_index = np.asarray(blas_index, dtype=np.int64)
    if inv_transforms is None:
        inv_transforms = check_invertible(node_names, transforms, "instance")
    ids = np.flatnonzero(np.array([len(blas.tri_order) > 0 for blas in blases],
                                  dtype=bool)[blas_index])
    if len(ids) < len(transforms):
        blas_index, node_names = blas_index[ids], [node_names[k] for k in ids]
        transforms, inv_transforms = transforms[ids], inv_transforms[ids]
    if not len(ids):
        return Tlas(blases=list(blases), blas_index=blas_index, transforms=transforms,
                    inv_transforms=inv_transforms, node_names=node_names, instance_ids=ids,
                    node_lo=np.zeros((1, 3)), node_hi=np.zeros((1, 3)),
                    node_left=np.int32([-1]), node_right=np.int32([-1]),
                    node_start=np.int32([0]), node_count=np.int32([0]),
                    inst_order=np.zeros(0, dtype=np.int64),
                    world_lo=np.zeros((0, 3)), world_hi=np.zeros((0, 3)),
                    frame_index=frame_index)
    world_lo, world_hi = _world_boxes(_root_corners(blases, blas_index), transforms)
    *nodes, order = _build_bvh_levels(world_lo, world_hi, LEAF_MAX_INSTANCES)
    return Tlas(*nodes, blases=list(blases), blas_index=blas_index, transforms=transforms,
                inv_transforms=inv_transforms, node_names=node_names,
                instance_ids=ids, inst_order=order,
                world_lo=world_lo, world_hi=world_hi, frame_index=frame_index)


def _area_sum(nodes: _Nodes) -> float:
    return float(_surface_area((nodes.node_hi - nodes.node_lo).T).sum())


def _refit_plan(tlas: Tlas):
    """The leaves that hold instances, in slot order, the internal nodes of
    each depth, deepest first, from one frontier walk from the root, the
    node area sum and the instances' root corners."""
    depths = []
    node = np.zeros(1, np.int64)
    while len(node):
        inner = node[tlas.node_start[node] < 0]
        depths.append(inner)
        node = np.concatenate([tlas.node_left[inner], tlas.node_right[inner]])
    leaf = np.flatnonzero(tlas.node_count > 0)
    return (leaf[tlas.node_start[leaf].argsort()], depths[::-1], _area_sum(tlas),
            _root_corners(tlas.blases, tlas.blas_index))


def refit_tlas(tlas: Tlas, transforms, frame_index: int, inv_transforms=None) -> Tlas | None:
    """tlas with its instances moved to new transforms, same tree; None
    when that tree fits them too loosely and build_tlas should make one.

    transforms (and inv_transforms) hold one matrix per instance build_tlas
    was given, left-out ones included.  The world boxes are build_tlas's,
    from the instances' root corners, which the refit plan that the first
    refit of a built tree makes carries with the tree's leaves and depths;
    each leaf box is then the min/max of its instances' boxes, and each
    internal box that of its children's, one depth per step, deepest
    first.  Min and max are exact, so refitting to the transforms tlas was
    built with gives build_tlas's bytes.  Queries on a refit tree give a
    new build's answers, but a tree whose node area sum has passed
    REFIT_AREA_LIMIT times the one tlas was built with gives None.
    """
    transforms = np.asarray(transforms, dtype=np.float64).reshape(-1, 4, 4)
    ids = tlas.instance_ids
    if len(ids) < len(transforms):
        transforms = transforms[ids]
        inv_transforms = None if inv_transforms is None else inv_transforms[ids]
    if inv_transforms is None:
        inv_transforms = check_invertible(tlas.node_names, transforms, "instance")
    plan = tlas.refit_plan or _refit_plan(tlas)
    leaf, depths, built_area, corners = plan
    world_lo, world_hi = _world_boxes(corners, transforms)
    lo, hi = tlas.node_lo.copy(), tlas.node_hi.copy()
    start = tlas.node_start[leaf]
    lo[leaf] = np.minimum.reduceat(world_lo[tlas.inst_order], start)
    hi[leaf] = np.maximum.reduceat(world_hi[tlas.inst_order], start)
    left, right = tlas.node_left, tlas.node_right
    for inner in depths:
        lo[inner] = np.minimum(lo[left[inner]], lo[right[inner]])
        hi[inner] = np.maximum(hi[left[inner]], hi[right[inner]])
    refit = replace(tlas, node_lo=lo, node_hi=hi, transforms=transforms,
                    inv_transforms=inv_transforms, world_lo=world_lo, world_hi=world_hi,
                    frame_index=frame_index, refit_plan=plan)
    return refit if _area_sum(refit) <= REFIT_AREA_LIMIT * built_area else None


def serialize_tlas(tlas: Tlas) -> bytes:
    return _serialize([tlas.frame_index, len(tlas.instance_ids)],
                      (tlas.node_lo, tlas.node_hi, tlas.node_left, tlas.node_right,
                       tlas.node_start, tlas.node_count, tlas.inst_order,
                       tlas.inv_transforms, tlas.world_lo, tlas.world_hi))


# ---------------------------------------------------------------------------
# Traversal: one batched walk over both levels.

@np.errstate(divide="ignore", invalid="ignore")
def _reach(nodes: _Nodes, o, d, t_lo, t_hi):
    """(ray, slot, leaf size) for every element slot of every leaf a ray reaches.

    Each step a row-wise slab test on [t_lo, t_hi] drops the (ray, node)
    pairs that miss; internal nodes split into both children.  fmax/fmin
    skip a NaN slab bound as the scalar comparisons `t1 > t_lo`, `t2 < t_hi`
    do.  A zero direction component divides to +-inf: an origin inside that
    slab gets no bound from it (-inf..inf, or NaN on a face), one outside
    gets an empty interval, except for a zero direction with an infinite
    t_hi, which hits no triangle anyway.
    """
    inv = 1.0 / d
    ray = np.arange(len(o))
    node = np.zeros(len(o), dtype=np.int64)
    seen_ray, seen_node = [ray[:0]], [node[:0]]
    while len(ray):
        lo, hi, ro, ri = nodes.node_lo[node], nodes.node_hi[node], o[ray], inv[ray]
        t1 = (lo - ro) * ri
        t2 = (hi - ro) * ri
        swap = t1 > t2
        near, far = np.where(swap, t2, t1), np.where(swap, t1, t2)
        # per axis: np.fmax.reduce(near, axis=1) is many times slower
        enter = np.fmax(t_lo[ray], np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2]))
        leave = np.fmin(t_hi[ray], np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2]))
        keep = ~(enter > leave)
        ray, node = ray[keep], node[keep]
        seen_ray.append(ray)
        seen_node.append(node)
        inner = nodes.node_start[node] < 0
        node = np.concatenate([nodes.node_left[node[inner]], nodes.node_right[node[inner]]])
        ray = np.concatenate([ray[inner], ray[inner]])
    node = np.concatenate(seen_node)
    size = nodes.node_count[node]  # 0 for internal nodes
    slot = np.repeat(nodes.node_start[node] + size - np.cumsum(size), size) + np.arange(size.sum())
    return np.repeat(np.concatenate(seen_ray), size), slot, np.repeat(size, size)


def _hits(tlas: Tlas, o, d, t_min, t_max, closed: bool):
    """Every accepted (ray, t, instance_id, triangle_index, u, v) of a batch, as arrays."""
    t_min, t_max = np.broadcast_to(t_min, len(o)), np.broadcast_to(t_max, len(o))
    ray, slot, _ = _reach(tlas, o, d, t_min, t_max)  # an empty TLAS is one empty leaf
    k = tlas.inst_order[slot]  # one row per (ray, instance) pair, moved into object space
    inv = tlas.inv_transforms[k]
    ko = (inv[:, :3, :3] @ o[ray][:, :, None])[..., 0] + inv[:, :3, 3]
    kd = (inv[:, :3, :3] @ d[ray][:, :, None])[..., 0]
    # one walk per BLAS over the pairs of all its instances; per (pair, triangle
    # slot): pair, v0, e1, e2, triangle index, leaf size
    found = [(k[:0], np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)), k[:0], k[:0])]
    b = tlas.blas_index[k]
    for i in np.unique(b):
        blas, pairs = tlas.blases[i], np.flatnonzero(b == i)
        p, s, size = _reach(blas, ko[pairs], kd[pairs], t_min[ray[pairs]], t_max[ray[pairs]])
        found.append((pairs[p], blas.v0[s], blas.e1[s], blas.e2[s], blas.tri_order[s], size))
    pair, v0, e1, e2, tri, size = (np.concatenate(c) for c in zip(*found))
    ray, ko, kd, inst_id = ray[pair], ko[pair], kd[pair], tlas.instance_ids[k[pair]]
    pvec = np.cross(kd, e2)  # C-ordered: einsum below rounds F-ordered rows differently
    det = np.einsum("ij,ij->i", e1, pvec)
    ok = np.abs(det) > EPSILON_INTERSECT
    inv_det = np.where(ok, 1.0 / np.where(det == 0.0, 1.0, det), 0.0)
    tvec = ko - v0
    u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
    ok &= (u >= 0.0) & (u <= 1.0)
    qvec = np.cross(tvec, e1)
    v = dot_rows(qvec, kd, size == 1) * inv_det  # rounded as one product per leaf
    ok &= (v >= 0.0) & (u + v <= 1.0)
    t = np.einsum("ij,ij->i", e2, qvec) * inv_det
    lo, hi = t_min[ray], t_max[ray]
    ok &= ((t >= lo) & (t <= hi)) if closed else ((t > lo) & (t < hi))
    return ray[ok], t[ok], inst_id[ok], tri[ok], u[ok], v[ok]


def ray_closest_hit(tlas: Tlas, ray: Ray) -> Hit | None:
    """Closest intersection along the ray, closed t interval.

    Ties on t resolve to the lower (instance id, triangle index) so the
    result is a pure function of the scene.
    """
    _, t, inst, tri, u, v = _hits(tlas, ray.origin[None], ray.direction[None],
                                  ray.t_min, ray.t_max, closed=True)
    if not len(t):
        return None
    i = np.lexsort((tri, inst, t))[0]
    return Hit(t=float(t[i]), instance_id=int(inst[i]), triangle_index=int(tri[i]),
               u=float(u[i]), v=float(v[i]))


def ray_any_hit(tlas: Tlas, ray: Ray) -> bool:
    """True if anything lies strictly inside (t_min, t_max)."""
    return len(_hits(tlas, ray.origin[None], ray.direction[None],
                     ray.t_min, ray.t_max, closed=False)[0]) > 0


def shadow_mask(tlas: Tlas, points, normals, light_pos) -> np.ndarray:
    """(P,) visibility: 1.0 where the segment from the offset point to the light is clear.

    Each origin is pushed SHADOW_OFFSET along its normal and the tested
    interval is (SHADOW_OFFSET, distance - SHADOW_OFFSET), open on both
    ends, so neither the surface itself nor geometry hugging the light
    occludes.  A light within 2 * SHADOW_OFFSET of the origin is visible.
    """
    origin = (np.asarray(points, dtype=np.float64)
              + np.asarray(normals, dtype=np.float64) * SHADOW_OFFSET).reshape(-1, 3)
    to_light = np.asarray(light_pos, dtype=np.float64) - origin
    dist = np.sqrt((to_light[:, None, :] @ to_light[:, :, None])[:, 0, 0])  # as norm() rounds
    cast = np.flatnonzero(dist > 2.0 * SHADOW_OFFSET)
    blocked = _hits(tlas, origin[cast], to_light[cast] / dist[cast, None],
                    SHADOW_OFFSET, dist[cast] - SHADOW_OFFSET, closed=False)[0]
    visible = np.ones(len(origin))
    visible[cast[blocked]] = 0.0
    return visible


def shadow_visibility(tlas: Tlas, point, normal, light_pos) -> float:
    """shadow_mask of one point."""
    return float(shadow_mask(tlas, [point], [normal], light_pos)[0])
