"""The tests' accel oracles: a per-node BVH build, per-node subtree bounds
and a brute-force ray scan.

The reference binned-SAH build runs one node at a time, one split search
per node.  This is the build accel's level-synchronous _build_bvh_levels
must reproduce bit for bit: the same node boxes, split choices, node
numbering and element order.  The split search and every helper it uses
are kept here as they were when this build ran in the program, so a
change to accel's helpers cannot move the reference along with it.

The brute-force scan answers closest-hit queries with the contract of
accel.ray_closest_hit; it keeps its own Moller-Trumbore and never calls
accel's walk.
"""

import numpy as np

from softrender.accel import EPSILON_INTERSECT, SAH_BINS, Hit


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

    Ties resolve to the lower axis then the lower bin, so the partition
    is a pure function of the input boxes.
    """
    cmin = centroids.min(axis=0)
    bins = _bin_index(centroids, cmin, centroids.max(axis=0) - cmin)  # (n, axis)
    key = (bins * 3 + np.arange(3)).ravel()  # (bin, axis)
    table = _min_at(SAH_BINS * 3, key, np.repeat(np.concatenate([lo, -hi], axis=1), 3, axis=0))
    bin_n = np.bincount(key, minlength=SAH_BINS * 3).reshape(SAH_BINS, 3)
    table = table.reshape(SAH_BINS, 3, 6)
    cost = _sah_cost(np.minimum.accumulate(table, axis=0),
                     np.minimum.accumulate(table[::-1], axis=0)[::-1], bin_n, len(lo)).T
    best = int(np.argmin(cost))  # first minimum in axis-major order
    if not cost.flat[best] < np.inf:
        return None
    axis, b = divmod(best, SAH_BINS - 1)
    return bins[:, axis] <= b


def _bin_index(centroids, cmin, extent):
    """SAH bin of each centroid on each axis, given its node's centroid bounds."""
    # a zero-extent axis bins everything at 0, so all its right sides are empty
    rel = (centroids - cmin) / np.where(extent > 0.0, extent, 1.0)
    return np.minimum((rel * SAH_BINS).astype(np.int64), SAH_BINS - 1)


def _sah_cost(pre, suf, bin_n, count):
    """(SAH_BINS - 1, ...) cost of splitting after each bin; inf where a side is empty.

    pre[b] and suf[b] are the [lo, -hi] boxes of bins 0..b and of bins
    b..SAH_BINS - 1, inf where those bins are empty; bin_n holds the
    (SAH_BINS, ...) bin counts.  The cost after bin b is
    area_L * n_L + area_R * n_R.
    """
    nl = np.cumsum(bin_n, axis=0)[:-1]
    nr = count - nl
    al = _surface_area(pre[:-1, ..., :3], -pre[:-1, ..., 3:])
    ar = _surface_area(suf[1:, ..., :3], -suf[1:, ..., 3:])
    return np.where((nl > 0) & (nr > 0), al * nl + ar * nr, np.inf)


def _surface_area(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Surface area of boxes along the last axis; an inverted box has 0."""
    d = np.maximum(hi - lo, 0.0)
    return 2.0 * (d[..., 0] * d[..., 1] + d[..., 1] * d[..., 2] + d[..., 2] * d[..., 0])


def _min_at(rows: int, key: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(rows, C) column-wise np.minimum of the value rows that share a key; inf where none.

    Rows fold in input order, so a tie between 0.0 and -0.0 keeps the
    later one, as a sequential .min(axis=0) over the same rows does.
    """
    c = values.shape[1]
    table = np.full(rows * c, np.inf)
    np.minimum.at(table, (key[:, None] * c + np.arange(c)).ravel(), values.ravel())
    return table.reshape(rows, c)


def all_world_triangles(tlas):
    """((K, 3, 3) world vertices, (K,) instance ids, (K,) triangle indices)."""
    verts, inst_ids, tri_ids = [], [], []
    for i, m, inst_id in zip(tlas.blas_index, tlas.transforms, tlas.instance_ids):
        blas = tlas.blases[i]
        base = blas.v0
        b = blas.v0 + blas.e1
        c = blas.v0 + blas.e2
        w0 = base @ m[:3, :3].T + m[:3, 3]
        w1 = b @ m[:3, :3].T + m[:3, 3]
        w2 = c @ m[:3, :3].T + m[:3, 3]
        tri_world = np.stack([w0, w1, w2], axis=1)
        # undo the build permutation so triangle ids match geometry order
        inv_order = np.argsort(blas.tri_order, kind="stable")
        verts.append(tri_world[inv_order])
        inst_ids.append(np.full(len(base), inst_id, dtype=np.int64))
        tri_ids.append(np.arange(len(base), dtype=np.int64))
    if not verts:
        return np.zeros((0, 3, 3)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(verts), np.concatenate(inst_ids), np.concatenate(tri_ids)


def subtree_bounds(tlas):
    """(node_lo, node_hi): each node's box recomputed, one node at a time, as
    the min and max of the world boxes of the instances in its subtree; a
    node without instances keeps the box it has."""
    lo, hi = tlas.node_lo.copy(), tlas.node_hi.copy()

    def instances(ni):
        if tlas.node_start[ni] >= 0:
            start = tlas.node_start[ni]
            found = tlas.inst_order[start:start + tlas.node_count[ni]]
        else:
            found = np.concatenate([instances(tlas.node_left[ni]), instances(tlas.node_right[ni])])
        if len(found):
            lo[ni] = tlas.world_lo[found].min(axis=0)
            hi[ni] = tlas.world_hi[found].max(axis=0)
        return found

    instances(0)
    return lo, hi


def brute_force_closest_hit(tlas, ray) -> Hit | None:
    """Test every world-space triangle; same contract as accel.ray_closest_hit.

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
