"""Sorted draw submission and the multisampled raster + shade pass.

Draws are sorted by (material id, geometry id) with node name as the
tie break, mirroring a command-buffer submission path that minimizes
pipeline and binding switches.  The geometry stage makes one array pass
per geometry over the stacked world matrices of its draws: transform
and project each vertex once, frustum cull, near clip, and reorder the
triangles, index triples into those vertices, to submission order.  The
pass itself is a visibility buffer over per-sample coverage and depth:

  - column-major MVP convention, right-handed view space, depth in
    [0, 1] with a less-than test;
  - geometry is clipped against the near plane only (Sutherland-Hodgman
    polygon clip with linear attribute interpolation), far overflow is
    left to the depth range;
  - fill follows a top-left rule on exact edge-function zeros;
  - coverage and depth are computed as arrays over each triangle's
    coverage window, the pixels where a sample can land in its screen
    box, and the depth rule is sequential: in submission order a
    sample passes on ``z < float32 stored depth`` and stores its
    float32 depth, so the last passing triangle wins the sample.  A
    chunk of (triangle, pixel) pairs resolves it for all samples at
    once, rank by rank over each (pixel, sample) slot's candidates;
  - shading then runs once per frame, once per (pixel, winning triangle)
    at the pixel center, with one shadow batch per light, and the result
    goes to the samples that triangle won;
  - attributes are perspective-corrected via 1/w interpolation.

Only coverage splits over disjoint horizontal bands.  Every band covers
with the same triangles in the same submission order and records batch
triangle ids, and the one shading pass sees the whole frame, so the
worker count can change wall time but never a single pixel.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .accel import shadow_mask
from .errors import ConfigurationError, ValidationError
from .framebuffer import SAMPLE_POSITIONS, Framebuffer, clear_framebuffer, create_framebuffer
from .linalg import dot_rows, normalize, perspective
from .scene import Camera, Scene, check_finite, check_invertible, mesh_instances, mesh_lookup
from .shading import ShadingSample, linear_to_srgb, reinhard_tonemap, shade_direct

if TYPE_CHECKING:  # frameloop imports this module
    from .frameloop import RenderConfig


@dataclass
class Draws:
    """One draw per mesh-bearing node, as arrays, in submission order.

    Draws are sorted by (material id, geometry id, node name), which
    groups draws that share both material state and geometry.
    """

    node_names: np.ndarray  # (D,) object: node names
    geometry: np.ndarray  # (D,) geometry ids
    material: np.ndarray  # (D,) int32 material ids
    world: np.ndarray     # (D, 4, 4) world matrices
    order: np.ndarray     # (D,) each draw's index among the mesh nodes


def sort_draws(node_names: list[str], geometry: np.ndarray, material: np.ndarray,
               world: np.ndarray) -> Draws:
    """Draws of the mesh nodes given in node order: names, geometry ids,
    material ids and (K, 4, 4) world matrices.

    Names order as Python strings do (numpy's strings ignore trailing
    NULs): a stable sort by name, then a stable sort by the two ids.
    """
    by_name = np.array(sorted(range(len(node_names)), key=node_names.__getitem__),
                       dtype=np.int64)
    order = by_name[np.lexsort((geometry[by_name], material[by_name]))]
    return Draws(node_names=np.array(node_names, dtype=object)[order], geometry=geometry[order],
                 material=material[order].astype(np.int32), world=world[order], order=order)


def build_draws(scene: Scene) -> Draws:
    """The scene's draws, with world matrices from scene.world."""
    names, geometry, material = mesh_instances(scene)
    world = np.array(mesh_lookup(scene.world, names), dtype=np.float64)
    return sort_draws(names, geometry, material, world.reshape(-1, 4, 4))


def select_camera(scene: Scene, name: str | None = None) -> Camera:
    if not scene.cameras:
        raise ConfigurationError("scene has no camera")
    if name is None:
        return scene.cameras[0]
    for cam in scene.cameras:
        if cam.node == name:
            return cam
    raise ConfigurationError(f"no camera on node '{name}'")


def camera_world(scene: Scene, camera: Camera) -> np.ndarray:
    """The camera node's world matrix; ValidationError when scene.world has none."""
    try:
        return scene.world[camera.node]
    except KeyError:
        raise ValidationError(f"camera node '{camera.node}' has no world transform") from None


def camera_matrices(scene: Scene, camera: Camera, width: int, height: int):
    """(view, projection, eye position) for the camera node's world pose."""
    cam_world = camera_world(scene, camera)
    view = check_invertible([camera.node], cam_world[None], "camera node")[0]
    proj = perspective(camera.vertical_fov, width / height, camera.near, camera.far)
    return view, proj, cam_world[:3, 3].copy()


@dataclass
class _TriangleBatch:
    """Vertices shaded once, and near-clipped, consistently wound triangles as index triples."""

    xy: np.ndarray        # (V, 2) screen coords, y down
    z: np.ndarray         # (V,) depth in [0, 1+)
    iw: np.ndarray        # (V,) 1/w
    wpos_iw: np.ndarray   # (V, 3) world position / w
    wnrm_iw: np.ndarray   # (V, 3) world normal / w
    tri: np.ndarray       # (K, 3) int64 vertex rows
    material: np.ndarray  # (K,) int32

    @property
    def count(self) -> int:
        return len(self.tri)


def _clip_near(clip, wpos, wnrm):
    """Sutherland-Hodgman against z_clip >= 0 for C triangles with 1 or 2 vertices inside.

    The polygon of each triangle is the in-order valid slots of
    [v0, x01, v1, x12, v2, x20], where x_ij lies on edge i -> j at
    t = z_i / (z_i - z_j), measured from the edge's start vertex.
    Attributes interpolate linearly: clip coordinates are affine in world
    position, so the edge parameter is shared exactly.  A polygon of 3
    slots gives fan triangle (0, 1, 2), one of 4 also (0, 2, 3).  Returns
    the fan triangles' corners as (clip, wpos, wnrm) rows, three per fan
    triangle, their source rows and their fan index.
    """
    nxt = [1, 2, 0]
    inside = clip[..., 2] >= 0.0
    crosses = inside != inside[:, nxt]
    row, edge = np.nonzero(crosses)
    end = np.take(nxt, edge)
    zc = clip[row, edge, 2]
    t = (zc / (zc - clip[row, end, 2]))[:, None]
    valid = np.zeros((len(clip), 6), dtype=bool)
    valid[:, 0::2] = inside
    valid[:, 1::2] = crosses
    slot = np.argsort(~valid, axis=1, kind="stable")[:, :4]  # valid slots first, in order
    fan = valid.sum(axis=1) == 4
    rows = np.concatenate([np.arange(len(clip)), np.flatnonzero(fan)])
    corners = np.concatenate([slot[:, [0, 1, 2]], slot[fan][:, [0, 2, 3]]])
    out = []
    for attr in (clip, wpos, wnrm):
        poly = np.zeros((len(clip), 6, attr.shape[-1]))
        poly[:, 0::2] = attr
        start = attr[row, edge]
        poly[row, 2 * edge + 1] = start + t * (attr[row, end] - start)
        out.append(poly[rows[:, None], corners].reshape(-1, attr.shape[-1]))
    return (*out, rows, np.repeat([0, 1], [len(clip), int(fan.sum())]))


def _geometry_stage(scene: Scene, draws: Draws, view, proj, width, height,
                    frustum_culling: bool, backface_culling: bool) -> _TriangleBatch:
    """Transform, cull, near-clip and project every draw, in submission order.

    One pass per geometry over the world matrices of its draws adds each
    vertex to the vertex table once; each near-clipped fan triangle adds
    its three corners.  Within a draw, fully inside triangles keep their
    order and come first, then the fan triangles of the near-clipped ones;
    depth ties depend on this order.  Degenerate triangles drop: zero area,
    and areas below the smallest normal float, which would divide depth to
    inf.  Winding is normalized so edge functions are positive inside,
    flipping index order when needed.  Every draw's world matrix must be
    finite, culled or not.
    """
    vp = proj @ view
    geometry, material, world = draws.geometry, draws.material, draws.world
    check_finite(draws.node_names, world, "node")
    # (clip, wpos, wnrm) vertex rows, then (tri, draw rank, clipped, triangle, fan) per triangle
    parts = [(np.zeros((0, 4)), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3), np.int64),
              *[np.zeros(0, np.int64)] * 4)]
    base = 0  # vertex rows so far
    for gid in np.unique(geometry):
        geo = scene.geometries[gid]
        if geo.triangle_count == 0:
            continue
        rank = np.flatnonzero(geometry == gid)
        m = world[rank]
        hom = np.concatenate([geo.positions, np.ones((geo.vertex_count, 1))], axis=1)
        clip = hom @ (vp @ m).transpose(0, 2, 1)  # (D, V, 4)

        if frustum_culling:
            x, y, z, w = np.moveaxis(clip, 2, 0)
            outside = ((x < -w).all(axis=1) | (x > w).all(axis=1) | (y < -w).all(axis=1)
                       | (y > w).all(axis=1) | (z < 0).all(axis=1) | (z > w).all(axis=1))
            rank, m, clip = rank[~outside], m[~outside], clip[~outside]
            if len(rank) == 0:
                continue

        wpos = geo.positions @ m[:, :3, :3].transpose(0, 2, 1) + m[:, None, :3, 3]
        inv = check_invertible(draws.node_names[rank], m[:, :3, :3], "node")
        wnrm = geo.normals @ inv  # row n becomes inv(M3).T @ n, the normal matrix

        tri = geo.triangles.astype(np.int64)
        n_in = (clip[..., 2] >= 0.0)[:, tri].sum(axis=2)  # (D, T) vertices inside
        d, k = np.nonzero(n_in == 3)
        parts.append((clip.reshape(-1, 4), wpos.reshape(-1, 3), wnrm.reshape(-1, 3),
                      base + d[:, None] * geo.vertex_count + tri[k], rank[d], np.zeros_like(d),
                      k, np.zeros_like(d)))
        base += len(rank) * geo.vertex_count
        d, k = np.nonzero((n_in == 1) | (n_in == 2))
        if len(d):  # rare: skips the clip's fixed cost
            v = d[:, None], tri[k]
            *corners, src, fan = _clip_near(clip[v], wpos[v], wnrm[v])
            parts.append((*corners, base + np.arange(3 * len(src)).reshape(-1, 3), rank[d][src],
                          np.ones_like(src), k[src], fan))
            base += 3 * len(src)

    clip, wpos, wnrm, tri, rank, clipped, k, fan = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((fan, k, clipped, rank))
    tri, rank = tri[order], rank[order]

    with np.errstate(all="ignore"):  # vertices no triangle uses may lie on or behind the eye plane
        iw = 1.0 / clip[:, 3]
        x = (clip[:, 0] * iw * 0.5 + 0.5) * width
        y = (0.5 - clip[:, 1] * iw * 0.5) * height
        z = clip[:, 2] * iw
        wpos_iw, wnrm_iw = wpos * iw[:, None], wnrm * iw[:, None]
    tx, ty = x[tri], y[tri]
    area2 = ((tx[:, 1] - tx[:, 0]) * (ty[:, 2] - ty[:, 0])
             - (ty[:, 1] - ty[:, 0]) * (tx[:, 2] - tx[:, 0]))
    keep = ~(np.abs(area2) < np.finfo(np.float64).tiny)
    if backface_culling:
        keep &= area2 < 0.0  # front faces wind counter-clockwise before the y flip
    tri = tri[keep]
    flip = area2[keep] < 0.0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    return _TriangleBatch(xy=np.stack([x, y], axis=1), z=z, iw=iw, wpos_iw=wpos_iw,
                          wnrm_iw=wnrm_iw, tri=tri, material=material[rank[keep]])


# (triangle, pixel) pairs whose coverage is evaluated at once: bounds the
# per-sample temporaries whatever the scene or triangle size
_PAIR_CHUNK = 1 << 12

# A triangle's coverage window holds only the pixels where some sample
# lies within _WINDOW_SLACK = s px of its closed screen box.  The rest of
# the rectangle one pixel around the box holds no sample the edge test
# covers, unless the triangle is thin.  A sample p dropped from the window
# is more than s outside the box, so more than s * sin(a / 2) >=
# s * area2 / (2 L^2) outside one edge line, where a is the smallest angle
# and L the longest edge.  That edge's value dx * (py - vy) - dy * (px - vx)
# is |d| times p's signed distance; rounding the edge vector, the two
# differences and the two products moves it by at most 1.5 eps |d| |p - v|
# (the last difference keeps its sign), and |p - v| < sqrt(2) (L + 2) in
# the rectangle.  So the test rejects p once area2 > 136 eps L^2 (L + 2);
# _THIN doubles that bound.  Thin triangles keep the whole rectangle:
# rounding does cover samples beyond their box, 0.69 px on a 70 px sliver
# with area2 = 1.1e-12, 1/16 px on a 38 px one with area2 = 100 eps L^2.
# s must be positive: a triangle that is not thin covered a sample 1 ulp
# outside its box.
_WINDOW_SLACK = 1.0 / 32.0
_THIN = 256.0 * np.finfo(np.float64).eps


def _thin(dx, dy, area2):
    """Triangles whose edge test may cover samples farther than the slack from their box."""
    edge2 = dx * dx + dy * dy
    longest2 = np.maximum(np.maximum(edge2[:, 0], edge2[:, 1]), edge2[:, 2])
    return area2 <= _THIN * longest2 * (np.sqrt(longest2) + 2.0)


def _coverage_window(xy, thin, samples):
    """(K, 2) first and (K, 2) past-the-end pixel (x, y) of each window of (K, 3, 2) corners xy.

    Unclipped.  Never larger than the one-pixel-margin rectangle
    ``floor(min) - 1 .. ceil(max) + 1`` that thin triangles keep, because
    ``below`` and ``above`` are exact and under one pixel.
    """
    below = samples.max(axis=0) + _WINDOW_SLACK   # sample offsets sit on the 1/16 lattice
    above = _WINDOW_SLACK - samples.min(axis=0)
    box_lo = np.minimum(np.minimum(xy[:, 0], xy[:, 1]), xy[:, 2])  # xy.min(axis=1) is
    box_hi = np.maximum(np.maximum(xy[:, 0], xy[:, 1]), xy[:, 2])  # several times slower
    lo = np.where(thin[:, None], np.floor(box_lo) - 1, np.ceil(box_lo - below))
    hi = np.where(thin[:, None], np.ceil(box_hi) + 1, np.floor(box_hi + above) + 1)
    return lo, hi


def _edges(xy):
    """vx, vy, dx, dy (K, 3) and area2 (K,) of (K, 3, 2) corners xy; edge i runs v_i -> v_{i+1}."""
    vx, vy = xy[..., 0], xy[..., 1]
    dx = vx[:, [1, 2, 0]] - vx
    dy = vy[:, [1, 2, 0]] - vy
    area2 = dx[:, 0] * (vy[:, 2] - vy[:, 0]) - dy[:, 0] * (vx[:, 2] - vx[:, 0])
    return vx, vy, dx, dy, area2


def _edge_functions(dx, dy, vx, vy, px, py):
    """(P, 3) edge functions of points (px, py) against the rows' triangles."""
    return dx * (py[:, None] - vy) - dy * (px[:, None] - vx)


def _interpolate(batch: _TriangleBatch, k, lam, one_pixel):
    """(P,) 1/w, (P, 3) position/w and (P, 3) normal/w at barycentrics lam of triangles k.

    Row for row these are the bits of the per-triangle products
    ``lam_k @ iw[tri[k]]``, ``lam_k @ wpos_iw[tri[k]]`` and
    ``lam_k @ wnrm_iw[tri[k]]`` over the vertices, each shaded once, of
    triangle k's index triple.  The first is a matrix-vector product, which
    rounds one way for a single row (one_pixel) and another for two or more
    (``dot_rows``); the other two round alike for any row count.  Row sums
    and einsum round differently.
    """
    v = np.take(batch.tri, k, axis=0)  # take: several times faster than indexing here
    return (dot_rows(lam, np.take(batch.iw, v), one_pixel),
            (lam[:, None, :] @ np.take(batch.wpos_iw, v, axis=0))[:, 0],
            (lam[:, None, :] @ np.take(batch.wnrm_iw, v, axis=0))[:, 0])


def _raster_band(fb: Framebuffer, batch: _TriangleBatch, winner, band_y0: int,
                 band_y1: int) -> np.ndarray:
    """Cover rows [band_y0, band_y1) with every batch triangle; returns its (K,) int64 lit.

    The coverage half of a visibility buffer: the coverage and depth of
    every (triangle, pixel) pair of the triangles' coverage windows (see
    ``_WINDOW_SLACK``), a chunk of pairs at a time, under the sequential
    depth rule: in submission order a candidate passes on
    ``zg < float32 stored depth`` and stores ``float32(zg)``, so the last
    passing candidate wins (a float64 argmin is not the same rule).  Each
    chunk gathers its triangles' set-up from one (19, K) table and
    evaluates every sample on contiguous rows; then one walk runs rank by
    rank over each (pixel, sample) slot's candidates, a loop over depth
    complexity, not over triangles or samples.  Each winning sample's
    batch triangle id goes to the frame's (H, W, S) int32 winner array,
    and lit counts, per triangle, the band's pixels where some sample of
    it passed.
    """
    samples = SAMPLE_POSITIONS[fb.samples]
    width = fb.width
    xy, tz = np.take(batch.xy, batch.tri, axis=0), np.take(batch.z, batch.tri)
    vx, vy, dx, dy, area2 = _edges(xy)
    top_left = (dy < 0.0) | ((dy == 0.0) & (dx > 0.0))
    lo, hi = _coverage_window(xy, _thin(dx, dy, area2), samples)
    x_lo, y_lo = np.clip(lo, (0, band_y0), (width, band_y1)).astype(np.int64).T
    x_hi, y_hi = np.clip(hi, (0, band_y0), (width, band_y1)).astype(np.int64).T
    tris = np.flatnonzero((x_lo < x_hi) & (y_lo < y_hi) & (area2 > 0.0))
    # rows: dx, dy, vx, vy, z and top_left for edges (or corners) 0, 1, 2, then area2
    table = np.concatenate([dx.T, dy.T, vx.T, vy.T, tz.T, top_left.T, area2[None]])

    # (pixel, sample) slots pixel * S + s of the band
    depth = fb.depth[band_y0:band_y1].reshape(-1)
    winner = winner[band_y0:band_y1].reshape(-1)
    lit = np.zeros(len(tris), dtype=np.int64)  # pixels where some sample passed
    rect_w = x_hi[tris] - x_lo[tris]
    rect_n = rect_w * (y_hi[tris] - y_lo[tris])
    ends = np.cumsum(rect_n)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, _PAIR_CHUNK):
        pair = np.arange(start, min(start + _PAIR_CHUNK, total))
        j = np.searchsorted(ends, pair, side="right")
        k = tris[j]
        offset = pair - ends[j] + rect_n[j]
        row = y_lo[k] + offset // rect_w[j]
        col = x_lo[k] + offset % rect_w[j]
        pixel = (row - band_y0) * width + col
        by_pixel = np.argsort(pixel, kind="stable")
        pixel_slot = pixel[by_pixel] * fb.samples
        g = np.take(table, k, axis=1)  # contiguous (P,) rows
        kdx, kdy, kvx, kvy, kz = g[0:3], g[3:6], g[6:9], g[9:12], g[12:15]
        ktl, karea2 = g[15:18] != 0.0, g[18]
        cand, slot, cz = [], [], []
        for s, (sx, sy) in enumerate(samples):
            px, py = col + sx, row + sy  # _edge_functions, one edge row at a time
            e = [kdx[i] * (py - kvy[i]) - kdy[i] * (px - kvx[i]) for i in range(3)]
            inside = [(e[i] > 0.0) | ((e[i] == 0.0) & ktl[i]) for i in range(3)]
            cover = (inside[0] & inside[1] & inside[2])[by_pixel]
            c = by_pixel[cover]  # by pixel, then submission order
            cand.append(c)
            slot.append(pixel_slot[cover] + s)
            cz.append(((e[1] * kz[0] + e[2] * kz[1] + e[0] * kz[2]) / karea2)[c])
        cand, slot, cz = np.concatenate(cand), np.concatenate(slot), np.concatenate(cz)
        if len(cand) == 0:
            continue
        at = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])  # rank 0 of each slot
        left = np.diff(np.r_[at, len(cand)])
        passed = np.zeros(len(pair), dtype=bool)
        while len(at):
            c, p, z = cand[at], slot[at], cz[at]
            ok = z < depth[p]
            c, p = c[ok], p[ok]
            depth[p] = z[ok].astype(np.float32)
            winner[p] = k[c]
            passed[c] = True
            more = left > 1
            at, left = at[more] + 1, left[more] - 1
        lit += np.bincount(j[passed], minlength=len(tris))
    band_lit = np.zeros(batch.count, dtype=np.int64)
    band_lit[tris] = lit
    return band_lit


def _shade(fb: Framebuffer, batch: _TriangleBatch, winner, lit, scene: Scene, tlas, eye,
           shadows: bool) -> None:
    """Shade each (pixel, winning triangle) of the frame once, at the pixel center.

    One shading batch and one shadow batch per light over the whole
    target; each colour goes to every sample that triangle won in that
    pixel.  lit counts each triangle's lit pixels over the whole target;
    a count of one selects ``_interpolate``'s one-row rounding.
    """
    winner = winner.reshape(-1)
    covered = np.flatnonzero(winner >= 0)  # (pixel, sample) slots, row-major
    if not len(covered):
        return
    key = covered // fb.samples * batch.count + winner[covered]
    key, source = np.unique(key, return_inverse=True)  # one row per (pixel, winner)
    pix, k = np.divmod(key, batch.count)
    cx = pix % fb.width + 0.5
    cy = pix // fb.width + 0.5
    vx, vy, dx, dy, area2 = _edges(np.take(batch.xy, batch.tri[k], axis=0))
    ec = _edge_functions(dx, dy, vx, vy, cx, cy)
    lam = ec[:, [1, 2, 0]] / area2[:, None]
    iw_p, wpos_iw, wnrm_iw = _interpolate(batch, k, lam, lit[k] == 1)
    iw_p = np.maximum(iw_p, 1e-12)
    wpos = wpos_iw / iw_p[:, None]
    wnrm = normalize(wnrm_iw / iw_p[:, None])
    view_dir = normalize(eye - wpos)
    facing = np.einsum("ij,ij->i", wnrm, view_dir)
    wnrm = np.where(facing[:, None] < 0.0, -wnrm, wnrm)

    mats = scene.materials
    mat = batch.material[k]
    sample = ShadingSample(
        position=wpos, normal=wnrm, view_dir=view_dir,
        base_color=np.array([m.base_color for m in mats], dtype=np.float64)[mat],
        metallic=np.array([m.metallic for m in mats], dtype=np.float64)[mat],
        roughness=np.array([m.roughness for m in mats], dtype=np.float64)[mat])
    lights = [(light, shadow_mask(tlas, wpos, wnrm, light.position)
               if shadows and tlas is not None else 1.0) for light in scene.lights]
    display = linear_to_srgb(reinhard_tonemap(shade_direct(sample, lights))).astype(np.float32)
    fb.color.reshape(-1, 3)[covered] = display[source]


def main_pass(scene: Scene, tlas, config: RenderConfig, draws: Draws | None = None,
              fb: Framebuffer | None = None) -> Framebuffer:
    """Render the scene into a (possibly recycled) multisampled target.

    Coverage splits over config.workers horizontal bands, which write
    disjoint rows of the depth buffer and of one frame-wide winner array;
    then the frame is shaded once.  Passing prebuilt draws is optional;
    without them the draws are built from scene.world, and outputs are
    identical either way.
    """
    if fb is None:
        fb = create_framebuffer(config.width, config.height, config.msaa)
    camera = select_camera(scene, config.camera)
    view, proj, eye = camera_matrices(scene, camera, fb.width, fb.height)

    clear_framebuffer(fb, linear_to_srgb(scene.clear_color))

    if draws is None:
        draws = build_draws(scene)
    batch = _geometry_stage(scene, draws, view, proj, fb.width, fb.height,
                            config.frustum_culling, config.backface_culling)

    winner = np.full(fb.depth.shape, -1, dtype=np.int32)  # batch triangle id per sample
    workers = min(config.workers, fb.height)
    if workers == 1:
        lit = _raster_band(fb, batch, winner, 0, fb.height)
    else:
        band = (fb.height + workers - 1) // workers
        bands = [(b, min(b + band, fb.height)) for b in range(0, fb.height, band)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            lit = sum(pool.map(lambda b: _raster_band(fb, batch, winner, *b), bands))
    _shade(fb, batch, winner, lit, scene, tlas, eye, config.shadows)
    return fb
