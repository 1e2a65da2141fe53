"""Sorted draw submission and the multisampled raster + shade pass.

Draws are sorted by (material id, vertex arena segment) with node name
as the tie break, mirroring a command-buffer submission path that
minimizes pipeline and binding switches.  The pass itself is a
visibility buffer over per-sample coverage and depth:

  - column-major MVP convention, right-handed view space, depth in
    [0, 1] with a less-than test;
  - geometry is clipped against the near plane only (polygon clip with
    linear attribute interpolation), far overflow is left to the depth
    range;
  - fill follows a top-left rule on exact edge-function zeros;
  - coverage and depth of all (triangle, pixel) pairs are computed as
    arrays, and the depth rule is sequential: in submission order a
    sample passes on ``z < float32 stored depth`` and stores its
    float32 depth, so the last passing triangle wins the sample;
  - shading then runs once per (pixel, winning triangle) at the pixel
    center, with one shadow batch per light, and the result goes to the
    samples that triangle won;
  - attributes are perspective-corrected via 1/w interpolation.

Work splits over disjoint horizontal bands.  Every band rasterizes the
same triangles in the same submission order, so the worker count can
change wall time but never a single pixel.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .accel import shadow_mask
from .errors import ConfigurationError, ValidationError
from .framebuffer import SAMPLE_POSITIONS, Framebuffer, clear_framebuffer, create_framebuffer
from .linalg import normal_matrix, normalize, perspective, transform_points
from .scene import Camera, Scene
from .shading import ShadingSample, linear_to_srgb, reinhard_tonemap, shade_direct

if TYPE_CHECKING:  # frameloop imports this module
    from .frameloop import RenderConfig


@dataclass(frozen=True)
class DrawCommand:
    node_name: str
    geometry_id: int
    material_id: int
    segment_id: int

    @property
    def sort_key(self):
        return (self.material_id, self.segment_id, self.node_name)


def build_draw_list(scene: Scene) -> list[DrawCommand]:
    """One command per mesh-bearing node, in submission order.

    Arena segments are packed in geometry-id order, so the segment id
    equals the geometry id and sorting groups draws that share both
    material state and vertex range.
    """
    commands = [
        DrawCommand(node_name=n.name, geometry_id=n.mesh_instance[0],
                    material_id=n.mesh_instance[1], segment_id=n.mesh_instance[0])
        for n in scene.mesh_nodes()
    ]
    return sorted(commands, key=lambda c: c.sort_key)


@dataclass
class VertexArena:
    """All geometry vertex data concatenated into single arrays.

    Segment g occupies rows [base[g], base[g] + counts[g]); triangle
    indices stay geometry-local.
    """

    positions: np.ndarray  # (V, 3)
    normals: np.ndarray    # (V, 3)
    uvs: np.ndarray        # (V, 2)
    base: np.ndarray       # (G,) int64
    counts: np.ndarray     # (G,) int64

    def segment(self, geometry_id: int):
        s = int(self.base[geometry_id])
        e = s + int(self.counts[geometry_id])
        return self.positions[s:e], self.normals[s:e], self.uvs[s:e]


def pack_vertex_arena(scene: Scene) -> VertexArena:
    counts = np.array([g.vertex_count for g in scene.geometries], dtype=np.int64)
    base = np.concatenate([[0], np.cumsum(counts)[:-1]]) if len(counts) else np.zeros(0, np.int64)
    if scene.geometries:
        positions = np.concatenate([g.positions for g in scene.geometries])
        normals = np.concatenate([g.normals for g in scene.geometries])
        uvs = np.concatenate([g.uvs for g in scene.geometries])
    else:
        positions = np.zeros((0, 3))
        normals = np.zeros((0, 3))
        uvs = np.zeros((0, 2))
    return VertexArena(positions=positions, normals=normals, uvs=uvs,
                       base=base.astype(np.int64), counts=counts)


def select_camera(scene: Scene, name: str | None = None) -> Camera:
    if not scene.cameras:
        raise ConfigurationError("scene has no camera")
    if name is None:
        return scene.cameras[0]
    for cam in scene.cameras:
        if cam.node == name:
            return cam
    raise ConfigurationError(f"no camera on node '{name}'")


def camera_matrices(scene: Scene, camera: Camera, width: int, height: int):
    """(view, projection, eye position) for the camera node's world pose."""
    cam_world = scene.world[camera.node]
    try:
        view = np.linalg.inv(cam_world)
    except np.linalg.LinAlgError:
        raise ValidationError(f"camera node '{camera.node}' has a singular transform") from None
    proj = perspective(camera.vertical_fov, width / height, camera.near, camera.far)
    return view, proj, cam_world[:3, 3].copy()


@dataclass
class _TriangleBatch:
    """Projected, near-clipped, consistently wound triangles."""

    xy: np.ndarray        # (K, 3, 2) screen coords, y down
    z: np.ndarray         # (K, 3) depth in [0, 1+)
    iw: np.ndarray        # (K, 3) 1/w
    wpos_iw: np.ndarray   # (K, 3, 3) world position / w
    wnrm_iw: np.ndarray   # (K, 3, 3) world normal / w
    material: np.ndarray  # (K,) int32
    bbox: np.ndarray      # (K, 4) xmin xmax ymin ymax

    @property
    def count(self) -> int:
        return len(self.xy)


def _empty_batch() -> _TriangleBatch:
    return _TriangleBatch(
        xy=np.zeros((0, 3, 2)), z=np.zeros((0, 3)), iw=np.zeros((0, 3)),
        wpos_iw=np.zeros((0, 3, 3)), wnrm_iw=np.zeros((0, 3, 3)),
        material=np.zeros(0, dtype=np.int32), bbox=np.zeros((0, 4)))


def _project_and_emit(clip, wpos, wnrm, material_id, width, height, cull_backfaces, sink):
    """clip (K, 3, 4) -> screen triangles appended to sink lists.

    Degenerate (zero-area) triangles drop; winding is normalized so edge
    functions are positive inside, flipping vertex order when needed.
    """
    if len(clip) == 0:
        return
    w = clip[..., 3]
    iw = 1.0 / w
    ndc = clip[..., :3] * iw[..., None]
    x = (ndc[..., 0] * 0.5 + 0.5) * width
    y = (0.5 - ndc[..., 1] * 0.5) * height
    z = ndc[..., 2]
    area2 = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
             - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    if cull_backfaces:
        keep = area2 < 0.0  # front faces wind counter-clockwise before the y flip
    else:
        keep = area2 != 0.0
    if not np.any(keep):
        return
    xy = np.stack([x, y], axis=-1)[keep]
    z = z[keep]
    iw = iw[keep]
    wpos = wpos[keep]
    wnrm = wnrm[keep]
    flip = area2[keep] < 0.0
    for arr in (xy, z, iw, wpos, wnrm):
        arr[flip] = arr[flip][:, [0, 2, 1]]
    sink["xy"].append(xy)
    sink["z"].append(z)
    sink["iw"].append(iw)
    sink["wpos_iw"].append(wpos * iw[..., None])
    sink["wnrm_iw"].append(wnrm * iw[..., None])
    sink["material"].append(np.full(len(xy), material_id, dtype=np.int32))


def _clip_triangle_near(clip_v, wpos_v, wnrm_v):
    """Sutherland-Hodgman against z_clip >= 0 for one triangle.

    Attributes interpolate linearly: clip coordinates are affine in
    world position, so the edge parameter is shared exactly.  Returns
    0, 1 or 2 fan triangles as (clip, wpos, wnrm) stacks.
    """
    out = []
    n = 3
    for i in range(n):
        cur, nxt = i, (i + 1) % n
        zc, zn = clip_v[cur][2], clip_v[nxt][2]
        cin, nin = zc >= 0.0, zn >= 0.0
        if cin:
            out.append((clip_v[cur], wpos_v[cur], wnrm_v[cur]))
        if cin != nin:
            t = zc / (zc - zn)
            out.append((clip_v[cur] + t * (clip_v[nxt] - clip_v[cur]),
                        wpos_v[cur] + t * (wpos_v[nxt] - wpos_v[cur]),
                        wnrm_v[cur] + t * (wnrm_v[nxt] - wnrm_v[cur])))
    if len(out) < 3:
        return []
    tris = []
    for k in range(1, len(out) - 1):
        tri = (out[0], out[k], out[k + 1])
        tris.append(tuple(np.stack([v[j] for v in tri]) for j in range(3)))
    return tris


def _geometry_stage(scene: Scene, draws, arena, view, proj, width, height,
                    frustum_culling: bool, backface_culling: bool) -> _TriangleBatch:
    vp = proj @ view
    sink = {k: [] for k in ("xy", "z", "iw", "wpos_iw", "wnrm_iw", "material")}
    for cmd in draws:
        geo = scene.geometries[cmd.geometry_id]
        if geo.triangle_count == 0:
            continue
        if arena is not None:
            pos, nrm, _uv = arena.segment(cmd.geometry_id)
        else:
            pos, nrm, _uv = geo.positions, geo.normals, geo.uvs
        m = scene.world[cmd.node_name]
        mvp = vp @ m
        clip = np.concatenate([pos, np.ones((len(pos), 1))], axis=1) @ mvp.T

        if frustum_culling:
            w = clip[:, 3]
            outside = (
                np.all(clip[:, 0] < -w) or np.all(clip[:, 0] > w)
                or np.all(clip[:, 1] < -w) or np.all(clip[:, 1] > w)
                or np.all(clip[:, 2] < 0) or np.all(clip[:, 2] > w)
            )
            if outside:
                continue

        wpos = transform_points(m, pos)
        try:
            nmat = normal_matrix(m)
        except np.linalg.LinAlgError:
            raise ValidationError(f"node '{cmd.node_name}' has a singular transform") from None
        wnrm = nrm @ nmat.T

        tri = geo.triangles.astype(np.int64)
        tclip = clip[tri]          # (T, 3, 4)
        twpos = wpos[tri]
        twnrm = wnrm[tri]
        inside = tclip[..., 2] >= 0.0
        n_in = inside.sum(axis=1)

        full = n_in == 3
        _project_and_emit(tclip[full], twpos[full], twnrm[full], cmd.material_id,
                          width, height, backface_culling, sink)

        for k in np.nonzero((n_in == 1) | (n_in == 2))[0]:
            for cv, pv, nv in _clip_triangle_near(tclip[k], twpos[k], twnrm[k]):
                _project_and_emit(cv[None], pv[None], nv[None], cmd.material_id,
                                  width, height, backface_culling, sink)

    if not sink["xy"]:
        return _empty_batch()
    xy = np.concatenate(sink["xy"])
    bbox = np.stack([xy[..., 0].min(axis=1), xy[..., 0].max(axis=1),
                     xy[..., 1].min(axis=1), xy[..., 1].max(axis=1)], axis=1)
    return _TriangleBatch(
        xy=xy, z=np.concatenate(sink["z"]), iw=np.concatenate(sink["iw"]),
        wpos_iw=np.concatenate(sink["wpos_iw"]), wnrm_iw=np.concatenate(sink["wnrm_iw"]),
        material=np.concatenate(sink["material"]), bbox=bbox)


# (triangle, pixel) pairs whose coverage is evaluated at once: bounds the
# per-sample temporaries whatever the scene or triangle size
_PAIR_CHUNK = 1 << 12


def _interpolate(batch: _TriangleBatch, k, lam, one_pixel):
    """(P,) 1/w, (P, 3) position/w and (P, 3) normal/w at barycentrics lam of triangles k.

    Row for row these are the bits of the per-triangle products
    ``lam_k @ batch.iw[k]``, ``lam_k @ batch.wpos_iw[k]`` and
    ``lam_k @ batch.wnrm_iw[k]`` over triangle k's own rows.  The first
    is a matrix-vector product, which rounds one way for a single row
    (one_pixel) and another for two or more; the other two round alike
    for any row count.  Row sums and einsum round differently.
    """
    iw = batch.iw[k][:, :, None]
    iw_p = np.where(one_pixel, (lam[:, None, :] @ iw)[:, 0, 0],
                    (np.stack([lam, lam], axis=1) @ iw)[:, 0, 0])
    return (iw_p, (lam[:, None, :] @ batch.wpos_iw[k])[:, 0],
            (lam[:, None, :] @ batch.wnrm_iw[k])[:, 0])


def _raster_band(fb: Framebuffer, batch: _TriangleBatch, scene: Scene, tlas, eye,
                 shadows: bool, band_y0: int, band_y1: int) -> None:
    """Rasterize every batch triangle into rows [band_y0, band_y1).

    A visibility buffer.  First the coverage and depth of every
    (triangle, pixel) pair, a chunk of pairs at a time, under the
    sequential depth rule: in submission order a candidate passes on
    ``zg < float32 stored depth`` and stores ``float32(zg)``, so the last
    passing candidate wins (a float64 argmin is not the same rule).  It
    runs rank by rank over each pixel's candidates, a loop over depth
    complexity, not over triangles.  Then each (pixel, winning triangle)
    is shaded once, with one shadow batch per light, and its colour goes
    to every sample that triangle won in that pixel.
    """
    samples = SAMPLE_POSITIONS[fb.samples]
    width = fb.width
    bb = batch.bbox
    x_lo = np.clip(np.floor(bb[:, 0]) - 1, 0, width).astype(np.int64)
    x_hi = np.clip(np.ceil(bb[:, 1]) + 1, 0, width).astype(np.int64)
    y_lo = np.clip(np.floor(bb[:, 2]) - 1, band_y0, band_y1).astype(np.int64)
    y_hi = np.clip(np.ceil(bb[:, 3]) + 1, band_y0, band_y1).astype(np.int64)
    vx = batch.xy[..., 0]
    vy = batch.xy[..., 1]
    dx = vx[:, [1, 2, 0]] - vx   # edge i runs v_i -> v_{i+1}
    dy = vy[:, [1, 2, 0]] - vy
    area2 = dx[:, 0] * (vy[:, 2] - vy[:, 0]) - dy[:, 0] * (vx[:, 2] - vx[:, 0])
    top_left = (dy < 0.0) | ((dy == 0.0) & (dx > 0.0))
    in_band = ~((bb[:, 3] < band_y0 - 1) | (bb[:, 2] > band_y1 + 1))
    tris = np.flatnonzero(in_band & (x_lo < x_hi) & (y_lo < y_hi) & (area2 > 0.0))

    depth = fb.depth[band_y0:band_y1].reshape(-1, fb.samples)
    winner = np.full(depth.shape, -1, dtype=np.int32)  # index into tris
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
        kdx, kdy, kvx, kvy, kz = dx[k], dy[k], vx[k], vy[k], batch.z[k]
        passed = np.zeros(len(pair), dtype=bool)
        for s, (sx, sy) in enumerate(samples):
            e = kdx * ((row + sy)[:, None] - kvy) - kdy * ((col + sx)[:, None] - kvx)
            cover = ((e > 0.0) | ((e == 0.0) & top_left[k])).all(axis=1)
            zg = (e[:, 1] * kz[:, 0] + e[:, 2] * kz[:, 1] + e[:, 0] * kz[:, 2]) / area2[k]
            cand = by_pixel[cover[by_pixel]]  # by pixel, then submission order
            if len(cand) == 0:
                continue
            cpix = pixel[cand]
            at = np.flatnonzero(np.r_[True, cpix[1:] != cpix[:-1]])  # rank 0 of each pixel
            left = np.diff(np.r_[at, len(cand)])
            stored, won = depth[:, s], winner[:, s]
            while len(at):
                c, p = cand[at], cpix[at]
                ok = zg[c] < stored[p]
                c, p = c[ok], p[ok]
                stored[p] = zg[c].astype(np.float32)
                won[p] = j[c]
                passed[c] = True
                more = left > 1
                at, left = at[more] + 1, left[more] - 1
        lit += np.bincount(j[passed], minlength=len(tris))

    covered = winner >= 0
    if not covered.any():
        return
    key = (np.arange(len(winner))[:, None] * len(tris) + winner)[covered]
    key, source = np.unique(key, return_inverse=True)  # one row per (pixel, winner)
    pix, j = np.divmod(key, len(tris))
    k = tris[j]
    cx = pix % width + 0.5
    cy = pix // width + band_y0 + 0.5
    ec = dx[k] * (cy[:, None] - vy[k]) - dy[k] * (cx[:, None] - vx[k])
    lam = ec[:, [1, 2, 0]] / area2[k, None]
    iw_p, wpos_iw, wnrm_iw = _interpolate(batch, k, lam, lit[j] == 1)
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
    color = fb.color[band_y0:band_y1].reshape(len(winner), fb.samples, 3)
    color[covered] = display[source]


def main_pass(scene: Scene, tlas, config: RenderConfig, arena: VertexArena | None = None,
              draws: list[DrawCommand] | None = None,
              fb: Framebuffer | None = None) -> Framebuffer:
    """Render the scene into a (possibly recycled) multisampled target.

    Passing an arena or a prebuilt draw list is optional; outputs are
    identical either way.
    """
    if fb is None:
        fb = create_framebuffer(config.width, config.height, config.msaa)
    camera = select_camera(scene, config.camera)
    view, proj, eye = camera_matrices(scene, camera, fb.width, fb.height)

    clear = scene.clear_color if config.clear_color is None else config.clear_color
    clear_framebuffer(fb, linear_to_srgb(np.asarray(clear, dtype=np.float64)))

    if draws is None:
        draws = build_draw_list(scene)
    batch = _geometry_stage(scene, draws, arena, view, proj, fb.width, fb.height,
                            config.frustum_culling, config.backface_culling)
    if batch.count == 0:
        return fb

    workers = min(config.workers, fb.height)
    band = (fb.height + workers - 1) // workers
    bands = [(b, min(b + band, fb.height)) for b in range(0, fb.height, band)]
    if workers == 1:
        for y0, y1 in bands:
            _raster_band(fb, batch, scene, tlas, eye, config.shadows, y0, y1)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: _raster_band(fb, batch, scene, tlas, eye,
                                                 config.shadows, b[0], b[1]), bands))
    return fb
