"""Rasterizer tests.

Oracles used here: an independent single-point shading calculator, a
painter's-algorithm compositor over one-triangle renders, analytic
pixel-square/half-plane clipping for MSAA coverage, and ray-plane
intersection for depth-buffer content.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrender import raster
from softrender.errors import ConfigurationError, ValidationError
from softrender.framebuffer import SAMPLE_POSITIONS, create_framebuffer, ppm_bytes, resolve_msaa
from softrender.frameloop import RenderConfig, build_scene_blases
from softrender.accel import build_tlas
from softrender.gltf import load_gltf
from softrender.linalg import rotate_y, scale, translate
from softrender.procedural import make_shadow_scene, make_triangle_scene
from softrender.raster import (
    _geometry_stage,
    _interpolate,
    _raster_band,
    _shade,
    _TriangleBatch,
    build_draws,
    camera_matrices,
    main_pass,
    select_camera,
)
from softrender.scene import (
    Camera,
    MaterialPbr,
    MeshGeometry,
    PointLight,
    Scene,
    SceneNode,
    duplicate_scene_geometry,
    mesh_instances,
    refresh_world_transforms,
)
from softrender.shading import linear_to_srgb, reinhard_tonemap

FOV = math.radians(60.0)
TAN_HALF = math.tan(FOV / 2.0)


# ---------------------------------------------------------------- builders

def corner_batch(xy, z, iw, wpos_iw, wnrm_iw, material):
    """A `_TriangleBatch` from (K, 3, ...) per-corner arrays; each triangle owns its 3 vertices."""
    count = len(material)
    return _TriangleBatch(xy=xy.reshape(-1, 2), z=z.reshape(-1), iw=iw.reshape(-1),
                          wpos_iw=wpos_iw.reshape(-1, 3), wnrm_iw=wnrm_iw.reshape(-1, 3),
                          tri=np.arange(3 * count).reshape(count, 3), material=material)


def cover_then_shade(fb, batch, scene, bands):
    """Cover the (y0, y1) bands with `_raster_band`, then `_shade` the frame once, shadows off."""
    winner = np.full(fb.depth.shape, -1, dtype=np.int32)
    lit = sum(_raster_band(fb, batch, winner, y0, y1) for y0, y1 in bands)
    _shade(fb, batch, winner, lit, scene, None, np.zeros(3), False)


def tri_geometry(verts, normal):
    verts = np.asarray(verts, dtype=np.float64)
    normals = np.tile(np.asarray(normal, dtype=np.float64), (3, 1))
    return MeshGeometry(positions=verts, normals=normals,
                        uvs=np.zeros((3, 2)), triangles=np.array([[0, 1, 2]]))


def build_scene(tris, materials, lights=(), clear=(0, 0, 0), cam_pos=(0, 0, 0),
                near=0.1, far=100.0):
    """tris: list of (verts(3,3), unit normal, material id)."""
    scene = Scene(clear_color=np.asarray(clear, dtype=np.float64))
    scene.materials = list(materials)
    scene.lights = list(lights)
    for i, (verts, normal, mid) in enumerate(tris):
        gid = len(scene.geometries)
        scene.geometries.append(tri_geometry(verts, normal))
        scene.nodes.append(SceneNode(name=f"t{i}", parent=None, local=np.eye(4),
                                     mesh_instance=(gid, mid)))
    scene.nodes.append(SceneNode(name="cam", parent=None, local=translate(*cam_pos)))
    scene.cameras.append(Camera(node="cam", vertical_fov=FOV, near=near, far=far))
    refresh_world_transforms(scene)
    return scene


def gray_material(mid=0, base=0.5, metallic=0.0, roughness=1.0):
    return MaterialPbr(base_color=[base] * 3, metallic=metallic,
                       roughness=roughness, material_id=mid)


def config(width=64, height=64, msaa=1, **kw):
    kw.setdefault("fxaa", False)
    kw.setdefault("shadows", False)
    kw.setdefault("overlay", False)
    return RenderConfig(width=width, height=height, msaa=msaa, **kw)


def screen_to_world(sx, sy, z_view, width=64, height=64):
    """Invert the viewport + perspective map at view depth z_view < 0."""
    x_ndc = sx / (width / 2.0) - 1.0
    y_ndc = 1.0 - sy / (height / 2.0)
    aspect = width / height
    x = x_ndc * (-z_view) * TAN_HALF * aspect
    y = y_ndc * (-z_view) * TAN_HALF
    return np.array([x, y, z_view])


# -------------------------------------------------- independent shading

def ref_shade_point(p, n, eye, base, metallic, roughness, lights):
    """Scalar re-evaluation of the direct-lighting formula."""
    n = np.asarray(n, dtype=np.float64)
    wo = eye - p
    wo = wo / np.linalg.norm(wo)
    alpha = max(roughness * roughness, 1e-4)
    f0 = 0.04 * (1 - metallic) + np.asarray(base) * metallic
    out = np.zeros(3)
    for light in lights:
        to_l = np.asarray(light.position, dtype=np.float64) - p
        d2 = float(to_l @ to_l)
        wi = to_l / math.sqrt(d2)
        nl, nv = float(n @ wi), float(n @ wo)
        if nl <= 0.0 or nv <= 0.0:
            continue
        h = wi + wo
        h = h / np.linalg.norm(h)
        nh, hl = float(n @ h), float(h @ wi)
        dterm = alpha ** 2 / (math.pi * (nh * nh * (alpha ** 2 - 1) + 1) ** 2)
        f = f0 + (1.0 - f0) * (1.0 - hl) ** 5
        k = (alpha + 1.0) ** 2 / 8.0
        g = (nv / (nv * (1 - k) + k)) * (nl / (nl * (1 - k) + k))
        spec = dterm * g * f / (4 * nv * nl + 1e-6)
        kd = (1.0 - f) * (1.0 - metallic)
        out += (kd * np.asarray(base) / math.pi + spec) * \
               (np.asarray(light.intensity) / d2) * nl
    return out


def encode(linear_rgb):
    return np.floor(np.asarray(linear_to_srgb(reinhard_tonemap(linear_rgb))) * 255.0
                    + 0.5).astype(np.uint8)


# ---------------------------------------------------------------- basics

def test_empty_scene_clears_to_encoded_color_without_tonemap():
    clear = (0.05, 0.07, 0.10)
    scene = build_scene([], [gray_material()], clear=clear)
    fb = main_pass(scene, None, config(width=8, height=8, msaa=4))
    expected = np.asarray(linear_to_srgb(np.asarray(clear))).astype(np.float32)
    for ch in range(3):
        assert np.all(fb.color[..., ch] == expected[ch])
    assert np.all(np.isinf(fb.depth))
    img = resolve_msaa(fb)
    assert np.all(img.pixels == np.floor(expected.astype(np.float64) * 255 + 0.5))


def test_center_pixel_matches_independent_shading_calculator():
    verts = [[-3, -3, -2], [3, -3, -2], [0, 4, -2]]
    light = PointLight(position=[1.5, 2.0, 1.0], intensity=[12.0, 9.0, 6.0])
    base = [0.7, 0.4, 0.2]
    mat = MaterialPbr(base_color=base, metallic=0.0, roughness=1.0, material_id=0)
    scene = build_scene([(verts, [0, 0, 1], 0)], [mat], lights=[light])
    w = h = 65  # odd size: the center pixel's sample sits on the optical axis
    fb = main_pass(scene, None, config(width=w, height=h, msaa=1))
    img = resolve_msaa(fb)
    got = img.pixels[h // 2, w // 2].astype(np.int64)

    p = np.array([0.0, 0.0, -2.0])
    expected = encode(ref_shade_point(
        p, [0, 0, 1], np.zeros(3), base, 0.0, 1.0, [light])).astype(np.int64)
    assert np.all(np.abs(got - expected) <= 1), (got, expected)


def test_corner_pixel_is_clear_color():
    clear = (0.05, 0.07, 0.10)
    scene = build_scene([([[-0.1, -0.1, -2], [0.1, -0.1, -2], [0, 0.1, -2]],
                          [0, 0, 1], 0)], [gray_material()], clear=clear)
    img = resolve_msaa(main_pass(scene, None, config()))
    expected = np.floor(np.asarray(linear_to_srgb(np.asarray(clear))) * 255 + 0.5)
    np.testing.assert_array_equal(img.pixels[0, 0], expected)
    np.testing.assert_array_equal(img.pixels[-1, -1], expected)


# ---------------------------------------------------------------- sorting

def test_draw_list_sorted_by_material_then_segment():
    mats = [gray_material(mid=i) for i in range(3)]
    tris = []
    for i, mid in enumerate([2, 0, 1, 0, 2]):
        verts = [[i - 2.0, -0.5, -3], [i - 1.5, -0.5, -3], [i - 1.75, 0.5, -3]]
        tris.append((verts, [0, 0, 1], mid))
    scene = build_scene(tris, mats)
    draws = build_draws(scene)
    keys = list(zip(draws.material.tolist(), draws.geometry.tolist(), draws.node_names))
    assert keys == sorted(keys)
    mat_ids = draws.material.tolist()
    switches = sum(1 for a, b in zip(mat_ids, mat_ids[1:]) if a != b)
    assert switches <= len(set(mat_ids)) - 1 + 1


def test_draw_order_between_equal_keys_is_name_stable():
    mats = [gray_material(0)]
    verts = [[-1, -1, -3], [1, -1, -3], [0, 1, -3]]
    scene = build_scene([(verts, [0, 0, 1], 0), (verts, [0, 0, 1], 0)], mats)
    # two nodes sharing one geometry and material: equal keys up to the name
    scene.nodes[1].mesh_instance = (0, 0)
    draws = build_draws(scene)
    same_key = [name for name, gid in zip(draws.node_names, draws.geometry) if gid == 0]
    assert same_key == sorted(same_key)


# ---------------------------------------------------------------- depth

def test_nearer_triangle_wins_contested_samples_either_order():
    light = PointLight(position=[0, 0, 2], intensity=[30, 30, 30])
    near_tri = ([[-1.5, -1.5, -3], [1.5, -1.5, -3], [0, 1.5, -3]], [0, 0, 1], 0)
    far_tri = ([[-1.5, -1.5, -5], [1.5, -1.5, -5], [0, 1.5, -5]], [0, 0, 1], 1)
    mats = [gray_material(0, base=0.9), gray_material(1, base=0.1)]

    ab = resolve_msaa(main_pass(build_scene([near_tri, far_tri], mats,
                                            lights=[light]), None, config()))
    ba = resolve_msaa(main_pass(build_scene([far_tri, near_tri], mats,
                                            lights=[light]), None, config()))
    assert np.array_equal(ab.pixels, ba.pixels)

    only_near = resolve_msaa(main_pass(build_scene([near_tri], [mats[0]],
                                                   lights=[light]), None, config()))
    np.testing.assert_array_equal(ab.pixels[32, 32], only_near.pixels[32, 32])


def test_random_pairs_match_painter_composite():
    rng = np.random.default_rng(77)
    light = PointLight(position=[1, 2, 3], intensity=[20, 18, 16])
    mats = [gray_material(0, base=0.85), gray_material(1, base=0.25)]
    cfg = config(width=48, height=48, msaa=2)
    cases = 0
    while cases < 20:
        zs = rng.choice([-2.0, -3.0, -4.5, -6.0], size=2, replace=False)
        tris = []
        for k in range(2):
            xy = rng.uniform(-1.8, 1.8, (3, 2))
            area2 = abs((xy[1, 0] - xy[0, 0]) * (xy[2, 1] - xy[0, 1]) -
                        (xy[2, 0] - xy[0, 0]) * (xy[1, 1] - xy[0, 1]))
            if area2 < 0.5:
                break
            verts = np.column_stack([xy, np.full(3, zs[k])])
            tris.append((verts, [0, 0, 1], k))
        if len(tris) != 2:
            continue
        cases += 1

        pair = main_pass(build_scene(tris, mats, lights=[light]), None, cfg)
        solo = [main_pass(build_scene([tris[k]], mats, lights=[light]), None, cfg)
                for k in range(2)]
        take_first = solo[0].depth <= solo[1].depth
        comp_color = np.where(take_first[..., None], solo[0].color, solo[1].color)
        comp_depth = np.where(take_first, solo[0].depth, solo[1].depth)
        assert np.array_equal(pair.color, comp_color)
        assert np.array_equal(pair.depth, comp_depth)


def test_depth_buffer_matches_ray_plane_oracle():
    # slanted quad: plane through (0,0,-3) with normal (0.3, 0.2, 1)/|.|
    n = np.array([0.3, 0.2, 1.0])
    n = n / np.linalg.norm(n)
    p0 = np.array([0.0, 0.0, -3.0])
    # build a big triangle in that plane
    u = np.cross(n, [0, 1, 0])
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    verts = [p0 + 5 * (-u - v), p0 + 5 * (2 * u - v), p0 + 5 * (-u + 2 * v)]
    scene = build_scene([(np.asarray(verts), n, 0)], [gray_material()],
                        lights=[PointLight(position=[0, 0, 0], intensity=[9, 9, 9])])
    near, far = 0.1, 100.0
    fb = main_pass(scene, None, config(msaa=1))
    covered = np.argwhere(np.isfinite(fb.depth[:, :, 0]))
    assert len(covered) > 400
    rng = np.random.default_rng(5)
    for idx in rng.choice(len(covered), 12, replace=False):
        sy, sx = covered[idx]
        d = screen_to_world(sx + 0.5, sy + 0.5, -1.0)  # direction, z = -1
        t = float(n @ p0) / float(n @ d)
        z_view = t * d[2]
        a = far / (near - far)
        b = near * far / (near - far)
        expected_depth = (a * z_view + b) / (-z_view)
        assert fb.depth[sy, sx, 0] == pytest.approx(expected_depth, abs=2e-5)


# ------------------------------------------------------- fill rule

def test_shared_edge_no_gaps_no_double_cover():
    light = PointLight(position=[0, 0, 1], intensity=[25, 25, 25])
    quad = np.array([[-1, -1, -3], [1, -1, -3], [1, 1, -3], [-1, 1, -3]], dtype=float)
    t_a = (quad[[0, 1, 2]], [0, 0, 1], 0)
    t_b = (quad[[0, 2, 3]], [0, 0, 1], 1)
    mats = [gray_material(0, base=0.9), gray_material(1, base=0.15)]
    clear = (1.0, 0.0, 1.0)  # loud magenta background

    img_ab = resolve_msaa(main_pass(build_scene([t_a, t_b], mats, lights=[light]),
                                    None, config(msaa=4), ))
    img_ba = resolve_msaa(main_pass(build_scene([t_b, t_a], mats, lights=[light]),
                                    None, config(msaa=4)))
    # equal-depth double coverage would make the outcome order-dependent
    assert np.array_equal(img_ab.pixels, img_ba.pixels)

    scene = build_scene([t_a, t_b], mats, lights=[light], clear=clear)
    img = resolve_msaa(main_pass(scene, None, config(msaa=4)))
    # quad projects to |ndc| <= 1/(3 tan30) ~ 0.577 -> pixels ~13.5..50.5
    interior = img.pixels[20:45, 20:45]
    magenta = (interior[:, :, 0] == 255) & (interior[:, :, 2] == 255)
    assert not np.any(magenta)


# ------------------------------------------------------- MSAA coverage

def half_plane_coverage(px, py, a, b, c):
    """Area of [px,px+1]x[py,py+1] inside a*x + b*y <= c (unit square)."""
    poly = [(px, py), (px + 1.0, py), (px + 1.0, py + 1.0), (px, py + 1.0)]
    out = []
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        in0 = a * x0 + b * y0 <= c
        in1 = a * x1 + b * y1 <= c
        if in0:
            out.append((x0, y0))
        if in0 != in1:
            t = (c - a * x0 - b * y0) / (a * (x1 - x0) + b * (y1 - y0))
            out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    if len(out) < 3:
        return 0.0
    area = 0.0
    for i in range(len(out)):
        x0, y0 = out[i]
        x1, y1 = out[(i + 1) % len(out)]
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def _black_halfplane_scene(edge_sx, clear=(1.0, 1.0, 1.0)):
    """Unlit black triangle covering screen x < edge_sx at z = -2."""
    z = -2.0
    left = screen_to_world(-300.0, 32.0, z)
    top = screen_to_world(edge_sx, -300.0, z)
    bot = screen_to_world(edge_sx, 364.0, z)
    verts = np.array([left, bot, top])
    return build_scene([(verts, [0, 0, 1], 0)], [gray_material()], clear=clear)


def test_msaa_vertical_edge_exact_sample_coverage():
    edge_sx = 32.25
    scene = _black_halfplane_scene(edge_sx)
    for msaa in (1, 2, 4, 8):
        img = resolve_msaa(main_pass(scene, None, config(msaa=msaa)))
        table = SAMPLE_POSITIONS[msaa]
        row = img.pixels[32]
        for px in range(28, 37):
            covered = sum(1 for off in table if px + off[0] < edge_sx)
            expected = int(np.floor((1.0 - covered / msaa) * 255.0 + 0.5))
            assert row[px, 0] == expected, (msaa, px, row[px, 0], expected)


def test_msaa_error_non_increasing_on_slanted_edge():
    # slanted screen-space edge: black region a*x + b*y <= c
    p1 = np.array([20.3, -10.0])
    p2 = np.array([38.7, 74.0])
    z = -2.0
    third = screen_to_world(-320.0, 30.0, z)
    verts = np.array([screen_to_world(*p1, z), screen_to_world(*p2, z), third])
    # winding: ensure front facing; build both and keep the visible one
    scene = build_scene([(verts, [0, 0, 1], 0)], [gray_material()], clear=(1, 1, 1))
    d = p2 - p1
    a_, b_ = d[1], -d[0]
    c_ = a_ * p1[0] + b_ * p1[1]
    # normalize so that "inside" (black) matches the triangle side
    mid = screen_to_world(0.0, 32.0, z)[:2]
    if a_ * 1.0 + b_ * 32.0 > c_:  # screen point (1, 32) must be black
        a_, b_, c_ = -a_, -b_, -c_

    errors = {}
    for msaa in (1, 2, 4, 8):
        img = resolve_msaa(main_pass(scene, None, config(msaa=msaa)))
        vals = img.pixels[:, :, 0].astype(np.float64) / 255.0
        errs = []
        for py in range(2, 62):
            for px in range(2, 62):
                cov = half_plane_coverage(px, py, a_, b_, c_)
                errs.append(abs(vals[py, px] - (1.0 - cov)))
        errors[msaa] = float(np.mean(errs))
    assert errors[1] > 0.0
    assert errors[2] <= errors[1] + 1e-9
    assert errors[4] <= errors[2] + 1e-9
    assert errors[8] <= errors[4] + 1e-9
    assert errors[8] < errors[1]


# ------------------------------------------------------- clipping

def test_triangle_straddling_near_plane_renders():
    verts = [[-2, -1, -3], [2, -1, -3], [0, 0.5, 1.0]]  # third vert behind camera
    scene = build_scene([(verts, [0, 0, 1], 0)], [gray_material()],
                        lights=[PointLight(position=[0, 2, 0], intensity=[8, 8, 8])])
    fb = main_pass(scene, None, config(msaa=1))
    finite = np.isfinite(fb.depth)
    assert np.count_nonzero(finite) > 0
    assert np.all(fb.depth[finite] >= 0.0)
    assert np.all(fb.depth[finite] <= 1.0)


def test_triangle_fully_behind_camera_is_dropped():
    verts = [[-1, -1, 2], [1, -1, 2], [0, 1, 3]]
    scene = build_scene([(verts, [0, 0, 1], 0)], [gray_material()])
    fb = main_pass(scene, None, config(msaa=1))
    assert np.all(np.isinf(fb.depth))


# recorded from the scalar per-triangle Sutherland-Hodgman clip: the
# geometry stage must give every colour and depth sample the same bits,
# and its screen triangles the same bits in the same order
PINNED_NEAR_CLIP_SHA256 = "e32359663bf0a669bae97899689e45c1f01a98cf90b50125e1e9e15708774969"
PINNED_NEAR_CLIP_BATCH_SHA256 = "d3fca396d562208b85740bc347955a82b4cb0892f92f27234e4a430eead37376"


def near_soup(seed):
    """Two shared triangle soups straddling the near plane, drawn by five
    nodes with three materials; both one and two vertices inside occur."""
    rng = np.random.default_rng(seed)
    scene = Scene(materials=[gray_material(m, base=0.2 + 0.3 * m, roughness=0.3 + 0.3 * m)
                             for m in range(3)],
                  lights=[PointLight(position=[0.5, 1.0, 0.5], intensity=[6.0] * 3)])
    for _ in range(2):
        count = 12
        normals = rng.normal(size=(3 * count, 3))
        scene.geometries.append(MeshGeometry(
            positions=rng.uniform([-1.5, -1.2, -3.0], [1.5, 1.2, 0.8], (3 * count, 3)),
            normals=normals / np.linalg.norm(normals, axis=1, keepdims=True),
            uvs=np.zeros((3 * count, 2)), triangles=np.arange(3 * count).reshape(count, 3)))
    for i in range(5):
        local = translate(*rng.uniform(-0.3, 0.3, 3)) @ rotate_y(rng.uniform(-0.4, 0.4))
        scene.nodes.append(SceneNode(name=f"n{i}", parent=None, local=local,
                                     mesh_instance=(i % 2, i % 3)))
    scene.nodes.append(SceneNode(name="cam", parent=None, local=np.eye(4)))
    scene.cameras.append(Camera(node="cam", vertical_fov=FOV, near=0.1, far=20.0))
    refresh_world_transforms(scene)
    return scene


def test_near_clip_corpus_matches_pinned_sha256(bench_gltf):
    """bench.gltf at d=0..2 seen from inside the lattice, and seeded near-plane
    soups, each with back-face and frustum culling on and off."""
    base = load_gltf(bench_gltf)
    refresh_world_transforms(base)
    scenes = []
    for d in range(3):
        scene = duplicate_scene_geometry(base, d)
        refresh_world_transforms(scene)
        cam = select_camera(scene).node
        for pose in (translate(-1.6, -0.7, -0.2), translate(0.3, -0.3, 0.1) @ rotate_y(2.2),
                     translate(5.5, -0.4, 1.0) @ rotate_y(-0.6)):
            posed = duplicate_scene_geometry(scene, 0)
            posed.world[cam] = pose
            scenes.append(posed)
    scenes += [near_soup(seed) for seed in range(8)]
    digest, batches = hashlib.sha256(), hashlib.sha256()
    for scene in scenes:
        view, proj, _ = camera_matrices(scene, select_camera(scene), 64, 48)
        for backface in (False, True):
            for frustum in (False, True):
                fb = main_pass(scene, None, config(width=64, height=48, msaa=4,
                                                   backface_culling=backface,
                                                   frustum_culling=frustum))
                digest.update(fb.color.tobytes())
                digest.update(fb.depth.tobytes())
                batch = _geometry_stage(scene, build_draws(scene), view, proj, 64, 48,
                                        frustum, backface)
                for arr in (batch.xy, batch.z, batch.iw, batch.wpos_iw, batch.wnrm_iw):
                    batches.update(arr[batch.tri].tobytes())  # per corner, as recorded
                batches.update(batch.material.tobytes())
    assert digest.hexdigest() == PINNED_NEAR_CLIP_SHA256
    assert batches.hexdigest() == PINNED_NEAR_CLIP_BATCH_SHA256


# ------------------------------------------------------- configuration

def test_select_camera_errors():
    scene = build_scene([], [gray_material()])
    scene.cameras = []
    with pytest.raises(ConfigurationError):
        select_camera(scene)
    scene2 = build_scene([], [gray_material()])
    with pytest.raises(ConfigurationError):
        select_camera(scene2, "nope")


def test_select_camera_by_name():
    scene = build_scene([], [gray_material()])
    scene.nodes.append(SceneNode(name="cam2", parent=None, local=translate(5, 0, 0)))
    scene.cameras.append(Camera(node="cam2", vertical_fov=1.0, near=0.5, far=10.0))
    refresh_world_transforms(scene)
    assert select_camera(scene, "cam2").node == "cam2"
    assert select_camera(scene).node == "cam"  # first camera is the default


def test_two_sided_shading_lights_back_faces():
    # triangle wound away from the camera, light on the camera side
    verts = [[-1, -1, -3], [0, 1, -3], [1, -1, -3]]  # clockwise from camera
    light = PointLight(position=[0, 0, 0], intensity=[10, 10, 10])
    scene = build_scene([(verts, [0, 0, -1], 0)], [gray_material()], lights=[light])
    img = resolve_msaa(main_pass(scene, None, config(msaa=1)))
    assert img.pixels[32, 32, 0] > 10  # lit despite facing away


def test_backface_culling_drops_back_faces():
    verts = [[-1, -1, -3], [0, 1, -3], [1, -1, -3]]
    light = PointLight(position=[0, 0, 0], intensity=[10, 10, 10])
    scene = build_scene([(verts, [0, 0, -1], 0)], [gray_material()], lights=[light])
    fb = main_pass(scene, None, config(msaa=1, backface_culling=True))
    assert np.all(np.isinf(fb.depth))


def test_frustum_culling_does_not_change_output():
    light = PointLight(position=[1, 1, 0], intensity=[12, 12, 12])
    visible = ([[-1, -1, -4], [1, -1, -4], [0, 1, -4]], [0, 0, 1], 0)
    offscreen = ([[50, 50, -4], [52, 50, -4], [51, 52, -4]], [0, 0, 1], 0)
    scene = build_scene([visible, offscreen], [gray_material()], lights=[light])
    img_off = resolve_msaa(main_pass(scene, None, config(msaa=2)))
    img_on = resolve_msaa(main_pass(scene, None, config(msaa=2, frustum_culling=True)))
    assert np.array_equal(img_off.pixels, img_on.pixels)


def test_world_normals_stay_perpendicular_under_nonuniform_scale():
    """The geometry stage moves normals by the inverse-transpose of the draw's
    linear part: they stay perpendicular to the transformed surface, where
    the linear part itself would tilt them."""
    verts = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 0.5]])
    normal = np.cross(verts[1] - verts[0], verts[2] - verts[0])
    scene = build_scene([(verts, normal / np.linalg.norm(normal), 0)], [gray_material()])
    m = translate(0.2, -0.1, -5.0) @ scale(2.0, 1.0, 0.5) @ rotate_y(0.4)
    scene.world["t0"] = m
    view, proj, _ = camera_matrices(scene, select_camera(scene), 64, 64)
    batch = _geometry_stage(scene, build_draws(scene), view, proj, 64, 64, False, False)
    assert batch.count == 1
    corners = batch.tri[0]
    iw = batch.iw[corners][:, None]
    wpos, wnrm = batch.wpos_iw[corners] / iw, batch.wnrm_iw[corners] / iw
    edges = wpos[[1, 2, 0]] - wpos
    for n in wnrm:
        unit = n / np.linalg.norm(n)
        assert np.all(np.abs(edges @ unit) < 1e-12)
    tilted = m[:3, :3] @ normal
    assert np.max(np.abs(edges @ tilted)) / np.linalg.norm(tilted) > 0.1


@pytest.mark.parametrize("backface", [False, True])
def test_subnormal_area_triangle_is_dropped(backface):
    """A triangle whose screen area2 is subnormal would divide its depth to
    inf.  Near 0 the screen coordinates of a whole-pixel frame are
    multiples of 2**-53 of its width, so this drives the stage with a
    frame 2**-1020 wide: x = 0, 0 and 1e-323 (one ulp-nudged vertex),
    area2 = +-2e-323."""
    eye = np.eye(4)

    def stage(x):  # ndc x of the third vertex; back faces have area2 < 0
        verts = [[-1.0, -1.0, 0.5], [-1.0, 1.0, 0.5], [x, -1.0, 0.5]]
        scene = build_scene([(verts[::-1] if backface else verts, [0, 0, 1], 0)],
                            [gray_material()])
        return _geometry_stage(scene, build_draws(scene), eye, eye, 2.0 ** -1020, 2.0,
                               False, backface)

    assert stage(-1.0 + 2.0 ** -52).count == 0  # screen x = 2**-1073
    assert stage(0.0).count == 1  # screen x = 2**-1021: area2 = 2**-1020 is normal


def test_singular_draw_transform_raises_naming_the_node():
    tris = [([[-1, -1, -4], [1, -1, -4], [0, 1, -4]], [0, 0, 1], 0)] * 3
    scene = build_scene(tris, [gray_material()])
    for i in range(3):  # one geometry drawn by three nodes
        scene.nodes[i].mesh_instance = (0, 0)
    zero_scale = np.diag([0.0, 0.0, 0.0, 1.0])
    scene.world["t1"] = translate(0.0, 0.0, -4.0) @ zero_scale
    with pytest.raises(ValidationError, match="node 't1'"):
        main_pass(scene, None, config(frustum_culling=True))
    scene.world["t1"] = translate(50.0, 0.0, -4.0) @ zero_scale  # off screen: culled first
    fb = main_pass(scene, None, config(frustum_culling=True))
    assert np.isfinite(fb.depth).any()


@pytest.mark.parametrize("node, needle, entry, value, culling", [
    ("cam", "camera node 'cam'", ..., np.nan, False),
    ("blocker", "node 'blocker'", ..., np.nan, False),
    # the translation column is outside the 3x3 block the normals invert, and
    # an inf x makes the cull drop the draw: the whole matrix is checked first
    ("blocker", "node 'blocker'", (0, 3), np.nan, False),
    ("blocker", "node 'blocker'", (0, 3), np.nan, True),
    ("blocker", "node 'blocker'", (0, 3), np.inf, False),
    ("blocker", "node 'blocker'", (0, 3), np.inf, True),
], ids=["cam-camera node 'cam'", "blocker-node 'blocker'", "nan-translation-culling-off",
        "nan-translation-culling-on", "inf-translation-culling-off",
        "inf-translation-culling-on"])
def test_non_finite_camera_or_draw_transform_raises_naming_the_node(node, needle, entry, value,
                                                                    culling):
    scene = make_shadow_scene()
    scene.world[node] = scene.world[node].copy()
    scene.world[node][entry] = value
    with pytest.raises(ValidationError, match=f"{needle} holds a non-finite matrix"):
        main_pass(scene, None, config(frustum_culling=culling))


def test_worker_count_does_not_change_output(monkeypatch):
    """Bands split only coverage: each frame is shaded in one batch, with
    one shadow batch per light, whatever the worker count."""
    scene = make_shadow_scene()
    refresh_world_transforms(scene)
    names, geometry, _ = mesh_instances(scene)
    tlas = build_tlas([scene.world[n] for n in names], geometry, build_scene_blases(scene), names)
    calls = []
    for name in ("shade_direct", "shadow_mask"):
        def counted(*args, _name=name, _f=getattr(raster, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(raster, name, counted)
    images = []
    for workers in (1, 3, 7):
        cfg = config(width=72, height=60, msaa=4, shadows=True, workers=workers)
        images.append(ppm_bytes(resolve_msaa(main_pass(scene, tlas, cfg))))
        assert sorted(calls) == ["shade_direct"] + ["shadow_mask"] * len(scene.lights)
        calls.clear()
    assert images[0] == images[1] == images[2]


def test_worker_count_does_not_reach_one_pixel_rounding(monkeypatch):
    """A sliver lights pixels (2, 3) and (2, 4), which two workers put in
    different bands: `_interpolate` must still see a two-pixel triangle."""
    corners = [(2.3, 3.2), (2.7, 3.2), (2.5, 4.8)]
    verts = [screen_to_world(sx, sy, -2.0, 8, 8) for sx, sy in corners]
    light = PointLight(position=[0.0, 0.0, 1.0], intensity=[8.0] * 3)
    scene = build_scene([(verts, [0.0, 0.0, 1.0], 0)], [gray_material()], lights=[light])
    interpolate = raster._interpolate
    renders = []
    for workers in (1, 2):
        flags = []

        def record(batch, k, lam, one_pixel):
            flags.extend(one_pixel.tolist())
            return interpolate(batch, k, lam, one_pixel)

        monkeypatch.setattr(raster, "_interpolate", record)
        fb = main_pass(scene, None, config(width=8, height=8, workers=workers))
        monkeypatch.undo()
        assert np.argwhere(np.isfinite(fb.depth[..., 0])).tolist() == [[3, 2], [4, 2]]
        renders.append((sorted(flags), fb.color.tobytes(), fb.depth.tobytes()))
    assert renders[0] == renders[1]


def test_missing_camera_is_configuration_error():
    scene = build_scene([], [gray_material()])
    scene.cameras = []
    with pytest.raises(ConfigurationError):
        main_pass(scene, None, config())


def test_camera_node_without_world_is_validation_error():
    scene = make_shadow_scene()
    del scene.world["cam"]
    with pytest.raises(ValidationError, match="camera node 'cam'"):
        main_pass(scene, None, config())


def test_mesh_node_without_world_is_validation_error():
    scene = make_triangle_scene()
    del scene.world["tri"]
    with pytest.raises(ValidationError, match="^mesh node 'tri' has no world transform$"):
        main_pass(scene, None, config())


@pytest.mark.parametrize("frustum", [False, True])
def test_vertex_on_the_eye_plane_renders_near_clipped(frustum):
    """A shared vertex at view-space z = 0 has clip w = 0, so the geometry
    stage's 1/w, NDC and premultiplied attributes of that vertex are inf or
    NaN (it has zero y and z, and so does its normal).  Both triangles
    through it are near-clipped; nothing they draw may be non-finite, and
    no floating-point warning may escape."""
    verts = np.array([[0.5, 0.0, 0.0], [-1.0, -1.0, -3.0], [1.0, -1.0, -3.0], [0.0, 1.0, -3.0]])
    geo = MeshGeometry(positions=verts, normals=np.tile([0.0, 0.0, 1.0], (4, 1)),
                       uvs=np.zeros((4, 2)), triangles=np.array([[1, 2, 0], [0, 3, 1]]))
    light = PointLight(position=[0.0, 0.0, 1.0], intensity=[8.0] * 3)
    scene = build_scene([], [gray_material()], lights=[light])
    scene.geometries.append(geo)
    scene.nodes.append(SceneNode(name="fan", parent=None, local=np.eye(4), mesh_instance=(0, 0)))
    refresh_world_transforms(scene)
    view, proj, _ = camera_matrices(scene, select_camera(scene), 64, 48)
    assert (proj @ view @ [0.5, 0.0, 0.0, 1.0])[3] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fb = main_pass(scene, None, config(width=64, height=48, msaa=4, frustum_culling=frustum))
    covered = fb.depth != np.inf
    assert covered.sum() > 100
    assert np.isfinite(fb.depth[covered]).all() and np.isfinite(fb.color[covered]).all()


# ------------------------------------------------- bit-exact main pass

# recorded from the per-triangle raster loop: the visibility buffer must
# give every colour and depth sample the same bits
PINNED_MAIN_PASS_SHA256 = "85d046913b51d03369cfac776a4e127f58d919c3d111d0367c4276af3ef216fd"


def test_main_pass_corpus_matches_pinned_sha256(bench_gltf):
    """bench.gltf at d=0..2, MSAA 1/4/8, shadows off and on, 1 and 3 workers."""
    digest = hashlib.sha256()
    base = load_gltf(bench_gltf)
    refresh_world_transforms(base)
    for d in range(3):
        scene = duplicate_scene_geometry(base, d)
        refresh_world_transforms(scene)
        names, geometry, _ = mesh_instances(scene)
        tlas = build_tlas([scene.world[n] for n in names], geometry, build_scene_blases(scene),
                          names)
        for msaa in (1, 4, 8):
            for shadows in (False, True):
                for workers in (1, 3):
                    fb = main_pass(scene, tlas, config(width=96, height=72, msaa=msaa,
                                                       shadows=shadows, workers=workers))
                    digest.update(fb.color.tobytes())
                    digest.update(fb.depth.tobytes())
    assert digest.hexdigest() == PINNED_MAIN_PASS_SHA256


def test_depth_tie_below_float32_resolution_goes_to_later_triangle():
    """zg_a < zg_b < float32(zg_a): b passes against a's stored float32
    depth, so b wins although a float64 minimum would pick a."""
    z_a, z_b = 0.5 - 2.0 ** -30, 0.5 - 2.0 ** -31  # float32 of both is 0.5
    assert z_a < z_b < float(np.float32(z_a))
    scene = Scene(materials=[gray_material(0, base=0.9), gray_material(1, base=0.2)],
                  lights=[PointLight(position=[0.0, 0.0, 1.0], intensity=[5.0] * 3)])
    xy = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])  # exact edge functions, so zg == z
    wpos = np.array([[-1.0, 1.0, -2.0], [1.0, 1.0, -2.0], [-1.0, -1.0, -2.0]])

    def render(*tris):
        batch = corner_batch(
            xy=np.array([xy] * len(tris)), z=np.array([[z] * 3 for z, _ in tris]),
            iw=np.ones((len(tris), 3)), wpos_iw=np.array([wpos] * len(tris)),
            wnrm_iw=np.tile([0.0, 0.0, 1.0], (len(tris), 3, 1)),
            material=np.array([m for _, m in tris], dtype=np.int32))
        fb = create_framebuffer(8, 8, 4)
        cover_then_shade(fb, batch, scene, [(0, 8)])
        return fb

    both, only_a, only_b = render((z_a, 0), (z_b, 1)), render((z_a, 0)), render((z_b, 1))
    covered = np.isfinite(only_b.depth)
    assert covered.sum() > 100
    assert np.array_equal(both.depth, only_b.depth)
    assert np.all(both.depth[covered] == np.float32(0.5))
    assert np.array_equal(both.color, only_b.color)
    assert not np.any(np.all(only_a.color[covered] == only_b.color[covered], axis=-1))


def test_interpolate_matches_per_triangle_products():
    """Bit for bit against lam @ iw[k], lam @ wpos_iw[k] and lam @ wnrm_iw[k]
    over each triangle's own rows, many of them one-pixel triangles."""
    rng = np.random.default_rng(83)
    count = 400
    corners = (rng.uniform(0.02, 2.0, (count, 3)), rng.normal(0.0, 4.0, (count, 3, 3)),
               rng.normal(0.0, 1.0, (count, 3, 3)))  # iw, wpos_iw, wnrm_iw
    batch = corner_batch(np.zeros((count, 3, 2)), np.zeros((count, 3)), *corners,
                         np.zeros(count, dtype=np.int32))
    rows = rng.choice([1, 1, 1, 2, 3, 7, 30], count)
    k = np.repeat(np.arange(count), rows)
    lam = rng.uniform(0.0, 1.0, (len(k), 3))
    lam /= lam.sum(axis=1, keepdims=True)
    want = [np.concatenate([lam[k == t] @ attr[t] for t in range(count)]) for attr in corners]
    order = rng.permutation(len(k))  # rows of all triangles interleaved
    got = _interpolate(batch, k[order], lam[order], rows[k[order]] == 1)
    for g, w in zip(got, want):
        assert g.tobytes() == w[order].tobytes()


# ----------------------------------------------------- coverage windows

def nudge_ulps(v, rng, most=3):
    """v moved by up to `most` ulps either way, per element."""
    steps = rng.integers(-most, most + 1, v.shape)
    for k in range(most):
        v = np.where(steps > k, np.nextafter(v, np.inf), v)
        v = np.where(steps < -k, np.nextafter(v, -np.inf), v)
    return v


def edge_setup(xy):
    """vx, vy, dx, dy, area2 and top_left as `_raster_band` derives them."""
    vx, vy, dx, dy, area2 = raster._edges(xy)
    return vx, vy, dx, dy, area2, (dy < 0.0) | ((dy == 0.0) & (dx > 0.0))


def sliver_soup(kind, n, seed):
    """(n, 3, 2) screen triangles around a 64x48 target, wound for the edge test.

    "sliver": the third vertex 0 or 1e-14 to 1 px off the line through the
    other two; "axis": the same along axis-aligned and 45-degree lines
    through the 1/16 sample lattice, every vertex then moved by up to 3 ulps;
    "lattice": vertices on the 1/16 lattice, each moved by up to 3 ulps;
    "far": one vertex 1e2 to 1e6 px away, on the line through the other
    two for half of them; "tiny": triangles under a pixel across.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform([-6.0, -6.0], [70.0, 54.0], (n, 2))
    if kind in ("sliver", "axis"):
        if kind == "sliver":
            b = a + rng.uniform(-24.0, 24.0, (n, 2))
        else:
            a = np.round(a * 16.0) / 16.0
            axis = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])[rng.integers(0, 4, n)]
            b = a + axis * rng.choice([-1.0, 1.0], (n, 1)) * rng.integers(1, 481, (n, 1)) / 16.0
        d = b - a
        normal = np.stack([-d[:, 1], d[:, 0]], axis=1) / np.linalg.norm(d, axis=1, keepdims=True)
        off = rng.choice([-1.0, 0.0, 1.0], (n, 1)) * 10.0 ** rng.uniform(-14.0, 0.0, (n, 1))
        t = rng.uniform(-0.25, 1.25, (n, 1))
        if kind == "axis":  # on the lattice, then moved by ulps
            t = np.round(t * 16.0) / 16.0
            off[::2] = 0.0
        xy = np.stack([a, b, a + t * d + off * normal], axis=1)
        if kind == "axis":
            xy = nudge_ulps(xy, rng)
    elif kind == "far":
        b = a + rng.uniform(-8.0, 8.0, (n, 2))
        c = a + rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(2.0, 6.0, (n, 1))
        line = rng.random(n) < 0.5
        c[line] = a[line] + (b - a)[line] * -(10.0 ** rng.uniform(1.0, 5.0, (line.sum(), 1)))
        xy = np.stack([a, b, c], axis=1)
    elif kind == "lattice":
        a = np.round(a * 16.0) / 16.0
        xy = a[:, None] + rng.integers(-48, 49, (n, 3, 2)) / 16.0
        xy = nudge_ulps(xy, rng)
    else:
        xy = a[:, None] + rng.uniform(-1.0, 1.0, (n, 3, 2)) * 10.0 ** rng.uniform(-3.0, 0.0, (n, 1, 1))
    flip = edge_setup(xy)[4] < 0.0
    xy[flip] = xy[flip][:, [0, 2, 1]]
    return xy


def soup_batch(xy, seed):
    """A `_TriangleBatch` over screen triangles xy with seeded attributes."""
    rng = np.random.default_rng(seed)
    n = len(xy)
    normals = rng.normal(size=(n, 3, 3))
    return corner_batch(
        xy=xy, z=rng.uniform(0.05, 0.95, (n, 3)), iw=rng.uniform(0.5, 2.0, (n, 3)),
        wpos_iw=rng.normal(0.0, 1.0, (n, 3, 3)) + [0.0, 0.0, -3.0],
        wnrm_iw=normals / np.linalg.norm(normals, axis=2, keepdims=True),
        material=rng.integers(0, 3, n).astype(np.int32))


def soup_scene():
    return Scene(materials=[gray_material(m, base=0.2 + 0.3 * m) for m in range(3)],
                 lights=[PointLight(position=[0.5, 1.0, 1.0], intensity=[6.0] * 3)])


def hex_triangle(*coords):
    return np.array([[float.fromhex(c) for c in coords]]).reshape(1, 3, 2)


# thin: its smallest angle has a sine of about 2e-16 (area2 = 1.1e-12)
RECORDED_SLIVER = hex_triangle("0x1.7880000000002p+5", "0x1.bd00000000003p+4",
                               "0x1.8300000000002p+6", "0x1.35fffffffffffp+6",
                               "0x1.28c0000000000p+6", "0x1.b780000000000p+5")


@pytest.mark.parametrize("xy, msaa, count, sample", [
    # sample 0 of pixel (row 27, col 46) lies 0.69 px outside the box
    (RECORDED_SLIVER, 4, 8, (27, 46, 0)),
    # area2 = 100 eps L^2 over its 38 px longest edge L: thin only once the
    # bound grows with L; sample 0 of pixel (34, 32) lies 1/16 px outside
    (hex_triangle("0x1.0580000000002p+5", "0x1.167fffffffffep+5",
                  "0x1.5ffffffffffffp+2", "0x1.effffffffffffp+5",
                  "0x1.ccbfffffffd5ep+2", "0x1.e267fffffffaap+5"), 2, 1, (34, 32, 0)),
    # not thin (sine about 1e-9); sample 2 of pixel (16, 54) lies 1 ulp
    # outside the box on both axes, within the slack
    (hex_triangle("0x1.8800000000002p+4", "0x1.71ffffffffffdp+5",
                  "0x1.e0dffff90faddp+4", "0x1.458ffffc87d6fp+5",
                  "0x1.b0fffffffffffp+5", "0x1.0a00000000002p+4"), 4, 1, (16, 54, 2)),
], ids=["thin-sliver", "long-sliver", "one-ulp-outside"])
def test_samples_covered_outside_the_box_stay_written(xy, msaa, count, sample):
    """Recorded from the one-pixel-margin rectangle: rounding makes the edge
    test cover these samples outside the triangle's closed box."""
    fb = create_framebuffer(128, 96, msaa)
    cover_then_shade(fb, soup_batch(xy, 0), soup_scene(), [(0, 96)])
    written = [tuple(s) for s in np.argwhere(np.isfinite(fb.depth))]
    assert len(written) == count
    assert sample in written
    row, col, s = sample
    sx, sy = col + SAMPLE_POSITIONS[msaa][s, 0], row + SAMPLE_POSITIONS[msaa][s, 1]
    assert not (xy[0, :, 0].min() <= sx <= xy[0, :, 0].max()
                and xy[0, :, 1].min() <= sy <= xy[0, :, 1].max())


# recorded from the one-pixel-margin rectangle of every triangle
PINNED_SLIVER_SOUP_SHA256 = "2ef3f42758ff355829de92048fe064309510986acafd821aa47c26174ae14c23"


def test_sliver_soup_matches_pinned_sha256():
    """The recorded thin sliver and every kind of `sliver_soup` in one batch,
    at MSAA 1/2/4/8, in two bands."""
    xy = np.concatenate([RECORDED_SLIVER] + [sliver_soup(kind, 150, seed)
                         for seed, kind in enumerate(["sliver", "axis", "far", "lattice", "tiny"])])
    batch = soup_batch(xy, 99)
    scene = soup_scene()
    digest = hashlib.sha256()
    for msaa in (1, 2, 4, 8):
        fb = create_framebuffer(64, 48, msaa)
        cover_then_shade(fb, batch, scene, [(0, 17), (17, 48)])
        digest.update(fb.color.tobytes())
        digest.update(fb.depth.tobytes())
    assert digest.hexdigest() == PINNED_SLIVER_SOUP_SHA256


def pixel_rects(lo, hi):
    """(rectangle, column, row) of every pixel in each [lo, hi) rectangle of (x, y) bounds."""
    size = np.maximum(hi - lo, 0).astype(np.int64)
    n = size[:, 0] * size[:, 1]
    t = np.repeat(np.arange(len(n)), n)
    offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    return t, lo[t, 0] + offset % size[t, 0], lo[t, 1] + offset // size[t, 0]


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["sliver", "axis", "far", "lattice", "tiny"]),
       seed=st.integers(0, 2**32 - 1), msaa=st.sampled_from([1, 2, 4, 8]))
def test_window_drops_only_samples_the_edge_test_misses(kind, seed, msaa):
    """The window lies inside the one-pixel-margin rectangle, and on triangles
    that are not thin the edge test covers no sample in between."""
    xy = sliver_soup(kind, 64, seed)
    vx, vy, dx, dy, area2, top_left = edge_setup(xy)
    keep = area2 > 0.0
    xy, vx, vy, dx, dy, area2, top_left = (a[keep] for a in (xy, vx, vy, dx, dy, area2, top_left))
    thin = raster._thin(dx, dy, area2)
    rect_lo, rect_hi = np.floor(xy.min(axis=1)) - 1, np.ceil(xy.max(axis=1)) + 1
    lo, hi = raster._coverage_window(xy, thin, SAMPLE_POSITIONS[msaa])
    assert np.all((lo >= rect_lo) & (hi <= rect_hi))
    assert np.array_equal(lo[thin], rect_lo[thin]) and np.array_equal(hi[thin], rect_hi[thin])

    frame_lo, frame_hi = (0, 0), (64, 48)
    t, col, row = pixel_rects(np.clip(rect_lo, frame_lo, frame_hi),
                              np.clip(rect_hi, frame_lo, frame_hi))
    ring = ~thin[t] & ~((col >= lo[t, 0]) & (col < hi[t, 0]) & (row >= lo[t, 1]) & (row < hi[t, 1]))
    t, col, row = t[ring], col[ring], row[ring]
    for sx, sy in SAMPLE_POSITIONS[msaa]:
        e = raster._edge_functions(dx[t], dy[t], vx[t], vy[t], col + sx, row + sy)
        cover = ((e > 0.0) | ((e == 0.0) & top_left[t])).all(axis=1)
        assert not cover.any(), xy[t[cover][0]].tolist()


def cover_frame(scene, cfg):
    """The frame's depth, (H, W, S) winner and (K,) lit after `_raster_band` over the whole target."""
    fb = create_framebuffer(cfg.width, cfg.height, cfg.msaa)
    view, proj, _ = camera_matrices(scene, select_camera(scene), cfg.width, cfg.height)
    batch = _geometry_stage(scene, build_draws(scene), view, proj, cfg.width, cfg.height,
                            cfg.frustum_culling, cfg.backface_culling)
    winner = np.full(fb.depth.shape, -1, dtype=np.int32)
    lit = _raster_band(fb, batch, winner, 0, cfg.height)
    return fb.depth, winner, lit


def test_pair_chunk_size_does_not_change_output(bench_gltf, monkeypatch):
    """bench.gltf at d=0..1, MSAA 1/4/8: any chunk of (triangle, pixel) pairs,
    down to one pair, gives the same colour and depth bits, and
    `_raster_band` the same winner array and lit counts."""
    base = load_gltf(bench_gltf)
    refresh_world_transforms(base)
    for d in range(2):
        scene = duplicate_scene_geometry(base, d)
        refresh_world_transforms(scene)
        for msaa in (1, 4, 8):
            cfg = config(width=64, height=48, msaa=msaa)
            want = main_pass(scene, None, cfg)
            want_depth, want_winner, want_lit = cover_frame(scene, cfg)
            assert want_depth.tobytes() == want.depth.tobytes()
            assert want_lit.sum() > 0
            for chunk in (1, 7, 1 << 20):
                monkeypatch.setattr(raster, "_PAIR_CHUNK", chunk)
                fb = main_pass(scene, None, cfg)
                depth, winner, lit = cover_frame(scene, cfg)
                monkeypatch.undo()
                assert fb.color.tobytes() == want.color.tobytes()
                assert fb.depth.tobytes() == want.depth.tobytes()
                assert depth.tobytes() == want_depth.tobytes()
                assert winner.tobytes() == want_winner.tobytes()
                assert lit.tobytes() == want_lit.tobytes()


def deep_overlap_batch():
    """14 triangles over a 16x12 target, all over its middle, in submission
    order: a full-target triangle, its exact copy, nested ones with flat and
    sloped depth, exact copies of those, a depth that rounds to the float32
    already stored, a quad's two halves sharing an edge, and ones behind
    everything.  Vertices lie on the 1/16 sample lattice, so edge functions
    are exact, and flat depths are float32 values, so the copies of flat
    triangles tie what they cover."""
    big = [(-4.0, -4.0), (40.0, -4.0), (-4.0, 30.0)]
    mid = [(1.0, 0.5), (15.5, 1.0), (2.0, 11.5)]
    small = [(4.0, 3.0), (12.0, 3.0), (4.0, 9.0)]
    quad_a, quad_b = [(3.0, 2.0), (13.0, 2.0), (3.0, 10.0)], [(13.0, 2.0), (13.0, 10.0), (3.0, 10.0)]
    below = 0.5 - 2.0 ** -30  # rounds to float32 0.5
    tris = [(big, (0.625,) * 3), (big, (0.625,) * 3), (mid, (0.625,) * 3),
            (mid, (0.7, 0.2, 0.5)), (mid, (0.7, 0.2, 0.5)), (small, (0.5,) * 3),
            (small, (below,) * 3), (small, (below,) * 3),
            (quad_a, (0.4375,) * 3), (quad_b, (0.4375,) * 3),
            (quad_a, (0.4375,) * 3), (quad_b, (0.3, 0.6, 0.45)),
            (big, (0.875,) * 3), (small, (0.9375,) * 3)]
    xy = np.array([t[0] for t in tris], dtype=np.float64)
    z = np.array([t[1] for t in tris], dtype=np.float64)
    flip = edge_setup(xy)[4] < 0.0
    xy[flip], z[flip] = xy[flip][:, [0, 2, 1]], z[flip][:, [0, 2, 1]]
    batch = soup_batch(xy, 5)
    batch.z = z.reshape(-1)
    return batch


def sequential_oracle(batch, width, height, msaa):
    """Covering every sample of the target with each triangle in turn, one
    sample at a time: a sample passes on ``z < float32 stored`` and stores
    ``float32(z)``, with edge functions and depth as `_raster_band` rounds
    them.  Returns depth, winner, lit, the number of depth ties, and per
    sample the triangles covering it and the passes."""
    depth = np.full((height, width, msaa), np.inf, dtype=np.float32)
    winner = np.full((height, width, msaa), -1, dtype=np.int32)
    lit = np.zeros(batch.count, dtype=np.int64)
    candidates = np.zeros((height, width, msaa), dtype=np.int64)
    passes = np.zeros((height, width, msaa), dtype=np.int64)
    ties = 0
    for k, tri in enumerate(batch.tri):
        (x0, y0), (x1, y1), (x2, y2) = batch.xy[tri].tolist()
        z0, z1, z2 = batch.z[tri].tolist()
        edges = [(x1 - x0, y1 - y0, x0, y0), (x2 - x1, y2 - y1, x1, y1), (x0 - x2, y0 - y2, x2, y2)]
        area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        for row in range(height):
            for col in range(width):
                passed = False
                for s, (sx, sy) in enumerate(SAMPLE_POSITIONS[msaa].tolist()):
                    px, py = col + sx, row + sy
                    e = [dx * (py - vy) - dy * (px - vx) for dx, dy, vx, vy in edges]
                    if not all(v > 0.0 or (v == 0.0 and (dy < 0.0 or (dy == 0.0 and dx > 0.0)))
                               for v, (dx, dy, _, _) in zip(e, edges)):
                        continue
                    zg = (e[1] * z0 + e[2] * z1 + e[0] * z2) / area2
                    stored = float(depth[row, col, s])
                    ties += zg == stored
                    candidates[row, col, s] += 1
                    if zg < stored:
                        depth[row, col, s] = np.float32(zg)
                        winner[row, col, s] = k
                        passes[row, col, s] += 1
                        passed = True
                lit[k] += passed
    return depth, winner, lit, ties, candidates, passes


@pytest.mark.parametrize("msaa", [1, 4, 8])
def test_deep_overlap_matches_a_per_sample_sequential_oracle(msaa, monkeypatch):
    """14 nested and coplanar triangles over the same pixels, with equal-depth
    ties: any pair chunk, in one band or two, gives the oracle's depth,
    winner and lit bits, and the shaded colour does not depend on the chunk."""
    batch = deep_overlap_batch()
    want_depth, want_winner, want_lit, ties, candidates, passes = sequential_oracle(
        batch, 16, 12, msaa)
    assert ties > 100
    assert (want_lit > 0).sum() >= 8 and len(np.unique(want_winner)) >= 5
    assert candidates.max() >= 8 and passes.max() >= 4
    colors = set()
    for chunk in (1, 7, 4096, 1 << 20):
        monkeypatch.setattr(raster, "_PAIR_CHUNK", chunk)
        for bands in ([(0, 12)], [(0, 5), (5, 12)]):
            fb = create_framebuffer(16, 12, msaa)
            winner = np.full(fb.depth.shape, -1, dtype=np.int32)
            lit = sum(_raster_band(fb, batch, winner, y0, y1) for y0, y1 in bands)
            assert fb.depth.tobytes() == want_depth.tobytes()
            assert winner.tobytes() == want_winner.tobytes()
            assert lit.tobytes() == want_lit.tobytes()
            _shade(fb, batch, winner, lit, soup_scene(), None, np.zeros(3), False)
            colors.add(fb.color.tobytes())
    assert len(colors) == 1

