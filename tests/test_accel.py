"""Acceleration-structure tests.

The headline check pits the two-level BVH traversal against two
independent oracles: the world-space brute-force scan in bvh_oracle
(different arithmetic path), and a 3x3-linear-solve ray/triangle
intersector implemented in this file.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvh_oracle
from bvh_oracle import all_world_triangles, brute_force_closest_hit

from softrender import accel
from softrender.accel import (
    LEAF_MAX_INSTANCES,
    LEAF_MAX_TRIS,
    SHADOW_OFFSET,
    Ray,
    build_blas,
    build_tlas,
    compact_blas,
    ray_any_hit,
    ray_closest_hit,
    refit_tlas,
    serialize_blas,
    serialize_tlas,
    shadow_mask,
    shadow_visibility,
)
from softrender.errors import ValidationError
from softrender.frameloop import build_scene_blases
from softrender.gltf import load_gltf
from softrender.interchange import physics_stub_step
from softrender.linalg import rotate_y, rotate_z, translate, scale
from softrender.procedural import cube_geometry, make_demo_scene, plane_geometry, sphere_geometry
from softrender.scene import duplicate_scene_geometry, mesh_instances


# ---------------------------------------------------------------- fixtures

def triangle_soup(rng, tri_count, lo=-2.0, hi=2.0):
    """Random disconnected triangles inside a cube."""
    centers = rng.uniform(lo, hi, (tri_count, 3))
    offsets = rng.uniform(-0.4, 0.4, (tri_count, 3, 3))
    positions = (centers[:, None, :] + offsets).reshape(-1, 3)
    triangles = np.arange(tri_count * 3, dtype=np.int64).reshape(-1, 3)
    return positions, triangles


def two_instance_tlas(rng, tri_count=500):
    pos, tri = triangle_soup(rng, tri_count)
    blas = build_blas(pos, tri, geometry_id=0)
    return build_tlas([np.eye(4), translate(1.5, -0.5, 2.0) @ rotate_y(0.7)], [0, 0], [blas],
                      ["a", "b"], frame_index=0)


def shell_rays(rng, count, radius=8.0, target_spread=2.5, unit_dirs=True):
    rays = []
    for _ in range(count):
        o = rng.normal(size=3)
        o = o / np.linalg.norm(o) * radius
        target = rng.uniform(-target_spread, target_spread, 3)
        d = target - o
        if unit_dirs:
            d = d / np.linalg.norm(d)
        rays.append(Ray(origin=o, direction=d))
    return rays


def solve_oracle_closest(tlas, ray, closed=True):
    """Independent intersector: LU solve of u e1 + v e2 - t d = o - v0.

    closed=True tests t against [t_min, t_max] (closest-hit), False
    against (t_min, t_max) (any-hit).
    """
    tris, inst_ids, tri_ids = all_world_triangles(tlas)
    best = None
    for verts, instance_id, tri_index in zip(tris, inst_ids, tri_ids):
        v0, v1, v2 = verts
        e1, e2 = v1 - v0, v2 - v0
        a = np.column_stack([e1, e2, -np.asarray(ray.direction, dtype=np.float64)])
        if abs(np.linalg.det(a)) < 1e-14:
            continue
        u, v, t = np.linalg.solve(a, np.asarray(ray.origin, dtype=np.float64) - v0)
        if u < -1e-10 or v < -1e-10 or u + v > 1.0 + 1e-10:
            continue
        if (t < ray.t_min or t > ray.t_max) if closed else (t <= ray.t_min or t >= ray.t_max):
            continue
        key = (float(t), int(instance_id), int(tri_index))
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------- BLAS build

def test_single_triangle_single_leaf():
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    tri = np.array([[0, 1, 2]])
    blas = build_blas(pos, tri)
    assert blas.node_total == 1
    assert blas.node_count[0] == 1
    np.testing.assert_array_equal(blas.node_lo[0], [0, 0, 0])
    np.testing.assert_array_equal(blas.node_hi[0], [1, 1, 0])


def test_blas_leaf_size_and_triangle_census():
    rng = np.random.default_rng(10)
    pos, tri = triangle_soup(rng, 500)
    blas = build_blas(pos, tri)
    leaves = np.flatnonzero(blas.node_count > 0)
    assert np.all(blas.node_count[leaves] <= LEAF_MAX_TRIS)
    collected = []
    for ni in leaves:
        s, c = int(blas.node_start[ni]), int(blas.node_count[ni])
        collected.extend(blas.tri_order[s:s + c].tolist())
    assert sorted(collected) == list(range(500))


def test_blas_node_boxes_contain_children():
    rng = np.random.default_rng(11)
    pos, tri = triangle_soup(rng, 300)
    blas = build_blas(pos, tri)
    v0 = pos[tri[:, 0]]
    tri_lo = np.minimum(np.minimum(v0, pos[tri[:, 1]]), pos[tri[:, 2]])
    tri_hi = np.maximum(np.maximum(v0, pos[tri[:, 1]]), pos[tri[:, 2]])
    for ni in range(blas.node_total):
        if blas.node_count[ni] == 0:
            inside = [int(blas.node_left[ni]), int(blas.node_right[ni])]
            lo, hi = blas.node_lo[inside], blas.node_hi[inside]
        else:
            s, c = int(blas.node_start[ni]), int(blas.node_count[ni])
            inside = blas.tri_order[s:s + c]
            lo, hi = tri_lo[inside], tri_hi[inside]
        assert np.all(lo >= blas.node_lo[ni] - 1e-12) and np.all(hi <= blas.node_hi[ni] + 1e-12)


def test_blas_every_node_reachable_exactly_once():
    rng = np.random.default_rng(12)
    pos, tri = triangle_soup(rng, 200)
    blas = build_blas(pos, tri)
    seen = np.zeros(blas.node_total, dtype=int)
    stack = [0]
    while stack:
        ni = stack.pop()
        seen[ni] += 1
        if blas.node_count[ni] == 0:
            stack.append(int(blas.node_left[ni]))
            stack.append(int(blas.node_right[ni]))
    assert np.all(seen == 1)


def test_tlas_without_inverses_rejects_a_singular_transform_naming_the_instance():
    blas = build_blas(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
    with pytest.raises(ValidationError, match="instance 'flat' holds a singular matrix"):
        build_tlas([np.eye(4), np.diag([1.0, 1.0, 0.0, 1.0])], [0, 0], [blas], ["tri", "flat"])


def test_blas_without_triangles_is_one_empty_leaf_left_out_of_the_tlas():
    empty = build_blas(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    assert (empty.node_start.tolist(), empty.node_count.tolist()) == ([0], [0])
    assert np.all(empty.node_lo > empty.node_hi)  # inverted: it bounds nothing
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    tri = build_blas(pos, np.array([[0, 1, 2]]))
    tlas = build_tlas([np.eye(4), np.eye(4)], [0, 1], [empty, tri], ["hollow", "tri"])
    assert (tlas.instance_ids.tolist(), tlas.node_names) == ([1], ["tri"])
    hit = ray_closest_hit(tlas, Ray(origin=[0.2, 0.2, 1.0], direction=[0.0, 0.0, -1.0]))
    assert (hit.instance_id, hit.triangle_index) == (1, 0)
    alone = build_tlas([np.eye(4)], [0], [empty], ["hollow"])
    assert len(alone.instance_ids) == 0
    assert shadow_visibility(alone, [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 5.0]) == 1.0


def test_blas_rebuild_is_byte_identical():
    rng = np.random.default_rng(13)
    pos, tri = triangle_soup(rng, 256)
    a = build_blas(pos, tri)
    b = build_blas(pos.copy(), tri.copy())
    assert serialize_blas(a) == serialize_blas(b)


# ---------------------------------------------------------------- compaction

def test_compaction_shrinks_and_preserves_queries():
    rng = np.random.default_rng(14)
    pos, tri = triangle_soup(rng, 400)
    raw = build_blas(pos, tri)
    packed = compact_blas(raw)
    assert packed.compacted
    assert len(serialize_blas(packed)) < len(serialize_blas(raw))
    assert compact_blas(packed) is packed

    def tlas_for(blas):
        return build_tlas([np.eye(4)], [0], [blas], ["n"])
    t_raw, t_packed = tlas_for(raw), tlas_for(packed)
    for ray in shell_rays(rng, 200):
        h1 = ray_closest_hit(t_raw, ray)
        h2 = ray_closest_hit(t_packed, ray)
        if h1 is None:
            assert h2 is None
            continue
        assert (h1.instance_id, h1.triangle_index) == (h2.instance_id, h2.triangle_index)
        assert h1.t == pytest.approx(h2.t, rel=1e-12)


# ---------------------------------------------------------------- TLAS build

def test_single_identity_instance_tlas_root_equals_blas_root():
    rng = np.random.default_rng(15)
    pos, tri = triangle_soup(rng, 64)
    blas = build_blas(pos, tri)
    tlas = build_tlas([np.eye(4)], [0], [blas], ["n"])
    np.testing.assert_allclose(tlas.node_lo[0], blas.node_lo[0])
    np.testing.assert_allclose(tlas.node_hi[0], blas.node_hi[0])


def test_tlas_world_bounds_cover_transformed_vertices():
    rng = np.random.default_rng(16)
    pos, tri = triangle_soup(rng, 128)
    blas = build_blas(pos, tri)
    transforms = [translate(3, 1, -2) @ rotate_y(0.9) @ rotate_z(0.4),
                  translate(-1, 4, 0.5) @ scale(0.5, 2.0, 1.5) @ rotate_z(-1.2)]
    tlas = build_tlas(transforms, [0, 0], [blas], ["n0", "n1"])
    for k, m in enumerate(transforms):
        world_pts = pos @ m[:3, :3].T + m[:3, 3]
        assert np.all(world_pts >= tlas.world_lo[k] - 1e-9)
        assert np.all(world_pts <= tlas.world_hi[k] + 1e-9)
        np.testing.assert_allclose(tlas.inv_transforms[k] @ m, np.eye(4), atol=1e-12)


def test_tlas_leaf_instance_budget_and_rebuild_determinism():
    rng = np.random.default_rng(17)
    pos, tri = triangle_soup(rng, 60)
    blas = build_blas(pos, tri)
    transforms = [translate(4.0 * i, 0.5 * (i % 3), -2.0 * (i % 5)) for i in range(12)]
    names = [f"n{i}" for i in range(12)]
    t1 = build_tlas(transforms, [0] * 12, [blas], names, frame_index=3)
    t2 = build_tlas(transforms, [0] * 12, [blas], names, frame_index=3)
    assert serialize_tlas(t1) == serialize_tlas(t2)
    leaves = np.flatnonzero(t1.node_count > 0)
    assert np.all(t1.node_count[leaves] <= LEAF_MAX_INSTANCES)
    collected = []
    for ni in leaves:
        s, c = int(t1.node_start[ni]), int(t1.node_count[ni])
        collected.extend(t1.inst_order[s:s + c].tolist())
    assert sorted(collected) == list(range(12))


def unit_cube_tlas(centers):
    blas = build_blas(cube_geometry(1.0).positions, cube_geometry(1.0).triangles)
    return build_tlas([translate(*c) for c in centers], [0] * len(centers), [blas],
                      [f"c{k}" for k in range(len(centers))])


@pytest.mark.parametrize("centers, left", [
    # splitting on x or on y costs the same: the lower axis wins
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)], [0, 2]),
    # after bin 0 and after bin 8 cost the same: the lower bin wins
    ([(0, 0, 0), (2, 0, 0), (4, 0, 0)], [0]),
], ids=["axis-tie", "bin-tie"])
def test_sah_ties_resolve_to_lower_axis_then_lower_bin(centers, left):
    tlas = unit_cube_tlas(centers)
    ni = int(tlas.node_left[0])
    s, c = int(tlas.node_start[ni]), int(tlas.node_count[ni])
    assert s >= 0
    assert sorted(tlas.inst_order[s:s + c].tolist()) == left


def test_coincident_centroids_take_the_median_split():
    pos = np.tile([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], (10, 1))
    blas = build_blas(pos, np.arange(30).reshape(-1, 3))
    leaves = np.flatnonzero(blas.node_start >= 0)
    assert blas.node_count[leaves].tolist() == [2, 3, 2, 3]  # 10 -> 5 + 5 -> 2 + 3 each
    assert np.all(blas.node_count[leaves] <= LEAF_MAX_TRIS)
    collected = []
    for ni in leaves:
        s, c = int(blas.node_start[ni]), int(blas.node_count[ni])
        collected.extend(blas.tri_order[s:s + c].tolist())
    assert sorted(collected) == list(range(10))


# sha256 of the serialized builds below, recorded from the per-axis,
# per-bin loop form of the SAH search and the per-instance TLAS build:
# the whole-array forms must reproduce every split, box and inverse.
# "wide_tlas" (1,024 instances, recorded from the per-node TLAS build) has
# 1,023 nodes, so breadth-first and depth-first numbering differ on
# nearly all of them.
PINNED_BUILD_SHA256 = {
    "blas": "501f28e43e00dab596f54d31235f211eade91863baf1b2cbdc19bf75ea10fac3",
    "compact_blas": "a4700ac6ed88d8b870d41829003d7b780735d85f75ea132cb8d99b973f381d0e",
    "tlas": "8ff45a5b550b9700bf79607d553b56e8281e4b9621547f5e1e963fe28d5a6a31",
    "wide_tlas": "22fb5bb341ba39dcf22b488ac2c730d405800a629859dc87f6b0b02a30186063",
}


def test_serialized_builds_match_pinned_sha256():
    rng = np.random.default_rng(20)
    blas = build_blas(*triangle_soup(rng, 300))
    transforms = [translate(*rng.uniform(-6.0, 6.0, 3)) @ rotate_y(0.3 * i) for i in range(24)]
    wide = make_demo_scene(1024)
    names, geometry, _ = mesh_instances(wide)

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert {"blas": sha(serialize_blas(blas)),
            "compact_blas": sha(serialize_blas(compact_blas(blas))),
            "tlas": sha(serialize_tlas(build_tlas(transforms, [0] * 24, [blas],
                                                  [f"n{i}" for i in range(24)], frame_index=5))),
            "wide_tlas": sha(serialize_tlas(build_tlas([wide.world[n] for n in names], geometry,
                                                       build_scene_blases(wide), names)))} \
        == PINNED_BUILD_SHA256


def box_set(kind, n, seed):
    """(lo, hi) of n boxes; every kind but "spread" makes ties of some sort."""
    rng = np.random.default_rng(seed)
    if kind == "spread":
        lo = rng.normal(0.0, 4.0, (n, 3))
        return lo, lo + rng.uniform(0.0, 1.0, (n, 3))
    if kind == "grid":  # duplicate boxes, zero-extent axes, 0.0 beside -0.0
        lo = rng.choice([-0.0, 0.0, 1.0, 2.5], (n, 3))
        return lo, lo + rng.choice([-0.0, 0.0, 1.0], (n, 3))
    if kind == "flat":  # every box flat on one axis, and all at one coordinate on another
        lo = rng.normal(0.0, 4.0, (n, 3))
        hi = lo + rng.uniform(0.0, 1.0, (n, 3))
        a, b = rng.permutation(3)[:2]
        hi[:, a] = lo[:, a]
        lo[:, b] = hi[:, b] = 0.5
        return lo, hi
    # "coincident": boxes of many sizes around one to three shared centroids,
    # so whole nodes have no centroid spread and take the median split
    centers = rng.normal(0.0, 4.0, (3, 3))[rng.integers(0, rng.integers(1, 4), n)]
    half = rng.uniform(0.0, 1.0, (n, 3))
    return centers - half, centers + half


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["spread", "grid", "flat", "coincident"]),
       n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), leaf_max=st.sampled_from([2, 4]))
def test_level_build_matches_per_node_build(kind, n, seed, leaf_max):
    lo, hi = box_set(kind, n, seed)
    got = accel._build_bvh_levels(lo, hi, leaf_max)
    want = bvh_oracle._build_bvh(lo, hi, leaf_max)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def test_blas_matches_the_per_node_oracle_on_real_meshes(bench_gltf, demo_gltf):
    quad = (np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
            np.array([[0, 1, 2], [0, 2, 3]]))
    sphere = sphere_geometry(0.5, 64, 96)
    meshes = [(g.positions, g.triangles) for path in (bench_gltf, demo_gltf)
              for g in load_gltf(path).geometries]
    meshes += [quad, (sphere.positions, sphere.triangles)]
    assert sorted(len(tri) for _, tri in meshes) == [2, 2, 4, 8, 12, 12, 288, 12096]
    for pos, tri in meshes:
        a, b, c = pos[tri[:, 0]], pos[tri[:, 1]], pos[tri[:, 2]]
        *nodes, order = bvh_oracle._build_bvh(np.minimum(np.minimum(a, b), c),
                                              np.maximum(np.maximum(a, b), c), LEAF_MAX_TRIS)
        blas = build_blas(pos, tri)
        got = [blas.node_lo, blas.node_hi, blas.node_left, blas.node_right,
               blas.node_start, blas.node_count, blas.tri_order]
        for g, w in zip(got, [*nodes, order]):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()


# ---------------------------------------------------------------- traversal

def test_ray_parallel_to_triangle_plane_misses():
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    blas = build_blas(pos, np.array([[0, 1, 2]]))
    tlas = build_tlas([np.eye(4)], [0], [blas], ["n"])
    ray = Ray(origin=[0.2, 0.2, 1.0], direction=[1.0, 0.0, 0.0])
    assert ray_closest_hit(tlas, ray) is None
    assert not ray_any_hit(tlas, ray)


def test_closest_hit_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    tlas = two_instance_tlas(rng, tri_count=500)
    hits = misses = 0
    for ray in shell_rays(rng, 1000, unit_dirs=False):
        got = ray_closest_hit(tlas, ray)
        want = brute_force_closest_hit(tlas, ray)
        if want is None:
            assert got is None
            misses += 1
            continue
        hits += 1
        assert got is not None
        assert (got.instance_id, got.triangle_index) == \
               (want.instance_id, want.triangle_index)
        assert got.t == pytest.approx(want.t, rel=1e-6)
    # the shell aims into the soup; most rays should connect
    assert hits > 500, (hits, misses)


def test_closest_hit_matches_linear_solve_oracle():
    rng = np.random.default_rng(43)
    tlas = two_instance_tlas(rng, tri_count=120)
    checked = 0
    for ray in shell_rays(rng, 100):
        got = ray_closest_hit(tlas, ray)
        want = solve_oracle_closest(tlas, ray)
        if want is None:
            assert got is None
            continue
        t, inst, tri_i = want
        checked += 1
        assert got is not None
        assert (got.instance_id, got.triangle_index) == (inst, tri_i)
        assert got.t == pytest.approx(t, rel=1e-6)
    assert checked > 20


def test_any_hit_agrees_with_closest_hit():
    rng = np.random.default_rng(44)
    tlas = two_instance_tlas(rng, tri_count=200)
    for ray in shell_rays(rng, 300):
        closest = ray_closest_hit(tlas, ray)
        any_hit = ray_any_hit(tlas, ray)
        if closest is None:
            assert not any_hit
        elif ray.t_min < closest.t < ray.t_max:
            assert any_hit


def test_any_hit_matches_linear_solve_oracle_on_finite_segments():
    rng = np.random.default_rng(45)
    tlas = two_instance_tlas(rng, tri_count=250)
    hits = ends_before = ends_inside = 0
    for ray in shell_rays(rng, 150):
        first = solve_oracle_closest(tlas, ray)
        ray.t_max = float(rng.uniform(2.0, 12.0))
        want = solve_oracle_closest(tlas, ray, closed=False) is not None
        assert ray_any_hit(tlas, ray) == want
        hits += want
        end = ray.origin + ray.t_max * ray.direction
        if first is not None and ray.t_max < first[0]:
            ends_before += 1
        elif np.all(end >= tlas.node_lo[0]) and np.all(end <= tlas.node_hi[0]):
            ends_inside += 1
    # both kinds of segment occur: stopping short of the first triangle,
    # and stopping inside the soup's bounds
    assert hits > 10 and ends_before > 10 and ends_inside > 10, \
        (hits, ends_before, ends_inside)


def test_hit_t_is_in_world_units_under_scaled_instance():
    pos = np.array([[-1.0, -1, 5], [1, -1, 5], [0, 1, 5]])
    blas = build_blas(pos, np.array([[0, 1, 2]]))
    tlas = build_tlas([scale(2, 2, 2)], [0], [blas], ["n"])
    hit = ray_closest_hit(tlas, Ray(origin=[0, 0, 0], direction=[0, 0, 1]))
    assert hit is not None
    assert hit.t == pytest.approx(10.0, rel=1e-12)


def test_interval_semantics_closed_vs_open_at_exact_boundary():
    pos = np.array([[-2.0, -2, 5], [2, -2, 5], [0, 3, 5]])
    blas = build_blas(pos, np.array([[0, 1, 2]]))
    tlas = build_tlas([np.eye(4)], [0], [blas], ["n"])
    at_max = Ray(origin=[0, 0, 0], direction=[0, 0, 1], t_max=5.0)
    closest = ray_closest_hit(tlas, at_max)
    assert closest is not None and closest.t == 5.0
    assert not ray_any_hit(tlas, at_max)
    at_min = Ray(origin=[0, 0, 0], direction=[0, 0, 1], t_min=5.0, t_max=9.0)
    closest = ray_closest_hit(tlas, at_min)
    assert closest is not None and closest.t == 5.0
    assert not ray_any_hit(tlas, at_min)


def test_tie_break_prefers_lower_instance_then_triangle():
    pos = np.array([[-2.0, -2, 4], [2, -2, 4], [0, 3, 4]])
    tri_dup = np.array([[0, 1, 2], [0, 1, 2]])
    blas = build_blas(pos, tri_dup)
    tlas = build_tlas([np.eye(4), np.eye(4)], [0, 0], [blas], ["a", "b"])
    hit = ray_closest_hit(tlas, Ray(origin=[0, 0, 0], direction=[0, 0, 1]))
    assert hit is not None
    assert hit.instance_id == 0
    assert hit.triangle_index == 0


# ---------------------------------------------------------------- shadows

def _tlas_of(geometry, transform=None, extra=None):
    blases = [build_blas(geometry.positions, geometry.triangles)]
    transforms = [np.eye(4) if transform is None else transform]
    if extra is not None:
        geo2, m2 = extra
        blases.append(build_blas(geo2.positions, geo2.triangles, geometry_id=1))
        transforms.append(m2)
    return build_tlas(transforms, range(len(blases)), blases, ["g0", "g1"][:len(blases)])


def test_shadow_point_under_quad_occluded_and_reverse():
    quad = plane_geometry(size=6.0)  # y = 0 plane
    tlas = _tlas_of(quad, transform=translate(0, 2.0, 0))
    point = np.array([0.3, 0.0, -0.2])
    normal = np.array([0.0, 1.0, 0.0])
    assert shadow_visibility(tlas, point, normal, [0.0, 5.0, 0.0]) == 0.0
    # light below the point: segment no longer crosses the quad
    assert shadow_visibility(tlas, point, normal, [0.0, -5.0, 0.0]) == 1.0


def test_shadow_no_geometry_fully_visible():
    tlas = build_tlas([], [], [], [])
    assert shadow_visibility(tlas, [0, 0, 0], [0, 1, 0], [0, 5, 0]) == 1.0


def test_shadow_sphere_centered_on_segment_blocks():
    sphere = sphere_geometry(radius=0.5, lat_bands=12, lon_bands=16)
    tlas = _tlas_of(sphere, transform=translate(0, 2.5, 0))
    assert shadow_visibility(tlas, [0, 0, 0], [0, 1, 0], [0, 5, 0]) == 0.0


def test_shadow_ray_does_not_self_intersect_origin_surface():
    floor = plane_geometry(size=10.0)
    tlas = _tlas_of(floor)
    # point exactly on the floor, light straight up: must be lit
    assert shadow_visibility(tlas, [1.0, 0.0, 1.0], [0, 1, 0], [1.0, 6.0, 1.0]) == 1.0


def test_shadow_light_exactly_at_surface_point_is_visible():
    floor = plane_geometry(size=10.0)
    tlas = _tlas_of(floor)
    p = [0.5, 0.0, 0.5]
    assert shadow_visibility(tlas, p, [0, 1, 0], p) == 1.0


def test_shadow_mask_matches_linear_solve_oracle():
    rng = np.random.default_rng(46)
    blas = build_blas(*triangle_soup(rng, 60, lo=-1.0, hi=1.0))
    tlas = build_tlas([np.eye(4), translate(0.3, -0.2, 0.4) @ rotate_y(0.7)], [0, 0], [blas],
                      ["a", "b"])
    tris, _, _ = all_world_triangles(tlas)
    light = np.array([0.1, 0.2, -0.1])  # among the triangles
    n = 500
    points = np.array([surface_point(rng, tris) for _ in range(n)])
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    # 0-79: segments along y or x (zero direction components); 80-99: the
    # light within 2 * SHADOW_OFFSET of the offset point
    axis = np.arange(80) % 2
    points[:80] = light
    points[np.arange(80), axis] += rng.choice([-1.0, 1.0], 80) * rng.uniform(0.2, 2.0, 80)
    normals[:80] = 0.0
    normals[np.arange(80), axis] = rng.choice([-1.0, 1.0], 80)
    points[80:100] = (light - normals[80:100] * SHADOW_OFFSET
                      + rng.uniform(-0.5, 0.5, (20, 3)) * SHADOW_OFFSET)

    want = np.ones(n)
    for i in range(n):
        origin = points[i] + normals[i] * SHADOW_OFFSET
        dist = float(np.linalg.norm(light - origin))
        if dist > 2.0 * SHADOW_OFFSET:
            ray = Ray(origin=origin, direction=(light - origin) / dist,
                      t_min=SHADOW_OFFSET, t_max=dist - SHADOW_OFFSET)
            want[i] = 0.0 if solve_oracle_closest(tlas, ray, closed=False) else 1.0
    got = shadow_mask(tlas, points, normals, light)
    np.testing.assert_array_equal(got, want)
    assert got.tolist() == [shadow_visibility(tlas, p, m, light) for p, m in zip(points, normals)]
    # both outcomes occur on the axis-parallel segments and on the rest
    assert 10 < np.sum(want[:80] == 0.0) < 70 and 50 < np.sum(want[100:] == 0.0) < 350, \
        (np.sum(want[:80] == 0.0), np.sum(want[100:] == 0.0))
    assert np.all(want[80:100] == 1.0)

    assert shadow_mask(tlas, np.zeros((0, 3)), np.zeros((0, 3)), light).shape == (0,)
    np.testing.assert_array_equal(shadow_mask(build_tlas([], [], [], []), points, normals, light),
                                  np.ones(n))


# A blocker within an ulp of t_max = dist - SHADOW_OFFSET: the answer
# hangs on the last bit of dist, which the one-row product
# x[:, None, :] @ x[:, :, None] gives as norm() of one vector does, while
# np.linalg.norm(axis=1) rounds these rows the other way.
@pytest.mark.parametrize("point, light, blocker, visible", [
    ([0.353, -0.878, 0.111], [-0.561, 3.641, -1.632],
     [[-0.5609814562503171, 2.9211657220669567, -3.4979685479580684],
      [-2.526293578809423, 3.6547525216449013, -0.5654954162129185],
      [1.4043306663087884, 4.346806710280125, -0.8324299469153452]], 1.0),
    ([-0.613, -0.352, -0.814], [1.128, 2.109, -2.111],
     [[1.1279469476465673, 1.1764248063114255, -3.8802663777120068],
      [-0.5673934659909625, 3.513833532303078, -1.7210208313358175],
      [2.8232873612840974, 1.6365166932007247, -0.7315942230560204]], 0.0),
])
def test_shadow_mask_segment_length_rounding(point, light, blocker, visible):
    blas = build_blas(np.array(blocker), np.array([[0, 1, 2]]))
    tlas = build_tlas([np.eye(4)], [0], [blas], ["w"])
    # alone and as one row of a batch
    points = [point, [0.0, 0.0, 0.0], point]
    got = shadow_mask(tlas, points, [[0.0, 1.0, 0.0]] * 3, light)
    assert got[0] == got[2] == visible


# ---------------------------------------------------------------- pinned query corpus

def corpus_tlases(demo_gltf, bench_gltf):
    """The empty TLAS, three-instance soups whose leaves hold 1 to 4
    triangles (raw and compacted), and the demo and bench scenes."""
    rng = np.random.default_rng(71)
    tlases = [build_tlas([], [], [], [])]
    for tri_count in (1, 2, 3, 4, 150):
        raw = build_blas(*triangle_soup(rng, tri_count))
        for blas in (raw, compact_blas(raw)):
            tlases.append(build_tlas(
                [translate(*rng.uniform(-2.0, 2.0, 3))
                 @ rotate_y(rng.uniform(0.0, 6.0)) @ scale(*rng.uniform(0.5, 2.0, 3))
                 for _ in range(3)], [0, 0, 0], [blas], ["n0", "n1", "n2"]))
    for path in (demo_gltf, bench_gltf):
        scene = load_gltf(path)
        names, geometry, _ = mesh_instances(scene)
        tlases.append(build_tlas([scene.world[n] for n in names], geometry,
                                 build_scene_blases(scene), names))
    return tlases


def surface_point(rng, tris):
    a, b = rng.uniform(0.0, 1.0, 2)
    if a + b > 1.0:
        a, b = 1.0 - a, 1.0 - b
    v = tris[int(rng.integers(len(tris)))]
    return v[0] + a * (v[1] - v[0]) + b * (v[2] - v[0])


def corpus_rays(rng, tlas, count):
    """Shell rays aimed at the triangles or anywhere in the root box: unit
    and raw directions, some with one or two zero components, some
    axis-aligned; t_max infinite or finite."""
    tris, _, _ = all_world_triangles(tlas)
    lo, hi = tlas.node_lo[0], tlas.node_hi[0]
    center, radius = (lo + hi) * 0.5, float(np.linalg.norm(hi - lo)) * 0.5 + 1.0
    rays = []
    for i in range(count):
        target = surface_point(rng, tris) if len(tris) and i % 3 else rng.uniform(lo, hi)
        o = rng.normal(size=3)
        o = center + o / np.linalg.norm(o) * radius * 1.5
        d = target - o
        kind = i % 5
        if kind == 1:  # unit direction
            d = d / np.linalg.norm(d)
        elif kind == 2:  # one or two zero components
            zero = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
            d[zero] = 0.0
            o[zero] = target[zero]
        elif kind == 3:  # axis-aligned
            k = int(rng.integers(3))
            d = np.zeros(3)
            d[k] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            o = target - d * rng.uniform(1.0, 4.0) * radius / abs(d[k])
        t_max = math.inf if i % 2 else float(rng.uniform(0.3, 1.2) * np.linalg.norm(target - o)
                                             / max(np.linalg.norm(d), 1e-12))
        rays.append(Ray(origin=o, direction=d, t_max=t_max))
    return rays


def corpus_shadow_queries(rng, tlas, count):
    """(point, normal, light): points on the triangles, lights anywhere,
    straight along an axis, or within 2 * SHADOW_OFFSET of the point."""
    tris, _, _ = all_world_triangles(tlas)
    lo, hi = tlas.node_lo[0], tlas.node_hi[0]
    out = []
    for i in range(count):
        point = surface_point(rng, tris) if len(tris) else rng.uniform(-1.0, 1.0, 3)
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        kind = i % 4
        if kind == 0:
            light = point + normal * SHADOW_OFFSET + rng.uniform(-1.0, 1.0, 3) * SHADOW_OFFSET
        elif kind == 1:
            light = point.copy()
            light[int(rng.integers(3))] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0)
        else:
            light = rng.uniform(lo - 2.0, hi + 2.0)
        out.append((point, normal, light))
    return out


def pack_corpus_answers(tlases):
    rng = np.random.default_rng(72)
    h = hashlib.sha256()
    for tlas in tlases:
        for ray in corpus_rays(rng, tlas, 300):
            hit = ray_closest_hit(tlas, ray)
            h.update(b"-" if hit is None else struct.pack(
                "<dqqdd", hit.t, hit.instance_id, hit.triangle_index, hit.u, hit.v))
            h.update(b"1" if ray_any_hit(tlas, ray) else b"0")
        for point, normal, light in corpus_shadow_queries(rng, tlas, 120):
            h.update(struct.pack("<d", shadow_visibility(tlas, point, normal, light)))
    return h.hexdigest()


# recorded from the scalar stack walk: the batched walk must give every
# query the same bits (t, u and v included)
PINNED_QUERY_SHA256 = "6640194e59727a8319c63d95f8274e4193865898ff9c682ca4976d71bb38ad92"


def test_query_corpus_matches_pinned_sha256(demo_gltf, bench_gltf):
    assert pack_corpus_answers(corpus_tlases(demo_gltf, bench_gltf)) == PINNED_QUERY_SHA256


def test_batched_walk_matches_batches_of_one(demo_gltf, bench_gltf):
    """All corpus rays of a TLAS in one walk give each ray the bits it gets
    alone (the object-space transform and leaf products round per row)."""
    rng = np.random.default_rng(73)
    for tlas in corpus_tlases(demo_gltf, bench_gltf):
        rays = corpus_rays(rng, tlas, 300)
        batch = [np.array([getattr(r, k) for r in rays], dtype=np.float64)
                 for k in ("origin", "direction", "t_min", "t_max")]
        ray, t, inst, tri, u, v = accel._hits(tlas, *batch, closed=True)
        order = np.lexsort((tri, inst, t, ray))
        first = order[np.r_[True, ray[order][1:] != ray[order][:-1]]] if len(ray) else order
        closest = {int(ray[i]): (t[i], inst[i], tri[i], u[i], v[i]) for i in first}
        blocked = set(accel._hits(tlas, *batch, closed=False)[0].tolist())
        for i, r in enumerate(rays):
            hit = ray_closest_hit(tlas, r)
            assert closest.get(i) == (None if hit is None else
                                      (hit.t, hit.instance_id, hit.triangle_index, hit.u, hit.v))
            assert (i in blocked) == ray_any_hit(tlas, r)


# ---------------------------------------------------------------- refit

def stub_tick(names, tick):
    """The (K, 4, 4) poses physics_stub_step gives the roster at a tick."""
    return np.array([m for _, m in physics_stub_step(tick, names)])


def assert_same_instances(got, want):
    """Same instances, transforms, inverses and world boxes, byte for byte."""
    for name in ("instance_ids", "blas_index", "transforms", "inv_transforms",
                 "world_lo", "world_hi"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name


def test_refit_to_unchanged_poses_gives_the_build_bytes(bench_gltf, demo_gltf):
    """bench.gltf at d=0..5, the query corpus (the empty TLAS included), a
    TLAS of only empty geometry and one with an empty instance left out:
    a refit to the build's own transforms, with or without inverses and
    refit again, serializes as the build does."""
    cases = []
    bench = load_gltf(bench_gltf)
    for d in range(6):
        scene = duplicate_scene_geometry(bench, d)
        names, geometry, _ = mesh_instances(scene)
        cases.append(([scene.world[n] for n in names], geometry, build_scene_blases(scene), names))
    cases += [(t.transforms, t.blas_index, t.blases, t.node_names)
              for t in corpus_tlases(demo_gltf, bench_gltf)]
    empty = build_blas(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    solid = build_blas(*triangle_soup(np.random.default_rng(74), 40))
    moves = [translate(1.0, 0.0, 0.0), rotate_y(0.4), translate(0.0, -2.0, 1.0)]
    cases += [(moves, [0, 0, 0], [empty], ["a", "b", "c"]),
              (moves, [1, 0, 1], [empty, solid], ["a", "b", "c"])]
    for transforms, blas_index, blases, names in cases:
        transforms = np.array(transforms, dtype=np.float64).reshape(-1, 4, 4)
        built = build_tlas(transforms.copy(), blas_index, blases, names, 3)
        want = serialize_tlas(built)
        refit = refit_tlas(built, transforms.copy(), 3)
        assert serialize_tlas(refit) == want
        assert serialize_tlas(refit_tlas(refit, transforms.copy(), 3,
                                         np.linalg.inv(transforms))) == want


def test_world_boxes_match_min_and_max_over_the_corners():
    """`_world_boxes` gives `world.min(axis=1)` and `world.max(axis=1)` of
    the transformed root corners byte for byte, on boxes with zero and
    signed-zero faces under rotations by pi, mirrored scales and -0.0
    translations, whose extremes are zeros and roundoff about them."""
    rng = np.random.default_rng(77)
    a, b = rng.choice([-1.5, -0.0, 0.0, 2.0], (2, 600, 3))
    corners = np.where(accel._CORNER_IS_HI, np.maximum(a, b)[:, None], np.minimum(a, b)[:, None])
    moves = [np.eye(4), rotate_y(math.pi), rotate_z(math.pi), scale(-1.0, 1.0, 1.0),
             scale(1.0, -2.0, -1.0), translate(-0.0, -0.0, -0.0),
             translate(-0.0, 0.0, -0.0) @ rotate_y(math.pi) @ scale(1.0, 1.0, -1.0)]
    transforms = np.array(moves)[rng.integers(0, len(moves), len(corners))]
    world = corners @ transforms[:, :3, :3].transpose(0, 2, 1) + transforms[:, None, :3, 3]
    lo, hi = accel._world_boxes(corners, transforms)
    assert lo.tobytes() == world.min(axis=1).tobytes()
    assert hi.tobytes() == world.max(axis=1).tobytes()
    assert (lo == 0.0).sum() > 100 and (hi == 0.0).sum() > 100
    assert (np.abs(lo) < 1e-15).sum() > (lo == 0.0).sum()  # roundoff of pi's sine


def test_refit_boxes_are_exact_subtree_bounds_under_motion(monkeypatch):
    """1,024 demo bodies: stub ticks refit from frame 0, and a seeded
    shuffle of the bodies' poses.  The instances match a new build's and
    every node box is the exact bound of its subtree.  The stub ticks stay
    within REFIT_AREA_LIMIT; the shuffle passes it, so refit_tlas gives
    None unless the limit is lifted."""
    scene = make_demo_scene(1024)
    names, geometry, _ = mesh_instances(scene)
    blases = build_scene_blases(scene)
    built = build_tlas(stub_tick(names, 0), geometry, blases, names)
    tlas = built
    for tick in range(1, 41):
        tlas = refit_tlas(tlas, stub_tick(names, tick), tick)
        assert tlas is not None
        if tick % 8 == 0:
            assert_same_instances(tlas, build_tlas(stub_tick(names, tick), geometry, blases, names))
            lo, hi = bvh_oracle.subtree_bounds(tlas)
            assert np.array_equal(tlas.node_lo, lo) and np.array_equal(tlas.node_hi, hi)
    shuffled = stub_tick(names, 5)[np.random.default_rng(75).permutation(len(names))]
    assert refit_tlas(built, shuffled.copy(), 1) is None
    monkeypatch.setattr(accel, "REFIT_AREA_LIMIT", math.inf)
    tlas = refit_tlas(built, shuffled.copy(), 1)
    assert_same_instances(tlas, build_tlas(shuffled.copy(), geometry, blases, names))
    lo, hi = bvh_oracle.subtree_bounds(tlas)
    assert np.array_equal(tlas.node_lo, lo) and np.array_equal(tlas.node_hi, hi)


def test_refit_queries_match_a_new_build(monkeypatch):
    """ray_closest_hit and shadow_mask over seeded rays and points give a
    refit tree a new build's answers: after stub ticks, and after a shuffle
    of the bodies' poses with the area limit lifted."""
    monkeypatch.setattr(accel, "REFIT_AREA_LIMIT", math.inf)
    scene = make_demo_scene(48)
    names, geometry, _ = mesh_instances(scene)
    blases = build_scene_blases(scene)
    built = build_tlas(stub_tick(names, 0), geometry, blases, names)
    rng = np.random.default_rng(76)
    moved = built
    for tick in range(1, 13):
        moved = refit_tlas(moved, stub_tick(names, tick), tick)
    shuffled = stub_tick(names, 5)[rng.permutation(len(names))]
    for refit, poses in ((moved, stub_tick(names, 12)), (refit_tlas(built, shuffled, 1), shuffled)):
        fresh = build_tlas(poses.copy(), geometry, blases, names)
        for ray in corpus_rays(rng, fresh, 150):
            assert ray_closest_hit(refit, ray) == ray_closest_hit(fresh, ray)
        points = np.column_stack([rng.uniform(-1.0, 48.0, 4000), rng.uniform(-1.5, 2.5, 4000),
                                  rng.uniform(-1.0, 1.0, 4000)])
        normals = rng.normal(size=(4000, 3))
        for light in (scene.lights[0].position, (24.0, 3.0, 5.0)):
            mask = shadow_mask(refit, points, normals, light)
            assert np.array_equal(mask, shadow_mask(fresh, points, normals, light))
            assert 0.0 < mask.mean() < 1.0
