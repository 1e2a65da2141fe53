"""Acceleration-structure tests.

The headline check pits the two-level BVH traversal against two
independent oracles: the module's own world-space brute-force scan
(different arithmetic path), and a 3x3-linear-solve ray/triangle
intersector implemented in this file.
"""

import hashlib
import math

import numpy as np
import pytest

from softrender.accel import (
    LEAF_MAX_INSTANCES,
    LEAF_MAX_TRIS,
    Aabb,
    Ray,
    TlasInstance,
    all_world_triangles,
    blas_dump_text,
    blas_signature,
    brute_force_closest_hit,
    build_blas,
    build_tlas,
    compact_blas,
    ray_any_hit,
    ray_closest_hit,
    serialize_blas,
    serialize_tlas,
    shadow_visibility,
    tlas_dump_text,
)
from softrender.linalg import rotate_y, rotate_z, translate, scale
from softrender.procedural import cube_geometry, plane_geometry, sphere_geometry


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
    instances = [
        TlasInstance(blas=blas, transform=np.eye(4), node_name="a", instance_id=0),
        TlasInstance(blas=blas, transform=translate(1.5, -0.5, 2.0) @ rotate_y(0.7),
                     node_name="b", instance_id=1),
    ]
    return build_tlas(instances, frame_index=0)


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


# ---------------------------------------------------------------- Aabb

def test_aabb_union_and_area():
    a = Aabb([0, 0, 0], [1, 1, 1])
    b = Aabb([2, -1, 0], [3, 0, 1])
    u = a.union(b)
    np.testing.assert_array_equal(u.lo, [0, -1, 0])
    np.testing.assert_array_equal(u.hi, [3, 1, 1])
    assert a.surface_area() == pytest.approx(6.0)
    assert Aabb([0, 0, 0], [1, 2, 3]).surface_area() == pytest.approx(22.0)


def test_aabb_corners_cover_extremes():
    box = Aabb([-1, 2, 3], [4, 5, 6])
    c = box.corners()
    assert c.shape == (8, 3)
    np.testing.assert_array_equal(c.min(axis=0), box.lo)
    np.testing.assert_array_equal(c.max(axis=0), box.hi)


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
        box = Aabb(blas.node_lo[ni], blas.node_hi[ni])
        if blas.node_count[ni] == 0:
            for child in (int(blas.node_left[ni]), int(blas.node_right[ni])):
                assert box.contains_box(Aabb(blas.node_lo[child], blas.node_hi[child]))
        else:
            s, c = int(blas.node_start[ni]), int(blas.node_count[ni])
            for t in blas.tri_order[s:s + c]:
                assert box.contains_box(Aabb(tri_lo[t], tri_hi[t]))


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


def test_blas_rebuild_is_byte_identical():
    rng = np.random.default_rng(13)
    pos, tri = triangle_soup(rng, 256)
    a = build_blas(pos, tri)
    b = build_blas(pos.copy(), tri.copy())
    assert serialize_blas(a) == serialize_blas(b)
    assert blas_signature(a) == blas_signature(b)


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
        return build_tlas([TlasInstance(blas=blas, transform=np.eye(4),
                                        node_name="n", instance_id=0)])
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
    tlas = build_tlas([TlasInstance(blas=blas, transform=np.eye(4),
                                    node_name="n", instance_id=0)])
    np.testing.assert_allclose(tlas.root_aabb.lo, blas.root_aabb.lo)
    np.testing.assert_allclose(tlas.root_aabb.hi, blas.root_aabb.hi)


def test_tlas_world_bounds_cover_transformed_vertices():
    rng = np.random.default_rng(16)
    pos, tri = triangle_soup(rng, 128)
    blas = build_blas(pos, tri)
    transforms = [translate(3, 1, -2) @ rotate_y(0.9) @ rotate_z(0.4),
                  translate(-1, 4, 0.5) @ scale(0.5, 2.0, 1.5) @ rotate_z(-1.2)]
    tlas = build_tlas([TlasInstance(blas=blas, transform=m, node_name=f"n{k}", instance_id=k)
                       for k, m in enumerate(transforms)])
    for k, m in enumerate(transforms):
        world_pts = pos @ m[:3, :3].T + m[:3, 3]
        assert np.all(world_pts >= tlas.world_lo[k] - 1e-9)
        assert np.all(world_pts <= tlas.world_hi[k] + 1e-9)
        np.testing.assert_allclose(tlas.inv_transforms[k] @ m, np.eye(4), atol=1e-12)


def test_tlas_leaf_instance_budget_and_rebuild_determinism():
    rng = np.random.default_rng(17)
    pos, tri = triangle_soup(rng, 60)
    blas = build_blas(pos, tri)
    instances = [
        TlasInstance(blas=blas, transform=translate(4.0 * i, 0.5 * (i % 3), -2.0 * (i % 5)),
                     node_name=f"n{i}", instance_id=i)
        for i in range(12)
    ]
    t1 = build_tlas(instances, frame_index=3)
    t2 = build_tlas(instances, frame_index=3)
    assert serialize_tlas(t1) == serialize_tlas(t2)
    leaves = np.flatnonzero(t1.node_count > 0)
    assert np.all(t1.node_count[leaves] <= LEAF_MAX_INSTANCES)
    collected = []
    for ni in leaves:
        s, c = int(t1.node_start[ni]), int(t1.node_count[ni])
        collected.extend(t1.inst_order[s:s + c].tolist())
    assert sorted(collected) == list(range(12))


def unit_cubes(centers):
    blas = build_blas(cube_geometry(1.0).positions, cube_geometry(1.0).triangles)
    return [TlasInstance(blas=blas, transform=translate(*c), node_name=f"c{k}", instance_id=k)
            for k, c in enumerate(centers)]


@pytest.mark.parametrize("centers, left", [
    # splitting on x or on y costs the same: the lower axis wins
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)], [0, 2]),
    # after bin 0 and after bin 8 cost the same: the lower bin wins
    ([(0, 0, 0), (2, 0, 0), (4, 0, 0)], [0]),
], ids=["axis-tie", "bin-tie"])
def test_sah_ties_resolve_to_lower_axis_then_lower_bin(centers, left):
    tlas = build_tlas(unit_cubes(centers))
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
PINNED_BUILD_SHA256 = {
    "blas": "501f28e43e00dab596f54d31235f211eade91863baf1b2cbdc19bf75ea10fac3",
    "compact_blas": "a4700ac6ed88d8b870d41829003d7b780735d85f75ea132cb8d99b973f381d0e",
    "tlas": "8ff45a5b550b9700bf79607d553b56e8281e4b9621547f5e1e963fe28d5a6a31",
}


def test_serialized_builds_match_pinned_sha256():
    rng = np.random.default_rng(20)
    blas = build_blas(*triangle_soup(rng, 300))
    instances = [TlasInstance(blas=blas, node_name=f"n{i}", instance_id=i,
                              transform=translate(*rng.uniform(-6.0, 6.0, 3)) @ rotate_y(0.3 * i))
                 for i in range(24)]

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert {"blas": sha(serialize_blas(blas)),
            "compact_blas": sha(serialize_blas(compact_blas(blas))),
            "tlas": sha(serialize_tlas(build_tlas(instances, frame_index=5)))} \
        == PINNED_BUILD_SHA256


# ---------------------------------------------------------------- traversal

def test_ray_parallel_to_triangle_plane_misses():
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    blas = build_blas(pos, np.array([[0, 1, 2]]))
    tlas = build_tlas([TlasInstance(blas=blas, transform=np.eye(4),
                                    node_name="n", instance_id=0)])
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
        elif np.all(end >= tlas.root_aabb.lo) and np.all(end <= tlas.root_aabb.hi):
            ends_inside += 1
    # both kinds of segment occur: stopping short of the first triangle,
    # and stopping inside the soup's bounds
    assert hits > 10 and ends_before > 10 and ends_inside > 10, \
        (hits, ends_before, ends_inside)


def test_hit_t_is_in_world_units_under_scaled_instance():
    pos = np.array([[-1.0, -1, 5], [1, -1, 5], [0, 1, 5]])
    blas = build_blas(pos, np.array([[0, 1, 2]]))
    tlas = build_tlas([TlasInstance(blas=blas, transform=scale(2, 2, 2),
                                    node_name="n", instance_id=0)])
    hit = ray_closest_hit(tlas, Ray(origin=[0, 0, 0], direction=[0, 0, 1]))
    assert hit is not None
    assert hit.t == pytest.approx(10.0, rel=1e-12)


def test_interval_semantics_closed_vs_open_at_exact_boundary():
    pos = np.array([[-2.0, -2, 5], [2, -2, 5], [0, 3, 5]])
    blas = build_blas(pos, np.array([[0, 1, 2]]))
    tlas = build_tlas([TlasInstance(blas=blas, transform=np.eye(4),
                                    node_name="n", instance_id=0)])
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
    tlas = build_tlas([
        TlasInstance(blas=blas, transform=np.eye(4), node_name="a", instance_id=0),
        TlasInstance(blas=blas, transform=np.eye(4), node_name="b", instance_id=1),
    ])
    hit = ray_closest_hit(tlas, Ray(origin=[0, 0, 0], direction=[0, 0, 1]))
    assert hit is not None
    assert hit.instance_id == 0
    assert hit.triangle_index == 0


# ---------------------------------------------------------------- shadows

def _tlas_of(geometry, transform=None, extra=None):
    blas = build_blas(geometry.positions, geometry.triangles)
    instances = [TlasInstance(blas=blas, transform=np.eye(4) if transform is None else transform,
                              node_name="g0", instance_id=0)]
    if extra is not None:
        geo2, m2 = extra
        blas2 = build_blas(geo2.positions, geo2.triangles, geometry_id=1)
        instances.append(TlasInstance(blas=blas2, transform=m2,
                                      node_name="g1", instance_id=1))
    return build_tlas(instances)


def test_shadow_point_under_quad_occluded_and_reverse():
    quad = plane_geometry(size=6.0)  # y = 0 plane
    tlas = _tlas_of(quad, transform=translate(0, 2.0, 0))
    point = np.array([0.3, 0.0, -0.2])
    normal = np.array([0.0, 1.0, 0.0])
    assert shadow_visibility(tlas, point, normal, [0.0, 5.0, 0.0]) == 0.0
    # light below the point: segment no longer crosses the quad
    assert shadow_visibility(tlas, point, normal, [0.0, -5.0, 0.0]) == 1.0


def test_shadow_no_geometry_fully_visible():
    tlas = build_tlas([])
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


# ---------------------------------------------------------------- debug dumps

def test_dump_text_mentions_every_leaf():
    rng = np.random.default_rng(19)
    pos, tri = triangle_soup(rng, 64)
    blas = build_blas(pos, tri)
    text = blas_dump_text(blas)
    leaf_lines = [ln for ln in text.splitlines() if "leaf" in ln]
    assert len(leaf_lines) == int(np.sum(blas.node_count > 0))

    tlas = build_tlas([TlasInstance(blas=blas, transform=np.eye(4),
                                    node_name="solo", instance_id=0)])
    assert "solo" in tlas_dump_text(tlas)
