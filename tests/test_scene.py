"""Scene container, transform propagation, duplication, and procedural sphere tests."""

import hashlib
import threading

import numpy as np
import pytest

from softrender import frameloop
from softrender import scene as scene_module
from softrender.errors import SceneError, ValidationError
from softrender.frameloop import RenderConfig, run_frame_loop
from softrender.interchange import TransformSnapshot
from softrender.linalg import rotate_x, rotate_y, rotate_z, translate
from softrender.procedural import (
    cube_geometry,
    make_bench_scene,
    make_shadow_scene,
    make_triangle_scene,
    sphere_geometry,
)
from softrender.scene import (
    Camera,
    MaterialPbr,
    MeshGeometry,
    Scene,
    SceneNode,
    WorldTable,
    compute_world_transforms,
    duplicate_scene_geometry,
    refresh_world_transforms,
    scene_world_aabb,
)


def chain_scene():
    scene = Scene()
    scene.nodes = [
        SceneNode(name="root", parent=None, local=translate(1, 0, 0)),
        SceneNode(name="mid", parent="root", local=translate(0, 2, 0)),
        SceneNode(name="leaf", parent="mid", local=translate(0, 0, 3)),
    ]
    return scene


# ------------------------------------------------------- world transforms

def test_single_identity_root():
    scene = Scene(nodes=[SceneNode(name="only", parent=None, local=np.eye(4))])
    world = compute_world_transforms(scene)
    np.testing.assert_array_equal(world["only"], np.eye(4))


def test_parent_child_translation_compose():
    scene = Scene(nodes=[
        SceneNode(name="p", parent=None, local=translate(1, 0, 0)),
        SceneNode(name="c", parent="p", local=translate(0, 2, 0)),
    ])
    world = compute_world_transforms(scene)
    np.testing.assert_allclose(world["c"][:3, 3], [1, 2, 0])


def test_three_level_rotation_chain_matches_matrix_product():
    r1, r2, r3 = rotate_x(0.3), rotate_y(-0.7), rotate_z(1.9)
    scene = Scene(nodes=[
        SceneNode(name="a", parent=None, local=r1),
        SceneNode(name="b", parent="a", local=r2),
        SceneNode(name="c", parent="b", local=r3),
    ])
    world = compute_world_transforms(scene)
    np.testing.assert_allclose(world["c"], r1 @ r2 @ r3, atol=1e-14)


def test_world_invariant_under_sibling_reordering():
    base = chain_scene()
    shuffled = Scene(nodes=[base.nodes[2], base.nodes[0], base.nodes[1]])
    w1 = compute_world_transforms(base)
    w2 = compute_world_transforms(shuffled)
    for name in ("root", "mid", "leaf"):
        np.testing.assert_array_equal(w1[name], w2[name])


def test_cycle_detection():
    scene = Scene(nodes=[
        SceneNode(name="a", parent="b", local=np.eye(4)),
        SceneNode(name="b", parent="a", local=np.eye(4)),
    ])
    with pytest.raises(SceneError):
        compute_world_transforms(scene)


def test_deep_chain_listed_child_first():
    """1,200 nodes, each the parent of the next, listed leaf first: resolving
    the leaf walks the whole chain without recursing."""
    nodes = [SceneNode(name=f"n{i}", parent=f"n{i - 1}" if i else None, local=translate(1, 0, 0))
             for i in range(1200)]
    world = compute_world_transforms(Scene(nodes=nodes[::-1]))
    np.testing.assert_array_equal(world["n1199"][:3, 3], [1200.0, 0.0, 0.0])
    nodes[0].parent = "n1199"
    with pytest.raises(ValidationError, match="cycle"):
        compute_world_transforms(Scene(nodes=nodes[::-1]))


def test_refresh_world_transforms_populates_scene():
    scene = chain_scene()
    assert scene.world == {}
    refresh_world_transforms(scene)
    assert set(scene.world) == {"root", "mid", "leaf"}
    np.testing.assert_allclose(scene.world["leaf"][:3, 3], [1, 2, 3])


# ------------------------------------------------------- validation

def _valid_mesh_scene():
    geo = cube_geometry(1.0)
    scene = Scene(geometries=[geo],
                  materials=[MaterialPbr(base_color=[1, 1, 1], metallic=0.0,
                                         roughness=1.0, material_id=0)])
    scene.nodes = [SceneNode(name="box", parent=None, local=np.eye(4),
                             mesh_instance=(0, 0))]
    return scene


def _node(name, mesh_instance=None, parent=None):
    return SceneNode(name=name, parent=parent, local=np.eye(4), mesh_instance=mesh_instance)


# each case puts one fault into make_shadow_scene(); True where the fault is in
# the containers or the hierarchy, so the test clears scene.world and the loop
# must catch it while computing the world transforms itself (False: the fault
# is the stale scene.world)
_BAD_SCENES = {
    "duplicate_name": (lambda s: s.nodes.append(_node("blocker")), True),
    "missing_parent": (lambda s: s.nodes.append(_node("orphan", parent="ghost")), True),
    "geometry_99": (lambda s: s.nodes.append(_node("extra", (99, 0))), True),
    "material_99": (lambda s: s.nodes.append(_node("extra", (0, 99))), True),
    "geometry_-1": (lambda s: s.nodes.append(_node("extra", (-1, 0))), True),
    "material_-1": (lambda s: s.nodes.append(_node("extra", (0, -1))), True),
    "camera_on_missing_node": (lambda s: s.cameras.insert(0, Camera(
        node="ghost", vertical_fov=1.0, near=0.1, far=10.0)), True),
    "mesh_node_without_world": (lambda s: s.nodes.append(_node("extra", (1, 1))), False),
    "camera_node_without_world": (lambda s: s.world.pop("cam"), False),
}


@pytest.mark.parametrize("case", list(_BAD_SCENES))
def test_validate_rejects_bad_scene(case, monkeypatch):
    change, recompute = _BAD_SCENES[case]
    scene = make_shadow_scene()
    change(scene)
    if recompute:
        scene.world = {}  # the loop computes it, as for a scene not yet refreshed
    monkeypatch.setattr(frameloop, "build_scene_blases",
                        lambda scene: pytest.fail("the loop started work on a bad scene"))
    cfg = RenderConfig(width=16, height=12, msaa=1, fxaa=False, overlay=False)
    with pytest.raises(ValidationError):
        run_frame_loop(scene, cfg, 1)
    assert not [t for t in threading.enumerate() if t.name.startswith("softrender-display")]


# ------------------------------------------------------- pose application

def test_apply_identity_snapshot_sets_identity_world():
    scene = chain_scene()
    refresh_world_transforms(scene)
    unmatched = WorldTable(scene).apply(TransformSnapshot(2, [("leaf", np.eye(4))]))
    assert unmatched == 0
    np.testing.assert_array_equal(scene.world["leaf"], np.eye(4))
    # hierarchy deliberately bypassed: parents untouched
    np.testing.assert_allclose(scene.world["mid"][:3, 3], [1, 2, 0])


def test_apply_unknown_name_counts_unmatched_and_changes_nothing():
    scene = chain_scene()
    refresh_world_transforms(scene)
    before = {k: v.copy() for k, v in scene.world.items()}
    unmatched = WorldTable(scene).apply(TransformSnapshot(2, [("phantom", translate(9, 9, 9))]))
    assert unmatched == 1
    for name, mat in before.items():
        np.testing.assert_array_equal(scene.world[name], mat)


def test_apply_copies_matrix_not_reference():
    scene = chain_scene()
    refresh_world_transforms(scene)
    m = translate(4, 5, 6)
    WorldTable(scene).apply(TransformSnapshot(2, [("root", m)]))
    m[0, 3] = 99.0
    assert scene.world["root"][0, 3] == 4.0


def test_apply_name_given_twice_ends_at_its_last_matrix():
    scene = chain_scene()
    refresh_world_transforms(scene)
    unmatched = WorldTable(scene).apply(TransformSnapshot(2, [("root", translate(1, 2, 3)),
                                                              ("leaf", np.eye(4)),
                                                              ("root", translate(4, 5, 6))]))
    assert unmatched == 0
    np.testing.assert_array_equal(scene.world["root"], translate(4, 5, 6))
    np.testing.assert_array_equal(scene.world["leaf"], np.eye(4))


@pytest.mark.parametrize("bad", [np.full((4, 4), np.inf), np.zeros((4, 4)), np.eye(3)],
                         ids=["non-finite", "singular", "wrong-size"])
def test_apply_rejects_bad_matrix_before_writing_any(bad):
    scene = chain_scene()
    refresh_world_transforms(scene)
    before = {k: v.copy() for k, v in scene.world.items()}
    with pytest.raises(ValidationError):
        WorldTable(scene).apply(TransformSnapshot(2, [("root", translate(7, 7, 7)),
                                                      ("leaf", bad)]))
    for name, mat in before.items():
        np.testing.assert_array_equal(scene.world[name], mat)


def test_unchanged_roster_snapshot_is_not_checked_again(monkeypatch):
    """Same names list and the same matrix bytes: no check, no write, the same
    unmatched count.  -0.0 for 0.0 and a NaN are byte changes."""
    scene = chain_scene()
    refresh_world_transforms(scene)
    table = WorldTable(scene)
    checked = []
    real_check = scene_module.check_invertible
    monkeypatch.setattr(scene_module, "check_invertible",
                        lambda *args: checked.append(1) or real_check(*args))
    roster = ["leaf", "phantom"]
    mats = np.stack([translate(0.0, 1.0, 0.0), np.eye(4)])
    signed_zero = mats.copy()
    signed_zero[0, 0, 1] = -0.0
    nan = mats.copy()
    nan[0, 0, 1] = np.nan

    def apply(m, names=roster):
        return table.apply(TransformSnapshot(generation=2, names=names, matrices=m))

    assert [apply(mats), apply(mats.copy())] == [1, 1]
    assert len(checked) == 1
    assert apply(mats.copy(), names=list(roster)) == 1  # another list: checked
    assert apply(signed_zero) == 1
    assert len(checked) == 3
    for _ in range(2):
        with pytest.raises(ValidationError):
            apply(nan)
    assert len(checked) == 5
    assert apply(signed_zero) == 1  # still the last one applied
    assert len(checked) == 5
    np.testing.assert_array_equal(scene.world["leaf"], signed_zero[0])


# ------------------------------------------------------- duplication

def test_duplicate_zero_doublings_is_plain_copy():
    scene = make_triangle_scene()
    refresh_world_transforms(scene)
    out = duplicate_scene_geometry(scene, 0)
    assert [n.name for n in out.nodes] == [n.name for n in scene.nodes]
    assert out.total_triangles() == scene.total_triangles()


def test_duplicate_multiplies_instances_not_geometries():
    scene = make_bench_scene()
    refresh_world_transforms(scene)
    base_nodes = len(scene.mesh_nodes())
    base_tris = scene.total_triangles()
    for d in (1, 3):
        out = duplicate_scene_geometry(scene, d)
        assert len(out.mesh_nodes()) == base_nodes * 2 ** d
        assert out.total_triangles() == base_tris * 2 ** d
        # shared geometry container, not copied meshes
        assert out.geometries is scene.geometries
        names = [n.name for n in out.nodes]
        assert len(names) == len(set(names))


def test_duplicate_is_deterministic():
    scene = make_bench_scene()
    refresh_world_transforms(scene)
    a = duplicate_scene_geometry(scene, 2)
    b = duplicate_scene_geometry(scene, 2)
    assert [n.name for n in a.nodes] == [n.name for n in b.nodes]
    for na, nb in zip(a.nodes, b.nodes):
        np.testing.assert_array_equal(na.local, nb.local)
    for name in a.world:
        np.testing.assert_array_equal(a.world[name], b.world[name])


def test_duplicate_does_not_mutate_source():
    scene = make_triangle_scene()
    refresh_world_transforms(scene)
    node_count = len(scene.nodes)
    world_before = {k: v.copy() for k, v in scene.world.items()}
    duplicate_scene_geometry(scene, 3)
    assert len(scene.nodes) == node_count
    for k, v in world_before.items():
        np.testing.assert_array_equal(scene.world[k], v)


def test_duplicate_clones_spread_out():
    scene = make_triangle_scene()
    refresh_world_transforms(scene)
    out = duplicate_scene_geometry(scene, 2)
    centers = []
    for node in out.mesh_nodes():
        w = out.world[node.name]
        centers.append(w[:3, 3].copy())
    centers = np.asarray(centers)
    # all 4 instances at distinct positions
    assert len(np.unique(np.round(centers, 6), axis=0)) == len(centers)


def test_duplicate_skips_instances_of_geometry_without_vertices():
    """Such a node is drawn and traced as absent, so it adds no bounds: the
    clones sit where they sit without it."""
    bare = make_shadow_scene()
    scene = make_shadow_scene()
    scene.geometries.append(MeshGeometry(positions=np.zeros((0, 3)), normals=np.zeros((0, 3)),
                                         uvs=np.zeros((0, 2)), triangles=np.zeros((0, 3))))
    scene.nodes.append(SceneNode(name="hollow", parent=None, local=translate(9.0, 9.0, 9.0),
                                 mesh_instance=(len(scene.geometries) - 1, 0)))
    for s in (bare, scene):
        refresh_world_transforms(s)
    for got, want in zip(scene_world_aabb(scene), scene_world_aabb(bare)):
        np.testing.assert_array_equal(got, want)
    out, want = duplicate_scene_geometry(scene, 1), duplicate_scene_geometry(bare, 1)
    assert "hollow~1" in out.world
    for name, mat in want.world.items():
        np.testing.assert_array_equal(out.world[name], mat)


def test_duplicate_clone_name_collision_is_validation_error():
    scene = make_triangle_scene()
    scene.nodes.append(SceneNode(name="a", parent=None, local=np.eye(4), mesh_instance=(0, 0)))
    scene.nodes.append(SceneNode(name="a~1", parent=None, local=np.eye(4), mesh_instance=(0, 0)))
    refresh_world_transforms(scene)
    with pytest.raises(ValidationError, match="clone name collision 'a~1'"):
        duplicate_scene_geometry(scene, 1)


# ------------------------------------------------------- bounds

def test_scene_world_aabb_translated_cube():
    scene = _valid_mesh_scene()
    scene.nodes[0].local = translate(10, 0, 0)
    refresh_world_transforms(scene)
    lo, hi = scene_world_aabb(scene)
    np.testing.assert_allclose(lo, [9.5, -0.5, -0.5])
    np.testing.assert_allclose(hi, [10.5, 0.5, 0.5])


# ------------------------------------------------------- procedural sphere

# sha256 of positions, normals, uvs and triangles, recorded from the
# per-vertex, per-quad loop form; one and two latitude bands are all pole rows
PINNED_SPHERE_SHA256 = {
    (0.5, 1, 3): "e669f939563ec88da114f0fb39aaadc791b608250959cdb9b6c808ee13c72da4",
    (0.5, 2, 3): "c44f88287d394165fb262b983237d88bf8d9e5dc7fe6efd0ad1b2c7371ecf944",
    (0.3, 64, 128): "5f88827d034b6b1d1d4400f37f6b13bdc832f7da7ca6620d4edfb9153b53434b",
}


@pytest.mark.parametrize("args", list(PINNED_SPHERE_SHA256))
def test_sphere_geometry_matches_pinned_sha256(args):
    geo = sphere_geometry(*args)
    digest = hashlib.sha256()
    for a in (geo.positions, geo.normals, geo.uvs, geo.triangles):
        digest.update(a.tobytes())
    assert digest.hexdigest() == PINNED_SPHERE_SHA256[args]
