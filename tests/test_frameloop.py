"""Frame-loop lifecycle tests: deletion queues, slot cycling, pose
application order, timing records, and output determinism."""

import threading
import uuid
import warnings

import numpy as np
import pytest

from bvh_oracle import subtree_bounds

from softrender import frameloop
from softrender import scene as scene_module
from softrender.accel import build_tlas, serialize_tlas
from softrender.errors import ConfigurationError, ValidationError
from softrender.framebuffer import ppm_bytes, read_ppm, resolve_msaa
from softrender.frameloop import (
    SLOT_COUNT,
    TIMING_CSV_HEADER,
    DeletionQueue,
    FrameResources,
    RenderConfig,
    build_scene_blases,
    frame_output_path,
    run_frame_loop,
    timing_csv,
)
from softrender.interchange import (TransformSnapshot, attach_table, create_table,
                                    physics_stub_step, unlink_region)
from softrender.linalg import rotate_x, rotate_y, translate
from softrender.procedural import (make_bench_scene, make_demo_scene, make_shadow_scene,
                                   make_triangle_scene)
from softrender.raster import main_pass
from softrender.scene import MeshGeometry, SceneNode, mesh_instances, refresh_world_transforms


def small_config(**kw):
    kw.setdefault("width", 48)
    kw.setdefault("height", 40)
    kw.setdefault("msaa", 2)
    kw.setdefault("fxaa", False)
    kw.setdefault("shadows", False)
    kw.setdefault("overlay", False)
    return RenderConfig(**kw)


# ------------------------------------------------------------ queues

def test_deletion_queue_flushes_lifo():
    order = []
    q = DeletionQueue()
    for tag in "abc":
        q.push(lambda t=tag: order.append(t))
    assert len(q) == 3
    assert q.flush() == 3
    assert order == ["c", "b", "a"]
    assert len(q) == 0
    assert q.flush() == 0


def test_slot_count_is_two_frames_in_flight():
    assert SLOT_COUNT == 2
    res = FrameResources(small_config())
    assert [res.slot(i) for i in range(5)] == [0, 1, 0, 1, 0]


def test_framebuffer_attachment_reused_across_same_slot():
    res = FrameResources(small_config())
    s0 = res.begin_frame(0)
    fb0 = res.framebuffer(s0)
    s1 = res.begin_frame(1)
    fb1 = res.framebuffer(s1)
    assert fb1 is not fb0
    s2 = res.begin_frame(2)
    assert res.framebuffer(s2) is fb0  # same slot, same attachment
    res.shutdown()
    assert res.attachments == [None, None]
    assert res.finalizers_run >= 2


# ----------------------------------------------- finalizer scheduling

def test_finalizer_from_frame_zero_runs_at_start_of_frame_two():
    scene = make_triangle_scene()
    runs = []

    def hook(i, resources):
        if i == 0:
            slot = resources.slot(i)
            resources.slot_queues[slot].push(
                lambda: runs.append(resources.current_frame))

    run_frame_loop(scene, small_config(), frames=4, on_frame=hook)
    assert runs == [2]


def test_every_finalizer_runs_exactly_once_by_shutdown():
    scene = make_triangle_scene()
    counts = {}

    def hook(i, resources):
        slot = resources.slot(i)
        counts[i] = 0
        resources.slot_queues[slot].push(
            lambda k=i: counts.__setitem__(k, counts[k] + 1))

    _, _, stats = run_frame_loop(scene, small_config(), frames=5, on_frame=hook)
    assert counts == {i: 1 for i in range(5)}
    # the loop's own finalizers (attachments, per-frame structures) are
    # included in the reported total
    assert stats.finalizers_run >= 5


# ------------------------------------------------------------ output

def test_static_scene_frames_are_byte_identical():
    scene = make_shadow_scene()
    cfg = small_config(shadows=True, fxaa=True, msaa=2)
    images, _, stats = run_frame_loop(scene, cfg, frames=3)
    assert stats.frames_rendered == 3
    blobs = [ppm_bytes(im) for im in images]
    assert blobs[0] == blobs[1] == blobs[2]


def test_single_frame_equals_direct_render():
    scene = make_shadow_scene()
    cfg = small_config(shadows=True)
    images, _, _ = run_frame_loop(scene, cfg, frames=1)

    fresh = make_shadow_scene()
    refresh_world_transforms(fresh)
    names, geometry, _ = mesh_instances(fresh)
    tlas = build_tlas([fresh.world[n] for n in names], geometry, build_scene_blases(fresh), names)
    direct = resolve_msaa(main_pass(fresh, tlas, cfg))
    assert np.array_equal(images[0].pixels, direct.pixels)


def test_instance_of_empty_geometry_renders_as_absent():
    """A node whose geometry has no triangles casts no shadow, makes no TLAS
    box and leaves every pixel as it is without that node."""
    bare = make_shadow_scene()
    scene = make_shadow_scene()
    scene.geometries.append(MeshGeometry(positions=np.zeros((0, 3)), normals=np.zeros((0, 3)),
                                         uvs=np.zeros((0, 2)), triangles=np.zeros((0, 3))))
    # first in node order, between the light and the ground
    scene.nodes.insert(0, SceneNode(name="hollow", parent=None, local=translate(1.0, 3.0, 1.0),
                                    mesh_instance=(2, 0)))
    refresh_world_transforms(scene)
    images = {}
    for shadows in (True, False):
        cfg = small_config(shadows=shadows, msaa=4, overlay=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _, _ = run_frame_loop(scene, cfg, frames=1)
        want, _, _ = run_frame_loop(bare, cfg, frames=1)
        assert ppm_bytes(got[0]) == ppm_bytes(want[0])
        images[shadows] = ppm_bytes(got[0])
    assert images[True] != images[False]  # the blocker's shadow is in the picture


def test_worker_count_invariance():
    blobs = []
    for workers in (1, 3, 7):
        scene = make_shadow_scene()
        cfg = small_config(shadows=True, msaa=4, workers=workers)
        images, _, _ = run_frame_loop(scene, cfg, frames=2)
        blobs.append([ppm_bytes(im) for im in images])
    assert blobs[0] == blobs[1] == blobs[2]


def test_output_files_written_with_frame_numbering(tmp_path):
    assert str(frame_output_path("out", 7)) == "out-frame-0007.ppm"
    scene = make_triangle_scene()
    prefix = tmp_path / "seq"
    images, _, _ = run_frame_loop(scene, small_config(), frames=2,
                                  output_prefix=str(prefix))
    for i in (0, 1):
        path = tmp_path / f"seq-frame-{i:04d}.ppm"
        assert path.exists()
        assert path.read_bytes() == ppm_bytes(images[i])
        round_trip = read_ppm(path)
        assert np.array_equal(round_trip.pixels, images[i].pixels)


# ------------------------------------------------------------ timing

def test_timing_records_cover_every_frame_and_stage():
    scene = make_triangle_scene()
    cfg = small_config(width=16, height=16, msaa=1)
    _, timings, _ = run_frame_loop(scene, cfg, frames=20)
    assert [t.frame_index for t in timings] == list(range(20))
    for t in timings:
        assert t.tlas_build_ms >= 0.0
        assert t.main_pass_ms >= 0.0
        assert t.post_process_ms >= 0.0
        assert t.overlay_ms >= 0.0

    csv = timing_csv(timings)
    lines = csv.strip().split("\n")
    assert lines[0] == TIMING_CSV_HEADER
    assert lines[0] == "frame,tlas_build_ms,main_pass_ms,post_process_ms,overlay_ms"
    assert len(lines) == 21
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 5
        int(fields[0])
        [float(f) for f in fields[1:]]
    assert csv.endswith("\n")


# ------------------------------------------------------------- poses

def test_pose_applies_before_on_frame_hook():
    scene = make_triangle_scene()
    seen = []

    def poses():
        i = len(seen)
        return TransformSnapshot(2 * i, [("tri", translate(float(i), 0, 0))])

    def hook(i, resources):
        seen.append(scene.world["tri"][0, 3])

    _, _, stats = run_frame_loop(scene, small_config(width=16, height=16, msaa=1),
                                 frames=3, pose_source=poses, on_frame=hook)
    assert seen == [0.0, 1.0, 2.0]
    assert stats.pose_generations == [0, 2, 4]
    assert stats.unmatched_poses == 0


def test_pose_source_failure_keeps_previous_pose():
    scene = make_triangle_scene()
    calls = {"n": 0}

    def flaky():
        i = calls["n"]
        calls["n"] += 1
        if i == 1:
            raise OSError("simulated torn read")
        return TransformSnapshot(2 * i, [("tri", translate(0.4 * i, 0, 0))])

    images, _, stats = run_frame_loop(scene, small_config(), frames=3,
                                      pose_source=flaky)
    assert stats.pose_warnings == 1
    assert stats.pose_generations == [0, 4]  # failed call records nothing
    # frame 1 froze at frame 0's pose; frame 2 moved on
    assert ppm_bytes(images[1]) == ppm_bytes(images[0])
    assert ppm_bytes(images[2]) != ppm_bytes(images[0])


@pytest.mark.parametrize("bad", [np.full((4, 4), np.nan), np.zeros((4, 4)), np.eye(3)],
                         ids=["nan", "singular", "wrong-size"])
def test_invalid_pose_keeps_previous_pose(bad):
    scene = make_triangle_scene()
    calls = {"n": 0}

    def poses():
        i = calls["n"]
        calls["n"] += 1
        mat = bad if i == 1 else translate(0.4 * i, 0, 0)
        return TransformSnapshot(2 * i, [("tri", mat)])

    images, _, stats = run_frame_loop(scene, small_config(), frames=3,
                                      pose_source=poses)
    assert stats.pose_warnings == 1
    assert stats.pose_generations == [0, 4]  # the rejected snapshot records nothing
    assert ppm_bytes(images[1]) == ppm_bytes(images[0])
    assert ppm_bytes(images[2]) != ppm_bytes(images[0])


def test_unmatched_pose_entries_counted_per_frame():
    scene = make_triangle_scene()

    def poses():
        return TransformSnapshot(0, [("phantom", np.eye(4))])

    _, _, stats = run_frame_loop(scene, small_config(width=16, height=16, msaa=1),
                                 frames=4, pose_source=poses)
    assert stats.unmatched_poses == 4
    assert stats.pose_warnings == 0


def test_every_frame_matches_an_oracle_render_of_scene_world(monkeypatch):
    """A scripted pose stream: region reads, a partial snapshot, an unmatched
    name, a posed camera, a node named twice, a non-finite pose, a raising
    source and a singular pose.  Frame 0's TLAS must equal a TLAS built by
    build_tlas over scene.world; every later one, refit or rebuilt, its
    instances, transforms and world boxes, with every node box the exact
    bound of its subtree.  Every image must equal a fresh main pass of that
    TLAS as the frame sees it."""
    scene = make_bench_scene()
    cfg = small_config(width=56, height=42, msaa=2, shadows=True)
    blases = build_scene_blases(scene)
    mesh, geometry, _ = mesh_instances(scene)
    roster = mesh[::-1] + ["ghost"]  # region order differs from node order
    region = f"test-loop-{uuid.uuid4().hex[:12]}"
    writer = create_table(region, roster)
    reader = attach_table(region)

    def region_pose(tick):
        writer.write_frame([(name, translate(0.1 * tick, 0.05 * k, 0.0) @ rotate_y(0.2 * k + tick))
                            for k, name in enumerate(roster)])
        return reader.read_frame()

    def fail():
        raise OSError("simulated read failure")

    script = [
        lambda: region_pose(0),
        lambda: TransformSnapshot(10, [("cube.a", translate(0.5, 0.2, 0.0)),
                                       ("phantom", np.eye(4))]),
        lambda: TransformSnapshot(12, [("benchcam", translate(0.5, 1.0, 9.0) @ rotate_x(-0.1)),
                                       ("octa.b", translate(1.0, 1.4, -0.4))]),
        lambda: TransformSnapshot(14, [("sphere.a", translate(-3.0, 0.0, 0.0)),
                                       ("tetra.a", rotate_y(0.5)),
                                       ("sphere.a", translate(-0.5, 0.6, 1.5))]),
        lambda: TransformSnapshot(16, [("cube.b", translate(9.0, 0.0, 0.0)),
                                       ("octa.a", np.full((4, 4), np.nan))]),
        fail,
        lambda: TransformSnapshot(18, [("ground", np.zeros((4, 4)))]),
        lambda: region_pose(1),
    ]
    calls = iter(script)
    seen = []
    real_main_pass = frameloop.main_pass

    def spy(scene_, tlas, config, **kwargs):
        fb = real_main_pass(scene_, tlas, config, **kwargs)
        oracle = build_tlas([scene_.world[n] for n in mesh], geometry, blases, mesh, len(seen))
        seen.append((tlas, oracle, resolve_msaa(main_pass(scene_, oracle, config)).pixels))
        return fb

    monkeypatch.setattr(frameloop, "main_pass", spy)
    try:
        images, _, stats = run_frame_loop(scene, cfg, frames=len(script),
                                          pose_source=lambda: next(calls)())
    finally:
        reader.close()
        writer.close()
        unlink_region(region)
    assert len(seen) == len(images) == len(script)
    assert serialize_tlas(seen[0][0]) == serialize_tlas(seen[0][1])
    for image, (loop_tlas, oracle_tlas, oracle_pixels) in zip(images, seen):
        for name in ("instance_ids", "blas_index", "transforms", "inv_transforms",
                     "world_lo", "world_hi"):
            got, want = getattr(loop_tlas, name), getattr(oracle_tlas, name)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
        lo, hi = subtree_bounds(loop_tlas)
        assert np.array_equal(loop_tlas.node_lo, lo) and np.array_equal(loop_tlas.node_hi, hi)
        assert np.array_equal(image.pixels, oracle_pixels)
    assert not np.array_equal(images[2].pixels, images[1].pixels)  # the camera moved
    for i in (4, 5, 6):  # rejected or failed reads keep frame 3's poses
        assert np.array_equal(images[i].pixels, images[3].pixels)
    # recorded from the per-node pose path
    assert stats.pose_warnings == 3
    assert stats.unmatched_poses == 3
    assert stats.pose_generations == [2, 10, 12, 14, 4]


def test_a_refit_past_the_area_limit_gives_way_to_a_build(monkeypatch):
    """Shuffling which body gets which pose loosens frame 0's tree past
    accel.REFIT_AREA_LIMIT, so frame 1 builds a new TLAS, serialized as
    build_tlas over scene.world makes it; frame 2 refits that one."""
    scene = make_demo_scene(64)
    names, geometry, _ = mesh_instances(scene)
    blases = build_scene_blases(scene)
    perm = np.random.default_rng(7).permutation(len(names))

    def shuffled(tick):
        poses = physics_stub_step(tick, names)
        return [(name, poses[k][1]) for name, k in zip(names, perm)]

    snapshots = iter([TransformSnapshot(2, physics_stub_step(0, names)),
                      TransformSnapshot(4, shuffled(1)), TransformSnapshot(6, shuffled(2))])
    built = []
    real_build = frameloop.build_tlas

    def build_spy(*args):
        built.append(args[4])
        return real_build(*args)

    seen = []
    real_main_pass = frameloop.main_pass

    def pass_spy(scene_, tlas, config, **kwargs):
        oracle = build_tlas([scene_.world[n] for n in names], geometry, blases, names, len(seen))
        seen.append((serialize_tlas(tlas), serialize_tlas(oracle)))
        return real_main_pass(scene_, tlas, config, **kwargs)

    monkeypatch.setattr(frameloop, "build_tlas", build_spy)
    monkeypatch.setattr(frameloop, "main_pass", pass_spy)
    run_frame_loop(scene, small_config(width=16, height=16, msaa=1), frames=3,
                   pose_source=lambda: next(snapshots))
    assert built == [0, 1]
    assert seen[0][0] == seen[0][1] and seen[1][0] == seen[1][1]


def test_a_rebuilt_tree_refits_to_its_own_build_bytes(monkeypatch):
    """Frame 1's shuffle passes the area limit, so the loop builds again,
    and frames 2 and 3 refit that tree.  Refitting frame 3's TLAS, whose
    plan frame 2 made, to the rebuild's own poses gives the rebuild's
    bytes: the plan's leaves, depths and root corners belong to the tree
    they were made for."""
    scene = make_demo_scene(64)
    names = mesh_instances(scene)[0]
    perm = np.random.default_rng(7).permutation(len(names))

    def shuffled(tick):
        poses = physics_stub_step(tick, names)
        return [(name, poses[k][1]) for name, k in zip(names, perm)]

    snapshots = iter([TransformSnapshot(2, physics_stub_step(0, names))]
                     + [TransformSnapshot(2 + 2 * t, shuffled(t)) for t in (1, 2, 3)])
    built, refits = [], []
    real_build, real_refit = frameloop.build_tlas, frameloop.refit_tlas

    def build_spy(*args):
        built.append(real_build(*args))
        return built[-1]

    def refit_spy(*args):
        refits.append(real_refit(*args))
        return refits[-1]

    monkeypatch.setattr(frameloop, "build_tlas", build_spy)
    monkeypatch.setattr(frameloop, "refit_tlas", refit_spy)
    run_frame_loop(scene, small_config(width=16, height=16, msaa=1), frames=4,
                   pose_source=lambda: next(snapshots))
    assert [t.frame_index for t in built] == [0, 1]
    assert refits[0] is None and refits[1] is not None and refits[2] is not None
    rebuilt, last = built[1], refits[2]
    assert last.refit_plan is refits[1].refit_plan
    again = real_refit(last, rebuilt.transforms.copy(), rebuilt.frame_index,
                       rebuilt.inv_transforms.copy())
    assert serialize_tlas(again) == serialize_tlas(rebuilt)
    assert last.node_lo.tobytes() != rebuilt.node_lo.tobytes()  # the poses moved


def test_unchanged_region_generation_is_checked_once():
    """Two reads of one region generation: the second apply is skipped, and
    both frames show the same pose and record the generation."""
    scene = make_bench_scene()
    roster = [n.name for n in scene.mesh_nodes()] + ["benchcam"]
    region = f"test-loop-{uuid.uuid4().hex[:12]}"
    writer = create_table(region, roster)
    reader = attach_table(region)
    checked = []
    real_check = scene_module.check_invertible

    def spy(*args):
        checked.append(args[0])
        return real_check(*args)

    try:
        writer.write_frame([(name, translate(0.1 * k, 0.2, 0.0) @ rotate_y(0.3 * k))
                            for k, name in enumerate(roster)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scene_module, "check_invertible", spy)
            images, _, stats = run_frame_loop(scene, small_config(overlay=True),
                                              frames=2, pose_source=reader.read_frame)
    finally:
        reader.close()
        writer.close()
        unlink_region(region)
    assert len(checked) == 1
    assert ppm_bytes(images[0]) == ppm_bytes(images[1])
    assert stats.pose_generations == [2, 2]
    assert stats.unmatched_poses == 0


# ------------------------------------------------------ frames in flight

def moving_camera_poses():
    """A posed bench scene's camera and one mesh move every frame."""
    calls = iter(range(1 << 20))

    def poses():
        i = next(calls)
        return TransformSnapshot(2 * i, [
            ("benchcam", translate(0.2 * i, 1.0, 9.0 - 0.3 * i) @ rotate_x(-0.1)),
            ("cube.a", translate(0.3 * i, 0.2, 0.0) @ rotate_y(0.4 * i))])
    return poses


def test_frames_in_flight_give_the_serial_images_and_files(tmp_path, monkeypatch):
    """With two in flight, frame f's FXAA is held until frame f + 1 has applied
    its poses, so its overlay runs after the camera's table row moved on."""
    frames = 7
    started = [threading.Event() for _ in range(frames + 1)]
    started[frames].set()
    real_fxaa = frameloop.fxaa_pass

    def lagging_fxaa(image):
        assert started[len(lagged) + 1].wait(timeout=10.0)
        lagged.append(1)
        return real_fxaa(image)

    out = {}
    for in_flight in (1, 2):
        lagged = []
        if in_flight == 2:
            monkeypatch.setattr(frameloop, "fxaa_pass", lagging_fxaa)
        # wide enough for the stats line's camera position
        cfg = small_config(width=264, height=32, msaa=4, fxaa=True, shadows=True,
                           overlay=True, frames_in_flight=in_flight)
        prefix = tmp_path / f"inflight{in_flight}"
        images, timings, stats = run_frame_loop(make_bench_scene(), cfg, frames=frames,
                                                pose_source=moving_camera_poses(),
                                                on_frame=lambda i, _: started[i].set(),
                                                output_prefix=str(prefix))
        files = [frame_output_path(prefix, i).read_bytes() for i in range(frames)]
        assert files == [ppm_bytes(im) for im in images]
        assert [t.frame_index for t in timings] == list(range(frames))
        assert stats.frames_rendered == frames
        out[in_flight] = files
    assert len(lagged) == frames
    assert out[1] == out[2]
    assert len(set(out[2])) == frames  # the camera moved every frame


def display_threads():
    return [t for t in threading.enumerate() if t.name.startswith("softrender-display")]


def test_display_stage_error_stops_the_loop(monkeypatch, tmp_path):
    real_write = frameloop.write_image

    def write_image(image, path, **kwargs):
        if path == frame_output_path(tmp_path / "seq", 2):
            raise OSError("simulated full disk")
        return real_write(image, path, **kwargs)

    started = []
    monkeypatch.setattr(frameloop, "write_image", write_image)
    with pytest.raises(OSError, match="simulated full disk"):
        run_frame_loop(make_triangle_scene(), small_config(), frames=8,
                       output_prefix=str(tmp_path / "seq"),
                       on_frame=lambda i, resources: started.append(i))
    assert started == [0, 1, 2, 3]  # frame 2's error surfaces at frame 3's fence
    assert display_threads() == []


@pytest.mark.parametrize("shadows", [True, False], ids=["shadows", "no-shadows"])
@pytest.mark.parametrize("bad", [np.diag([0.0, 0.0, 0.0, 1.0]), np.full((4, 4), np.nan),
                                 np.full((4, 4), np.inf)], ids=["singular", "nan", "inf"])
def test_bad_unposed_world_transform_raises_naming_the_node(bad, shadows):
    """A mesh node no pose replaces is checked in frame 0, at the TLAS's
    inverses, whether or not shadows would read the TLAS."""
    scene = make_shadow_scene()
    scene.world["blocker"] = bad
    with pytest.raises(ValidationError, match="node 'blocker' holds a"):
        run_frame_loop(scene, small_config(shadows=shadows), frames=2)
    assert display_threads() == []


def test_unwritable_image_format_fails_before_any_work(monkeypatch, tmp_path):
    """image_format "bmp" (and "png" without Pillow) raise ConfigurationError
    before the BLAS build, and no frame is written."""
    calls = []
    monkeypatch.setattr(frameloop, "build_scene_blases", lambda scene: calls.append(scene))
    formats = ["bmp", "BMP", ""]
    try:
        import PIL  # noqa: F401
    except ImportError:
        formats.append("png")
    for image_format in formats:
        with pytest.raises(ConfigurationError):
            run_frame_loop(make_triangle_scene(), small_config(), frames=2,
                           output_prefix=str(tmp_path / "seq"), image_format=image_format)
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    assert display_threads() == []


def test_zero_frame_loop_starts_no_thread(monkeypatch):
    def no_executor(*args, **kwargs):
        raise AssertionError("a zero-frame loop created an executor")

    monkeypatch.setattr(frameloop, "ThreadPoolExecutor", no_executor)
    before = threading.active_count()
    images, timings, _ = run_frame_loop(make_shadow_scene(), small_config(), frames=0)
    assert images == timings == []
    assert threading.active_count() == before


def test_finalizer_runs_two_frames_later_after_that_frames_display_stage(monkeypatch):
    """A frame's timing record is made after its image joins the returned
    list, so a recorded frame index means its display stage is done."""
    recorded = []

    class SpyTiming(frameloop.FrameTiming):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            recorded.append(self.frame_index)

    monkeypatch.setattr(frameloop, "FrameTiming", SpyTiming)
    flushed = {}

    def hook(i, resources):
        resources.slot_queues[resources.slot(i)].push(
            lambda: flushed.__setitem__(i, (resources.current_frame, list(recorded))))

    images, _, _ = run_frame_loop(make_shadow_scene(), small_config(fxaa=True, overlay=True),
                                  frames=6, on_frame=hook)
    assert len(images) == 6
    for f in range(4):
        at_frame, done = flushed[f]
        assert at_frame == f + 2
        assert f in done


# ------------------------------------------------------------ config

def test_render_config_validation():
    with pytest.raises(ConfigurationError):
        RenderConfig(msaa=3)
    with pytest.raises(ConfigurationError):
        RenderConfig(width=0)
    with pytest.raises(ConfigurationError):
        RenderConfig(height=-2)
    with pytest.raises(ConfigurationError):
        RenderConfig(workers=0)
    for target_fps in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            RenderConfig(target_fps=target_fps)
    for frames_in_flight in (0, 3, -1):
        with pytest.raises(ConfigurationError):
            RenderConfig(frames_in_flight=frames_in_flight)
    assert RenderConfig().frames_in_flight == 2
    RenderConfig(frames_in_flight=1)
    for msaa in (1, 2, 4, 8):
        RenderConfig(msaa=msaa)


def test_missing_camera_fails_before_rendering():
    scene = make_triangle_scene()
    scene.cameras = []
    with pytest.raises(ConfigurationError):
        run_frame_loop(scene, small_config(), frames=1)


def test_named_camera_must_exist():
    scene = make_triangle_scene()
    with pytest.raises(ConfigurationError):
        run_frame_loop(scene, small_config(camera="ghost"), frames=1)
