"""Shared fixtures: repo paths, the checked-in scene assets, and a check
that no test leaves a thread running."""

import threading
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a new non-daemon thread alive, such as a frame
    loop's display thread: such a thread keeps the process from exiting."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and not t.daemon and t.is_alive()]
    if left:
        pytest.fail(f"test left threads running: {left}")


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def scenes_dir() -> Path:
    d = REPO_ROOT / "scenes"
    if not d.is_dir():
        pytest.skip("scenes/ assets not generated")
    return d


@pytest.fixture(scope="session")
def triangle_gltf(scenes_dir: Path) -> Path:
    return scenes_dir / "triangle.gltf"


@pytest.fixture(scope="session")
def bench_gltf(scenes_dir: Path) -> Path:
    return scenes_dir / "bench.gltf"


@pytest.fixture(scope="session")
def demo_gltf(scenes_dir: Path) -> Path:
    return scenes_dir / "demo.gltf"


@pytest.fixture(scope="session")
def render_targets(bench_gltf, demo_gltf):
    """Multisample targets of bench.gltf at d=0..2 and demo.gltf, MSAA 1, 4 and
    8, shadows on, at 96x72, from the scene camera and from a close one: the
    display stages' real inputs."""
    from softrender.accel import build_tlas
    from softrender.frameloop import RenderConfig, build_scene_blases
    from softrender.gltf import load_gltf
    from softrender.linalg import translate
    from softrender.raster import main_pass, select_camera
    from softrender.scene import duplicate_scene_geometry, mesh_instances, refresh_world_transforms

    bench = load_gltf(bench_gltf)
    refresh_world_transforms(bench)
    scenes = [(duplicate_scene_geometry(bench, d), translate(0.5, 0.3, 6.5)) for d in range(3)]
    scenes.append((load_gltf(demo_gltf), translate(1.0, 1.2, 2.6)))
    targets = []
    for scene, close in scenes:
        refresh_world_transforms(scene)
        names, geometry, _ = mesh_instances(scene)
        tlas = build_tlas([scene.world[n] for n in names], geometry, build_scene_blases(scene),
                          names)
        for pose in (None, close):
            if pose is not None:
                scene.world[select_camera(scene).node] = pose
            for msaa in (1, 4, 8):
                config = RenderConfig(width=96, height=72, msaa=msaa, overlay=False)
                targets.append(main_pass(scene, tlas, config))
    return targets
