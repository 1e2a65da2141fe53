"""Frame loop with slot-recycled resources and deferred destruction.

Two frame slots alternate.  Frame f uses slot f % 2 and begins by
flushing that slot's deletion queue, which still holds the finalizers
frame f - 2 deferred, so a resource handed to a slot queue is not freed
while a frame in flight may still use it.  A third, loop-lifetime queue
(the multisample targets) drains at shutdown.  Flushing
runs finalizers in reverse push order so dependents are released before
what they depend on.

Frame order: flush slot queue -> apply external poses -> rebuild TLAS ->
build and sort draws -> main pass -> resolve -> FXAA -> overlay ->
write image -> record stage timings -> pace to the frame budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .accel import Blas, TlasInstance, build_blas, build_tlas, compact_blas
from .errors import ConfigurationError, ValidationError
from .framebuffer import SAMPLE_POSITIONS, create_framebuffer, resolve_msaa, write_image
from .fxaa import fxaa_pass
from .overlay import overlay_pass
from .raster import build_draw_list, main_pass, select_camera
from .scene import Scene, apply_transform_table, refresh_world_transforms

SLOT_COUNT = 2


@dataclass
class RenderConfig:
    width: int = 256
    height: int = 256
    msaa: int = 4
    fxaa: bool = True
    shadows: bool = True
    overlay: bool = True
    clear_color: object = None  # (3,) linear RGB; None takes the scene's
    camera: str | None = None
    workers: int = 1
    frustum_culling: bool = False
    backface_culling: bool = False
    target_fps: float = 0.0  # 0 = unpaced

    def __post_init__(self):
        if self.msaa not in SAMPLE_POSITIONS:
            raise ConfigurationError(f"msaa must be one of {sorted(SAMPLE_POSITIONS)}")
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("output size must be at least 1x1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.target_fps < 0.0:
            raise ConfigurationError("target_fps must be >= 0")


class DeletionQueue:
    """Deferred finalizers, flushed last-in first-out."""

    def __init__(self):
        self._finalizers = []

    def push(self, finalizer) -> None:
        self._finalizers.append(finalizer)

    def flush(self) -> int:
        ran = 0
        while self._finalizers:
            self._finalizers.pop()()
            ran += 1
        return ran

    def __len__(self) -> int:
        return len(self._finalizers)


@dataclass
class FrameTiming:
    frame_index: int
    tlas_build_ms: float
    main_pass_ms: float
    post_process_ms: float
    overlay_ms: float


TIMING_CSV_HEADER = "frame,tlas_build_ms,main_pass_ms,post_process_ms,overlay_ms"


def timing_csv(records) -> str:
    lines = [TIMING_CSV_HEADER]
    for r in records:
        lines.append(f"{r.frame_index},{r.tlas_build_ms:.4f},{r.main_pass_ms:.4f},"
                     f"{r.post_process_ms:.4f},{r.overlay_ms:.4f}")
    return "\n".join(lines) + "\n"


class FrameResources:
    """Slot-cycled attachments plus the three deletion queues."""

    def __init__(self, config: RenderConfig):
        self.config = config
        self.main_queue = DeletionQueue()
        self.slot_queues = [DeletionQueue() for _ in range(SLOT_COUNT)]
        self.attachments = [None] * SLOT_COUNT
        self.current_frame = -1
        self.finalizers_run = 0

    def slot(self, frame_index: int) -> int:
        return frame_index % SLOT_COUNT

    def begin_frame(self, frame_index: int) -> int:
        """Flush the reused slot's queue; returns the slot index."""
        self.current_frame = frame_index
        s = self.slot(frame_index)
        self.finalizers_run += self.slot_queues[s].flush()
        return s

    def framebuffer(self, slot: int):
        fb = self.attachments[slot]
        if fb is None or (fb.width, fb.height, fb.samples) != (
                self.config.width, self.config.height, self.config.msaa):
            fb = create_framebuffer(self.config.width, self.config.height, self.config.msaa)
            self.attachments[slot] = fb
            self.main_queue.push(lambda s=slot: self.attachments.__setitem__(s, None))
        return fb

    def shutdown(self) -> None:
        for q in self.slot_queues:
            self.finalizers_run += q.flush()
        self.finalizers_run += self.main_queue.flush()


@dataclass
class FrameStats:
    frames_rendered: int = 0
    pose_warnings: int = 0
    unmatched_poses: int = 0
    finalizers_run: int = 0
    pose_generations: list = field(default_factory=list)


def build_scene_blases(scene: Scene) -> dict[int, Blas]:
    """One compacted BLAS per geometry id; built once, shared by clones."""
    out = {}
    for gid, geo in enumerate(scene.geometries):
        out[gid] = compact_blas(build_blas(geo.positions, geo.triangles, geometry_id=gid))
    return out


def make_tlas_instances(scene: Scene, blases: dict[int, Blas]) -> list[TlasInstance]:
    instances = []
    for n in scene.mesh_nodes():
        instances.append(TlasInstance(blas=blases[n.mesh_instance[0]],
                                      transform=scene.world[n.name],
                                      node_name=n.name,
                                      instance_id=len(instances)))
    return instances


def frame_output_path(prefix: str, frame_index: int, image_format: str = "ppm") -> Path:
    return Path(f"{prefix}-frame-{frame_index:04d}.{image_format}")


def run_frame_loop(scene: Scene, config: RenderConfig, frames: int,
                   pose_source=None, output_prefix=None, image_format: str = "ppm",
                   on_frame=None):
    """Render a frame sequence; returns (images, timings, stats).

    pose_source, when given, is called once per frame and must return a
    TransformSnapshot; raising, or returning a snapshot with a matrix that
    is not 16 values, non-finite or singular, keeps the previous pose and
    counts a warning.
    on_frame(frame_index, resources) runs inside each frame after pose
    application, mainly so callers can push work onto the deletion queues.
    With output_prefix set, every frame is also written to
    '{prefix}-frame-{index:04d}.{format}'.
    """
    if not scene.world:
        refresh_world_transforms(scene)
    select_camera(scene, config.camera)  # fail before any work if absent
    blases = build_scene_blases(scene)
    triangles = scene.total_triangles()  # the draw list's total; poses do not change it
    resources = FrameResources(config)
    stats = FrameStats()
    images = []
    timings = []
    loop_start = time.perf_counter()

    for i in range(frames):
        slot = resources.begin_frame(i)

        if pose_source is not None:
            try:
                snapshot = pose_source()
            except Exception:
                stats.pose_warnings += 1
            else:
                try:
                    stats.unmatched_poses += apply_transform_table(scene, snapshot)
                except ValidationError:
                    stats.pose_warnings += 1
                else:
                    stats.pose_generations.append(snapshot.generation)
        if on_frame is not None:
            on_frame(i, resources)

        t0 = time.perf_counter()
        instances = make_tlas_instances(scene, blases)
        tlas = build_tlas(instances, frame_index=i)
        t1 = time.perf_counter()

        draws = build_draw_list(scene)
        fb = resources.framebuffer(slot)
        main_pass(scene, tlas, config, draws=draws, fb=fb)
        t2 = time.perf_counter()

        image = resolve_msaa(fb)
        if config.fxaa:
            image = fxaa_pass(image)
        t3 = time.perf_counter()

        camera = select_camera(scene, config.camera)
        eye = scene.world[camera.node][:3, 3]
        image = overlay_pass(image, i, triangles, eye, enabled=config.overlay)
        t4 = time.perf_counter()

        if output_prefix is not None:
            write_image(image, frame_output_path(output_prefix, i, image_format),
                        image_format=image_format)
        images.append(image)
        timings.append(FrameTiming(
            frame_index=i,
            tlas_build_ms=(t1 - t0) * 1000.0,
            main_pass_ms=(t2 - t1) * 1000.0,
            post_process_ms=(t3 - t2) * 1000.0,
            overlay_ms=(t4 - t3) * 1000.0,
        ))
        stats.frames_rendered += 1

        if config.target_fps > 0.0:
            deadline = loop_start + (i + 1) / config.target_fps
            delay = deadline - time.perf_counter()
            if delay > 0.0:
                time.sleep(delay)

    resources.shutdown()
    stats.finalizers_run = resources.finalizers_run
    return images, timings, stats
