"""Frame loop with slot-recycled resources and deferred destruction.

Two frame slots alternate.  Frame f uses slot f % 2 and begins by
flushing that slot's deletion queue, which still holds the finalizers
frame f - 2 deferred, so a resource handed to a slot queue is not freed
while a frame in flight may still use it.  A third, loop-lifetime queue
(the multisample targets) drains at shutdown.  Flushing
runs finalizers in reverse push order so dependents are released before
what they depend on.

Before the first frame the loop checks the scene's references once
(check_references, on the mesh arrays it draws from), puts every world
transform into one WorldTable (scene.world's entries for posed names
become views of its rows), builds one BLAS per geometry (a list indexed
by geometry id) and sorts the draws, once per loop: the node set does
not change within a loop, only the poses do.

Frame order: flush slot queue -> apply external poses to the table ->
TLAS from the table's mesh rows, their matrices and inverses (the pose
check's, or the table's check of an unposed row the first time it is
asked for): build_tlas in frame 0, then refit_tlas of the previous
frame's TLAS, since only the poses change, or build_tlas again when the
refit tree has grown too loose -> gather the draws' world
matrices -> main pass -> display stage (resolve -> FXAA -> overlay ->
write image -> record the image and stage timings) -> pace to the frame
budget.

With two frames in flight (RenderConfig.frames_in_flight = 2, the
default) the display stage runs on one display thread.  Frame f's TLAS
and main pass render into slot f % 2 on the calling thread, which then
waits for frame f - 1's display stage to finish and hands frame f's
target to the display thread; while that thread resolves, filters,
overlays and writes frame f, the calling thread starts frame f + 1:
pose read, on_frame, TLAS and main pass into the other slot.  At most
one display stage is in flight.  That wait is the slot fence: frame
f + 2 reuses slot f % 2, its framebuffer and its deletion queue, and
starts only after frame f's display stage has finished, so a finalizer
pushed in frame f still runs at the start of frame f + 2.  Display
stages run in frame order, and the images, timings and files are the
ones the serial loop (frames_in_flight = 1) makes.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .accel import Blas, build_blas, build_tlas, compact_blas, refit_tlas
from .errors import ConfigurationError, ValidationError
from .framebuffer import (SAMPLE_POSITIONS, check_image_path, create_framebuffer, resolve_msaa,
                          write_image)
from .fxaa import fxaa_pass
from .overlay import overlay_pass
from .raster import camera_world, main_pass, select_camera, sort_draws
from .scene import (Scene, WorldTable, check_references, mesh_instances, mesh_lookup,
                    refresh_world_transforms)

SLOT_COUNT = 2


@dataclass
class RenderConfig:
    width: int = 256
    height: int = 256
    msaa: int = 4
    fxaa: bool = True
    shadows: bool = True
    overlay: bool = True
    camera: str | None = None
    workers: int = 1
    frustum_culling: bool = False
    backface_culling: bool = False
    target_fps: float = 0.0  # 0 = unpaced
    # 2: a frame's display stage (resolve, FXAA, overlay, image write)
    # runs on a display thread while the next frame's TLAS and main pass
    # run; 1: every stage in turn on the calling thread, so each stage's
    # timing is its cost alone
    frames_in_flight: int = SLOT_COUNT

    def __post_init__(self):
        if self.msaa not in SAMPLE_POSITIONS:
            raise ConfigurationError(f"msaa must be one of {sorted(SAMPLE_POSITIONS)}")
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("output size must be at least 1x1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not 0.0 <= self.target_fps < float("inf"):
            raise ConfigurationError(f"target_fps must be >= 0 and finite, not {self.target_fps}")
        if self.frames_in_flight not in range(1, SLOT_COUNT + 1):
            raise ConfigurationError(f"frames_in_flight must be 1 or {SLOT_COUNT}")


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
    """Per-frame stage wall times.

    tlas_build_ms (frame 0's TLAS build, a later frame's refit or build) and
    main_pass_ms are timed on the calling thread;
    post_process_ms (resolve + FXAA) and overlay_ms in the display stage.
    With two frames in flight the display stage runs on the display
    thread and overlaps the next frame's TLAS and main pass, so the four
    do not add up to the frame period and each can include time spent
    waiting for the interpreter lock.
    """

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
        if fb is None:
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


def build_scene_blases(scene: Scene) -> list[Blas]:
    """One compacted BLAS per geometry, indexed by geometry id; built once, shared by clones."""
    return [compact_blas(build_blas(geo.positions, geo.triangles, geometry_id=gid))
            for gid, geo in enumerate(scene.geometries)]


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
    application, mainly so callers can push work onto the deletion queues;
    scene.world shows the frame's poses then, and must not be written.
    With output_prefix set, every frame is also written to
    '{prefix}-frame-{index:04d}.{format}'.
    Before any work, ValidationError for a repeated node name, a mesh node
    whose geometry or material id is outside its container (a negative one
    too), a camera on a missing node, a mesh node or the selected camera's
    node with no scene.world entry and, when scene.world is empty and so
    computed here, a missing parent or a cycle; ConfigurationError for no
    camera, none on config.camera, or, with output_prefix set, an
    image_format write_image cannot write.
    In frame 0, after the BLAS build, ValidationError names an unposed mesh
    node or the camera's node whose world transform is non-finite or singular.
    With two frames in flight, an error in frame f's display stage (an
    image write that fails, say) is raised at frame f + 1's slot fence,
    after its main pass, or when the loop ends; no later frame starts,
    and the display thread is gone when this or any error reaches the caller.
    """
    if not scene.world:
        refresh_world_transforms(scene)
    names, geometry, material = mesh_instances(scene)
    check_references(scene, names, geometry, material)  # fail before any work
    camera = select_camera(scene, config.camera)
    camera_world(scene, camera)
    if output_prefix is not None:
        check_image_path(frame_output_path(output_prefix, 0, image_format))
    table = WorldTable(scene)
    rows = np.array(mesh_lookup(table.rows, names), dtype=np.int64)
    blases = build_scene_blases(scene)
    draws = sort_draws(names, geometry, material, table.matrices[rows])
    triangles = scene.total_triangles()  # the overlay's; poses do not change it
    resources = FrameResources(config)
    stats = FrameStats()
    images = []
    timings = []

    def display_stage(i, fb, eye, tlas_ms, main_ms):
        t0 = time.perf_counter()
        image = resolve_msaa(fb)
        if config.fxaa:
            image = fxaa_pass(image)
        t1 = time.perf_counter()
        image = overlay_pass(image, i, triangles, eye, enabled=config.overlay)
        t2 = time.perf_counter()
        if output_prefix is not None:
            write_image(image, frame_output_path(output_prefix, i, image_format))
        images.append(image)
        timings.append(FrameTiming(frame_index=i, tlas_build_ms=tlas_ms, main_pass_ms=main_ms,
                                   post_process_ms=(t1 - t0) * 1000.0,
                                   overlay_ms=(t2 - t1) * 1000.0))

    # no thread for a loop without frames: set-up stays what it was
    display = (ThreadPoolExecutor(1, "softrender-display")
               if frames and config.frames_in_flight > 1 else None)
    in_flight = None  # the display stage of the previous frame
    loop_start = time.perf_counter()
    try:
        for i in range(frames):
            slot = resources.begin_frame(i)

            if pose_source is not None:
                try:
                    snapshot = pose_source()
                except Exception:
                    stats.pose_warnings += 1
                else:
                    try:
                        stats.unmatched_poses += table.apply(snapshot)
                    except ValidationError:
                        stats.pose_warnings += 1
                    else:
                        stats.pose_generations.append(snapshot.generation)
            if on_frame is not None:
                on_frame(i, resources)

            t0 = time.perf_counter()
            world, inverses = table.matrices[rows], table.inverses(rows)
            tlas = refit_tlas(tlas, world, i, inverses) if i else None
            if tlas is None:
                tlas = build_tlas(world, geometry, blases, names, i, inverses)
            t1 = time.perf_counter()

            draws = replace(draws, world=world[draws.order])
            fb = resources.framebuffer(slot)
            main_pass(scene, tlas, config, draws=draws, fb=fb)
            t2 = time.perf_counter()

            # a copy: the next pose apply overwrites the table row under it
            eye = scene.world[camera.node][:3, 3].copy()
            stage = (i, fb, eye, (t1 - t0) * 1000.0, (t2 - t1) * 1000.0)
            if display is None:
                display_stage(*stage)
            else:
                if in_flight is not None:
                    in_flight.result()  # the slot fence; raises what that stage raised
                in_flight = display.submit(display_stage, *stage)

            if config.target_fps > 0.0:
                deadline = loop_start + (i + 1) / config.target_fps
                delay = deadline - time.perf_counter()
                if delay > 0.0:
                    time.sleep(delay)
        if in_flight is not None:
            in_flight.result()
    finally:
        if display is not None:
            display.shutdown()  # waits for a display stage still running

    resources.shutdown()
    stats.frames_rendered = len(images)
    stats.finalizers_run = resources.finalizers_run
    return images, timings, stats
