"""Scaling benchmark: duplicate the scene, time the frame stages.

For each doubling step d the base scene's mesh nodes are cloned to
2**d instances (shared geometry, lattice offsets), a fresh frame loop
runs warmup + measured frames, and per-stage wall times are reduced to
mean and population standard deviation.  Garbage collection is forced
before and disabled during each measured series so collector pauses do
not land inside a frame, and the process requests maximum scheduling
priority for the duration (silently skipped without privileges) so
neighbour processes cannot preempt a timed stage.
"""

from __future__ import annotations

import contextlib
import gc
import os
from dataclasses import dataclass

import numpy as np

from .errors import SceneError
from .frameloop import RenderConfig, run_frame_loop
from .scene import Scene, duplicate_scene_geometry, refresh_world_transforms

BENCH_CSV_HEADER = ("doublings,triangles,tlas_mean_ms,tlas_std,main_mean_ms,main_std,"
                    "post_mean_ms,post_std,overlay_mean_ms,overlay_std")


@dataclass
class BenchRecord:
    doublings: int
    triangles: int
    tlas_mean_ms: float
    tlas_std: float
    main_mean_ms: float
    main_std: float
    post_mean_ms: float
    post_std: float
    overlay_mean_ms: float
    overlay_std: float


def default_bench_config(width: int = 160, height: int = 120, workers: int = 1) -> RenderConfig:
    # shadows stay off: per-pixel occlusion queries would swamp the
    # raster trend the series is meant to expose; one frame in flight, so
    # each stage is timed alone, not overlapped with the next frame's
    return RenderConfig(width=width, height=height, msaa=4, fxaa=True, shadows=False,
                        overlay=True, workers=workers, target_fps=0.0, frames_in_flight=1)


def _series(values) -> tuple[float, float]:
    a = np.asarray(values, dtype=np.float64)
    return float(a.mean()), float(a.std(ddof=0))


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_GLIBC_DEFAULT_THRESHOLD = 128 * 1024


@contextlib.contextmanager
def _quiet_scheduler():
    """Suppress host noise around the timed series, restore on exit.

    Two measured mechanisms dominate wall-clock stage jitter here, and
    neither is the renderer's own work:

    * preemption bursts from neighbour processes on a shared core, so
      the series runs at minimum niceness (needs CAP_SYS_NICE, silently
      skipped without it);
    * glibc returning every multi-megabyte numpy temporary to the
      kernel, which re-faults and re-zeroes thousands of pages inside
      the next timed stage, so mmap/trim thresholds are pinned high for
      the duration and the retained memory is released afterwards.
    """
    boosted = 0
    try:
        before = os.nice(0)
        os.nice(-20 - before)
        boosted = os.nice(0) - before  # negative when the boost took
    except OSError:
        pass
    libc = None
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(_M_MMAP_THRESHOLD, 1 << 30)
        libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    except OSError:
        libc = None
    try:
        yield
    finally:
        if libc is not None:
            libc.mallopt(_M_MMAP_THRESHOLD, _GLIBC_DEFAULT_THRESHOLD)
        if boosted:
            with contextlib.suppress(OSError):
                os.nice(-boosted)  # towards 0: never needs privileges
        if libc is not None:
            libc.mallopt(_M_TRIM_THRESHOLD, _GLIBC_DEFAULT_THRESHOLD)
            libc.malloc_trim(0)


def run_bench(scene: Scene, max_doublings: int = 5, frames: int = 5, warmup: int = 3,
              config: RenderConfig | None = None) -> list[BenchRecord]:
    """Measure doublings 0..max_doublings; returns one record per step."""
    if config is None:
        config = default_bench_config()
    if not scene.mesh_nodes():
        raise SceneError("bench scene has no mesh nodes to duplicate")
    if not scene.world:
        refresh_world_transforms(scene)
    records = []
    for d in range(max_doublings + 1):
        scaled = duplicate_scene_geometry(scene, d)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            with _quiet_scheduler():
                _, timings, _ = run_frame_loop(scaled, config, warmup + frames)
        finally:
            if gc_was_enabled:
                gc.enable()
        measured = timings[warmup:]
        tlas = _series([t.tlas_build_ms for t in measured])
        main = _series([t.main_pass_ms for t in measured])
        post = _series([t.post_process_ms for t in measured])
        over = _series([t.overlay_ms for t in measured])
        records.append(BenchRecord(
            doublings=d, triangles=scaled.total_triangles(),
            tlas_mean_ms=tlas[0], tlas_std=tlas[1],
            main_mean_ms=main[0], main_std=main[1],
            post_mean_ms=post[0], post_std=post[1],
            overlay_mean_ms=over[0], overlay_std=over[1]))
    return records


def bench_csv(records) -> str:
    lines = [BENCH_CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.doublings},{r.triangles},"
            f"{r.tlas_mean_ms:.4f},{r.tlas_std:.4f},"
            f"{r.main_mean_ms:.4f},{r.main_std:.4f},"
            f"{r.post_mean_ms:.4f},{r.post_std:.4f},"
            f"{r.overlay_mean_ms:.4f},{r.overlay_std:.4f}")
    return "\n".join(lines) + "\n"
