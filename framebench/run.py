"""Frame benchmark: softrender's public frame loop, driven from outside.

  python3 framebench/run.py --workload raster_lattice --seed 1 --seconds 25 --trace 0
  python3 framebench/run.py --workload all --seed 1 --seconds 25
  python3 framebench/run.py --make-references

Each run times batches of set-ups spread over the run, renders two
calibration frames, then renders --seconds of frames in SEGMENTS loops,
every frame written as PPM.  A frame's period runs from its first loop
hook (pose_source or on_frame) to the next frame's.  The outputs are
checked after the loops, and the last stdout line is one JSON object:
correct, attempted, failed and the metrics.  --trace 1 gives half the
time to one traced loop and reports the per-layer metrics instead (see
spans.py).
framebench/README.md describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from softrender import frameloop, raster  # noqa: E402
from softrender.framebuffer import ppm_bytes, read_ppm  # noqa: E402
from softrender.frameloop import RenderConfig, frame_output_path, run_frame_loop  # noqa: E402
from softrender.gltf import load_gltf  # noqa: E402
from softrender.interchange import (TransformSnapshot, attach_table,  # noqa: E402
                                    physics_stub_step, unlink_region)
from softrender.linalg import translate  # noqa: E402
from softrender.overlay import CELL, format_stats  # noqa: E402
from softrender.procedural import demo_node_names, make_demo_scene  # noqa: E402
from softrender.raster import select_camera  # noqa: E402
from softrender.scene import duplicate_scene_geometry  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = HERE / "out"
REFERENCES = HERE / "references.json"

WARMUP_FRAMES = 1   # the first frame of each loop is not measured
RSS_FRAME = 3       # peak RSS is read as frame 3 starts (see README: peak_rss_mb)
MIN_FRAMES = 3
# The untraced frames are rendered in SEGMENTS loops with a set-up batch
# before each and one after the last, so that set-up samples span the run:
# on a shared host, speed changes within seconds.
SEGMENTS = 4
SETUP_MIN_REPS, SETUP_MAX_REPS = 5, 1000
SETUP_MIN_S = 0.6  # per batch
OVERLAY_ORIGIN = 2  # overlay_pass anchors the stats box at (2, 2)
# seed % 4 picks the camera offset, in units of the workload's camera_step
CAMERA_OFFSETS = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, -1.0, 0.0))
STREAM_HZ = 30.0
STREAM_SLACK_S = 60.0  # poses precomputed beyond --seconds, for set-up and checks
READY_TIMEOUT_S = 60.0

END_TO_END = {"frame_ms_p50": "ms", "frames_per_s": "1/s", "pose_age_ms_p50": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
TOP_LEVEL = ("interchange.read", "scene.apply", "accel.tlas_build", "raster.draw_list",
             "raster.main_pass", "framebuffer.resolve", "fxaa.fxaa", "overlay.overlay",
             "framebuffer.write")
SETUP_LAYERS = ("gltf.load", "procedural.scene", "scene.duplicate", "accel.blas_build",
                "raster.arena")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict             # RenderConfig fields
    scene: str = ""          # glTF file under scenes/; empty for the built-in demo scene
    doublings: int = 0
    camera_step: float = 0.0
    stream_nodes: int = 0    # > 0: demo scene driven by the pose writer


WORKLOADS = {w.name: w for w in (
    Workload("raster_lattice",
             dict(width=160, height=120, msaa=4, fxaa=True, overlay=True, shadows=False),
             scene="bench.gltf", doublings=2, camera_step=0.25),
    Workload("shadow_rays",
             dict(width=320, height=240, msaa=4, fxaa=True, overlay=True, shadows=True),
             scene="demo.gltf", camera_step=0.05),
    Workload("pose_stream",
             dict(width=128, height=96, frustum_culling=True, shadows=False),
             stream_nodes=1024),
)}


def load_scene(wl: Workload, seed: int, tracer: Tracer | None = None):
    span = tracer.span if tracer else (lambda name: nullcontext())
    if wl.stream_nodes:
        with span("procedural.scene"):
            return make_demo_scene(wl.stream_nodes)
    with span("gltf.load"):
        scene = load_gltf(ROOT / "scenes" / wl.scene)
    if wl.doublings:
        with span("scene.duplicate"):
            scene = duplicate_scene_geometry(scene, wl.doublings)
    cam = select_camera(scene).node
    offset = np.array(CAMERA_OFFSETS[seed % len(CAMERA_OFFSETS)]) * wl.camera_step
    scene.world[cam] = translate(*offset) @ scene.world[cam]
    return scene


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class FrameClock:
    """Frame boundaries taken from the loop's own hooks.

    A frame starts at its first hook call: pose_source when the workload
    streams poses, on_frame otherwise.  Both run before any of the
    frame's render work.  A frame ends where the next one starts, and the
    last one when run_frame_loop returns.
    """

    def __init__(self, read=None, tracer: Tracer | None = None):
        self.read = read
        self.tracer = tracer
        self.starts = []
        self.end = None
        self.snapshots = []  # per frame: the TransformSnapshot read, or None
        self.rss_mb = None

    def _begin(self) -> None:
        self.starts.append(time.monotonic())
        if self.tracer is not None:
            self.tracer.frame = len(self.starts) - 1

    def pose_source(self):
        self._begin()
        try:
            with self.tracer.span("interchange.read") if self.tracer else nullcontext():
                snapshot = self.read()
        except Exception:
            self.snapshots.append(None)
            raise
        self.snapshots.append(snapshot)
        return snapshot

    def on_frame(self, index, resources) -> None:
        if len(self.starts) == index:
            self._begin()
        if index == RSS_FRAME:
            self.rss_mb = peak_rss_mb()

    def ends(self) -> list:
        return self.starts[1:] + [self.end]

    def periods(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends())]


@dataclass
class Loop:
    clock: FrameClock
    planned: int
    prefix: str | None
    stats: object = None  # FrameStats; None when the loop raised


def render(scene, config: RenderConfig, frames: int, clock: FrameClock,
           prefix: str | None = None) -> Loop:
    loop = Loop(clock=clock, planned=frames, prefix=prefix)
    try:
        _, _, loop.stats = run_frame_loop(
            scene, config, frames, on_frame=clock.on_frame, output_prefix=prefix,
            pose_source=clock.pose_source if clock.read is not None else None)
    except Exception:
        traceback.print_exc()
    finally:
        clock.end = time.monotonic()
    return loop


def measure_setup(wl: Workload, seed: int, config: RenderConfig, samples: list):
    """Set up again and again until SETUP_MIN_S is measured; returns the last scene.

    Set-up is the scene load (and lattice duplication) plus run_frame_loop
    with zero frames: everything the loop does before its first frame.
    """
    batch = []
    while len(batch) < SETUP_MAX_REPS and (len(batch) < SETUP_MIN_REPS or sum(batch) < SETUP_MIN_S):
        t0 = time.monotonic()
        scene = load_scene(wl, seed)
        run_frame_loop(scene, config, 0)
        batch.append(time.monotonic() - t0)
    samples.extend(batch)
    return scene


def frames_for(seconds: float, frame_s: float) -> int:
    return WARMUP_FRAMES + max(MIN_FRAMES, round(seconds / frame_s))


class PoseStream:
    """The writer process, and this process's reader on its region."""

    def __init__(self, nodes: int, seed: int, seconds: float):
        self.region = f"framebench-{os.getpid()}"
        self.names = demo_node_names(nodes)
        self.start_tick = random.Random(seed).randrange(1_000_000)
        self.t0 = None
        self.published = []
        self.reader = None
        ticks = int(STREAM_HZ * (seconds + STREAM_SLACK_S))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "writer.py"), self.region, str(nodes), str(STREAM_HZ),
             str(self.start_tick), str(ticks)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            if not ready or self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("pose writer did not publish its first pose")
            self.reader = attach_table(self.region)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        if self.proc is not None:
            try:
                out, _ = self.proc.communicate("stop\n", timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                out, _ = self.proc.communicate()
            self.proc = None
            lines = out.strip().splitlines()
            if lines:
                doc = json.loads(lines[-1])
                self.t0, self.published = doc["t0"], doc["published"]
        unlink_region(self.region)

    def publish_time(self, generation: int):
        j = generation // 2 - 1  # publish j makes generation 2 * (j + 1)
        return self.published[j] if 0 <= j < len(self.published) else None

    def writer_lag_ms(self) -> float:
        lags = [p - (self.t0 + j / STREAM_HZ) for j, p in enumerate(self.published)]
        return statistics.median(lags) * 1000.0 if lags else 0.0

    def stub_snapshot(self, generation: int) -> TransformSnapshot:
        """What the region holds at this generation: the stub's pose in float32."""
        tick = self.start_tick + generation // 2 - 1
        entries = [(name, m.astype(np.float32).astype(np.float64))
                   for name, m in physics_stub_step(tick, self.names)]
        return TransformSnapshot(generation=generation, entries=entries)


# ---------------------------------------------------------------------------
# Output checks.

def masked_sha256(path, scene, config: RenderConfig) -> str:
    """sha256 of the PPM with the overlay's stats-line box zeroed.

    The overlay prints the wall-clock frame time into the image, so those
    pixels differ between identical renders.  Only that box is masked.
    """
    image = read_ppm(path)
    eye = scene.world[select_camera(scene, config.camera).node][:3, 3]
    x1 = min(image.width, OVERLAY_ORIGIN + CELL * len(format_stats(0, 0.0, eye)))
    image.pixels[OVERLAY_ORIGIN:OVERLAY_ORIGIN + CELL, OVERLAY_ORIGIN:x1] = 0
    return hashlib.sha256(ppm_bytes(image)).hexdigest()


def check_static(prefix, frames: int, scene, config, reference: str) -> int:
    """Failed frames: missing, or masked hash not the committed reference."""
    failed = 0
    for i in range(frames):
        path = frame_output_path(prefix, i)
        if not path.exists() or masked_sha256(path, scene, config) != reference:
            failed += 1
    return failed


def check_stream(loop: Loop, scene, config, wl: Workload, stream: PoseStream,
                 work_dir: Path, problems: list) -> int:
    """Failed frames: missing or unread pose, torn snapshot, generation going
    back, or a last measured frame that a fresh render of its pose does not
    reproduce."""
    failed = set(range(len(loop.clock.snapshots), loop.planned))
    expected = {}
    previous = -1
    for i, snap in enumerate(loop.clock.snapshots):
        if snap is None or not frame_output_path(loop.prefix, i).exists():
            failed.add(i)
            continue
        if snap.generation not in expected:
            expected[snap.generation] = stream.stub_snapshot(snap.generation)
        want = expected[snap.generation]
        torn = ([n for n, _ in snap.entries] != [n for n, _ in want.entries]
                or not np.array_equal(np.array([m for _, m in snap.entries]),
                                      np.array([m for _, m in want.entries])))
        if torn or snap.generation < previous:
            failed.add(i)
        previous = max(previous, snap.generation)
    if loop.stats is None or loop.stats.pose_warnings or loop.stats.unmatched_poses:
        problems.append(f"pose warnings/unmatched: "
                        f"{None if loop.stats is None else (loop.stats.pose_warnings, loop.stats.unmatched_poses)}")
    last = len(loop.clock.snapshots) - 1
    if last >= 0 and last not in failed:
        # seed 0: the demo scene has no seeded camera offset
        again = render_one(wl, 0, config, expected[loop.clock.snapshots[last].generation],
                           work_dir / "rerender")
        if (masked_sha256(frame_output_path(loop.prefix, last), scene, config)
                != masked_sha256(again, scene, config)):
            failed.add(last)
    return len(failed)


def render_one(wl: Workload, seed: int, config, snapshot, prefix, tracer=None):
    """Untimed single frame of a fresh scene showing `snapshot` (None: as loaded)."""
    scene = load_scene(wl, seed)
    clock = FrameClock(read=(lambda: snapshot) if snapshot is not None else None,
                       tracer=tracer)
    render(scene, config, 1, clock, str(prefix))
    return frame_output_path(prefix, 0)


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end_metrics(loops: list, stream: PoseStream | None, setup: list) -> dict:
    """Frame metrics pooled over the measured frames of the untraced loops."""
    periods, ages = [], []
    wall = 0.0
    for loop in loops:
        clock = loop.clock
        measured = clock.periods()[WARMUP_FRAMES:]
        periods += measured
        wall += clock.end - clock.starts[WARMUP_FRAMES]
        if stream is None:
            ages += measured
            continue
        ends = clock.ends()
        for i in range(WARMUP_FRAMES, len(clock.snapshots)):
            snap = clock.snapshots[i]
            published = None if snap is None else stream.publish_time(snap.generation)
            if published is not None:
                ages.append(ends[i] - published)
    rss = loops[0].clock.rss_mb
    return {
        "frame_ms_p50": statistics.median(periods) * 1000.0,
        "frames_per_s": len(periods) / wall,
        "pose_age_ms_p50": statistics.median(ages) * 1000.0,
        "peak_rss_mb": rss if rss is not None else peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }


def layer_metrics(tracer: Tracer, clock: FrameClock, untraced_p50_ms: float,
                  canon: Tracer, stream: PoseStream | None) -> dict:
    """Per-frame means over the traced loop's measured frames, set-up spans
    from that loop's own set-up, and exact counts from the canonical frame."""
    measured = range(WARMUP_FRAMES, len(clock.starts))
    n = len(measured)
    periods = clock.periods()
    total = defaultdict(float)
    top = 0.0
    main_children = 0.0
    setup = defaultdict(float)
    top_names = set()
    for name, start, end, parent, frame in tracer.spans:
        if frame == -1:
            setup[name] += end - start
        if frame not in measured:
            continue
        total[name] += end - start
        if parent is None:
            top += end - start
            top_names.add(name)
        elif tracer.spans[parent][0] == "raster.main_pass":
            main_children += end - start
    if top_names - set(TOP_LEVEL):
        print(f"trace: unlisted top-level spans {sorted(top_names - set(TOP_LEVEL))}; "
              f"the listed layers and frameloop.other_ms no longer add up", file=sys.stderr)
    period_s = sum(periods[i] for i in measured)
    ms = {name: total[name] * 1000.0 / n for name in TOP_LEVEL}
    out = {f"{name}_ms": v for name, v in ms.items()}
    out["raster.self_ms"] = (total["raster.main_pass"] - main_children) * 1000.0 / n
    out["shading.shade_ms"] = total["shading.shade"] * 1000.0 / n
    out["accel.shadow_ms"] = total["accel.shadow"] * 1000.0 / n
    out["frameloop.other_ms"] = (period_s - top) * 1000.0 / n
    out["frameloop.period_ms"] = period_s * 1000.0 / n
    traced_p50 = statistics.median(periods[i] for i in measured) * 1000.0
    out["frameloop.trace_overhead_pct"] = (traced_p50 / untraced_p50_ms - 1.0) * 100.0
    for name in SETUP_LAYERS:
        out[f"{name}_ms"] = setup[name] * 1000.0
    counts = {name: canon.counts.get((0, name), 0) for name in (
        "raster.triangles", "shading.fragments", "accel.shadow_rays", "accel.shadow_occluded",
        "accel.tlas_instances", "scene.unmatched", "framebuffer.bytes_written")}
    occluded = counts.pop("accel.shadow_occluded")
    out.update(counts)
    out["accel.shadow_occluded_ratio"] = occluded / counts["accel.shadow_rays"] \
        if counts["accel.shadow_rays"] else 0.0
    out["interchange.writer_lag_ms"] = stream.writer_lag_ms() if stream else 0.0
    return out


PER_LAYER_UNITS = {"frameloop.trace_overhead_pct": "%", "accel.shadow_occluded_ratio": "ratio",
                   "framebuffer.bytes_written": "bytes"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS.get(name, "ms" if name.endswith("_ms") else "count")


def host_facts(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(), "seed": seed,
            "tuned": False,
            "tuning": "none: no renice, no mallopt, no CPU pinning, GC at its defaults"}


# ---------------------------------------------------------------------------
# One workload.

def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    config = RenderConfig(**wl.config)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"frames-{wl.name}-{os.getpid()}"
    work_dir.mkdir()
    stream = None
    problems = []
    reference = None
    if not wl.stream_nodes:
        reference = json.loads(REFERENCES.read_text())[wl.name][seed % len(CAMERA_OFFSETS)]
    try:
        setup = []
        scene = measure_setup(wl, seed, config, setup)

        if wl.stream_nodes:
            stream = PoseStream(wl.stream_nodes, seed, seconds)
        read = stream.reader.read_frame if stream else None

        calibration = render(scene, config, 2, FrameClock(read))
        if calibration.stats is None:
            raise RuntimeError("calibration frames failed")
        frame_s = calibration.clock.periods()[-1]

        share = seconds / 2 if trace else seconds
        untraced = []
        for k in range(SEGMENTS):
            if k:
                scene = measure_setup(wl, seed, config, setup)
            untraced.append(render(scene, config, frames_for(share / SEGMENTS, frame_s),
                                   FrameClock(read), str(work_dir / f"untraced{k}")))
            periods = untraced[-1].clock.periods()
            if periods:
                frame_s = statistics.median(periods)  # keeps the run near --seconds
        loops = list(untraced)
        if trace:
            tracer = Tracer()
            tracer.install({"frameloop": frameloop, "raster": raster})
            try:
                traced_scene = load_scene(wl, seed, tracer)
                loops.append(render(traced_scene, config, frames_for(share, frame_s),
                                    FrameClock(read, tracer), str(work_dir / "traced")))
            finally:
                tracer.restore()
            canon = Tracer()
            canon.install({"frameloop": frameloop, "raster": raster})
            try:
                first = stream.stub_snapshot(2) if stream else None
                render_one(wl, seed, config, first, work_dir / "canonical", tracer=canon)
            finally:
                canon.restore()
            if tracer.missing:
                print(f"trace: program no longer has {', '.join(tracer.missing)}; "
                      f"their spans and counts read 0", file=sys.stderr)
        if stream is not None:
            stream.close()
        measure_setup(wl, seed, config, setup)

        attempted = sum(loop.planned for loop in loops)
        failed = 0
        for loop in loops:
            if loop.stats is None:
                problems.append(f"{loop.prefix}: the frame loop raised")
            if stream is None:
                failed += check_static(loop.prefix, loop.planned, scene, config, reference)
            else:
                failed += check_stream(loop, scene, config, wl, stream, work_dir, problems)
        if trace:
            attempted += 1
            if stream is None:
                failed += check_static(work_dir / "canonical", 1, scene, config, reference)
            elif not frame_output_path(work_dir / "canonical", 0).exists():
                failed += 1

        e2e = end_to_end_metrics(untraced, stream, setup)
        if trace:
            metrics = layer_metrics(tracer, loops[-1].clock, e2e["frame_ms_p50"], canon, stream)
            clock = loops[-1].clock
            tracer.write_jsonl(OUT_DIR / f"trace-{wl.name}.jsonl",
                               list(zip(range(len(clock.starts)), clock.starts, clock.ends())))
        else:
            metrics = e2e
        correct = failed == 0 and not problems
        host = host_facts(seed)
        n_measured = sum(len(loop.clock.starts) - WARMUP_FRAMES for loop in untraced)
        print(f"workload {wl.name}  seed {seed}  host {json.dumps(host)}")
        print(f"untraced: {n_measured} measured frames in {SEGMENTS} loops, each after "
              f"{WARMUP_FRAMES} warm-up frame; frame_ms_p50 is their median; "
              f"setup_s is the median of {len(setup)} set-ups")
        if trace:
            print(f"traced: {len(loops[-1].clock.starts) - WARMUP_FRAMES} measured frames")
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.4f} {unit_of(name)}")
        print(f"  {'error_rate':34s} {failed / attempted:14.4f} ({failed}/{attempted} frames failed)")
        for p in problems:
            print(f"problem: {p}")
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
        (OUT_DIR / f"result-{wl.name}-trace{int(trace)}.json").write_text(
            json.dumps({"host": host, "frames_measured": n_measured,
                        "periods_ms": [[p * 1000.0 for p in loop.clock.periods()]
                                       for loop in loops],
                        "setup_s": setup, **result}, indent=1))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        if stream is not None:
            stream.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def make_references() -> int:
    """Write references.json: the masked hash of every seeded camera variant."""
    OUT_DIR.mkdir(exist_ok=True)
    refs = {}
    for wl in WORKLOADS.values():
        if wl.stream_nodes:
            continue
        config = RenderConfig(**wl.config)
        refs[wl.name] = []
        for variant in range(len(CAMERA_OFFSETS)):
            prefix = OUT_DIR / f"reference-{wl.name}-{variant}"
            scene = load_scene(wl, variant)
            clock = FrameClock()
            render(scene, config, 1, clock, str(prefix))
            path = frame_output_path(prefix, 0)
            refs[wl.name].append(masked_sha256(path, scene, config))
            path.unlink()
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(json.dumps(refs, indent=1))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (peak RSS is per workload); one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(f"{'workload.metric':48s} {'value':>14s} unit")
    for metric, v in combined["metrics"].items():
        print(f"{metric:48s} {v['value']:14.4f} {v['unit']}")
    print(f"{'error_rate':48s} {combined['failed'] / max(combined['attempted'], 1):14.4f} "
          f"({combined['failed']}/{combined['attempted']} frames failed)")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-references", action="store_true",
                        help="rewrite references.json from the current program")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in finally
    if args.make_references:
        return make_references()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
