"""Command line front end.

  softrender render           render a glTF scene to numbered images
  softrender bench            run the duplication scaling series to CSV
  softrender interchange-demo drive the renderer from a physics stub
                              over the shared-memory transform table

Exit codes: 0 on success, 1 on a runtime failure (bad scene, region
trouble, writer crash), 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import sys
import time
from pathlib import Path

from .bench import bench_csv, default_bench_config, run_bench
from .errors import ConfigurationError, RegionError, SceneError
from .frameloop import RenderConfig, run_frame_loop, timing_csv
from .gltf import load_gltf
from .interchange import attach_table, stub_writer_loop, unlink_region
from .procedural import demo_node_names, make_demo_scene


def _onoff(parser: argparse.ArgumentParser, flag: str, default: bool, help_text: str):
    parser.add_argument(flag, choices=("on", "off"), default="on" if default else "off",
                        help=f"{help_text} (default: %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="softrender",
                                     description="deterministic CPU renderer")
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="render a glTF scene")
    render.add_argument("--scene", required=True, help="path to a .gltf file")
    render.add_argument("--out", required=True,
                        help="output prefix; frames go to PREFIX-frame-0000.ppm")
    render.add_argument("--frames", type=int, default=1)
    render.add_argument("--width", type=int, default=256)
    render.add_argument("--height", type=int, default=256)
    render.add_argument("--msaa", type=int, choices=(1, 2, 4, 8), default=4)
    _onoff(render, "--fxaa", True, "post-process anti-aliasing")
    _onoff(render, "--shadows", True, "ray-traced point shadows")
    _onoff(render, "--overlay", True, "stats overlay")
    render.add_argument("--workers", type=int, default=1)
    render.add_argument("--camera", default=None, help="camera node name")
    render.add_argument("--format", choices=("ppm", "png"), default="ppm")
    render.add_argument("--timing-csv", default=None, help="write per-frame stage times")
    render.add_argument("--target-fps", type=float, default=0.0)
    _onoff(render, "--frustum-culling", False, "skip draws outside the frustum")
    _onoff(render, "--backface-culling", False, "skip back-facing triangles")

    bench = sub.add_parser("bench", help="scaling series over scene duplication")
    bench.add_argument("--scene", required=True)
    bench.add_argument("--out", default=None, help="CSV path (default: stdout)")
    bench.add_argument("--doublings", type=int, default=5)
    bench.add_argument("--frames", type=int, default=5)
    bench.add_argument("--warmup", type=int, default=3)
    bench.add_argument("--width", type=int, default=160)
    bench.add_argument("--height", type=int, default=120)
    bench.add_argument("--workers", type=int, default=1)

    demo = sub.add_parser("interchange-demo",
                          help="render poses streamed from a physics stub process")
    demo.add_argument("--scene", default=None,
                      help="glTF scene whose mesh nodes the stub drives "
                           "(default: built-in demo scene)")
    demo.add_argument("--frames", type=int, default=8)
    demo.add_argument("--nodes", type=int, default=3,
                      help="node count for the built-in scene (ignored with --scene)")
    demo.add_argument("--tick-hz", type=float, default=60.0)
    demo.add_argument("--out", default=None, help="optional image prefix")
    demo.add_argument("--shm", default=None, help="shared-memory region name")
    demo.add_argument("--width", type=int, default=128)
    demo.add_argument("--height", type=int, default=128)
    demo.add_argument("--pose-timeout", type=float, default=1.0,
                      help="seconds to wait for a fresh pose before reusing the last")
    demo.add_argument("--crash-after-ticks", type=int, default=None,
                      help="make the stub exit hard after N ticks (failure drill)")
    return parser


def _cmd_render(args) -> int:
    scene = load_gltf(args.scene)
    config = RenderConfig(
        width=args.width, height=args.height, msaa=args.msaa,
        fxaa=args.fxaa == "on", shadows=args.shadows == "on",
        overlay=args.overlay == "on", camera=args.camera, workers=args.workers,
        frustum_culling=args.frustum_culling == "on",
        backface_culling=args.backface_culling == "on",
        target_fps=args.target_fps)
    start = time.perf_counter()
    images, timings, _stats = run_frame_loop(
        scene, config, args.frames, output_prefix=args.out, image_format=args.format)
    # wall time: with two frames in flight the stage times overlap
    total_ms = (time.perf_counter() - start) * 1000.0
    if args.timing_csv:
        Path(args.timing_csv).write_text(timing_csv(timings))
    print(f"rendered {len(images)} frame(s) to {args.out}-frame-*.{args.format} "
          f"({total_ms:.1f} ms total)")
    return 0


def _cmd_bench(args) -> int:
    scene = load_gltf(args.scene)
    config = default_bench_config(width=args.width, height=args.height, workers=args.workers)
    records = run_bench(scene, max_doublings=args.doublings, frames=args.frames,
                        warmup=args.warmup, config=config)
    text = bench_csv(records)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(records)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_demo(args) -> int:
    region = args.shm or f"demo-{os.getpid()}"
    if args.scene:
        scene = load_gltf(args.scene)
        names = [node.name for node in scene.mesh_nodes()]
        if not names:
            raise SceneError("demo scene has no mesh nodes for the stub to drive")
    else:
        names = demo_node_names(args.nodes)
        scene = make_demo_scene(args.nodes)
    # paced, unlike render/bench: the demo models a live simulation feed
    config = RenderConfig(width=args.width, height=args.height, msaa=4,
                          fxaa=True, shadows=False, overlay=False,
                          target_fps=min(args.tick_hz, 60.0))

    unlink_region(region)  # reclaim leftovers from a dead run
    stop = multiprocessing.Event()
    proc = multiprocessing.Process(
        target=stub_writer_loop, args=(region, names, args.tick_hz, stop),
        kwargs={"crash_after_ticks": args.crash_after_ticks}, daemon=True)
    proc.start()

    reader = None
    deadline = time.monotonic() + 5.0
    while reader is None:
        try:
            reader = attach_table(region)
        except RegionError:
            if time.monotonic() > deadline:
                stop.set()
                proc.join(2.0)
                raise
            time.sleep(0.01)

    last_gen = -1

    def pose_source():
        nonlocal last_gen
        wait_until = time.monotonic() + args.pose_timeout
        while True:
            snapshot = reader.read_frame()
            if snapshot.generation != last_gen:
                last_gen = snapshot.generation
                return snapshot
            if not proc.is_alive():  # read first: the stub's last pose counts
                raise TimeoutError("the physics stub has exited")
            if time.monotonic() >= wait_until:
                raise TimeoutError("no fresh pose within the timeout")
            time.sleep(0.002)

    try:
        _images, _timings, stats = run_frame_loop(
            scene, config, args.frames, pose_source=pose_source,
            output_prefix=args.out)
    finally:
        stop.set()
        proc.join(5.0)
        reader.close()
        unlink_region(region)

    crashed = proc.exitcode not in (0, None)
    gens = ",".join(str(g) for g in stats.pose_generations)
    print(f"frames={stats.frames_rendered} warnings={stats.pose_warnings} "
          f"unmatched={stats.unmatched_poses} generations=[{gens}]")
    if crashed:
        print(f"physics stub exited with code {proc.exitcode}; "
              f"remaining frames reused the last stable pose", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("render", "interchange-demo") and args.frames < 1:
        parser.error("--frames must be at least 1")
    if args.command == "interchange-demo":
        if not 0.0 < args.tick_hz < math.inf:  # NaN too
            parser.error("--tick-hz must be positive and finite")
        if args.nodes < 1:
            parser.error("--nodes must be at least 1")
        if not args.pose_timeout >= 0.0:  # NaN too
            parser.error("--pose-timeout must be non-negative")
    if args.command == "bench":
        if args.doublings < 1:
            parser.error("--doublings must be at least 1")
        if args.frames < 5:
            parser.error("--frames must be at least 5 for stable statistics")
        if args.warmup < 0:
            parser.error("--warmup must be non-negative")
    try:
        if args.command == "render":
            return _cmd_render(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_demo(args)
    except (SceneError, ConfigurationError, RegionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
