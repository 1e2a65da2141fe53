#!/usr/bin/env python3
"""
Walk through the frame loop on a glTF scene, stage by stage.

Usage:
  python3 demos/render_walkthrough.py
  python3 demos/render_walkthrough.py --scene scenes/triangle.gltf --frames 2
  python3 demos/render_walkthrough.py --out /tmp/walk --msaa 8 --size 256x256

Loads the scene, prints what the loader found, renders a few frames with
shadows and FXAA on, and dumps per-stage timings plus the output files.
The same run twice produces byte-identical images; try it.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from softrender.framebuffer import ppm_bytes
from softrender.frameloop import RenderConfig, run_frame_loop, timing_csv
from softrender.gltf import load_gltf


def parse_size(text: str) -> tuple[int, int]:
    w, _, h = text.partition("x")
    return int(w), int(h)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--scene", default="scenes/demo.gltf")
    ap.add_argument("--frames", type=int, default=3)
    ap.add_argument("--size", default="192x144")
    ap.add_argument("--msaa", type=int, default=4, choices=(1, 2, 4, 8))
    ap.add_argument("--out", default="/tmp/softrender-walkthrough")
    args = ap.parse_args(argv)

    scene = load_gltf(Path(args.scene))
    print(f"scene: {args.scene}")
    print(f"  geometries {len(scene.geometries):3d}   total triangles "
          f"{scene.total_triangles()}")
    print(f"  nodes      {len(scene.nodes):3d}   cameras {len(scene.cameras)}   "
          f"lights {len(scene.lights)}")

    width, height = parse_size(args.size)
    config = RenderConfig(width=width, height=height, msaa=args.msaa,
                          fxaa=True, shadows=True, overlay=True)
    print(f"\nrendering {args.frames} frame(s) at {width}x{height} msaa{args.msaa}, "
          "shadows+fxaa+overlay on")
    images, timings, stats = run_frame_loop(scene, config, frames=args.frames,
                                            output_prefix=args.out)

    print("\nper-stage wall times:")
    print(timing_csv(timings))
    print(f"finalizers run: {stats.finalizers_run} (the multisample targets "
          "were released through the deletion queues at shutdown)")

    print("\noutputs:")
    for i, image in enumerate(images):
        path = f"{args.out}-frame-{i:04d}.ppm"
        print(f"  {path}  ({len(ppm_bytes(image))} bytes)")
    print("\nrun it again: the bytes will match exactly.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
