"""Pose writer for the pose_stream workload, run as its own process.

  python3 writer.py REGION NODES HZ START_TICK TICKS

Precomputes TICKS poses of `physics_stub_step` for the roster
body0..body{NODES-1}, starting at START_TICK, then creates the region and
publishes one pose per tick on the open-loop schedule t0 + i / HZ,
whatever the reader does.  It prints "ready" after the first publish.
Writing a line to stdin or closing it stops the writer; it then prints
one JSON line {"t0": ..., "published": [...]} with the monotonic time at
which each generation became visible (generation 2 * (i + 1) for tick
START_TICK + i) and unlinks the region on every exit path.
"""

from __future__ import annotations

import json
import math
import select
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from softrender.interchange import create_table, unlink_region  # noqa: E402
from softrender.procedural import demo_node_names  # noqa: E402


def stub_rotations(nodes: int, start_tick: int, ticks: int):
    """(cos, sin) of physics_stub_step's angle 0.1 * tick + k, as (ticks, nodes).

    math.cos/math.sin, as the stub uses, so every published matrix is
    bit-identical to the stub's own.
    """
    angles = 0.1 * np.arange(start_tick, start_tick + ticks)[:, None] + np.arange(nodes)[None, :]
    flat = angles.ravel().tolist()
    cos = np.array([math.cos(a) for a in flat]).reshape(angles.shape)
    sin = np.array([math.sin(a) for a in flat]).reshape(angles.shape)
    return cos, sin


def stub_matrices(cos, sin) -> np.ndarray:
    """translate(k, 0, 0) @ rotate_z(angle) for every node, (nodes, 4, 4)."""
    m = np.zeros((len(cos), 4, 4))
    m[:, 0, 0] = cos
    m[:, 0, 1] = -sin
    m[:, 1, 0] = sin
    m[:, 1, 1] = cos
    m[:, 0, 3] = np.arange(len(cos))
    m[:, 2, 2] = 1.0
    m[:, 3, 3] = 1.0
    return m


def _stop_requested(timeout) -> bool:
    """Wait up to timeout seconds (None: forever) for a stop on stdin."""
    ready, _, _ = select.select([sys.stdin], [], [], None if timeout is None else max(timeout, 0.0))
    return bool(ready)


def main(argv) -> int:
    region, nodes, hz, start_tick, ticks = argv[0], int(argv[1]), float(argv[2]), \
        int(argv[3]), int(argv[4])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still unlink the region
    names = demo_node_names(nodes)
    cos, sin = stub_rotations(nodes, start_tick, ticks)
    published = []
    writer = None
    try:
        writer = create_table(region, names)
        t0 = time.monotonic()
        for i in range(ticks):
            if _stop_requested(t0 + i / hz - time.monotonic()):
                break
            writer.write_frame(zip(names, stub_matrices(cos[i], sin[i])))
            published.append(time.monotonic())
            if i == 0:
                print("ready", flush=True)
        else:
            _stop_requested(None)  # poses exhausted: hold the last one until stopped
        print(json.dumps({"t0": t0, "published": published}), flush=True)
    finally:
        if writer is not None:
            writer.close(unlink=True)
        unlink_region(region)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
