"""Span recorder for the traced benchmark run.

The recorder replaces module-level names that `softrender.frameloop` and
`softrender.raster` look up at call time with wrappers that record one
span per call: (name, start, end, parent span index, frame id).  Counts
are recorded at the same boundaries, keyed by frame.  Everything stays in
memory until `write_jsonl` runs at the end, and `restore` puts the
original functions back.

Geometry and coverage are not split out: `raster._geometry_stage` is
wrapped only to count the triangles that reach the raster loop, so both
stay inside the main pass's self time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


def _count_tlas_instances(tracer, args, result):
    tracer.count("accel.tlas_instances", len(args[0]))


def _count_unmatched(tracer, args, result):
    tracer.count("scene.unmatched", int(result))


def _count_bytes(tracer, args, result):
    tracer.count("framebuffer.bytes_written", result.stat().st_size)


def _count_fragments(tracer, args, result):
    tracer.count("shading.fragments", len(args[0].position))


def _count_shadow(tracer, args, result):
    tracer.count("accel.shadow_rays", 1)
    tracer.count("accel.shadow_occluded", int(result == 0.0))


def _count_triangles(tracer, args, result):
    tracer.count("raster.triangles", result.count)


# (module, attribute, span name or None for count only, counter)
WRAPPED = [
    ("frameloop", "build_scene_blases", "accel.blas_build", None),
    ("frameloop", "pack_vertex_arena", "raster.arena", None),
    ("frameloop", "apply_transform_table", "scene.apply", _count_unmatched),
    ("frameloop", "make_tlas_instances", "accel.tlas_build", None),
    ("frameloop", "build_tlas", "accel.tlas_build", _count_tlas_instances),
    ("frameloop", "build_draw_list", "raster.draw_list", None),
    ("frameloop", "main_pass", "raster.main_pass", None),
    ("frameloop", "resolve_msaa", "framebuffer.resolve", None),
    ("frameloop", "fxaa_pass", "fxaa.fxaa", None),
    ("frameloop", "overlay_pass", "overlay.overlay", None),
    ("frameloop", "write_image", "framebuffer.write", _count_bytes),
    ("raster", "_geometry_stage", None, _count_triangles),
    ("raster", "shade_direct", "shading.shade", _count_fragments),
    ("raster", "reinhard_tonemap", "shading.shade", None),
    ("raster", "linear_to_srgb", "shading.shade", None),
    ("raster", "shadow_visibility", "accel.shadow", _count_shadow),
]


class Tracer:
    def __init__(self):
        self.spans = []   # (name, start, end, parent index or None, frame)
        self.counts = {}  # (frame, name) -> int
        self.frame = -1   # -1 = set-up, before the first frame
        self.missing = []
        self._stack = []
        self._patches = []

    def count(self, name: str, n: int) -> None:
        key = (self.frame, name)
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.frame)

    def _wrapper(self, fn, name, counter):
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every name in WRAPPED that its module still has.

        A name the program no longer has is listed in `missing` and its
        spans and counts read zero.
        """
        for mod_name, attr, name, counter in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, counter))

    def restore(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path, frames) -> None:
        """frames: [(frame id, start, end)]; written as frameloop.frame spans."""
        with open(path, "w") as f:
            for fid, start, end in frames:
                f.write(json.dumps({"name": "frameloop.frame", "start": start, "end": end,
                                    "parent": None, "frame": fid}) + "\n")
            for i, (name, start, end, parent, fid) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "frame": fid}) + "\n")
            for (fid, name), n in sorted(self.counts.items()):
                f.write(json.dumps({"count": name, "value": n, "frame": fid}) + "\n")
