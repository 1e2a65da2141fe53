"""Scaling benchmark harness tests (small sizes: trends are covered by
the acceptance suite, mechanics are covered here)."""

import numpy as np

import pytest

from softrender.bench import BENCH_CSV_HEADER, bench_csv, default_bench_config, run_bench
from softrender.errors import SceneError
from softrender.frameloop import RenderConfig
from softrender.procedural import make_bench_scene, make_triangle_scene
from softrender.scene import Scene


def tiny_config():
    return RenderConfig(width=32, height=24, msaa=1, fxaa=False, shadows=False,
                        overlay=False, workers=1)


def test_one_record_per_doubling_step():
    scene = make_triangle_scene()
    records = run_bench(scene, max_doublings=2, frames=2, warmup=1,
                        config=tiny_config())
    assert [r.doublings for r in records] == [0, 1, 2]


def test_single_doubling_gives_two_records():
    records = run_bench(make_triangle_scene(), max_doublings=1, frames=2,
                        warmup=0, config=tiny_config())
    assert len(records) == 2


def test_triangle_counts_double_each_step():
    scene = make_bench_scene()
    base = scene.total_triangles()
    records = run_bench(scene, max_doublings=2, frames=1, warmup=0,
                        config=tiny_config())
    assert [r.triangles for r in records] == [base, base * 2, base * 4]


def test_timings_are_finite_and_nonnegative():
    records = run_bench(make_triangle_scene(), max_doublings=1, frames=3,
                        warmup=1, config=tiny_config())
    for r in records:
        for field in ("tlas_mean_ms", "tlas_std", "main_mean_ms", "main_std",
                      "post_mean_ms", "post_std", "overlay_mean_ms", "overlay_std"):
            v = getattr(r, field)
            assert np.isfinite(v)
            assert v >= 0.0


def test_meshless_scene_rejected():
    with pytest.raises(SceneError):
        run_bench(Scene(), max_doublings=1, frames=2, warmup=0,
                  config=tiny_config())


def test_source_scene_not_mutated_by_run():
    scene = make_bench_scene()
    nodes_before = [n.name for n in scene.nodes]
    tris_before = scene.total_triangles()
    locals_before = [n.local.copy() for n in scene.nodes]
    run_bench(scene, max_doublings=2, frames=1, warmup=0, config=tiny_config())
    assert [n.name for n in scene.nodes] == nodes_before
    assert scene.total_triangles() == tris_before
    for node, before in zip(scene.nodes, locals_before):
        np.testing.assert_array_equal(node.local, before)


def test_csv_header_and_shape():
    assert BENCH_CSV_HEADER == ("doublings,triangles,tlas_mean_ms,tlas_std,"
                                "main_mean_ms,main_std,post_mean_ms,post_std,"
                                "overlay_mean_ms,overlay_std")
    records = run_bench(make_triangle_scene(), max_doublings=1, frames=2,
                        warmup=0, config=tiny_config())
    csv = bench_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 10
        int(fields[0])
        int(fields[1])
        [float(f) for f in fields[2:]]
    assert csv.endswith("\n")


def test_default_config_shape():
    cfg = default_bench_config()
    assert (cfg.width, cfg.height) == (160, 120)
    assert cfg.msaa == 4
    assert cfg.fxaa is True
    assert cfg.shadows is False
    assert cfg.overlay is True
    assert cfg.target_fps == 0.0  # benchmark frames are never paced
    assert cfg.frames_in_flight == 1  # stages are timed one at a time
