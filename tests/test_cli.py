"""Command line tests.

Most cases drive cli.main(argv) in process for speed and capture exit
codes directly; one smoke test goes through a real subprocess via
``python -m softrender`` to cover the console entry path.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

import softrender
from softrender.cli import main
from softrender.framebuffer import read_ppm


def run_cli(*argv):
    return main(list(argv))


def ppm_files(tmp_path, prefix):
    return sorted(tmp_path.glob(f"{prefix}-frame-*.ppm"))


# ------------------------------------------------------------- render

def test_render_writes_numbered_frames(tmp_path, triangle_gltf, capsys):
    out = tmp_path / "run"
    code = run_cli("render", "--scene", str(triangle_gltf), "--out", str(out),
                   "--frames", "2", "--width", "48", "--height", "40",
                   "--msaa", "2", "--overlay", "off")
    assert code == 0
    files = ppm_files(tmp_path, "run")
    assert [f.name for f in files] == ["run-frame-0000.ppm", "run-frame-0001.ppm"]
    img = read_ppm(files[0])
    assert (img.width, img.height) == (48, 40)
    assert "2 frame(s)" in capsys.readouterr().out


def test_render_is_deterministic_across_invocations(tmp_path, triangle_gltf):
    args = ("render", "--scene", str(triangle_gltf), "--frames", "1",
            "--width", "40", "--height", "40", "--overlay", "off")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    a = (tmp_path / "a-frame-0000.ppm").read_bytes()
    b = (tmp_path / "b-frame-0000.ppm").read_bytes()
    assert a == b


def test_render_timing_csv(tmp_path, triangle_gltf):
    out = tmp_path / "r"
    csv_path = tmp_path / "times.csv"
    code = run_cli("render", "--scene", str(triangle_gltf), "--out", str(out),
                   "--frames", "3", "--width", "32", "--height", "32",
                   "--timing-csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "frame,tlas_build_ms,main_pass_ms,post_process_ms,overlay_ms"
    assert len(lines) == 4


def test_render_rejects_bad_msaa(tmp_path, triangle_gltf):
    # and frame counts that render nothing
    for flag, value in (("--msaa", "3"), ("--frames", "0"), ("--frames", "-2")):
        with pytest.raises(SystemExit) as exc:
            run_cli("render", "--scene", str(triangle_gltf),
                    "--out", str(tmp_path / "x"), flag, value)
        assert exc.value.code == 2, (flag, value)


def test_render_rejects_non_finite_target_fps(tmp_path, triangle_gltf, capsys):
    for value in ("nan", "inf"):
        code = run_cli("render", "--scene", str(triangle_gltf), "--out", str(tmp_path / "x"),
                       "--frames", "1", "--width", "8", "--height", "8", "--target-fps", value)
        assert code == 1, value
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: target_fps"), (value, err)
    assert not list(tmp_path.glob("x-frame-*"))


def test_render_requires_scene_and_out(tmp_path, triangle_gltf):
    with pytest.raises(SystemExit) as exc:
        run_cli("render", "--scene", str(triangle_gltf))
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("render", "--out", str(tmp_path / "x"))
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("explode")
    assert exc.value.code == 2


def test_render_missing_scene_file_is_runtime_error(tmp_path, capsys):
    code = run_cli("render", "--scene", str(tmp_path / "absent.gltf"),
                   "--out", str(tmp_path / "x"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_render_invalid_gltf_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.gltf"
    bad.write_text("{not json")
    code = run_cli("render", "--scene", str(bad), "--out", str(tmp_path / "x"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_render_malformed_gltf_is_runtime_error(tmp_path, triangle_gltf, capsys):
    doc = json.loads(triangle_gltf.read_text())
    del doc["accessors"][0]["type"]
    bad = tmp_path / "bad.gltf"
    bad.write_text(json.dumps(doc))
    code = run_cli("render", "--scene", str(bad), "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed glTF document")


def test_module_entry_point_subprocess(tmp_path, triangle_gltf):
    out = tmp_path / "sub"
    # the child imports the package this process imported, installed or not
    path = [str(Path(softrender.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "softrender", "render",
         "--scene", str(triangle_gltf), "--out", str(out),
         "--frames", "1", "--width", "32", "--height", "32"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub-frame-0000.ppm").exists()


# -------------------------------------------------------------- bench

def test_bench_validates_usage_before_loading(tmp_path):
    # usage checks fire even though the scene path does not exist
    for argv in (
        ("bench", "--scene", "nope.gltf", "--doublings", "0"),
        ("bench", "--scene", "nope.gltf", "--frames", "4"),
        ("bench", "--scene", "nope.gltf", "--warmup", "-1"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


def test_bench_writes_csv_and_leaves_scene_untouched(tmp_path, triangle_gltf):
    before = hashlib.sha256(triangle_gltf.read_bytes()).hexdigest()
    csv_path = tmp_path / "bench.csv"
    code = run_cli("bench", "--scene", str(triangle_gltf), "--out", str(csv_path),
                   "--doublings", "1", "--frames", "5", "--warmup", "0",
                   "--width", "32", "--height", "24")
    assert code == 0
    assert hashlib.sha256(triangle_gltf.read_bytes()).hexdigest() == before
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("doublings,triangles,")
    assert len(lines) == 3  # one row per doubling step 0..1
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1"]


def test_bench_stdout_when_no_out(tmp_path, triangle_gltf, capsys):
    code = run_cli("bench", "--scene", str(triangle_gltf), "--doublings", "1",
                   "--frames", "5", "--warmup", "0",
                   "--width", "24", "--height", "16")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("doublings,triangles,")


# --------------------------------------------------------------- demo

def demo_region():
    return f"test-cli-{uuid.uuid4().hex[:10]}"


def test_demo_happy_path_prints_generations(capsys):
    code = run_cli("interchange-demo", "--frames", "3", "--nodes", "2",
                   "--tick-hz", "200", "--width", "32", "--height", "32",
                   "--shm", demo_region())
    assert code == 0
    out = capsys.readouterr().out
    assert "frames=3" in out
    m = re.search(r"generations=\[([\d,]*)\]", out)
    assert m, out
    gens = [int(g) for g in m.group(1).split(",") if g]
    assert len(gens) == 3
    assert all(g % 2 == 0 for g in gens)
    assert gens == sorted(gens)
    assert len(set(gens)) == 3  # each frame waited for a fresh pose


def test_demo_renders_frames_to_disk(tmp_path):
    out = tmp_path / "demo"
    code = run_cli("interchange-demo", "--frames", "2", "--nodes", "2",
                   "--tick-hz", "200", "--width", "32", "--height", "32",
                   "--out", str(out), "--shm", demo_region())
    assert code == 0
    assert (tmp_path / "demo-frame-0000.ppm").exists()
    assert (tmp_path / "demo-frame-0001.ppm").exists()


def test_demo_with_gltf_scene(demo_gltf, capsys):
    code = run_cli("interchange-demo", "--scene", str(demo_gltf),
                   "--frames", "2", "--tick-hz", "200",
                   "--width", "32", "--height", "32", "--shm", demo_region())
    assert code == 0
    assert "frames=2" in capsys.readouterr().out


def test_demo_rejects_nonpositive_tick_rate():
    # and the other counts that render nothing, before the stub starts
    for flag, value in (("--tick-hz", "0"), ("--tick-hz", "nan"), ("--tick-hz", "inf"),
                        ("--frames", "0"), ("--nodes", "0"),
                        ("--pose-timeout", "-1"), ("--pose-timeout", "nan")):
        with pytest.raises(SystemExit) as exc:
            run_cli("interchange-demo", flag, value)
        assert exc.value.code == 2, (flag, value)


def test_demo_stub_crash_reported(capsys):
    code = run_cli("interchange-demo", "--frames", "4", "--nodes", "2",
                   "--tick-hz", "500", "--width", "24", "--height", "24",
                   "--pose-timeout", "0.15", "--crash-after-ticks", "1",
                   "--shm", demo_region())
    assert code == 1
    captured = capsys.readouterr()
    assert "exited with code 3" in captured.err
    m = re.search(r"warnings=(\d+)", captured.out)
    assert m and int(m.group(1)) >= 1  # frames after the crash reuse poses


def test_demo_stops_waiting_once_the_stub_has_exited(capsys):
    start = time.monotonic()
    code = run_cli("interchange-demo", "--frames", "4", "--nodes", "2",
                   "--width", "24", "--height", "24",
                   "--pose-timeout", "10", "--crash-after-ticks", "1",
                   "--shm", demo_region())
    elapsed = time.monotonic() - start
    assert code == 1
    m = re.search(r"warnings=(\d+)", capsys.readouterr().out)
    assert m and int(m.group(1)) >= 1
    assert elapsed < 10.0, elapsed  # not one --pose-timeout per frame


def test_demo_scene_without_meshes_is_runtime_error(tmp_path, capsys):
    doc = {
        "asset": {"version": "2.0"},
        "scene": 0,
        "scenes": [{"nodes": [0]}],
        "nodes": [{"name": "cam", "camera": 0}],
        "cameras": [{"type": "perspective",
                     "perspective": {"yfov": 1.0, "znear": 0.1, "zfar": 10.0}}],
    }
    path = tmp_path / "empty.gltf"
    path.write_text(json.dumps(doc))
    code = run_cli("interchange-demo", "--scene", str(path), "--frames", "1",
                   "--shm", demo_region())
    assert code == 1
    assert "no mesh nodes" in capsys.readouterr().err
