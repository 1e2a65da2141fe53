"""Repository tooling tests: the scripts under tools/ reproduce what is checked in."""

import os
import subprocess
import sys
from pathlib import Path

import softrender


def test_make_scenes_reproduces_the_checked_in_assets(tmp_path, repo_root, scenes_dir):
    # every golden and pin that loads a scene rests on these bytes
    path = [str(Path(softrender.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(repo_root / "tools" / "make_scenes.py"), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0, proc.stderr
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(p.name for p in scenes_dir.glob("*.gltf"))
    assert made == ["bench.gltf", "demo.gltf", "triangle.gltf"]
    for name in made:
        assert (tmp_path / name).read_bytes() == (scenes_dir / name).read_bytes(), name
