"""Repository tooling tests: the scripts under tools/ reproduce what is checked
in, the scripts under framebench/ still import, the README's command lines
parse, and the package's source keeps its one matrix inversion."""

import argparse
import ast
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import softrender
from softrender import cli

REPO_ROOT = Path(__file__).resolve().parent.parent


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


def test_readme_recipes_parse():
    # the README's recipes are the only walk-throughs of the CLI, so each
    # `softrender` line of its sh blocks must stay a valid command line and
    # every subcommand must have one
    blocks = re.findall(r"^```sh\n(.*?)^```", (REPO_ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [line.strip() for line in lines if line.strip().startswith("softrender ")]
    parser = cli._build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {shlex.split(line)[1] for line in commands} == set(subcommands.choices)


def test_framebench_imports(monkeypatch):
    # --help runs every import of run.py (spans.py included) and stops; writer.py
    # does its work only under __main__, so importing it checks just its imports
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "framebench" / "run.py"), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(sys, "path", list(sys.path))  # writer.py prepends the repo's src
    spec = importlib.util.spec_from_file_location("framebench_writer",
                                                  REPO_ROOT / "framebench" / "writer.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def linalg_inv_sites(tree):
    """(function, line) of every np.linalg.inv reference in a module's syntax tree;
    function is the dotted name of the enclosing defs, "" at module level."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        refers = ((isinstance(node, ast.Attribute) and node.attr == "inv"
                   and ast.unparse(node.value).endswith("linalg"))
                  or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                      and any(alias.name == "inv" for alias in node.names)))
        if refers:
            sites.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return sites


def test_only_check_invertible_inverts_a_matrix():
    # a transform inverted anywhere else could fail as a LinAlgError or
    # render a NaN as garbage; check_invertible raises ValidationError instead
    package = Path(softrender.__file__).parent
    sites = [(path.name, func, line) for path in sorted(package.glob("*.py"))
             for func, line in linalg_inv_sites(ast.parse(path.read_text()))]
    assert [s for s in sites if s[:2] != ("scene.py", "check_invertible")] == []
    assert sites  # the walk does see check_invertible's own calls
