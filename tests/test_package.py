"""Package-wide checks on the source tree and on what the CLI imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements():
    # python -O strips assert statements, so runtime invariants must raise
    # package errors instead
    found = []
    for path in sorted((SRC / "wfduality").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_only_rngstreams_splits_batches():
    # the replicate split into batches is coded once, in
    # rngstreams.run_batches; every other module goes through it
    found = []
    for path in sorted((SRC / "wfduality").rglob("*.py")):
        if path.name == "rngstreams.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else \
                    getattr(fn, "id", None)
                if name == "batches":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_leaves_out_scipy():
    # scipy took most of the CLI's start-up time, and the runtime needs
    # numpy only: no scipy module may be loaded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, wfduality.cli; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    modules = ast.literal_eval(out)
    assert "wfduality.cli" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_cli_import_loads_only_stdlib_numpy_and_click():
    # every module the CLI's import adds belongs to the standard library,
    # numpy, click or the package; the difference is taken because the
    # interpreter's site may load other packages before any import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; before = set(sys.modules); import wfduality.cli; "
            "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = ast.literal_eval(out)
    assert "wfduality.cli" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "click", "wfduality"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []
