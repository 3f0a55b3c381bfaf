"""The package surface the benchmark under perfbench/ and plain imports rely on.

Tier-1 does not collect perfbench/selftest.py, so without these checks a
pruned export or a changed hook would break the benchmark unseen.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import listlabel
from listlabel import apma, core, harness, learned, pma, predictors

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("script", ["run.py", "selftest.py"])
def test_benchmark_imports_are_exported(script):
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "listlabel"
        for alias in node.names
    ]
    assert names, f"{script} imports nothing from listlabel"
    assert sorted(set(names) - set(listlabel.__all__)) == []


def test_package_surface_is_the_modules_own_lists():
    modules = [core, pma, apma, learned, predictors, harness]
    names = [name for module in modules for name in module.__all__]
    assert listlabel.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            obj = vars(module)[name]
            assert getattr(listlabel, name) is obj, name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_benchmark_selftest_passes():
    """perfbench's count, trace-attribution, gate and metric-name tests, run
    as their own pytest session; the two that launch run.py are left out.
    The session runs without PYTHONWARNDEFAULTENCODING: the benchmark's own
    file reads are its to fix."""
    env = {**SRC_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONWARNDEFAULTENCODING", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/selftest.py",
         "--deselect", "perfbench/selftest.py::test_cli_prints_every_end_to_end_metric",
         "--deselect", "perfbench/selftest.py::test_fails_without_program_sources"],
        cwd=ROOT, env=env,
        capture_output=True, encoding="utf-8", timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8 passed, 2 deselected" in proc.stdout, proc.stdout


def test_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, listlabel, listlabel.cli; print('numpy' in sys.modules)"],
        env=SRC_ENV, capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
