"""The benchmark under perfbench/ only imports names the package exports.

Tier-1 does not collect perfbench/selftest.py, so without this check a
pruned export would break the benchmark unseen.
"""

import ast
from pathlib import Path

import pytest

import listlabel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
