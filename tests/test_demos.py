"""Every script under demos/ runs to completion against the package and
prints exactly the bytes pinned in data/expected/demo-<name>.txt.

The demos import the same `listlabel` this process imported: `src/` when it
is on PYTHONPATH, the installed package when PYTHONPATH is unset.

To regenerate after an intended change, run this file as a script
(`PYTHONPATH=src python tests/test_demos.py`) and review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import listlabel

ROOT = Path(__file__).resolve().parents[1]
LIB = Path(listlabel.__file__).resolve().parents[1]  # the directory holding listlabel/
EXPECTED = ROOT / "tests" / "data" / "expected"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _run(demo: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(LIB), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)


def _expected(demo: str) -> Path:
    return EXPECTED / f"demo-{Path(demo).stem}.txt"


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == _expected(demo).read_bytes()


if __name__ == "__main__":
    for demo in DEMOS:
        proc = _run(demo)
        if proc.returncode != 0:
            sys.exit(f"{demo}: {proc.stderr.decode()}")
        _expected(demo).write_bytes(proc.stdout)
