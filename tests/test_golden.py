"""`llabench` CSV output pinned byte for byte.

The expected files under data/expected/ were written by the CLI before the
library surface was pruned; `synth-hammer` and `synth-random`, whose blind
rows are mostly merge relabels, were written before merges gathered and
counted their entries in whole-list passes; `synth-sequential`, which drives
the split layout of the blind `apma` row, was written before `Apma` was cut
down to its heat histogram; the two one-structure `robustness` cases were
written before every learned structure shared each corrupted vector.  Any
change to relabel counts, merge counts, predictions, corruption sampling or
CSV formatting shows up here as a byte difference.  To regenerate after an intended change, run
this file as a script (`PYTHONPATH=src python tests/test_golden.py`) and
review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import listlabel
from listlabel.cli import main as cli_main
from listlabel.harness import SYNTHETIC_KINDS

DATA = Path(__file__).resolve().parent / "data"
EXPECTED = DATA / "expected"
ACTIONS = ["--dataset", str(DATA / "actions_sample.tsv"), "--value-col", "1", "--ts-col", "3"]
ROBUSTNESS = ["robustness", *ACTIONS, "--k", "8", "--t", "0,25,100", "--repeats", "3", "--seed", "4"]

CASES = {
    "table": ["table", *ACTIONS, "--k", "8"],
    "scaling": ["scaling", *ACTIONS, "--k-min", "4", "--k-max", "8"],
    "curve": ["curve", *ACTIONS, "--test-k", "8", "--fractions", "0,10,50,100"],
    "robustness": ROBUSTNESS,
    "robustness-pma": [*ROBUSTNESS, "--structure", "pma"],
    "robustness-learned-apma": [*ROBUSTNESS, "--structure", "learned-apma"],
    "synth-noisy-eta": ["synth", "--kind", "noisy-eta", "--n", "4096", "--eta", "64", "--seed", "3"],
    "synth-stochastic": [
        "synth", "--kind", "stochastic", "--n", "4096", "--mu", "0", "--s", "16", "--seed", "2",
    ],
    "synth-hammer": ["synth", "--kind", "hammer", "--n", "4096"],
    "synth-random": ["synth", "--kind", "random", "--n", "4096"],
    "synth-sequential": ["synth", "--kind", "sequential", "--n", "4096"],
}


def test_every_synthetic_kind_has_a_golden_case():
    assert {f"synth-{kind}" for kind in SYNTHETIC_KINDS} <= CASES.keys()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_csv_bytes_unchanged(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli_main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (EXPECTED / f"{name}.csv").read_bytes()


def test_default_out_writes_the_csv_bytes_to_stdout():
    # The subprocess imports the listlabel this process imported: src/ when
    # it is on PYTHONPATH, the installed package when PYTHONPATH is unset.
    lib = str(Path(listlabel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [lib, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "listlabel.cli", *CASES["synth-hammer"]],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == (EXPECTED / "synth-hammer.csv").read_bytes()


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        if cli_main([*argv, "--out", str(EXPECTED / f"{name}.csv")]) != 0:
            sys.exit(f"{name}: llabench failed")
