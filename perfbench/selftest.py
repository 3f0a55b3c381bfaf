"""Self-tests of the benchmark: it measures the program `llabench` reports on.

    python3 -m pytest -q perfbench/selftest.py

At small sizes each workload's per-structure relabel and merge counts must
equal the rows `run_synthetic` and `run_table` produce on the same inputs,
the traced pass must reproduce the untraced one and attribute every relabel,
and the correctness gate must catch a wrong result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from listlabel import (  # noqa: E402
    DatasetSpec, LearnedLLA, MovementLedger, run_synthetic, run_table,
)

HERE = Path(__file__).resolve().parent
N = 2**9
K = 9


def _counts_match(passed: run.PassResult, rows) -> None:
    assert [r.structure for r in rows] == list(passed.runs)
    for row in rows:
        got = passed.runs[row.structure]
        assert got.relabels / got.inserts == row.amortized_cost, row.structure
        assert got.merges == row.merges, row.structure


@pytest.mark.parametrize("workload,kind,eta", [
    ("exact-random", "noisy-eta", 0),
    ("hammer", "hammer", None),
])
def test_synthetic_counts_equal_run_synthetic(tmp_path, workload, kind, eta):
    seed = 7
    passed = run.run_pass(run.prepare(workload, seed, tmp_path, n=N), traced=False)
    assert passed.errors == []
    _counts_match(passed, run_synthetic(kind, N, seed=seed, eta=eta))


def test_drift_counts_equal_run_table(tmp_path):
    inputs = run.prepare("drift-ids", 5, tmp_path, k=K)
    passed = run.run_pass(inputs, traced=False)
    assert passed.errors == []
    rows = run_table(DatasetSpec(inputs.table, value_column=1, timestamp_column=3), K)
    _counts_match(passed, rows)
    assert passed.eta_max == rows[-1].eta_max
    assert passed.runs["learned-pma"].merges > 0


@pytest.mark.parametrize("workload", ["exact-random", "hammer", "drift-ids"])
def test_traced_pass_reproduces_and_attributes(tmp_path, workload):
    inputs = run.prepare(workload, 3, tmp_path, n=N, k=K)
    plain = run.run_pass(inputs, traced=False)
    traced = run.run_pass(inputs, traced=True)
    assert plain.errors == [] and traced.errors == []
    assert run.consistency_errors([plain, traced]) == []
    for structure, r in traced.runs.items():
        c = r.trace.c
        assert c["box_moves"] + c["merge_moves"] == r.relabels, structure
        assert sum(r.trace.heights.values()) == r.merges, structure
        assert c["routes"] == r.inserts, structure
    layers = run.per_layer([traced], [plain])
    assert set(layers) == set(run.PER_LAYER)


def test_gate_catches_a_wrong_key(tmp_path):
    inputs = run.prepare("exact-random", 1, tmp_path, n=64)
    ledger = MovementLedger(first_placement_excluded=True)
    lla = LearnedLLA(65, ledger=ledger)
    lla.insert(run.MIN_RAW, 0, 1)
    ledger.reset()
    for i, (raw, rank) in enumerate(zip(inputs.raws, inputs.ranks)):
        lla.insert(raw, i + 1, rank + 1)
    assert run.check(lla, ledger, inputs.raws, "learned-pma") == []
    wrong = list(inputs.raws)
    wrong[10] += 1
    assert run.check(lla, ledger, wrong, "learned-pma")
    assert run.check(lla, ledger, inputs.raws[:-1], "learned-pma")


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.WORKLOADS)


def test_cli_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hammer", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hammer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
