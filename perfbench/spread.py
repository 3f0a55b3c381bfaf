#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload hammer --seeds 1-10

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartiles (`statistics.quantiles(n=4)`)
as a share of that median, next to the bound from BENCHMARK.json.  Runs go one
after another, never in parallel, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        line = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        if line is None or not line["correct"] or line["failed"]:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: ok, attempted {line['attempted']}", file=sys.stderr)

    print(f"{'metric':48s} {'median':>14s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "" if share < bound / 3 else "  <-- above bound/3"
        print(f"{name:48s} {med:14.6f} {share:8.4f} {bound:>6} {units[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
