"""The committed benchmark trajectory: one `BENCH_<workload>.json` per
perfbench workload at the repo root.

Each file is a list of entries in PR order.  An entry records one set of
alternating parent/change perfbench pairs on its workload: the PR number,
the parent and change commits, the command with its seeds, `--seconds` and
pair count, the per-metric medians of both sides (with the interquartile
range, as quartile bounds or as a width, where one was stated), and the
metric the PR claimed a gain on, if any.  `backfilled` marks an entry copied
from a CHANGES.md line rather than written by its own PR.  `change` is null
only where the entry was written in the commit it describes, so only the
newest PR's entries may lack it.  One PR may have more than one entry per
workload (say, a second seed), so PR numbers never decrease, and the
entries of one PR share its `parent` and `change`.
"""

import json
import re
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-random", "hammer", "drift-ids")
KEYS = {"pr", "parent", "change", "backfilled", "command", "seeds", "seconds", "pairs",
        "claimed", "metrics", "note"}
SHA = re.compile("[0-9a-f]{40}")
END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x >= 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_file_entries(workload):
    entries = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert isinstance(entries, list) and entries
    for e in entries:
        where = (workload, e.get("pr"))
        assert set(e) == KEYS, where
        assert isinstance(e["pr"], int) and e["pr"] > 0, where
        assert SHA.fullmatch(e["parent"]), where
        assert e["change"] is None or SHA.fullmatch(e["change"]), where
        assert isinstance(e["backfilled"], bool) and isinstance(e["note"], str), where
        assert e["command"].startswith(f"python3 perfbench/run.py --workload {workload} "), where
        assert e["seeds"] and all(isinstance(s, int) for s in e["seeds"]), where
        assert _number(e["seconds"]) and e["seconds"] > 0, where
        assert isinstance(e["pairs"], int) and e["pairs"] >= 1, where
        assert e["metrics"] and set(e["metrics"]) <= END_TO_END, where
        assert e["claimed"] is None or e["claimed"] in e["metrics"], where
        for name, metric in e["metrics"].items():
            assert {"parent", "change"} <= set(metric) <= {"parent", "change", "lower_in"}, \
                (where, name)
            for side in (metric["parent"], metric["change"]):
                assert "median" in side and set(side) <= {"median", "iqr", "values"}, (where, name)
                assert _number(side["median"]), (where, name)
                iqr = side.get("iqr", 0)
                assert _number(iqr) or (len(iqr) == 2 and all(map(_number, iqr))
                                        and iqr[0] <= side["median"] <= iqr[1]), (where, name)
                assert len(side.get("values", [0] * e["pairs"])) == e["pairs"], (where, name)
            if "lower_in" in metric:
                lower, pairs = metric["lower_in"]
                assert pairs == e["pairs"] and 0 <= lower <= pairs, (where, name)
    prs = [e["pr"] for e in entries]
    assert prs == sorted(prs), prs
    assert all(e["change"] or e["pr"] == prs[-1] for e in entries), \
        "only the newest PR's entries may lack their change"
    for pr, same in groupby(entries, key=itemgetter("pr")):
        assert len({(e["parent"], e["change"]) for e in same}) == 1, \
            (workload, pr, "entries of one PR must share parent and change")
