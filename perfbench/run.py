#!/usr/bin/env python3
"""Offline benchmark for listlabel: CPU time and relabels per insert.

    python3 perfbench/run.py --workload exact-random --seed 1 --seconds 20 --trace 0

One process, one synchronous client: each insert is issued after the previous
one returns.  A run generates its workload from the seed (set-up), then
repeats passes until `--seconds` have gone by.  A pass drives the public
library surface the way `llabench` does -- for `drift-ids` that is
`load_dataset`, `select_predictor` and `predictor1`/`predictor2` first --
and loads every structure in STRUCTURES: a `LearnedLLA` over `Pma` or `Apma`
boxes, sentinel first, ledger reset, ranks shifted by one; the blind rows
route everything with rank 1.

With `--trace 0` every pass is untraced and the run reports the end-to-end
metrics, medians over passes, every timing calibrated against a fixed
reference kernel (see `calibrate`).  With `--trace 1` untraced and traced passes
alternate and the run reports per-layer metrics from the traced passes: the
traced pass times the calls into each module from outside (`route` and
`merge_parent` wrapped on the instance, box `insert`/`init` wrapped by the
factory, merge heights from `merge_listener`).  Every pass is checked for
correctness.  The last line of stdout is one JSON object; the full result,
with an environment stamp, goes to `perfbench/results/`, and a traced run
also writes the merge-height histograms and per-layer totals beside it.
See perfbench/README.md for the metric list.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fail rather than fall back to some installed copy: the benchmark measures
# the sources of the checkout it sits in.
if not (SRC / "listlabel" / "__init__.py").is_file():
    raise SystemExit(f"run.py: no listlabel sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from listlabel import (  # noqa: E402
    MIN_RAW,
    STRUCTURES,
    Apma,
    DatasetSpec,
    LearnedLLA,
    MovementLedger,
    Pma,
    SequenceSlice,
    load_dataset,
    predictor1,
    predictor2,
    select_predictor,
)

import workloads  # noqa: E402

RESULTS = HERE / "results"
SETUP_REPEATS = 3
BLOCK = 256  # inserts per process-CPU reading
EXACT_WORKLOADS = ("exact-random", "hammer")
# Timings are reported at the speed at which the reference kernel below takes
# this much CPU time (about its median on a 2-vCPU Xeon VM, CPython 3.11.7).
REF_KERNEL_S = 0.004


def _kernel() -> int:
    """Fixed pure-Python work that never changes with the program."""
    a = list(range(64))
    s = 0
    for i in range(30000):
        j = (i * 7) & 63
        s += a[j] if a[j] < i else -a[j]
        a[j] = i
    return s


def calibrate() -> float:
    """CPU seconds of the reference kernel now: the median of three runs.

    The host is shared, and how fast it runs this process shifts by tens of
    percent from one minute to the next.  CPU time of the kernel, taken next to each piece of
    measured work, moves with it; every timing is scaled by
    REF_KERNEL_S / calibrate() so that runs taken minutes apart compare.
    """
    times = []
    for _ in range(3):
        t0 = time.process_time()
        _kernel()
        times.append(time.process_time() - t0)
    return median(times)


CLOCKS = {
    "scale": "every timing is multiplied by REF_KERNEL_S / (CPU time of the "
             "reference kernel measured next to it)",
    "setup_s": "time.process_time around a fresh import of listlabel plus input "
               f"generation; the median of {SETUP_REPEATS} repeats",
    "startup_cpu_s": "time.process_time from process start through the first imports",
    "run_s": "time.process_time per stage and per block of inserts; "
             "each one's median over the passes, summed",
    "insert_us": f"time.process_time per block of {BLOCK} inserts; each block's "
                 "median over the passes, summed, / inserts",
    "insert_p50_us, insert_p99_us": "time.thread_time_ns around each insert call; "
                                    "each insert's median over the passes",
    "learned.*_us, <box>.*_us": "time.thread_time_ns around each wrapped call",
    "harness.*_s, predictors.*_s": "time.process_time around each direct call",
    "peak_rss_mb": "resource.getrusage(RUSAGE_SELF).ru_maxrss after the first pass",
}


def box_engine(structure: str) -> str:
    return "apma" if structure.endswith("apma") else "pma"


END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    **{f"insert_us.{s}": "us" for s in STRUCTURES},
    "insert_p50_us.pma": "us",
    "insert_p50_us.learned-pma": "us",
    "insert_p99_us.pma": "us",
    "insert_p99_us.learned-pma": "us",
    "relabels_per_insert.pma": "relabels/insert",
    "relabels_per_insert.apma": "relabels/insert",
    # The learned rows relabel nothing under exact predictions; counting the
    # first placement too keeps the metric above zero on every workload.
    "moves_per_insert.learned-pma": "moves/insert",
    "moves_per_insert.learned-apma": "moves/insert",
}


def _layer_units() -> dict[str, str]:
    units = {}
    for s in STRUCTURES:
        b = box_engine(s)
        units.update({
            f"learned.route_us.{s}": "us",
            f"learned.route_override_share.{s}": "share",
            f"learned.merge_us.{s}": "us",
            f"learned.merge_relabels_per_insert.{s}": "relabels/insert",
            f"learned.merges.{s}": "count",
            f"learned.wrapper_self_us.{s}": "us",
            f"{b}.insert_us.{s}": "us",
            f"{b}.relabels_per_insert.{s}": "relabels/insert",
            f"{b}.init_us.{s}": "us",
            f"{b}.new_us.{s}": "us",
        })
    units.update({
        "harness.load_dataset_s": "s",
        "predictors.select_predictor_s": "s",
        "predictors.predict_s": "s",
        "predictors.eta_max": "ranks",
        "predictors.chose_predictor2": "flag",
        "trace.overhead_share": "share",
    })
    return units


PER_LAYER = _layer_units()


# ----------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    workload: str
    raws: list[int] | None = None      # synthetic streams: keys and exact ranks
    ranks: list[int] | None = None
    table: Path | None = None          # drift-ids: the generated table
    k: int = workloads.DRIFT_K


def prepare(workload: str, seed: int, workdir: Path, n: int | None = None,
            k: int | None = None) -> Inputs:
    """Generate one workload's inputs from its seed."""
    if workload == "drift-ids":
        k = workloads.DRIFT_K if k is None else k
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"drift-ids-seed{seed}-pid{os.getpid()}.tsv"
        workloads.write_drift_table(path, seed, k)
        return Inputs(workload, table=path, k=k)
    make = {"exact-random": workloads.exact_random, "hammer": workloads.hammer}[workload]
    stream = make(seed, workloads.SYNTH_N if n is None else n)
    return Inputs(workload, raws=stream.raws, ranks=stream.ranks)


# ----------------------------------------------------------------------
# tracing: spans timed from outside the library, around public calls


class Trace:
    """Per-layer totals for one structure run, in thread-CPU nanoseconds."""

    def __init__(self):
        self.c: Counter = Counter()
        self.heights: Counter = Counter()
        self.merging = False

    def reset(self) -> None:
        self.c.clear()
        self.heights.clear()

    def factory(self, cls):
        """A box factory that times box construction, and whose boxes time
        their own insert and init."""
        c = self.c
        tick = time.thread_time_ns

        def make(slot_count: int, ledger: MovementLedger | None):
            t0 = tick()
            box = cls(slot_count, ledger=ledger)
            dt = tick() - t0
            c["new_ns"] += dt
            if self.merging:
                c["merge_new_ns"] += dt
            insert, init = box.insert, box.init

            def timed_insert(raw, seq=0):
                t0 = tick()
                moved = insert(raw, seq)
                c["box_ns"] += tick() - t0
                c["box_moves"] += moved
                return moved

            def timed_init(raws, seqs):
                t0 = tick()
                out = init(raws, seqs)
                c["init_ns"] += tick() - t0
                return out

            box.insert, box.init = timed_insert, timed_init
            return box

        return make

    def attach(self, lla: LearnedLLA) -> None:
        c = self.c
        tick = time.thread_time_ns
        route, merge_parent = lla.route, lla.merge_parent

        def timed_route(raw, predicted_rank):
            t0 = tick()
            h, node = route(raw, predicted_rank)
            c["route_ns"] += tick() - t0
            c["routes"] += 1
            r = min(max(predicted_rank, 1), lla.capacity)
            if not (node << h) < r <= ((node + 1) << h):
                c["overrides"] += 1
            return h, node

        def timed_merge(rec):
            before = lla.ledger.total_movements
            self.merging = True
            t0 = tick()
            parent = merge_parent(rec)
            c["merge_ns"] += tick() - t0
            self.merging = False
            c["merge_moves"] += lla.ledger.total_movements - before
            return parent

        lla.route, lla.merge_parent = timed_route, timed_merge

    def listener(self, lla: LearnedLLA, merged) -> None:
        self.heights[merged.height] += 1


# ----------------------------------------------------------------------
# one structure run


@dataclass
class StructureRun:
    structure: str
    inserts: int
    relabels: int = 0
    merges: int = 0
    scale: float = 1.0           # REF_KERNEL_S / kernel CPU time around this run
    setup_s: float = 0.0         # process CPU of construction and sentinel
    block_s: list[float] = field(default_factory=list)  # process CPU per BLOCK inserts
    lat_ns: array.array = field(default_factory=lambda: array.array("q"))  # thread CPU per insert
    trace: Trace | None = None
    errors: list[str] = field(default_factory=list)


def drive(structure: str, raws: list[int], preds: list[int] | None,
          traced: bool) -> StructureRun:
    """Load one structure the way the harness does, timing every insert."""
    n = len(raws)
    out = StructureRun(structure, n)
    cls = Apma if box_engine(structure) == "apma" else Pma
    ranks = [1] * n if preds is None else [p + 1 for p in preds]
    trace = Trace() if traced else None
    ledger = MovementLedger(first_placement_excluded=True)
    clock, tick = time.process_time, time.thread_time_ns
    before = calibrate()
    c0 = clock()
    if trace is None:
        lla = LearnedLLA(n + 1, factory=lambda slots, led: cls(slots, ledger=led),
                         ledger=ledger)
    else:
        lla = LearnedLLA(n + 1, factory=trace.factory(cls), ledger=ledger,
                         merge_listener=trace.listener)
        trace.attach(lla)
    lla.insert(MIN_RAW, 0, 1)
    ledger.reset()
    if trace is not None:
        trace.reset()
    out.setup_s = clock() - c0
    insert = lla.insert
    lat = array.array("q", bytes(8 * n))  # untracked by the GC, unlike a list of ints
    blocks = []
    i = 0
    try:
        for lo in range(0, n, BLOCK):
            b0 = clock()
            for i in range(lo, min(lo + BLOCK, n)):
                t0 = tick()
                insert(raws[i], i + 1, ranks[i])
                lat[i] = tick() - t0
            blocks.append(clock() - b0)
    except Exception:  # a failing insert is a result to report, not a crash
        out.errors.append(f"{structure}: insert {i + 1} raised\n{traceback.format_exc()}")
        return out
    out.scale = 2 * REF_KERNEL_S / (before + calibrate())
    out.block_s, out.lat_ns = blocks, lat
    out.relabels, out.merges = ledger.total_movements, lla.merges
    out.trace = trace
    out.errors.extend(check(lla, ledger, raws, structure))
    if trace is not None:
        t = trace.c
        if t["box_moves"] + t["merge_moves"] != ledger.total_movements:
            out.errors.append(
                f"{structure}: box relabels {t['box_moves']} + merge relabels "
                f"{t['merge_moves']} != ledger {ledger.total_movements}")
        if sum(trace.heights.values()) != lla.merges:
            out.errors.append(f"{structure}: merge-height histogram sums to "
                              f"{sum(trace.heights.values())}, not {lla.merges}")
    return out


def check(lla: LearnedLLA, ledger: MovementLedger, raws: list[int],
          structure: str) -> list[str]:
    """The structure holds exactly the sentinel and the inserted keys, sorted."""
    errors = []
    labels = lla.global_labels()
    n = len(raws)
    if lla.count != n + 1 or len(labels) != n + 1 or ledger.total_inserts != n:
        errors.append(f"{structure}: count {lla.count}, {len(labels)} labels, "
                      f"{ledger.total_inserts} ledger inserts for {n} inserts + sentinel")
    seen = [False] * (n + 1)
    prev_raw, prev_label = None, 0
    for raw, seq, label in labels:
        if label <= prev_label:
            errors.append(f"{structure}: label {label} after {prev_label}")
            break
        if prev_raw is not None and raw < prev_raw:
            errors.append(f"{structure}: key {raw} after {prev_raw}")
            break
        expected = MIN_RAW if seq == 0 else raws[seq - 1] if 0 < seq <= n else None
        if expected is None or seen[seq] or raw != expected:
            errors.append(f"{structure}: seq {seq} missing, repeated or holding the wrong key")
            break
        seen[seq] = True
        prev_raw, prev_label = raw, label
    return errors


# ----------------------------------------------------------------------
# one pass: the whole pipeline over all four structures


@dataclass
class PassResult:
    traced: bool
    stages: dict[str, float] = field(default_factory=dict)  # process CPU, scaled
    chose_predictor2: int = 0
    eta_max: int = 0
    peak_rss_mb: float = 0.0
    wall_s: float = 0.0          # wall and process CPU time of the whole pass,
    cpu_s: float = 0.0           # checks and kernel runs included, unscaled
    runs: dict[str, StructureRun] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def run_pass(inputs: Inputs, traced: bool) -> PassResult:
    res = PassResult(traced)
    clock = time.process_time
    if inputs.workload == "drift-ids":
        spec = DatasetSpec(inputs.table, value_column=1, timestamp_column=3,
                           name="drift-ids")
        half = 2**inputs.k
        before = calibrate()
        t0 = clock()
        data = load_dataset(spec)
        t1 = clock()
        if len(data) < 2 * half:
            raise ValueError(f"{inputs.table}: {len(data)} rows, need {2 * half}")
        train = SequenceSlice(data.keys[:half], start_offset=0)
        test = SequenceSlice(data.keys[half:2 * half], start_offset=half)
        chosen = select_predictor(train)
        t2 = clock()
        preds = (predictor2 if chosen == "predictor2" else predictor1)(train, test).ranks
        t3 = clock()
        scale = 2 * REF_KERNEL_S / (before + calibrate())
        res.stages = {"load_dataset_s": (t1 - t0) * scale,
                      "select_predictor_s": (t2 - t1) * scale,
                      "predict_s": (t3 - t2) * scale}
        res.chose_predictor2 = int(chosen == "predictor2")
        raws = [key.raw for key in test.keys]
        true_ranks = workloads.exact_ranks(raws)
    else:
        res.stages = {"load_dataset_s": 0.0, "select_predictor_s": 0.0, "predict_s": 0.0}
        raws, preds = inputs.raws, inputs.ranks
        true_ranks = inputs.ranks
    res.eta_max = max(abs(p - t) for p, t in zip(preds, true_ranks))
    for structure in STRUCTURES:
        learned = structure.startswith("learned")
        sr = drive(structure, raws, preds if learned else None, traced)
        res.runs[structure] = sr
        res.errors.extend(sr.errors)
        if learned and inputs.workload in EXACT_WORKLOADS and (sr.relabels or sr.merges):
            res.errors.append(
                f"{structure}: exact predictions cost {sr.relabels} relabels and "
                f"{sr.merges} merges; both must be 0")
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return res


# ----------------------------------------------------------------------
# a run: set-up, then passes until the time is up


def _percentile(sorted_vals: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


# The host is shared and its speed varies, in episodes of a second or so and
# more slowly too.  Every pass repeats the same work, so the same block of
# inserts (or the same insert, or the same stage) is timed once per pass;
# taking the median of each over the passes, then summing, drops the copies
# that a short slow episode hit.


def loop_s(passes: list[PassResult], structure: str) -> float:
    """Insert-loop CPU seconds: each block's median over passes, summed."""
    runs = [p.runs[structure] for p in passes]
    return sum(median(col) for col in zip(*([b * r.scale for b in r.block_s] for r in runs)))


def pipeline_s(passes: list[PassResult]) -> float:
    """CPU seconds of one pass: each stage's median over passes, summed."""
    total = sum(median(p.stages[k] for p in passes) for k in passes[0].stages)
    for s in STRUCTURES:
        total += median(p.runs[s].setup_s * p.runs[s].scale for p in passes) + loop_s(passes, s)
    return total


def end_to_end(passes: list[PassResult], setup_s: float) -> dict[str, float]:
    m = {"setup_s": setup_s,
         "run_s": pipeline_s(passes),
         "peak_rss_mb": passes[0].peak_rss_mb}
    for s in STRUCTURES:
        m[f"insert_us.{s}"] = loop_s(passes, s) * 1e6 / passes[0].runs[s].inserts
    for s in ("pma", "learned-pma"):
        # Each insert's thread-CPU time is its median over the passes.
        runs = [p.runs[s] for p in passes]
        lat = sorted(median(col) for col in zip(*([t * r.scale for t in r.lat_ns]
                                                  for r in runs)))
        m[f"insert_p50_us.{s}"] = _percentile(lat, 0.50) / 1000
        m[f"insert_p99_us.{s}"] = _percentile(lat, 0.99) / 1000
    first = passes[0].runs
    for s in ("pma", "apma"):
        m[f"relabels_per_insert.{s}"] = first[s].relabels / first[s].inserts
    for s in ("learned-pma", "learned-apma"):
        m[f"moves_per_insert.{s}"] = 1 + first[s].relabels / first[s].inserts
    return m


def per_layer(traced: list[PassResult], untraced: list[PassResult]) -> dict[str, float]:
    m: dict[str, float] = {}
    for s in STRUCTURES:
        b = box_engine(s)

        def med(f):
            return median(f(p.runs[s].trace.c, p.runs[s]) for p in traced)

        def med_us(f):
            """Median of a per-insert time in ns, scaled, in microseconds."""
            return med(lambda c, r: f(c, r) * r.scale / 1000 / r.inserts)

        m[f"learned.route_us.{s}"] = med_us(lambda c, r: c["route_ns"])
        m[f"learned.route_override_share.{s}"] = med(
            lambda c, r: c["overrides"] / c["routes"])
        m[f"learned.merge_us.{s}"] = med_us(
            lambda c, r: c["merge_ns"] - c["init_ns"] - c["merge_new_ns"])
        m[f"learned.merge_relabels_per_insert.{s}"] = med(
            lambda c, r: c["merge_moves"] / r.inserts)
        m[f"learned.merges.{s}"] = med(lambda c, r: r.merges)
        m[f"learned.wrapper_self_us.{s}"] = med_us(
            lambda c, r: sum(r.lat_ns) - c["route_ns"] - c["box_ns"] - c["merge_ns"]
            - c["new_ns"] + c["merge_new_ns"])
        m[f"{b}.insert_us.{s}"] = med_us(lambda c, r: c["box_ns"])
        m[f"{b}.relabels_per_insert.{s}"] = med(lambda c, r: c["box_moves"] / r.inserts)
        m[f"{b}.init_us.{s}"] = med_us(lambda c, r: c["init_ns"])
        m[f"{b}.new_us.{s}"] = med_us(lambda c, r: c["new_ns"])
    m["harness.load_dataset_s"] = median(p.stages["load_dataset_s"] for p in traced)
    m["predictors.select_predictor_s"] = median(
        p.stages["select_predictor_s"] for p in traced)
    m["predictors.predict_s"] = median(p.stages["predict_s"] for p in traced)
    m["predictors.eta_max"] = traced[0].eta_max
    m["predictors.chose_predictor2"] = traced[0].chose_predictor2
    m["trace.overhead_share"] = pipeline_s(traced) / pipeline_s(untraced) - 1
    return m


def consistency_errors(passes: list[PassResult]) -> list[str]:
    """Every pass, traced or not, must move and merge exactly alike."""
    errors = []
    first = passes[0]
    for p in passes[1:]:
        for s in STRUCTURES:
            a, b = first.runs[s], p.runs[s]
            if (a.relabels, a.merges) != (b.relabels, b.merges):
                kind = "traced" if p.traced else "untraced"
                errors.append(f"{s}: a {kind} pass gave {b.relabels} relabels, "
                              f"{b.merges} merges; the first gave {a.relabels}, {a.merges}")
        if (p.eta_max, p.chose_predictor2) != (first.eta_max, first.chose_predictor2):
            errors.append("a pass made different predictions")
    return errors


def measure(inputs: Inputs, seconds: float, trace: bool) -> list[PassResult]:
    """Repeat passes while the next one is expected to end within `seconds`.

    Untraced runs repeat untraced passes; traced runs alternate an untraced
    and a traced pass.  At least one pass of each kind runs.
    """
    kinds = [False, True] if trace else [False]
    passes: list[PassResult] = []
    start = time.monotonic()
    last = {}
    while True:
        for traced in kinds:
            # Earlier passes' results stay alive; freezing them keeps them out
            # of the collections the program's own allocations trigger.
            gc.collect()
            gc.freeze()
            t0, c0 = time.monotonic(), time.process_time()
            res = run_pass(inputs, traced)
            res.cpu_s = time.process_time() - c0
            res.wall_s = last[traced] = time.monotonic() - t0
            passes.append(res)
            if res.errors:
                return passes
        if time.monotonic() - start + sum(last.values()) > seconds:
            return passes


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "numpy": metadata.version("numpy"),
        "sortedcontainers": metadata.version("sortedcontainers"),
        "seed": seed,
        "clocks": CLOCKS,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import() -> None:
    """Import listlabel and its pure-Python dependency as a new process would.

    numpy stays loaded: a C extension cannot be imported twice.  The modules
    in use are put back afterwards, so the benchmark keeps driving one copy.
    """
    names = [m for m in sys.modules if m.split(".")[0] in ("listlabel", "sortedcontainers")]
    saved = {m: sys.modules.pop(m) for m in names}
    try:
        importlib.import_module("listlabel")
    finally:
        sys.modules.update(saved)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one run; returns (result line, full record)."""
    startup_s = time.process_time()
    setups = []
    kernel = [calibrate()]
    workdir = HERE / ".work"
    inputs = None
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.process_time()
            fresh_import()
            inputs = prepare(workload, seed, workdir)
            t1 = time.process_time()
            kernel.append(calibrate())
            setups.append((t1 - t0) * 2 * REF_KERNEL_S / (kernel[-2] + kernel[-1]))
        setup_s = median(setups)
        passes = measure(inputs, seconds, trace)
    finally:
        if inputs is not None and inputs.table is not None:
            inputs.table.unlink(missing_ok=True)

    errors = [e for p in passes for e in p.errors]
    if not errors:
        errors = consistency_errors(passes)
    attempted = sum(r.inserts for p in passes for r in p.runs.values())
    failed = sum(r.inserts for p in passes for r in p.runs.values() if r.errors)
    if errors and not failed:
        failed = sum(r.inserts for r in passes[-1].runs.values())
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    complete = not errors and all(len(p.runs) == len(STRUCTURES) for p in passes)
    if not complete:
        metrics, units = {}, {}
    elif trace:
        metrics, units = per_layer(traced, untraced), PER_LAYER
    else:
        metrics, units = end_to_end(untraced, setup_s), END_TO_END

    line = {
        "correct": complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "startup_cpu_s": startup_s,
        # Per-pass wall and CPU time over the same interval, and the scale
        # applied to each structure run, for judging the clocks.
        "pass_wall_s": [p.wall_s for p in untraced],
        "pass_cpu_s": [p.cpu_s for p in untraced],
        "pass_scales": [[r.scale for r in p.runs.values()] for p in untraced],
        "insert_samples_per_structure":
            len(untraced) * passes[0].runs["pma"].inserts if complete else 0,
        "structures": {
            s: {"inserts": r.inserts, "relabels": r.relabels, "merges": r.merges,
                "relabels_per_insert": r.relabels / r.inserts}
            for s, r in passes[0].runs.items()
        },
        "predictors": {"eta_max": passes[0].eta_max,
                       "chose_predictor2": passes[0].chose_predictor2},
        "errors": errors,
        **line,
    }
    if trace and complete:
        record["trace_totals"] = {
            s: {"passes": [dict(p.runs[s].trace.c) for p in traced],
                "merge_heights": {str(h): n for h, n in
                                  sorted(traced[0].runs[s].trace.heights.items())}}
            for s in STRUCTURES
        }
    return line, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_totals = record.pop("trace_totals", None)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace_totals is not None:
        (RESULTS / f"{stem}.trace.json").write_text(json.dumps(trace_totals, indent=1) + "\n")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} python={env['python']} "
          f"nproc={env['nproc']} git={env['git_sha'][:12]} "
          f"passes={record['passes']} samples/structure={record['insert_samples_per_structure']}")
    for name, m in line["metrics"].items():
        print(f"{name:48s} {m['value']:14.6f} {m['unit']}")
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
