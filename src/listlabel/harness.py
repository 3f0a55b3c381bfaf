"""Benchmark harness: dataset ingestion, experiment protocols, CSV output.

Every experiment runs the same four configurations over the same test
slice.  The plain `pma` / `apma` rows route every element with predicted
rank 1, which collapses the learned wrapper onto a single black box of the
full capacity -- so baseline and learned rows differ only in the prediction
vector, never in memory layout or machinery.  Each run begins by inserting
a sentinel key below all real data and then resetting the movement ledger:
the sentinel gives every real key a predecessor, and its placement is
bookkeeping rather than workload.

Amortized costs count label changes per insert with first placements
excluded, so a run whose predictions are exact reports 0.0.  Wall-clock
time is kept on the result object for eyeballing but never written to CSV,
which keeps repeated runs with the same seed byte-identical.
"""

from __future__ import annotations

import csv
import random
import statistics
import sys
import time
from dataclasses import dataclass, replace
from math import isfinite, isnan
from pathlib import Path

from .apma import Apma
from .core import MIN_RAW, Key, MovementLedger, ParseError, clamp, fixed_point_parse
from .learned import LearnedLLA, witness_error_check
from .pma import Pma
from .predictors import (
    PredictionVector,
    SequenceSlice,
    corrupt,
    predictor1,
    predictor2,
    select_predictor,
)

__all__ = [
    "ConfigError",
    "DataError",
    "DatasetSpec",
    "ExperimentResult",
    "STRUCTURES",
    "load_dataset",
    "run_table",
    "run_scaling",
    "run_learning_curve",
    "run_robustness",
    "run_synthetic",
    "emit_csv",
]

STRUCTURES = ("pma", "apma", "learned-pma", "learned-apma")

SYNTHETIC_KINDS = ("sequential", "hammer", "random", "noisy-eta", "stochastic")


class DataError(ValueError):
    """A dataset file is missing, unreadable, or malformed."""


class ConfigError(ValueError):
    """An experiment was configured inconsistently with its data."""


# ----------------------------------------------------------------------
# dataset ingestion


@dataclass
class DatasetSpec:
    """Where a dataset lives and how to read a key stream out of it.

    Columns are 0-based.  The delimiter is always detected from the first
    data line: comma if one appears, otherwise any whitespace.  Blank lines
    and lines starting with '#' are skipped.  If `timestamp_column` is
    given, rows are stably sorted by that column before use (numerically
    when every value parses as a number, lexicographically otherwise --
    ISO-8601 strings order correctly either way); otherwise file order is
    kept.  `max_rows` truncates after ordering.  Duplicate values are
    retained.  A negative column or `max_rows` is a ConfigError.
    """

    path: str | Path
    value_column: int = 0
    timestamp_column: int | None = None
    max_rows: int | None = None
    name: str | None = None

    def __post_init__(self):
        for name in ("value_column", "timestamp_column", "max_rows"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} {value} is negative")

    def label(self) -> str:
        return self.name if self.name is not None else Path(self.path).stem


def load_dataset(spec: DatasetSpec) -> SequenceSlice:
    """Read the value column of a text table into an arrival-ordered slice.

    Raises DataError with a 1-based line number for anything malformed:
    unreadable file, missing column, a value that is not a decimal number,
    or a NaN among numeric timestamps (it would silently misorder the rows).
    """
    path = Path(spec.path)
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None

    raws: list[int] = []
    stamps: list[str] = []
    stamp_lines: list[int] = []
    comma = None  # decided by the first data line
    # Without a timestamp column the file order is the arrival order, so we
    # can stop reading as soon as max_rows values are in hand.
    stream_limit = spec.max_rows if spec.timestamp_column is None else None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if comma is None:
                comma = "," in text
            if comma:
                cells = [c.strip() for c in text.split(",")]
            else:
                cells = text.split()
            if spec.value_column >= len(cells):
                raise DataError(
                    f"line {lineno}: no column {spec.value_column} "
                    f"(row has {len(cells)})"
                )
            try:
                raws.append(fixed_point_parse(cells[spec.value_column], line=lineno))
            except ParseError as exc:
                raise DataError(str(exc)) from None
            if spec.timestamp_column is not None:
                if spec.timestamp_column >= len(cells):
                    raise DataError(
                        f"line {lineno}: no column {spec.timestamp_column} "
                        f"(row has {len(cells)})"
                    )
                stamps.append(cells[spec.timestamp_column])
                stamp_lines.append(lineno)
            if stream_limit is not None and len(raws) >= stream_limit:
                break

    if spec.timestamp_column is not None:
        try:
            order_key: list = [float(s) for s in stamps]
        except ValueError:
            order_key = stamps
        else:
            if any(map(isnan, order_key)):
                i = next(i for i, x in enumerate(order_key) if isnan(x))
                raise DataError(
                    f"line {stamp_lines[i]}: timestamp {stamps[i]!r} is not a number"
                )
        order = sorted(range(len(raws)), key=order_key.__getitem__)
        raws = [raws[i] for i in order]
        if spec.max_rows is not None:
            raws = raws[: spec.max_rows]

    keys = [Key(raw, i) for i, raw in enumerate(raws)]
    return SequenceSlice(keys, start_offset=0)


# ----------------------------------------------------------------------
# one configuration, one run


@dataclass
class ExperimentResult:
    """One structure run over one test slice.

    For aggregated rows (robustness) `amortized_cost` holds the mean across
    seeds and `mean`/`stddev` are filled in; everywhere else they stay None.
    `eta_max` is the largest |predicted - true| rank error of the fed
    prediction vector, None for prediction-free baseline rows.
    """

    structure: str
    dataset: str
    train: int
    test: int
    amortized_cost: float
    merges: int
    eta_max: int | None
    wall_time: float
    seed: int | None = None
    mean: float | None = None
    stddev: float | None = None


def _true_ranks(keys: list[Key]) -> list[int]:
    """Final rank of each arrival under the structure's total order.

    Ties on raw value break by arrival position, which is exactly how the
    structures compare entries, so these ranks match the final left-to-right
    order of the loaded array.
    """
    order = sorted(range(len(keys)), key=lambda i: (keys[i].raw, i))
    ranks = [0] * len(keys)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return ranks


def _run_config(
    structure: str,
    dataset: str,
    test_keys: list[Key],
    predictions: list[int] | None,
    *,
    train: int,
    true_ranks: list[int] | None = None,
    check_witness: bool = False,
    seed: int | None = None,
) -> ExperimentResult:
    """Load one structure with the test slice and account its movements.

    `predictions` are ranks within the test slice (1..len); None routes
    everything with rank 1, the prediction-free baseline.  Ranks shift by
    one inside because the sentinel occupies rank 1 of the structure.
    """
    t = len(test_keys)
    ledger = MovementLedger(first_placement_excluded=True)

    listener = None
    if check_witness:
        if true_ranks is None:
            raise ValueError("witness checks need true ranks")
        truth = {0: 1}
        for i, rank in enumerate(true_ranks):
            truth[i + 1] = rank + 1

        def listener(lla: LearnedLLA, merged) -> None:
            if not witness_error_check(lla, merged, truth):
                raise AssertionError(
                    f"{structure}/{dataset}: merged rank window at "
                    f"{(merged.node << merged.height) + 1} width "
                    f"{1 << merged.height} has no "
                    "element with prediction error >= half the window"
                )

    lla = LearnedLLA(
        t + 1,
        factory=Apma if structure.endswith("apma") else Pma,
        ledger=ledger,
        merge_listener=listener,
    )
    lla.insert(MIN_RAW, 0, 1)
    ledger.reset()

    start = time.perf_counter()
    for i, key in enumerate(test_keys):
        predicted = 1 if predictions is None else predictions[i] + 1
        lla.insert(key.raw, i + 1, predicted)
    wall = time.perf_counter() - start

    eta_max = None
    if predictions is not None and true_ranks is not None:
        eta_max = max(
            (abs(p - a) for p, a in zip(predictions, true_ranks)), default=0
        )

    return ExperimentResult(
        structure=structure,
        dataset=dataset,
        train=train,
        test=t,
        amortized_cost=ledger.amortized_cost(),
        merges=lla.merges,
        eta_max=eta_max,
        wall_time=wall,
        seed=seed,
    )


def _learned(structure: str) -> bool:
    """Whether a structure row routes by predictions (baselines use rank 1)."""
    return structure.startswith("learned")


def _predict(structures, train: SequenceSlice, test: SequenceSlice) -> list[int] | None:
    """Pick a predictor on the training slice and predict the test ranks;
    None, with neither run, when no row of `structures` reads predictions."""
    if not any(map(_learned, structures)):
        return None
    try:
        chosen = select_predictor(train)
        fn = predictor2 if chosen == "predictor2" else predictor1
        return fn(train, test).ranks
    except ValueError as exc:
        raise ConfigError(f"training slice of {len(train)}: {exc}") from None


def _load(spec: DatasetSpec, need: int, what: str) -> list[Key]:
    """The first `need` keys of the dataset in arrival order; ConfigError
    naming `what` the rows are for if there are fewer."""
    if spec.max_rows is None and spec.timestamp_column is None:
        spec = replace(spec, max_rows=need)
    data = load_dataset(spec)
    if len(data) < need:
        raise ConfigError(
            f"{spec.label()}: need {need} rows for {what}, found {len(data)}"
        )
    return data.keys[:need]


def _rows_for(k: int, name: str = "k") -> int:
    """2^k, the row count a size exponent stands for; ConfigError if k < 0."""
    if k < 0:
        raise ConfigError(f"{name}={k} is negative")
    return 1 << k


def _split(spec: DatasetSpec, k: int) -> tuple[SequenceSlice, SequenceSlice]:
    """First 2^k rows to train on, next 2^k to insert."""
    t = _rows_for(k)
    keys = _load(spec, 2 * t, f"k={k} (train and test of {t} each)")
    return SequenceSlice(keys[:t]), SequenceSlice(keys[t:], start_offset=t)


def _rows(structures, dataset, keys, preds, **kw) -> list[ExperimentResult]:
    """One run per structure over the same keys: learned rows get the
    predictions `preds`, baselines None (rank-1 routing)."""
    return [
        _run_config(s, dataset, keys, preds if _learned(s) else None, **kw)
        for s in structures
    ]


# ----------------------------------------------------------------------
# experiment protocols


def run_table(
    spec: DatasetSpec, k: int, structures: tuple[str, ...] = STRUCTURES
) -> list[ExperimentResult]:
    """Train on the first 2^k rows, insert the next 2^k, one row per
    structure."""
    train, test = _split(spec, k)
    return _rows(structures, spec.label(), test.keys, _predict(structures, train, test),
                 train=len(train), true_ranks=_true_ranks(test.keys))


def run_scaling(
    spec: DatasetSpec,
    k_range,
    structures: tuple[str, ...] = STRUCTURES,
) -> list[ExperimentResult]:
    """run_table at every k in k_range; the train/test columns carry k.
    A negative k is a ConfigError raised before any load or run."""
    k_range = list(k_range)
    for k in k_range:
        _rows_for(k)
    results = []
    for k in k_range:
        results.extend(run_table(spec, k, structures))
    return results


def run_learning_curve(
    spec: DatasetSpec,
    test_k: int,
    train_fractions,
    structures: tuple[str, ...] = STRUCTURES,
) -> list[ExperimentResult]:
    """Fix the test slice, shrink the training window that precedes it.

    The test slice is rows [2^test_k, 2^{test_k+1}); a fraction f trains on
    the f% of 2^test_k rows immediately before it.  f=0 skips prediction
    entirely, so the learned rows degenerate to rank-1 routing.  The train
    column distinguishes sweep points.  A negative test_k or fraction, or a
    fraction whose span exceeds 2^test_k rows, is a ConfigError raised
    before any load or run.
    """
    t = _rows_for(test_k, "test_k")
    spans = []
    for fraction in train_fractions:
        if fraction < 0:
            raise ConfigError(f"negative train fraction {fraction}")
        span = t * fraction // 100
        if span > t:
            raise ConfigError(
                f"train fraction {fraction}% wants {span} rows before the "
                f"test slice; only {t} exist"
            )
        spans.append(span)
    keys = _load(spec, 2 * t, f"test_k={test_k}")
    test = SequenceSlice(keys[t:], start_offset=t)
    true_ranks = _true_ranks(test.keys)

    results = []
    for span in spans:
        if span == 0:
            predictions = None
        else:
            train = SequenceSlice(keys[t - span : t], start_offset=t - span)
            predictions = _predict(structures, train, test)
        results += _rows(structures, spec.label(), test.keys, predictions,
                         train=span, true_ranks=true_ranks)
    return results


def run_robustness(
    spec: DatasetSpec,
    k: int,
    t_values,
    repeats: int = 5,
    base_seed: int = 0,
    structures: tuple[str, ...] = STRUCTURES,
) -> list[ExperimentResult]:
    """Corrupt t% of predictions to a far end, averaged over seeded repeats.

    Baselines are prediction-free, so they run once and report stddev 0.
    Learned rows run `repeats` times with corruption seeds base_seed+1 ..
    base_seed+repeats and carry the corruption level in the structure name
    (e.g. learned-pma:t=25); amortized_cost holds the mean, merges the
    rounded mean, eta_max the worst across seeds.  A corruption level outside
    [0, 100] or fewer than one repeat is a ConfigError, raised before any run.
    """
    for t_pct in t_values:
        if not 0 <= t_pct <= 100:
            raise ConfigError(f"corruption percentage {t_pct} outside [0, 100]")
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    train, test = _split(spec, k)
    n = len(test)
    predictions = _predict(structures, train, test)
    true_ranks = _true_ranks(test.keys)

    results = []
    for structure in structures:
        if not _learned(structure):
            res = _run_config(
                structure,
                spec.label(),
                test.keys,
                None,
                train=len(train),
                true_ranks=true_ranks,
            )
            res.mean = res.amortized_cost
            res.stddev = 0.0
            results.append(res)
            continue
        for t_pct in t_values:
            runs = []
            for r in range(1, repeats + 1):
                bent = corrupt(
                    PredictionVector(list(predictions)), t_pct, n, base_seed + r
                )
                runs.append(
                    _run_config(
                        structure,
                        spec.label(),
                        test.keys,
                        bent.ranks,
                        train=len(train),
                        true_ranks=true_ranks,
                    )
                )
            costs = [r.amortized_cost for r in runs]
            mean = statistics.fmean(costs)
            results.append(
                ExperimentResult(
                    structure=f"{structure}:t={t_pct}",
                    dataset=spec.label(),
                    train=len(train),
                    test=n,
                    amortized_cost=mean,
                    merges=round(statistics.fmean(r.merges for r in runs)),
                    eta_max=max(r.eta_max for r in runs),
                    wall_time=sum(r.wall_time for r in runs),
                    mean=mean,
                    stddev=statistics.pstdev(costs),
                )
            )
    return results


def _synthesize(
    kind: str, n: int, seed: int, eta: int | None, mu: float | None, s: float | None
) -> tuple[list[Key], list[int], list[int], str]:
    """Build (keys, predictions, true_ranks, dataset label) for one kind."""
    rng = random.Random(seed)
    if kind == "sequential":
        raws = [i * 10**7 for i in range(1, n + 1)]
        true = list(range(1, n + 1))
        preds = list(true)
        label = "synth-sequential"
    elif kind == "hammer":
        # The largest key arrives first; everything after lands just below
        # it, hammering the same gap.
        raws = [n * 10**7] + [i * 10**7 for i in range(1, n)]
        true = [n] + list(range(1, n))
        preds = list(true)
        label = "synth-hammer"
    elif kind == "random":
        raws = rng.sample(range(1, 10**12), n)
        true = _true_ranks([Key(r, i) for i, r in enumerate(raws)])
        preds = list(true)
        label = "synth-random"
    elif kind == "noisy-eta":
        if eta is None or eta < 0:
            raise ConfigError("noisy-eta needs eta >= 0")
        raws = rng.sample(range(1, 10**12), n)
        true = _true_ranks([Key(r, i) for i, r in enumerate(raws)])
        preds = [clamp(r + rng.randint(-eta, eta), 1, n) for r in true]
        label = f"synth-noisy-eta:eta={eta}"
    elif kind == "stochastic":
        if mu is None or s is None:
            raise ConfigError("stochastic needs mu and s")
        if not (isfinite(mu) and isfinite(s)) or s < 0:
            raise ConfigError(f"stochastic needs a finite mu and a finite s >= 0, "
                              f"got mu={mu}, s={s}")
        raws = sorted(rng.sample(range(1, 10**12), n))
        true = list(range(1, n + 1))
        # An error beyond +-2n clamps to the same rank as +-2n does; bounding
        # it first keeps a huge finite mu or s from overflowing to inf.
        preds = [clamp(r + round(clamp(rng.gauss(mu, s), -2 * n, 2 * n)), 1, n)
                 for r in true]
        label = f"synth-stochastic:mu={mu};s={s}"
    else:
        raise ConfigError(
            f"unknown synthetic kind {kind!r}; pick from {SYNTHETIC_KINDS}"
        )
    keys = [Key(raw, i) for i, raw in enumerate(raws)]
    return keys, preds, true, label


def run_synthetic(
    kind: str,
    n: int,
    *,
    seed: int = 1,
    eta: int | None = None,
    mu: float | None = None,
    s: float | None = None,
    structures: tuple[str, ...] = STRUCTURES,
) -> list[ExperimentResult]:
    """Generated workloads with known true ranks; n must be a power of two.

    sequential/hammer/random feed the learned rows exact ranks; noisy-eta
    perturbs each true rank uniformly in [-eta, +eta] (clamped); stochastic
    adds rounded normal(mu, s^2) error and arrives in sorted order.  Keys
    are distinct, so every merge is checked for its error witness and any
    violation raises.  Bad parameters (a non-finite mu or s, a negative s,
    a missing eta) are a ConfigError raised before any run.
    """
    if n < 2 or n & (n - 1):
        raise ConfigError(f"n must be a power of two >= 2, got {n}")
    keys, predictions, true_ranks, label = _synthesize(kind, n, seed, eta, mu, s)
    return _rows(structures, label, keys, predictions, train=0, true_ranks=true_ranks,
                 check_witness=True, seed=seed)


# ----------------------------------------------------------------------
# output

CSV_HEADER = (
    "structure,dataset,train,test,amortized_cost,merges,eta_max,seed,mean,stddev"
)


def emit_csv(results: list[ExperimentResult], path: str | Path) -> None:
    """Write results in construction order; same inputs, same bytes.

    Path "-" writes to stdout.
    """
    if not results:
        raise ConfigError("no results to write")
    if str(path) == "-":
        _write_csv(results, sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(results, fh)


def _write_csv(results: list[ExperimentResult], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in results:
        writer.writerow(
            [
                r.structure,
                r.dataset,
                r.train,
                r.test,
                f"{r.amortized_cost:.6f}",
                r.merges,
                "" if r.eta_max is None else r.eta_max,
                "" if r.seed is None else r.seed,
                "" if r.mean is None else f"{r.mean:.6f}",
                "" if r.stddev is None else f"{r.stddev:.6f}",
            ]
        )
