"""Benchmark harness: dataset ingestion, experiment protocols, CSV output.

Every experiment runs the same four configurations over the same test
slice.  The plain `pma` / `apma` rows route every element with predicted
rank 1, so every key goes to the wrapper's leftmost actual, which is
rebuilt into its parent, doubling its box, each time it passes half
density -- baseline and learned rows differ only in the prediction vector,
never in machinery, and a baseline row's merges are that box's growth.
Each run begins by inserting a sentinel key below all real data, and what
that insert returns is not counted: the sentinel gives every real key a
predecessor, and its placement is bookkeeping rather than workload.

Amortized costs count label changes per insert: the sum of what the real
inserts return, which never includes an element's own first placement, over
their number, so a run whose predictions are exact reports 0.0.  A result is
exactly one CSV row: its fields are the columns, in order, and nothing
else, so repeated runs with the same seed write identical bytes.

Each step has one job: every protocol checks all its parameters before it
loads, generates or runs anything (`structures` among them: a sequence of
distinct names from STRUCTURES, never a bare str or a set); `_window` cuts
every (train, test) pair; `_run_config` loads one structure and returns its
counts; `_rows` runs each structure over one test slice and is the only
builder of a run's row; and `_summary` builds each robustness row from its
per-seed rows.
"""

from __future__ import annotations

import csv
import random
import statistics
import sys
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields, replace
from math import isfinite, isnan
from operator import index, sub
from pathlib import Path

from .apma import Apma
from .core import MIN_RAW, SCALE, Key, ParseError, clamp, fixed_point_parse
from .learned import LearnedLLA, witness_error_check
from .pma import Pma
from .predictors import (
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
    kept.  Duplicate values are retained.  A column that is negative or not
    an integer is a ConfigError, raised on construction.
    """

    path: str | Path
    value_column: int = 0
    timestamp_column: int | None = None
    name: str | None = None

    def __post_init__(self):
        for name in ("value_column", "timestamp_column"):
            value = getattr(self, name)
            if value is not None and _index(value, name) < 0:
                raise ConfigError(f"{name} {value} is negative")

    def label(self) -> str:
        return self.name if self.name is not None else Path(self.path).stem


def load_dataset(spec: DatasetSpec) -> SequenceSlice:
    """Read the value column of a text table into an arrival-ordered slice.

    The file is read as UTF-8, to its end; a byte-order mark at its start is
    skipped.  Raises DataError with a 1-based line number for anything
    malformed on any line: unreadable file, missing column, a value that is
    not a decimal number, or a NaN among numeric timestamps (it would
    silently misorder the rows).
    """
    path = Path(spec.path)
    try:
        fh = open(path, "r", encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None

    raws: list[int] = []
    stamps: list[str] = []
    stamp_lines: list[int] = []
    comma = None  # decided by the first data line
    last = max(spec.value_column, spec.timestamp_column or 0)  # the highest column read
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
            if last >= len(cells):
                missing = (spec.value_column if spec.value_column >= len(cells)
                           else spec.timestamp_column)
                raise DataError(
                    f"line {lineno}: no column {missing} (row has {len(cells)})"
                )
            try:
                raws.append(fixed_point_parse(cells[spec.value_column]))
            except ParseError as exc:
                raise DataError(f"line {lineno}: {exc}") from None
            if spec.timestamp_column is not None:
                stamps.append(cells[spec.timestamp_column])
                stamp_lines.append(lineno)

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
        raws = [raws[i] for i in sorted(range(len(raws)), key=order_key.__getitem__)]

    return SequenceSlice(list(map(Key, raws)), start_offset=0)


# ----------------------------------------------------------------------
# one configuration, one run


@dataclass
class ExperimentResult:
    """One structure run over one test slice, and exactly one CSV row: the
    fields are the columns, in CSV order.

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
    seed: int | None = None
    mean: float | None = None
    stddev: float | None = None


def _true_ranks(raws: list[int]) -> list[int]:
    """Final rank of each arrival under the structure's total order.

    The sort is stable, so ties on raw value break by arrival position,
    which is exactly how the structures compare entries: these ranks match
    the final left-to-right order of the loaded array.
    """
    ranks = [0] * len(raws)
    for rank, i in enumerate(sorted(range(len(raws)), key=raws.__getitem__), start=1):
        ranks[i] = rank
    return ranks


def _run_config(structure: str, raws: list[int], predictions: list[int] | None,
                truth: list[int] | None = None) -> tuple[float, int]:
    """Load one structure with the raws; return (amortized cost, merges).

    `predictions` are ranks within the raws (1..len); None routes everything
    with rank 1, the prediction-free baseline.  Ranks shift by one inside
    because the sentinel occupies rank 1 of the structure.  Given the true
    ranks `truth`, every merge is checked for its error witness, and the
    first merge without one raises AssertionError.
    """
    t = len(raws)
    ranks = [1] * t if predictions is None else [p + 1 for p in predictions]

    listener = None
    if truth is not None:
        # Indexed by seq: the sentinel is seq 0 at rank 1, key i is seq i + 1.
        routed = [1, *ranks]
        shifted = [1, *(rank + 1 for rank in truth)]

        def listener(_lla: LearnedLLA, merged) -> None:
            if not witness_error_check(merged, routed, shifted):
                raise AssertionError(
                    f"{structure}: merged rank window at {(merged.node << merged.height) + 1} "
                    f"width {1 << merged.height} has no element with prediction error >= "
                    "half the window")

    lla = LearnedLLA(t + 1, factory=Apma if structure.endswith("apma") else Pma,
                     merge_listener=listener)
    lla.insert(MIN_RAW, 0, 1)
    moved = sum(lla.insert(raw, seq, rank)
                for seq, (raw, rank) in enumerate(zip(raws, ranks, strict=True), start=1))
    return moved / t, lla.merges


def _learned(structure: str) -> bool:
    """Whether a structure row routes by predictions (baselines use rank 1)."""
    return structure.startswith("learned")


def _predict(structures, train: SequenceSlice, test: SequenceSlice) -> list[int] | None:
    """Pick a predictor on the training slice and predict the test ranks;
    None, with neither run, when the training slice is empty or no row of
    `structures` reads predictions."""
    if not (len(train) and any(map(_learned, structures))):
        return None
    try:
        chosen = select_predictor(train)
        fn = predictor2 if chosen == "predictor2" else predictor1
        return fn(train, test).ranks
    except ValueError as exc:
        raise ConfigError(f"training slice of {len(train)}: {exc}") from None


def _load(spec: DatasetSpec, t: int, what: str) -> list[Key]:
    """The first 2t keys of the dataset in arrival order, enough for every
    `_window` at position t; ConfigError naming `what` the rows are for if
    there are fewer."""
    data = load_dataset(spec)
    if len(data) < 2 * t:
        raise ConfigError(f"{spec.label()}: need {2 * t} rows for {what}, "
                          f"found {len(data)}")
    return data.keys[:2 * t]


def _index(value, name: str) -> int:
    """operator.index(value); ConfigError naming the parameter if it fails."""
    try:
        return index(value)
    except TypeError:
        raise ConfigError(f"{name}={value!r}: parameters must be integers") from None


def _real(value, name: str) -> float:
    """value as a finite float, -0.0 read as 0.0; ConfigError naming the
    parameter if value is not a real number or has no finite float."""
    try:
        if isfinite(value):
            return float(value) + 0.0
    except TypeError:
        raise ConfigError(f"{name}={value!r}: parameters must be real numbers") from None
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be finite and fit a float")


def _check_structures(structures) -> None:
    """ConfigError unless `structures` is a sequence of distinct names from
    STRUCTURES; a bare str would run one row per character, a set its rows in
    string-hash order, and a repeated name one row per repeat."""
    if isinstance(structures, str) or not isinstance(structures, Sequence):
        raise ConfigError(f"structures={structures!r}: pass a tuple of names, "
                          f"not a {type(structures).__name__}")
    for s in structures:
        if s not in STRUCTURES:
            raise ConfigError(f"unknown structure {s!r}; pick from {STRUCTURES}")
    if len(set(structures)) < len(structures):
        raise ConfigError(f"structures {structures} repeat a name")


def _rows_for(k: int, name: str = "k") -> int:
    """2^k, the rows a size exponent stands for; ConfigError unless k is an int >= 0."""
    if _index(k, name) < 0:
        raise ConfigError(f"{name}={k} is negative")
    return 1 << k


def _window(keys: list[Key], t: int, span: int) -> tuple[SequenceSlice, SequenceSlice]:
    """The one cut of a (train, test) pair: the `span` keys just before
    position t to train on, keys [t, 2t) to insert."""
    return (SequenceSlice(keys[t - span : t], start_offset=t - span),
            SequenceSlice(keys[t : 2 * t], start_offset=t))


def _rows(structures, dataset, raws, preds, true_ranks, *, train: int,
          seed: int | None = None, check_witness: bool = False) -> list[ExperimentResult]:
    """One run and one row per structure over the same raws, the only place a
    run's row is built: learned rows route by `preds` and carry their largest rank
    error, baselines route at rank 1 and carry None.  With `check_witness`,
    every merge is checked against `true_ranks`."""
    eta_max = None
    if preds is not None:
        eta_max = max(map(abs, map(sub, preds, true_ranks)), default=0)
    truth = true_ranks if check_witness else None
    rows = []
    for s in structures:
        learned = _learned(s)
        cost, merges = _run_config(s, raws, preds if learned else None, truth)
        rows.append(ExperimentResult(s, dataset, train, len(raws), cost, merges,
                                     eta_max if learned else None, seed))
    return rows


def _window_rows(structures, dataset: str, windows) -> list[ExperimentResult]:
    """The rows of every (train, test) slice pair in `windows`, in order.
    Every window's predictions are made first, so a training window too small
    to pick a predictor on is a ConfigError that no run precedes."""
    predictions = [_predict(structures, train, test) for train, test in windows]
    results = []
    for (train, test), preds in zip(windows, predictions):
        raws = [key.raw for key in test.keys]
        results += _rows(structures, dataset, raws, preds, _true_ranks(raws),
                         train=len(train))
    return results


def _summary(name: str, seeded) -> ExperimentResult:
    """The robustness row `name` from its per-seed rows: the mean cost and
    its population stddev, the rounded mean merge count and the worst
    eta_max.  A baseline is a one-seed summary: its cost as is, stddev 0.0."""
    costs = [r.amortized_cost for r in seeded]
    mean = statistics.fmean(costs)
    return replace(seeded[0], structure=name, amortized_cost=mean,
                   merges=round(statistics.fmean(r.merges for r in seeded)),
                   eta_max=max(r.eta_max for r in seeded), mean=mean,
                   stddev=statistics.pstdev(costs))


# ----------------------------------------------------------------------
# experiment protocols


def run_table(
    spec: DatasetSpec, k: int, structures: tuple[str, ...] = STRUCTURES
) -> list[ExperimentResult]:
    """Train on the first 2^k rows, insert the next 2^k, one row per
    structure."""
    return run_scaling(spec, [k], structures)


def run_scaling(
    spec: DatasetSpec,
    k_range,
    structures: tuple[str, ...] = STRUCTURES,
) -> list[ExperimentResult]:
    """The table protocol at every k in k_range; the train/test columns
    carry the window size 2^k.  The dataset is read once, for the largest
    k, and every k's windows are its prefix.  A negative, non-integer or
    repeated k is a ConfigError raised before any load; too few rows for the
    largest k, or a training window too small to pick a predictor on, is one
    raised before any run: every k's predictions are made first."""
    _check_structures(structures)
    k_range = list(k_range)
    for k in k_range:
        _rows_for(k)
    if len(set(k_range)) < len(k_range):
        raise ConfigError(f"k values {k_range} repeat a size")
    if not k_range:
        return []
    t = 1 << max(k_range)
    keys = _load(spec, t, f"k={max(k_range)} (train and test of {t} each)")
    return _window_rows(structures, spec.label(),
                        [_window(keys, 1 << k, 1 << k) for k in k_range])


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
    column distinguishes sweep points.  An empty fraction list, a negative
    or non-integer test_k or fraction, a span over 2^test_k rows, or two
    fractions with one span (a repeated fraction, say), is a ConfigError
    raised before any load or run; a training window too small to pick a
    predictor on is one raised before any run, since every point's
    predictions are made first.
    """
    _check_structures(structures)
    t = _rows_for(test_k, "test_k")
    train_fractions = list(train_fractions)
    if not train_fractions:
        raise ConfigError("no train fractions given")
    spans = []
    for fraction in train_fractions:
        if _index(fraction, "train fraction") < 0:
            raise ConfigError(f"negative train fraction {fraction}")
        span = t * fraction // 100
        if span > t:
            raise ConfigError(
                f"train fraction {fraction}% wants {span} rows before the "
                f"test slice; only {t} exist"
            )
        if span in spans:
            raise ConfigError(f"train fractions {train_fractions} share a {span}-row window")
        spans.append(span)
    keys = _load(spec, t, f"test_k={test_k}")
    return _window_rows(structures, spec.label(), [_window(keys, t, span) for span in spans])


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
    rounded mean, eta_max the worst across seeds.  Each (level, seed) draws
    one corrupted vector, which every learned structure runs on; a draw equal
    to the previous seed's (every draw at t=0 or t=100 is) reuses its rows.
    Rows come in `structures` order, a learned structure's levels in
    `t_values` order.
    An empty or repeating list of levels, a negative k, a non-integer
    parameter, a level outside [0, 100], fewer than one repeat or a negative
    first seed (base_seed + 1) is a ConfigError, raised before any load or run.
    """
    _check_structures(structures)
    size = _rows_for(k)
    # Each level as the int it names, so a row reads t=1 for True, not t=True.
    t_values = [_index(t_pct, "corruption percentage") for t_pct in t_values]
    if not t_values:
        raise ConfigError("no corruption percentages given")
    for t_pct in t_values:
        if not 0 <= t_pct <= 100:
            raise ConfigError(f"corruption percentage {t_pct} outside [0, 100]")
    if len(set(t_values)) < len(t_values):
        raise ConfigError(f"corruption percentages {t_values} repeat a level")
    if _index(repeats, "repeats") < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    if _index(base_seed, "base_seed") + 1 < 0:
        raise ConfigError(f"seed {base_seed} makes the first corruption seed "
                          f"{base_seed + 1} negative")
    keys = _load(spec, size, f"k={k} (train and test of {size} each)")
    train, test = _window(keys, size, size)
    label = spec.label()
    predictions = _predict(structures, train, test)
    raws = [key.raw for key in test.keys]
    true_ranks = _true_ranks(raws)
    learned = [s for s in structures if _learned(s)]
    blind = [s for s in structures if not _learned(s)]

    rows = {s: [_summary(s, [row])] for s, row in
            zip(blind, _rows(blind, label, raws, None, true_ranks, train=len(train)))}
    rows.update((s, []) for s in learned)
    for t_pct in t_values if learned else ():
        runs, drawn = [], None
        for r in range(1, repeats + 1):
            ranks = corrupt(predictions, t_pct, base_seed + r)
            runs.append(runs[-1] if ranks == drawn else
                        _rows(learned, label, raws, ranks, true_ranks,
                              train=len(train)))
            drawn = ranks
        for s, seeded in zip(learned, zip(*runs)):
            rows[s].append(_summary(f"{s}:t={t_pct}", seeded))
    return [row for s in structures for row in rows[s]]


def _synthesize(
    kind: str, n: int, seed: int, eta: int | None, mu: float | None, s: float | None
) -> tuple[list[int], list[int], list[int]]:
    """(raws, predictions, true ranks) for one kind whose parameters
    run_synthetic has checked."""
    rng = random.Random(seed)
    if kind == "sequential":
        raws = [i * SCALE for i in range(1, n + 1)]
    elif kind == "hammer":
        # The largest key arrives first; everything after lands just below
        # it, hammering the same gap.
        raws = [n * SCALE] + [i * SCALE for i in range(1, n)]
    elif kind == "stochastic":
        raws = sorted(rng.sample(range(1, 10**12), n))
    else:
        raws = rng.sample(range(1, 10**12), n)
    true = _true_ranks(raws)
    if kind == "noisy-eta":
        preds = [clamp(r + rng.randint(-eta, eta), 1, n) for r in true]
    elif kind == "stochastic":
        # An error beyond +-2n clamps to the same rank as +-2n does; bounding
        # it first keeps a huge finite mu or s from overflowing to inf.
        preds = [clamp(r + round(clamp(rng.gauss(mu, s), -2 * n, 2 * n)), 1, n)
                 for r in true]
    else:
        preds = true
    return raws, preds, true


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
    adds rounded normal(mu, s^2) error and arrives in sorted order, its
    label writing mu and s as floats (-0.0 as 0.0).  Keys are distinct, so
    every merge is checked for its error witness and any violation raises.
    Bad parameters (an unknown kind or structure, a non-integer n, seed or
    eta, a mu or s that is not a real number with a finite float, a negative
    s, eta or seed, a missing eta, mu or s, an eta or mu or s the kind does
    not read) are a ConfigError raised before anything is generated or run.
    """
    _check_structures(structures)
    if kind not in SYNTHETIC_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r}; pick from {SYNTHETIC_KINDS}")
    n, seed = _index(n, "n"), _index(seed, "seed")
    if n < 2 or n & (n - 1):
        raise ConfigError(f"n must be a power of two >= 2, got {n}")
    if seed < 0:
        raise ConfigError(f"seed {seed} is negative")
    if eta is not None and kind != "noisy-eta":
        raise ConfigError(f"eta is a noisy-eta parameter; {kind} does not read it")
    if (mu is not None or s is not None) and kind != "stochastic":
        raise ConfigError(f"mu and s are stochastic parameters; {kind} does not read them")
    if kind == "noisy-eta" and (eta is None or (eta := _index(eta, "eta")) < 0):
        raise ConfigError("noisy-eta needs eta >= 0")
    if kind == "stochastic":
        if mu is None or s is None:
            raise ConfigError("stochastic needs mu and s")
        mu, s = _real(mu, "mu"), _real(s, "s")  # so a label reads mu=1.0 for 1 or True
        if s < 0:
            raise ConfigError(f"stochastic needs s >= 0, got s={s}")
    label = {"noisy-eta": f"synth-noisy-eta:eta={eta}",
             "stochastic": f"synth-stochastic:mu={mu};s={s}"}.get(kind, f"synth-{kind}")
    raws, predictions, true_ranks = _synthesize(kind, n, seed, eta, mu, s)
    return _rows(structures, label, raws, predictions, true_ranks, train=0,
                 seed=seed, check_witness=True)


# ----------------------------------------------------------------------
# output

CSV_HEADER = ",".join(f.name for f in fields(ExperimentResult))


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


def _cell(value) -> object:
    """A float as :.6f, None as an empty cell, anything else as is."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return "" if value is None else value


def _write_csv(results: list[ExperimentResult], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(map(_cell, astuple(r)) for r in results)
