"""Rank prediction from a training prefix of the key stream.

Two predictors forecast each test key's final rank among the test keys:

* ``predictor1`` — the key's rank within the training slice, scaled by the
  test/train size ratio.
* ``predictor2`` — the same, after sliding the training keys forward along
  the stream's best-fit linear trend, which compensates for drift between
  the training window and the test window.

``select_predictor`` picks between them by splitting the training slice in
half and simulating the labeled-array cost of each on the second half.
``corrupt`` implements the adversarial-noise protocol used by the
robustness benchmarks: a sampled fraction of predictions is pushed to
whichever extreme rank (1 or n) is farther away.

All arithmetic is exact: scaled ranks use integer round-half-up, the trend
slope is a `Fraction`, and shifts land on the fixed-point raw grid before
any comparison, so repeated runs are bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .core import Key, MovementLedger
from .learned import LearnedLLA

__all__ = [
    "SequenceSlice",
    "PredictionVector",
    "empirical_rank",
    "predictor1",
    "predictor2",
    "best_fit_slope",
    "select_predictor",
    "corrupt",
]


@dataclass
class SequenceSlice:
    """A contiguous run of keys in arrival order.

    start_offset is the position of the slice's first key within the full
    input sequence; predictor2 uses offset differences to measure how far
    the test window sits from the training window.
    """

    keys: list[Key]
    start_offset: int = 0

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class PredictionVector:
    """Predicted final ranks, aligned 1:1 with a test slice."""

    ranks: list[int]

    def __len__(self) -> int:
        return len(self.ranks)


def _round_half_up(num: int, den: int) -> int:
    """round(num/den) with halves going up; den must be positive."""
    return (2 * num + den) // (2 * den)


def empirical_rank(train: SequenceSlice, x: Key) -> int:
    """(number of train keys strictly below x) + 1; ties rank low."""
    raws = sorted(k.raw for k in train.keys)
    return bisect_left(raws, x.raw) + 1


def predictor1(train: SequenceSlice, test: SequenceSlice) -> PredictionVector:
    """Empirical train rank scaled by |test|/|train|, clamped to [1, |test|]."""
    if not train.keys:
        raise ValueError("empty training slice")
    raws = sorted(k.raw for k in train.keys)
    r, t = len(raws), len(test.keys)
    ranks = []
    for x in test.keys:
        emp = bisect_left(raws, x.raw) + 1
        scaled = _round_half_up(emp * t, r)
        ranks.append(min(max(scaled, 1), t))
    return PredictionVector(ranks)


def best_fit_slope(train: SequenceSlice) -> Fraction:
    """Ordinary-least-squares slope of raw key value against arrival index."""
    n = len(train.keys)
    if n < 2:
        raise ValueError("need at least 2 keys to fit a slope")
    sx = n * (n + 1) // 2
    sxx = n * (n + 1) * (2 * n + 1) // 6
    sy = sxy = 0
    for i, k in enumerate(train.keys, start=1):
        sy += k.raw
        sxy += i * k.raw
    return Fraction(n * sxy - sx * sy, n * sxx - sx * sx)


def predictor2(train: SequenceSlice, test: SequenceSlice) -> PredictionVector:
    """predictor1 on a drift-corrected copy of the training keys.

    The i-th training key slides by a·(d + i·(|test|/|train| − 1)) raw
    units, where a is the best-fit slope and d the offset between the two
    windows — the linear extrapolation of where that key's neighborhood
    will sit by the time the test window arrives.
    """
    a = best_fit_slope(train)
    r, t = len(train.keys), len(test.keys)
    d = test.start_offset - train.start_offset
    # a·(d + i·(t − r)/r) = N·(d·r + i·(t − r)) / (D·r) with a = N/D, D > 0.
    num, den = a.numerator, a.denominator * r
    shifted = [
        Key(k.raw + _round_half_up(num * (d * r + i * (t - r)), den), k.seq)
        for i, k in enumerate(train.keys, start=1)
    ]
    return predictor1(SequenceSlice(shifted, train.start_offset), test)


def select_predictor(train: SequenceSlice) -> str:
    """Pick 'predictor1' or 'predictor2' by simulated cost.

    The training slice is split in half; each predictor trains on the first
    half and is scored by the movements a learned labeled array incurs
    inserting the second half under its predictions.  Ties keep the simpler
    predictor1.
    """
    if len(train.keys) < 4:
        raise ValueError("need at least 4 training keys to hold out a validation half")
    half = len(train.keys) // 2
    first = SequenceSlice(train.keys[:half], train.start_offset)
    second = SequenceSlice(train.keys[half:], train.start_offset + half)

    def cost(pred: PredictionVector) -> int:
        ledger = MovementLedger(first_placement_excluded=True)
        lla = LearnedLLA(len(second.keys), ledger=ledger)
        for seq, (key, rank) in enumerate(zip(second.keys, pred.ranks)):
            lla.insert(key.raw, seq, rank)
        return ledger.total_movements

    c1 = cost(predictor1(first, second))
    c2 = cost(predictor2(first, second))
    return "predictor2" if c2 < c1 else "predictor1"


def corrupt(pred: PredictionVector, t: int, n: int, rng_seed: int) -> PredictionVector:
    """Push ⌊t·n/100⌋ sampled predictions to their farthest extreme rank.

    Sampled entries become 1 or n, whichever is farther from the current
    prediction (ties toward n); the rest are untouched.  Sampling is
    uniform without replacement from a seeded generator, so a given
    (t, seed) pair always corrupts the same indices.
    """
    if not 0 <= t <= 100:
        raise ValueError(f"corruption percentage out of range: {t}")
    if len(pred.ranks) != n:
        raise ValueError("prediction vector length does not match test size")
    ranks = list(pred.ranks)
    count = t * n // 100
    if count:
        import numpy as np  # only here, so that importing the package stays light

        rng = np.random.default_rng(rng_seed)
        for i in rng.choice(n, size=count, replace=False):
            r = ranks[i]
            ranks[i] = 1 if r - 1 > n - r else n
    return PredictionVector(ranks)
