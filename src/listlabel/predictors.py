"""Rank prediction from a training prefix of the key stream.

Two predictors forecast each test key's final rank among the test keys:

* ``predictor1`` — the key's rank within the training slice, scaled by the
  test/train size ratio.
* ``predictor2`` — the same, after sliding the training keys forward along
  the stream's best-fit linear trend, which compensates for drift between
  the training window and the test window.

``select_predictor`` picks between them by splitting the training slice in
half and simulating the labeled-array cost of each on the second half,
predictor2 first, stopping predictor1's once it has lost.
``corrupt`` implements the adversarial-noise protocol used by the
robustness benchmarks: a sampled fraction of predictions is pushed to
whichever extreme rank (1 or n) is farther away.

All arithmetic is exact: scaled ranks use integer round-half-up, the trend
slope is a `Fraction`, and shifts land on the fixed-point raw grid before
any comparison, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .core import Key
from .learned import LearnedLLA

__all__ = [
    "SequenceSlice",
    "PredictionVector",
    "predictor1",
    "predictor2",
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


def _scaled_ranks(train_raws: list[int], test: SequenceSlice) -> PredictionVector:
    """Each test key's rank among the training raws (keys strictly below,
    plus one), scaled by |test|/|train| and clamped to [1, |test|]; the
    ranking step both predictors share."""
    raws = sorted(train_raws)
    r, t = len(raws), len(test.keys)
    t2, r2 = 2 * t, 2 * r
    ranks = []
    for x in test.keys:
        # round(num/den), halves up, is (2·num + den) // (2·den); here
        # num = (keys below + 1)·t and den = r.
        scaled = ((bisect_left(raws, x.raw) + 1) * t2 + r) // r2
        ranks.append(1 if scaled < 1 else t if scaled > t else scaled)
    return PredictionVector(ranks)


def predictor1(train: SequenceSlice, test: SequenceSlice) -> PredictionVector:
    """Empirical train rank scaled by |test|/|train|, clamped to [1, |test|]."""
    if not train.keys:
        raise ValueError("empty training slice")
    return _scaled_ranks([k.raw for k in train.keys], test)


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
    """predictor1's ranking on drift-corrected training keys.

    The i-th training key slides by a·(d + i·(|test|/|train| − 1)) raw
    units, where a is the best-fit slope and d the offset between the two
    windows — the linear extrapolation of where that key's neighborhood
    will sit by the time the test window arrives.
    """
    a = best_fit_slope(train)
    r, t = len(train.keys), len(test.keys)
    d = test.start_offset - train.start_offset
    # a·(d + i·(t − r)/r) = N·(d·r + i·(t − r)) / (D·r) with a = N/D, D > 0,
    # rounded half up as in _scaled_ranks.
    num2, den = 2 * a.numerator, a.denominator * r
    den2, dr, step = 2 * den, d * r, t - r
    return _scaled_ranks(
        [k.raw + (num2 * (dr + i * step) + den) // den2
         for i, k in enumerate(train.keys, start=1)],
        test,
    )


def select_predictor(train: SequenceSlice) -> str:
    """Pick 'predictor1' or 'predictor2' by simulated cost.

    The training slice is split in half; each predictor trains on the first
    half and is scored by the relabels a learned labeled array incurs
    inserting the second half under its predictions: the sum of what
    `LearnedLLA.insert` returns.  Ties keep the simpler predictor1.

    Predictor2 is scored in full first, and predictor1's simulation stops
    as soon as its running sum exceeds that total: sums only grow, so it has
    lost by then.
    """
    if len(train.keys) < 4:
        raise ValueError("need at least 4 training keys to hold out a validation half")
    half = len(train.keys) // 2
    first = SequenceSlice(train.keys[:half], train.start_offset)
    second = SequenceSlice(train.keys[half:], train.start_offset + half)

    def cost(pred: PredictionVector, budget: float) -> int:
        """The sum of insert costs, or the first running sum above budget."""
        lla = LearnedLLA(len(second.keys))
        total = 0
        for seq, (key, rank) in enumerate(zip(second.keys, pred.ranks)):
            total += lla.insert(key.raw, seq, rank)
            if total > budget:
                break
        return total

    c2 = cost(predictor2(first, second), math.inf)
    return "predictor2" if c2 < cost(predictor1(first, second), c2) else "predictor1"


def corrupt(ranks: list[int], t: int, rng_seed: int) -> list[int]:
    """A copy of `ranks` with ⌊t·n/100⌋ sampled predictions pushed to their
    farthest extreme rank, n being the list's length (the test slice's size).

    Sampled entries become 1 or n, whichever is farther from the current
    prediction (ties toward n); the rest are untouched.  Sampling is
    uniform without replacement from a seeded generator, so a given
    (t, seed) pair always corrupts the same indices.  A non-integer t or
    seed, a t outside [0, 100] or a negative seed is a ValueError, whether or
    not anything is sampled.
    """
    try:
        t, rng_seed = operator.index(t), operator.index(rng_seed)
    except TypeError:
        raise ValueError(f"corruption percentage {t!r} and seed {rng_seed!r} "
                         "must be integers") from None
    if not 0 <= t <= 100:
        raise ValueError(f"corruption percentage out of range: {t}")
    if rng_seed < 0:
        raise ValueError(f"corruption seed {rng_seed} is negative")
    ranks = list(ranks)
    n = len(ranks)
    count = t * n // 100
    if count:
        import numpy as np  # only here, so that importing the package stays light

        rng = np.random.default_rng(rng_seed)
        for i in rng.choice(n, size=count, replace=False):
            r = ranks[i]
            ranks[i] = 1 if r - 1 > n - r else n
    return ranks
