"""Seeded inputs for the three benchmark workloads.

Each generator is a pure function of its seed.  The synthetic streams copy
the recipes of `llabench synth` (`noisy-eta` with eta=0, and `hammer`) so
their movement counts can be checked against `run_synthetic`; the drift
stream is a text table in the column layout of `tests/data/actions_sample.tsv`
(action, user, target, seconds) that goes through the `llabench table`
protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("exact-random", "hammer", "drift-ids")

# Stream sizes.  One pass over all four structures takes a few CPU seconds
# at these sizes on a 2-core x86 box with CPython 3.11, so a 20 s run
# repeats every pass several times and reports medians.
SYNTH_N = 2**14
DRIFT_K = 14  # train on 2^k rows, insert the next 2^k

# Rows of the drift table are shuffled within blocks of this many rows, so
# file order is only roughly time order and the timestamp sort does work.
DRIFT_BLOCK = 256
# A newcomer joins every this many rows and takes the next id, which is what
# makes the key stream drift upward.  A steady rate keeps the drift, and so
# the learned rows' cost, alike across seeds.
DRIFT_NEWCOMER_EVERY = 25
# Most rows come from the most recent users: ids repeat heavily.
DRIFT_RECENT = 40
DRIFT_RECENT_SHARE = 0.7


@dataclass
class SynthStream:
    """Keys in arrival order with their exact final ranks (1-based)."""

    raws: list[int]
    ranks: list[int]


def exact_random(seed: int, n: int = SYNTH_N) -> SynthStream:
    """Distinct uniform keys in random order, as `synth noisy-eta` draws them."""
    rng = random.Random(seed)
    raws = rng.sample(range(1, 10**12), n)
    return SynthStream(raws, exact_ranks(raws))


def hammer(seed: int, n: int = SYNTH_N) -> SynthStream:
    """The largest key first, then the rest ascending into the gap below it.

    `synth hammer` uses keys i * 10^7; here the base and stride come from the
    seed.  Only the arrival order of ranks drives the structures, so every
    seed moves exactly the same elements.
    """
    rng = random.Random(seed)
    base, stride = rng.randrange(10**9), rng.randrange(1, 10**7)
    raws = [base + n * stride] + [base + i * stride for i in range(1, n)]
    return SynthStream(raws, [n] + list(range(1, n)))


def exact_ranks(raws: list[int]) -> list[int]:
    """Final rank of each arrival; ties break by arrival, as the arrays do."""
    order = sorted(range(len(raws)), key=lambda i: (raws[i], i))
    ranks = [0] * len(raws)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return ranks


def write_drift_table(path: Path, seed: int, k: int = DRIFT_K) -> None:
    """Write 2^(k+1) rows of action \\t user \\t target \\t seconds.

    Seconds grow by exponential gaps, so sorting on column 3 restores the
    arrival order that the block shuffle disturbed.
    """
    rng = random.Random(seed)
    rows = []
    t = 0.0
    for i in range(2 ** (k + 1)):
        t += rng.expovariate(1 / 30)
        users = 60 + i // DRIFT_NEWCOMER_EVERY
        if rng.random() < DRIFT_RECENT_SHARE:
            user = users - 1 - rng.randrange(DRIFT_RECENT)
        else:
            user = rng.randrange(users)
        rows.append(f"{i}\t{user}\t{rng.randrange(100)}\t{t:.1f}\n")
    for lo in range(0, len(rows), DRIFT_BLOCK):
        block = rows[lo:lo + DRIFT_BLOCK]
        rng.shuffle(block)
        rows[lo:lo + DRIFT_BLOCK] = block
    path.write_text("".join(rows), encoding="utf-8")
