#!/usr/bin/env python3
"""The full loop on a drifting stream: learn ranks from yesterday's keys,
route today's keys by them, and see what that buys -- then poison a
growing share of the predictions and check how gracefully it degrades.

The stream is a line with heavy noise: key_i = 3i + noise.  Values drift
upward forever, so ranks learned verbatim from the training half would
be stale; the fitted-slope corrector accounts for the drift and is picked
automatically.
"""

import random

from listlabel import (
    MIN_RAW,
    Key,
    LearnedLLA,
    SequenceSlice,
    corrupt,
    fixed_point_parse,
    predictor1,
    predictor2,
    select_predictor,
)

N = 2048  # test size; the same amount again is used for training


def make_stream():
    rng = random.Random(7)
    raws = [
        fixed_point_parse(f"{3 * i + rng.uniform(-40, 40):.4f}")
        for i in range(2 * N)
    ]
    train = SequenceSlice(list(map(Key, raws[:N])))
    test = SequenceSlice(list(map(Key, raws[N:])), start_offset=N)
    return train, test


def run(keys, ranks):
    """Insert the keys routed by `ranks` (1-based, None = all rank 1)."""
    lla = LearnedLLA(N + 1)
    lla.insert(MIN_RAW, 0, 1)  # sentinel below every real key
    moved = sum(lla.insert(key.raw, i + 1, 1 if ranks is None else ranks[i] + 1)
                for i, key in enumerate(keys))
    return moved / len(keys)


def true_ranks(test):
    order = sorted(range(len(test.keys)), key=lambda i: test.keys[i])
    ranks = [0] * len(order)
    for r, i in enumerate(order):
        ranks[i] = r + 1
    return ranks


def main():
    print(__doc__)
    train, test = make_stream()

    chosen = select_predictor(train)
    fn = predictor2 if chosen == "predictor2" else predictor1
    predicted = fn(train, test)
    truth = true_ranks(test)
    eta = max(abs(p - t) for p, t in zip(predicted.ranks, truth))

    plain1 = predictor1(train, test)
    eta1 = max(abs(p - t) for p, t in zip(plain1.ranks, truth))
    print(f"predictor picked on held-out half of training: {chosen}")
    print(f"  max rank error, raw empirical ranks: {eta1}")
    print(f"  max rank error, drift-corrected:     {eta}\n")

    blind = run(test.keys, None)
    learned = run(test.keys, predicted.ranks)
    print(f"amortized relabels, blind routing:     {blind:8.3f}")
    print(f"amortized relabels, predicted routing: {learned:8.3f}\n")

    # For the poisoning sweep, shuffle the arrival order.  On a strictly
    # ascending stream one key flipped to rank n is fatal: every later
    # (larger) key must route at or above it, so the top region swallows
    # the whole structure.  Diverse arrival keeps the damage local.
    order = list(range(N))
    random.Random(13).shuffle(order)
    keys = [test.keys[i] for i in order]
    ranks = [predicted.ranks[i] for i in order]
    blind = run(keys, None)
    print("poisoning t% of predictions (flipped to whichever end is worse),")
    print(f"shuffled arrival; blind routing costs {blind:.3f} here:")
    print(f"  {'t%':>4} {'cost':>8}")
    for t in (0, 10, 25, 50, 100):
        bad = corrupt(ranks, t, rng_seed=t)
        print(f"  {t:>4} {run(keys, bad):>8.3f}")
    print(
        "\nThe advantage survives moderate poisoning and is gone once a"
        "\nquarter of the predictions are hostile; wholesale corruption"
        "\ncosts about the blind baseline -- merges coarsen the structure"
        "\nuntil it IS the baseline, which is the safety net at work."
    )


if __name__ == "__main__":
    main()
