"""Rank predictors: empirical scaling, drift correction, corruption."""

import random
from bisect import bisect_left
from fractions import Fraction
from math import floor
from pathlib import Path

import pytest

from listlabel import predictors
from listlabel.core import Key
from listlabel.harness import DatasetSpec, load_dataset
from listlabel.learned import LearnedLLA
from listlabel.predictors import (
    SequenceSlice,
    best_fit_slope,
    corrupt,
    predictor1,
    predictor2,
    select_predictor,
)


def slice_of(raws, offset=0):
    return SequenceSlice(list(map(Key, raws)), offset)


class TestEmpiricalRank:
    """predictor1 with |test| == |train| is the bare empirical rank:
    (number of train keys strictly below the key) + 1, clamped to |test|."""

    def test_counts_strictly_smaller_plus_one(self):
        train = slice_of([10, 20, 30, 40])
        assert predictor1(train, slice_of([25, 0, 0, 0])).ranks[0] == 3

    def test_below_all_is_one(self):
        assert predictor1(slice_of([10, 20]), slice_of([5, 0])).ranks[0] == 1

    def test_ties_rank_low(self):
        train = slice_of([10, 20, 30, 40])
        assert predictor1(train, slice_of([20, 0, 0, 0])).ranks[0] == 2

    def test_above_all(self):
        # one past the train size, then clamped to the test size
        assert predictor1(slice_of([10, 20]), slice_of([99, 0])).ranks[0] == 2


class TestPredictor1:
    def test_scales_by_size_ratio(self):
        train = slice_of([10, 20, 30, 40])
        test = slice_of([25, 1, 1, 1, 1, 1, 1, 1])
        ranks = predictor1(train, test).ranks
        assert ranks[0] == 6  # rank 3 of 4, scaled into 8

    def test_identity_when_sizes_match(self):
        train = slice_of([10, 20, 30, 40])
        test = slice_of([10, 20, 30, 40])
        assert predictor1(train, test).ranks == [1, 2, 3, 4]

    def test_clamps_to_test_size(self):
        train = slice_of([10, 20, 30, 40])
        test = slice_of([999] * 8)
        assert predictor1(train, test).ranks == [8] * 8

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            predictor1(slice_of([]), slice_of([1]))

    @pytest.mark.parametrize("seed", range(6))
    def test_scaling_matches_fraction_rounding(self, seed):
        # round half up of (keys below + 1)·|test|/|train|, then clamped
        rng = random.Random(seed)
        train = slice_of([rng.randrange(100) for _ in range(rng.randint(1, 60))])
        test = slice_of([rng.randrange(-10, 110) for _ in range(rng.randint(1, 60))])
        raws = sorted(k.raw for k in train.keys)
        t, r = len(test), len(train)
        expected = [min(max(floor(Fraction((bisect_left(raws, k.raw) + 1) * t, r)
                                  + Fraction(1, 2)), 1), t)
                    for k in test.keys]
        assert predictor1(train, test).ranks == expected


class TestBestFitSlope:
    def test_perfect_line(self):
        assert best_fit_slope(slice_of([5, 7, 9, 11])) == 2

    def test_constant_keys(self):
        assert best_fit_slope(slice_of([10, 10, 10])) == 0

    def test_three_points_exact_rational(self):
        assert best_fit_slope(slice_of([1, 2, 4])) == Fraction(3, 2)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            best_fit_slope(slice_of([5]))


class TestPredictor2:
    def test_zero_slope_equals_predictor1(self):
        train = slice_of([10, 10, 10, 10])
        test = slice_of([5, 10, 15, 20], offset=4)
        assert predictor2(train, test).ranks == predictor1(train, test).ranks

    def test_unit_drift_shifts_train_by_window_distance(self):
        # slope 1, test right after a train of 4: the comparison points
        # move up by 4 raw units, so the continuing line maps onto 1..4
        train = slice_of([1, 2, 3, 4])
        test = slice_of([5, 6, 7, 8], offset=4)
        assert predictor2(train, test).ranks == [1, 2, 3, 4]
        # without the shift the same keys all collapse to the top rank
        assert predictor1(train, test).ranks == [4, 4, 4, 4]

    @staticmethod
    def fraction_shifted(train, test):
        """The drift-corrected training keys, computed with Fraction."""
        a = best_fit_slope(train)
        r, t = len(train.keys), len(test.keys)
        d = test.start_offset - train.start_offset
        out = []
        for i, k in enumerate(train.keys, start=1):
            shift = a * (d + i * Fraction(t - r, r))
            out.append(k.raw + (2 * shift.numerator + shift.denominator)
                       // (2 * shift.denominator))
        return out

    @pytest.fixture
    def seen(self, monkeypatch):
        """Every list of training raws predictor2 hands to the ranking step
        it shares with predictor1."""
        seen = []
        rank = predictors._scaled_ranks

        def spy(train_raws, test):
            seen.append(list(train_raws))
            return rank(train_raws, test)

        monkeypatch.setattr(predictors, "_scaled_ranks", spy)
        return seen

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_shift_matches_fraction_formula(self, seed, seen):
        rng = random.Random(seed)
        r = rng.choice([2, 3, 7, 64, 200])
        step = (-1) ** seed * rng.randint(1, 10**9)  # odd seeds slope down
        raws = [i * step + rng.randint(-10**8, 10**8) for i in range(r)]
        offset = rng.randint(0, 10**4)
        for t in (r, r + rng.randint(1, 50), max(1, r // 3)):
            train = slice_of(raws, offset)
            test = slice_of(rng.sample(range(-10**12, 10**12), t),
                            offset + r + rng.randint(0, 500))
            seen.clear()
            predictor2(train, test)
            assert seen == [self.fraction_shifted(train, test)]

    @pytest.mark.parametrize("raws, rounded", [([0, 1], [1, 2]), ([1, 0], [1, -1])])
    def test_half_shifts_round_up(self, raws, rounded, seen):
        # slope ±1, r=2, t=3, d=0: the exact shifts are ±1/2 and ±1
        train, test = slice_of(raws), slice_of([5, 6, 7])
        predictor2(train, test)
        assert seen == [rounded] == [self.fraction_shifted(train, test)]


def stationary_raws():
    return random.Random(6).sample(range(10**6), 64)


def drifting_raws():
    rng = random.Random(6)
    return [t * 1000 + rng.randint(-50, 50) for t in range(64)]


def noisy_raws(seed):
    rng = random.Random(seed)
    slope = rng.choice([0, 1, 5, 100])
    return [t * slope + rng.randint(-20, 20) for t in range(rng.choice([8, 12, 16, 24, 32]))]


def actions_training_raws(k=8):
    """The first 2^k keys of the actions fixture, `llabench table`'s training
    window at k."""
    spec = DatasetSpec(Path(__file__).resolve().parent / "data" / "actions_sample.tsv",
                       value_column=1, timestamp_column=3)
    return [key.raw for key in load_dataset(spec).keys[: 2**k]]


def full_cost_choice(train):
    """select_predictor's rule with both predictors scored in full."""
    half = len(train.keys) // 2
    first = SequenceSlice(train.keys[:half], train.start_offset)
    second = SequenceSlice(train.keys[half:], train.start_offset + half)

    def cost(pred):
        lla = LearnedLLA(len(second.keys))
        return sum(lla.insert(key.raw, seq, rank)
                   for seq, (key, rank) in enumerate(zip(second.keys, pred.ranks)))

    c1 = cost(predictor1(first, second))
    c2 = cost(predictor2(first, second))
    return "predictor2" if c2 < c1 else "predictor1"


class TestSelectPredictor:
    def test_stationary_stream_picks_plain_scaling(self):
        assert select_predictor(slice_of(stationary_raws())) == "predictor1"

    def test_drifting_stream_picks_drift_correction(self):
        assert select_predictor(slice_of(drifting_raws())) == "predictor2"

    def test_exact_tie_prefers_plain_scaling(self):
        # constant keys: zero slope makes both candidates identical
        assert select_predictor(slice_of([7, 7, 7, 7])) == "predictor1"

    @pytest.fixture
    def inserts(self, monkeypatch):
        """The number of LearnedLLA.insert calls made so far."""
        calls = [0]
        insert = LearnedLLA.insert

        def spy(self, *args):
            calls[0] += 1
            return insert(self, *args)

        monkeypatch.setattr(LearnedLLA, "insert", spy)
        return calls

    @pytest.mark.parametrize("raws", [
        drifting_raws(), stationary_raws(), [7, 7, 7, 7], actions_training_raws(),
    ] + [noisy_raws(seed) for seed in range(40)],
        ids=["drifting", "stationary", "constant", "actions-k8"]
        + [f"noisy-{seed}" for seed in range(40)])
    def test_matches_both_predictors_scored_in_full(self, raws):
        # the small noisy streams often bring a running sum level with the
        # other total before passing it: a stop at equality misjudges them
        train = slice_of(raws, offset=3)
        assert select_predictor(train) == full_cost_choice(train)

    def test_losing_simulation_stops_early(self, inserts):
        # predictor2 is scored in full (32 inserts), predictor1 only until
        # its running sum passes that total
        assert select_predictor(slice_of(drifting_raws())) == "predictor2"
        assert 32 < inserts[0] < 64

    def test_a_winning_plain_scaling_runs_in_full(self, inserts):
        assert select_predictor(slice_of(stationary_raws())) == "predictor1"
        assert inserts[0] == 64

    def test_too_small_train_rejected(self):
        with pytest.raises(ValueError):
            select_predictor(slice_of([1, 2, 3]))


class TestCorrupt:
    def test_zero_percent_is_identity(self):
        pred = [3, 1, 4, 1, 5]
        assert corrupt(pred, 0, rng_seed=9) == [3, 1, 4, 1, 5]

    def test_full_corruption_of_low_ranks_goes_high(self):
        pred = [1, 2, 2, 1]
        assert corrupt(pred, 100, rng_seed=9) == [4, 4, 4, 4]

    def test_equidistant_breaks_toward_top(self):
        pred = [5] * 9  # rank 5 of 9: both ends 4 away
        assert corrupt(pred, 100, rng_seed=1) == [9] * 9

    def test_high_ranks_go_low(self):
        pred = [10, 9] * 5
        assert corrupt(pred, 100, rng_seed=1) == [1] * 10

    def test_exact_count_corrupted_deterministically(self):
        base = list(range(2, 42))  # none already at an endpoint
        first = corrupt(base, 25, rng_seed=5)
        again = corrupt(base, 25, rng_seed=5)
        assert base == list(range(2, 42))  # the input list is left alone
        assert first == again
        changed = sum(1 for a, b in zip(base, first) if a != b)
        assert changed == 10  # floor(25 * 40 / 100)

    @pytest.mark.parametrize("t", [0, 25, 100])
    def test_negative_seed_rejected_at_every_level(self, t):
        with pytest.raises(ValueError, match="seed -1 is negative"):
            corrupt([1, 2, 3, 4], t, rng_seed=-1)

    def test_bad_percent_rejected(self):
        with pytest.raises(ValueError):
            corrupt([1], 101, rng_seed=0)
        with pytest.raises(ValueError):
            corrupt([1], -1, rng_seed=0)

    @pytest.mark.parametrize("t, seed", [(12.5, 1), (50, 1.5), (0, 1.5), (100, "1")])
    def test_non_integer_percent_or_seed_rejected(self, t, seed):
        # a ValueError from the library whether or not anything is sampled,
        # never numpy's TypeError
        with pytest.raises(ValueError, match="must be integers"):
            corrupt(list(range(1, 9)), t, rng_seed=seed)
