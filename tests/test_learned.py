"""Prediction-routed wrapper: routing rule, merges, labels, accounting.

The sharpest oracle here: routing every element with predicted rank 1 must
make the wrapper behave *exactly* like a single growing array chain --
start at 6 slots, rebuild into double the slots at half density -- because
that is what the structure degenerates to.  We code that chain directly
and demand identical movement totals and identical final labels.
"""

import random
from bisect import bisect_right

import pytest

from listlabel import learned
from listlabel.core import MIN_RAW, RAW_MAX, CapacityError, MovementLedger
from listlabel.learned import LearnedLLA, witness_error_check
from listlabel.pma import Pma


class TestCapacityShape:
    def test_eight_leaves_forty_eight_slots(self):
        lla = LearnedLLA(8)
        assert lla.n == 8
        assert lla.slot_count == 48
        assert lla.partition() == [(0, i) for i in range(8)]

    def test_single_slot_tree_is_its_own_root(self):
        lla = LearnedLLA(1)
        assert lla.n == 1
        assert lla.partition() == [(0, 0)]

    def test_odd_capacity_rounds_up_but_clamps_true(self):
        lla = LearnedLLA(5)
        assert lla.n == 8  # tree shape rounds to a power of two
        for seq, raw in enumerate([10, 20, 30, 40, 50]):
            lla.insert(raw, seq, predicted_rank=99)  # clamps to 5, not 8
        assert lla.predicted_rank[0] == 5
        with pytest.raises(CapacityError):
            lla.insert(60, 5, 1)


class TestBoundary:
    @pytest.mark.parametrize(
        "raw", [float("nan"), 1.5, "7", 2**63 - 1, 2**64, RAW_MAX + 1, MIN_RAW - 1]
    )
    def test_rejects_bad_key_before_any_change(self, raw):
        led = MovementLedger()
        lla = LearnedLLA(8, ledger=led)
        lla.insert(100, 0, 1)
        with pytest.raises(ValueError):
            lla.insert(raw, 1, 2)
        assert lla.count == 1 and lla.predicted_rank == {0: 1}
        assert lla.global_labels() == [(100, 0, 1)]
        assert (led.total_inserts, led.total_movements) == (1, 1)

    def test_accepts_both_ends_of_the_key_range(self):
        lla = LearnedLLA(8)
        for seq, raw in enumerate([0, RAW_MAX, MIN_RAW, RAW_MAX, MIN_RAW]):
            lla.insert(raw, seq, 4)
        assert [r for r, _, _ in lla.global_labels()] == [
            MIN_RAW, MIN_RAW, 0, RAW_MAX, RAW_MAX
        ]
        assert lla.neighbor_actuals(MIN_RAW)[0] == lla.actuals()[0]
        assert lla.neighbor_actuals(RAW_MAX)[1] is None

    def test_rejects_reused_seq(self):
        lla = LearnedLLA(8)
        lla.insert(100, 7, 1)
        with pytest.raises(ValueError):
            lla.insert(200, 7, 8)
        assert lla.count == 1 and lla.predicted_rank == {7: 1}
        assert lla.global_labels() == [(100, 7, 1)]


class TestRouting:
    def test_predecessor_right_of_prediction_wins(self):
        lla = LearnedLLA(8)
        lla.insert(200, 0, 2)
        lla.insert(400, 1, 4)
        # prediction says leaf 1 but the predecessor sits in leaf 2
        assert lla.route(300, 1) == (0, 1)

    def test_successor_left_of_prediction_wins(self):
        lla = LearnedLLA(8)
        lla.insert(300, 0, 3)
        # no predecessor; successor in leaf 3 caps the predicted leaf 5
        assert lla.route(100, 5) == (0, 2)

    def test_prediction_wins_between_neighbors(self):
        lla = LearnedLLA(8)
        lla.insert(400, 0, 4)
        assert lla.route(100, 2) == (0, 1)

    def test_empty_structure_follows_prediction(self):
        lla = LearnedLLA(8)
        assert lla.neighbor_actuals(500) == (None, None)
        for rank in (1, 3, 8):
            assert lla.route(500, rank) == (0, rank - 1)

    def test_extreme_keys_use_edge_defaults(self):
        lla = LearnedLLA(8)
        lla.insert(300, 0, 4)
        assert lla.route(50, 1) == (0, 0)  # below everything: leftmost leaf
        assert lla.route(999, 8) == (0, 7)  # above everything: rightmost leaf

    def test_out_of_range_predictions_clamp(self):
        lla = LearnedLLA(8)
        assert lla.route(500, -17) == lla.route(500, 1)
        assert lla.route(500, 10**9) == lla.route(500, 8)


class TestMergeAccounting:
    def test_minimal_overflow_merges_once_and_charges_four(self):
        led = MovementLedger()  # theory accounting: placements count
        lla = LearnedLLA(8, ledger=led)
        charges = []
        for seq, raw in enumerate([100, 200, 300, 400]):
            charges.append(lla.insert(raw, seq, 1))
        # first three pack the leaf; the fourth breaches half density,
        # and the rebuilt two-rank parent holds 4 elements for 4 charged
        # movements (its own placement plus three relabels)
        assert charges == [1, 1, 1, 4]
        assert lla.merges == 1
        assert [label for _, _, label in lla.global_labels()] == [1, 4, 7, 10]
        assert lla.partition()[0] == (1, 0)

    def test_overshoot_cascades_upward(self):
        lla = LearnedLLA(16)
        for seq, (raw, rank) in enumerate(
            [(10, 1), (20, 1), (30, 1), (40, 2), (50, 2), (60, 2)]
        ):
            lla.insert(raw, seq, rank)
        assert lla.merges == 0
        lla.insert(35, 6, 1)  # overflows the first leaf, then the parent
        assert lla.merges == 2
        assert lla.partition()[0] == (2, 0)
        for rec in lla.actuals():
            assert rec.box.count * 2 <= 6 << rec.height

    def test_global_labels_add_slot_offset(self):
        lla = LearnedLLA(8)
        lla.insert(10, 0, 3)
        lla.insert(20, 1, 3)
        rec = lla.actuals()[0]
        assert (rec.height, rec.node) == (0, 2)  # third unit leaf owns slots 13..18
        local = [label for _, _, label in rec.box.labels()]
        assert local == [1, 2]
        assert [g for _, _, g in lla.global_labels()] == [13, 14]


class TestPerfectPredictions:
    def test_no_merges_no_relabels(self):
        rng = random.Random(2)
        raws = rng.sample(range(10**9), 64)
        ranks = {raw: i + 1 for i, raw in enumerate(sorted(raws))}
        led = MovementLedger(first_placement_excluded=True)
        lla = LearnedLLA(64, ledger=led)
        for seq, raw in enumerate(raws):
            lla.insert(raw, seq, ranks[raw])
        assert lla.merges == 0
        assert led.total_movements == 0
        # every element alone in its own leaf
        assert all(rec.box.count == 1 for rec in lla.actuals())

    def test_theory_ledger_counts_placements_only(self):
        raws = random.Random(3).sample(range(10**6), 32)
        ranks = {raw: i + 1 for i, raw in enumerate(sorted(raws))}
        led = MovementLedger()
        lla = LearnedLLA(32, ledger=led)
        for seq, raw in enumerate(raws):
            lla.insert(raw, seq, ranks[raw])
        assert led.total_movements == 32


# ----------------------------------------------------------------------
# the degenerate chain


class GrowingChain:
    """A single array that doubles by even rebuild at half density."""

    def __init__(self, ledger: MovementLedger):
        self.ledger = ledger
        self.width = 1  # rank width the current array stands in for
        self.box = Pma(6)
        self.rebuilds = 0

    def insert(self, raw: int, seq: int) -> None:
        self.ledger.record_insert(self.box.insert(raw, seq))
        while self.box.count * 2 > 6 * self.width:
            old = {s: label for _, s, label in self.box.labels()}
            raws = [r for r, _, _ in self.box.labels()]
            seqs = [s for _, s, _ in self.box.labels()]
            self.width *= 2
            self.box = Pma(6 * self.width)
            self.box.init(raws, seqs)
            moved = sum(
                1 for _, s, label in self.box.labels() if old[s] != label
            )
            self.ledger.record_moves(moved)
            self.rebuilds += 1

    def labels(self):
        return self.box.labels()


@pytest.mark.parametrize("stream", ["increasing", "random"])
def test_rank_one_routing_equals_growing_chain(stream):
    n = 100
    if stream == "increasing":
        raws = [i * 7 for i in range(n)]
    else:
        raws = random.Random(41).sample(range(10**9), n)

    led_a = MovementLedger()
    lla = LearnedLLA(n, ledger=led_a)
    led_b = MovementLedger()
    chain = GrowingChain(led_b)
    for seq, raw in enumerate(raws):
        lla.insert(raw, seq, 1)
        chain.insert(raw, seq)

    assert lla.merges == chain.rebuilds
    assert led_a.total_movements == led_b.total_movements
    assert lla.global_labels() == list(chain.labels())
    # and therefore trivially within 2x of the baseline built the same way
    assert led_a.total_movements <= 2 * led_b.total_movements


# ----------------------------------------------------------------------
# merge witnesses


def test_witness_boundary_at_half_width():
    merged_recs = []
    lla = LearnedLLA(8, merge_listener=lambda _l, rec: merged_recs.append(rec))
    for seq, raw in enumerate([100, 200, 300, 400]):
        lla.insert(raw, seq, 1)
    (rec,) = merged_recs
    assert rec.height == 1  # |P| = 2, threshold is error >= 1
    truth_with_error = {0: 1, 1: 2, 2: 3, 3: 4}
    assert witness_error_check(lla, rec, truth_with_error)
    truth_equal_to_predictions = {seq: 1 for seq in range(4)}
    assert not witness_error_check(lla, rec, truth_equal_to_predictions)


# ----------------------------------------------------------------------
# invariants under fuzz


def test_tree_searches_match_linear_scan_on_duplicates():
    """neighbor_actuals and route agree with a scan of actuals() after every
    insert, on a duplicate-heavy stream whose random predictions merge."""
    rng = random.Random(5)
    n = 256
    lla = LearnedLLA(n)
    for seq in range(n):
        lla.insert(rng.randrange(24), seq, rng.randint(1, n))
        spans = [(rec, min(r for r, _, _ in rec.box.labels()),
                  max(r for r, _, _ in rec.box.labels())) for rec in lla.actuals()]
        for raw in range(-1, 26):
            pred = next((rec for rec, lo, _ in reversed(spans) if lo <= raw), None)
            succ = next((rec for rec, _, hi in spans if hi > raw), None)
            assert lla.neighbor_actuals(raw) == (pred, succ), (seq, raw)

            rank = rng.randint(1, n)
            h, node = next((h, node) for h, node in lla.partition()
                           if (node << h) < rank <= ((node + 1) << h))
            if pred is not None and pred.node << pred.height > node << h:
                h, node = pred.height, pred.node
            elif succ is not None and succ.node << succ.height < node << h:
                h, node = succ.height, succ.node
            assert lla.route(raw, rank) == (h, node), (seq, raw, rank)
    assert lla.merges > 0


@pytest.mark.parametrize("noise", [0, 1, 8])
def test_route_climb_matches_neighbor_rule(noise, monkeypatch):
    """Exact (noise 0), off-by-one (noise 1) and off-by-eight predictions on
    2^10 distinct keys: after every insert, route agrees with the
    neighbor_actuals rule on the next key and on stored keys probed one rank
    either side of their own, and it descends exactly when the rule
    overrides the prediction.  Only off-by-eight merges, so only it climbs
    from actuals above the leaves."""
    descents = []
    for name in ("pred_leaf", "succ_leaf"):
        inner = getattr(learned, name)
        monkeypatch.setattr(learned, name,
                            lambda tree, raw, inner=inner: descents.append(raw) or inner(tree, raw))
    rng = random.Random(10 + noise)
    n = 1 << 10
    raws = rng.sample(range(10**9), n)
    true = {raw: rank for rank, raw in enumerate(sorted(raws), start=1)}
    preds = [true[raw] + rng.choice((-noise, noise)) for raw in raws]
    lla = LearnedLLA(n)
    outcomes = {"override": 0, "kept": 0}
    for i, raw in enumerate(raws):
        parts = lla.partition()
        starts = [(node << h) + 1 for h, node in parts]
        probes = [(raw, preds[i])]
        if i:
            old = raws[rng.randrange(i)]
            probes += [(old, true[old] + d) for d in (-1, 1)]
        for key, rank in probes:
            h, node = parts[bisect_right(starts, min(max(rank, 1), n)) - 1]
            pred, succ = lla.neighbor_actuals(key)
            if pred is not None and pred.node << pred.height > node << h:
                want = pred.height, pred.node
            elif succ is not None and succ.node << succ.height < node << h:
                want = succ.height, succ.node
            else:
                want = h, node
            descents.clear()
            assert lla.route(key, rank) == want, (i, key, rank)
            assert bool(descents) == (want != (h, node)), (i, key, rank)
            outcomes["override" if descents else "kept"] += 1
        lla.insert(raw, i, preds[i])
    assert outcomes["override"] > 100 and outcomes["kept"] > 100
    assert (lla.merges > 0) == (noise > 1)


def test_invariants_and_ledger_match_shadow_diff():
    """Every charged movement is a label change some snapshot can see.

    An insert runs in phases: place into a leaf box (shifting a run at
    most once), then zero or more merges, each an even rebuild of a
    bigger box.  Snapshotting global labels at every phase boundary and
    summing the diffs must reproduce the ledger exactly; comparing only
    end states would miss movements that a later phase undoes.
    """
    rng = random.Random(77)
    n = 256
    led = MovementLedger()
    lla = LearnedLLA(n, ledger=led)

    snaps: list[dict[int, int]] = []
    inner_merge = lla.merge_parent

    def spying_merge(rec):
        snaps.append({s: g for _, s, g in lla.global_labels()})
        out = inner_merge(rec)
        snaps.append({s: g for _, s, g in lla.global_labels()})
        return out

    lla.merge_parent = spying_merge

    raws = rng.sample(range(10**9), n)
    shadow: dict[int, int] = {}
    for seq, raw in enumerate(raws):
        before = led.total_movements
        snaps.clear()
        lla.insert(raw, seq, rng.randint(-5, n + 5))
        labels = lla.global_labels()
        now = {s: label for _, s, label in labels}

        boundaries = [shadow, *snaps, now]
        expected = 1  # the new element's placement
        first_after = boundaries[1]
        expected += sum(
            1 for s, g in boundaries[0].items() if first_after[s] != g
        )
        for i in range(1, len(boundaries) - 1, 2):
            pre, post = boundaries[i], boundaries[i + 1]
            expected += sum(1 for s, g in pre.items() if post[s] != g)
        assert led.total_movements - before == expected
        shadow = now

        values = [r for r, _, _ in labels]
        assert values == sorted(values)
        assert len({label for _, _, label in labels}) == len(labels)

        if seq % 32 == 31:
            covered = 0
            starts = set()
            for h, node in lla.partition():
                covered += 1 << h
                starts.add((node << h) + 1)
            assert covered == lla.n
            for rec in lla.actuals():
                assert (rec.node << rec.height) + 1 in starts
                assert rec.box.count * 2 <= 6 << rec.height
    assert lla.count == n
