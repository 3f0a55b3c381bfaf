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
from listlabel.apma import Apma
from listlabel.core import MIN_RAW, RAW_MAX, CapacityError, MovementLedger, clamp
from listlabel.learned import LearnedLLA, witness_error_check
from listlabel.pma import Pma


def box_labels(box):
    """(raw, seq, label) of a box's entries, labels 1-based box slots."""
    return [(e[0], e[1], pos + 1) for pos, e in enumerate(box.slots) if e is not None]


def actual_of(lla, rank):
    """(height, node) of the actual owning `rank`, clamped to [1, capacity]
    as route clamps it."""
    leaf = min(max(rank, 1), lla.capacity) - 1
    h = lla._heights[leaf]
    return h, leaf >> h


def scan_actuals(lla):
    """A linear scan of actuals(): the stored keys, ascending, and the
    (height, node) of the actual holding each."""
    keys, owners = [], []
    for rec in lla.actuals():
        raws = [raw for raw, _ in filter(None, rec.box.slots)]
        keys += raws
        owners += [(rec.height, rec.node)] * len(raws)
    return keys, owners


def scan_neighbors(keys, owners, raw):
    """From a scan: the (height, node) of the actuals holding raw's
    predecessor (last stored key <= raw) and successor (first stored key >
    raw), None for a neighbor that does not exist."""
    i = bisect_right(keys, raw)
    return owners[i - 1] if i else None, owners[i] if i < len(keys) else None


DESCENTS = {"pred_leaf": learned.pred_leaf, "succ_leaf": learned.succ_leaf}


def guard_descents(monkeypatch, stored):
    """Patch pred_leaf and succ_leaf to assert, on every call, the
    precondition route guarantees them: some key of `stored()`, the stored
    keys in ascending order, is <= the searched key, or > it.  Returns the
    names of the descents run, in call order.  A second call replaces the
    first one's patch."""
    ran = []

    def guarded(name, inner, holds):
        def descent(tree, raw):
            keys = stored()
            assert keys and holds(keys, raw), (name, raw, keys)
            ran.append(name)
            return inner(tree, raw)
        monkeypatch.setattr(learned, name, descent)

    guarded("pred_leaf", DESCENTS["pred_leaf"], lambda keys, raw: keys[0] <= raw)
    guarded("succ_leaf", DESCENTS["succ_leaf"], lambda keys, raw: keys[-1] > raw)
    return ran


class TestCapacityShape:
    def test_eight_leaves_forty_eight_slots(self):
        lla = LearnedLLA(8)
        assert lla.n == 8
        assert lla._heights == [0] * 8
        lla.insert(10, 0, 8)
        (rec,) = lla.actuals()
        # the last of eight six-slot leaves owns global slots 43..48
        assert len(rec.box.slots) == 6
        assert lla.global_labels() == [(10, 0, 43)]

    def test_single_slot_tree_is_its_own_root(self):
        lla = LearnedLLA(1)
        assert lla.n == 1
        assert lla._heights == [0]

    def test_odd_capacity_rounds_up_but_clamps_true(self):
        lla = LearnedLLA(5)
        assert lla.n == 8  # tree shape rounds to a power of two
        assert lla.route(10, 99) == (0, 4)  # rank 5's leaf, not rank 8's
        for seq, raw in enumerate([10, 20, 30, 40, 50]):
            lla.insert(raw, seq, predicted_rank=99)  # clamps to 5, not 8
        # all five sit in rank 5's actual, merged up to ranks 5..6; an
        # unclamped 99 would route 60 to rank 8's empty leaf instead
        assert [(a.height, a.node) for a in lla.actuals()] == [(1, 2)]
        assert lla.route(60, 99) == (1, 2)
        with pytest.raises(CapacityError):
            lla.insert(60, 5, 1)

    def test_non_integer_capacity_is_a_type_error(self):
        with pytest.raises(TypeError):
            LearnedLLA(2.5)


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
        assert lla.count == 1
        assert lla.global_labels() == [(100, 0, 1)]
        assert (led.total_inserts, led.total_movements) == (1, 1)
        lla.insert(200, 1, 2)  # the rejected insert left seq 1 unused
        assert lla.global_labels() == [(100, 0, 1), (200, 1, 7)]

    def test_accepts_both_ends_of_the_key_range(self, monkeypatch):
        lla = LearnedLLA(8)
        for seq, raw in enumerate([0, RAW_MAX, MIN_RAW, RAW_MAX, MIN_RAW]):
            lla.insert(raw, seq, 4)
        assert [r for r, _, _ in lla.global_labels()] == [
            MIN_RAW, MIN_RAW, 0, RAW_MAX, RAW_MAX
        ]
        (rec,) = lla.actuals()
        assert (rec.height, rec.node) == (1, 1)
        ran = guard_descents(monkeypatch, lambda: scan_actuals(lla)[0])
        # MIN_RAW's predecessor is a stored MIN_RAW, right of rank 1
        assert lla.route(MIN_RAW, 1) == (1, 1)
        # RAW_MAX has no successor, so a prediction right of it stands ...
        assert lla.route(RAW_MAX, 8) == (0, 7)
        # ... and its predecessor, a stored RAW_MAX, overrides one left of it
        assert lla.route(RAW_MAX, 1) == (1, 1)
        assert ran == ["pred_leaf", "pred_leaf"]
        # a key below every stored one has no predecessor: only the
        # successor can override, and left of it the prediction stands
        lla2 = LearnedLLA(8)
        lla2.insert(0, 0, 4)
        ran = guard_descents(monkeypatch, lambda: scan_actuals(lla2)[0])
        assert lla2.route(MIN_RAW, 8) == (0, 3)
        assert lla2.route(MIN_RAW, 2) == (0, 1)
        assert ran == ["succ_leaf"]

    def test_rejects_reused_seq(self):
        led = MovementLedger()
        lla = LearnedLLA(8, ledger=led)
        lla.insert(100, 7, 1)
        with pytest.raises(ValueError):
            lla.insert(200, 7, 8)
        assert lla.count == 1
        assert lla.global_labels() == [(100, 7, 1)]
        assert (led.total_inserts, led.total_movements) == (1, 1)
        lla.insert(200, 8, 8)  # a fresh seq still goes in
        assert lla.global_labels() == [(100, 7, 1), (200, 8, 43)]

    @pytest.mark.parametrize("rank", [3.0, 100.5, float("nan")],
                             ids=["in-range", "out-of-range", "nan"])
    def test_rejects_non_integer_rank_before_any_change(self, rank):
        # Unchecked, 3.0 and NaN reached a TypeError indexing the leaf
        # heights, and 100.5 was clamped and routed at rank 8.
        led = MovementLedger()
        lla = LearnedLLA(8, ledger=led)
        with pytest.raises(ValueError, match="predicted rank"):
            lla.insert(10, 0, rank)
        assert lla.count == 0
        assert lla.global_labels() == []
        assert (led.total_inserts, led.total_movements) == (0, 0)

    def test_numpy_integer_rank_routes_as_int(self):
        np = pytest.importorskip("numpy")
        as_int, as_numpy = LearnedLLA(8), LearnedLLA(8)
        as_int.insert(10, 0, 3)
        as_numpy.insert(10, 0, np.int64(3))
        assert as_numpy.global_labels() == as_int.global_labels() == [(10, 0, 13)]


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

    def test_empty_structure_follows_prediction(self, monkeypatch):
        lla = LearnedLLA(8)
        ran = guard_descents(monkeypatch, lambda: scan_actuals(lla)[0])
        for raw in (MIN_RAW, 500, RAW_MAX):
            for rank in (1, 3, 8):
                assert lla.route(raw, rank) == (0, rank - 1)
        assert ran == []  # no neighbor exists, so nothing descends

    def test_extreme_keys_use_edge_defaults(self):
        lla = LearnedLLA(8)
        lla.insert(300, 0, 4)
        assert lla.route(50, 1) == (0, 0)  # below everything: leftmost leaf
        assert lla.route(999, 8) == (0, 7)  # above everything: rightmost leaf

    def test_out_of_range_predictions_clamp(self):
        lla = LearnedLLA(8)
        assert lla.route(500, -17) == lla.route(500, 1)
        assert lla.route(500, 10**9) == lla.route(500, 8)

    @pytest.mark.parametrize("rank", [0, 1, 5, 6])
    def test_ranks_at_and_past_capacity_route_as_clamped(self, rank):
        # Capacity 5 in a tree of 8 leaves: ranks past 5 clamp to 5, not 8.
        lla = LearnedLLA(5)
        clamped = clamp(rank, 1, 5)
        assert lla.route(500, rank) == lla.route(500, clamped) == (0, clamped - 1)
        for seq, (raw, r) in enumerate([(300, 2), (700, 4)]):
            lla.insert(raw, seq, r)
        for raw in (MIN_RAW, 300, 500, 700, RAW_MAX):
            assert lla.route(raw, rank) == lla.route(raw, clamped), raw


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
        assert lla._heights[:2] == [1, 1]

    def test_overshoot_cascades_upward(self):
        lla = LearnedLLA(16)
        for seq, (raw, rank) in enumerate(
            [(10, 1), (20, 1), (30, 1), (40, 2), (50, 2), (60, 2)]
        ):
            lla.insert(raw, seq, rank)
        assert lla.merges == 0
        lla.insert(35, 6, 1)  # overflows the first leaf, then the parent
        assert lla.merges == 2
        assert lla._heights[:4] == [2] * 4
        for rec in lla.actuals():
            assert rec.box.count * 2 <= 6 << rec.height

    def test_global_labels_add_slot_offset(self):
        lla = LearnedLLA(8)
        lla.insert(10, 0, 3)
        lla.insert(20, 1, 3)
        rec = lla.actuals()[0]
        assert (rec.height, rec.node) == (0, 2)  # third unit leaf owns slots 13..18
        local = [label for _, _, label in box_labels(rec.box)]
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

    def __init__(self, ledger: MovementLedger, cls=Pma):
        self.ledger = ledger
        self.cls = cls
        self.width = 1  # rank width the current array stands in for
        self.box = cls(6)
        self.rebuilds = 0

    def insert(self, raw: int, seq: int) -> None:
        self.ledger.record_insert(self.box.insert(raw, seq))
        while self.box.count * 2 > 6 * self.width:
            old = {s: label for _, s, label in box_labels(self.box)}
            raws = [r for r, _, _ in box_labels(self.box)]
            seqs = [s for _, s, _ in box_labels(self.box)]
            self.width *= 2
            self.box = self.cls(6 * self.width)
            self.box.init(raws, seqs)
            moved = sum(
                1 for _, s, label in box_labels(self.box) if old[s] != label
            )
            self.ledger.record_moves(moved)
            self.rebuilds += 1

    def labels(self):
        return box_labels(self.box)


@pytest.mark.parametrize(
    "stream, n, cls",
    [
        pytest.param("increasing", 100, Pma, id="increasing"),
        pytest.param("random", 100, Pma, id="random"),
        *(pytest.param(stream, 4096, cls, id=f"{stream}-4096-{cls.__name__}")
          for stream in ("increasing", "random") for cls in (Pma, Apma)),
    ],
)
def test_rank_one_routing_equals_growing_chain(stream, n, cls):
    # The chain counts a rebuild's moves from box labels before and after, so
    # at n = 4096 it checks the wrapper's whole-list merge count on eleven
    # cascading rebuilds of up to 3073 entries.
    if stream == "increasing":
        raws = [i * 7 for i in range(n)]
    else:
        raws = random.Random(41).sample(range(10**9), n)

    led_a = MovementLedger()
    lla = LearnedLLA(n, factory=cls, ledger=led_a)
    led_b = MovementLedger()
    chain = GrowingChain(led_b, cls)
    for seq, raw in enumerate(raws):
        lla.insert(raw, seq, 1)
        chain.insert(raw, seq)

    assert lla.merges == chain.rebuilds
    assert led_a.total_movements == led_b.total_movements
    assert lla.global_labels() == list(chain.labels())
    # and therefore trivially within 2x of the baseline built the same way
    assert led_a.total_movements <= 2 * led_b.total_movements


@pytest.mark.parametrize("cls", [Pma, Apma])
@pytest.mark.parametrize("stream", ["rank-one-cascade", "duplicates"])
def test_merge_moves_child_entries_into_the_parent_box(stream, cls, monkeypatch):
    """A merge hands the very tuples its children held to the parent box:
    no key is checked again, and the box it builds has the slots and leaf
    minima that public init gives the same keys in a fresh box."""
    if stream == "rank-one-cascade":
        n = 4096
        rng = random.Random(43)
        inserts = [(raw, 1) for raw in rng.sample(range(10**9), n)]
    else:
        n = 256
        rng = random.Random(5)
        inserts = [(rng.randrange(24), rng.randint(1, n)) for _ in range(n)]

    checks = []
    real_check = learned.check_raw

    def counted(raw):
        checks.append(raw)
        return real_check(raw)

    monkeypatch.setattr(learned, "check_raw", counted)
    monkeypatch.setattr("listlabel.pma.check_raw", counted)

    lla = LearnedLLA(n, factory=cls)
    merged_heights = []
    inner_merge = lla.merge_parent

    def spying_merge(first):
        ph = lla._heights[first] + 1
        lo = first >> ph << ph
        held = [e for box in lla._boxes[lo:lo + (1 << ph)] if box is not None
                for e in filter(None, box.slots)]
        before = len(checks)
        out = inner_merge(first)
        assert len(checks) == before  # no check_raw inside a merge
        box = lla._boxes[out]
        moved = list(filter(None, box.slots))
        assert len(moved) == len(held) == box.count
        assert all(a is b for a, b in zip(moved, held))
        fresh = cls(6 << ph)
        fresh.init([raw for raw, _ in held], [seq for _, seq in held])
        del checks[before:]  # the reference init's own checks
        assert box.slots == fresh.slots and box._min == fresh._min
        merged_heights.append(ph)
        return out

    lla.merge_parent = spying_merge
    for seq, (raw, rank) in enumerate(inserts):
        lla.insert(raw, seq, rank)
    assert len(checks) == 2 * n  # LearnedLLA.insert and the box insert
    if stream == "rank-one-cascade":
        assert merged_heights == list(range(1, 12))
    else:
        assert max(merged_heights) >= 3


# ----------------------------------------------------------------------
# merge witnesses


def test_witness_boundary_at_half_width():
    merged_recs = []
    lla = LearnedLLA(8, merge_listener=lambda _l, rec: merged_recs.append(rec))
    for seq, raw in enumerate([100, 200, 300, 400]):
        lla.insert(raw, seq, 1)
    (rec,) = merged_recs
    assert rec.height == 1  # |P| = 2, threshold is error >= 1
    predicted = [1, 1, 1, 1]  # indexed by seq
    truth_with_error = {0: 1, 1: 2, 2: 3, 3: 4}
    assert witness_error_check(rec, predicted, truth_with_error)
    truth_equal_to_predictions = {seq: 1 for seq in range(4)}
    assert not witness_error_check(rec, predicted, truth_equal_to_predictions)


# ----------------------------------------------------------------------
# invariants under fuzz


def test_tree_searches_match_linear_scan_on_duplicates(monkeypatch):
    """route agrees with the neighbor rule on a scan of actuals() after every
    insert, on a duplicate-heavy stream whose random predictions merge, and
    descends only when a neighbor exists."""
    rng = random.Random(5)
    n = 256
    lla = LearnedLLA(n)
    keys, owners = [], []
    guard_descents(monkeypatch, lambda: keys)
    for seq in range(n):
        lla.insert(rng.randrange(24), seq, rng.randint(1, n))
        keys[:], owners[:] = scan_actuals(lla)
        for raw in range(-1, 26):
            pred, succ = scan_neighbors(keys, owners, raw)
            rank = rng.randint(1, n)
            h, node = actual_of(lla, rank)
            if pred is not None and pred[1] << pred[0] > node << h:
                h, node = pred
            elif succ is not None and succ[1] << succ[0] < node << h:
                h, node = succ
            assert lla.route(raw, rank) == (h, node), (seq, raw, rank)
    assert lla.merges > 0


@pytest.mark.parametrize("noise", [0, 1, 8])
def test_route_climb_matches_neighbor_rule(noise, monkeypatch):
    """Exact (noise 0), off-by-one (noise 1) and off-by-eight predictions on
    2^10 distinct keys: after every insert, route agrees with the neighbor
    rule on a scan of actuals() for the next key and for stored keys probed
    one rank either side of their own.  It runs no descent when the
    prediction stands, exactly pred_leaf when the predecessor overrides it
    and exactly succ_leaf when the successor does, and each descent's
    neighbor exists.  Only off-by-eight merges, so only it climbs from
    actuals above the leaves."""
    rng = random.Random(10 + noise)
    n = 1 << 10
    raws = rng.sample(range(10**9), n)
    true = {raw: rank for rank, raw in enumerate(sorted(raws), start=1)}
    preds = [true[raw] + rng.choice((-noise, noise)) for raw in raws]
    lla = LearnedLLA(n)
    keys, owners = [], []
    descents = guard_descents(monkeypatch, lambda: keys)
    outcomes = {"override": 0, "kept": 0}
    for i, raw in enumerate(raws):
        keys[:], owners[:] = scan_actuals(lla)
        probes = [(raw, preds[i])]
        if i:
            old = raws[rng.randrange(i)]
            probes += [(old, true[old] + d) for d in (-1, 1)]
        for key, rank in probes:
            h, node = actual_of(lla, rank)
            pred, succ = scan_neighbors(keys, owners, key)
            if pred is not None and pred[1] << pred[0] > node << h:
                want, ran = pred, ["pred_leaf"]
            elif succ is not None and succ[1] << succ[0] < node << h:
                want, ran = succ, ["succ_leaf"]
            else:
                want, ran = (h, node), []
            descents.clear()
            assert lla.route(key, rank) == want, (i, key, rank)
            assert descents == ran, (i, key, rank)
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
            # every leaf of an actual carries the actual's height, so the
            # actuals tile the ranks, and a box sits only at a first leaf
            heights, boxes = lla._heights, lla._boxes
            leaf = 0
            while leaf < n:
                width = 1 << heights[leaf]
                assert leaf % width == 0
                assert heights[leaf:leaf + width] == [heights[leaf]] * width
                assert boxes[leaf + 1:leaf + width] == [None] * (width - 1)
                leaf += width
            for rec in lla.actuals():
                assert actual_of(lla, (rec.node << rec.height) + 1) == (rec.height, rec.node)
                assert rec.box.count * 2 <= 6 << rec.height
    assert lla.count == n
