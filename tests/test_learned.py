"""Prediction-routed wrapper: routing rule, merges, labels, accounting.

The sharpest oracle here: routing every element with predicted rank 1 must
make the wrapper behave *exactly* like a single growing array chain --
start at 6 slots, rebuild into double the slots at half density -- because
that is what the structure degenerates to.  We code that chain directly
and demand identical movement totals and identical final labels.
"""

import copy
import random
from bisect import bisect_right

import pytest

from listlabel import learned
from listlabel.apma import Apma
from listlabel.core import INF_RAW, MIN_RAW, NEG_INF_RAW, RAW_MAX, CapacityError, MovementLedger, clamp
from listlabel.learned import LearnedLLA, descend, witness_error_check
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
        raws = [raw for raw, _ in rec.entries]
        keys += raws
        owners += [(rec.height, rec.node)] * len(raws)
    return keys, owners


def scan_neighbors(keys, owners, raw):
    """From a scan: the (height, node) of the actuals holding raw's
    predecessor (last stored key <= raw) and successor (first stored key >
    raw), None for a neighbor that does not exist."""
    i = bisect_right(keys, raw)
    return owners[i - 1] if i else None, owners[i] if i < len(keys) else None


def guard_descents(monkeypatch, stored):
    """Patch the one descent to assert, on every call, the precondition
    route guarantees it: some key of `stored()`, the stored keys in
    ascending order, is <= the searched key (side 1, the predecessor's
    search) or > it (side 0, the successor's).  Returns the descents run,
    in call order, named "pred_leaf" or "succ_leaf" by side.  A second call
    replaces the first one's patch."""
    ran = []

    def descent(tree, raw, side):
        keys = stored()
        name = "pred_leaf" if side else "succ_leaf"
        assert keys and (keys[0] <= raw if side else keys[-1] > raw), (name, raw, keys)
        ran.append(name)
        return descend(tree, raw, side)

    monkeypatch.setattr(learned, "descend", descent)
    return ran


class TestCapacityShape:
    def test_eight_leaves_forty_eight_slots(self):
        lla = LearnedLLA(8)
        assert lla.n == 8
        assert lla._heights == [0] * 8
        lla.insert(10, 0, 8)
        (rec,) = lla.actuals()
        assert rec == (0, 7, [(10, 0)])
        # the last of eight six-slot leaves owns global slots 43..48
        assert lla.global_labels() == [(10, 0, 43)]
        lla.insert(20, 1, 8)  # a second key builds the leaf's box
        assert len(lla._boxes[7].slots) == 6

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
        # first three pack the leaf; the fourth breaches half density, and
        # the rebuilt two-rank parent relabels the three stored elements.
        # The theory ledger also charges each element's own placement.
        assert charges == [0, 0, 0, 3]
        assert led.total_movements == 7
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
            assert len(rec.entries) * 2 <= 6 << rec.height

    def test_global_labels_add_slot_offset(self):
        lla = LearnedLLA(8)
        lla.insert(10, 0, 3)
        lla.insert(20, 1, 3)
        rec = lla.actuals()[0]
        assert (rec.height, rec.node) == (0, 2)  # third unit leaf owns slots 13..18
        local = [label for _, _, label in box_labels(lla._boxes[rec.node << rec.height])]
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
        assert all(len(rec.entries) == 1 for rec in lla.actuals())

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


def count_checks(monkeypatch):
    """Patch check_raw in the wrapper and the box; returns the list of keys
    it is called with, in call order."""
    checks = []
    real_check = learned.check_raw

    def counted(raw):
        checks.append(raw)
        return real_check(raw)

    monkeypatch.setattr(learned, "check_raw", counted)
    monkeypatch.setattr("listlabel.pma.check_raw", counted)
    return checks


@pytest.mark.parametrize("cls", [Pma, Apma])
@pytest.mark.parametrize("stream", ["rank-one-cascade", "duplicates"])
def test_merge_moves_child_entries_into_the_parent_box(stream, cls, monkeypatch):
    """A merge hands the very tuples its children held to the parent box (a
    lone key's own tuple, a box's stored ones): no key is checked again, and
    the box it builds has the slots and leaf minima that public init gives
    the same keys in a fresh box.  A key is checked once by the wrapper and
    once per box insert, a lone key's replay into its new box included."""
    if stream == "rank-one-cascade":
        n = 4096
        rng = random.Random(43)
        inserts = [(raw, 1) for raw in rng.sample(range(10**9), n)]
    else:
        n = 256
        rng = random.Random(5)
        inserts = [(rng.randrange(24), rng.randint(1, n)) for _ in range(n)]

    checks = count_checks(monkeypatch)
    lla = LearnedLLA(n, factory=cls)
    merged_heights = []
    lone_merged = []
    inner_merge = lla.merge_parent

    def spying_merge(first):
        ph = lla._heights[first] + 1
        lo = first >> ph << ph
        held = []
        for box in lla._boxes[lo:lo + (1 << ph)]:
            if isinstance(box, tuple):
                held.append(box)
                lone_merged.append(box)
            elif box is not None:
                held += filter(None, box.slots)
        before = len(checks)
        out = inner_merge(first)
        assert len(checks) == before  # no check_raw inside a merge
        box = lla._boxes[out[0]]
        moved = list(filter(None, box.slots))
        assert len(moved) == len(held) == box.count
        assert all(a is b for a, b in zip(moved, held))
        fresh = cls(6 << ph)
        fresh.init([raw for raw, _ in held], [seq for _, seq in held])
        del checks[before:]  # the reference init's own checks
        assert box.slots == fresh.slots and box._min == fresh._min
        assert box._cnt == fresh._cnt
        merged_heights.append(ph)
        return out

    lla.merge_parent = spying_merge
    for seq, (raw, rank) in enumerate(inserts):
        lla.insert(raw, seq, rank)
    # LearnedLLA.insert checks every key and each box insert checks its key,
    # so a key goes unchecked by a box only while it is lone: it is still
    # bare at the end, or a merge gathered it bare.
    bare = sum(isinstance(box, tuple) for box in lla._boxes)
    assert len(checks) == 2 * n - bare - len(lone_merged)
    if stream == "rank-one-cascade":
        assert merged_heights == list(range(1, 12))
        assert (bare, lone_merged) == (0, [])  # the second key opened the first's box
    else:
        assert max(merged_heights) >= 3
        assert bare  # keys that no box ever checked


@pytest.mark.parametrize("cls", [Pma, Apma])
def test_merge_leaves_the_boxes_it_drops_unchanged(cls):
    """A merge only reads its children: on 2,000 distinct keys predicted up
    to 16 ranks off, every child box keeps its `slots` list, that list's
    contents and its slot count through the merge that drops it."""
    n = 2000
    rng = random.Random(3)
    raws = rng.sample(range(10**9), n)
    true = {raw: rank for rank, raw in enumerate(sorted(raws), start=1)}
    preds = [clamp(true[raw] + rng.randint(-16, 16), 1, n) for raw in raws]
    lla = LearnedLLA(n, factory=cls)
    dropped = []
    inner_merge = lla.merge_parent

    def spying_merge(first):
        ph = lla._heights[first] + 1
        lo = first >> ph << ph
        kids = [(box, box.slots, list(box.slots), box.slot_count)
                for box in lla._boxes[lo:lo + (1 << ph)] if isinstance(box, Pma)]
        out = inner_merge(first)
        for box, slots, copied, slot_count in kids:
            assert box.slots is slots and slots == copied, first
            assert box.slot_count == slot_count, first
        dropped.append(len(kids))
        return out

    lla.merge_parent = spying_merge
    for seq, (raw, rank) in enumerate(zip(raws, preds)):
        lla.insert(raw, seq, rank)
    assert len(dropped) == lla.merges == 334
    assert sum(dropped) > lla.merges


# ----------------------------------------------------------------------
# lone keys: an actual's first key is kept bare until a box is needed


def lone_stream(stream, n, seed):
    """(raw, predicted rank) pairs: exact ranks of distinct keys, everything
    at rank 1, or duplicate keys with ranks up to 8 off their true ones."""
    rng = random.Random(seed)
    if stream == "rank-one-cascade":
        return [(raw, 1) for raw in rng.sample(range(10**9), n)]
    if stream == "exact":
        raws = rng.sample(range(10**9), n)
        noise = 0
    else:
        raws = [rng.randrange(n // 4) for _ in range(n)]
        noise = 8
    rank = {i: r for r, i in enumerate(sorted(range(n), key=raws.__getitem__), start=1)}
    return [(raw, clamp(rank[i] + rng.randint(-noise, noise), 1, n))
            for i, raw in enumerate(raws)]


def box_state(box):
    """What a box holds and counts: slots, leaf minima, leaf counts, count,
    and Apma's votes."""
    return (box.slots, box._min, box._cnt, box.count,
            getattr(box, "histogram", None), getattr(box, "_since_decay", None))


def open_lone_keys(lla):
    """Build a box for every lone key, as its actual's second key would, and
    replay the key into it."""
    for first, held in enumerate(lla._boxes):
        if held.__class__ is tuple:
            box = lla.factory(6 << lla._heights[first], None)
            box.insert(*held)
            lla._boxes[first] = box


@pytest.mark.parametrize("cls", [Pma, Apma])
@pytest.mark.parametrize("stream", ["exact", "rank-one-cascade", "noisy-duplicates"])
def test_lone_keys_end_as_boxes_built_at_once(stream, cls):
    """Two structures load one stream.  One has a box built for each lone
    key as soon as it lands (`open_lone_keys` after every insert); the
    other is left alone, so its lone keys stay bare until a second key
    arrives or a merge gathers them.  After every insert both charge the
    same movements, count the same merges and give the same labels; at the
    end, with every lone key opened, they hold the same boxes."""
    n = 256
    eager, lazy = LearnedLLA(n, factory=cls), LearnedLLA(n, factory=cls)
    gathered_bare = []
    inner_merge = lazy.merge_parent

    def spying_merge(first):
        ph = lazy._heights[first] + 1
        lo = first >> ph << ph
        gathered_bare.extend(b for b in lazy._boxes[lo:lo + (1 << ph)] if isinstance(b, tuple))
        return inner_merge(first)

    lazy.merge_parent = spying_merge
    for seq, (raw, rank) in enumerate(lone_stream(stream, n, 28)):
        charged = eager.insert(raw, seq, rank)
        open_lone_keys(eager)
        assert lazy.insert(raw, seq, rank) == charged, seq
        assert lazy.ledger == eager.ledger, seq
        assert lazy.merges == eager.merges, seq
        assert lazy.global_labels() == eager.global_labels(), seq
    assert not any(isinstance(b, tuple) for b in eager._boxes)
    bare = sum(isinstance(b, tuple) for b in lazy._boxes)
    if stream == "exact":
        assert bare == n and lazy.merges == 0
    elif stream == "rank-one-cascade":
        assert bare == 0 and lazy.merges == 7  # heights 1 to 7
    else:
        assert bare and gathered_bare and lazy.merges
    open_lone_keys(lazy)
    assert lazy.actuals() == eager.actuals()
    assert lazy._heights == eager._heights
    for first, (a, b) in enumerate(zip(lazy._boxes, eager._boxes)):
        assert (a is None) == (b is None), first
        if a is not None:
            assert type(a) is type(b) is cls
            assert box_state(a) == box_state(b), first


class CountingFactory:
    """A box factory that records the slot count of every box it builds."""

    def __init__(self, cls):
        self.cls = cls
        self.built = []

    def __call__(self, slot_count, ledger):
        self.built.append(slot_count)
        return self.cls(slot_count, ledger)


@pytest.mark.parametrize("cls", [Pma, Apma])
def test_exact_ranks_build_no_box_and_check_each_key_once(cls, monkeypatch):
    """Every key of an exact-rank load sits alone in its rank's actual: no
    box is built, each key is checked once, and each sits at slot 0 of its
    rank's six.  Inspection builds no box either and checks no key."""
    n = 1 << 10
    inserts = lone_stream("exact", n, 10)
    checks = count_checks(monkeypatch)
    factory = CountingFactory(cls)
    led = MovementLedger(first_placement_excluded=True)
    lla = LearnedLLA(n, factory=factory, ledger=led)
    for seq, (raw, rank) in enumerate(inserts):
        assert lla.insert(raw, seq, rank) == 0
    assert factory.built == [] and lla.merges == 0
    assert checks == [raw for raw, _ in inserts]
    assert lla.global_labels() == sorted(
        (raw, seq, 6 * rank - 5) for seq, (raw, rank) in enumerate(inserts))
    assert lla.actuals() == sorted(
        (0, rank - 1, [(raw, seq)]) for seq, (raw, rank) in enumerate(inserts))
    assert factory.built == [] and len(checks) == n
    assert (led.total_inserts, led.total_movements) == (n, 0)


@pytest.mark.parametrize("cls", [Pma, Apma])
def test_a_box_is_built_by_a_second_key_or_a_merge(cls):
    """On noisy duplicates, each insert builds one box of 6 << h slots if it
    lands in an actual of height h that holds a lone key, none if that actual
    is empty or boxed, and one more per merge it sets off."""
    n = 512
    factory = CountingFactory(cls)
    lla = LearnedLLA(n, factory=factory)
    seen = {"empty": 0, "lone": 0, "boxed": 0}
    for seq, (raw, rank) in enumerate(lone_stream("noisy-duplicates", n, 7)):
        h, node = lla.route(raw, rank)
        held = lla._boxes[node << h]
        kind = "empty" if held is None else "lone" if isinstance(held, tuple) else "boxed"
        seen[kind] += 1
        built, merges = len(factory.built), lla.merges
        lla.insert(raw, seq, rank)
        opened = [6 << h] if kind == "lone" else []
        assert factory.built[built:built + len(opened)] == opened, seq
        assert len(factory.built) - built == len(opened) + lla.merges - merges, seq
    assert all(seen.values()) and lla.merges, seen
    assert len(factory.built) == seen["lone"] + lla.merges


def frozen(lla):
    """A deep copy of everything a LearnedLLA holds, with the identity of
    each box and lone key it stores (the list keeps them alive, so no id is
    reused)."""
    return (lla._heights[:], lla._boxes[:], [id(b) for b in lla._boxes],
            [copy.deepcopy(vars(b)) if isinstance(b, Pma) else b for b in lla._boxes],
            lla._min[:], lla._max[:], set(lla._seqs), lla.count, lla.merges,
            copy.copy(lla.ledger))


@pytest.mark.parametrize("cls", [Pma, Apma])
def test_inspection_is_a_snapshot_that_changes_nothing(cls):
    """On noisy duplicates, with lone keys, boxes and merges, `actuals()` and
    `global_labels()` leave the structure exactly as they found it, and an
    `Actual` keeps its entries through every later insert and merge: those
    taken early, and those a merge listener is given."""
    n = 256
    heard = []
    lla = LearnedLLA(n, factory=cls,
                     merge_listener=lambda _l, rec: heard.append((rec, list(rec.entries))))
    taken = []
    for seq, (raw, rank) in enumerate(lone_stream("noisy-duplicates", n, 34)):
        lla.insert(raw, seq, rank)
        if seq % 4 == 3:
            before = frozen(lla)
            recs = lla.actuals()
            labels = lla.global_labels()
            assert frozen(lla) == before, seq
            assert [(r, s) for r, s, _ in labels] == [e for rec in recs for e in rec.entries]
            taken.append((recs, copy.deepcopy(recs)))
            if seq == 19:
                early = (recs, lla.merges, [b for b in lla._boxes if isinstance(b, Pma)])
    # An early snapshot saw lone keys and boxes, and later merges gathered
    # and dropped boxes it had seen.
    recs, merges, boxes = early
    assert any(len(r.entries) == 1 for r in recs) and any(len(r.entries) > 1 for r in recs)
    assert lla.merges > merges
    assert any(all(b is not c for c in lla._boxes) for b in boxes)
    for recs, copied in taken:
        assert recs == copied
    assert heard and all(rec.entries == entries for rec, entries in heard)


@pytest.mark.parametrize("learned", [False, True], ids=["box", "learned"])
@pytest.mark.parametrize("cls", [Pma, Apma])
def test_insert_returns_the_relabels_whatever_the_ledger(cls, learned):
    """A box and the wrapper over it both return from `insert` the relabels
    of elements already stored, whatever ledger they hold: under a theory
    ledger, a benchmark-mode one and the default, every insert returns the
    step of the benchmark-mode total, and the theory ledger charges that
    plus each new element's placement."""
    n = 256
    theory, bench = MovementLedger(), MovementLedger(first_placement_excluded=True)

    def build(**ledger):
        return LearnedLLA(n, factory=cls, **ledger) if learned else cls(6 * n, **ledger)

    structures = [build(ledger=theory), build(ledger=bench), build()]
    total = 0
    for seq, (raw, rank) in enumerate(lone_stream("noisy-duplicates", n, 28)):
        before = bench.total_movements
        args = (raw, seq, rank) if learned else (raw, seq)
        moved = [s.insert(*args) for s in structures]
        assert moved == [bench.total_movements - before] * 3, seq
        total += moved[0]
    assert total > 0 and theory.total_movements == total + n
    if learned:
        assert all(s.merges for s in structures)


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
# "no key here" markers


def _is_key(v):
    return MIN_RAW <= v <= RAW_MAX


def test_sentinel_alone_reads_as_a_key_in_both_trees():
    lla = LearnedLLA(8)
    lla.insert(MIN_RAW, 0, 1)
    assert lla._max[1] == lla._min[1] == MIN_RAW
    assert lla._max[1] != NEG_INF_RAW


def test_no_key_markers_lie_outside_the_key_domain():
    """A min/max node at or above the actual roots holds keys exactly when
    keys lie under it, else INF_RAW and NEG_INF_RAW; a box's leaf minima
    hold a marker exactly on the empty leaves with no key after them
    (INF_RAW) or before them (NEG_INF_RAW).  Neither marker is a key."""
    assert not _is_key(INF_RAW) and not _is_key(NEG_INF_RAW)
    rng = random.Random(26)
    lla = LearnedLLA(257)
    lla.insert(MIN_RAW, 0, 1)  # a sentinel-only actual stays at leaf 0
    for seq in range(1, 61):
        lla.insert(rng.randrange(RAW_MAX), seq, rng.randint(100, 140))
    assert lla.merges > 0
    exact, leaf, n = set(), 0, lla.n
    while leaf < n:
        h = lla._heights[leaf]
        v = (n >> h) + (leaf >> h)
        while v:
            exact.add(v)
            v >>= 1
        leaf += 1 << h
    empty = 0
    for v in exact:
        width = n >> v.bit_length() - 1  # leaves under node v
        lo = (v - (n // width)) * width
        held = any(box is not None for box in lla._boxes[lo:lo + width])
        assert _is_key(lla._min[v]) == _is_key(lla._max[v]) == held, v
        if not held:
            assert (lla._min[v], lla._max[v]) == (INF_RAW, NEG_INF_RAW), v
            empty += 1
    assert empty

    # Into an Apma, descending keys leave empty leaves before and after the
    # keys, and a hammer stream leaves them between keys.
    leading = inner = trailing = 0
    for raws in (range(12, 0, -1), [96, *range(1, 24)]):
        box = Apma(96)
        for seq, raw in enumerate(raws):
            box.insert(raw, seq)
        L = box.leaf_size
        held = [any(box.slots[j * L:j * L + L]) for j in range(box.num_leaves)]
        for j, v in enumerate(box._min):
            if held[j]:
                assert _is_key(v), j
            elif not any(held[j:]):
                assert v == INF_RAW, j
                trailing += 1
            elif not any(held[:j]):
                assert v == NEG_INF_RAW, j
                leading += 1
            else:
                assert _is_key(v), j
                inner += 1
    assert leading and inner and trailing


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


@pytest.mark.parametrize("cls", [Pma, Apma])
@pytest.mark.parametrize("stream", ["random-ranks", "noisy-duplicates"])
def test_invariants_and_ledger_match_shadow_diff(stream, cls):
    """Every charged movement is a label change some snapshot can see.

    An insert runs in phases: a box insert (a rebalance, then a shift of
    one run at most once), then zero or more merges, each an even rebuild
    of a bigger box.  Snapshotting global labels at every phase boundary
    and summing the diffs must reproduce the ledger exactly; comparing only
    end states would miss movements that a later phase undoes or repeats,
    as when a box's shift moves an entry its rebalance has just moved (one
    `Apma` insert here does).

    The streams are distinct keys with random predictions and duplicate
    keys with predictions up to 8 ranks off.  A merge writes each child's
    window at its own offset of the parent's, so the merges seen must
    include one whose first leaf holds nothing (the window starts with empty
    slots) and, on the duplicates, one whose first leaf holds a lone key.
    """
    rng = random.Random(77)
    n = 256
    led = MovementLedger()
    snaps: list[dict[int, int]] = []

    def snapshot():
        snaps.append({s: g for _, s, g in lla.global_labels()})

    def spied_box(slot_count, ledger):
        box = cls(slot_count, ledger)
        inner_rebalance = box._rebalance

        def spying_rebalance(lo, hi, pending_raw):
            snapshot()
            out = inner_rebalance(lo, hi, pending_raw)
            snapshot()
            return out

        box._rebalance = spying_rebalance
        return box

    lla = LearnedLLA(n, factory=spied_box, ledger=led)
    firsts: list[str] = []  # what each merge's first leaf held
    inner_merge = lla.merge_parent

    def spying_merge(rec):
        ph = lla._heights[rec] + 1
        held = lla._boxes[rec >> ph << ph]
        firsts.append("empty" if held is None else "lone" if held.__class__ is tuple
                      else "box")
        snapshot()
        out = inner_merge(rec)
        snapshot()
        return out

    lla.merge_parent = spying_merge

    if stream == "random-ranks":
        pairs = [(raw, rng.randint(-5, n + 5)) for raw in rng.sample(range(10**9), n)]
    else:
        pairs = lone_stream(stream, n, 77)
    shadow: dict[int, int] = {}
    for seq, (raw, rank) in enumerate(pairs):
        before = led.total_movements
        snaps.clear()
        lla.insert(raw, seq, rank)
        labels = lla.global_labels()
        now = {s: label for _, s, label in labels}

        # The new element's placement, then every label change between
        # consecutive boundaries; the new element is in none before `now`.
        boundaries = [shadow, *snaps, now]
        expected = 1 + sum(sum(post[s] != g for s, g in pre.items())
                           for pre, post in zip(boundaries, boundaries[1:]))
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
            for first, held in enumerate(boxes):
                if held is not None:
                    h = heights[first]
                    assert actual_of(lla, first + 1) == (h, first >> h)
                    count = 1 if held.__class__ is tuple else held.count
                    assert count * 2 <= 6 << h
    assert lla.count == n
    assert sum(len(rec.entries) for rec in lla.actuals()) == n
    assert "empty" in firsts and "box" in firsts
    assert "lone" in firsts or stream != "noisy-duplicates"
