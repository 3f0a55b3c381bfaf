"""Packed-memory array behavior, checked against a from-scratch reference.

ReferencePma below re-implements the whole insert contract with nothing but
linear scans over a plain slot list -- no implicit tree, no cached counts,
no incremental min/max.  Any divergence in slot contents or movement counts
between it and the real implementation after any insert is a bug in one of
them.
"""

import random
from itertools import count, repeat

import pytest

from listlabel.apma import Apma
from listlabel.core import MIN_RAW, RAW_MAX, CapacityError, MovementLedger
from listlabel.pma import INF_RAW, LEAD_RAW, TAU_LEAF, TAU_ROOT, Pma, even_layout, geometry


def raws_sorted(slots) -> bool:
    """Whether the occupied slots' keys are non-decreasing left to right."""
    raws = [entry[0] for entry in filter(None, slots)]
    return raws == sorted(raws)


# ----------------------------------------------------------------------
# layout planning


class TestPlanLayout:
    def test_leaf_family_examples(self):
        assert geometry(48)[:3] == (6, 3, 48)  # 8 leaves of 6: no padding
        assert geometry(64)[:3] == (8, 3, 64)
        assert geometry(6)[:3] == (3, 1, 6)
        assert geometry(12)[:3] == (6, 1, 12)
        assert geometry(2)[:3] == (2, 0, 2)

    def test_unfittable_counts_round_up(self):
        leaf, depth, total = geometry(5)[:3]
        assert total >= 5 and leaf << depth == total

    @pytest.mark.parametrize("sizes", [[10.0], [12, 12.0]], ids=["fresh", "after-int"])
    def test_non_integer_size_is_a_type_error(self, sizes):
        # Pma(12.0) must not pass on the strength of geometry's cache entry
        # for 12.
        *earlier, size = sizes
        for m in earlier:
            Pma(m)
        with pytest.raises(TypeError):
            Pma(size)

    def test_fewer_than_two_slots_rejected(self):
        for m in (1, 0, -6):
            with pytest.raises(ValueError):
                geometry(m)

    def test_family_membership(self):
        # every planned leaf size is 2^j or 3*2^j, and leaves tile exactly
        for m in range(2, 400):
            leaf, depth, total = geometry(m)[:3]
            assert total >= m
            assert leaf << depth == total
            reduced = leaf
            while reduced % 2 == 0:
                reduced //= 2
            assert reduced in (1, 3)
            assert leaf >= max(2, (total - 1).bit_length() and (m - 1).bit_length())

    def test_six_times_powers_tile_exactly(self):
        # the wrapper allocates boxes of 6 * 2^h slots; none may be padded
        for h in range(0, 12):
            m = 6 << h
            assert geometry(m)[2] == m


class TestThresholds:
    def test_tau_interpolates_root_to_leaf(self):
        leaf, depth, total, _, cap = geometry(192)
        assert (leaf, depth) == (12, 4)
        taus = [cap[k] / (total >> k) for k in range(depth + 1)]
        assert taus[0] == TAU_ROOT
        assert taus[-1] == pytest.approx(TAU_LEAF)
        assert taus == sorted(taus)
        assert geometry(2)[4] == (2 * TAU_ROOT,)  # a lone leaf is the root


class TestSharedGeometry:
    def test_cached_geometry_matches_plan(self):
        for h in range(12):
            m = 6 << h
            leaf, depth, total = geometry(m)[:3]
            # a depth-k node spans total >> k slots; its tau, as geometry states it
            cap = tuple((TAU_ROOT + (TAU_LEAF - TAU_ROOT) * (k / depth if depth else 0.0))
                        * (total >> k) for k in range(depth + 1))
            assert geometry(m) == (leaf, depth, total, 1 << depth, cap)
            box = Pma(m)
            assert (box.leaf_size, box.depth, box.slot_count, box.num_leaves) == (
                leaf, depth, total, 1 << depth)
            assert box._cap is geometry(m)[4]

    @pytest.mark.parametrize("cls", [Pma, Apma])
    def test_boxes_of_one_size_share_no_mutable_state(self, cls):
        def state(box):
            return (list(box.slots), list(box._min), box.count,
                    list(getattr(box, "histogram", [])))

        a, b = cls(6), cls(6)
        empty = state(b)
        for seq, raw in enumerate([50, 10, 30, 20]):
            a.insert(raw, seq)
        assert state(b) == empty
        full = state(a)
        assert full[2] == 4
        b.insert(40)
        assert state(a) == full
        assert b.count == 1


# ----------------------------------------------------------------------
# from-scratch reference


class ReferencePma:
    """Naive mirror of the array contract; everything is a linear scan."""

    def __init__(self, slot_count: int):
        leaf, depth, total = self._plan(slot_count)
        self.leaf = leaf
        self.depth = depth
        self.total = total
        self.slots: list[tuple[int, int] | None] = [None] * total

    @staticmethod
    def _plan(m: int) -> tuple[int, int, int]:
        min_leaf = max(2, (m - 1).bit_length())
        # smallest exact tiling with leaf in {2^j, 3*2^j}
        best = None
        for j in range(0, m.bit_length() + 2):
            for leaf in (1 << j, 3 << j):
                if leaf < min_leaf or leaf > m:
                    continue
                if m % leaf:
                    continue
                width = m // leaf
                if width & (width - 1):
                    continue
                if best is None or leaf < best[0]:
                    best = (leaf, width.bit_length() - 1, m)
        if best:
            return best
        leaf = 1
        while leaf < min_leaf:
            leaf *= 2
        depth = 0
        while leaf << depth < m:
            depth += 1
        return leaf, depth, leaf << depth

    def init(self, raws, seqs) -> None:
        for i, (raw, seq) in enumerate(zip(raws, seqs)):
            self.slots[i * self.total // len(raws)] = (raw, seq)

    def _tau(self, node_depth: int) -> float:
        if self.depth == 0:
            return 0.5
        return 0.5 + (0.9 - 0.5) * node_depth / self.depth

    def _range(self, node: int) -> tuple[int, int]:
        k = node.bit_length() - 1
        leaves = (1 << self.depth) >> k
        first = (node << (self.depth - k)) - (1 << self.depth)
        return first * self.leaf, (first + leaves) * self.leaf

    def _count(self, node: int) -> int:
        lo, hi = self._range(node)
        return sum(1 for p in range(lo, hi) if self.slots[p] is not None)

    def _pred(self, raw: int) -> int | None:
        best = None
        for p, e in enumerate(self.slots):
            if e is not None and e[0] <= raw:
                best = p
        return best

    def _succ_after(self, pos: int | None) -> int | None:
        start = 0 if pos is None else pos + 1
        for p in range(start, self.total):
            if self.slots[p] is not None:
                return p
        return None

    def _target_leaf(self, sp: int | None, ss: int | None) -> int:
        if sp is not None:
            return min(sp + 1, self.total - 1) // self.leaf
        if ss is not None:
            return max(ss - 1, 0) // self.leaf
        return 0

    def insert(self, raw: int, seq: int) -> int:
        if self._count(1) > self._tau(0) * self.total:
            raise CapacityError("root above density threshold")
        sp = self._pred(raw)
        ss = self._succ_after(sp) if (sp is not None or self._count(1)) else None
        leaf = self._target_leaf(sp, ss)

        node = (1 << self.depth) + leaf
        while self._count(node) > self._tau(node.bit_length() - 1) * (
            self._range(node)[1] - self._range(node)[0]
        ):
            node >>= 1
            if node == 0:
                raise CapacityError("root above density threshold")

        moved = 0
        if node != (1 << self.depth) + leaf:
            moved = self._spread_evenly(node)
            sp = self._pred(raw)
            ss = self._succ_after(sp) if (sp is not None or self._count(1)) else None
            leaf = self._target_leaf(sp, ss)
        return moved + self._place(leaf, raw, seq, sp, ss)

    def _spread_evenly(self, node: int) -> int:
        lo, hi = self._range(node)
        entries, old = [], []
        for p in range(lo, hi):
            if self.slots[p] is not None:
                entries.append(self.slots[p])
                old.append(p)
                self.slots[p] = None
        moved = 0
        for i, e in enumerate(entries):
            p = lo + i * (hi - lo) // len(entries)
            self.slots[p] = e
            moved += p != old[i]
        return moved

    def _place(self, leaf: int, raw: int, seq: int, sp, ss) -> int:
        lo, hi = leaf * self.leaf, (leaf + 1) * self.leaf
        a = lo if sp is None else max(sp + 1, lo)
        b = hi if ss is None else min(ss, hi)
        if a < b:
            pos = a if sp is not None or ss is None else b - 1
            self.slots[pos] = (raw, seq)
            return 0
        gap_r = next((p for p in range(b, hi) if self.slots[p] is None), None)
        gap_l = next(
            (p for p in range(min(a, hi) - 1, lo - 1, -1) if self.slots[p] is None),
            None,
        )
        cost_r = None if gap_r is None else gap_r - b
        cost_l = None if gap_l is None else a - 1 - gap_l
        if cost_r is not None and (cost_l is None or cost_r <= cost_l):
            for p in range(gap_r, b, -1):
                self.slots[p] = self.slots[p - 1]
            self.slots[b] = (raw, seq)
            return cost_r
        for p in range(gap_l, a - 1):
            self.slots[p] = self.slots[p + 1]
        self.slots[a - 1] = (raw, seq)
        return cost_l


def _assert_leaf_minima(real, tag):
    """The row of leaf minima, one value per leaf: the smallest key of a
    non-empty leaf; for an empty leaf the smallest key after it, INF_RAW if
    there is none; LEAD_RAW on the empty leaves before the first key.
    Returns the row."""
    L = real.leaf_size
    leaf_keys = [[e[0] for e in real.slots[j * L:(j + 1) * L] if e is not None]
                 for j in range(real.num_leaves)]
    want, after = [], INF_RAW
    for keys in reversed(leaf_keys):
        after = min(keys, default=after)
        want.append(after)
    want.reverse()
    lead = next((j for j, keys in enumerate(leaf_keys) if keys), 0)
    want[:lead] = [LEAD_RAW] * lead
    assert real._min == want, tag
    return want


def _drive(real, ref, raws, tag, seqs=None):
    """Insert into both arrays until the first CapacityError: the same
    slots, costs and leaf minima after each insert.  Seqs default to 0, 1, ..."""
    for i, (raw, seq) in enumerate(zip(raws, count() if seqs is None else seqs)):
        try:
            moved_real = real.insert(raw, seq)
        except CapacityError:
            with pytest.raises(CapacityError):
                ref.insert(raw, seq)
            return
        moved_ref = ref.insert(raw, seq)
        assert moved_real == moved_ref, (tag, i)
        assert real.slots == ref.slots, (tag, i)
        _assert_leaf_minima(real, (tag, i))


def test_matches_reference_on_every_insert():
    """10^3 random small arrays, wrapper-sized arrays under random and
    hammered keys, and bulk-loaded arrays: identical slots and costs, and
    exact leaf minima, after each insert."""
    rng = random.Random(20260819)
    for trial in range(1000):
        m = rng.randint(2, 64)
        real = Pma(m)
        ref = ReferencePma(m)
        assert (real.leaf_size, real.depth, real.slot_count) == (
            ref.leaf,
            ref.depth,
            ref.total,
        )
        value_span = rng.choice([4, 32, 10**6])  # heavy ties .. mostly distinct
        raws = (rng.randint(0, value_span) for _ in range(real.slot_count + 1))
        _drive(real, ref, raws, trial)

    for h in range(4, 8):
        m = 6 << h  # the box sizes the learned wrapper allocates
        value_span = rng.choice([32, 10**6])
        _drive(Pma(m), ReferencePma(m),
               [rng.randint(0, value_span) for _ in range(m + 1)], ("random", m))
        # largest key first, then ascending keys below it: one hot gap
        _drive(Pma(m), ReferencePma(m), [m] + list(range(m)), ("hammer", m))

        c = rng.randint(0, m // 2)
        raws = sorted(rng.randint(0, value_span) for _ in range(c))
        real, ref = Pma(m), ReferencePma(m)
        real.init(raws, list(range(c)))
        ref.init(raws, list(range(c)))
        assert real.slots == ref.slots
        _assert_leaf_minima(real, ("init", m))
        _drive(real, ref, [rng.randint(0, value_span) for _ in range(m + 1)],
               ("init", m), seqs=count(c))


@pytest.mark.parametrize("m", [96, 384, 1536])
def test_apma_leaf_minima_after_every_insert(m):
    """Apma has no reference, but its row of leaf minima must match its
    slots after every insert.  A descending stream splits at gap 0, which
    packs every key right and leaves leading empty leaves (LEAD_RAW); the
    hammer and random streams leave empty leaves between keys that hold
    the next leaf's minimum."""
    rng = random.Random(m)
    streams = {
        "descending": list(range(m, 0, -1)),
        "hammer": [m] + list(range(1, m)),
        "random": [rng.randint(0, 10**6) for _ in range(m)],
    }
    for order, raws in streams.items():
        box, L = Apma(m), geometry(m)[0]
        lead = inner = False
        with pytest.raises(CapacityError):
            for seq, raw in enumerate(raws):
                box.insert(raw, seq)
                row = _assert_leaf_minima(box, (order, seq))
                lead |= row[0] == LEAD_RAW
                inner |= any(LEAD_RAW < v < INF_RAW and not any(box.slots[j * L:j * L + L])
                             for j, v in enumerate(row))
        assert raws_sorted(box.slots)
        assert lead if order == "descending" else inner, order


def test_matches_reference_with_equal_entries():
    """Every seq 0 and keys from a span of 4: stored entries are equal
    tuples, so a move count that compared entries by value would miss
    moves.  The reference counts moves by position."""
    rng = random.Random(20261018)
    for trial in range(150):
        m = rng.choice([rng.randint(2, 64), 96, 192, 384])
        raws = [rng.randint(0, 4) for _ in range(m + 1)]
        _drive(Pma(m), ReferencePma(m), raws, ("equal", trial), seqs=repeat(0))


class RecountingPma(Pma):
    """Recounts each rebalance's moves by position: the entries keep their
    order, so the i-th entry moved exactly when the i-th occupied slot of
    the range changed.  Records the size of every rebalanced range.
    test_apma.py mixes it into Apma."""

    def __init__(self, slot_count):
        super().__init__(slot_count)
        self.sizes = []

    def _rebalance(self, lo, hi, pending_raw):
        before = self.slots[lo:hi]
        moved = super()._rebalance(lo, hi, pending_raw)
        old = [p for p, e in enumerate(before) if e is not None]
        new = [p for p, e in enumerate(self.slots[lo:hi]) if e is not None]
        assert moved == sum(o != n for o, n in zip(old, new)), (lo, hi)
        self.sizes.append(hi - lo)
        return moved


def test_big_rebalances_match_a_positional_recount():
    """ReferencePma checks ranges of at most 384 slots; hammer's slowest
    inserts rebalance thousands.  Wrapper-sized boxes up to 6 << 10 slots,
    filled to the root's threshold, every seq 0 so that equal keys make
    equal entries: only a count by identity matches the recount.  A one-key
    stream appends at the right end and rebalances only small ranges."""
    rng = random.Random(20261019)
    big = {}
    for h in (4, 7, 10):
        m = 6 << h
        n = m // 2 + 1
        streams = {
            "hammer": [n] + [i // 2 for i in range(n - 1)],
            "one-key": [7] * n,
            "random": [rng.randint(0, 10**6) for _ in range(n)],
        }
        for order, raws in streams.items():
            box = RecountingPma(m)
            for raw in raws:
                box.insert(raw, 0)
            assert box.sizes and raws_sorted(box.slots), (order, m)
            big[order] = big.get(order, 0) + sum(size >= 1000 for size in box.sizes)
    assert big["hammer"] > 0 and big["random"] > 0, big


class ListLayoutPma(Pma):
    def _layout(self, *args):
        return list(super()._layout(*args))


class GeneratorLayoutPma(Pma):
    def _layout(self, *args):
        return (p for p in super()._layout(*args))


@pytest.mark.parametrize("m", [96, 1536])
def test_layout_read_once_or_as_a_list_stores_alike(m):
    """`_layout` may return any iterable: a one-shot generator and a list
    give the same slots and the same moves on every insert."""
    rng = random.Random(m)
    for raws in ([m] + list(range(m)), [rng.randint(0, 50) for _ in range(m)]):
        once, listed = GeneratorLayoutPma(m), ListLayoutPma(m)
        with pytest.raises(CapacityError):
            for seq, raw in enumerate(raws):
                assert once.insert(raw, seq) == listed.insert(raw, seq), seq
                assert once.slots == listed.slots, seq


@pytest.mark.parametrize("size", [1, 2, 7, 48, 100, 384])
def test_even_layout_is_the_floor_spread(size):
    for c in range(size + 1):
        assert list(even_layout(size, c)) == [i * size // c for i in range(c)], c


# ----------------------------------------------------------------------
# direct behavior


class TestPlace:
    """`_place` on hand-set slots.  Pma(16) has 4 leaves of 4; each taken
    slot p holds (p, p), and the new entry is (0, 99)."""

    E = (0, 99)

    def _place(self, taken, t):
        pma = Pma(16)
        for p in taken:
            pma.slots[p] = (p, p)
        before = list(pma.slots)
        return pma, before, pma._place(t, self.E)

    def test_slot_zero_taken_with_nothing_to_its_left(self):
        # The last slot of the array is free: a left scan that wrapped past
        # slot 0 would shift left into it instead of right.
        pma, before, out = self._place([0, 1, 2], 0)
        assert out == (0, 3)
        assert pma.slots == [self.E] + before[:3] + before[4:]
        # ...and a scan that wraps to an empty slice misses slot 0's gap.
        pma, before, out = self._place([1, 2, 3], 2)
        assert out == (1, 1)
        assert pma.slots == before[1:2] + [self.E] + before[2:]

    def test_shifts_never_leave_the_leaf(self):
        # t at a leaf start, the leaf full but for its last slot: slot 3
        # (the previous leaf) is nearer, but a shift stays in t's leaf, and
        # with the whole leaf full there is nothing to shift into.
        pma, before, out = self._place([4, 5, 6], 4)
        assert out == (4, 3)
        assert pma.slots == before[:4] + [self.E] + before[4:7] + before[8:]
        with pytest.raises(AssertionError, match="no free slot"):
            self._place([4, 5, 6, 7], 4)
        # Slot 8 (the next leaf) is nearer than slot 4, but is not used.
        pma, before, out = self._place([5, 6, 7], 7)
        assert out == (6, 2)
        assert pma.slots == before[:4] + before[5:7] + [self.E] + before[7:]

    def test_target_past_the_last_slot(self):
        # t == slot_count: only a left shift is possible, landing at m - 1.
        pma, before, out = self._place([13, 14, 15], 16)
        assert out == (15, 3)
        assert pma.slots == before[:12] + before[13:] + [self.E]


def test_sorted_after_random_workload():
    rng = random.Random(5)
    pma = Pma(1024)
    for seq in range(500):  # root admits just over half the slots
        pma.insert(rng.randint(0, 10**9), seq)
        if seq % 97 == 0:
            assert raws_sorted(pma.slots)
    assert raws_sorted(pma.slots)
    assert pma.count == 500


def test_duplicates_keep_arrival_order():
    pma = Pma(64)
    for seq in range(10):
        pma.insert(42, seq)
    assert [e for e in pma.slots if e is not None] == [(42, s) for s in range(10)]


def test_ledger_gets_insert_and_movement_charges():
    led = MovementLedger()
    pma = Pma(64, ledger=led)
    for seq in range(30):
        pma.insert(seq, seq)
    assert led.total_inserts == 30
    # every insert placed one element; some also shifted or rebalanced
    assert led.total_movements >= 30


def test_capacity_error_when_root_saturates():
    """An array of m slots has cap[0] = TAU_ROOT * m: it stores exactly
    cap[0] + 1 keys, whatever the kind and key order, and the next insert
    raises.  A walk that only reaches the root when every node below it is
    over lets an ascending Apma(96) fill to 95 keys."""
    for m in (16, 96):
        orders = {
            "ascending": list(range(1, m + 1)),
            "descending": list(range(m, 0, -1)),
            "hammer": [m] + list(range(1, m)),  # largest first, then one hot gap
        }
        for cls in (Pma, Apma):
            for order, raws in orders.items():
                a = cls(m)
                assert a._cap[0] == TAU_ROOT * m
                with pytest.raises(CapacityError, match="root above density threshold"):
                    for seq, raw in enumerate(raws):
                        a.insert(raw, seq)
                assert a.count == seq == m // 2 + 1, (m, cls.__name__, order)
                assert raws_sorted(a.slots)


def test_labels_present_and_strictly_increasing():
    pma = Pma(128)
    rng = random.Random(11)
    raws = rng.sample(range(10**6), 60)
    for seq, raw in enumerate(raws):
        pma.insert(raw, seq)
    stored = [e[0] for e in pma.slots if e is not None]
    assert stored == sorted(raws)


@pytest.mark.parametrize(
    "raw", [float("nan"), 1.5, "7", 2**63 - 1, 2**64, RAW_MAX + 1, MIN_RAW - 1]
)
def test_rejects_bad_key_before_any_change(raw):
    led = MovementLedger()
    pma = Pma(64, ledger=led)
    pma.insert(5, 0)
    slots = list(pma.slots)
    with pytest.raises(ValueError):
        pma.insert(raw, 1)
    assert pma.slots == slots and pma.count == 1
    assert (led.total_inserts, led.total_movements) == (1, 1)


def test_accepts_both_ends_of_the_key_range():
    pma = Pma(64)
    for seq, raw in enumerate([0, RAW_MAX, MIN_RAW, RAW_MAX, MIN_RAW]):
        pma.insert(raw, seq)
    assert [e[0] for e in pma.slots if e is not None] == [
        MIN_RAW, MIN_RAW, 0, RAW_MAX, RAW_MAX
    ]


@pytest.mark.parametrize(
    "raws, seqs",
    [
        ([1, 2, 3], [0, 1]),
        ([1, 2], [0, 1, 2]),
        ([1, float("nan"), 2.5, 3], [0, 1, 2, 3]),
        ([1, 2.5, 3], [0, 1, 2]),
        ([MIN_RAW - 1, 0], [0, 1]),
        ([0, RAW_MAX + 1], [0, 1]),
        ([1, 2.0, 3], [0, 1, 2]),
        ([1, "2", 3], [0, 1, 2]),
        ([1, float("nan"), 3], [0, 1, 2]),
        ([3, 1, 2], [0, 1, 2]),
        ([5, RAW_MAX + 1, 0], [0, 1, 2]),
        ([5, MIN_RAW - 1, 0], [0, 1, 2]),
        ([0, RAW_MAX + 1, RAW_MAX + 2], [0, 1, 2]),
        ([MIN_RAW - 2, MIN_RAW - 1, 0], [0, 1, 2]),
    ],
)
def test_init_rejects_bad_input_before_any_change(raws, seqs):
    led = MovementLedger()
    pma = Pma(12, ledger=led)
    with pytest.raises(ValueError):
        pma.init(raws, seqs)
    assert pma.slots == [None] * pma.slot_count and pma.count == 0
    assert led.total_movements == 0
    pma.init([1, 2, 3], [0, 1, 2])  # the array is still empty and usable
    assert [e for e in pma.slots if e is not None] == [(1, 0), (2, 1), (3, 2)]


@pytest.mark.parametrize(
    "raws, bad",
    [([1, "2", 3], "'2'"), ([1, 2.5, 3], "2.5"), ([0, 4, 2, RAW_MAX + 1], str(RAW_MAX + 1))],
)
def test_init_error_names_the_bad_key(raws, bad):
    with pytest.raises(ValueError, match=bad):
        Pma(12).init(raws, list(range(len(raws))))


def test_init_stores_index_keys_as_plain_ints():
    np = pytest.importorskip("numpy")
    pma = Pma(12)
    pma.init([False, True, np.int64(5), np.int64(RAW_MAX)], [0, 1, 2, 3])
    stored = [e for e in pma.slots if e is not None]
    assert stored == [(0, 0), (1, 1), (5, 2), (RAW_MAX, 3)]
    assert all(type(raw) is int for raw, _ in stored)


def test_init_accepts_both_ends_and_nothing():
    pma = Pma(12)
    pma.init([MIN_RAW, MIN_RAW, RAW_MAX], [0, 1, 2])
    assert [e for e in pma.slots if e is not None] == [(MIN_RAW, 0), (MIN_RAW, 1), (RAW_MAX, 2)]
    empty = Pma(12)
    empty.init([], [])
    assert empty.count == 0 and empty._min == [INF_RAW] * empty.num_leaves
    assert empty.slots == [None] * empty.slot_count
    empty.insert(7)
    assert _assert_leaf_minima(empty, "first insert")[0] == 7


def test_init_that_fills_the_array():
    """An init may fill every slot: each leaf's minimum is its first key,
    and the next insert is over the root's threshold."""
    pma = Pma(48)
    pma.init(list(range(10, 58)), list(range(48)))
    assert None not in pma.slots
    assert _assert_leaf_minima(pma, "full") == list(range(10, 58, pma.leaf_size))
    with pytest.raises(CapacityError):
        pma.insert(5)
