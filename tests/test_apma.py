"""Adaptive rebalancing: weighted layouts, insert heat, workload wins.

The adaptive array must degenerate to the classic even spread whenever the
observed insert distribution is flat, and must beat the classic array by a
wide margin on the skewed workloads it exists for (sequential, hammered
gap, descending) while staying within a constant factor on uniform random
input.
"""

import random
from bisect import bisect_left, bisect_right
from itertools import compress, groupby
from operator import itemgetter

import pytest

from listlabel.apma import Apma
from listlabel.core import MovementLedger, clamp
from listlabel.learned import LearnedLLA
from listlabel.pma import TAU_LEAF, Pma
from test_acceptance import _spied_classes
from test_pma import RecountingPma, raws_sorted


def even(c: int, size: int) -> list[int]:
    return [i * size // c for i in range(c)]


def or_even(offsets, c: int, size: int) -> list[int]:
    """A layout's offsets, with None, the even spread, as its floor offsets."""
    return even(c, size) if offsets is None else offsets


def weighted_offsets(a, c: int, size: int, weights: list[int]) -> list[int]:
    """`a._weighted_positions` as offsets, the even spread included."""
    return or_even(a._weighted_positions(c, size, weights), c, size)


def reference_weighted_positions(c, size, weights, L, reverse=False, pinned=None):
    """The weighted layout of `Apma._weighted_positions`, written with a
    full-scan waterfall and a per-entry loop that walks entry i's share
    i * w_open across the leaves' element intervals.  With reverse=True the
    waterfall pins the highest-index breaker first instead of the lowest,
    which is not the layout; tests use it to show that a case depends on
    the pin order.  A `pinned` list receives the pinned leaves of a layout
    that does not fall back to the even one."""
    k = size // L
    min_free = L - int(TAU_LEAF * L)
    fixed = [None] * k
    free_rem = size - c
    while True:
        open_leaves = [j for j in range(k) if fixed[j] is None]
        w_open = sum(weights[j] for j in open_leaves)
        if w_open == 0 or free_rem < len(open_leaves) * min_free:
            return even(c, size)
        for j in reversed(open_leaves) if reverse else open_leaves:
            if free_rem * weights[j] > L * w_open:
                fixed[j] = L
            elif free_rem * weights[j] < min_free * w_open:
                fixed[j] = min_free
            else:
                continue
            free_rem -= fixed[j]
            break
        else:
            break
    if pinned is not None:
        pinned += [j for j in range(k) if fixed[j] is not None]
    nums = [(L - fixed[j]) * w_open if fixed[j] is not None
            else L * w_open - free_rem * weights[j] for j in range(k)]
    positions = []
    j = cum = 0
    for i in range(c):
        x = i * w_open
        while x >= cum + nums[j]:
            cum += nums[j]
            j += 1
        positions.append(j * L + (x - cum) * L // nums[j])
    return positions


class TestWeightedLayout:
    def test_equal_weights_match_even_spread_exactly(self):
        a = Apma(64)
        rng = random.Random(9)
        for _ in range(200):
            k = rng.choice([1, 2, 4, 8])
            size = k * a.leaf_size
            c = rng.randint(1, max(1, int(0.9 * size)))
            w = rng.randint(1, 10**6)
            assert a._weighted_positions(c, size, [w] * k) is None

    def test_three_to_one_free_split(self):
        # 8 elements over two 8-slot leaves, heat 3:1 -> free slots 6:2
        a = Apma(64)
        assert weighted_offsets(a, 8, 16, [3, 1]) == [0, 4, 8, 9, 10, 12, 13, 14]

    def test_all_mass_on_last_leaf_gets_maximal_share(self):
        a = Apma(64)
        # the cold leaf packs to its density cap, the hot leaf keeps the rest
        assert weighted_offsets(a, 8, 16, [1, 9999]) == [0, 1, 2, 3, 4, 5, 6, 8]

    def test_single_leaf_falls_back_to_even(self):
        a = Apma(64)
        assert a._weighted_positions(5, 8, [7]) is None

    @pytest.mark.parametrize("slot_count", [64, 96, 192, 768])
    def test_matches_per_entry_reference(self, slot_count):
        """Slot for slot against the per-entry loop, under weights that pin
        leaves at L free slots (no entries) and at the min_free floor, and
        that pin one weight in two or more separate runs of it, so the
        waterfall moves on from one run to a later run of the same weight.
        The reference pins leaf by leaf, yet every maximal run of equal
        weight comes out pinned whole or not at all."""
        a = Apma(slot_count)
        L = a.leaf_size
        full = int(TAU_LEAF * L)  # entries of a leaf pinned at min_free
        rng = random.Random(slot_count)
        pinned_empty = pinned_full = split_runs = 0
        for _ in range(2000):
            k = 1 << rng.randint(0, a.depth)
            size = k * L
            c = rng.randint(1, int(a._cap[a.depth - (k.bit_length() - 1)]))
            weights = [rng.choice([0, 1, 1, 2, 5, 50, 10**4]) for _ in range(k)]
            pos = weighted_offsets(a, c, size, weights)
            pinned = []
            want = reference_weighted_positions(c, size, weights, L, pinned=pinned)
            assert pos == want, (c, size, weights)
            per_leaf = [sum(1 for p in pos if p // L == j) for j in range(k)]
            pinned_empty += 0 in per_leaf
            pinned_full += full in per_leaf and pos != even(c, size)
            run_of = [i for i, (_, run) in enumerate(groupby(weights)) for _ in run]
            pinned_runs = {run_of[j] for j in pinned}
            assert pinned == [j for j in range(k) if run_of[j] in pinned_runs], weights
            split_runs += (len({(weights[j], run_of[j]) for j in pinned})
                           > len({weights[j] for j in pinned}))
        assert pinned_empty > 100 and pinned_full > 100 and split_runs > 100, (
            pinned_empty, pinned_full, split_runs)

    @pytest.mark.parametrize("k, cases", [(256, 100), (1024, 30), (4096, 10)])
    def test_matches_reference_under_layout_shaped_credit(self, k, cases):
        """At the leaf counts of drift-ids rebalances and beyond, under
        credit shaped the way `_layout` builds it: every leaf 1, a few
        raised by heat.  Every case pins some hot leaf at L free slots."""
        a = Apma(6 << 15)  # 8192 leaves of 24, the wrapper's box geometry
        L = a.leaf_size
        size = k * L
        rng = random.Random(k)
        emptied = 0
        for _ in range(cases):
            credit = [1] * k
            for j in rng.sample(range(k), rng.randint(1, 64)):
                credit[j] += rng.choice([1, 1, 1, 2, 2, 3, 6, 14])
            c = rng.randint(size * 2 // 5, size * 5 // 8)
            pos = weighted_offsets(a, c, size, credit)
            assert pos == reference_weighted_positions(c, size, credit, L), (c, credit)
            emptied += len(set(p // L for p in pos)) < k
        assert emptied == cases

    @pytest.mark.parametrize("k, c, hot", [(256, 2457, 162), (1024, 9787, 165),
                                           (4096, 39189, 166)])
    def test_a_low_pin_before_a_high_pin(self, k, c, hot):
        """Weight 100 everywhere but 1 at eight light leaves in the lower
        half and `hot` at leaf 3k/4.  At the start the light leaves fall
        under the free-slot floor and the hot leaf, the smallest weight
        that does, goes over the leaf size.  The light leaves come first
        in index order, and pinning them brings the hot share back under
        L, so the hot leaf stays open; the reverse pin order gives other
        slots."""
        a = Apma(6 << 15)
        L = a.leaf_size
        min_free = L - int(TAU_LEAF * L)
        size = k * L
        light = [k // 16 * i for i in range(1, 9)]
        weights = [100] * k
        for j in light:
            weights[j] = 1
        weights[3 * k // 4] = hot
        free, w_open = size - c, sum(weights)
        assert free < min_free * w_open and free * hot > L * w_open
        assert free * (hot - 1) <= L * (w_open - 1)
        free, w_open = free - min_free * len(light), w_open - len(light)
        assert free * hot <= L * w_open
        want = reference_weighted_positions(c, size, weights, L)
        assert weighted_offsets(a, c, size, weights) == want
        assert reference_weighted_positions(c, size, weights, L, reverse=True) != want

    def test_positions_legal_under_random_weights(self):
        a = Apma(64)
        L = a.leaf_size
        cap = int(TAU_LEAF * L)  # per-leaf occupancy cap
        rng = random.Random(31)
        for _ in range(300):
            k = rng.choice([2, 4, 8])
            size = k * L
            # a k-leaf node only ever rebuilds while within its own density
            # threshold, so probe states a real rebalance can reach (cap[d]
            # is a depth-d node's threshold times its slot count)
            c = rng.randint(1, int(a._cap[a.depth - (k.bit_length() - 1)]))
            weights = [rng.randint(1, 50) for _ in range(k)]
            pos = weighted_offsets(a, c, size, weights)
            assert len(pos) == c
            assert all(0 <= p < size for p in pos)
            assert pos == sorted(set(pos)), "positions must be distinct, increasing"
            for j in range(k):
                leaf_lo = j * L
                occ = sum(1 for p in pos if leaf_lo <= p < leaf_lo + L)
                assert occ <= cap, f"leaf {j} packed beyond its density cap"


class TestInsertHeat:
    def test_votes_land_on_target_leaf(self):
        a = Apma(48)  # 8 leaves of 6
        a.insert(100, 0)
        a.insert(200, 1)
        assert sum(a.histogram) == 2
        assert a.histogram[0] == 2  # both landed in the first leaf

    def test_decay_halves_periodically(self):
        # 256 leaves of 16, one key each: 3 periods of random inserts never
        # fill a leaf, so no rebalance spends the heat between boundaries
        a = Apma(4096)
        L, k, period = a.leaf_size, a.num_leaves, a.leaf_size * 4
        a.init([1000 * j for j in range(k)], range(k))
        a._rebalance = None  # any rebalance would fail the test loudly
        rng = random.Random(4)
        decays = 0
        for seq in range(k, k + 3 * period):
            entry = (rng.randrange(1000 * k), seq)
            voted = list(a.histogram)
            a.insert(*entry)
            voted[a.slots.index(entry) // L] += 1
            if (seq - k + 1) % period:
                assert a.histogram == voted
            else:
                # the boundary's own vote counts, then every leaf halves
                assert a.histogram == [h >> 1 for h in voted], seq
                assert any(h & 1 for h in voted) and max(voted) > 1
                decays += 1
        assert decays == 3 and a._since_decay == 0

    @pytest.mark.parametrize("stream", ["hammer", "random", "duplicates"])
    def test_decay_halves_each_warm_leaf_once(self, stream):
        """Layouts zero leaves that stay listed as warm, and votes warm some
        of them again before the next decay, so a leaf is listed twice.
        After every insert the heat equals a model that zeroes each laid-out
        range and halves every leaf with a list comprehension."""
        a = Apma(1 << 11)
        L, period = a.leaf_size, a.leaf_size * 4
        model = [0] * a.num_leaves
        layout = a._layout

        def spy(entries, lo, size, pending_raw):
            model[lo // L:(lo + size) // L] = [0] * (size // L)
            return layout(entries, lo, size, pending_raw)

        a._layout = spy
        listed_twice = 0
        for seq, raw in enumerate(heat_stream(stream, 1 << 10, random.Random(7))):
            a.insert(raw, seq)
            model[a.slots.index((raw, seq)) // L] += 1
            if (seq + 1) % period == 0:
                model[:] = [h >> 1 for h in model]
            assert a.histogram == model, seq
            listed_twice += len(a._warm) > len(set(a._warm))
        assert listed_twice > 0

    def test_rebalance_consumes_covered_heat(self):
        a = Apma(64)  # 8 leaves of 8; slots [0, 16) cover leaves 0..1
        for seq, raw in enumerate([10, 20, 30]):
            a.insert(raw, seq)
        a.histogram = [5, 3, 7, 0, 0, 0, 0, 2]
        a._rebalance(0, 16, 25)
        assert a.histogram[:2] == [0, 0], "votes for the rebuilt range are spent"
        assert a.histogram[2] == 7 and a.histogram[7] == 2


class TestLayoutDecisions:
    """Apma(64) has 8 leaves of 8.  The range under test is leaves 0..1
    (slots [0, 16)) holding six keys: four gathered from leaf 0, two from
    leaf 1."""

    RAWS = [10, 20, 30, 40, 50, 60]
    OLD = [0, 1, 2, 3, 8, 9]

    def _layout(self, heat, pending_raw, raws=RAWS, old=OLD, size=16):
        a = Apma(64)
        a.histogram[:len(heat)] = heat
        calls = []
        weighted = a._weighted_positions

        def spy(c, size, weights):
            calls.append(list(weights))
            return weighted(c, size, weights)

        a._weighted_positions = spy
        entries = [(raw, seq) for seq, raw in enumerate(raws)]
        seg = [None] * size  # the range's slots before the layout
        for p, entry in zip(old, entries):
            seg[p] = entry
        L = a.leaf_size
        a._cnt[:size // L] = [L - seg[j:j + L].count(None) for j in range(0, size, L)]
        positions = or_even(a._layout(entries, 0, size, pending_raw), len(entries), size)
        assert a.histogram[:size // a.leaf_size] == [0] * (size // a.leaf_size)
        return positions, calls

    def test_split_taken_at_three_quarters_of_the_heat(self):
        # leaf 0 holds 3 of 4 votes and the pending key's gap (after 20)
        # lies inside its run: below the gap packs left, above packs right
        positions, calls = self._layout([3, 1], 25)
        assert positions == [0, 1, 12, 13, 14, 15]
        assert calls == []

    def test_split_gap_may_sit_at_either_end_of_the_hot_run(self):
        assert self._layout([3, 1], 5)[0] == [10, 11, 12, 13, 14, 15]
        assert self._layout([3, 1], 45)[0] == [0, 1, 2, 3, 14, 15]

    def test_split_refused_below_three_quarters(self):
        # 5 of 7 votes is under 3/4: the weighted layout runs instead
        positions, calls = self._layout([5, 2], 25)
        assert len(calls) == 1
        assert positions == weighted_offsets(Apma(64), 6, 16, calls[0])

    def test_split_refused_when_gap_lies_outside_the_hot_run(self):
        # the gap after 50 belongs to leaf 1's run, not hot leaf 0's
        positions, calls = self._layout([3, 1], 55)
        assert len(calls) == 1
        assert positions == weighted_offsets(Apma(64), 6, 16, calls[0])

    def test_credit_lands_on_the_leaf_of_the_runs_last_element(self):
        # four leaves; leaf 0's run ends at entry 5 of 8, which an even
        # spread puts in leaf 5 * 4 // 8 = 2; leaf 2's run ends at entry 6,
        # leaf 6 * 4 // 8 = 3.  5 of 7 votes is under 3/4, so the
        # pending key's gap cannot split the range
        raws = [10, 20, 30, 40, 50, 60, 70, 80]
        old = [0, 1, 2, 3, 4, 5, 16, 24]
        _, calls = self._layout([5, 0, 2, 0], 25, raws, old, size=32)
        assert calls == [[1, 1, 6, 3]]
        # a refused split credits the same way
        _, calls = self._layout([6, 0, 3, 0], 25, raws, old, size=32)
        assert calls == [[1, 1, 7, 4]]


def per_leaf_layout(a, entries, lo, size, old, pending_raw):
    """`Apma._layout` with a scan that visits every leaf of the range
    through enumerate(heat), heated or not.  Returns (offsets, credit),
    credit None when the range splits; spends the heat as `_layout` does."""
    c = len(entries)
    L = a.leaf_size
    k = size // L
    first_leaf = lo // L
    heat = a.histogram[first_leaf:first_leaf + k]
    a.histogram[first_leaf:first_leaf + k] = [0] * k
    old_off = [p for p, e in enumerate(old) if e is not None]
    runs = []
    for j, h in enumerate(heat):
        if h:
            first = bisect_left(old_off, j * L)
            end = bisect_left(old_off, j * L + L, first)
            if first < end:
                runs.append((first, end - 1, h))
    if runs:
        first, last, dom = max(runs, key=itemgetter(2))
        if dom * 4 >= sum(h for _, _, h in runs) * 3:
            gap = bisect_right([raw for raw, _ in entries], pending_raw)
            if first <= gap <= last + 1:
                return [*range(gap), *range(size - c + gap, size)], None
    credit = [1] * k
    for _, last, h in runs:
        credit[last * k // c] += h
    return reference_weighted_positions(c, size, credit, L), credit


@pytest.mark.parametrize("slot_count", [768, 6 << 10])
def test_layout_matches_the_per_leaf_scan(slot_count):
    """Random ranges where most leaves hold no heat and every heated leaf
    holds an entry, as `Apma` keeps it: the split-or-weighted decision, the
    credit, the offsets and the spent heat all match the per-leaf scan."""
    rng = random.Random(slot_count)
    a, b = Apma(slot_count), Apma(slot_count)
    L = a.leaf_size
    calls = []
    inner = a._weighted_positions
    a._weighted_positions = lambda c, size, w: calls.append(list(w)) or inner(c, size, w)
    splits = weighted = 0
    for _ in range(400):
        k = 1 << rng.randint(1, a.depth)
        size = k * L
        lo = rng.randrange(a.num_leaves // k) * size
        c = rng.randint(1, int(a._cap[a.depth - (k.bit_length() - 1)]))
        entries = [(raw, seq) for seq, raw in enumerate(sorted(rng.choices(range(4 * c), k=c)))]
        old = [None] * size
        for p, entry in zip(sorted(rng.sample(range(size), c)), entries):
            old[p] = entry
        histogram = [rng.randrange(3) for _ in range(a.num_leaves)]
        heat = [0] * k
        held_leaves = [j for j in range(k) if any(old[j * L:j * L + L])]
        heated = rng.sample(held_leaves,
                            min(len(held_leaves), rng.choice([0, 1, 1, 2, 3, k // 8])))
        for j in heated:
            heat[j] = rng.choice([1, 2, 5, 40])
        histogram[lo // L:lo // L + k] = heat
        a.histogram, b.histogram = list(histogram), list(histogram)
        # the range's counts before the layout, as `_rebalance` leaves them
        a._cnt[lo // L:lo // L + k] = [L - old[j:j + L].count(None) for j in range(0, size, L)]
        calls.clear()
        # half the time the pending key sits among a heated leaf's keys
        held = [e[0] for j in heated for e in old[j * L:j * L + L] if e]
        pending_raw = rng.randrange(-1, 4 * c + 1)
        if held and rng.random() < 0.5:
            pending_raw = rng.choice(held)
        want, credit = per_leaf_layout(b, entries, lo, size, old, pending_raw)
        assert or_even(a._layout(entries, lo, size, pending_raw), c, size) == want
        assert calls == ([] if credit is None else [credit])
        assert a.histogram == b.histogram
        splits += credit is None
        weighted += credit is not None and credit != [1] * k
    assert splits > 50 and weighted > 50, (splits, weighted)


@pytest.mark.parametrize("size", [48, 96, 192])
def test_key_below_all_lands_right_before_the_first_key(size):
    # A Pma never leaves slot 0 empty under a stored key, but a split layout
    # packs descending keys to the right edge: then a key with no
    # predecessor must go next to the first key, not to slot 0.
    a = Apma(size)
    rebalances = []
    inner = a._rebalance

    def spy(lo, hi, pending_raw):
        rebalances.append((lo, hi))
        return inner(lo, hi, pending_raw)

    a._rebalance = spy
    reached = 0
    for seq in range(size // 2):
        raw = 10**6 - seq
        before, seen = list(a.slots), len(rebalances)
        a.insert(raw, seq)
        if len(rebalances) == seen and before[0] is None and any(before):
            first = next(p for p, e in enumerate(before) if e is not None)
            assert a.slots == before[:first - 1] + [(raw, seq)] + before[first:], seq
            reached += 1
    assert reached > 0


class RecountingApma(RecountingPma, Apma):
    """An Apma whose every rebalance recounts its moves by position."""


class ApmaThenRecounting(Apma, RecountingPma):
    """RecountingPma listed after Apma: it sits between Apma and Pma."""


@pytest.mark.parametrize(
    "spied", ["SpiedApma", "RecountingApma", "ApmaThenSpied", "ApmaThenRecounting"])
def test_a_mixin_on_either_side_of_apma_sees_every_place_and_rebalance(spied, monkeypatch):
    """A mixin listed before Apma, as criterion 7's spy and RecountingApma
    are, wraps every `_place` and `_rebalance` that Pma runs, from the first
    insert into the empty box on.  So does a Pma subclass listed after
    Apma, since Apma reaches Pma's `__init__` and `_place` through super()."""
    calls = {"_place": 0, "_rebalance": 0}
    for name in calls:
        def counted(self, *args, inner=getattr(Pma, name), name=name):
            calls[name] += 1
            return inner(self, *args)
        monkeypatch.setattr(Pma, name, counted)
    state = {"in_merge": False, "events": [], "shifts": 0, "rebalances": 0}
    spied_pma, spied_apma = _spied_classes(state)

    class ApmaThenSpied(Apma, spied_pma):
        pass

    box = {"SpiedApma": spied_apma, "RecountingApma": RecountingApma,
           "ApmaThenSpied": ApmaThenSpied, "ApmaThenRecounting": ApmaThenRecounting}[spied](96)
    raws = [49] + list(range(1, 49))  # hammer: 49 keys, as many as 96 slots take
    for seq, raw in enumerate(raws):
        box.insert(raw, seq)
    assert calls["_place"] == len(raws) and calls["_rebalance"] > 0
    if "Spied" in spied:
        assert state["rebalances"] == calls["_rebalance"]
        assert len(state["events"]) == calls["_place"] + calls["_rebalance"]
    else:
        assert len(box.sizes) == calls["_rebalance"]


@pytest.mark.parametrize("size", [96, 768])
@pytest.mark.parametrize("order", ["span-4", "one-key", "hammer"])
def test_rebalance_moves_match_a_positional_recount(size, order):
    # Every seq is 0, so equal keys make equal entries: only a count that
    # tells entries apart by identity, not by value, matches the recount.
    rng = random.Random(size)
    n = size // 2 + 1
    raws = {
        "span-4": [rng.randint(0, 4) for _ in range(n)],
        "one-key": [7] * n,
        "hammer": [n] + [i // 2 for i in range(n - 1)],
    }[order]
    a = RecountingApma(size)
    for raw in raws:
        a.insert(raw, 0)
    assert a.sizes and raws_sorted(a.slots)


class TestOpaqueSeq:
    """`seq` is a payload: no layout decision may depend on its value."""

    N = 1000
    STREAMS = {
        "one-key": [7] * N,
        "few-keys": [10 * (i * 7 % 5) for i in range(N)],
        "hammer": [1000] + [500] * (N - 1),
    }

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_standalone_apma_ignores_seq_values(self, name):
        def run(base):
            led = MovementLedger()
            a = Apma(4 * self.N, ledger=led)
            for i, raw in enumerate(self.STREAMS[name]):
                a.insert(raw, base + i)
            labels = [(e[0], pos + 1) for pos, e in enumerate(a.slots) if e is not None]
            return labels, led.total_movements

        assert run(2**63) == run(0)

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_learned_apma_ignores_seq_values(self, name):
        def run(base):
            lla = LearnedLLA(self.N, factory=Apma)
            for i, raw in enumerate(self.STREAMS[name]):
                lla.insert(raw, base + i, 1)
            labels = [(raw, label) for raw, _, label in lla.global_labels()]
            return labels, lla.ledger.total_movements

        assert run(2**63) == run(0)


def heat_stream(stream, n, rng):
    """n keys in ascending, descending, one hammered gap's or random order,
    or drawn from range(64) so most of them repeat."""
    if stream == "ascending":
        return [i * 10 for i in range(n)]
    if stream == "descending":
        return [(n - i) * 10 for i in range(n)]
    if stream == "hammer":
        return [n * 10] + [i * 10 for i in range(1, n)]
    if stream == "random":
        return rng.sample(range(10**9), n)
    return [rng.randrange(64) for _ in range(n)]


def heated_leaves(a):
    """How many leaves of `a` hold heat; asserts that each holds an entry."""
    L = a.leaf_size
    heated = [*compress(range(a.num_leaves), a.histogram)]
    assert all(any(a.slots[j * L:j * L + L]) for j in heated), heated
    return len(heated)


@pytest.mark.parametrize("learned", [False, True], ids=["apma", "learned-apma"])
@pytest.mark.parametrize("stream", ["ascending", "descending", "hammer", "random", "duplicates"])
def test_a_heated_leaf_always_holds_an_entry(stream, learned):
    """`_layout` counts a run of entries for every heated leaf, so after
    every insert each leaf with heat holds an entry: in a standalone `Apma`
    and in every box of a learned-apma load predicted up to 32 ranks off.
    A key votes for the leaf it lands in, shifts stay inside a leaf, and
    entries leave a leaf only in a layout, which spends its range's heat."""
    n = 1 << 10
    rng = random.Random(12)
    raws = heat_stream(stream, n, rng)
    if learned:
        rank = {i: r for r, i in enumerate(sorted(range(n), key=raws.__getitem__), start=1)}
        preds = [clamp(rank[i] + rng.randint(-32, 32), 1, n) for i in range(n)]
        lla = LearnedLLA(n, factory=Apma)
        insert = lambda raw, seq: lla.insert(raw, seq, preds[seq])
        boxes = lambda: [b for b in lla._boxes if isinstance(b, Apma)]
    else:
        a = Apma(2 * n)
        insert, boxes = a.insert, lambda: [a]
    heated = 0
    for seq, raw in enumerate(raws):
        insert(raw, seq)
        heated += sum(map(heated_leaves, boxes()))
    assert heated > n
    if learned:
        assert lla.merges


# ----------------------------------------------------------------------
# workload comparisons (thresholds hold measured values with slack)


def _cost(cls, raws, slot_count):
    s = cls(slot_count)
    moved = sum(s.insert(raw, i) for i, raw in enumerate(raws))
    assert raws_sorted(s.slots)
    return moved / len(raws)


def test_sequential_inserts_become_free():
    n = 8192
    raws = [i * 10 for i in range(n)]
    pma = _cost(Pma, raws, 2 * n)
    apma = _cost(Apma, raws, 2 * n)
    assert apma == 0.0  # every rebuild leaves the growing end open
    assert pma > 0.5  # measured 0.82: the even spread keeps paying


def test_descending_inserts_nearly_free():
    n = 4096
    raws = [(n - i) * 10 for i in range(n)]
    pma = _cost(Pma, raws, 2 * n)
    apma = _cost(Apma, raws, 2 * n)
    assert apma < pma / 10  # measured 2.0 vs 48.8
    assert apma < 4.0


def test_hammered_gap_nearly_free():
    n = 4096
    top = 10**9
    raws = [top] + [top - (n - i) for i in range(1, n)]
    pma = _cost(Pma, raws, 2 * n)
    apma = _cost(Apma, raws, 2 * n)
    assert apma < pma / 10  # measured 0.97 vs 35.3
    assert apma < 3.0


def test_uniform_random_within_constant_factor():
    n = 8192
    raws = random.Random(3).sample(range(10**9), n)
    pma = _cost(Pma, raws, 2 * n)
    apma = _cost(Apma, raws, 2 * n)
    assert apma <= 1.5 * pma  # measured ratio 1.29


def test_mixed_workload_stays_sorted():
    rng = random.Random(8)
    a = Apma(2048)
    seq_val = 0
    for i in range(1000):
        if rng.random() < 0.5:
            seq_val += 10
            a.insert(seq_val, i)
        else:
            a.insert(rng.randint(0, 10**9), i)
        if i % 131 == 0:
            assert raws_sorted(a.slots)
    assert raws_sorted(a.slots)


def test_apma_respects_ledger_and_capacity():
    led = MovementLedger()
    a = Apma(48, ledger=led)
    for i in range(20):
        a.insert(i, i)
    assert led.total_inserts == 20
    assert a.count == 20
