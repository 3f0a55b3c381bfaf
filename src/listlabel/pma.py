"""Packed-memory array (PMA): a sorted sparse array with density thresholds.

Keys live in an array of m slots organized as an implicit binary tree over
fixed-size leaf ranges.  A node at depth k tolerates densities up to
tau(k) = tau_root + (tau_leaf - tau_root) * k / d, looser toward the leaves.
An insert lands in the leaf range that keeps order; if that leaf is above its
threshold, the lowest ancestor still within threshold is rebalanced by even
redistribution before the element is placed.  A box's first key goes
straight to slot 0, with no search and no walk.  Any later key targets the
slot right after the last stored key <= it, else right before the first
stored key; if that slot is taken, the shorter run of its leaf shifts by one
toward the nearest gap (ties go right), so cheap inserts stay cheap and the
labels of untouched elements never change.

Movements are counted per element whose slot (label) actually changes; an
element that a rebalance happens to leave in place costs nothing.  Each
stored entry is a distinct tuple object (insert and init build fresh ones,
`_fill` keeps the ones it is handed, shifts and rebalances move references),
so a rebalance counts by identity as it stores each entry at its streamed
offset: a move unless the new slot held that same object before.

The only per-leaf state is a non-decreasing row of leaf minima.  A non-empty
leaf holds its smallest key (its first entry: keys ascend with the slots), an
empty one the next non-empty leaf's, INF_RAW if there is none, and LEAD_RAW,
below every key, if no key precedes it.  One bisect finds the leaf of a key's
predecessor, an insert lowers at most its own leaf's minimum, and a
redistribution, which keeps its range's minimum, rewrites the row only inside
its range.  Densities are counted from the slots of the range at hand.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import islice, repeat
from operator import floordiv, gt, index

from .core import CapacityError, MovementLedger, check_raw

__all__ = ["Pma"]

# Keys lie in [MIN_RAW, RAW_MAX] (see check_raw).  INF_RAW and NEG_INF_RAW mark
# empty subtrees of LearnedLLA's min/max trees; INF_RAW and LEAD_RAW, one below
# the legal key MIN_RAW == NEG_INF_RAW, mark empty leaves of Pma's leaf minima.
INF_RAW = 2**63 - 1
NEG_INF_RAW = -(2**63)
LEAD_RAW = NEG_INF_RAW - 1


# Upper density thresholds at the root and at the leaves (see geometry).
TAU_ROOT = 0.5
TAU_LEAF = 0.9


@cache
def geometry(slot_count: int) -> tuple[int, int, int, int, tuple[float, ...]]:
    """(leaf_size, depth, slot_count, num_leaves, cap) for a requested slot
    count, computed once and shared by every box of that size.

    Leaves hold Theta(log m) slots: at least max(2, ceil(log2 m)).  The tree
    must tile the array exactly with 2^depth equal leaves, so leaf sizes are
    drawn from {2^j} and {3 * 2^j}; the second family lets sizes of the form
    6 * 2^h (the sizes the learned wrapper allocates) tile without padding.
    A count that fits neither family is rounded up to the next
    power-of-two-leaf layout, and the returned slot_count is that total.

    A node at depth k (the root is depth 0) tolerates the density
    tau(k) = TAU_ROOT + (TAU_LEAF - TAU_ROOT) * k / depth, looser toward the
    leaves; a lone leaf (depth 0) is the root and takes TAU_ROOT.

    cap[k] is tau(k) times the slot count of a depth-k node: the element
    count a node may hold before it must push an insert up to its parent.
    It is an immutable tuple.  Fewer than 2 slots is a ValueError.
    """
    if slot_count < 2:
        raise ValueError("need at least 2 slots")
    min_leaf = max(2, (slot_count - 1).bit_length())  # ceil(log2(slot_count))
    # Start from slot_count's odd part if that is 3, else from 1, and double
    # up to min_leaf.  When the odd part is 1 or 3 the leaf stays a divisor
    # (slot_count itself is >= min_leaf), so the leaves tile exactly;
    # otherwise the power-of-two leaf pads the total up.
    leaf = 3 if slot_count // (slot_count & -slot_count) == 3 else 1
    while leaf < min_leaf:
        leaf <<= 1
    depth = 0
    while leaf << depth < slot_count:
        depth += 1
    cap = tuple(
        (TAU_ROOT + (TAU_LEAF - TAU_ROOT) * (k / depth if depth else 0.0))
        * ((1 << depth - k) * leaf)
        for k in range(depth + 1)
    )
    return leaf, depth, leaf << depth, 1 << depth, cap


def even_layout(size: int, c: int) -> Iterator[int]:
    """Offsets i*size // c for i < c, as a lazy map read once: c entries
    spread evenly over size slots, left-anchored, remainder gaps right."""
    return map(floordiv, range(0, size * c, size), repeat(c))


class Pma:
    """The array itself.  Entries are (raw, seq) int pairs; labels are 1-based.

    A slot count that is not an int is a TypeError, whatever `geometry` cached.
    If `ledger` is given, inserts and init charge it; otherwise an insert
    only returns its movement count (a wrapper that does its own accounting
    passes ledger=None).

    A variant has two extension points: `_place(t, entry)`, which stores
    every inserted key and returns where it landed, and `_layout(entries,
    lo, size, old, pending_raw)`, which yields a rebalanced range's slots as
    ascending offsets from lo, read once, given its old slot segment `old`.

    Each stored entry is its own tuple object; `_rebalance` counts moves by
    identity while it stores them, so a variant must store the entries it
    is given, never an equal copy.
    """

    def __init__(self, slot_count: int, ledger: MovementLedger | None = None):
        (self.leaf_size, self.depth, self.slot_count, self.num_leaves,
         self._cap) = geometry(index(slot_count))
        self.ledger = ledger
        self.slots: list[tuple[int, int] | None] = [None] * self.slot_count
        self.count = 0
        # The row of leaf minima (see the module docstring).  Densities are
        # counted from the slots, one aligned range per level.
        self._min = [INF_RAW] * self.num_leaves

    # ------------------------------------------------------------------
    # public surface

    def init(self, raws, seqs) -> None:
        """Bulk-load sorted keys, evenly spread across the whole array.

        Everything is checked before the first slot is written: CapacityError
        if the keys do not fit, ValueError on a non-empty array, for a `seqs`
        of another length, for the first key check_raw rejects, or for
        unsorted keys.  The checked keys and seqs are then paired into fresh
        tuples that `_fill` lays out.
        """
        c = len(raws)
        if c > self.slot_count:
            raise CapacityError(f"{c} keys into {self.slot_count} slots")
        if self.count:
            raise ValueError("init on a non-empty array")
        if len(seqs) != c:
            raise ValueError(f"{c} keys but {len(seqs)} sequence numbers")
        raws = list(map(check_raw, raws))
        if any(map(gt, raws, islice(raws, 1, None))):
            raise ValueError("init expects sorted keys")
        self._fill(list(zip(raws, seqs)))
        if self.ledger is not None:
            self.ledger.record_init(c)

    def _fill(self, entries: list[tuple[int, int]]) -> None:
        """Store sorted, checked entries, these very tuples, in an empty
        array: entry i of c at slot i*m // c (even_layout)."""
        slots = self.slots
        for pos, entry in zip(even_layout(self.slot_count, len(entries)), entries):
            slots[pos] = entry
        self.count = len(entries)
        self._rebuild_minima(0, self.slot_count)

    def insert(self, raw: int, seq: int = 0) -> int:
        """Insert a key, returning the movements of already-present elements.

        `seq` is an opaque payload stored beside the key and never compared:
        a duplicate key lands after its stored equals whatever its seq.
        Raises CapacityError when the array already holds more than
        cap[0] = TAU_ROOT * slot_count keys, the root's threshold (callers
        that want growth must rebuild into a bigger array themselves), and
        ValueError for a key check_raw rejects.

        A box's first key goes straight to slot 0, with no search and no
        walk; it still passes through `_place`, the leaf minima, the count
        and the ledger as every other key does.
        """
        raw = check_raw(raw)
        if self.count > self._cap[0]:
            raise CapacityError("root above density threshold")
        # An empty box is below every threshold and has no key to place next
        # to: its first key goes to slot 0 with neither the search nor the walk.
        moved = t = 0
        if self.count:
            t = self._target(raw)

            # Walk up until a node tolerates one more element (checked against
            # the pre-insert count, so a box sized 6r admits its (3r+1)-th
            # element before the owner decides to rebuild).  Each level doubles
            # the aligned range and counts only the sibling half's slots.
            slots, cap = self.slots, self._cap
            width = self.leaf_size
            lo = min(t, self.slot_count - 1) // width * width
            c = width - slots[lo:lo + width].count(None)
            k = self.depth
            while c > cap[k]:
                # Stops by the root: at depth 0, c is the count checked above.
                # A right child; not `lo & width`, which fails for 3 * 2^j leaves.
                if lo // width & 1:
                    lo -= width
                    c += width - slots[lo:lo + width].count(None)
                else:
                    c += width - slots[lo + width:lo + 2 * width].count(None)
                width <<= 1
                k -= 1
            if k != self.depth:
                moved = self._rebalance(lo, lo + width, raw)
                t = self._target(raw)

        pos, shifted = self._place(t, (raw, seq))
        moved += shifted
        # Only the new key's leaf can change: shifts stay inside it, and the
        # key lands in its predecessor's leaf or the next one, else in or just
        # before the first non-empty leaf, so no empty leaf that held the old
        # minimum precedes it.
        mins = self._min
        j = pos // self.leaf_size
        if mins[j] > raw or mins[j] == LEAD_RAW:
            mins[j] = raw
        self.count += 1
        if self.ledger is not None:
            self.ledger.record_insert(moved)
        return moved

    # ------------------------------------------------------------------
    # placement (a bisect over the leaf minima, then never more than one leaf)

    def _target(self, raw: int) -> int:
        """The slot the key wants: right after the last stored key <= raw,
        else right before the first stored key; the box must hold a key.
        That slot may be taken, and it may equal slot_count.

        The last leaf with a minimum <= raw holds the predecessor, unless it
        is LEAD_RAW (an empty leaf past the first key repeats the next
        non-empty leaf's minimum); else the leaf after it is the first
        non-empty one."""
        mins, L, slots = self._min, self.leaf_size, self.slots
        q = bisect_right(mins, raw)
        if q and mins[q - 1] != LEAD_RAW:
            t = q * L
            e = slots[t - 1]
            while e is None or e[0] > raw:
                t -= 1
                e = slots[t - 1]
            return t
        lo = q * L
        for pos in range(lo, lo + L):
            if slots[pos] is not None:
                return max(pos - 1, 0)
        raise AssertionError("leaf minima out of sync: the first non-empty leaf is empty")

    def _place(self, t: int, entry: tuple[int, int]) -> tuple[int, int]:
        """Store the entry at slot t if that slot is free; otherwise shift
        the shorter run of t's leaf by one toward its nearest gap (ties go
        right) and store it at t, or at t - 1 after a left shift.  Returns
        (pos, moved)."""
        slots, m = self.slots, self.slot_count
        if t < m and slots[t] is None:
            slots[t] = entry
            return t, 0
        # Distances to the nearest gap on each side, L where the leaf has
        # none.  The left side is a reversed copy: a slice with a negative
        # stop would wrap to the end of the array at lo == 0.
        L = self.leaf_size
        lo = min(t, m - 1) // L * L
        try:
            d_r = slots.index(None, t, lo + L) - t
        except ValueError:
            d_r = L
        try:
            d_l = slots[lo:t][::-1].index(None)
        except ValueError:
            d_l = L
        if d_r <= d_l:
            if d_r == L:
                raise AssertionError("leaf admitted an insert but has no free slot")
            slots[t + 1:t + d_r + 1] = slots[t:t + d_r]
            slots[t] = entry
            return t, d_r
        slots[t - 1 - d_l:t - 1] = slots[t - d_l:t]
        slots[t - 1] = entry
        return t - 1, d_l

    # ------------------------------------------------------------------
    # rebalancing

    def _layout(
        self,
        entries: list[tuple[int, int]],
        lo: int,
        size: int,
        old: list[tuple[int, int] | None],
        pending_raw: int,
    ) -> Iterable[int]:
        """An iterable, read once, of ascending offsets in [0, size) for
        `entries` in the slots [lo, lo+size): even_layout's lazy map.  Entry
        i goes to slot lo + offset i.

        `old` is the range's slot segment before the redistribution, so
        old[i] is what slot lo + i held; the even layout ignores it, as it
        ignores `pending_raw`, the key whose insert triggered the
        redistribution.  Adaptive variants may read both to aim free space
        at that key's gap."""
        return even_layout(size, len(entries))

    def _rebalance(self, lo: int, hi: int, pending_raw: int) -> int:
        """Redistribute the slots [lo, hi), the range of the tree node the
        density walk stopped at; returns how many elements moved.  The walk
        only gets here from a child above its threshold, so the range holds
        entries.  One loop stores them at the layout's offsets: each moved
        unless its new slot held that same tuple, counted by identity."""
        old = self.slots[lo:hi]
        entries = list(filter(None, old))
        seg, moved = [None] * (hi - lo), len(entries)
        for p, entry in zip(self._layout(entries, lo, hi - lo, old, pending_raw), entries):
            seg[p] = entry
            if old[p] is entry:
                moved -= 1
        self.slots[lo:hi] = seg
        self._rebuild_minima(lo, hi)
        return moved

    def _rebuild_minima(self, lo: int, hi: int) -> None:
        """Recompute the leaf minima of the slots [lo, hi), whole leaves:
        one scan per leaf, carrying the next non-empty leaf's minimum from
        the right.  Leaves outside keep theirs (init passes the whole array;
        a redistribution keeps its range's minimum).  A range that holds
        keys and starts the leading empty run marks its leading empties."""
        mins, slots, L = self._min, self.slots, self.leaf_size
        first, end = lo // L, hi // L
        carry = mins[end] if end < self.num_leaves else INF_RAW
        top = end  # the range's first non-empty leaf, end if none
        for j in range(end - 1, first - 1, -1):
            hi -= L
            entry = next(filter(None, slots[hi:hi + L]), None)
            if entry is not None:
                carry, top = entry[0], j
            mins[j] = carry
        if top < end and (first == 0 or mins[first - 1] == LEAD_RAW):
            mins[first:top] = repeat(LEAD_RAW, top - first)
