"""Packed-memory array (PMA): a sorted sparse array with density thresholds.

Keys live in an array of m slots organized as an implicit binary tree over
fixed-size leaf ranges.  A node at depth k tolerates densities up to
tau(k) = tau_root + (tau_leaf - tau_root) * k / d, looser toward the leaves.
An insert lands in the leaf range that keeps order; if that leaf is above its
threshold, the lowest ancestor still within threshold is rebalanced by even
redistribution before the element is placed.  A key targets the slot
right after the last stored key <= it, else right before the first stored
key, and slot 0 in an empty array; if that slot is taken, the shorter run of
its leaf shifts by one toward the nearest gap (ties go right), so cheap
inserts stay cheap and the labels of untouched elements never change.

Movements are counted per element whose slot (label) actually changes; an
element that a rebalance happens to leave in place costs nothing.  Each
stored entry is a distinct tuple object (insert and init build fresh ones,
`_fill` keeps the ones it is handed in its old slot list, shifts and
rebalances move references), so a move is counted by identity as each entry
is stored at its new offset: a move unless the new slot's index held that
same object before.  The even spread, `_spread`, does so for `_fill` over a
fresh box and for every rebalance whose `_layout` is the even one;
`_rebalance` does so itself at the offsets of an uneven layout.

Two rows hold the per-leaf state, one value per leaf.  The count row `_cnt`
holds each leaf's number of entries: an insert adds one to the leaf it lands
in (shifts stay inside it), and a redistribution rewrites the row only
inside its range, so the density walk sums counts, never scans slots.  The
row of leaf minima `_min` is non-decreasing.  A non-empty leaf holds its
smallest key (its first entry: keys ascend with the slots), an empty one the
next non-empty leaf's, INF_RAW if there is none, or NEG_INF_RAW if no key
precedes it (core's markers outside the keys).  One bisect finds the leaf of
a key's predecessor, an insert lowers at most its own leaf's minimum, and a
redistribution, which keeps its range's minimum, rewrites the row only
inside its range.

A redistribution sets both rows from where it placed its entries, never
from the slots, by one rule: leaf j's run starts at the first entry whose
offset is at or past j*L, L the leaf size.  The even spread computes it in
closed form (`_spread`), an uneven layout by bisect over its offsets
(`_set_rows`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache
from itertools import islice, repeat
from operator import gt, index

from .core import INF_RAW, NEG_INF_RAW, CapacityError, MovementLedger, check_raw

__all__ = ["Pma"]

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


class Pma:
    """The array itself.  Entries are (raw, seq) int pairs; labels are 1-based.

    A slot count that is not an int is a TypeError, whatever `geometry` cached.
    If `ledger` is given, inserts and init charge it; otherwise an insert
    only returns its movement count (a wrapper that does its own accounting
    passes ledger=None).

    A variant has two extension points: `_place(t, entry)`, which stores
    every inserted key and returns where it landed, and `_layout(entries,
    lo, size, pending_raw)`, which returns None for the even spread or else
    a list of a rebalanced range's slots as ascending offsets from lo,
    while `_cnt` still holds the range's old leaf counts.  Either way the
    rows `_cnt` and `_min` are set from the placements, by the module
    docstring's rule, and hold for every leaf after a rebalance.

    Each stored entry is its own tuple object; moves are counted by
    identity while the entries are stored, so a variant must store the
    entries it is given, never an equal copy.
    """

    def __init__(self, slot_count: int, ledger: MovementLedger | None = None):
        (self.leaf_size, self.depth, self.slot_count, self.num_leaves,
         self._cap) = geometry(index(slot_count))
        self.ledger = ledger
        self.slots: list[tuple[int, int] | None] = [None] * self.slot_count
        self.count = 0
        # The two per-leaf rows (see the module docstring): entry counts,
        # which the density walk sums one aligned range per level, and
        # leaf minima, which `_target` bisects.
        self._cnt = [0] * self.num_leaves
        self._min = [INF_RAW] * self.num_leaves

    # ------------------------------------------------------------------
    # public surface

    def init(self, raws, seqs) -> None:
        """Bulk-load sorted keys, evenly spread across the whole array.

        Everything is checked before the first slot is written: CapacityError
        if the keys do not fit, ValueError on a non-empty array, for a `seqs`
        of another length, for the first key check_raw rejects, or for
        unsorted keys.  The checked keys and seqs are then paired into fresh
        tuples, padded with None to the slot count, that `_fill` lays out.
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
        self._fill([*zip(raws, seqs), *repeat(None, self.slot_count - c)])
        if self.ledger is not None:
            self.ledger.record_init(c)

    def _fill(self, old: list[tuple[int, int] | None]) -> int:
        """Spread the entries of `old`, a list of slot_count slots, evenly
        over this empty array: these very tuples, sorted and checked, entry
        i of c at slot i*m // c, written straight into `slots` by `_spread`.
        Returns how many entries moved, those whose index in `old` differs
        from their new slot, as `_spread` counts them for `_rebalance` too.
        `old` is only read."""
        entries = list(filter(None, old))
        moved = len(entries) - self._spread(self.slots, old, entries, 0)
        self.count = len(entries)
        return moved

    def insert(self, raw: int, seq: int = 0) -> int:
        """Insert a key, returning the movements of already-present elements.

        `seq` is an opaque payload stored beside the key and never compared:
        a duplicate key lands after its stored equals whatever its seq.
        Raises CapacityError when the array already holds more than
        cap[0] = TAU_ROOT * slot_count keys, the root's threshold (callers
        that want growth must rebuild into a bigger array themselves), and
        ValueError for a key check_raw rejects.
        """
        raw = check_raw(raw)
        if self.count > self._cap[0]:
            raise CapacityError("root above density threshold")
        t = self._target(raw)

        # Walk up until a node tolerates one more element (checked against
        # the pre-insert count, so a box sized 6r admits its (3r+1)-th
        # element before the owner decides to rebuild).  In leaf units: the
        # node is the `width` leaves from leaf j, j a multiple of width, and
        # each level doubles it and adds only the sibling half's counts.
        cnt, cap, L = self._cnt, self._cap, self.leaf_size
        j = min(t, self.slot_count - 1) // L
        c = cnt[j]
        width = 1
        k = self.depth
        while c > cap[k]:
            # Stops by the root: at depth 0, c is the count checked above.
            if j & width:  # a right child
                j -= width
                c += sum(cnt[j:j + width])
            else:
                c += sum(cnt[j + width:j + 2 * width])
            width <<= 1
            k -= 1
        moved = 0
        if k != self.depth:
            moved = self._rebalance(j * L, (j + width) * L, raw)
            t = self._target(raw)

        pos, shifted = self._place(t, (raw, seq))
        moved += shifted
        # Only the new key's leaf can change: shifts stay inside it, and the
        # key lands in its predecessor's leaf or the next one, else in or just
        # before the first non-empty leaf, so no empty leaf that held the old
        # minimum precedes it.
        mins = self._min
        j = pos // L
        cnt[j] += 1
        if mins[j] > raw or mins[j] == NEG_INF_RAW:
            mins[j] = raw
        self.count += 1
        if self.ledger is not None:
            self.ledger.record_insert(moved)
        return moved

    # ------------------------------------------------------------------
    # placement (a bisect over the leaf minima, then never more than one leaf)

    def _target(self, raw: int) -> int:
        """The slot the key wants: right after the last stored key <= raw,
        else right before the first stored key, else (an empty box) slot 0.
        That slot may be taken, and it may equal slot_count.

        The last leaf with a minimum <= raw holds the predecessor, unless it
        is NEG_INF_RAW (an empty leaf past the first key repeats the next
        non-empty leaf's minimum); else the leaf after it is the first
        non-empty one, leaf 0 of an empty box (every minimum is INF_RAW)."""
        mins, L, slots = self._min, self.leaf_size, self.slots
        q = bisect_right(mins, raw)
        if q and mins[q - 1] != NEG_INF_RAW:
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
        if self.count:
            raise AssertionError("leaf minima out of sync: the first non-empty leaf is empty")
        return 0

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
        pending_raw: int,
    ) -> list[int] | None:
        """None for the even spread (`_spread`), which is this layout.  A
        variant may instead return a list of ascending offsets in
        [0, size) for `entries` in the slots [lo, lo+size): entry i goes to
        slot lo + offset i, and `_set_rows` reads the list for the rows.

        `_cnt` still holds the range's leaf counts from before the
        redistribution; the even layout ignores them, as it ignores
        `pending_raw`, the key whose insert triggered it.  Adaptive variants
        may read both to aim free space at that key's gap."""
        return None

    def _rebalance(self, lo: int, hi: int, pending_raw: int) -> int:
        """Redistribute the slots [lo, hi), the range of the tree node the
        density walk stopped at; returns how many elements moved.  The walk
        only gets here from a child above its threshold, so the range holds
        entries.  Each moved unless its new slot held that same tuple:
        identity, never equality, decides."""
        old = self.slots[lo:hi]
        entries = list(filter(None, old))
        seg = [None] * (hi - lo)
        offsets = self._layout(entries, lo, hi - lo, pending_raw)
        if offsets is None:
            stayed = self._spread(seg, old, entries, lo)
        else:
            stayed = 0
            for p, entry in zip(offsets, entries):
                seg[p] = entry
                if old[p] is entry:
                    stayed += 1
            self._set_rows(lo, hi, offsets, entries)
        self.slots[lo:hi] = seg
        return len(entries) - stayed

    def _spread(self, seg: list, old: list, entries: list, lo: int) -> int:
        """The even spread: store entry i of the c `entries` at offset
        i*size // c of `seg`, which holds only None, where size = len(old)
        slots are whole leaves from slot lo; returns how many stayed put, by
        the identity test.  Then set those leaves' counts and minima
        in closed form: over k leaves, entry i lands in leaf j exactly when
        j*c <= i*k < (j+1)*c, so leaf j holds the entries from ceil(j*c/k)
        up to ceil((j+1)*c/k), and its minimum is the first one's key, or
        the carry-in from the right of the range past the last entry.  The
        first entry lands at offset 0, so no leading empty leaf appears."""
        size, c = len(old), len(entries)
        stayed = x = 0
        for entry in entries:
            p = x // c
            seg[p] = entry
            if old[p] is entry:
                stayed += 1
            x += size
        cnt, mins, L = self._cnt, self._min, self.leaf_size
        first, end = lo // L, (lo + size) // L
        k = end - first
        carry = mins[end] if end < self.num_leaves else INF_RAW
        s = a = 0
        for j in range(first, end):
            a += c
            nxt = -(-a // k)
            cnt[j] = nxt - s
            mins[j] = entries[s][0] if s < c else carry
            s = nxt
        return stayed

    def _set_rows(self, lo: int, hi: int, offsets: list[int], entries: list) -> None:
        """Set the counts and minima of the leaves of the slots [lo, hi),
        whole leaves, from where an uneven layout put the `entries`: entry i
        at offset i of the ascending `offsets`.  Leaf j's run starts at the
        first entry whose offset is at or past its own, found by bisect; its
        minimum is that entry's key, or the carry-in from the right of the
        range past the last entry.  Leaves outside keep theirs (a
        redistribution keeps its range's count and minimum).  A range that
        starts the leading empty run marks the empties before its first
        entry."""
        cnt, mins, L = self._cnt, self._min, self.leaf_size
        first, end = lo // L, hi // L
        c = len(entries)
        carry = mins[end] if end < self.num_leaves else INF_RAW
        a = x = 0
        for j in range(first, end):
            x += L
            b = bisect_left(offsets, x, a)
            cnt[j] = b - a
            mins[j] = entries[a][0] if a < c else carry
            a = b
        if offsets[0] >= L and (first == 0 or mins[first - 1] == NEG_INF_RAW):
            top = first + offsets[0] // L
            mins[first:top] = repeat(NEG_INF_RAW, top - first)
