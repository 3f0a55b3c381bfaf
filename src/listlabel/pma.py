"""Packed-memory array (PMA): a sorted sparse array with density thresholds.

Keys live in an array of m slots organized as an implicit binary tree over
fixed-size leaf ranges.  A node at depth k tolerates densities up to
tau(k) = tau_root + (tau_leaf - tau_root) * k / d, looser toward the leaves.
An insert lands in the leaf range that keeps order; if that leaf is above its
threshold, the lowest ancestor still within threshold is rebalanced by even
redistribution before the element is placed.  Within the leaf the new element
takes the free slot next to its predecessor, shifting at most a few neighbors
by one slot, so cheap inserts stay cheap and the labels of untouched elements
never change.

Movements are counted per element whose slot (label) actually changes; an
element that a rebalance happens to leave in place costs nothing.

The only per-node state is the heap-order tree of subtree key minima, and an
insert touches no more of it than its placement needs, relying on three facts:
INF_RAW marks an empty subtree (so the minima double as occupancy); keys
ascend with the slots, so a leaf's minimum is its first entry; and a
redistribution leaves its node's minimum unchanged, so it rebuilds only the
nodes below.  Densities are counted from the slots of the range at hand.
"""

from __future__ import annotations

from functools import cache
from itertools import compress, repeat
from operator import floordiv, ne

from .core import CapacityError, MovementLedger, check_raw

# Empty-subtree markers of the heap-order min/max trees.  Every key stored or
# searched lies in [MIN_RAW, RAW_MAX] (see check_raw): below INF_RAW and not
# below NEG_INF_RAW, so an empty subtree never passes the descents' tests
# below and they need no per-node counts.
INF_RAW = 2**63 - 1
NEG_INF_RAW = -(2**63)


def pred_leaf(mins: list[int], raw: int) -> int | None:
    """Rightmost leaf holding a key <= raw, or None.

    `mins` is a heap-order tree (node 1 is the root, the leaves sit at
    [len // 2, len)) of subtree key minima, INF_RAW where a subtree is empty.
    """
    if mins[1] > raw:
        return None
    n = len(mins) >> 1
    v = 1
    while v < n:
        v <<= 1
        if mins[v | 1] <= raw:
            v |= 1
    return v - n


def succ_leaf(maxs: list[int], raw: int) -> int | None:
    """Leftmost leaf holding a key > raw, or None; `maxs` is the heap-order
    tree of subtree key maxima, NEG_INF_RAW where a subtree is empty."""
    if maxs[1] <= raw:
        return None
    n = len(maxs) >> 1
    v = 1
    while v < n:
        v <<= 1
        if maxs[v] <= raw:
            v |= 1
    return v - n


# Upper density thresholds at the root and at the leaves (see tau_at_depth).
TAU_ROOT = 0.5
TAU_LEAF = 0.9


def tau_at_depth(k: int, depth: int) -> float:
    """Upper density threshold for a node at depth k (root is depth 0)."""
    if not 0 <= k <= max(depth, 0):
        raise ValueError(f"depth {k} outside [0, {depth}]")
    ratio = k / depth if depth else 0.0
    return TAU_ROOT + (TAU_LEAF - TAU_ROOT) * ratio


def plan_layout(slot_count: int) -> tuple[int, int, int]:
    """Choose (leaf_size, depth, total_slots) for a requested slot count.

    Leaves hold Theta(log m) slots.  The tree must tile the array exactly
    with 2^depth equal leaves, so leaf sizes are drawn from {2^j} and
    {3 * 2^j}; the second family lets sizes of the form 6 * 2^h (the sizes
    the learned wrapper allocates) tile without padding.  Counts that fit
    neither family are rounded up to the next power-of-two-leaf layout.
    """
    if slot_count < 2:
        raise ValueError("need at least 2 slots")
    min_leaf = max(2, (slot_count - 1).bit_length())  # ceil(log2(slot_count))
    odd, twos = slot_count, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    if odd in (1, 3):
        for j in range(twos + 1):
            leaf = odd << j
            if leaf >= min_leaf:
                return leaf, twos - j, slot_count
    leaf = 1 << (min_leaf - 1).bit_length()  # next power of two >= min_leaf
    depth = 0
    while leaf << depth < slot_count:
        depth += 1
    return leaf, depth, leaf << depth


@cache
def geometry(slot_count: int) -> tuple[int, int, int, int, tuple[float, ...], tuple[float, ...]]:
    """(leaf_size, depth, slot_count, num_leaves, tau, cap) for a requested
    slot count, computed once and shared by every box of that size.

    tau[k] is the density threshold at depth k, cap[k] = tau[k] times the
    slot count of a depth-k node: the element count a node may hold before
    it must push an insert up to its parent.  Both are immutable tuples.
    """
    leaf, depth, total = plan_layout(slot_count)
    tau = tuple(tau_at_depth(k, depth) for k in range(depth + 1))
    cap = tuple(tau[k] * ((1 << depth - k) * leaf) for k in range(depth + 1))
    return leaf, depth, total, 1 << depth, tau, cap


class Pma:
    """The array itself.  Entries are (raw, seq) int pairs; labels are 1-based.

    If `ledger` is given, inserts and init charge it; otherwise an insert
    only returns its movement count (a wrapper that does its own accounting
    passes ledger=None).
    """

    def __init__(self, slot_count: int, ledger: MovementLedger | None = None):
        (self.leaf_size, self.depth, self.slot_count, self.num_leaves,
         self._tau, self._cap) = geometry(slot_count)
        self.ledger = ledger
        self.slots: list[tuple[int, int] | None] = [None] * self.slot_count
        self.count = 0
        # Implicit binary tree in heap order: node 1 is the root, leaves sit
        # at indices [num_leaves, 2 * num_leaves).  Per node we keep the min
        # raw key of the subtree, INF_RAW exactly when the subtree is empty.
        # Keys ascend with the slots, so a leaf's min is its first entry, and
        # a redistribution keeps its node's keys and so the node's min.
        # Densities are counted from the slots, one aligned range per level.
        self._min = [INF_RAW] * (2 * self.num_leaves)

    # ------------------------------------------------------------------
    # public surface

    def density(self) -> float:
        return self.count / self.slot_count

    def labels(self) -> list[tuple[int, int, int]]:
        return [
            (entry[0], entry[1], pos + 1)
            for pos, entry in enumerate(self.slots)
            if entry is not None
        ]

    def init(self, raws, seqs) -> None:
        """Bulk-load sorted keys, evenly spread across the whole array.

        Everything is checked before the first slot is written: CapacityError
        if the keys do not fit, ValueError on a non-empty array, for a `seqs`
        of another length, for a key check_raw rejects, or for unsorted keys.
        """
        c = len(raws)
        if c > self.slot_count:
            raise CapacityError(f"{c} keys into {self.slot_count} slots")
        if self.count:
            raise ValueError("init on a non-empty array")
        if len(seqs) != c:
            raise ValueError(f"{c} keys but {len(seqs)} sequence numbers")
        raws = [check_raw(raw) for raw in raws]
        if any(raws[i] > raws[i + 1] for i in range(c - 1)):
            raise ValueError("init expects sorted keys")
        m = self.slot_count
        for i in range(c):
            self.slots[i * m // c] = (raws[i], seqs[i])
        self.count = c
        self._rebuild_tree(1)
        if self.ledger is not None:
            self.ledger.record_init(c)

    def insert(self, raw: int, seq: int = 0) -> int:
        """Insert a key, returning the movements of already-present elements.

        Raises CapacityError when even the root is above threshold (callers
        that want growth must rebuild into a bigger array themselves), and
        ValueError for a key check_raw rejects.
        """
        raw = check_raw(raw)
        pos, moved = self._insert_impl(raw, seq)
        self._after_insert(pos)
        if self.ledger is not None:
            self.ledger.record_insert(moved)
        return moved

    # ------------------------------------------------------------------
    # searches (heap descents; never scan more than one leaf range)

    def _leftmost_occupied(self) -> int:
        mins, n, v = self._min, self.num_leaves, 1
        while v < n:
            v <<= 1
            if mins[v] == INF_RAW:
                v |= 1
        lo = (v - n) * self.leaf_size
        for pos in range(lo, lo + self.leaf_size):
            if self.slots[pos] is not None:
                return pos
        raise AssertionError("tree minima out of sync: an empty leaf has a finite min")

    def _neighbors(self, raw: int) -> tuple[int, int | None, int | None]:
        """(leaf, sp, ss): the leaf the key goes into and its neighbors' slots.

        sp is the rightmost occupied slot with key <= raw.  Given sp, ss is
        the next occupied slot inside the leaf, or None: a successor past the
        leaf's end places the key exactly as none would.  Without sp, ss is
        the leftmost occupied slot of the array.
        """
        L, slots = self.leaf_size, self.slots
        p = pred_leaf(self._min, raw)
        if p is None:
            if self._min[1] == INF_RAW:
                return 0, None, None
            ss = self._leftmost_occupied()
            return max(ss - 1, 0) // L, None, ss
        sp = p * L + L - 1
        e = slots[sp]
        while e is None or e[0] > raw:
            sp -= 1
            e = slots[sp]
        leaf = min(sp + 1, self.slot_count - 1) // L
        for ss in range(sp + 1, leaf * L + L):
            if slots[ss] is not None:
                return leaf, sp, ss
        return leaf, sp, None

    # ------------------------------------------------------------------
    # insert machinery

    def _insert_impl(self, raw: int, seq: int) -> tuple[int, int]:
        if self.count >= self.slot_count:
            raise CapacityError("array full")
        leaf, sp, ss = self._neighbors(raw)

        # Walk up until a node tolerates one more element (checked against
        # the pre-insert count, so a box sized 6r admits its (3r+1)-th
        # element before the owner decides to rebuild).  Each level doubles
        # the aligned range and counts only the sibling half's slots.
        slots, cap = self.slots, self._cap
        width = self.leaf_size
        lo = leaf * width
        c = width - slots[lo:lo + width].count(None)
        node = self.num_leaves + leaf
        k = self.depth
        while c > cap[k]:
            if node == 1:
                raise CapacityError("root above density threshold")
            if node & 1:
                lo -= width
                c += width - slots[lo:lo + width].count(None)
            else:
                c += width - slots[lo + width:lo + 2 * width].count(None)
            width <<= 1
            node >>= 1
            k -= 1
        moved = 0
        if k != self.depth:
            moved = self._rebalance(node, raw)
            leaf, sp, ss = self._neighbors(raw)

        pos, shifted = self._place_in_leaf(leaf, raw, seq, sp, ss)
        # Shifts stay inside the leaf, so only the new key can lower a min.
        mins = self._min
        v = self.num_leaves + leaf
        while v and raw < mins[v]:
            mins[v] = raw
            v >>= 1
        self.count += 1
        return pos, moved + shifted

    def _place_in_leaf(
        self, leaf: int, raw: int, seq: int, sp: int | None, ss: int | None
    ) -> tuple[int, int]:
        """Put the key into `leaf` between its neighbors; returns (pos, moved)."""
        L = self.leaf_size
        lo, hi = leaf * L, (leaf + 1) * L
        slots = self.slots
        entry = (raw, seq)
        a = lo if sp is None else max(sp + 1, lo)
        b = hi if ss is None else min(ss, hi)
        if a < b:
            # The window strictly between the neighbors is free by
            # construction; hug the predecessor (duplicates land after their
            # equals), or the successor when there is no predecessor.
            pos = a if sp is not None or ss is None else b - 1
            slots[pos] = entry
            return pos, 0
        # No free slot between the neighbors inside this leaf: shift the
        # shorter run by one toward the nearest gap (ties go right).
        f_r = next((p for p in range(b, hi) if slots[p] is None), None)
        f_l = next((p for p in range(min(a, hi) - 1, lo - 1, -1) if slots[p] is None), None)
        cost_r = f_r - b if f_r is not None else None
        cost_l = a - 1 - f_l if f_l is not None else None
        if cost_r is not None and (cost_l is None or cost_r <= cost_l):
            slots[b + 1:f_r + 1] = slots[b:f_r]
            slots[b] = entry
            return b, cost_r
        if cost_l is None:
            raise AssertionError("leaf admitted an insert but has no free slot")
        slots[f_l:a - 1] = slots[f_l + 1:a]
        slots[a - 1] = entry
        return a - 1, cost_l

    def _after_insert(self, pos: int) -> None:
        """Hook for adaptive variants (insert-distribution bookkeeping)."""

    # ------------------------------------------------------------------
    # rebalancing

    def _node_slot_range(self, node: int) -> tuple[int, int]:
        shift = self.depth - (node.bit_length() - 1)
        n, L = self.num_leaves, self.leaf_size
        return ((node << shift) - n) * L, (((node + 1) << shift) - n) * L

    def _layout(
        self,
        entries: list[tuple[int, int]],
        lo: int,
        size: int,
        old_pos: list[int],
        pending_raw: int | None = None,
    ) -> list[int]:
        """Slot positions for `entries` within [lo, lo+size): even spread,
        left-anchored, remainder gaps pushed right.

        `pending_raw` is the key whose insert triggered the redistribution
        (None when rebalancing for other reasons); the even layout ignores
        it, adaptive variants may aim free space at its gap."""
        c = len(entries)
        # lo + i * size // c for i < c, as (lo * c + i * size) // c
        return list(map(floordiv, range(lo * c, (lo + size) * c, size), repeat(c)))

    def _rebalance(self, node: int, pending_raw: int | None = None) -> int:
        """Redistribute the node's range; returns how many elements moved."""
        lo, hi = self._node_slot_range(node)
        seg = self.slots[lo:hi]
        entries = list(filter(None, seg))
        if not entries:
            return 0
        old_pos = list(compress(range(lo, hi), seg))
        new_pos = self._layout(entries, lo, hi - lo, old_pos, pending_raw)
        seg = [None] * (hi - lo)
        for p, entry in zip(new_pos, entries):
            seg[p - lo] = entry
        self.slots[lo:hi] = seg
        self._rebuild_tree(node)
        return sum(map(ne, new_pos, old_pos))

    def _rebuild_tree(self, node: int) -> None:
        """Recompute _min for the subtree under `node` (inclusive).  Nodes
        above it keep theirs: init passes the root, and a redistribution
        leaves the min of its node unchanged."""
        mins, slots, L = self._min, self.slots, self.leaf_size
        shift = self.depth - (node.bit_length() - 1)
        first, end = node << shift, (node + 1) << shift
        lo = (first - self.num_leaves) * L
        for v in range(first, end):
            entry = next(filter(None, slots[lo:lo + L]), None)
            mins[v] = INF_RAW if entry is None else entry[0]
            lo += L
        while first > node:
            first, end = first >> 1, end >> 1
            mins[first:end] = map(min, mins[2 * first:2 * end:2], mins[2 * first + 1:2 * end:2])
