"""Adaptive packed-memory array: skews free space toward insertion hot spots.

The classic PMA spreads elements evenly on rebalance, which is exactly wrong
for skewed workloads (sequential runs, hammered gaps): the hot leaf fills
right back up.  This variant keeps a per-leaf histogram of recent insert
positions, one vote per key for the leaf it lands in, taken at placement
(`_place`), and uses it two ways when a range is redistributed (`_layout`):

* If the heat is concentrated (one leaf holds at least 3/4 of it) and the
  insert that triggered the redistribution lands at that leaf's gap, the
  range is split at the gap: elements below it pack to the left edge,
  elements above it pack to the right edge, and every free slot sits exactly
  where the next inserts will land.  The gap is found by key alone, after
  every stored equal of the pending key, where `Pma` places duplicates; the
  `seq` payload is never compared.  The split is idempotent — redoing it on
  a grown prefix moves only what arrived since — which is what makes
  one-sided workloads nearly free.

* Otherwise free slots are handed out per leaf proportionally to
  (1 + leaf count), with two guard rails: no leaf may receive more free
  slots than it has, and no leaf may be packed above the leaf density
  threshold (a leaf handed out at density 1.0 would force a walk back up on
  the very next insert that lands in it).  Within those bounds the split is
  exact integer arithmetic over the weights of the leaves no rail pins, so
  equal weights degenerate to the even layout slot for slot — an adaptive
  array with no recorded heat behaves exactly like the classic one.

A redistribution *consumes* the heat it acted on — the covered histogram
entries reset to zero — so every insert votes in exactly one layout
decision; stale votes would aim free slots at gaps the workload has already
left behind.  The histogram halves every `leaf_size * 4` inserts so heat
also fades on its own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import floordiv, itemgetter

from .core import MovementLedger
from .pma import TAU_LEAF, Pma, even_layout


class Apma(Pma):
    def __init__(self, slot_count: int, ledger: MovementLedger | None = None):
        super().__init__(slot_count, ledger)
        self.histogram = [0] * self.num_leaves
        self.decay_period = self.leaf_size * 4
        self._since_decay = 0

    def _place(self, t: int, entry: tuple[int, int]) -> tuple[int, int]:
        """Place as `Pma` does, then vote for the leaf the key landed in."""
        pos, moved = super()._place(t, entry)
        self.histogram[pos // self.leaf_size] += 1
        self._since_decay += 1
        if self._since_decay >= self.decay_period:
            self.histogram = [h >> 1 for h in self.histogram]
            self._since_decay = 0
        return pos, moved

    def _layout(self, entries, lo: int, size: int, old, pending_raw: int) -> list[int]:
        """Heat-directed redistribution across the leaves of the range, as
        offsets from lo; `old` is the range's slot segment before it (see
        `Pma._layout`)."""
        c = len(entries)
        L = self.leaf_size
        k = size // L
        first_leaf = lo // L
        heat = self.histogram[first_leaf:first_leaf + k]
        self.histogram[first_leaf:first_leaf + k] = [0] * k

        # The run of entries each heated leaf held, as (first, last, heat):
        # the old offsets ascend, so a leaf's entries are one slice of them.
        old_off = list(compress(range(size), old))
        runs = []
        for j, h in enumerate(heat):
            if h:
                first = bisect_left(old_off, j * L)
                end = bisect_left(old_off, j * L + L, first)
                if first < end:
                    runs.append((first, end - 1, h))

        if runs:
            first, last, dom = max(runs, key=itemgetter(2))
            if dom * 4 >= sum(map(itemgetter(2), runs)) * 3:
                gap = bisect_right(entries, pending_raw, key=itemgetter(0))
                if first <= gap <= last + 1:
                    # Split at the hot gap: everything below packs left,
                    # everything above packs right, slack in between.
                    return [*range(gap), *range(size - c + gap, size)]

        credit = [1] * k
        for _, last, h in runs:
            # Heat rides with the element the hot gap hugs: credit the leaf
            # the run's last element reaches under an even spread.
            credit[last * k // c] += h
        return self._weighted_positions(c, size, credit)

    def _weighted_positions(self, c: int, size: int, weights: list[int]) -> list[int]:
        """Offsets for c elements in a range of size slots, free slots per
        leaf proportional to its weight, subject to min_free <= free_j <= L.

        All arithmetic is exact over the common denominator W = sum of the
        open leaves' weights, which is what makes the uniform case collapse
        to the even layout: with equal weights the per-leaf element share is
        c/k and the floor positions reproduce `even_layout` exactly.  Skews
        the split cannot honor (not enough free slots to keep every open leaf
        under the density threshold, or no weight left to split by) fall
        back to the even layout.
        """
        L = self.leaf_size
        k = size // L
        min_free = L - int(TAU_LEAF * L)

        # Waterfall: pin leaves whose proportional share breaks a guard rail
        # (above the leaf size, or below the free-slot floor), then re-split
        # the remainder over the open leaves by weight until the shares stand.
        fixed: list[int | None] = [None] * k
        free_rem = size - c
        while True:
            open_leaves = [j for j in range(k) if fixed[j] is None]
            w_open = sum(weights[j] for j in open_leaves)
            if w_open == 0 or free_rem < len(open_leaves) * min_free:
                return even_layout(size, c)
            for j in open_leaves:
                w = weights[j]
                if free_rem * w > L * w_open:
                    fixed[j] = L
                elif free_rem * w < min_free * w_open:
                    fixed[j] = min_free
                else:
                    continue
                free_rem -= fixed[j]
                break  # shares shift; recompute before judging the rest
            else:
                break

        # Element share of leaf j, as a fraction num_j / w_open of slots.
        nums = [
            (L - fixed[j]) * w_open if fixed[j] is not None
            else L * w_open - free_rem * weights[j]
            for j in range(k)
        ]
        assert sum(nums) == c * w_open

        # Leaf j takes the entries i with cum <= i * w_open < cum + nums[j],
        # at offset j*L + (i*w_open - cum) * L // nums[j]: even_layout's
        # formula over the leaf, one map per leaf.
        positions: list[int] = []
        step = w_open * L
        i = cum = 0
        for j, n_j in enumerate(nums):
            base = j * L * n_j - cum * L
            cum += n_j
            end = -(-cum // w_open)  # first entry of the next leaf
            positions += map(floordiv, range(base + i * step, base + end * step, step),
                             repeat(n_j))
            i = end
        return positions
