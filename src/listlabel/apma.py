"""Adaptive packed-memory array: skews free space toward insertion hot spots.

The classic PMA spreads elements evenly on rebalance, which is exactly wrong
for skewed workloads (sequential runs, hammered gaps): the hot leaf fills
right back up.  This variant keeps a per-leaf histogram of recent insert
positions and uses it two ways when a range is redistributed:

* If the heat is concentrated (one leaf holds at least 3/4 of it) and the
  insert that triggered the redistribution lands at that leaf's gap, the
  range is split at the gap: elements below it pack to the left edge,
  elements above it pack to the right edge, and every free slot sits exactly
  where the next inserts will land.  The split is idempotent — redoing it on
  a grown prefix moves only what arrived since — which is what makes
  one-sided workloads nearly free.

* Otherwise free slots are handed out per leaf proportionally to
  (1 + leaf count), with two guard rails: no leaf may receive more free
  slots than it has, and no leaf may be packed above the leaf density
  threshold (a leaf handed out at density 1.0 would force a walk back up on
  the very next insert that lands in it).  Within those bounds the split is
  exact integer arithmetic over the sum of active weights, so equal weights
  degenerate to the even layout slot for slot — an adaptive array with no
  recorded heat behaves exactly like the classic one.

A redistribution *consumes* the heat it acted on — the covered histogram
entries reset to zero — so every insert votes in exactly one layout
decision; stale votes would aim free slots at gaps the workload has already
left behind.  The histogram halves every `leaf_size * 4` inserts so heat
also fades on its own.
"""

from __future__ import annotations

from bisect import bisect_right

from .core import MovementLedger
from .pma import Pma


class Apma(Pma):
    def __init__(self, slot_count: int, ledger: MovementLedger | None = None):
        super().__init__(slot_count, ledger)
        self.histogram = [0] * self.num_leaves
        self.decay_period = self.leaf_size * 4
        self._since_decay = 0

    def _after_insert(self, pos: int) -> None:
        self.histogram[pos // self.leaf_size] += 1
        self._since_decay += 1
        if self._since_decay >= self.decay_period:
            self.histogram = [h >> 1 for h in self.histogram]
            self._since_decay = 0

    def _layout(self, entries, lo: int, size: int, first_leaf: int, old_pos,
                pending_raw: int | None = None) -> list[int]:
        """Heat-directed redistribution across the leaves of the range."""
        c = len(entries)
        if c == 0:
            return []
        L = self.leaf_size
        k = size // L

        # Group the gathered elements by the old leaf they came from, keeping
        # that leaf's heat.  old_pos is ascending, so each group is a run.
        carried: list[tuple[int, int, int]] = []  # (first_idx, last_idx, heat)
        i = 0
        while i < c:
            leaf = (old_pos[i] - lo) // L
            j = i
            while j < c and (old_pos[j] - lo) // L == leaf:
                j += 1
            heat = self.histogram[first_leaf + leaf]
            if heat:
                carried.append((i, j - 1, heat))
            i = j

        positions = None
        if pending_raw is not None and carried:
            first, last, dom = max(carried, key=lambda run: run[2])
            if dom * 4 >= sum(run[2] for run in carried) * 3:
                gap = bisect_right(entries, (pending_raw, 2**63))
                if first <= gap <= last + 1:
                    # Split at the hot gap: everything below packs left,
                    # everything above packs right, slack in between.
                    positions = [lo + i for i in range(gap)] + [
                        lo + size - c + i for i in range(gap, c)
                    ]

        if positions is None:
            credit = [0] * k
            for _, last, heat in carried:
                # Heat rides with the element the hot gap hugs: credit the
                # leaf the run's last element reaches under an even spread.
                credit[last * k // c] += heat
            positions = self._weighted_positions(c, lo, size, [1 + w for w in credit])

        for j in range(k):
            self.histogram[first_leaf + j] = 0
        return positions

    def _weighted_positions(self, c: int, lo: int, size: int, weights: list[int]) -> list[int]:
        """Slot positions for c elements in [lo, lo+size), free slots per leaf
        proportional to its weight, subject to min_free <= free_j <= L.

        All arithmetic is exact over the common denominator W = sum of active
        weights, which is what makes the uniform case collapse to the even
        layout: with equal weights the per-leaf element share is c/k and the
        floor positions reproduce `lo + i*size//c` exactly.  Skews the split
        cannot honor (not enough free slots to keep every leaf under the
        density threshold) fall back to the even layout.
        """
        L = self.leaf_size
        k = size // L
        free = size - c
        min_free = L - int(self._tau[self.depth] * L)

        def even() -> list[int]:
            return [lo + i * size // c for i in range(c)]

        if k == 1 or free < k * min_free:
            return even()

        # Waterfall: pin leaves whose proportional share breaks a guard rail
        # (above the leaf size, or below the free-slot floor), then re-split
        # the remainder over the rest by weight until the shares stand.
        fixed: list[int | None] = [None] * k
        free_rem = free
        active = k
        while True:
            if free_rem < active * min_free:
                return even()
            w_active = sum(w for j, w in enumerate(weights) if fixed[j] is None)
            if w_active == 0:
                break
            pinned = False
            for j, w in enumerate(weights):
                if fixed[j] is not None:
                    continue
                if free_rem * w > L * w_active:
                    fixed[j] = L
                elif free_rem * w < min_free * w_active:
                    fixed[j] = min_free
                else:
                    continue
                free_rem -= fixed[j]
                active -= 1
                pinned = True
                break  # shares shift; recompute before judging the rest
            if not pinned:
                break
        if w_active == 0:
            return even()

        # Element share of leaf j, as a fraction num_j / w_active of slots.
        nums = [
            (L - fixed[j]) * w_active if fixed[j] is not None
            else L * w_active - free_rem * weights[j]
            for j in range(k)
        ]
        assert sum(nums) == c * w_active

        positions = []
        j = 0
        cum = 0  # prefix sum of nums: start of leaf j's element interval
        for i in range(c):
            x = i * w_active
            while x >= cum + nums[j]:
                cum += nums[j]
                j += 1
            positions.append(lo + j * L + (x - cum) * L // nums[j])
        return positions
