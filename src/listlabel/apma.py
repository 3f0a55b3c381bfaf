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
also fades on its own; the halving visits only the leaves that hold heat,
which `_place` adds to a set as it votes.

A layout that comes out even — equal weights, or a skew the guard rails
cannot honor — is returned as None, `Pma._layout`'s even spread.  The split
and the weighted layouts return lists of offsets, which `Pma` stores and
sets the range's leaf counts and minima from (see `pma`).

Cost of a layout over k leaves and c entries: the split is decided by
C-speed `max`, `sum` and `index` over the heat and count rows.  Only a
range that does not split pays Python work per heated leaf (`_layout`
credits only those, reading each one's run from the count row), and per
run of equal weight and per pin round (`_weighted_positions`, which pins a
run whole); the work per leaf and per entry runs in C (`compress`, `sum`
and `map` over slices and ranges).  So a flat range costs the even spread,
plus a constant.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, islice, repeat
from operator import floordiv, itemgetter, ne

from .core import MovementLedger
from .pma import TAU_LEAF, Pma

__all__ = ["Apma"]


class Apma(Pma):
    """A `Pma` whose `_place` votes and whose `_layout` follows the votes."""

    def __init__(self, slot_count: int, ledger: MovementLedger | None = None):
        super().__init__(slot_count, ledger)
        self.histogram = [0] * self.num_leaves
        # A superset of the leaves that hold heat: a vote adds its leaf, and
        # a decay keeps the leaves still warm.  A layout zeroes leaves
        # without removing them, so a member may hold no heat.
        self._warm: set[int] = set()
        self._since_decay = 0

    def _place(self, t: int, entry: tuple[int, int]) -> tuple[int, int]:
        """Place as `Pma` does, then vote for the leaf the key landed in."""
        pos, moved = super()._place(t, entry)
        heat = self.histogram
        j = pos // self.leaf_size
        heat[j] += 1
        self._warm.add(j)
        self._since_decay += 1
        if self._since_decay >= self.leaf_size * 4:
            for j in self._warm:
                heat[j] >>= 1
            self._warm = {j for j in self._warm if heat[j]}
            self._since_decay = 0
        return pos, moved

    def _layout(self, entries, lo: int, size: int, pending_raw: int) -> list[int] | None:
        """Heat-directed redistribution across the leaves of the range, as
        offsets from lo, or None where it comes out even; reads the range's
        pre-layout counts from `_cnt` (see `Pma._layout`)."""
        c = len(entries)
        L = self.leaf_size
        k = size // L
        first_leaf = lo // L
        heat = self.histogram[first_leaf:first_leaf + k]
        self.histogram[first_leaf:first_leaf + k] = [0] * k
        cnt = self._cnt[first_leaf:first_leaf + k]

        # The hottest leaf, if it holds 3/4 of the heat (then it is the only
        # one at the maximum), and the run of entries it held: entries keep
        # their order, so its run starts after every entry of the leaves
        # before it.
        dom = max(heat)
        if dom and dom * 4 >= sum(heat) * 3:
            j = heat.index(dom)
            first = sum(cnt[:j])
            gap = bisect_right(entries, pending_raw, key=itemgetter(0))
            if first <= gap <= first + cnt[j]:
                # Split at the hot gap: everything below packs left,
                # everything above packs right, slack in between.
                return [*range(gap), *range(size - c + gap, size)]

        # Heat rides with the element the hot gap hugs: credit each heated
        # leaf's heat to the leaf its run's last element reaches under an
        # even spread.  Only heated leaves are visited, and each holds an
        # entry: a key votes for the leaf it lands in, and entries leave a
        # leaf only in a layout, which zeroes its heat.  The counts of the
        # leaves between heated leaves are summed in C.
        credit = [1] * k
        last, prev = -1, 0
        for j in compress(range(k), heat):
            last += sum(cnt[prev:j + 1])
            prev = j + 1
            credit[last * k // c] += heat[j]
        return self._weighted_positions(c, size, credit)

    def _weighted_positions(self, c: int, size: int, weights: list[int]) -> list[int] | None:
        """Offsets for c elements in a range of size slots, free slots per
        leaf proportional to its weight, subject to min_free <= free_j <= L;
        None where that is the even spread i*size // c.

        All arithmetic is exact over the common denominator W = sum of the
        open leaves' weights, which is what makes the uniform case collapse
        to the even layout: with equal weights the per-leaf element share is
        c/k, no leaf is pinned, and the one run's floor positions are the
        even spread exactly, so it is returned as None.  Skews the split
        cannot honor (not enough free slots to keep every open leaf under
        the density threshold, or no weight left to split by) fall back to
        the even layout too.

        Cost: the leaves are handled as maximal runs of equal weight, found
        by one C-speed scan of `weights`, and a run is pinned whole.  The
        Python work is per run (one `map` each, pinned or open) and per pin
        round (one scan of the runs); the work per leaf and per entry is C.
        """
        L = self.leaf_size
        k = size // L
        min_free = L - int(TAU_LEAF * L)

        # The maximal runs of equal weight, as [first, end, weight, pin]: pin
        # is the free slots of each of the run's leaves once it is pinned.
        bounds = [0, *compress(range(1, k), map(ne, islice(weights, 1, None), weights)), k]
        if len(bounds) == 2:
            return None  # one weight over the whole range: the even spread
        runs = [[s, e, weights[s], None] for s, e in zip(bounds, islice(bounds, 1, None))]

        # Waterfall: pin the first open run whose proportional share breaks
        # a guard rail (above the leaf size, or below the free-slot floor),
        # then re-split the remainder over the open runs by weight until the
        # shares stand.  This is the layout of pinning the lowest breaking
        # leaf one at a time: pinning a leaf of weight w at a rail keeps
        # free_rem * w - rail * w_open, so the rest of its run still breaks
        # that rail and any run that starts to break breaks it too, and
        # free_rem - open_leaves * min_free never grows, so an infeasible
        # split stays infeasible.
        free_rem = size - c
        w_open = sum(weights)
        open_leaves = k
        while True:
            if w_open == 0 or free_rem < open_leaves * min_free:
                return None
            for run in runs:
                s, e, w, pin = run
                if pin is None and not min_free * w_open <= free_rem * w <= L * w_open:
                    break
            else:
                break
            run[3] = pin = L if free_rem * w > L * w_open else min_free
            free_rem -= (e - s) * pin
            w_open -= (e - s) * w
            open_leaves -= e - s

        # Every leaf of a run holds n / w_open entries, so the run, pinned
        # or open, is one even spread: it takes the entries i with
        # cum <= i * w_open < cum + (e - s) * n, at offset
        # s*L + (i*w_open - cum) * L // n.  One map per run.
        positions: list[int] = []
        step = w_open * L
        i = cum = 0
        for s, e, w, pin in runs:
            n = L * w_open - free_rem * w if pin is None else (L - pin) * w_open
            base = s * L * n - cum * L
            cum += (e - s) * n
            end = -(-cum // w_open)  # first entry of the next run
            positions += map(floordiv, range(base + i * step, base + end * step, step),
                             repeat(n))
            i = end
        assert cum == c * w_open
        return positions
