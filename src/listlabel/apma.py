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

A layout that comes out even — equal weights, or a skew the guard rails
cannot honor — is returned as None, `Pma._layout`'s even spread.  The split
and the weighted layouts return lists of offsets, which `Pma` stores and
sets the range's leaf counts and minima from (see `pma`).

Cost of a layout over k leaves and c entries: the Python work is per heated
leaf (`_layout` visits only those, reading each one's run from the count
row), per run of equal weight and per pinned leaf (`_weighted_positions`);
the work per leaf and per entry runs in C (`compress`, `sum` and `map` over
slices and ranges).  So a flat range costs the even spread, plus a constant.
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
        self._since_decay = 0

    def _place(self, t: int, entry: tuple[int, int]) -> tuple[int, int]:
        """Place as `Pma` does, then vote for the leaf the key landed in."""
        pos, moved = super()._place(t, entry)
        self.histogram[pos // self.leaf_size] += 1
        self._since_decay += 1
        if self._since_decay >= self.leaf_size * 4:
            self.histogram = [h >> 1 for h in self.histogram]
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

        # The run of entries each heated leaf held, as (first, last, heat):
        # entries keep their order, so a leaf's run starts after every entry
        # the leaves before it hold.  Only heated leaves are visited, and
        # each holds an entry: a key votes for the leaf it lands in, and
        # entries leave a leaf only in a layout, which zeroes its heat.  The
        # counts of the leaves between heated leaves are summed in C.
        runs = []
        first = prev = 0
        for j in compress(range(k), heat):
            first += sum(cnt[prev:j])
            prev = j + 1
            held = cnt[j]
            runs.append((first, first + held - 1, heat[j]))
            first += held

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
        by one C-speed scan of `weights`.  The Python work is per pin (one
        scan of the runs) and per run (one `map`, where a pinned leaf is a
        run of its own); the work per leaf and per entry is C.
        """
        L = self.leaf_size
        k = size // L
        min_free = L - int(TAU_LEAF * L)

        # The maximal runs of equal weight, as [first open leaf, end, weight].
        bounds = [0, *compress(range(1, k), map(ne, islice(weights, 1, None), weights)), k]
        runs = [[s, e, weights[s]] for s, e in zip(bounds, islice(bounds, 1, None))]

        # Waterfall: pin the lowest open leaf whose proportional share breaks
        # a guard rail (above the leaf size, or below the free-slot floor),
        # then re-split the remainder over the open leaves by weight until
        # the shares stand.  Whether a leaf breaks a rail depends on its
        # weight alone, and each run's pinned leaves are a prefix of it, so
        # the lowest breaker is the head of the first open run that breaks one.
        pins: dict[int, int] = {}
        free_rem = size - c
        w_open = sum(weights)
        while True:
            if w_open == 0 or free_rem < (k - len(pins)) * min_free:
                return None
            for run in runs:
                j, e, w = run
                if j < e and not min_free * w_open <= free_rem * w <= L * w_open:
                    break
            else:
                break
            run[0] += 1
            pins[j] = fix = L if free_rem * w > L * w_open else min_free
            free_rem -= fix
            w_open -= w
        if not pins and len(runs) == 1:
            return None  # one weight over the whole range: the even spread

        # A run of leaves with equal element share n / w_open of slots (an
        # open run of one weight, or a pinned leaf) is one even spread: it
        # takes the entries i with cum <= i * w_open < cum + len * n, at
        # offset s*L + (i*w_open - cum) * L // n.  One map per run.
        cuts = sorted({*bounds, *pins, *[j + 1 for j in pins]}) if pins else bounds
        positions: list[int] = []
        step = w_open * L
        i = cum = 0
        for s, e in zip(cuts, islice(cuts, 1, None)):
            n = (L - pins[s]) * w_open if s in pins else L * w_open - free_rem * weights[s]
            base = s * L * n - cum * L
            cum += (e - s) * n
            end = -(-cum // w_open)  # first entry of the next run
            positions += map(floordiv, range(base + i * step, base + end * step, step),
                             repeat(n))
            i = end
        assert cum == c * w_open
        return positions
