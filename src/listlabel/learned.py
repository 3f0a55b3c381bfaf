"""Prediction-routed list labeling over sorted-array black boxes.

Capacity n (rounded up to a power of two) defines an implicit complete binary
tree: the node at height h with index i owns the 2^h ranks
{2^h * i + 1, ..., 2^h * (i+1)} and six times as many slots.  At any moment a
set of tree nodes whose rank intervals tile {1..n} are *actual*: each actual
owns a black-box array sized at six slots per rank, and the global label of an
element is its label inside the box plus the box's slot offset.  Every
root-to-leaf path crosses exactly one actual.

An insert is routed by its predicted rank, corrected by the actuals that hold
the key's predecessor and successor so stored order is never violated: the
element goes to the predecessor's actual if that lies right of the predicted
one, to the successor's actual if that lies left of it, and to the predicted
actual otherwise.  The keys live in a heap-order min/max tree on the n rank
leaves, laid out and searched like the min tree `Pma` keeps over its slot
leaves: an actual's min and max sit at its first leaf, every other leaf
holds the empty markers.  Routing first climbs from the predicted actual's
subtree root toward the tree root: the right siblings on that path cover
every leaf right of the actual, the left siblings every leaf left of it, so
a right sibling with min <= key or a left sibling with max > key is the only
way an override can arise.  Stored keys ascend with the leaves, so the
nearest non-empty sibling on a side decides that side and the climb stops
once both sides are decided.  If it finds no override, the prediction
stands; otherwise root-to-leaf descents find the neighbors' actuals.

When an actual exceeds half density its parent's whole range is rebuilt into
one fresh box -- possibly cascading upward -- which is where prediction error
turns into movement cost: a merge only happens when some element's
prediction missed by at least half the merged rank width.

The box is the only per-actual object.  The wrapper keeps the height of the
owning actual per leaf and the boxes indexed by their actual's first leaf;
an actual's ranks and slot offset follow from (height, node).  Every box is
built as `factory(slot_count, None)`, so boxes charge nothing and the wrapper
does all the accounting: the moves each box insert returns, and the
relabels of each merge.  `factory` may be a box class such as `Pma` or
`Apma`.  Inspection (`actuals`, `neighbor_actuals`, the merge listener)
returns `Actual(height, node, box)` tuples built on demand.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import CapacityError, MovementLedger, check_raw, clamp
from .pma import INF_RAW, NEG_INF_RAW, Pma, pred_leaf, succ_leaf


class Actual(NamedTuple):
    """A non-empty actual as inspection sees it: tree node and its box."""

    height: int
    node: int  # 0-based index among nodes at this height
    box: Pma


class LearnedLLA:
    """List labeling with predicted ranks and black-box sorted arrays.

    `capacity` is the number of elements the structure must accept; the rank
    tree is sized to the next power of two but predictions clamp to the true
    capacity.  `factory(slot_count, ledger)` builds the black boxes (classic
    PMA by default) and is always passed ledger=None: all movement
    accounting lands in `ledger`, charged by the wrapper.
    """

    def __init__(
        self,
        capacity: int,
        factory: Callable[[int, MovementLedger | None], Pma] = Pma,
        ledger: MovementLedger | None = None,
        merge_listener: Callable[["LearnedLLA", Actual], None] | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.n = 1 << (capacity - 1).bit_length()  # leaves in the rank tree
        self.slot_count = 6 * self.n
        self.factory = factory
        self.ledger = ledger if ledger is not None else MovementLedger()
        self.merge_listener = merge_listener
        self.count = 0
        self.merges = 0
        # Height of the owning actual, per leaf. Initially every leaf is its
        # own actual; merges coarsen whole aligned ranges at once.
        self._heights = [0] * self.n
        # The boxes of non-empty actuals, indexed by their first leaf.
        self._boxes: list[Pma | None] = [None] * self.n
        # Heap-order key minima and maxima over the rank leaves (node 1 is
        # the root, leaf i is node n + i).  A non-empty actual's min and max
        # sit at its first leaf; its other leaves and every empty actual hold
        # INF_RAW / NEG_INF_RAW.  Stored keys never straddle actual boundaries
        # out of order, so pred_leaf and succ_leaf land on the first leaf of
        # the actual holding the predecessor and the successor.
        self._min = [INF_RAW] * (2 * self.n)
        self._max = [NEG_INF_RAW] * (2 * self.n)
        self.predicted_rank: dict[int, int] = {}  # seq -> clamped prediction

    # ------------------------------------------------------------------
    # neighbor and routing queries

    def neighbor_actuals(self, raw: int) -> tuple[Actual | None, Actual | None]:
        """Actuals holding the predecessor (last stored key <= raw) and the
        successor (first stored key > raw) of `raw`, None when the neighbor
        does not exist."""
        p = pred_leaf(self._min, raw)
        s = succ_leaf(self._max, raw)
        return (None if p is None else self._actual(p),
                None if s is None else self._actual(s))

    def route(self, raw: int, predicted_rank: int) -> tuple[int, int]:
        """Pick the destination actual for a key, as (height, node index).

        The predicted actual wins unless the predecessor lies right of it
        (insert there) or the successor lies left of it (insert there) —
        otherwise sorted order inside the boxes would break.
        """
        leaf = clamp(predicted_rank, 1, self.capacity) - 1
        h = self._heights[leaf]
        first = leaf >> h << h
        mins, maxs = self._min, self._max
        # The climb (see the module docstring).  The actual's own keys decide
        # a side first: when it holds keys on both sides of raw, it holds
        # both neighbors and the prediction stands at once.
        v = self.n + first
        left = mins[v] > raw  # the successor may lie left of the actual
        right = maxs[v] <= raw  # the predecessor may lie right of it
        u = v >> h
        while (left or right) and u > 1:
            if u & 1:
                if left and maxs[u - 1] != NEG_INF_RAW:
                    if maxs[u - 1] > raw:
                        break
                    left = False
            elif right and mins[u + 1] != INF_RAW:
                if mins[u + 1] <= raw:
                    break
                right = False
            u >>= 1
        else:
            return h, leaf >> h
        p = pred_leaf(mins, raw)
        if p is not None and p > first:
            hp = self._heights[p]
            return hp, p >> hp
        s = succ_leaf(maxs, raw)
        if s is not None and s < first:
            hs = self._heights[s]
            return hs, s >> hs
        return h, leaf >> h

    # ------------------------------------------------------------------
    # mutation

    def insert(self, raw: int, seq: int, predicted_rank: int) -> int:
        """Insert a key with its predicted rank; returns movements charged.

        Raises ValueError, before anything changes, for a key check_raw
        rejects or a `seq` already inserted.
        """
        raw = check_raw(raw)
        if seq in self.predicted_rank:
            raise ValueError(f"seq {seq} already inserted")
        if self.count >= self.capacity:
            raise CapacityError(f"structure already holds {self.capacity} elements")
        before = self.ledger.total_movements
        h, node = self.route(raw, predicted_rank)
        first = node << h
        box = self._boxes[first]
        if box is None:
            box = self._boxes[first] = self.factory(6 << h, None)
        self.ledger.record_insert(box.insert(raw, seq))
        self.count += 1
        self.predicted_rank[seq] = clamp(predicted_rank, 1, self.capacity)
        # Push the new key up the tree; an ancestor that does not change
        # proves every higher one unchanged too.
        mins, maxs = self._min, self._max
        v = self.n + first
        while v and raw < mins[v]:
            mins[v] = raw
            v >>= 1
        v = self.n + first
        while v and raw > maxs[v]:
            maxs[v] = raw
            v >>= 1
        # Half-density rule: a box sized 6r rebuilds into its parent once it
        # holds 3r+1 elements. The rebuild can push the parent over in turn.
        while box.count > 3 << h:
            first = self.merge_parent(first)
            h += 1
            box = self._boxes[first]
        return self.ledger.total_movements - before

    def merge_parent(self, first: int) -> int:
        """Rebuild the parent of the actual whose first leaf is `first` into
        a single fresh actual; returns the parent's first leaf.

        Gathers every element stored under the parent (their concatenation in
        actual order is already sorted), bulk-loads a new box, and charges one
        movement per element whose global label actually changed.
        """
        heights, boxes = self._heights, self._boxes
        ph = heights[first] + 1
        if 1 << ph > self.n:
            raise AssertionError("root actual exceeded half density")
        first = first >> ph << ph
        end = first + (1 << ph)
        # An actual at first leaf f owns the slots after offset 6f.
        children = []
        raws: list[int] = []
        seqs: list[int] = []
        old_globals: list[int] = []
        leaf = first
        while leaf < end:
            child = boxes[leaf]
            if child is not None:
                children.append(leaf)
                off = 6 * leaf
                for craw, cseq, clabel in child.labels():
                    raws.append(craw)
                    seqs.append(cseq)
                    old_globals.append(off + clabel)
            leaf += 1 << heights[leaf]
        box = self.factory(6 << ph, None)
        box.init(raws, seqs)
        poff = 6 * first
        moved = 0
        for old, (_r, _s, label) in zip(old_globals, box.labels()):
            if old != poff + label:
                moved += 1
        self.ledger.record_moves(moved)

        # Below the parent's subtree root only the children's paths held
        # keys: clear them, then write the parent's min and max down its
        # leftmost path.  The subtree root, and so every node above it, keeps
        # the same min and max.
        mins, maxs = self._min, self._max
        top = (self.n + first) >> ph
        for child in children:
            boxes[child] = None
            v = self.n + child
            while v > top:
                mins[v] = INF_RAW
                maxs[v] = NEG_INF_RAW
                v >>= 1
        v = self.n + first
        while v > top:
            mins[v] = raws[0]
            maxs[v] = raws[-1]
            v >>= 1
        heights[first:end] = [ph] * (end - first)
        boxes[first] = box
        self.merges += 1
        if self.merge_listener is not None:
            self.merge_listener(self, Actual(ph, first >> ph, box))
        return first

    # ------------------------------------------------------------------
    # inspection

    def global_labels(self) -> list[tuple[int, int, int]]:
        """Every element as (raw, seq, global label), in label order."""
        out = []
        for first, box in enumerate(self._boxes):
            if box is not None:
                off = 6 * first
                for raw, seq, label in box.labels():
                    out.append((raw, seq, off + label))
        return out

    def _actual(self, first: int) -> Actual:
        h = self._heights[first]
        return Actual(h, first >> h, self._boxes[first])

    def actuals(self) -> list[Actual]:
        """Non-empty actuals in rank order (empty ones are implicit)."""
        return [self._actual(first) for first, box in enumerate(self._boxes)
                if box is not None]

    def partition(self) -> list[tuple[int, int]]:
        """The full actual partition as (height, node) pairs, left to right,
        including empty actuals."""
        out = []
        leaf = 0
        while leaf < self.n:
            h = self._heights[leaf]
            out.append((h, leaf >> h))
            leaf += 1 << h
        return out


def witness_error_check(
    lla: LearnedLLA,
    merged: Actual,
    true_ranks: dict[int, int],
) -> bool:
    """Verify the merge witness: some element of a merged actual P carries a
    prediction error of at least |P|/2 ranks.

    `true_ranks` maps seq -> final rank in the fully-loaded structure. Merges
    are only ever triggered by misrouted elements, so on distinct keys this
    must hold for every merge; it is the per-merge certificate that total
    cost stays bounded by total prediction error.
    """
    half_width = (1 << merged.height) / 2
    for _raw, seq, _label in merged.box.labels():
        predicted = lla.predicted_rank.get(seq)
        actual = true_ranks.get(seq)
        if predicted is None or actual is None:
            continue
        if abs(predicted - actual) >= half_width:
            return True
    return False
