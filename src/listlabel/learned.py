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
actual otherwise.  Routing only ever names an actual, never a leaf, so the
keys live in a heap-order min/max tree on the n rank leaves that is exact
only at and above actual roots: every such node holds the min and max of the
keys stored under it (core's INF_RAW and NEG_INF_RAW, outside every key,
if there are none), and nodes below a root keep stale values.  The trees
are laid out in heap order and searched by one descent, `descend`, and
a descent that reaches an actual's root stays inside that actual whatever
it finds below.  Routing first climbs from the predicted
actual's root toward the tree root.  The siblings on that path are never
below another actual's root, since actuals are aligned tree nodes: the right
siblings cover every leaf right of the actual, the left siblings every leaf
left of it.  Stored keys ascend with the leaves, so the nearest non-empty
sibling on a side decides that side, and the climb stops once both sides
are decided.  A right sibling with min <= key means the predecessor lies
right of the actual, and a left sibling with max > key means the successor
lies left of it; both cannot hold at once, so the sibling that stops the
climb names the override and a single descent finds its actual.

When an actual exceeds half density its parent's whole range is rebuilt into
one fresh box -- possibly cascading upward -- which is where prediction error
turns into movement cost: a merge only happens when some element's
prediction missed by at least half the merged rank width.  A merge is one
even spread of the parent's current slots: it writes each child's slot window
at its own offset in one fresh list, the parent's window as it stands, and
`_fill` moves those very tuples into the parent's fresh box, counting a
relabel for each entry whose index changed.  The boxes it drops are only
read.  The parent's root already holds the min and max of everything it
gathers, so a merge leaves the trees alone.

An actual that holds one key has no box: the key stays bare, its own
`(raw, seq)` tuple, at slot 0 of the box it would have had, and every
reader sees it through `_slots` as that box's one-slot window `(key,)`.
Otherwise the box is the only per-actual object, and it holds at least two
keys.  The wrapper keeps the height of the owning actual per leaf and,
indexed by the actual's first leaf, its box or lone key; an actual's ranks
and slot offset follow from (height, node).  A box is built as
`factory(slot_count, None)` by a merge, or for a lone key when its actual
receives a second key; the lone key is then replayed through the box's
insert, so the box, its slots and its counts end exactly as if it had held
the key from the start.  Boxes charge nothing and the wrapper does all the
accounting: the moves each box insert returns, and the relabels of each
merge.  `insert` returns their sum, the relabels of elements already
stored, and charges `ledger` the same, plus the new element's placement
unless the ledger excludes first placements.  A merge fills its box with
`_fill`, the even layout whatever the box's kind, and takes its relabels
from it, so `factory` must build a `Pma` or a subclass such as `Apma`.
Inspection (`actuals`, the merge listener) is a snapshot: `_actual` builds
each `Actual(height, node, entries)`, whose entries are a fresh list, and
it builds and changes nothing else.

The wrapper keeps no predictions: a prediction only routes its insert, and
the set of inserted seqs exists only to reject a reused one.
`witness_error_check` takes the predictions from its caller, who holds them
anyway.
"""

from __future__ import annotations

from itertools import compress
from operator import add, index
from typing import Callable, NamedTuple, Sequence

from .core import INF_RAW, NEG_INF_RAW, CapacityError, MovementLedger, check_raw, clamp
from .pma import Pma

__all__ = ["LearnedLLA", "witness_error_check"]


def descend(tree: list[int], raw: int, side: int) -> int:
    """Descend the heap-order tree `tree` (node 1 is the root, the leaves sit
    at [len // 2, len)) from its root, going right at each node v whose
    child 2v + side holds a value <= raw; returns the leaf reached.

    Over the tree of subtree key minima (INF_RAW where a subtree is empty)
    with side 1, that is the rightmost leaf holding a key <= raw; over the
    tree of maxima (NEG_INF_RAW where empty) with side 0, the leftmost leaf
    holding a key > raw.  That leaf must exist."""
    n = len(tree) >> 1
    v = 1
    while v < n:
        v <<= 1
        if tree[v | side] <= raw:
            v |= 1
    return v - n


def _slots(held: Pma | tuple[int, int]) -> Sequence[tuple[int, int] | None]:
    """The slot window of a held actual: a box's `slots`, or a lone key's
    one-slot window `(key,)`, which is slot 0 of the box it would have had."""
    return (held,) if held.__class__ is tuple else held.slots


class Actual(NamedTuple):
    """A non-empty actual as inspection sees it: its tree node and a new
    list of its `(raw, seq)` entries in order, which no later insert or
    merge changes."""

    height: int
    node: int  # 0-based index among nodes at this height
    entries: list[tuple[int, int]]


class LearnedLLA:
    """List labeling with predicted ranks and black-box sorted arrays.

    `capacity` (an int) is the number of elements the structure must accept;
    the rank tree is sized to the next power of two but predictions clamp to
    the true capacity.  `factory(slot_count, ledger)` builds the black boxes
    (classic PMA by default) and is always passed ledger=None: all movement
    accounting lands in `ledger`, charged by the wrapper.  An actual's first
    key is kept bare; its box is built when a second key arrives, or by a
    merge.  Inspection builds and changes nothing.
    """

    def __init__(
        self,
        capacity: int,
        factory: Callable[[int, MovementLedger | None], Pma] = Pma,
        ledger: MovementLedger | None = None,
        merge_listener: Callable[["LearnedLLA", Actual], None] | None = None,
    ):
        capacity = index(capacity)
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.n = 1 << (capacity - 1).bit_length()  # leaves in the rank tree
        self.factory = factory
        self.ledger = ledger if ledger is not None else MovementLedger()
        self.merge_listener = merge_listener
        self.count = 0
        self.merges = 0
        # Height of the owning actual, per leaf. Initially every leaf is its
        # own actual; merges coarsen whole aligned ranges at once.
        self._heights = [0] * self.n
        # The boxes of non-empty actuals, indexed by their first leaf; an
        # actual that holds one key holds it bare, as its (raw, seq) tuple.
        self._boxes: list[Pma | tuple[int, int] | None] = [None] * self.n
        # Heap-order key minima and maxima over the rank leaves (node 1 is
        # the root, leaf i is node n + i; actual (h, node) is rooted at
        # (n >> h) + node).  Every node at or above an actual's root holds
        # the min and max of the keys under it, INF_RAW / NEG_INF_RAW when
        # there are none; nodes below a root are stale, yet `descend` still
        # ends in the actual holding the neighbor it seeks.
        self._min = [INF_RAW] * (2 * self.n)
        self._max = [NEG_INF_RAW] * (2 * self.n)
        self._seqs: set[int] = set()  # every seq inserted, to reject reuse

    # ------------------------------------------------------------------
    # routing

    def route(self, raw: int, predicted_rank: int) -> tuple[int, int]:
        """Pick the destination actual for a key, as (height, node index).

        The predicted actual wins unless the predecessor lies right of it
        (insert there) or the successor lies left of it (insert there) —
        otherwise sorted order inside the boxes would break.
        `predicted_rank` is any integer `operator.index` takes (numpy's
        too), clamped to [1, capacity]; anything else is a ValueError.
        """
        try:
            leaf = clamp(index(predicted_rank), 1, self.capacity) - 1
        except TypeError:
            raise ValueError(
                f"predicted rank must be an integer, not {predicted_rank!r}") from None
        h = self._heights[leaf]
        mins, maxs = self._min, self._max
        # The climb (see the module docstring).  The actual's own keys decide
        # a side first: when it holds keys on both sides of raw, it holds
        # both neighbors and the prediction stands at once.
        u = (self.n >> h) + (leaf >> h)
        left = mins[u] > raw  # the successor may lie left of the actual
        right = maxs[u] <= raw  # the predecessor may lie right of it
        while (left or right) and u > 1:
            if u & 1:
                if left and maxs[u - 1] != NEG_INF_RAW:
                    if maxs[u - 1] > raw:
                        leaf = descend(maxs, raw, 0)
                        break
                    left = False
            elif right and mins[u + 1] != INF_RAW:
                if mins[u + 1] <= raw:
                    leaf = descend(mins, raw, 1)
                    break
                right = False
            u >>= 1
        h = self._heights[leaf]
        return h, leaf >> h

    # ------------------------------------------------------------------
    # mutation

    def insert(self, raw: int, seq: int, predicted_rank: int) -> int:
        """Insert a key with its predicted rank; returns how many elements
        already stored got a new label: the box insert's moves plus every
        merge's relabels, 0 for a key kept bare.  The new element's own
        placement is never in it, whatever `ledger` counts.

        `seq` is an opaque payload that names the element: it is never
        compared, so placement depends on keys and predictions alone.
        Raises ValueError, before anything changes, for a key check_raw
        rejects, a `seq` already inserted or a predicted rank that `route`
        rejects.
        """
        raw = check_raw(raw)
        if seq in self._seqs:
            raise ValueError(f"seq {seq} already inserted")
        if self.count >= self.capacity:
            raise CapacityError(f"structure already holds {self.capacity} elements")
        h, node = self.route(raw, predicted_rank)
        self.count += 1
        self._seqs.add(seq)
        # Push the new key up from the actual's root; an ancestor that does
        # not change proves every higher one unchanged too.
        mins, maxs = self._min, self._max
        root = (self.n >> h) + node
        v = root
        while v and raw < mins[v]:
            mins[v] = raw
            v >>= 1
        v = root
        while v and raw > maxs[v]:
            maxs[v] = raw
            v >>= 1
        first = node << h
        box = self._boxes[first]
        if box is None:
            # A lone key stays bare, at slot 0 of the box it would have had.
            self._boxes[first] = (raw, seq)
            self.ledger.record_insert(0)
            return 0
        if box.__class__ is tuple:
            # The second key: build the box and replay the lone key into it,
            # so it ends as it would have, had it been built for that key.
            held, box = box, self.factory(6 << h, None)
            box.insert(*held)
            self._boxes[first] = box
        moved = box.insert(raw, seq)
        self.ledger.record_insert(moved)
        # Half-density rule: a box sized 6r rebuilds into its parent once it
        # holds 3r+1 elements. The rebuild can push the parent over in turn.
        while box.count > 3 << h:
            first, relabeled = self.merge_parent(first)
            moved += relabeled
            h += 1
            box = self._boxes[first]
        return moved

    def merge_parent(self, first: int) -> tuple[int, int]:
        """Rebuild the parent of the actual whose first leaf is `first` into
        a single fresh actual; returns the parent's first leaf and the
        merge's relabels, which it has already charged to `ledger`.

        The children are the non-empty entries of `_boxes[first:end]`, each
        at its first leaf; their concatenation in actual order is sorted and
        was checked at insert.  Each child's slot window is written at its
        own offset of one fresh list, the parent's window as it stands: each
        non-empty child's `_slots`, and None for every slot of an empty
        child.  `_fill` spreads those very tuples evenly over a new box and
        returns how many changed index, which is how many global labels
        changed; that is the charge.  No child box is changed.
        The parent's root in the min/max trees already covers every key.
        """
        heights, boxes = self._heights, self._boxes
        ph = heights[first] + 1
        if 1 << ph > self.n:
            raise AssertionError("root actual exceeded half density")
        first = first >> ph << ph
        end = first + (1 << ph)
        box = self.factory(6 << ph, None)
        window: list[tuple[int, int] | None] = [None] * (6 << ph)
        # Every box and lone key is truthy (a box is never empty and defines
        # no __len__, a lone key is a 2-tuple), so this keeps exactly the
        # first leaves of the non-empty children.  Leaf f's window starts at
        # slot 6 * (f - first) of the parent's.
        for leaf in compress(range(first, end), boxes[first:end]):
            w = _slots(boxes[leaf])
            off = 6 * (leaf - first)
            window[off:off + len(w)] = w
        moved = box._fill(window)
        self.ledger.record_moves(moved)
        heights[first:end] = [ph] * (end - first)
        boxes[first:end] = [box] + [None] * (end - first - 1)
        self.merges += 1
        if self.merge_listener is not None:
            self.merge_listener(self, self._actual(first))
        return first, moved

    # ------------------------------------------------------------------
    # inspection

    def global_labels(self) -> list[tuple[int, int, int]]:
        """Every element as (raw, seq, global label), in label order.  The
        actual at first leaf f owns the slots after offset 6f, so its slot p
        (0-based) has global label 6f + p + 1."""
        out: list[tuple[int, int, int]] = []
        for first in compress(range(self.n), self._boxes):
            slots = _slots(self._boxes[first])
            off = 6 * first + 1
            # (raw, seq) + (label,), paired off in C
            out += map(add, filter(None, slots),
                       zip(compress(range(off, off + len(slots)), slots)))
        return out

    def actuals(self) -> list[Actual]:
        """Non-empty actuals in rank order (empty ones are implicit), each
        with a new list of its entries."""
        return [self._actual(first) for first in compress(range(self.n), self._boxes)]

    def _actual(self, first: int) -> Actual:
        """The snapshot of the non-empty actual whose first leaf is `first`."""
        h = self._heights[first]
        return Actual(h, first >> h, [*filter(None, _slots(self._boxes[first]))])


def witness_error_check(merged: Actual, predicted, true_ranks) -> bool:
    """Verify the merge witness: some entry of a merged actual P, the
    `Actual` a merge listener is given, carries a prediction error of at
    least |P|/2 ranks.

    `predicted` and `true_ranks` are indexed by seq (a list or a dict): the
    rank each element was routed by (in [1, capacity], where `route` clamps
    it), and its final rank in the fully-loaded structure.  Merges are only
    ever triggered by misrouted elements, so on distinct keys this must hold
    for every merge; it is the per-merge certificate that total cost stays
    bounded by total prediction error.
    """
    half_width = (1 << merged.height) / 2
    return any(abs(predicted[seq] - true_ranks[seq]) >= half_width
               for _raw, seq in merged.entries)
