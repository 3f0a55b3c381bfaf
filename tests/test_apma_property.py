"""Property test: `Apma._weighted_positions` is the per-entry reference.

`hypothesis` draws the box, the range's leaf count, a reachable entry
count and any weights >= 0, and shrinks a failure to a small case.  The
search is derandomized with a fixed example budget, so every run checks
the same cases.  Skipped where `hypothesis` is not installed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from listlabel.apma import Apma  # noqa: E402
from test_apma import reference_weighted_positions, weighted_offsets  # noqa: E402

# Leaves of 8, 12 and 24 slots, up to 256 of them in one range.
BOXES = {m: Apma(m) for m in (64, 192, 768, 6 << 10)}

# Few distinct values, so runs of equal weight and pins at both rails are
# common, and any weight up to a million.
WEIGHT = st.sampled_from([0, 1, 1, 2, 5, 50, 10**4]) | st.integers(0, 10**6)


@st.composite
def layout_cases(draw):
    """(slot count, c, k, weights): c entries in a range of k leaves that a
    rebalance can lay out, at most the node's density threshold."""
    m = draw(st.sampled_from(sorted(BOXES)))
    depth = draw(st.integers(0, BOXES[m].depth))
    k = 1 << depth
    c = draw(st.integers(1, int(BOXES[m]._cap[BOXES[m].depth - depth])))
    return m, c, k, draw(st.lists(WEIGHT, min_size=k, max_size=k))


@hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
@hypothesis.given(layout_cases())
def test_weighted_layout_matches_the_reference(case):
    m, c, k, weights = case
    a = BOXES[m]
    size = k * a.leaf_size
    assert weighted_offsets(a, c, size, weights) == reference_weighted_positions(
        c, size, weights, a.leaf_size)
