#!/usr/bin/env python3
"""Anatomy of the rank-routed array at desk scale.

Eight elements of capacity, so the whole slot layout fits on screen.
Keys arrive with predicted final ranks; each rank owns a six-slot leaf
box.  Good predictions keep every element in its own box and nothing
ever moves.  Then we deliberately pile four keys onto one predicted
rank and watch the overflowing region coarsen: sibling boxes merge into
a parent twice as wide, and only the elements whose global slot
actually changed get charged.
"""

from listlabel import LearnedLLA


def show(lla, relabels):
    cells = {label: raw for raw, _seq, label in lla.global_labels()}
    row = " ".join(
        f"{cells[s] // 100:>3}" if s in cells else "  ." for s in range(1, 49)
    )
    boxes = " ".join(
        f"[ranks {(rec.node << rec.height) + 1}-{(rec.node + 1) << rec.height}: "
        f"{rec.box.count} elems]"
        for rec in lla.actuals()
    )
    print(f"  slots: {row}")
    print(f"  boxes: {boxes}")
    print(f"  total relabels so far: {relabels}")


def main():
    print(__doc__)

    print("perfect predictions: key 100*r predicted at rank r")
    lla = LearnedLLA(8)
    relabels = sum(lla.insert(100 * r, seq=r, predicted_rank=r) for r in (1, 2, 3, 4))
    show(lla, relabels)

    print("\nnow four keys all claiming rank 7")
    for i, raw in enumerate((720, 740, 760, 780)):
        relabels += lla.insert(raw, seq=10 + i, predicted_rank=7)
        width = max(1 << rec.height for rec in lla.actuals())
        print(f"  after {raw}: widest box covers {width} rank(s)")
    show(lla, relabels)

    print(
        "\nThe fourth claimant would push its box past half full, so the"
        "\nbox merged with its sibling into a twelve-slot parent.  At least"
        "\none element in any merged region must have missed its true rank"
        "\nby half the region's width -- crowding is always the predictor's"
        "\nfault, and the structure only coarsens where predictions failed."
    )


if __name__ == "__main__":
    main()
