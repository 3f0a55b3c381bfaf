#!/usr/bin/env python3
"""How much does rebalancing style matter before predictions enter the
picture?  Insert the same keys in four arrival orders into the classic
even-spreading array and into the heat-guided variant, and compare the
amortized relabel counts.

The heat-guided array shines when pressure keeps landing in one region
(sorted or hammered arrivals) and concedes a little on patternless input.
"""

import random

from listlabel import Apma, Pma

N = 8192
SPAN = 10**7


def streams():
    rng = random.Random(11)
    asc = [(i + 1) * SPAN for i in range(N)]
    desc = list(reversed(asc))
    hammer = [N * SPAN] + [i * SPAN for i in range(1, N)]  # all below the max
    rnd = rng.sample(range(1, SPAN * N), N)
    return [
        ("ascending", asc),
        ("descending", desc),
        ("hammer", hammer),
        ("random", rnd),
    ]


def amortized(cls, raws):
    arr = cls(6 * N)
    return sum(arr.insert(raw, seq) for seq, raw in enumerate(raws)) / len(raws)


def main():
    print(f"{N} inserts into {6 * N} slots, relabels per insert\n")
    print(f"{'arrival order':<14}{'even spreading':>16}{'heat guided':>14}")
    for name, raws in streams():
        even = amortized(Pma, raws)
        guided = amortized(Apma, raws)
        print(f"{name:<14}{even:>16.3f}{guided:>14.3f}")
    print(
        "\nEven spreading pays the same wherever the next key lands; the"
        "\nheat histogram notices one-sided pressure and leaves its gaps"
        "\nwhere the traffic is."
    )


if __name__ == "__main__":
    main()
