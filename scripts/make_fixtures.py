#!/usr/bin/env python3
"""Regenerate the committed 1000-row fixtures under tests/data/.

The fixtures are synthetic stand-ins that copy the column layout of the
real benchmark files (which are too big to commit, see fetch_datasets.py)
so the loader, CLI, and demos can run without any download.  Values are
drawn from a seeded generator; rerunning this script reproduces the same
bytes.
"""

import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "tests" / "data"
ROWS = 1000


def checkins(rng):
    # user \t ISO-time \t latitude \t longitude \t location-id, grouped by
    # user with newest check-in first, like the real export
    cities = [(30.27, -97.74), (40.71, -74.01), (52.52, 13.40), (37.77, -122.42)]
    t0 = datetime(2010, 6, 1, tzinfo=timezone.utc)
    lines = []
    user = 0
    while len(lines) < ROWS:
        user += rng.randint(1, 3)
        home = rng.choice(cities)
        visits = rng.randint(1, 8)
        base = t0 + timedelta(hours=rng.randrange(0, 4000))
        for v in range(min(visits, ROWS - len(lines))):
            when = base - timedelta(hours=6 * v, minutes=rng.randrange(60))
            lat = home[0] + rng.gauss(0, 0.05)
            lon = home[1] + rng.gauss(0, 0.05)
            loc = rng.randrange(10**4, 10**5)
            stamp = when.strftime("%Y-%m-%dT%H:%M:%SZ")
            lines.append(f"{user}\t{stamp}\t{lat:.7f}\t{lon:.7f}\t{loc}")
    (OUT / "checkins_sample.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def actions(rng):
    # action-id \t user-id \t target-id \t seconds-offset (header stripped,
    # as fetch_datasets.py leaves the real file)
    lines = []
    t = 0.0
    pool = list(range(60))
    for i in range(ROWS):
        t += rng.expovariate(1 / 30)
        if rng.random() < 0.02:  # newcomers join over time
            pool.append(len(pool))
        user = rng.choice(pool[-40:]) if rng.random() < 0.7 else rng.choice(pool)
        target = rng.randrange(100)
        lines.append(f"{i}\t{user}\t{target}\t{t:.1f}")
    (OUT / "actions_sample.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def messages(rng):
    # src dst unix-seconds, whitespace separated, loosely time ordered
    lines = []
    t = 1_200_000
    for _ in range(ROWS):
        t += rng.randrange(1, 900)
        src = rng.randrange(200)
        dst = int(rng.paretovariate(1.2)) % 200
        lines.append(f"{src} {dst} {t}")
    (OUT / "messages_sample.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    rng = random.Random(20260819)
    checkins(rng)
    actions(rng)
    messages(rng)
    print(f"wrote 3 fixtures x {ROWS} rows under {OUT}")


if __name__ == "__main__":
    main()
