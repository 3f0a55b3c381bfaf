"""Acceptance gate: one test per numbered claim the package stands behind.

Criteria that need the full SNAP datasets (1 and 9) skip with fetch
instructions unless the files are present under data/; each has an offline
twin on the temporal drift stream that perfbench's drift-ids workload
generates.  Everything else runs self-contained.  Run
`pytest tests/test_acceptance.py -v` for the one-line-per-criterion report.
"""

import importlib.util
import math
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

from listlabel import harness
from listlabel.core import INF_RAW, NEG_INF_RAW, MovementLedger, clamp
from listlabel.harness import DatasetSpec, load_dataset, run_robustness, run_synthetic, run_table
from listlabel.learned import LearnedLLA
from listlabel.pma import Pma
from listlabel.predictors import corrupt
from listlabel.apma import Apma

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
FETCH_HINT = "run scripts/fetch_datasets.py first (needs network)"

GOWALLA = DATA / "loc-gowalla_totalCheckins.txt"

# the five benchmark streams: SNAP file, value column, timestamp column
TABLE_DATASETS = {
    "gowalla-lat": (GOWALLA, 2, 1),
    "gowalla-locid": (GOWALLA, 4, 1),
    "mooc": (DATA / "mooc_actions.tsv", 1, 3),
    "askubuntu": (DATA / "sx-askubuntu-a2q.txt", 1, 2),
    "email-eu": (DATA / "email-Eu-core-temporal.txt", 1, 2),
}


def _spec(name):
    path, vcol, tcol = TABLE_DATASETS[name]
    return DatasetSpec(path, value_column=vcol, timestamp_column=tcol, name=name)


def _available():
    return [n for n, (p, _, _) in TABLE_DATASETS.items() if p.exists()]


def _drift_spec(tmp_path, monkeypatch, seed):
    """perfbench's drift-ids table at k = 12 (2^12 train, 2^12 insert):
    user ids that drift upward as newcomers join, in time order only after
    the timestamp sort, read as that workload reads it."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    path = tmp_path / "drift-ids.tsv"
    workloads.write_drift_table(path, seed, k=12)
    return DatasetSpec(path, value_column=1, timestamp_column=3, name="drift-ids")


# ----------------------------------------------------------------------
# 1. benchmark-table reproduction on real data


@pytest.mark.skipif(not GOWALLA.exists(), reason=FETCH_HINT)
def test_criterion_1_gowalla_latitude_numeric():
    # each structure's own run, load and prediction included, within 300 s
    by = {}
    for structure in ("pma", "learned-pma"):
        t0 = time.time()
        (by[structure],) = run_table(_spec("gowalla-lat"), 17, structures=(structure,))
        assert time.time() - t0 < 300, structure
    pma, learned = by["pma"], by["learned-pma"]
    assert pma.amortized_cost == pytest.approx(6.47, rel=0.25)
    assert learned.amortized_cost == pytest.approx(4.32, rel=0.25)
    assert learned.amortized_cost < pma.amortized_cost


@pytest.mark.skipif(len(_available()) < 3, reason=FETCH_HINT)
def test_criterion_1_adaptive_ordering_across_datasets():
    # the adaptive heuristic is only held to an ordering claim, and only
    # on a majority of the benchmark streams
    wins = 0
    for name in _available():
        spec = _spec(name)
        rows = load_dataset(spec).keys
        k = min(17, len(rows).bit_length() - 2)
        results = {
            r.structure: r.amortized_cost
            for r in run_table(spec, k, structures=("apma", "learned-apma"))
        }
        if results["learned-apma"] <= results["apma"]:
            wins += 1
    assert wins >= 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_1_offline_drift_stream(tmp_path, monkeypatch, seed):
    # seeds 4-12 give the same orderings: learned 2.8-3.2 against blind
    # 8.9-9.5, learned-apma 2.6-2.9 against apma 8.1-9.1
    by = {r.structure: r.amortized_cost
          for r in run_table(_drift_spec(tmp_path, monkeypatch, seed), 12)}
    assert by["learned-pma"] < by["pma"]
    assert by["learned-apma"] < by["apma"]


# ----------------------------------------------------------------------
# 2. exact-prediction optimality


def test_criterion_2_perfect_predictions_cost_nothing():
    row = run_synthetic(
        "noisy-eta", 65536, seed=1, eta=0, structures=("learned-pma",)
    )[0]
    assert row.amortized_cost == 0.0
    assert row.merges == 0


# ----------------------------------------------------------------------
# 3. cost grows with prediction error


def test_criterion_3_error_scaling_monotone():
    t0 = time.time()
    medians = []
    for eta in (4, 16, 64, 256, 1024):
        costs = [
            run_synthetic(
                "noisy-eta", 65536, seed=s, eta=eta, structures=("learned-pma",)
            )[0].amortized_cost
            for s in range(1, 6)
        ]
        medians.append(statistics.median(costs))
    assert all(a <= b for a, b in zip(medians, medians[1:])), medians
    assert medians[-1] / medians[0] >= 1.5
    assert time.time() - t0 < 600


def test_criterion_3_log_squared_eta_on_hammer_order():
    """On hammer order, where blind `pma` pays 46.80 per insert, the cost of
    uniform +-eta noise follows log2(eta+2)^2.  The band below is the ratio
    over seeds 1-3 (0.0690 to 0.0834 for the learned-pma medians), widened
    by 15% on each side; it is asserted on seeds 4-6, which played no part
    in fixing it.  Every merge is checked for its error witness."""
    n = 2**14
    raws, _, true = harness._synthesize("hammer", n, 0, None, None, None)
    blind = harness._rows(("pma",), "synth-hammer", raws, None, true, train=0)[0].amortized_cost
    pma_medians = []
    for eta in (16, 64, 256, 1024):
        costs = {"learned-pma": [], "learned-apma": []}
        for seed in (4, 5, 6):
            rng = random.Random(seed)
            preds = [clamp(r + rng.randint(-eta, eta), 1, n) for r in true]
            for row in harness._rows(tuple(costs), "synth-hammer", raws, preds, true,
                                     train=0, seed=seed, check_witness=True):
                costs[row.structure].append(row.amortized_cost)
        pma, apma = map(statistics.median, costs.values())
        assert pma <= blind / 4, (eta, pma, blind)
        assert apma <= pma, (eta, apma, pma)
        assert 0.0587 <= pma / math.log2(eta + 2) ** 2 <= 0.0959, (eta, pma)
        pma_medians.append(pma)
    assert all(a < b for a, b in zip(pma_medians, pma_medians[1:])), pma_medians


# ----------------------------------------------------------------------
# 4. worthless predictions stay within 2x of the blind baseline


def test_criterion_4_worst_case_safety():
    n = 2**14
    raws = random.Random(9).sample(range(1, 10**12), n)
    true = harness._true_ranks(raws)
    rng = random.Random(4)
    adversaries = {
        "reversed": [n + 1 - r for r in true],
        "uniform": [rng.randint(1, n) for _ in range(n)],
        "alternating": [1 if i % 2 == 0 else n for i in range(n)],
        "corrupt-100": corrupt(true, 100, rng_seed=4),
    }

    def run(ranks):
        # loaded the way every protocol loads a structure
        return harness._run_config("pma" if ranks is None else "learned-pma", raws, ranks)[0]

    baseline = run(None)  # blind routing: every prediction is rank 1
    costs = {name: run(ranks) for name, ranks in adversaries.items()}
    for name, cost in costs.items():
        assert cost <= 2 * baseline, (name, cost, baseline)


def test_criterion_4_twin_hammer_order_and_apma_boxes():
    """Criterion 4's adversaries, plus 1% corruption, loaded the way every
    protocol loads them (harness._run_config), with both box kinds.

    On hammer order one early key sent to an extreme rank sits in the
    rightmost actual; every later key's predecessor lies there, so `route`
    sends it there too and the learned row pays what its own blind box
    pays, not up to twice that.  On random order the Apma-boxed row must
    stay within criterion 4's 2x of blind apma.
    """
    n = 2**14

    def adversaries(true):
        rng = random.Random(4)
        return {
            "reversed": [n + 1 - r for r in true],
            "uniform": [rng.randint(1, n) for _ in range(n)],
            "alternating": [1 if i % 2 == 0 else n for i in range(n)],
            "corrupt-100": corrupt(true, 100, rng_seed=4),
            "corrupt-1": corrupt(true, 1, rng_seed=4),
        }

    def cost(structure, raws, ranks):
        return harness._run_config(structure, raws, ranks)[0]

    raws, _, true = harness._synthesize("hammer", n, 0, None, None, None)
    for box in ("pma", "apma"):
        blind = cost(box, raws, None)
        for name, ranks in adversaries(true).items():
            learned = cost(f"learned-{box}", raws, ranks)
            assert learned <= 1.05 * blind, ("hammer", box, name, learned, blind)

    raws = random.Random(9).sample(range(1, 10**12), n)
    blind = cost("apma", raws, None)
    for name, ranks in adversaries(harness._true_ranks(raws)).items():
        learned = cost("learned-apma", raws, ranks)
        assert learned <= 2 * blind, ("random", name, learned, blind)


# ----------------------------------------------------------------------
# 5. every merged region contains a witness of large error


def test_criterion_5_witness_holds_for_every_merge():
    # run_synthetic verifies the witness property on each merge and raises
    # on the first violation, so surviving the schedule is the assertion;
    # the schedule just has to be big enough to be meaningful
    total = 0
    for seed in (1, 2):
        for eta in (4, 16):
            for row in run_synthetic(
                "noisy-eta", 16384, seed=seed, eta=eta,
                structures=("learned-pma", "learned-apma"),
            ):
                total += row.merges
    assert total >= 10**4


# ----------------------------------------------------------------------
# 6. smoother stochastic noise costs less


def test_criterion_6_stochastic_trend_monotone():
    medians = []
    for s in (1.0, 4.0, 16.0, 64.0):
        costs = [
            run_synthetic(
                "stochastic", 65536, seed=sd, mu=0.0, s=s,
                structures=("learned-pma",),
            )[0].amortized_cost
            for sd in range(1, 6)
        ]
        medians.append(statistics.median(costs))
    assert all(a <= b for a, b in zip(medians, medians[1:])), medians


def test_criterion_6_stochastic_bias_costs_less_than_spread():
    """The stochastic model's other parameter, the mean error mu.  At spread
    s = 1 the median cost does not fall as mu grows from 0 to 256, and even
    at mu = 256 it stays below the median at s = 16, mu = 0: bias costs far
    less than spread.  Seeds 1-3 read 0.0535, 0.0537, 0.0558, 0.0813 and
    0.2512 against 2.7861; the seeds asserted here read 0.0602, 0.0604,
    0.0625, 0.0876 and 0.2575 against 2.7845."""

    def median(mu, s):
        return statistics.median(
            run_synthetic("stochastic", 2**14, seed=sd, mu=mu, s=s,
                          structures=("learned-pma",))[0].amortized_cost
            for sd in (4, 5, 6))

    medians = [median(mu, 1.0) for mu in (0.0, 4.0, 16.0, 64.0, 256.0)]
    assert all(a <= b for a, b in zip(medians, medians[1:])), medians
    assert medians[-1] < median(0.0, 16.0), medians


# ----------------------------------------------------------------------
# 7. invariant fuzz: structure and accounting stay exact under randomness


def _spied_classes(state):
    class SpyMixin:
        """Copy the slots before each movement event, check that nothing
        outside the touched range (the node's for a rebalance, the leaf's
        for a placement) changed, and recount, element by element inside
        it, what the ledger was told."""

        def _record(self, before, lo, hi):
            slots = self.slots
            assert slots[:lo] == before[:lo] and slots[hi:] == before[hi:], (
                "slots outside the touched range changed")
            if state["in_merge"]:
                return
            old = {e[1]: p for p, e in enumerate(before[lo:hi], lo) if e is not None}
            state["events"].append(sum(
                1 for p, e in enumerate(slots[lo:hi], lo)
                if e is not None and old.get(e[1], p) != p
            ))

        def _rebalance(self, lo, hi, pending_raw):
            before = list(self.slots)
            moved = super()._rebalance(lo, hi, pending_raw)
            self._record(before, lo, hi)
            state["rebalances"] += 1
            return moved

        def _place(self, t, entry):
            before = list(self.slots)
            out = super()._place(t, entry)
            L = self.leaf_size
            lo = min(t, self.slot_count - 1) // L * L
            self._record(before, lo, lo + L)
            state["shifts"] += out[1] > 0
            return out

    class SpiedPma(SpyMixin, Pma):
        pass

    class SpiedApma(SpyMixin, Apma):
        pass

    return SpiedPma, SpiedApma


def _check_structure(lla):
    seen = None
    labels = []
    for raw, seq, label in lla.global_labels():
        if seen is not None:
            assert (raw, seq) > seen, "global order broken"
        seen = (raw, seq)
        labels.append(label)
    assert all(a < b for a, b in zip(labels, labels[1:])), "labels not increasing"

    # The actuals tile the ranks: every leaf of an aligned actual carries
    # its height.
    parts = []
    heights = lla._heights
    leaf = 0
    while leaf < lla.n:
        h = heights[leaf]
        assert leaf % (1 << h) == 0, "actual not aligned"
        assert heights[leaf:leaf + (1 << h)] == [h] * (1 << h), \
            "partition does not tile the rank space"
        parts.append((h, leaf >> h))
        leaf += 1 << h

    # The non-empty actuals, read from `_boxes`.  A box or lone key sits at
    # its actual's first leaf, and a box holds at least two keys: a lone
    # key stays bare until its actual's second key builds the box.
    held = {}
    for first, box in enumerate(lla._boxes):
        if box is not None:
            h = heights[first]
            assert first % (1 << h) == 0, "box away from its actual's first leaf"
            assert box.__class__ is tuple or box.count >= 2, "box with fewer than 2 keys"
            held[h, first >> h] = box
    root_h = lla.n.bit_length() - 1
    for h, node in held:
        for h2 in range(h + 1, root_h + 1):
            assert (h2, node >> (h2 - h)) not in held, "nested active nodes"

    for (h, _node), box in held.items():
        count = 1 if box.__class__ is tuple else box.count
        assert count * 2 <= 6 << h, "density above one half"

    # The min/max trees are exact at and above actual roots: a root holds
    # its actual's smallest and largest key (the empty markers for an empty
    # actual), and every node above the roots aggregates its two children.
    mins, maxs = lla._min, lla._max
    above = set()
    for h, node in parts:
        v = (lla.n >> h) + node
        box = held.get((h, node))
        keys = ([] if box is None else [box[0]] if box.__class__ is tuple
                else [raw for raw, _ in filter(None, box.slots)])
        want = (keys[0], keys[-1]) if keys else (INF_RAW, NEG_INF_RAW)
        assert (mins[v], maxs[v]) == want, ("actual root min/max", h, node)
        v >>= 1
        while v and v not in above:
            above.add(v)
            v >>= 1
    for v in above:
        assert mins[v] == min(mins[2 * v], mins[2 * v + 1]), ("min above the roots", v)
        assert maxs[v] == max(maxs[2 * v], maxs[2 * v + 1]), ("max above the roots", v)


def _fuzz_one_seed(seed, n, adaptive, key_range=None, noise=None):
    """Load n keys, distinct or drawn from range(key_range), recounting
    every charge and checking the structure every 500 inserts.  Predictions
    are uniform over [-5, n + 5], or with `noise` each key's true final rank
    off by at most that much.  Returns the spies' counts."""
    rng = random.Random(seed)
    state = {"in_merge": False, "events": [], "shifts": 0, "rebalances": 0,
             "merges": 0, "lone_gathered": 0}
    spied_pma, spied_apma = _spied_classes(state)
    cls = spied_apma if adaptive else spied_pma
    led = MovementLedger()
    lla = LearnedLLA(n, factory=lambda sc, lg: cls(sc, ledger=lg), ledger=led)

    merge_diffs = []
    inner = lla.merge_parent

    def spying(rec):
        ph = lla._heights[rec] + 1
        lo = rec >> ph << ph
        state["merges"] += 1
        state["lone_gathered"] += any(b.__class__ is tuple for b in lla._boxes[lo:lo + (1 << ph)])
        pre = {s: g for _, s, g in lla.global_labels()}
        state["in_merge"] = True
        out = inner(rec)
        state["in_merge"] = False
        post = {s: g for _, s, g in lla.global_labels()}
        merge_diffs.append(sum(1 for s, g in post.items() if s in pre and pre[s] != g))
        return out

    lla.merge_parent = spying

    if key_range is None:
        raws = rng.sample(range(10**12), n)
    else:
        raws = [rng.randrange(key_range) for _ in range(n)]
    if noise is not None:
        true = harness._true_ranks(raws)  # equal keys rank in arrival order
    for i, raw in enumerate(raws):
        state["events"].clear()
        merge_diffs.clear()
        before = led.total_movements
        if noise is None:
            rank = rng.randint(-5, n + 5)
        else:
            rank = true[i] + rng.randint(-noise, noise)
        lla.insert(raw, i, rank)
        expected = 1 + sum(state["events"]) + sum(merge_diffs)
        assert led.total_movements - before == expected, (seed, i)
        if i % 500 == 499:
            _check_structure(lla)
    _check_structure(lla)
    # The spies must have run, or a renamed hook would switch the range
    # checks off unseen.
    assert state["shifts"] > 0 and state["rebalances"] > 0, (seed, state)
    return state


def test_criterion_7_invariant_fuzz():
    t0 = time.time()
    per_seed = 5000
    for seed in range(1, 21):
        _fuzz_one_seed(seed, per_seed, adaptive=seed % 5 == 0)
    assert time.time() - t0 < 120


def test_criterion_7_invariant_fuzz_duplicate_keys():
    # real ID streams repeat keys heavily; distinct samples never do
    gathered = sum(_fuzz_one_seed(seed, 5000, adaptive=seed % 5 == 0, key_range=64)
                   ["lone_gathered"] for seed in range(1, 6))
    assert gathered > 0  # some merge gathers a key that was still bare


@pytest.mark.parametrize("key_range", [None, 64], ids=["distinct", "keys-from-64"])
def test_criterion_7_invariant_fuzz_near_exact(key_range):
    # Predictions within 4 ranks of the truth leave most keys bare, so many
    # merges gather a lone key; uniform predictions coarsen the structure
    # within a few merges, and then almost none do.
    for seed in (1, 2, 3):
        state = _fuzz_one_seed(seed, 2000, adaptive=seed == 3, key_range=key_range, noise=4)
        assert state["lone_gathered"] >= 10, (seed, state["merges"], state["lone_gathered"])


# ----------------------------------------------------------------------
# 8. desk-scale equivalence to a from-scratch reference


def test_criterion_8_desk_scale_oracle():
    from test_pma import test_matches_reference_on_every_insert

    test_matches_reference_on_every_insert()


# ----------------------------------------------------------------------
# 9. corrupted predictions: learned stays below the baseline


@pytest.mark.skipif(not GOWALLA.exists(), reason=FETCH_HINT)
def test_criterion_9_robustness_curve():
    t0 = time.time()
    rows = run_robustness(
        _spec("gowalla-lat"), 16, [0, 10, 25], repeats=5,
        structures=("pma", "learned-pma"),
    )
    pma_cost = next(r for r in rows if r.structure == "pma").amortized_cost
    for t in (0, 10, 25):
        learned = next(r for r in rows if r.structure == f"learned-pma:t={t}")
        assert learned.mean < pma_cost, f"t={t}"
    assert time.time() - t0 < 900


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_9_offline_drift_stream(tmp_path, monkeypatch, seed):
    # up to t = 25 the worst mean over seeds 1-12 is 8.61 against 9.48
    # (seed 2); at t = 50 the gap is too thin to assert
    rows = run_robustness(
        _drift_spec(tmp_path, monkeypatch, seed), 12, [0, 10, 25], repeats=3,
        structures=("pma", "learned-pma"),
    )
    pma_cost = next(r for r in rows if r.structure == "pma").amortized_cost
    for t in (0, 10, 25):
        learned = next(r for r in rows if r.structure == f"learned-pma:t={t}")
        assert learned.mean < pma_cost, f"t={t}"
