"""Acceptance gate: one test per numbered claim the package stands behind.

Criteria that need the full SNAP datasets (1 and 9) skip with fetch
instructions unless the files are present under data/; everything else
runs self-contained.  Run `pytest tests/test_acceptance.py -v` for the
one-line-per-criterion report.
"""

import random
import statistics
import time
from pathlib import Path

import pytest

from listlabel.core import MIN_RAW, MovementLedger
from listlabel.harness import DatasetSpec, load_dataset, run_robustness, run_synthetic, run_table
from listlabel.learned import LearnedLLA
from listlabel.pma import Pma
from listlabel.predictors import PredictionVector, corrupt
from listlabel.apma import Apma

DATA = Path(__file__).resolve().parent.parent / "data"
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


# ----------------------------------------------------------------------
# 1. benchmark-table reproduction on real data


@pytest.mark.skipif(not GOWALLA.exists(), reason=FETCH_HINT)
def test_criterion_1_gowalla_latitude_numeric():
    rows = run_table(_spec("gowalla-lat"), 17, structures=("pma", "learned-pma"))
    by = {r.structure: r for r in rows}
    pma, learned = by["pma"], by["learned-pma"]
    assert pma.amortized_cost == pytest.approx(6.47, rel=0.25)
    assert learned.amortized_cost == pytest.approx(4.32, rel=0.25)
    assert learned.amortized_cost < pma.amortized_cost
    assert pma.wall_time < 300 and learned.wall_time < 300


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


# ----------------------------------------------------------------------
# 4. worthless predictions stay within 2x of the blind baseline


def test_criterion_4_worst_case_safety():
    n = 2**14
    raws = random.Random(9).sample(range(1, 10**12), n)
    true = [0] * n
    for rank, i in enumerate(sorted(range(n), key=raws.__getitem__), start=1):
        true[i] = rank
    rng = random.Random(4)
    adversaries = {
        "reversed": [n + 1 - r for r in true],
        "uniform": [rng.randint(1, n) for _ in range(n)],
        "alternating": [1 if i % 2 == 0 else n for i in range(n)],
        "corrupt-100": corrupt(PredictionVector(true), 100, n, rng_seed=4).ranks,
    }

    def run(ranks):
        # the harness protocol: sentinel first, ranks shifted past it
        led = MovementLedger(first_placement_excluded=True)
        lla = LearnedLLA(n + 1, ledger=led)
        lla.insert(MIN_RAW, 0, 1)
        led.reset()
        for i, raw in enumerate(raws):
            lla.insert(raw, i + 1, 1 if ranks is None else ranks[i] + 1)
        return led.amortized_cost()

    baseline = run(None)  # blind routing: every prediction is rank 1
    costs = {name: run(ranks) for name, ranks in adversaries.items()}
    for name, cost in costs.items():
        assert cost <= 2 * baseline, (name, cost, baseline)


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

        def _rebalance(self, node, pending_raw=None):
            before = list(self.slots)
            moved = super()._rebalance(node, pending_raw)
            self._record(before, *self._node_slot_range(node))
            return moved

        def _place_in_leaf(self, leaf, raw, seq, sp, ss):
            before = list(self.slots)
            out = super()._place_in_leaf(leaf, raw, seq, sp, ss)
            L = self.leaf_size
            self._record(before, leaf * L, (leaf + 1) * L)
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

    parts = lla.partition()
    covered = 0
    for h, _node in parts:
        covered += 1 << h
    assert covered == lla.n, "partition does not tile the rank space"

    active = {(rec.height, rec.node) for rec in lla.actuals()}
    root_h = lla.n.bit_length() - 1
    for h, node in active:
        for h2 in range(h + 1, root_h + 1):
            assert (h2, node >> (h2 - h)) not in active, "nested active nodes"

    for rec in lla.actuals():
        assert rec.box.count * 2 <= 6 << rec.height, "density above one half"


def _fuzz_one_seed(seed, n, adaptive, key_range=None):
    rng = random.Random(seed)
    state = {"in_merge": False, "events": []}
    spied_pma, spied_apma = _spied_classes(state)
    cls = spied_apma if adaptive else spied_pma
    led = MovementLedger()
    lla = LearnedLLA(n, factory=lambda sc, lg: cls(sc, ledger=lg), ledger=led)

    merge_diffs = []
    inner = lla.merge_parent

    def spying(rec):
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
    for i, raw in enumerate(raws):
        state["events"].clear()
        merge_diffs.clear()
        before = led.total_movements
        lla.insert(raw, i, rng.randint(-5, n + 5))
        expected = 1 + sum(state["events"]) + sum(merge_diffs)
        assert led.total_movements - before == expected, (seed, i)
        if i % 500 == 499:
            _check_structure(lla)
    _check_structure(lla)


def test_criterion_7_invariant_fuzz():
    t0 = time.time()
    per_seed = 5000
    for seed in range(1, 21):
        _fuzz_one_seed(seed, per_seed, adaptive=seed % 5 == 0)
    assert time.time() - t0 < 120


def test_criterion_7_invariant_fuzz_duplicate_keys():
    # real ID streams repeat keys heavily; distinct samples never do
    for seed in range(1, 6):
        _fuzz_one_seed(seed, 5000, adaptive=seed % 5 == 0, key_range=64)


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
