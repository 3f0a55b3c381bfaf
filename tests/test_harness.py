"""Dataset loading, experiment protocols, CSV output, CLI exit codes."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from listlabel import harness
from listlabel.cli import main as cli_main
from listlabel.core import MIN_RAW, SCALE
from listlabel.harness import (
    CSV_HEADER,
    STRUCTURES,
    ConfigError,
    DataError,
    DatasetSpec,
    emit_csv,
    load_dataset,
    run_learning_curve,
    run_robustness,
    run_scaling,
    run_synthetic,
    run_table,
)
from listlabel.learned import LearnedLLA
from listlabel.pma import Pma


# ----------------------------------------------------------------------
# loading


class TestLoadDataset:
    def test_whitespace_columns_and_comments(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# header\nu1\t3.5\tx\n\nu2  -1.25  y\n", encoding="utf-8")
        got = load_dataset(DatasetSpec(p, value_column=1))
        assert [k.raw for k in got.keys] == [35_000_000, -12_500_000]

    def test_comma_delimiter_autodetected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a, 1.5 ,z\nb, 2.5 ,z\n", encoding="utf-8")
        got = load_dataset(DatasetSpec(p, value_column=1))
        assert [k.raw for k in got.keys] == [15_000_000, 25_000_000]

    def test_duplicates_retained_in_file_order(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("5\n5\n5\n", encoding="utf-8")
        got = load_dataset(DatasetSpec(p))
        assert [k.raw for k in got.keys] == [5 * SCALE] * 3

    def test_numeric_timestamps_sort_numerically_and_stably(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 30\n2 9\n3 20\n4 9\n", encoding="utf-8")  # "9" < "30" only numerically
        got = load_dataset(DatasetSpec(p, value_column=0, timestamp_column=1))
        assert [k.raw // SCALE for k in got.keys] == [2, 4, 3, 1]

    def test_iso_timestamps_sort_lexicographically(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text(
            "1 2010-10-19T23:55:27Z\n2 2009-01-01T00:00:00Z\n3 2010-01-02T03:04:05Z\n",
            encoding="utf-8",
        )
        got = load_dataset(DatasetSpec(p, value_column=0, timestamp_column=1))
        assert [k.raw // SCALE for k in got.keys] == [2, 3, 1]

    @pytest.mark.parametrize("text", ["1.5\t10\n2.5\t20\n", "# note\n1.5\t10\n2.5\t20\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        # spreadsheet "CSV UTF-8" exports start with one; it must neither
        # break the first value nor hide a first-line comment
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        want = [k.raw for k in load_dataset(DatasetSpec(plain)).keys]
        assert want == [15_000_000, 25_000_000]
        assert [k.raw for k in load_dataset(DatasetSpec(marked)).keys] == want

    def test_bad_value_reports_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1.5\nnope\n", encoding="utf-8")
        with pytest.raises(DataError, match="^line 2: not a plain decimal number: 'nope'$"):
            load_dataset(DatasetSpec(p))

    def test_missing_column_reports_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 2\n3\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(DatasetSpec(p, value_column=1))
        # the value is there, its timestamp column is not
        p.write_text("1 2\n3 4\n5\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"line 3: no column 1 \(row has 1\)"):
            load_dataset(DatasetSpec(p, timestamp_column=1))

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(DatasetSpec(tmp_path / "absent.txt"))

    def test_nan_timestamp_reports_line_number(self, tmp_path):
        # float("nan") parses, and sorted() would silently misorder the rows
        p = tmp_path / "d.txt"
        p.write_text("1 1\n2 nan\n3 2\n4 0\n5 3\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(DatasetSpec(p, value_column=0, timestamp_column=1))

    def test_cli_nan_timestamp_exits_3(self, tmp_path, capsys):
        p = tmp_path / "d.txt"
        p.write_text("".join(f"{i} {i}\n" for i in range(8)) + "9 NaN\n", encoding="utf-8")
        code = cli_main(["table", "--dataset", str(p), "--ts-col", "1", "--k", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "line 9" in captured.err

    @pytest.mark.parametrize("field", ["value_column", "timestamp_column"])
    def test_negative_column_or_row_count_rejected(self, tmp_path, field):
        with pytest.raises(ConfigError, match=field):
            DatasetSpec(tmp_path / "d.txt", **{field: -1})

    @pytest.mark.parametrize("field, value", [("value_column", 1.5), ("timestamp_column", 3.0)])
    def test_non_integer_column_rejected(self, tmp_path, field, value):
        # unchecked, it fails only at load, indexing a row's cells
        with pytest.raises(ConfigError, match=f"{field}={value}: parameters must be integers"):
            DatasetSpec(tmp_path / "d.txt", **{field: value})

    @pytest.mark.parametrize("ts_col", [None, 1])
    def test_malformed_row_past_the_rows_a_run_needs(self, tmp_path, ts_col):
        # the whole file is read, with or without a timestamp column
        p = tmp_path / "d.txt"
        p.write_text("".join(f"{i} {i}\n" for i in range(8)) + "nope 9\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 9"):
            run_table(DatasetSpec(p, timestamp_column=ts_col), 1, ("pma",))

    def test_cli_value_past_the_int_digit_limit_exits_3(self, tmp_path, capsys):
        p = tmp_path / "d.txt"
        p.write_text("1\n2\n" + "9" * 5000 + "\n3\n4\n", encoding="utf-8")
        code = cli_main(["table", "--dataset", str(p), "--k", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("llabench: line 3: value out of range")


# ----------------------------------------------------------------------
# protocols


ACTIONS = DatasetSpec(
    Path(__file__).resolve().parent / "data" / "actions_sample.tsv",
    value_column=1,
    timestamp_column=3,
)


@pytest.fixture
def selections(monkeypatch):
    """The training slices of every select_predictor call the harness makes."""
    calls = []
    inner = harness.select_predictor

    def spy(train):
        calls.append(train)
        return inner(train)

    monkeypatch.setattr(harness, "select_predictor", spy)
    return calls


def write_drift(path, rows=3000, seed=7):
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(rows):
            fh.write(f"u{i} {3 * i + rng.uniform(-40, 40):.4f}\n")
    return DatasetSpec(path, value_column=1, name="drift")


class TestRunTable:
    def test_four_rows_learned_beats_blind_on_drift(self, tmp_path):
        spec = write_drift(tmp_path / "d.txt")
        rows = run_table(spec, 10)
        assert [r.structure for r in rows] == [
            "pma",
            "apma",
            "learned-pma",
            "learned-apma",
        ]
        by = {r.structure: r for r in rows}
        assert by["learned-pma"].amortized_cost < by["pma"].amortized_cost
        assert by["learned-apma"].amortized_cost < by["apma"].amortized_cost
        for r in rows:
            assert r.train == r.test == 1024
            assert r.eta_max is None or r.eta_max <= r.test
        assert by["pma"].eta_max is None  # baselines are prediction-free

    def test_perfect_predictor_run_costs_nothing(self, tmp_path):
        # noiseless line: drift correction recovers every rank exactly,
        # which also proves the sentinel insert is excluded from stats
        p = tmp_path / "line.txt"
        p.write_text("".join(f"{i}\n" for i in range(2048)), encoding="utf-8")
        rows = run_table(DatasetSpec(p), 10, structures=("learned-pma",))
        assert rows[0].amortized_cost == 0.0
        assert rows[0].merges == 0
        assert rows[0].eta_max == 0

    def test_insufficient_rows_is_config_error(self, tmp_path):
        spec = write_drift(tmp_path / "d.txt", rows=100)
        with pytest.raises(ConfigError):
            run_table(spec, 10)


def test_scaling_empty_range_is_empty(tmp_path):
    spec = write_drift(tmp_path / "d.txt", rows=10)
    assert run_scaling(spec, range(5, 5)) == []


def test_scaling_reads_the_dataset_once(monkeypatch):
    loads = []
    inner = harness.load_dataset

    def spy(spec):
        loads.append(spec)
        return inner(spec)

    monkeypatch.setattr(harness, "load_dataset", spy)
    rows = run_scaling(ACTIONS, range(4, 9), ("pma",))
    assert len(loads) == 1
    assert [r.test for r in rows] == [16, 32, 64, 128, 256]


def test_scaling_beyond_the_data_rejected_before_any_run(monkeypatch):
    # the sample has rows for k=8 but not for k=9, so no k may run
    runs = []
    monkeypatch.setattr(harness, "_rows", lambda *a, **kw: runs.append(a))
    with pytest.raises(ConfigError, match="k=12"):
        run_scaling(ACTIONS, range(8, 13))
    assert runs == []


def test_scaling_window_too_small_to_select_from_rejected_before_any_run(monkeypatch):
    # k=1 trains on 2 keys, too few to pick a predictor on, so k=8 may not
    # run first either
    runs = []
    monkeypatch.setattr(harness, "_rows", lambda *a, **kw: runs.append(a) or [])
    with pytest.raises(ConfigError, match="training slice of 2"):
        run_scaling(ACTIONS, [8, 1])
    assert runs == []


@pytest.mark.parametrize("call, name", [
    (lambda: run_table(ACTIONS, 6.0), "k=6.0"),
    (lambda: run_scaling(ACTIONS, [6.0]), "k=6.0"),
    (lambda: run_learning_curve(ACTIONS, 6, [12.5]), "train fraction=12.5"),
    (lambda: run_learning_curve(ACTIONS, 6.0, [50]), "test_k=6.0"),
    (lambda: run_robustness(ACTIONS, 6, [0], repeats=2.5), "repeats=2.5"),
    (lambda: run_robustness(ACTIONS, 6.0, [0], repeats=2), "k=6.0"),
], ids=["table", "scaling", "curve-fraction", "curve-test_k", "robustness-repeats",
        "robustness-k"])
def test_non_integer_parameter_rejected_before_any_load(monkeypatch, selections, call, name):
    # Unchecked, each reaches Python's TypeError (in `1 << k`, a float slice
    # or `range(1, repeats + 1)`), some only after the blind rows have run.
    loads, runs = [], []
    monkeypatch.setattr(harness, "load_dataset", loads.append)
    monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
    with pytest.raises(ConfigError, match=f"{name}: parameters must be integers"):
        call()
    assert loads == [] and selections == [] and runs == []


PROTOCOL_CALLS = pytest.mark.parametrize("call", [
    lambda st: run_table(ACTIONS, 6, st),
    lambda st: run_scaling(ACTIONS, [6], st),
    lambda st: run_learning_curve(ACTIONS, 6, [50], st),
    lambda st: run_robustness(ACTIONS, 6, [0], structures=st),
    lambda st: run_synthetic("random", 64, structures=st),
], ids=["table", "scaling", "curve", "robustness", "synthetic"])


@pytest.mark.parametrize("structures", [("pma", "learned-foo"), "pma",
                                        (s for s in STRUCTURES), set(STRUCTURES)],
                         ids=["unknown-name", "bare-str", "generator", "set"])
@PROTOCOL_CALLS
def test_unknown_structure_rejected_before_any_load(monkeypatch, selections, call,
                                                    structures):
    # Unchecked, an unknown name ran as a blind `Pma` row (a learned one if
    # it began "learned"), a bare str ran one blind row per character, a
    # generator reached a TypeError taking its len(), and a set wrote its
    # rows in string-hash order, which differs between processes.
    loads, made, runs = [], [], []
    monkeypatch.setattr(harness, "load_dataset", loads.append)
    monkeypatch.setattr(harness, "_synthesize", lambda *a: made.append(a))
    monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
    with pytest.raises(ConfigError, match="learned-foo" if isinstance(structures, tuple)
                       else f"not a {type(structures).__name__}"):
        call(structures)
    assert loads == made == runs == selections == []


@PROTOCOL_CALLS
def test_repeated_structure_rejected_before_any_load(monkeypatch, selections, call):
    # Unchecked, each repeat wrote its own copy of the rows, and robustness
    # ran every draw once per repeat.
    loads, made, runs = [], [], []
    monkeypatch.setattr(harness, "load_dataset", loads.append)
    monkeypatch.setattr(harness, "_synthesize", lambda *a: made.append(a))
    monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
    with pytest.raises(ConfigError, match="repeat a name"):
        call(("pma", "learned-pma", "pma"))
    assert loads == made == runs == selections == []


def test_scaling_repeated_k_rejected_before_any_load(monkeypatch, selections):
    # Unchecked, a repeated k wrote the same rows twice.
    loads, runs = [], []
    monkeypatch.setattr(harness, "load_dataset", loads.append)
    monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
    with pytest.raises(ConfigError, match=r"k values \[4, 5, 4\] repeat a size"):
        run_scaling(ACTIONS, [4, 5, 4], ("pma",))
    assert loads == runs == selections == []


class TestLearningCurve:
    def test_zero_fraction_equals_blind_baseline(self, tmp_path):
        spec = write_drift(tmp_path / "d.txt")
        rows = run_learning_curve(
            spec, 10, [0, 100], structures=("pma", "learned-pma")
        )
        by_train = {(r.structure, r.train): r.amortized_cost for r in rows}
        # without training data the learned run degenerates to the same
        # rank-1 routing as the baseline: identical computation, same cost
        assert by_train[("learned-pma", 0)] == by_train[("pma", 0)]
        assert by_train[("learned-pma", 1024)] < by_train[("pma", 1024)]

    def test_fraction_beyond_available_prefix_rejected(self, tmp_path):
        spec = write_drift(tmp_path / "d.txt")
        with pytest.raises(ConfigError):
            run_learning_curve(spec, 10, [150])

    @pytest.mark.parametrize("fractions", [[100, 150], [100, -1]])
    def test_bad_fraction_rejected_before_any_run(self, fractions, selections):
        with pytest.raises(ConfigError):
            run_learning_curve(ACTIONS, 8, fractions)
        assert selections == []

    def test_empty_fraction_list_rejected_before_any_load(self, monkeypatch, selections):
        loads = []
        monkeypatch.setattr(harness, "load_dataset", loads.append)
        with pytest.raises(ConfigError, match="no train fractions"):
            run_learning_curve(ACTIONS, 8, [])
        assert loads == [] and selections == []

    def test_cli_bad_fraction_exits_2(self, capsys, selections):
        code = cli_main(["curve", "--dataset", str(ACTIONS.path), "--value-col", "1",
                         "--ts-col", "3", "--test-k", "8", "--fractions", "100,150"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("llabench: ")
        assert selections == []


    def test_window_too_small_to_select_from_rejected_before_any_run(self, monkeypatch):
        # 1% of 256 rows trains on 2 keys, too few to pick a predictor on,
        # so the 100% point may not run first either
        runs = []
        monkeypatch.setattr(harness, "_rows", lambda *a, **kw: runs.append(a) or [])
        with pytest.raises(ConfigError, match="training slice of 2"):
            run_learning_curve(ACTIONS, 8, [100, 1])
        assert runs == []

    def test_cli_window_too_small_to_select_from_exits_2_before_any_run(
        self, capsys, monkeypatch
    ):
        runs = []
        monkeypatch.setattr(harness, "_rows", lambda *a, **kw: runs.append(a) or [])
        code = cli_main(["curve", "--dataset", str(ACTIONS.path), "--value-col", "1",
                         "--ts-col", "3", "--test-k", "8", "--fractions", "100,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("llabench: ")
        assert runs == []


class TestBaselinesSkipPrediction:
    """Rows without a learned structure read no predictions, so no protocol
    selects a predictor for them."""

    def test_table_and_robustness(self, selections):
        run_table(ACTIONS, 8, ("pma",))
        run_robustness(ACTIONS, 8, [0, 50], repeats=2, structures=("pma", "apma"))
        assert selections == []
        run_table(ACTIONS, 8, ("pma", "learned-pma"))
        assert len(selections) == 1

    def test_learning_curve(self, selections):
        run_learning_curve(ACTIONS, 8, [0, 50, 100], structures=("pma",))
        assert selections == []

    def test_training_slice_too_small_to_select_from(self, tmp_path):
        # two training keys cannot hold out a validation half; only a
        # learned row needs them to
        spec = write_drift(tmp_path / "d.txt", rows=4)
        assert [r.structure for r in run_table(spec, 1, ("pma",))] == ["pma"]
        with pytest.raises(ConfigError):
            run_table(spec, 1, ("learned-pma",))


class TestRobustness:
    def test_one_corruption_per_level_and_repeat(self, monkeypatch):
        calls = []
        inner = harness.corrupt

        def spy(pred, t, *seed):
            calls.append((t, *seed))
            return inner(pred, t, *seed)

        monkeypatch.setattr(harness, "corrupt", spy)
        rows = run_robustness(ACTIONS, 8, [0, 10, 25, 50], repeats=5)
        assert len(rows) == 2 + 2 * 4
        # every learned structure runs on the same draw
        assert sorted(calls) == [(t, r) for t in (0, 10, 25, 50) for r in range(1, 6)]

    def test_equal_draws_run_once(self, monkeypatch):
        """t=0 corrupts nothing and t=100 every rank, so each repeat draws
        the previous repeat's vector: one baseline run plus one per level."""
        calls = []
        inner = harness._run_config

        def spy(*args, **kw):
            calls.append(args[0])
            return inner(*args, **kw)

        monkeypatch.setattr(harness, "_run_config", spy)
        rows = run_robustness(ACTIONS, 8, [0, 100], repeats=5,
                              structures=("pma", "learned-pma"))
        assert calls == ["pma", "learned-pma", "learned-pma"]
        assert [r.stddev for r in rows] == [0.0, 0.0, 0.0]

    def test_rows_follow_structures_with_one_structure_values(self):
        def run(structures):
            return run_robustness(ACTIONS, 8, [0, 25], repeats=2, base_seed=3,
                                  structures=structures)

        mixed = run(("learned-apma", "pma", "learned-pma"))
        assert [r.structure for r in mixed] == [
            "learned-apma:t=0", "learned-apma:t=25", "pma",
            "learned-pma:t=0", "learned-pma:t=25",
        ]
        assert mixed == run(("learned-apma",)) + run(("pma",)) + run(("learned-pma",))

    def test_zero_corruption_matches_uncorrupted_run(self, tmp_path):
        spec = write_drift(tmp_path / "d.txt")
        clean = run_table(spec, 9, structures=("learned-pma",))[0]
        rows = run_robustness(
            spec, 9, [0, 50], repeats=3, structures=("learned-pma",)
        )
        t0 = next(r for r in rows if r.structure == "learned-pma:t=0")
        assert t0.mean == pytest.approx(clean.amortized_cost)
        assert t0.stddev == 0.0
        t50 = next(r for r in rows if r.structure == "learned-pma:t=50")
        assert t50.mean > t0.mean
        assert t50.eta_max > t0.eta_max

    def test_baselines_run_once_with_zero_spread(self, tmp_path):
        spec = write_drift(tmp_path / "d.txt")
        rows = run_robustness(spec, 9, [0], repeats=2, structures=("pma",))
        assert len(rows) == 1
        assert rows[0].structure == "pma"
        assert rows[0].stddev == 0.0 and rows[0].mean == rows[0].amortized_cost

    @pytest.mark.parametrize("t_values, repeats", [([0, 150], 3), ([-5], 3), ([0], 0)])
    def test_bad_flags_rejected_before_any_run(
        self, tmp_path, monkeypatch, t_values, repeats
    ):
        spec = write_drift(tmp_path / "d.txt")
        runs = []
        monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
        with pytest.raises(ConfigError):
            run_robustness(spec, 9, t_values, repeats=repeats)
        assert runs == []

    def test_empty_corruption_list_rejected_before_any_load(self, monkeypatch, selections):
        loads, runs = [], []
        monkeypatch.setattr(harness, "load_dataset", loads.append)
        monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
        with pytest.raises(ConfigError, match="no corruption percentages"):
            run_robustness(ACTIONS, 8, [], repeats=2)
        assert loads == [] and selections == [] and runs == []

    @pytest.mark.parametrize("t", [0, 25])
    def test_negative_first_seed_rejected_before_any_load(
        self, monkeypatch, selections, t
    ):
        loads, runs = [], []
        monkeypatch.setattr(harness, "load_dataset", loads.append)
        monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
        with pytest.raises(ConfigError, match="-4 negative"):
            run_robustness(ACTIONS, 8, [t], repeats=2, base_seed=-5)
        assert loads == [] and selections == [] and runs == []

    @pytest.mark.parametrize("t_values, base_seed", [([12.5], 0), ([0, 25], 1.5)])
    def test_non_integer_level_or_seed_rejected_before_any_load(
        self, monkeypatch, selections, t_values, base_seed
    ):
        loads, runs = [], []
        monkeypatch.setattr(harness, "load_dataset", loads.append)
        monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
        with pytest.raises(ConfigError, match="must be integers"):
            run_robustness(ACTIONS, 8, t_values, repeats=2, base_seed=base_seed)
        assert loads == [] and selections == [] and runs == []

    def test_seed_minus_one_corrupts_from_seed_zero(self, monkeypatch):
        seeds = []
        inner = harness.corrupt

        def spy(pred, t, seed):
            seeds.append(seed)
            return inner(pred, t, seed)

        monkeypatch.setattr(harness, "corrupt", spy)
        rows = run_robustness(ACTIONS, 6, [25], repeats=2, base_seed=-1,
                              structures=("learned-pma",))
        assert seeds == [0, 1] and len(rows) == 1


class TestWitnessWiring:
    """_run_config's merge listener checks every merge against the ranks
    each key was routed by (its prediction, or 1 on a blind row) and the
    true ranks it is given."""

    @staticmethod
    def stream():
        rng = random.Random(4)
        raws = rng.sample(range(10**9), 256)
        true_ranks = harness._true_ranks(raws)
        preds = [min(max(r + rng.randint(-8, 8), 1), 256) for r in true_ranks]
        return raws, preds, true_ranks

    @pytest.mark.parametrize("structure", ["learned-pma", "learned-apma", "pma"])
    def test_real_ranks_witness_every_merge(self, structure):
        raws, preds, true_ranks = self.stream()
        if structure == "pma":
            preds = None
        _, merges = harness._run_config(structure, raws, preds, true_ranks)
        assert merges > 0

    @pytest.mark.parametrize("structure", ["learned-pma", "pma"])
    def test_ranks_equal_to_routing_fail_the_first_merge(self, structure):
        raws, preds, _ = self.stream()
        routed = [1] * len(raws) if structure == "pma" else preds
        with pytest.raises(AssertionError, match="has no element with prediction error"):
            harness._run_config(structure, raws,
                                None if structure == "pma" else preds, routed)


class TestSynthetic:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            run_synthetic("noisy-eta", 100, seed=1, eta=4)  # not a power of two
        with pytest.raises(ConfigError):
            run_synthetic("noisy-eta", 128, seed=1)  # eta missing
        with pytest.raises(ConfigError):
            run_synthetic("stochastic", 128, seed=1, mu=0.0)  # s missing
        with pytest.raises(ConfigError):
            run_synthetic("色々", 128, seed=1)

    @pytest.mark.parametrize("kind, n, kw, name", [
        ("random", 64.0, {}, "n=64.0"),
        ("random", 64, {"seed": 1.5}, "seed=1.5"),
        ("noisy-eta", 64, {"eta": 2.5}, "eta=2.5"),
    ], ids=["n", "seed", "eta"])
    def test_non_integer_parameter_rejected_before_any_run(self, monkeypatch, kind, n, kw,
                                                           name):
        # Unchecked, n=64.0 dies in `n & (n - 1)`, eta=2.5 in randrange, and
        # seed=1.5 runs and writes 1.500000 in the seed column.
        runs = []
        monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
        with pytest.raises(ConfigError, match=f"{name}: parameters must be integers"):
            run_synthetic(kind, n, **kw)
        assert runs == []

    @pytest.mark.parametrize("kw, message", [
        ({"mu": "0", "s": 1.0}, "mu='0': parameters must be real numbers"),
        ({"mu": 0.0, "s": "1"}, "s='1': parameters must be real numbers"),
        ({"mu": 10**400, "s": 1.0}, "mu must be finite and fit a float"),
        ({"mu": 0.0, "s": 10**400}, "s must be finite and fit a float"),
    ], ids=["mu", "s", "mu-past-float", "s-past-float"])
    def test_non_real_spread_rejected_before_any_run(self, monkeypatch, kw, message):
        # Unchecked, a str reaches `isfinite` and raises TypeError, and an
        # int past the float range raises OverflowError there.
        made, runs = [], []
        monkeypatch.setattr(harness, "_synthesize", lambda *a: made.append(a))
        monkeypatch.setattr(harness, "_run_config", lambda *a, **kw: runs.append(a))
        with pytest.raises(ConfigError, match=f"^{message}"):
            run_synthetic("stochastic", 64, **kw)
        assert made == runs == []

    @pytest.mark.parametrize("mu, s, label", [
        (True, 1, "mu=1.0;s=1.0"),
        (0, 1, "mu=0.0;s=1.0"),
        (Fraction(1, 2), Fraction(3, 2), "mu=0.5;s=1.5"),
        (-0.0, -0.0, "mu=0.0;s=0.0"),
    ], ids=["bool", "int", "fraction", "negative-zero"])
    def test_spread_is_written_as_its_float(self, mu, s, label):
        def run(mu, s):
            return run_synthetic("stochastic", 64, mu=mu, s=s, structures=("learned-pma",))

        (row,) = run(mu, s)
        assert row.dataset == f"synth-stochastic:{label}"
        assert [row] == run(float(mu) + 0.0, float(s) + 0.0)

    def test_bool_seed_is_written_as_its_integer(self):
        (row,) = run_synthetic("random", 64, seed=True, structures=("pma",))
        assert row.seed == 1 and type(row.seed) is int
        assert row == run_synthetic("random", 64, seed=1, structures=("pma",))[0]

    def test_bool_corruption_level_is_written_as_its_integer(self):
        def run(t):
            return run_robustness(ACTIONS, 6, [t], repeats=1, structures=("learned-pma",))

        (row,) = run(True)
        assert row.structure == "learned-pma:t=1"
        assert [row] == run(1)

    def test_every_merge_is_checked_for_its_witness(self, monkeypatch):
        # With witnesses found everywhere, a run that merges proves nothing;
        # a check that always fails must stop it at the first merge.
        monkeypatch.setattr(harness, "witness_error_check", lambda *a: False)
        with pytest.raises(AssertionError, match="learned-pma: merged rank window"):
            run_synthetic("noisy-eta", 512, seed=5, eta=16, structures=("learned-pma",))

    def test_stochastic_zero_spread_is_valid(self):
        (row,) = run_synthetic("stochastic", 64, seed=1, mu=0.0, s=0.0,
                               structures=("learned-pma",))
        assert row.dataset == "synth-stochastic:mu=0.0;s=0.0"
        assert row.eta_max == 0 and row.merges == 0

    def test_stochastic_huge_finite_spread_clamps(self):
        (row,) = run_synthetic("stochastic", 64, seed=1, mu=0.0, s=1e308,
                               structures=("learned-pma",))
        assert 32 <= row.eta_max <= 63  # every prediction lands on 1 or 64

    def test_exact_rank_kinds_cost_nothing_for_learned(self):
        for kind in ("sequential", "hammer", "random"):
            rows = run_synthetic(
                kind, 256, seed=5, structures=("learned-pma", "learned-apma")
            )
            for r in rows:
                assert r.amortized_cost == 0.0, (kind, r.structure)
                assert r.merges == 0 and r.eta_max == 0

    def test_noise_bound_reflected_in_eta(self):
        rows = run_synthetic("noisy-eta", 512, seed=5, eta=16)
        learned = [r for r in rows if r.structure.startswith("learned")]
        assert all(0 < r.eta_max <= 16 for r in learned)
        assert all(r.merges > 0 for r in learned)


# ----------------------------------------------------------------------
# committed fixtures (synthetic stand-ins with the real column layouts)

FIXTURES = Path(__file__).resolve().parent / "data"
MAKE_FIXTURES = FIXTURES.parents[1] / "scripts" / "make_fixtures.py"


class TestFixtures:
    def test_generator_rewrites_the_committed_bytes(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("make_fixtures", MAKE_FIXTURES)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT", tmp_path)
        script.main()
        for name in ("checkins_sample.txt", "actions_sample.tsv", "messages_sample.txt"):
            assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name

    def test_checkins_smoke(self):
        spec = DatasetSpec(
            FIXTURES / "checkins_sample.txt", value_column=2, timestamp_column=1
        )
        rows = run_table(spec, 4)
        assert len(rows) == 4
        assert all(r.amortized_cost >= 0.0 for r in rows)

    def test_actions_smoke(self):
        spec = DatasetSpec(
            FIXTURES / "actions_sample.tsv", value_column=1, timestamp_column=3
        )
        assert len(run_table(spec, 4)) == 4

    def test_messages_smoke(self):
        spec = DatasetSpec(
            FIXTURES / "messages_sample.txt", value_column=1, timestamp_column=2
        )
        assert len(run_table(spec, 4)) == 4

    def test_cli_on_fixture(self, tmp_path):
        out = tmp_path / "o.csv"
        code = cli_main(
            ["table", "--dataset", str(FIXTURES / "checkins_sample.txt"),
             "--value-col", "2", "--ts-col", "1", "--k", "5",
             "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 5


# ----------------------------------------------------------------------
# baseline semantics


def test_wrapped_blind_tracks_standalone_array_at_same_capacity():
    n = 1024
    raws = random.Random(12).sample(range(10**9), n)

    lla = LearnedLLA(n + 1)
    lla.insert(MIN_RAW, 0, 1)
    moved_w = sum(lla.insert(raw, i + 1, 1) for i, raw in enumerate(raws))

    pma = Pma(6 * lla.n)  # the wrapper's six slots per rank
    pma.insert(MIN_RAW, 0)
    moved_s = sum(pma.insert(raw, i + 1) for i, raw in enumerate(raws))

    stored_w = sorted(r for r, _, _ in lla.global_labels() if r != MIN_RAW)
    stored_s = sorted(e[0] for e in pma.slots if e is not None and e[0] != MIN_RAW)
    assert stored_w == stored_s == sorted(raws)
    ratio = moved_w / moved_s
    assert ratio <= 1.5  # measured 0.81 on this stream


# ----------------------------------------------------------------------
# CSV and CLI


class TestCsv:
    def test_header_and_one_line_per_result(self, tmp_path):
        rows = run_synthetic("random", 64, seed=2)
        out = tmp_path / "r.csv"
        emit_csv(rows, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_synthetic("noisy-eta", 128, seed=3, eta=8), a)
        emit_csv(run_synthetic("noisy-eta", 128, seed=3, eta=8), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_csv([], tmp_path / "x.csv")


class TestCli:
    def test_synth_writes_csv(self, tmp_path):
        out = tmp_path / "o.csv"
        code = cli_main(
            ["synth", "--kind", "random", "--n", "64", "--seed", "2",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER

    def test_structure_filter(self, tmp_path):
        out = tmp_path / "o.csv"
        code = cli_main(
            ["synth", "--kind", "sequential", "--n", "64", "--structure",
             "apma", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and lines[1].startswith("apma,")

    def test_config_error_exits_2(self, tmp_path):
        spec_file = tmp_path / "tiny.txt"
        spec_file.write_text("1\n2\n3\n", encoding="utf-8")
        code = cli_main(
            ["table", "--dataset", str(spec_file), "--k", "10",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert not (tmp_path / "o.csv").exists()

    def test_failed_run_keeps_existing_out(self, tmp_path):
        out = tmp_path / "o.csv"
        out.write_bytes(b"earlier,run\n")
        code = cli_main(
            ["table", "--dataset", str(tmp_path / "absent.txt"), "--k", "4",
             "--out", str(out)]
        )
        assert code == 3
        assert out.read_bytes() == b"earlier,run\n"

    @pytest.mark.parametrize(
        "flags",
        [["--t", "150"], ["--t", "-5"], ["--repeats", "0"], ["--t", "25", "--seed", "-5"]],
    )
    def test_bad_robustness_flags_exit_2(self, tmp_path, capsys, selections, flags):
        spec = write_drift(tmp_path / "d.txt")
        code = cli_main(
            ["robustness", "--dataset", str(spec.path), "--value-col", "1",
             "--k", "9", *flags]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("llabench: ") and captured.err.count("\n") == 1
        assert selections == []

    @pytest.mark.parametrize(
        "args",
        [
            ["table", "--k", "-1"],
            ["curve", "--test-k", "-2"],
            ["scaling", "--k-min", "-1", "--k-max", "2"],
            ["robustness", "--k", "-1"],
            ["table", "--k", "4", "--value-col", "-1"],
            ["table", "--k", "4", "--ts-col", "-1"],
        ],
    )
    def test_negative_size_or_column_exits_2_before_loading(
        self, capsys, monkeypatch, args
    ):
        loads = []
        monkeypatch.setattr(harness, "load_dataset", loads.append)
        code = cli_main([*args, "--dataset", str(ACTIONS.path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("llabench: ")
        assert loads == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mu", "nan", "--s", "1"],
            ["--mu", "inf", "--s", "1"],
            ["--mu", "0", "--s", "inf"],
            ["--mu", "0", "--s", "-4"],
        ],
    )
    def test_bad_stochastic_flags_exit_2_before_any_run(
        self, capsys, monkeypatch, flags
    ):
        runs = []
        monkeypatch.setattr(harness, "_rows", lambda *a, **kw: runs.append(a))
        code = cli_main(["synth", "--kind", "stochastic", "--n", "64", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("llabench: ")
        assert runs == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "stochastic", "--mu", "0", "--s", "1", "--eta", "3"],
            ["--kind", "random", "--eta", "64"],
            ["--kind", "noisy-eta", "--eta", "4", "--mu", "0"],
            ["--kind", "hammer", "--s", "2"],
        ],
    )
    def test_synth_flag_the_kind_does_not_read_exits_2_before_any_run(
        self, capsys, monkeypatch, flags
    ):
        runs = []
        monkeypatch.setattr(harness, "_rows", lambda *a, **kw: runs.append(a))
        code = cli_main(["synth", "--n", "8", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("llabench: ") and "does not read" in captured.err
        assert runs == []

    def test_negative_synth_seed_exits_2_before_any_run(self, capsys, monkeypatch):
        # random.Random(-3) draws what random.Random(3) draws, so --seed -3
        # would write the rows of --seed 3 under another seed.
        runs = []
        monkeypatch.setattr(harness, "_rows", lambda *a, **kw: runs.append(a))
        code = cli_main(["synth", "--kind", "random", "--n", "1024", "--seed", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "llabench: seed -3 is negative\n"
        assert runs == []

    @pytest.mark.parametrize(
        "args",
        [["robustness", "--k", "8", "--t", ","], ["curve", "--test-k", "8", "--fractions", ","]],
    )
    def test_empty_list_flag_exits_2_before_loading(
        self, capsys, monkeypatch, selections, args
    ):
        loads = []
        monkeypatch.setattr(harness, "load_dataset", loads.append)
        code = cli_main([*args, "--dataset", str(ACTIONS.path), "--value-col", "1",
                         "--ts-col", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("llabench: ")
        assert loads == [] and selections == []

    @pytest.mark.parametrize(
        "args, err",
        [(["robustness", "--k", "8", "--t", "0,10,10"],
          "llabench: corruption percentages [0, 10, 10] repeat a level\n"),
         (["curve", "--test-k", "8", "--fractions", "10,50,10"],
          "llabench: train fractions [10, 50, 10] share a 25-row window\n"),
         # 1% and 2% of 16 rows both round down to the same empty window
         (["curve", "--test-k", "4", "--fractions", "1,2"],
          "llabench: train fractions [1, 2] share a 0-row window\n")],
        ids=["robustness", "curve", "curve-same-span"],
    )
    def test_repeated_list_value_exits_2_before_loading(
        self, capsys, monkeypatch, selections, args, err
    ):
        # A repeated level or training window would run its point twice and
        # write each of its rows twice.
        loads = []
        monkeypatch.setattr(harness, "load_dataset", loads.append)
        code = cli_main([*args, "--dataset", str(ACTIONS.path), "--value-col", "1",
                         "--ts-col", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == err
        assert loads == [] and selections == []

    @pytest.mark.parametrize("out", ["missing/dir/o.csv", "."])
    def test_unwritable_out_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, out):
        runs = []
        monkeypatch.setattr(harness, "_rows", lambda *a, **kw: runs.append(a))
        code = cli_main(["synth", "--kind", "random", "--n", "1024",
                         "--out", str(tmp_path / out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("llabench: --out ")
        assert captured.err.count("\n") == 1
        assert runs == []

    def test_data_error_exits_3(self, tmp_path):
        code = cli_main(
            ["table", "--dataset", str(tmp_path / "absent.txt"), "--k", "4",
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 3
        assert not (tmp_path / "o.csv").exists()
