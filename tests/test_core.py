"""Fixed-point parsing, movement accounting, and ordering primitives."""

import random

import pytest

from listlabel import core
from listlabel.core import (
    RAW_MAX,
    SCALE,
    Key,
    MovementLedger,
    ParseError,
    clamp,
    fixed_point_parse,
)


class TestFixedPointParse:
    def test_plain_values(self):
        assert fixed_point_parse("0") == 0
        assert fixed_point_parse("1") == SCALE
        assert fixed_point_parse("3.5") == 35_000_000
        assert fixed_point_parse("-12.25") == -122_500_000
        assert fixed_point_parse("+7") == 7 * SCALE
        assert fixed_point_parse(" 42\t") == 42 * SCALE
        assert fixed_point_parse("920000000000") == RAW_MAX

    def test_bare_point_forms(self):
        assert fixed_point_parse(".5") == 5_000_000
        assert fixed_point_parse("5.") == 5 * SCALE
        assert fixed_point_parse("-.25") == -2_500_000

    def test_seven_digits_kept_exactly(self):
        assert fixed_point_parse("0.0000001") == 1
        assert fixed_point_parse("-0.0000001") == -1
        assert fixed_point_parse("41.1234567") == 411_234_567

    def test_eighth_digit_rounds_half_up(self):
        assert fixed_point_parse("0.00000014") == 1
        assert fixed_point_parse("0.00000015") == 2
        assert fixed_point_parse("0.00000024999") == 2
        # magnitude rounds, then the sign applies
        assert fixed_point_parse("-0.00000015") == -2

    def test_rejects_non_numbers(self):
        # Arabic-Indic "1.00000000" and "12", fullwidth "12" and superscript
        # "2": str.isdigit accepts the last three, and re's \d the first three.
        arabic_one = "\u0661." + "\u0660" * 8
        arabic_twelve = "\u0661\u0662"
        fullwidth_twelve = "\uff11\uff12"
        for bad in ["", "abc", "1e5", "--3", "1.2.3", "nan", "0x10",
                    arabic_one, arabic_twelve, fullwidth_twelve, "\u00b2"]:
            with pytest.raises(ParseError):
                fixed_point_parse(bad)

    def test_error_message_is_the_reason_alone(self):
        # load_dataset prefixes the line number; the parser knows no lines
        with pytest.raises(ParseError, match="^not a plain decimal number: 'junk'$"):
            fixed_point_parse("junk")

    def test_leading_zeros_past_the_int_digit_limit(self):
        # more digits than CPython's int() accepts from a string, value 1.0
        assert fixed_point_parse("0" * 4400 + "1") == 10**7
        assert fixed_point_parse("-" + "0" * 4400 + "1.5") == -15_000_000

    def test_too_many_integer_digits_is_out_of_range(self):
        with pytest.raises(ParseError, match="^value out of range"):
            fixed_point_parse("9" * 5000)
        with pytest.raises(ParseError, match="value out of range"):
            fixed_point_parse("1" + "0" * 12)  # 13 digits, just past RAW_MAX
        with pytest.raises(ParseError, match="^value out of range"):
            fixed_point_parse("920000000001")  # 12 digits, past RAW_MAX


def parse_outcome(text):
    """The value, or the ParseError's message, fixed_point_parse gives."""
    try:
        return fixed_point_parse(text)
    except ParseError as exc:
        return ParseError, str(exc)


class TestPlainIntegerShortcut:
    """ASCII digit strings skip the regex; a leading '+' never does, so
    "+" + s always takes the general path and must give the same answer."""

    SWEEP = [
        "0", "7", "007", "00000000000000", "0" * 4400 + "1", "123456789",
        str(RAW_MAX // SCALE), str(RAW_MAX // SCALE + 1), "999999999999",
        "1" + "0" * 12, "9" * 13, "9" * 5000, "",
        "\u0661\u0662", "\u00b2",  # Arabic-Indic "12", superscript 2
    ] + [str(random.Random(seed).randrange(10 ** (seed % 14))) for seed in range(60)]

    @pytest.mark.parametrize("digits", SWEEP,
                             ids=lambda d: d if len(d) <= 16 else f"{d[:4]}..{len(d)}")
    def test_agrees_with_general_path(self, digits):
        plain = parse_outcome(digits)
        general = parse_outcome("+" + digits)
        if isinstance(plain, tuple):
            assert general == (ParseError, plain[1].replace(repr(digits), repr("+" + digits)))
        else:
            assert plain == general == int(digits.lstrip("0") or "0") * SCALE

    def test_only_plain_integers_skip_the_regex(self, monkeypatch):
        matched = []
        number_re = core._NUMBER_RE

        class Spy:
            def match(self, text):
                matched.append(text)
                return number_re.match(text)

        monkeypatch.setattr(core, "_NUMBER_RE", Spy())
        assert fixed_point_parse("123") == 123 * SCALE
        assert matched == []
        for text in ["1.5", "-3", "+3", "0" * 13]:
            fixed_point_parse(text)
        assert matched == ["1.5", "-3", "+3", "0" * 13]


class TestKeyOrdering:
    def test_orders_by_raw(self):
        assert Key._fields == ("raw",)
        assert Key(5) < Key(6)
        assert sorted([Key(3), Key(3), Key(1)]) == [Key(1), Key(3), Key(3)]


class TestMovementLedger:
    def test_theory_mode_counts_first_placement(self):
        led = MovementLedger()
        led.record_insert(moved_existing=0)
        led.record_insert(moved_existing=3)
        assert led.total_inserts == 2
        assert led.total_movements == 5  # two placements + three relabels

    def test_benchmark_mode_excludes_first_placement(self):
        led = MovementLedger(first_placement_excluded=True)
        led.record_insert(moved_existing=0)
        led.record_insert(moved_existing=3)
        assert led.total_movements == 3
        led.record_init(placed=10)  # bulk placements follow the convention
        assert led.total_movements == 3

    def test_running_totals_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            MovementLedger(total_movements=5)
        with pytest.raises(TypeError):
            MovementLedger(total_inserts=1)
        with pytest.raises(TypeError):
            MovementLedger(True, 5)
        assert repr(MovementLedger(first_placement_excluded=True)) == (
            "MovementLedger(first_placement_excluded=True, total_movements=0, total_inserts=0)")

    def test_reset(self):
        led = MovementLedger()
        led.record_insert(moved_existing=4)
        led.reset()
        assert led.total_inserts == 0 and led.total_movements == 0


class TestHelpers:
    def test_clamp(self):
        assert clamp(5, 1, 10) == 5
        assert clamp(-3, 1, 10) == 1
        assert clamp(99, 1, 10) == 10
