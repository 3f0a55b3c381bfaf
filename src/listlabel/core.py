"""Core types shared by every list-labeling structure in this package.

A list-labeling structure stores n keys in a sparse array of m slots so that
occupied slots read in sorted order.  The slot index of an element is its
*label*; the cost of the structure is the number of times elements are
assigned new labels ("movements").  Everything here is deliberately small:
keys, the movement ledger and parse helpers.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "SCALE",
    "MIN_RAW",
    "CapacityError",
    "Key",
    "MovementLedger",
    "ParseError",
    "UndefinedCostError",
    "fixed_point_parse",
]

# Keys are signed 64-bit fixed-point values with 7 fractional decimal digits.
# That is enough to hold GPS coordinates exactly as they appear in check-in
# datasets and plain integer IDs alike (IDs scale by 10^7 and stay well inside
# the int64 range).
SCALE = 10**7
RAW_MAX = 92 * 10**17  # |value| <= 9.2e11 after scaling

# Sentinel below every parseable key. Benchmarks insert it first so adaptive
# structures see the same leading insert regardless of configuration; it is
# excluded from all reported statistics.
MIN_RAW = -(2**63)

# "No key here" markers, above and below every key (see check_raw).
INF_RAW = 2**63 - 1
NEG_INF_RAW = MIN_RAW - 1


class Key(NamedTuple):
    """A loaded key, its fixed-point raw value, as `load_dataset` returns it."""

    raw: int


def check_raw(raw) -> int:
    """Return `raw` as an int if it is a storable key, else raise ValueError.

    Keys are integers in [MIN_RAW, RAW_MAX].  Every search over stored keys
    (a Pma's leaf minima, LearnedLLA's min/max trees) marks "no key here"
    with INF_RAW above that range or NEG_INF_RAW below it, so a marker never
    equals a key.  A float (NaN above all) compares in ways sorted order
    cannot survive, so it is rejected too, before anything is stored.
    """
    try:
        raw = operator.index(raw)
    except TypeError:
        raise ValueError(f"key must be an integer, not {raw!r}") from None
    if not MIN_RAW <= raw <= RAW_MAX:
        raise ValueError(f"key {raw} outside [{MIN_RAW}, {RAW_MAX}]")
    return raw


class ParseError(ValueError):
    pass


class CapacityError(RuntimeError):
    """Raised when an insert cannot be accommodated at the current size."""


class UndefinedCostError(ZeroDivisionError):
    """Amortized cost requested before any insert was recorded."""


# ASCII digits only: \d would also admit other scripts' digits.
_NUMBER_RE = re.compile(r"^[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)$")
_INT_DIGITS = len(str(RAW_MAX // SCALE))


def fixed_point_parse(text: str, line: int | None = None) -> int:
    """Parse a decimal string to a raw fixed-point value (units of 1e-7).

    Scientific notation is rejected on purpose: dataset files that contain
    it are almost always corrupt exports, and silently accepting "1e3" as a
    coordinate has burned us before.  Fractions beyond 7 digits round half
    away from zero.

    A plain integer -- ASCII digits only, at most `_INT_DIGITS` of them, in
    range -- is scaled without the regex; anything else, each error
    included, takes the general path.
    """
    t = text.strip()
    if t.isascii() and t.isdigit() and len(t) <= _INT_DIGITS:
        raw = int(t) * SCALE
        if raw <= RAW_MAX:
            return raw
    where = f"line {line}: " if line is not None else ""
    if not _NUMBER_RE.match(t):
        raise ParseError(f"{where}not a plain decimal number: {text!r}")
    sign = -1 if t[0] == "-" else 1
    int_part, _, frac_part = t.lstrip("+-").partition(".")
    int_part = int_part.lstrip("0")
    if len(int_part) > _INT_DIGITS:  # before int(), which caps a string's digits
        raise ParseError(f"{where}value out of range: {text!r}")
    magnitude = int(int_part or "0") * SCALE
    frac = frac_part[:7].ljust(7, "0")
    magnitude += int(frac)
    # Round half up on the magnitude: only the 8th fractional digit decides.
    if len(frac_part) > 7 and frac_part[7] >= "5":
        magnitude += 1
    raw = sign * magnitude
    if abs(raw) > RAW_MAX:
        raise ParseError(f"{where}value out of range: {text!r}")
    return raw


@dataclass
class MovementLedger:
    """Counts element movements and inserts for amortized-cost reporting.

    Two accounting conventions exist for a brand-new element's first label:
    theory statements charge it as a movement, benchmark practice does not
    (every element trivially needs one placement).  `first_placement_excluded`
    selects the convention; benchmarks use True, library-level cost arguments
    default to False.  It is the only constructor argument: the running
    totals start at 0 and change only through the record methods and reset.
    """

    first_placement_excluded: bool = False
    total_movements: int = field(default=0, init=False)
    total_inserts: int = field(default=0, init=False)

    def record_insert(self, moved_existing: int = 0) -> None:
        self.total_inserts += 1
        self.total_movements += moved_existing
        if not self.first_placement_excluded:
            self.total_movements += 1

    def record_moves(self, count: int) -> None:
        # Relabels of already-present elements, e.g. during a rebuild.
        self.total_movements += count

    def record_init(self, placed: int) -> None:
        if not self.first_placement_excluded:
            self.total_movements += placed

    def amortized_cost(self) -> float:
        if self.total_inserts == 0:
            raise UndefinedCostError("no inserts recorded")
        return self.total_movements / self.total_inserts

    def reset(self) -> None:
        self.total_movements = 0
        self.total_inserts = 0


def clamp(value: int, lo: int, hi: int) -> int:
    return lo if value < lo else hi if value > hi else value
