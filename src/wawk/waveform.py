"""Time-indexed signal database of four-state logic values.

A Value is an immutable bit string over {0, 1, x, z}, most significant bit
first. Conversion to int is only defined when every bit is 0 or 1; anything
else must surface as an explicit runtime error, never a silent guess. A
Value keeps the digits a dump wrote and the width they stand for. Only
`bits` widens them, per the dump format's extension rule: with 0 for a
leading 0 or 1, and with the lead for a leading x or z.

The time axis is the ordered sequence of distinct timestamps that
appeared in the dump; queries address positions on that axis ("indexes"),
not raw timestamps. Each signal stores only its change points; lookups
between changes return the value carried forward, and lookups before the
first change return all-x. The axis and each signal's change indexes are
sequences of ints: the VCD reader keeps the axis in array('I') while its
timestamps fit it, then in array('Q'), or in a list once a timestamp is
past 2**64 - 1, and each series' indexes in array('I') until one of its
changes lands past index 2**32 - 1, then in array('Q').
"""

from bisect import bisect_right
from collections.abc import Sequence
from functools import cache

from .errors import RunFailure, quote

BIT_CHARS = frozenset("01xz")


class Value:
    __slots__ = ("digits", "width")

    def __init__(self, digits: str, width: int | None = None):
        self.digits = digits
        self.width = len(digits) if width is None else width
        if not digits or not BIT_CHARS.issuperset(digits) or self.width < len(digits):
            raise ValueError(f"invalid bit string {digits!r} for width {self.width}")

    @property
    def bits(self) -> str:
        digits = self.digits
        return digits.rjust(self.width, "0" if digits[0] in "01" else digits[0])

    @property
    def has_xz(self) -> bool:
        return "x" in self.digits or "z" in self.digits

    def to_int(self) -> int:
        try:
            return int(self.digits, 2)
        except ValueError:
            raise RunFailure(
                f"cannot convert {self.bits!r} to an integer: contains x/z bits"
            ) from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Value) and self.bits == other.bits

    def __hash__(self) -> int:
        # equal bits, equal digits once the lead that widening repeats is gone
        digits = self.digits
        return hash(digits if digits[0] == "1" else digits.lstrip(digits[0]))

    def __repr__(self) -> str:
        return f"Value({self.bits!r})"


# Scalar changes dominate any realistic dump (every clock edge is one), so
# the four one-bit values are shared singletons, and a 1-bit change is
# stored as one byte: its digit's code, the position of its value here.
SCALARS = tuple(Value(b) for b in "01xz")
CODES = {value.digits: code for code, value in enumerate(SCALARS)}


@cache
def all_x(width: int) -> Value:
    """The undefined value a signal holds before its first recorded change."""
    return Value("x", width)


class SignalSeries:
    """Change history of one signal: parallel (sorted indexes, values).
    A 1-bit series keeps a bytearray of CODES, a wider one a list of Values."""

    __slots__ = ("width", "indexes", "values")

    def __init__(self, width: int, indexes: Sequence[int], values: list[Value]):
        self.width = width
        self.indexes = indexes
        self.values = bytearray(CODES[v.bits] for v in values) if width == 1 else values

    def value_at(self, index: int) -> Value:
        # rightmost change at or before index, else undefined
        pos = bisect_right(self.indexes, index) - 1
        if pos < 0:
            return all_x(self.width)
        value = self.values[pos]
        return SCALARS[value] if self.width == 1 else value


class Waveform:
    """Immutable result of parsing a dump: a shared time axis plus one
    SignalSeries per hierarchical signal name."""

    def __init__(
        self,
        timestamps: Sequence[int],
        signals: dict[str, SignalSeries],
        timescale: tuple[int, str] | None = None,
    ):
        self.timestamps = timestamps
        self.signals = signals
        self.timescale = timescale

    @property
    def index_count(self) -> int:
        return len(self.timestamps)

    def series(self, name: str) -> SignalSeries:
        try:
            return self.signals[name]
        except KeyError:
            raise RunFailure(f"unknown signal {quote(name)}") from None
