"""Time-indexed signal database.

The time axis is the ordered sequence of distinct timestamps that
appeared in the dump; queries address positions on that axis ("indexes"),
not raw timestamps. Each signal stores only its change points; lookups
between changes return the value carried forward, and lookups before the
first change return all-x. The axis and each signal's change indexes are
sequences of ints: the VCD reader keeps them in array('Q'), and the axis
in a list once a timestamp is past 2**64 - 1.
"""

from bisect import bisect_right
from typing import Sequence

from .errors import RunFailure
from .value import Value, all_x


class SignalSeries:
    """Change history of one signal: parallel (sorted indexes, values)."""

    __slots__ = ("width", "indexes", "values")

    def __init__(self, width: int, indexes: Sequence[int], values: list[Value]):
        self.width = width
        self.indexes = indexes
        self.values = values

    def value_at(self, index: int) -> Value:
        # rightmost change at or before index, else undefined
        pos = bisect_right(self.indexes, index) - 1
        if pos < 0:
            return all_x(self.width)
        return self.values[pos]


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
            raise RunFailure(f"unknown signal {name!r}") from None
