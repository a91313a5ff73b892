"""Time-indexed signal database.

The time axis is the ordered list of distinct timestamps that appeared in
the dump; queries address positions on that axis ("indexes"), not raw
timestamps. Each signal stores only its change points; lookups between
changes return the value carried forward, and lookups before the first
change return all-x.
"""

from bisect import bisect_right

from .errors import IndexOutOfRangeError, UnknownSignalError
from .value import Value, all_x


class SignalSeries:
    """Change history of one signal: parallel (sorted indexes, values)."""

    __slots__ = ("width", "indexes", "values")

    def __init__(self, width: int, indexes: list[int], values: list[Value]):
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
        timestamps: list[int],
        signals: dict[str, SignalSeries],
        timescale: tuple[int, str] | None = None,
    ):
        self.timestamps = timestamps
        self.signals = signals
        self.timescale = timescale

    @property
    def index_count(self) -> int:
        return len(self.timestamps)

    def signal_names(self) -> list[str]:
        return sorted(self.signals)

    def has_signal(self, name: str) -> bool:
        return name in self.signals

    def series(self, name: str) -> SignalSeries:
        try:
            return self.signals[name]
        except KeyError:
            raise UnknownSignalError(f"unknown signal {name!r}") from None

    def width_of(self, name: str) -> int:
        return self.series(name).width

    def timestamp_of(self, index: int) -> int:
        self._check_index(index)
        return self.timestamps[index]

    def value_at(self, name: str, index: int) -> Value:
        self._check_index(index)
        return self.series(name).value_at(index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.timestamps):
            raise IndexOutOfRangeError(
                f"index {index} out of range for trace with {len(self.timestamps)} indexes"
            )
