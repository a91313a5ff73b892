"""Four-state logic values.

A Value is an immutable bit string over {0, 1, x, z}, most significant bit
first. Conversion to int is only defined when every bit is 0 or 1; anything
else must surface as an explicit runtime error, never a silent guess.
"""

from functools import cache

from .errors import RunFailure

_BIT_CHARS = frozenset("01xz")


class Value:
    __slots__ = ("bits",)

    def __init__(self, bits: str):
        if not bits or not _BIT_CHARS.issuperset(bits):
            raise ValueError(f"invalid bit string {bits!r}")
        self.bits = bits

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def has_xz(self) -> bool:
        return "x" in self.bits or "z" in self.bits

    def to_int(self) -> int:
        try:
            return int(self.bits, 2)
        except ValueError:
            raise RunFailure(
                f"cannot convert {self.bits!r} to an integer: contains x/z bits"
            ) from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Value) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"Value({self.bits!r})"


# Scalar changes dominate any realistic dump (every clock edge is one), so
# the four one-bit values are shared singletons.
SCALARS = {b: Value(b) for b in "01xz"}


@cache
def all_x(width: int) -> Value:
    """The undefined value a signal holds before its first recorded change."""
    return Value("x" * width)
