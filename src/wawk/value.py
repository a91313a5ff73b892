"""Four-state logic values.

A Value is an immutable bit string over {0, 1, x, z}, most significant bit
first. Conversion to int is only defined when every bit is 0 or 1; anything
else must surface as an explicit runtime error, never a silent guess.

A Value keeps the digits a dump wrote and the width they stand for. Only
`bits` widens them, per the dump format's extension rule: with 0 for a
leading 0 or 1, and with the lead for a leading x or z.
"""

from functools import cache

from .errors import RunFailure

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
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"Value({self.bits!r})"


# Scalar changes dominate any realistic dump (every clock edge is one), so
# the four one-bit values are shared singletons.
SCALARS = {b: Value(b) for b in "01xz"}


@cache
def all_x(width: int) -> Value:
    """The undefined value a signal holds before its first recorded change."""
    return Value("x", width)
