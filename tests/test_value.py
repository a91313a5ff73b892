import pytest

from conftest import raises_exactly
from wawk.errors import RunFailure
from wawk.waveform import SCALARS, Value, all_x


class TestValue:
    def test_width(self):
        assert Value("0").width == 1
        assert Value("10110").width == 5

    def test_digits_are_kept_and_widened_only_as_bits(self):
        v = Value("101", 8)
        assert (v.digits, v.width, v.bits) == ("101", 8, "00000101")
        assert Value("x1", 4).bits == "xxx1"
        assert Value("z", 3).bits == "zzz"
        assert Value("10z1").digits == "10z1"

    def test_a_width_below_the_digits_is_refused(self):
        with pytest.raises(ValueError):
            Value("101", 2)
        with pytest.raises(ValueError):
            Value("1", 0)

    def test_to_int(self):
        assert Value("0").to_int() == 0
        assert Value("1").to_int() == 1
        assert Value("101").to_int() == 5
        assert Value("00000000000000000000000000010011").to_int() == 0x13

    def test_to_int_rejects_x_and_z(self):
        with raises_exactly(RunFailure, "cannot convert 'x' to an integer: contains x/z bits"):
            Value("x").to_int()
        with raises_exactly(RunFailure, "cannot convert '10z1' to an integer: contains x/z bits"):
            Value("10z1").to_int()

    def test_has_xz(self):
        assert not Value("0101").has_xz
        assert Value("01x1").has_xz
        assert Value("z").has_xz

    def test_equality_is_bitwise(self):
        assert Value("01") == Value("01")
        assert Value("01") != Value("1")  # width matters
        assert Value("x") != Value("z")
        assert len({Value("01"), Value("01"), Value("10")}) == 2
        for short, full in [(Value("101", 8), Value("00000101")), (Value("x1", 4), Value("xxx1")),
                            (Value("0x", 3), Value("00x"))]:
            assert short == full and hash(short) == hash(full)

    def test_rejects_bad_bit_strings(self):
        with pytest.raises(ValueError):
            Value("")
        with pytest.raises(ValueError):
            Value("012")
        with pytest.raises(ValueError):
            Value("0X")  # case is normalized before construction

    def test_scalar_singletons(self):
        assert [v.bits for v in SCALARS] == ["0", "1", "x", "z"]
        assert SCALARS[2].has_xz

    def test_all_x(self):
        v = all_x(32)
        assert v.bits == "x" * 32
        assert (v.digits, v.width) == ("x", 32)
        assert v is all_x(32)
