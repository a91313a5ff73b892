import pytest

from conftest import make_waveform
from wawk.errors import IndexOutOfRangeError, UnknownSignalError
from wawk.value import Value


@pytest.fixture
def wave():
    return make_waveform(10, {
        "t.a": (1, [(0, "0"), (4, "1"), (7, "0")]),
        "t.b": (4, [(2, "1010")]),
        "t.silent": (2, []),
    })


class TestValueAt:
    def test_change_points(self, wave):
        assert wave.value_at("t.a", 0) == Value("0")
        assert wave.value_at("t.a", 4) == Value("1")
        assert wave.value_at("t.a", 7) == Value("0")

    def test_holds_between_changes(self, wave):
        assert wave.value_at("t.a", 5) == Value("1")
        assert wave.value_at("t.a", 6) == Value("1")
        assert wave.value_at("t.a", 9) == Value("0")

    def test_all_x_before_first_change(self, wave):
        assert wave.value_at("t.b", 0) == Value("xxxx")
        assert wave.value_at("t.b", 1) == Value("xxxx")
        assert wave.value_at("t.b", 2) == Value("1010")

    def test_never_changed_signal_is_x_everywhere(self, wave):
        assert wave.value_at("t.silent", 0) == Value("xx")
        assert wave.value_at("t.silent", 9) == Value("xx")

    def test_unknown_signal(self, wave):
        with pytest.raises(UnknownSignalError):
            wave.value_at("t.nope", 0)

    def test_index_bounds(self, wave):
        with pytest.raises(IndexOutOfRangeError):
            wave.value_at("t.a", 10)
        with pytest.raises(IndexOutOfRangeError):
            wave.value_at("t.a", -1)


class TestShape:
    def test_index_count(self, wave):
        assert wave.index_count == 10

    def test_signal_names_sorted(self, wave):
        assert wave.signal_names() == ["t.a", "t.b", "t.silent"]

    def test_width_of(self, wave):
        assert wave.width_of("t.b") == 4

    def test_empty_waveform(self):
        empty = make_waveform(0, {"x": (1, [])})
        assert empty.index_count == 0
        with pytest.raises(IndexOutOfRangeError):
            empty.value_at("x", 0)
