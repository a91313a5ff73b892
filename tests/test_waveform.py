import pytest

from conftest import make_waveform, wave_from_vcd
from wawk.errors import RunFailure
from wawk.waveform import Value


@pytest.fixture
def wave():
    return make_waveform(10, {
        "t.a": (1, [(0, "0"), (4, "1"), (7, "0")]),
        "t.b": (4, [(2, "1010")]),
        "t.silent": (2, []),
    })


class TestValueAt:
    def test_change_points(self, wave):
        assert wave.series("t.a").value_at(0) == Value("0")
        assert wave.series("t.a").value_at(4) == Value("1")
        assert wave.series("t.a").value_at(7) == Value("0")

    def test_holds_between_changes(self, wave):
        assert wave.series("t.a").value_at(5) == Value("1")
        assert wave.series("t.a").value_at(6) == Value("1")
        assert wave.series("t.a").value_at(9) == Value("0")

    def test_all_x_before_first_change(self, wave):
        assert wave.series("t.b").value_at(0) == Value("xxxx")
        assert wave.series("t.b").value_at(1) == Value("xxxx")
        assert wave.series("t.b").value_at(2) == Value("1010")

    def test_never_changed_signal_is_x_everywhere(self, wave):
        assert wave.series("t.silent").value_at(0) == Value("xx")
        assert wave.series("t.silent").value_at(9) == Value("xx")

    def test_unknown_signal(self, wave):
        with pytest.raises(RunFailure, match="^unknown signal 't.nope'$"):
            wave.series("t.nope")


class TestShape:
    def test_index_count(self, wave):
        assert wave.index_count == 10

    def test_signal_names_sorted(self, wave):
        assert sorted(wave.signals) == ["t.a", "t.b", "t.silent"]

    def test_width_of(self, wave):
        assert wave.series("t.b").width == 4

    def test_empty_waveform(self):
        empty = make_waveform(0, {"x": (1, [])})
        assert empty.index_count == 0


class TestScalarCodes:
    def test_a_hand_built_series_reads_as_the_reader_builds_it(self):
        changes = [(0, "1"), (2, "x"), (3, "z"), (5, "0"), (6, "1")]
        built = make_waveform(8, {"a": (1, changes)}).series("a")
        dump = "$var wire 1 ! a $end\n$enddefinitions $end\n" + "".join(
            f"#{k}\n" + "".join(f"{bits}!\n" for i, bits in changes if i == k) for k in range(8))
        read = wave_from_vcd(dump).series("a")
        assert (built.values, list(built.indexes)) == (read.values, list(read.indexes))
        for k in range(8):  # the same shared object, the one the planner's memo keys on
            assert built.value_at(k) is read.value_at(k)
        assert [built.value_at(k).bits for k in range(8)] == list("11xzz011")
