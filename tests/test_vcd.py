import io
import sys
import tracemalloc

import pytest

from conftest import parse_by_token_loop, raises_exactly, token_loop_lines
from wawk import vcd
from wawk.errors import VcdError
from wawk.tracegen import generate, table1_spec
from wawk.vcd import parse_vcd

BASIC = """\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 8 " bus [7:0] $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
b0 "
$end
#5
1!
b101 "
#10
0!
#20
1!
bx "
"""


def parse(text):
    return parse_vcd(io.StringIO(text))


class TestBasics:
    def test_time_axis(self):
        wave = parse(BASIC)
        assert wave.index_count == 4
        assert list(wave.timestamps) == [0, 5, 10, 20]
        assert wave.timestamps[2] == 10

    def test_axis_and_change_indexes_are_machine_words(self):
        wave = parse(BASIC)
        assert wave.timestamps.typecode == "Q"
        assert {s.indexes.typecode for s in wave.signals.values()} == {"I"}
        assert list(wave.series("top.clk").indexes) == [0, 1, 2, 3]

    def test_timescale(self):
        assert parse(BASIC).timescale == (1, "ns")

    def test_multiline_timescale(self):
        text = BASIC.replace("$timescale 1ns $end", "$timescale\n  10 us\n$end")
        assert parse(text).timescale == (10, "us")

    def test_hierarchical_names(self):
        wave = parse(BASIC)
        assert sorted(wave.signals) == ["top.bus", "top.clk"]
        assert wave.series("top.bus").width == 8

    def test_values_carry_forward(self):
        wave = parse(BASIC)
        clk = [wave.series("top.clk").value_at(i).bits for i in range(4)]
        assert clk == ["0", "1", "0", "1"]
        # bus changes at 0, 1, and 3; index 2 keeps the index-1 value
        assert wave.series("top.bus").value_at(2).bits == "00000101"


class TestValueRules:
    def test_zero_one_left_extends_with_zeros(self):
        wave = parse(BASIC)
        assert wave.series("top.bus").value_at(1).bits == "00000101"

    def test_x_left_extends_with_x(self):
        wave = parse(BASIC)
        assert wave.series("top.bus").value_at(3).bits == "x" * 8

    def test_z_left_extends_with_z(self):
        text = BASIC + "#30\nbz1 \"\n"
        wave = parse(text)
        assert wave.series("top.bus").value_at(4).bits == "zzzzzzz1"

    def test_short_changes_to_a_wide_id_stay_short(self):
        # 1,000 changes to a 65,536-bit id: widened as stored, they took 62.8 MB
        text = "$var wire 65536 ! w $end\n$enddefinitions $end\n" + "".join(
            f"#{k}\nb{k:b} !\n" for k in range(1000))
        tracemalloc.start()
        try:
            wave = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        series = wave.series("w")
        assert [series.value_at(k).digits for k in (998, 999)] == ["1111100110", "1111100111"]
        assert series.value_at(999).bits == format(999, "065536b")

    def test_value_before_first_change_is_all_x(self):
        text = BASIC.replace("b0 \"\n", "")  # bus first changes at index 1
        wave = parse(text)
        assert wave.series("top.bus").value_at(0).bits == "x" * 8

    def test_declared_but_never_dumped_reads_x(self):
        text = BASIC.replace('$var wire 8 " bus [7:0] $end',
                             '$var wire 8 " bus [7:0] $end\n$var wire 4 # spare $end')
        wave = parse(text)
        for i in range(4):
            assert wave.series("top.spare").value_at(i).bits == "xxxx"

    def test_same_index_last_write_wins(self):
        text = BASIC + "#30\nb1 \"\nb1010 \"\n"
        wave = parse(text)
        assert wave.series("top.bus").value_at(4).bits == "00001010"

    def test_case_insensitive_value_characters(self):
        text = BASIC + "#30\nbX1Z0 \"\n#40\nZ!\n"
        wave = parse(text)
        assert wave.series("top.bus").value_at(4).bits == "xxxxx1z0"
        assert wave.series("top.clk").value_at(5).bits == "z"

    def test_vector_id_on_next_line(self):
        text = BASIC + "#30\nb111\n\"\n"
        wave = parse(text)
        assert wave.series("top.bus").value_at(4).bits == "00000111"

    def test_changes_before_first_timestamp_land_at_index_zero(self):
        text = """\
$var wire 2 ! a $end
$enddefinitions $end
b10 !
#3
#4
b11 !
"""
        wave = parse(text)
        assert list(wave.timestamps) == [3, 4]
        assert wave.series("a").value_at(0).bits == "10"
        assert wave.series("a").value_at(1).bits == "11"

    def test_changes_with_no_timestamp_leave_every_series_empty(self):
        text = "$var wire 1 ! a $end\n$var wire 4 \" b $end\n$enddefinitions $end\n1!\nb1 \"\n"
        wave = parse(text)
        assert wave.index_count == 0
        assert [(len(s.indexes), len(s.values)) for s in wave.signals.values()] == [(0, 0)] * 2

    def test_every_hash_makes_an_index_even_without_changes(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#0\n1!\n#7\n#9\n"
        wave = parse(text)
        assert wave.index_count == 3
        assert [wave.series("a").value_at(i).bits for i in range(3)] == ["1", "1", "1"]

    def test_id_code_aliasing_fans_out(self):
        text = """\
$scope module top $end
$var wire 1 ! a $end
$var wire 1 ! mirror $end
$upscope $end
$enddefinitions $end
#0
1!
#1
0!
"""
        wave = parse(text)
        assert wave.series("top.a").value_at(1).bits == "0"
        assert wave.series("top.mirror").value_at(1).bits == "0"


class TestErrors:
    def test_missing_enddefinitions(self):
        with raises_exactly(VcdError, "line 2: unexpected token '#0' in header"):
            parse("$var wire 1 ! a $end\n#0\n")

    def test_non_increasing_timestamp(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#5\n#5\n"
        with raises_exactly(VcdError, "line 4: timestamp #5 does not increase (previous #5)"):
            parse(text)

    def test_decreasing_timestamp(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#5\n#4\n"
        with raises_exactly(VcdError, "line 4: timestamp #4 does not increase (previous #5)"):
            parse(text)

    def test_negative_timestamp(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#-1\n"
        with raises_exactly(VcdError, "line 3: invalid timestamp '#-1'"):
            parse(text)

    def test_undeclared_id_code(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#0\n1?\n"
        with raises_exactly(VcdError, "line 4: undeclared id code '?'"):
            parse(text)

    def test_too_wide_value(self):
        text = "$var wire 2 ! a $end\n$enddefinitions $end\n#0\nb101 !\n"
        with raises_exactly(VcdError, "line 4: 3-bit value for 2-bit id code '!'"):
            parse(text)

    def test_real_changes_rejected(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#0\nr1.5 !\n"
        with raises_exactly(VcdError, "line 4: real-number change 'r1.5' is not supported"):
            parse(text)

    def test_non_module_scope_rejected(self):
        text = "$scope interface blk $end\n$enddefinitions $end\n"
        with raises_exactly(VcdError, "line 1: unsupported scope type 'interface'"):
            parse(text)

    def test_unsupported_var_type_rejected(self):
        text = "$var real 1 ! a $end\n$enddefinitions $end\n"
        with raises_exactly(VcdError, "line 1: unsupported variable type 'real'"):
            parse(text)

    def test_unknown_directive_rejected(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#0\n$dumpports\n"
        message = "line 4: unsupported directive '$dumpports' in change region"
        with raises_exactly(VcdError, message):
            parse(text)

    def test_duplicate_name_rejected(self):
        text = "$var wire 1 ! a $end\n$var wire 1 \" a $end\n$enddefinitions $end\n"
        with raises_exactly(VcdError, "line 2: duplicate signal name 'a'"):
            parse(text)

    def test_alias_width_conflict_rejected(self):
        text = "$var wire 1 ! a $end\n$var wire 2 ! b $end\n$enddefinitions $end\n"
        with raises_exactly(VcdError, "line 2: id code '!' re-declared with width 2, was 1"):
            parse(text)

    def test_unclosed_scope_rejected(self):
        text = "$scope module top $end\n$enddefinitions $end\n"
        with raises_exactly(VcdError, "line 2: unclosed $scope"):
            parse(text)

    def test_unbalanced_upscope_rejected(self):
        text = "$upscope $end\n$enddefinitions $end\n"
        with raises_exactly(VcdError, "line 1: $upscope without matching $scope"):
            parse(text)

    def test_bad_timestamp_text(self):
        # only ASCII decimal digits: int() would also take '1_0', '+11', '٣'
        # nor more digits than int() converts (sys.get_int_max_str_digits())
        for stamp in ["#zap", "#", "#1_0", "#+11", "#\u0663", "#\u00b2", "#" + "9" * 5000]:
            text = f"$var wire 1 ! a $end\n$enddefinitions $end\n#0\n{stamp}\n"
            shown = repr(stamp) if len(stamp) <= 64 else (
                "'#" + "9" * 63 + "' (first 64 of 5001 characters)")
            with raises_exactly(VcdError, f"line 4: invalid timestamp {shown}"):
                parse(text)

    def test_garbage_token_rejected(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#0\nhello\n"
        with raises_exactly(VcdError, "line 4: unrecognized token 'hello' in change region"):
            parse(text)

    def test_errors_carry_line_numbers(self):
        text = "$var wire 1 ! a $end\n$enddefinitions $end\n#5\n#4\n"
        with raises_exactly(VcdError, "line 4: timestamp #4 does not increase (previous #5)"):
            parse(text)

    # dump text past 64 characters is quoted by its first 64 and its length
    NINES = "'" + "9" * 64 + "' (first 64 of {} characters)"

    def test_bad_timescale(self):
        for timescale in ["sometime", "\u00b2ns", "+1ns", "1_0ns", "9" * 5000 + "ns"]:
            text = f"$comment x $end\n$timescale {timescale} $end\n$enddefinitions $end\n"
            shown = repr(timescale) if len(timescale) <= 64 else self.NINES.format(5002)
            with raises_exactly(VcdError, f"line 2: invalid $timescale {shown}"):
                parse(text)

    def test_bad_var_width(self):
        for width in ["0", "x", "+8", "1_6", "\u00b2", "\u0663", "9" * 5000, "9" * 100_000,
                      "65537", "100000000000", "0" * 4000 + "65537"]:
            text = f"$comment x $end\n$var wire {width} ! a $end\n$enddefinitions $end\n"
            if width.lstrip("0") in ("65537", "100000000000"):  # quoted past 64 characters
                zeros = "'" + "0" * 64 + "' (first 64 of 4005 characters)"
                shown = width if len(width) <= 64 else zeros
                message = f"line 2: $var width {shown} is over the limit of 65536 bits"
            elif len(width) > 64:
                message = f"line 2: invalid $var width {self.NINES.format(len(width))}"
            else:
                message = f"line 2: invalid $var width {width!r}"
            with raises_exactly(VcdError, message):
                parse(text)

    @pytest.mark.parametrize("token, shown", [
        ("q" * 64, "unrecognized token '" + "q" * 64 + "' in change region"),
        ("q" * 100_000, "unrecognized token '" + "q" * 64
         + "' (first 64 of 100000 characters) in change region"),
        ("b" + "2" * 100_000, "invalid vector value 'b" + "2" * 63
         + "' (first 64 of 100001 characters)"),
    ], ids=["64-characters", "100000-characters", "vector-value"])
    def test_a_long_token_is_quoted_by_its_first_64_characters(self, token, shown):
        with raises_exactly(VcdError, f"line 20: {shown}"):
            parse(BASIC + token + "\n")

    # a directive's error names the line of its $end, or of the end of file
    @pytest.mark.parametrize("text, message", [
        ("$var wire 1 ! a\n", "line 1: unexpected end of file in $var"),
        ("$var wire\n1 ! a\n\n", "line 3: unexpected end of file in $var"),
        ("$comment\nx", "line 2: unexpected end of file in $comment"),
        ("$enddefinitions x $end\n", "line 1: unexpected tokens in $enddefinitions"),
        ("$scope module top $end\n$upscope\nx $end\n$enddefinitions $end\n",
         "line 3: unexpected tokens in $upscope"),
        ("$var wire 1 ! a x $end\n", "line 1: unexpected trailing token 'x' in $var"),
        ("$var wire\n1 ! a x\n$end\n", "line 3: unexpected trailing token 'x' in $var"),
        ("$scope module\n$end\n$enddefinitions $end\n", "line 2: malformed $scope 'module'"),
        ("$var wire 1 ! a $end\n", "line 1: missing $enddefinitions"),
        ("$var wire 1 ! a $end\n$foo $end\n", "line 2: unsupported directive '$foo' in header"),
        ("$var wire 1 ! a $end\n$enddefinitions $end\n#0\n$comment x\n",
         "line 4: unterminated directive block at end of file"),
        ("$var wire 1 ! a $end\n$enddefinitions $end\n#0\nb12 !\n",
         "line 4: invalid vector value 'b12'"),
    ], ids=["eof", "eof-later-line", "eof-skipped", "enddefinitions-tokens", "upscope-tokens",
            "var-trailing", "var-trailing-later-line", "scope-malformed", "no-enddefinitions",
            "header-directive", "unterminated-block", "vector-value"])
    def test_each_error_gives_its_exact_message(self, text, message):
        with raises_exactly(VcdError, message):
            parse(text)

    def test_widest_var(self):
        wave = parse("$var wire 65536 ! a $end\n$enddefinitions $end\n#0\nb1 !\n")
        assert wave.series("a").value_at(0).bits == "0" * 65535 + "1"
        with raises_exactly(VcdError, "line 1: $var width 65537 is over the limit of 65536 bits"):
            parse("$var wire 65537 ! a $end\n$enddefinitions $end\n")


class TestTransparentDirectives:
    def test_comment_blocks_skipped_everywhere(self):
        text = """\
$comment ignore all this $end
$date today $end
$version something 4.2 $end
$var wire 1 ! a $end
$enddefinitions $end
#0
$comment mid-stream note $end
1!
"""
        wave = parse(text)
        assert wave.series("a").value_at(0).bits == "1"

    def test_dumpvars_block_is_transparent(self):
        # values inside and outside the block behave identically
        inside = parse(BASIC)
        outside = parse(BASIC.replace("$dumpvars\n", "").replace("$end\n#5", "#5"))
        assert inside.series("top.clk").value_at(0) == outside.series("top.clk").value_at(0)

    def test_dumpoff_goes_all_x_and_dumpon_restores(self):
        text = BASIC + "#30\n$dumpoff\nx!\nbx \"\n$end\n#40\n$dumpon\n1!\nb11 \"\n$end\n"
        wave = parse(text)
        assert wave.series("top.clk").value_at(4).bits == "x"
        assert wave.series("top.bus").value_at(4).bits == "x" * 8
        assert wave.series("top.clk").value_at(5).bits == "1"
        assert wave.series("top.bus").value_at(5).bits == "00000011"

    def test_dumpall_changes_apply_at_the_current_index(self):
        text = BASIC + "#30\n0!\n$dumpall\n1!\nb1 \"\n$end\n"
        wave = parse(text)
        assert wave.series("top.clk").value_at(4).bits == "1"
        assert wave.series("top.bus").value_at(4).bits == "00000001"


class TestHeaderSubset:
    @pytest.mark.parametrize("scope_type", ["begin", "task", "function", "fork"])
    def test_ieee_scope_types(self, scope_type):
        text = (f"$scope module top $end\n$scope {scope_type} blk $end\n"
                "$var wire 1 ! a $end\n$upscope $end\n$upscope $end\n"
                "$enddefinitions $end\n#0\n1!\n")
        assert parse(text).series("top.blk.a").value_at(0).bits == "1"

    @pytest.mark.parametrize("var_type", [
        "integer", "logic", "parameter", "tri", "supply0", "supply1",
        "time", "tri0", "tri1", "triand", "trior", "trireg", "wand", "wor"])
    def test_var_types(self, var_type):
        text = f"$var {var_type} 4 ! a $end\n$enddefinitions $end\n#0\nb101 !\n#1\n1!\n"
        series = parse(text).series("a")
        assert [series.value_at(i).bits for i in range(2)] == ["0101", "0001"]

    @pytest.mark.parametrize("rng", ["[7 : 0]", "[7: 0]", "[7 :0]", "[ 7:0 ]"])
    def test_range_with_spaces(self, rng):
        text = f"$var wire 8 # d {rng} $end\n$enddefinitions $end\n#0\nb11 #\n"
        assert parse(text).series("d").value_at(0).bits == "00000011"

    # no script value holds an event, a real or a realtime
    @pytest.mark.parametrize("var_type", ["event", "realtime"])
    def test_types_with_no_bit_vector_are_refused(self, var_type):
        text = f"$var {var_type} 1 ! a $end\n$enddefinitions $end\n"
        with raises_exactly(VcdError, f"line 1: unsupported variable type {var_type!r}"):
            parse(text)

    def test_bit_selects_of_one_name_are_named_in_the_refusal(self):
        text = ("$scope module tb $end\n$var wire 1 ! bus [0] $end\n"
                "$var wire 1 \" bus [ 1 ] $end\n$upscope $end\n$enddefinitions $end\n")
        message = "line 3: duplicate signal name 'tb.bus' for bit-selects [0] and [1]"
        with raises_exactly(VcdError, message):
            parse(text)
        # with one plain declaration, the name alone is the duplicate
        with raises_exactly(VcdError, "line 2: duplicate signal name 'bus'"):
            parse("$var wire 1 ! bus [0] $end\n$var wire 1 \" bus $end\n")

    def test_spaced_text_that_is_not_a_range_stays_malformed(self):
        text = "$var wire 8 # d [7:0] extra $end\n$enddefinitions $end\n"
        with raises_exactly(VcdError, "line 1: malformed $var 'wire 8 # d [7:0] extra'"):
            parse(text)


def test_scalar_lines_skip_the_token_loop():
    # a line table with the wrong keys still reads correctly, through the
    # token loop; count the lines that reach it (the loop splits each one)
    text, _ = generate(table1_spec(dummy_signals=4))
    split = []

    class Text(str):
        """Text whose split() with no separator is counted, and whose
        pieces, sums and splits on "\\n" are Text again."""

        def split(self, sep=None, *args):
            if sep is None:
                split.append(str(self))
                return super().split(*args)
            return [Text(part) for part in super().split(sep, *args)]

        def __add__(self, other):
            return Text(str(self) + other)

        def __radd__(self, other):
            return Text(other + str(self))

    class Stream(io.StringIO):
        def read(self, size=-1):
            return Text(super().read(size))

    wave = parse_vcd(Stream(text))
    head, _, changes = text.partition("$enddefinitions $end\n")
    header_lines = head.count("\n") + 1
    assert split[:header_lines] == text.split("\n")[:header_lines]
    reached = split[header_lines:]
    assert reached == [raw for raw in changes.splitlines() if raw[0] in "$b"]
    assert len(reached) < wave.index_count // 10


# --- block edges: the dump is read _BLOCK characters at a time ---

BLOCKS = [1, 2, 7, vcd._BLOCK]


@pytest.fixture(params=BLOCKS, ids=lambda n: f"block{n}")
def block(request, monkeypatch):
    monkeypatch.setattr(vcd, "_BLOCK", request.param)
    return request.param


def reading(wave):
    return wave.timestamps, {name: [s.value_at(k).bits for k in range(wave.index_count)]
                             for name, s in wave.signals.items()}


class TestBlockEdges:
    def test_every_split_reads_as_one_block(self, monkeypatch):
        # a change line, a b... vector and a timestamp cut at every position
        text = BASIC + "#30\n1!\nb1x0 \"\n#40\n0!\nb111\n\"\n#4000\n"
        expected = reading(parse(text))
        for size in range(1, len(text) + 1):
            monkeypatch.setattr(vcd, "_BLOCK", size)
            assert reading(parse(text)) == expected, size

    def test_every_split_of_the_header_reads_as_one_block(self, monkeypatch):
        # a header $comment, a $var over two lines, and changes on the
        # $enddefinitions line, cut at every position
        text = ("$comment a\nnote $end $timescale 1 ns $end\n$var wire 1 ! a $end $var\n"
                "wire 8 \" bus [7:0] $end\n$enddefinitions $end #0 1!\n#5 0! b1 \"\n")
        expected = ([0, 5], {"a": ["1", "0"], "bus": ["xxxxxxxx", "00000001"]})
        for size in range(1, len(text) + 1):
            monkeypatch.setattr(vcd, "_BLOCK", size)
            wave = parse(text)
            stamps, values = reading(wave)
            assert (list(stamps), values, wave.timescale) == (*expected, (1, "ns")), size

    @pytest.mark.parametrize("text, message", [
        ("$comment x $end\n$var wire\n1 ! a x\n$end\n",
         "line 4: unexpected trailing token 'x' in $var"),
        ("$var wire 1 ! a $end\n$var wire\n1 ! a\n\n", "line 4: unexpected end of file in $var"),
        ("$scope module top $end\n$var wire 1 ! a $end $enddefinitions\n$end\n",
         "line 3: unclosed $scope"),
        ("$var wire 1 ! a $end\n\n$upscope $end", "line 3: $upscope without matching $scope"),
        ("$var wire 1 ! a $end\n$enddefinitions $end b12\n", "line 2: invalid vector value 'b12'"),
        ("$var wire 1 ! a $end\n$enddefinitions $end #0 1?\n#1\n",
         "line 2: undeclared id code '?'"),
        ("$var wire 1 ! a $end\n$comment x $end\n", "line 2: missing $enddefinitions"),
        # the header's directives end at $enddefinitions, even on its line
        ('$var wire 1 ! a $end\n$enddefinitions $end $var wire 1 " b $end\n',
         "line 2: unsupported directive '$var' in change region"),
        ("$var wire 1 ! a $end\n$enddefinitions $end $comment\nx\n",
         "line 3: unterminated directive block at end of file"),
        ("$var wire 1 ! a $end\n$enddefinitions $end #0 b1\n",
         "line 2: vector value at end of file has no id code"),
    ], ids=["var-trailing", "eof-in-var", "unclosed-scope", "upscope", "vector-on-end-line",
            "change-on-end-line", "no-enddefinitions", "var-on-end-line",
            "eof-in-comment-from-end-line", "eof-after-vector-on-end-line"])
    def test_a_header_error_reads_the_same_at_every_split(self, monkeypatch, text, message):
        for size in range(1, len(text) + 1):
            monkeypatch.setattr(vcd, "_BLOCK", size)
            with raises_exactly(VcdError, message):
                parse(text)

    @pytest.mark.parametrize("text, message", [
        ("", "line 0: missing $enddefinitions"),
        ("\n\n", "line 2: missing $enddefinitions"),
        ("\n\n ", "line 3: missing $enddefinitions"),
    ], ids=["empty", "blank-lines", "no-final-newline"])
    def test_end_of_file_names_the_last_line_read(self, block, text, message):
        with raises_exactly(VcdError, message):
            parse(text)

    def test_parse_vcd_needs_only_read(self):
        class Reader:
            def __init__(self, text):
                self.read = io.StringIO(text).read

        assert reading(parse_vcd(Reader(BASIC))) == reading(parse(BASIC))

    def test_no_final_newline(self, block):
        wave = parse(BASIC + "#30\n0!")
        assert list(wave.timestamps) == [0, 5, 10, 20, 30]
        assert wave.series("top.clk").value_at(4).bits == "0"
        assert list(parse(BASIC + "#30").timestamps) == [0, 5, 10, 20, 30]
        with raises_exactly(VcdError, "line 21: vector value at end of file has no id code"):
            parse(BASIC + "#30\nb1")

    def test_blank_lines(self, block):
        text = BASIC.replace("#5\n", "\n#5\n\n\n").replace("#10\n", "#10\n\n")
        assert reading(parse(text)) == reading(parse(BASIC))
        with raises_exactly(VcdError, "line 26: unrecognized token 'hello' in change region"):
            parse(text + "\n\nhello\n")

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_other_line_ends_through_parse_vcd_file(self, tmp_path, block, end):
        path = tmp_path / "t.vcd"
        path.write_bytes((BASIC + "#30\nb1 \"\n").replace("\n", end).encode())
        assert reading(vcd.parse_vcd_file(path)) == reading(parse(BASIC + "#30\nb1 \"\n"))
        path.write_bytes((BASIC + "#30\n1?\n").replace("\n", end).encode())
        with raises_exactly(VcdError, "line 21: undeclared id code '?'"):
            vcd.parse_vcd_file(path)

    # the axis is array('Q') up to 2**64 - 1 and a list from the first larger
    # stamp, on a line of its own or among changes
    @pytest.mark.parametrize("stamp", [2**64, 10**4299], ids=["2**64", "4300-digits"])
    @pytest.mark.parametrize("sep", ["\n", " "], ids=["lines", "one-line"])
    def test_timestamps_past_64_bits_read(self, block, stamp, sep):
        changes = sep.join(["#0", "1!", f"#{stamp}", "0!", f"#{stamp + 1}", "1!"])
        wave = parse("$var wire 1 ! a $end\n$enddefinitions $end\n" + changes + "\n")
        assert type(wave.timestamps) is list
        assert wave.timestamps == [0, stamp, stamp + 1]
        assert list(wave.series("a").indexes) == [0, 1, 2]
        assert [wave.series("a").value_at(k).bits for k in range(3)] == ["1", "0", "1"]
        for fits in (10**19 - 1, 2**64 - 1):  # stepped inline; read by the token loop
            stamps = parse(BASIC + f"#{fits}\n").timestamps
            assert (stamps.typecode, stamps[-1]) == ("Q", fits)

    def test_timestamp_longer_than_int_reads(self, block):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int() converts any number of digits here")
        stamp = "#" + "1" * (limit + 1)
        shown = f"'#{'1' * 63}' (first 64 of {limit + 2} characters)"
        with raises_exactly(VcdError, f"line 20: invalid timestamp {shown}"):
            parse(BASIC + stamp + "\n")

    # BASIC's change region one token a line (lines 7-22), then `tail`;
    # `at` is the position in `tail` of the token that fails
    @pytest.mark.parametrize("tail, message, at", [
        ([], None, 0),
        (["#30", "b1x", '"', "$comment", "a", "b", "$end", "1!"], None, 0),
        (["#30", "b12", '"'], "invalid vector value 'b12'", 2),
        (["#20"], "timestamp #20 does not increase (previous #20)", 1),
        (["#30", "1?"], "undeclared id code '?'", 2),
        (["#30", "b1"], "vector value at end of file has no id code", 2),
    ], ids=["basic", "comment", "bad-vector", "stamp", "undeclared", "eof-vector"])
    def test_a_dump_on_one_line_reads_as_its_lines(self, monkeypatch, tail, message, at):
        header, changes = BASIC.split("#0\n")
        tokens = ("#0\n" + changes).split() + tail
        one, lines = (header + sep.join(tokens) + "\n" for sep in " \n")
        for size in [*range(1, 10), vcd._BLOCK]:
            monkeypatch.setattr(vcd, "_BLOCK", size)
            if message is None:
                assert reading(parse(one)) == reading(parse(lines)), size
                continue
            for text, line in ((one, 7), (lines, 22 + at)):
                with raises_exactly(VcdError, f"line {line}: {message}"):
                    parse(text)

    def test_a_long_dump_on_one_line_reads_as_its_lines(self, block):
        text, _ = generate(table1_spec(dummy_signals=2))
        header, changes = text.split("$enddefinitions $end\n")
        one = f"{header}$enddefinitions $end\n{changes.replace(chr(10), ' ')}"
        assert len(one) > 8 * 8192  # several blocks of the default size
        assert reading(parse(one)) == reading(parse(text))


def test_a_dump_with_no_1_bit_signal_steps_its_timestamps_inline():
    # the token loop reads the header and the vector lines, and no timestamp
    text = "$var wire 32 ! bus $end\n$enddefinitions $end\n"
    text += "".join(f"#{k}\nb{k:b} !\n" for k in range(1000))
    with token_loop_lines() as seen:
        wave = parse(text)
    assert len(seen) == 2 + 1000
    assert reading(wave) == reading(parse_by_token_loop(text))


# --- storage: one byte per 1-bit change, indexes in array('I') while they fit ---

WIDE_HEADER = "$var wire 1 ! a $end\n$var wire 1 % b $end\n$var wire 4 \" v $end\n" \
              "$enddefinitions $end\n"
WIDE_LINES = "".join(f"#{k}\n{'01xz'[k % 4]}!\n{k % 2}%\nb{k:b} \"\n" for k in range(12))
WIDE_TEXTS = {
    "lines": WIDE_HEADER + WIDE_LINES,
    "one-line": WIDE_HEADER + WIDE_LINES.replace("\n", " ") + "\n",
    # ten stamps on one line, then a stamp or a change a line
    "mixed": WIDE_HEADER + WIDE_LINES[:WIDE_LINES.index("#10")].replace("\n", " ") + "\n"
             + WIDE_LINES[WIDE_LINES.index("#10"):],
    "no-stamps": WIDE_HEADER + "".join(raw for raw in WIDE_LINES.splitlines(True) if raw[0] != "#"),
    # refused in the header: blank lines make blocks that widen there
    "header-change": WIDE_HEADER.replace("$end\n$enddefinitions", "$end\n" + "\n" * 8
                                         + "1!\n$enddefinitions") + WIDE_LINES,
}


def stored(text, read=parse):
    """The error that `read(text)` raises, or its axis and, per name, each
    change's index and bits; and the types of the indexes."""
    try:
        wave = read(text)
    except VcdError as err:
        return str(err), set()
    return (list(wave.timestamps), {
        name: (list(s.indexes), [s.value_at(i).bits for i in s.indexes])
        for name, s in wave.signals.items()}), {s.indexes.typecode for s in wave.signals.values()}


class TestStorage:
    def test_a_scalar_change_holds_at_most_6_bytes(self):
        ids = [chr(65 + i) for i in range(50)]
        text = "".join(f"$var wire 1 {c} s{c} $end\n" for c in ids) + "$enddefinitions $end\n"
        text += "".join(f"#{k}\n" + "".join(f"{k % 2}{c}\n" for c in ids) for k in range(4000))
        tracemalloc.start()
        try:
            wave = parse(text)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        changes = sum(len(s.indexes) for s in wave.signals.values())
        assert changes == 200_000
        assert held <= 6 * changes  # 16 bytes each as an 8-byte index and a list pointer

    def test_a_dump_on_one_line_peaks_as_its_lines(self):
        # joined whole, a 0.4 MB line peaked at over three times its lines' peak
        changes = [f"#{k} {k % 2}!" for k in range(40_000)]
        peaks = []
        for sep in "\t\n":
            text = "$var wire 1 ! a $end\n$enddefinitions $end\n" + sep.join(changes) + "\n"
            tracemalloc.start()
            try:
                wave = parse(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(wave.series("a").indexes) == 40_000
        one, lines = peaks
        assert one < 1.25 * lines, peaks

    # the limit patched low: the axis outgrows it at every point of each dump
    @pytest.mark.parametrize("size", [1, 2, 7, len(WIDE_HEADER), vcd._BLOCK],
                             ids=["block1", "block2", "block7", "header-block", "block8192"])
    @pytest.mark.parametrize("name", WIDE_TEXTS)
    def test_indexes_widen_when_the_axis_outgrows_them(self, monkeypatch, name, size):
        text = WIDE_TEXTS[name]
        expected, typecodes = stored(text, parse_by_token_loop)
        assert typecodes <= {"I"}
        if name in ("lines", "one-line", "mixed"):
            assert set(expected[1]["a"][1]) == set("01xz")
        monkeypatch.setattr(vcd, "_BLOCK", size)
        for narrow in range(1, 16):
            monkeypatch.setattr(vcd, "_NARROW", narrow)
            reading, typecodes = stored(text)
            assert reading == expected, narrow
            if typecodes and len(reading[0]) > narrow:  # an index past the limit
                assert typecodes == {"Q"}, narrow


def test_the_reader_differential_agrees_with_head(differential):
    proc = differential("--dumps", "50", "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("50 dumps against HEAD, seed 1: "), proc.stdout
