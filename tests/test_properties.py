"""Property tests: whatever text the two readers are given, they either
return a result or raise ParseFailure, never another exception."""

import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wawk.errors import ParseFailure  # noqa: E402
from wawk.parser import MAX_DEPTH, parse_source  # noqa: E402
from wawk.vcd import parse_vcd  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)

# non-ASCII digits that str.isdigit() accepts: int() takes some, not others
ODD_DIGITS = ["²", "٣", "๓", "１", "1_0", "+1"]


FIELDS = ["0", "1", "8", "-1", "ns", "x", "z", "!", '"', "a", "top", "$end"]
FIELD = st.one_of(st.sampled_from(ODD_DIGITS), st.sampled_from(FIELDS), st.text(max_size=3))


def _filled(template):
    """`template` with each {} replaced by a random field."""
    n = template.count("{}")
    return st.lists(FIELD, min_size=n, max_size=n).map(lambda f: template.format(*f))


VCD_LINE = st.one_of(
    _filled("$timescale {}{} $end"),
    _filled("$scope {} {} $end"),
    _filled("$var {} {} {} {} $end"),
    _filled("$var wire {} {} {} $end"),
    _filled("$var reg {} {} {} [{}:0] $end"),
    st.sampled_from(["$upscope $end", "$enddefinitions $end", "$dumpvars", "$end",
                     "$comment", "$dumpoff", "r1.5 !", "b", "hello"]),
    _filled("#{}"),
    _filled("{}{}"),
    _filled("b{} {}"),
    FIELD,
)
VCD_TEXT = st.lists(VCD_LINE, max_size=30).map("\n".join)
VCD_HEADER = "$scope module top $end\n$var wire 1 ! a $end\n$var wire 8 \" b $end\n" \
             "$upscope $end\n$enddefinitions $end\n"

SCRIPT_WORDS = ODD_DIGITS + [
    "BEGIN", "END", ":", "{", "}", "(", ")", "[", "]", ",", ";", "=", "if",
    "else", "x", "a.b", "a.", "1", "42", '"s"', '"%d\\n"', '"', "\\", "@",
    "@-2", "-", "!", "+", "*", "/", "==", "<=", "&&", "||", "INDEX", "map",
    "in-group", "printf", "alias", "//", "(" * (MAX_DEPTH + 1), "-" * MAX_DEPTH,
]
SCRIPT_TEXT = st.lists(
    st.tuples(st.one_of(st.sampled_from(SCRIPT_WORDS), st.text(max_size=4)),
              st.sampled_from([" ", "\n", "\t", ""])),
    max_size=40,
).map(lambda pairs: "".join(word + sep for word, sep in pairs))


def _only_parse_failure(parse, text):
    try:
        parse(text)
    except ParseFailure:
        pass


@PROPERTY
@given(st.one_of(VCD_TEXT, VCD_TEXT.map(VCD_HEADER.__add__)))
def test_vcd_reader_raises_only_parse_failure(text):
    _only_parse_failure(lambda t: parse_vcd(io.StringIO(t)), text)


@PROPERTY
@given(st.one_of(SCRIPT_TEXT, st.text()))
def test_script_parser_raises_only_parse_failure(text):
    _only_parse_failure(parse_source, text)
