"""Property tests: whatever text the two readers are given, they either
return a result or raise ParseFailure, never another exception; every
token of a script that lexes sits at the line and column of its text,
with only whitespace and comments between tokens; a well-formed dump
reads the way a model written here says, a logic value kept as short
digits reads as its full-width bits would, the VCD reader's line table
reads any dump, or fails on it, exactly as its token loop does, and a
generated trace reads back as its ground truth; and a well-formed program
prints to source that parses back to it, and runs raising nothing but
WawkError; most programs built to run to their END get there; and the
command line, given any script, dump or spec text, exits 0, 1 or 2 with
nothing or one short line on stderr."""

import contextlib
import functools
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import make_waveform, parse_by_token_loop, wave_from_vcd  # noqa: E402
from direct_scan import signal_names, timestamp_of, width_of  # noqa: E402
from printer import to_source  # noqa: E402
from wawk import ast, cli, interp, vcd  # noqa: E402
from wawk.errors import ParseFailure, RunFailure, WawkError  # noqa: E402
from wawk.interp import execute  # noqa: E402
from wawk.lexer import tokenize  # noqa: E402
from wawk.parser import MAX_DEPTH, parse_source  # noqa: E402
from wawk.tracegen import WORDS, TraceSpec, generate  # noqa: E402
from wawk.vcd import parse_vcd  # noqa: E402
from wawk.waveform import Value  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)

# non-ASCII digits that str.isdigit() accepts: int() takes some, not others
ODD_DIGITS = ["²", "٣", "๓", "１", "1_0", "+1"]


FIELDS = ["0", "1", "8", "-1", "ns", "x", "z", "!", '"', "a", "top", "$end", "9" * 5000]
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
    "9" * 5000,
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


def _blank(gap):
    """True when `gap` holds only whitespace and // comments."""
    return all(not line.partition("//")[0].strip(" \t\r") for line in gap.split("\n"))


@PROPERTY
@given(SCRIPT_TEXT)
def test_tokens_point_at_their_source_text(text):
    try:
        tokens = tokenize(text)
    except ParseFailure:
        return
    line_starts = [0]
    for line in text.split("\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)
    pos = 0
    for tok in tokens:
        at = line_starts[tok.line - 1] + tok.col - 1
        assert _blank(text[pos:at]), (tok, text)
        if tok.kind == "STRING":
            assert text[at] == '"'
            end = at + 1
            while text[end] != '"':
                end += 2 if text[end] == "\\" else 1
            end += 1
        else:
            assert text.startswith(tok.text, at), (tok, text)
            end = at + len(tok.text)
        pos = end
    assert _blank(text[pos:]), text


# --- well-formed dumps ---
# Up to 6 $vars over 4 id codes, so some names share one. A change is an
# (id code, bits) pair, its bits cut to the id code's width; "#" opens the
# next index, and a list is a $dumpvars block.

ID_CODES = ["!", '"', "%", "&"]


@st.composite
def dumps(draw):
    widths = draw(st.lists(st.integers(1, 4), min_size=4, max_size=4))
    var_ids = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    change = st.tuples(st.sampled_from(sorted(set(var_ids))), st.text("01xz", min_size=1, max_size=4))
    events = st.one_of(st.just("#"), change, st.lists(change, max_size=3))
    return widths, var_ids, draw(st.lists(events, max_size=25))


def _changes(event):
    return [] if event == "#" else [event] if isinstance(event, tuple) else event


def _dump_text(widths, var_ids, events):
    lines = ["$timescale 1ns $end", "$scope module top $end"]
    for n, i in enumerate(var_ids):
        lines.append(f"$var wire {widths[i]} {ID_CODES[i]} s{n} [{widths[i] - 1}:0] $end")
    lines += ["$upscope $end", "$enddefinitions $end"]
    stamps = 0
    for event in events:
        if event == "#":
            lines.append(f"#{10 * stamps}")
            stamps += 1
            continue
        changes = [
            f"{bits[:widths[i]]}{ID_CODES[i]}" if widths[i] == 1
            else f"b{bits[:widths[i]]} {ID_CODES[i]}"
            for i, bits in _changes(event)
        ]
        lines += changes if isinstance(event, tuple) else ["$dumpvars", *changes, "$end"]
    return "\n".join(lines) + "\n"


def _dump_model(widths, var_ids, events):
    """Expected bits of each name at each index: a change belongs to the
    index of the latest "#" before it, or to index 0 before the first one;
    the last change at an index wins, a value holds until the next change,
    and a signal is all x before its first one."""
    written = [{} for _ in range(events.count("#"))]  # per index: id -> bits
    stamps = 0
    for event in events:
        if event == "#":
            stamps += 1
        for i, bits in _changes(event):
            bits = bits[: widths[i]]
            fill = "0" if bits[0] in "01" else bits[0]
            if written:
                written[max(stamps - 1, 0)][i] = bits.rjust(widths[i], fill)
    expected = {}
    for n, i in enumerate(var_ids):
        current, column = "x" * widths[i], []
        for at_index in written:
            current = at_index.get(i, current)
            column.append(current)
        expected[f"top.s{n}"] = column
    return expected


@PROPERTY
@given(dumps())
def test_well_formed_dumps_read_as_the_model_says(dump):
    widths, var_ids, events = dump
    wave = parse_vcd(io.StringIO(_dump_text(*dump)))
    expected = _dump_model(*dump)
    assert list(wave.timestamps) == [10 * k for k in range(events.count("#"))]
    assert sorted(wave.signals) == sorted(expected)
    for n, i in enumerate(var_ids):
        name = f"top.s{n}"
        series = wave.series(name)
        assert series.width == widths[i]
        assert [series.value_at(k).bits for k in range(wave.index_count)] == expected[name]
        for m, j in enumerate(var_ids):
            assert (wave.series(name) is wave.series(f"top.s{m}")) == (i == j)


# --- logic values against a full-width model ---


@st.composite
def short_values(draw):
    """Digits from 01xz and a width of 1-300 no smaller than they are."""
    width = draw(st.integers(1, 300))
    return draw(st.text("01xz", min_size=1, max_size=width)), width


def _outcome(call):
    """What `call()` returns, or the text of the RunFailure it raises."""
    try:
        return call()
    except RunFailure as err:
        return str(err)


@PROPERTY
@given(short_values())
def test_short_values_read_as_their_full_width_model(value):
    digits, width = value
    fill = "0" if digits[0] in "01" else digits[0]
    model = fill * (width - len(digits)) + digits
    short, full = Value(digits, width), Value(model)
    assert (short.digits, full.bits, full.width) == (digits, model, width)
    assert (short.bits, short.width, short.has_xz, repr(short)) == (
        model, width, full.has_xz, repr(full))
    assert _outcome(short.to_int) == _outcome(full.to_int)
    assert interp._truthy(short) == interp._truthy(full)
    assert interp._format("%b", [short]) == interp._format("%b", [full]) == model
    assert short == full and hash(short) == hash(full)


# --- the line table against the token loop ---
# Id codes include "1!", so "b10" then "1!" is a vector whose id code looks
# like a scalar change; "#+" becomes the next increasing timestamp and "#="
# the last one again; line ends mix "\n" and "\r\n", and the last line may
# have none.

CHANGE_IDS = ["!", "%", "1!", "#"]


@st.composite
def change_dumps(draw):
    widths = draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))
    var_ids = [0] + draw(st.lists(st.integers(0, 3), max_size=4))
    ids = [CHANGE_IDS[i] for i in sorted(set(var_ids))]
    scalar = st.tuples(st.sampled_from("01xzXZ"), st.sampled_from(ids)).map("".join)
    vector = st.tuples(st.text("01xzXZ", min_size=1, max_size=3), st.sampled_from(ids))
    line = st.one_of(
        scalar,
        st.sampled_from(["#+", "#="]),
        vector.map(lambda v: "b{} {}".format(*v)),
        vector.map(lambda v: "b{}\n{}".format(*v)),  # the id code on the next line
        st.lists(scalar, min_size=2, max_size=3).map(" ".join),
        st.lists(st.one_of(scalar, st.just("#9")), max_size=3).map(
            lambda inner: "\n".join(["$comment", *inner, "$end"])),
        st.sampled_from(["$dumpvars", "$dumpoff", "$dumpon", "$dumpall", "$end",
                         "$comment 1! $end", " 1!", "1!  ", "", "#0", "#3", "#x", "#",
                         "1?", "b111111 !", "r1 !", "hello", "$comment"]),
    )
    lines = [f"$var wire {widths[i]} {CHANGE_IDS[i]} s{n} $end" for n, i in enumerate(var_ids)]
    lines.append(draw(st.sampled_from(["$enddefinitions $end", "$enddefinitions $end 1!"])))
    text = "\n".join(lines) + "\n"
    stamp = 0
    for part in draw(st.lists(line, max_size=30)):
        if part in ("#+", "#="):  # the next timestamp, or the last one again
            stamp += draw(st.integers(1, 3)) if part == "#+" else 0
            part = f"#{stamp}"
        text += part + draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return text.rstrip("\r\n") + draw(st.sampled_from(["\n", "\r\n", ""]))


def _reading(text, parse=wave_from_vcd):
    """What `parse` makes of `text`: the error's class and message, or
    the time axis and, per name, its width, changes and the first name
    that shares its id code."""
    try:
        wave = parse(text)
    except ParseFailure as err:
        return type(err), str(err)
    signals = wave.signals
    return wave.timestamps, {
        name: (s.width, s.indexes, [s.value_at(k).bits for k in s.indexes],
               min(n for n in signals if signals[n] is s))
        for name, s in signals.items()
    }


@settings(PROPERTY, max_examples=500)
@given(change_dumps())
def test_line_table_reads_as_the_token_loop(text):
    expected = _reading(text, parse_by_token_loop)
    assert _reading(text) == expected


@PROPERTY
@given(change_dumps(), st.sampled_from([1, 2, 7]))
def test_small_blocks_read_as_one_block(text, block):
    # at these sizes block edges fall before, inside and after every line end
    expected = _reading(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vcd, "_BLOCK", block)
        assert _reading(text) == expected


# --- generated traces ---

SPECS = st.builds(
    TraceSpec,
    st.lists(st.tuples(st.one_of(st.sampled_from(sorted(WORDS.values())),
                                 st.integers(0, 2**32 - 1)),
                       st.integers(1, 6)),
             min_size=1, max_size=8).map(tuple),
    st.integers(1, 4),
    st.integers(0, 4),
)


@PROPERTY
@given(SPECS)
def test_generated_traces_read_back_as_their_ground_truth(spec):
    text, truth = generate(spec)
    wave = parse_vcd(io.StringIO(text))
    assert list(wave.timestamps) == [timestamp_of(truth, k) for k in range(truth.index_count)]
    assert sorted(wave.signals) == sorted(signal_names(truth))
    for name in signal_names(truth):
        assert wave.series(name).width == width_of(truth, name)
        assert [wave.series(name).value_at(k).bits for k in range(wave.index_count)] == [
            truth.expected_bits(name, k) for k in range(truth.index_count)]


# --- well-formed programs ---
# A strategy called with a budget of b levels draws trees whose printed
# form nests at most b levels deep, counted as the parser counts them. An
# inner node takes two: its own level and the parentheses the printer may
# put around it. A chain of one operator or a run of unary operators over
# plain operands takes one level per operator, which reaches the limit.
# '*' and '/' take only operands that no assignment can grow, so values
# stay small however the program loops.

NAMES = ["x", "y", "l", "args", "clk", "top.bus", "nope.sig", "extern", "extern.decode"]
SIGNALS = st.builds(ast.Ident, st.sampled_from(["clk", "top.bus"]))
CONSTANTS = st.one_of(
    st.builds(ast.IntLit, st.integers(0, 999)),
    st.just(ast.CurrentIndex()),
    SIGNALS,
    st.builds(ast.OffsetRef, SIGNALS, st.integers(-3, 3)),
)
LEAVES = st.one_of(
    CONSTANTS,
    st.builds(ast.StrLit, st.sampled_from(["", "%d", "%s %b\n", '"\\'])),
    st.builds(ast.Ident, st.sampled_from(NAMES)),
)
OPS = sorted(ast.PRECEDENCE)
ADDITIVE_OPS = [op for op in OPS if op not in "*/"]


def _chain(op, links, terms):
    """`links` applications of `op`, left-associated, cycling through `terms`."""
    return functools.reduce(lambda left, i: ast.Binary(op, left, terms[i % len(terms)]),
                            range(1, links + 1), terms[0])


def _run(length, ops, leaf):
    """`length` unary operators over `leaf`, cycling through `ops`."""
    return functools.reduce(lambda node, op: ast.Unary(op, node), (ops * length)[:length], leaf)


@functools.cache
def chains(budget):
    links = st.integers(1, budget)
    return st.one_of(
        st.builds(_chain, st.sampled_from(ADDITIVE_OPS), links, st.lists(LEAVES, min_size=1)),
        st.builds(_chain, st.sampled_from("*/"), links, st.lists(CONSTANTS, min_size=1)),
    )


@functools.cache
def runs(budget):
    return st.builds(_run, st.integers(1, budget), st.sampled_from(["-", "!", "-!"]), LEAVES)


@functools.cache
def exprs(budget):
    if budget < 2:
        return LEAVES
    inner = exprs(budget - 2)
    items = st.lists(inner, max_size=3).map(tuple)
    binary = st.builds(ast.Binary, st.sampled_from(ADDITIVE_OPS), inner, inner)
    return st.one_of(LEAVES, st.one_of(
        binary,
        binary,
        chains(budget - 1),
        runs(budget - 1),
        st.builds(ast.Unary, st.sampled_from("!-"), inner),
        st.builds(ast.Binary, st.sampled_from("*/"), CONSTANTS, CONSTANTS),
        st.builds(ast.Subscript, inner, inner),
        st.builds(ast.Call, st.sampled_from(
            ["min", "max", "average", "length", "printf", "alias", "import", "call", "f"]),
            items),
        st.builds(ast.ListLit, items),
    ))


def top_exprs(budget):
    return st.one_of(exprs(budget), chains(budget), runs(budget))


@functools.cache
def bodies(budget):
    stmts = [st.builds(ast.Assign, st.sampled_from(["x", "y", "l", "clk"]), top_exprs(budget)),
             st.builds(ast.ExprStmt, top_exprs(budget))]
    if budget > MAX_DEPTH - 3:  # if statements nest up to three deep
        inner = bodies(budget - 1)
        stmts.append(st.builds(ast.If, top_exprs(budget), inner, inner))
    return st.lists(st.one_of(stmts), max_size=2).map(tuple)


TRIGGERS = st.one_of(
    st.just(ast.Begin()),
    st.just(ast.End()),
    st.builds(ast.Conditions, st.lists(top_exprs(MAX_DEPTH), min_size=1, max_size=3).map(tuple)),
)
PROGRAMS = st.lists(st.builds(ast.Statement, TRIGGERS, bodies(MAX_DEPTH)),
                    min_size=1, max_size=3).map(lambda s: ast.Program(tuple(s)))
WAVE = make_waveform(4, {
    "clk": (1, [(0, "1"), (1, "0"), (2, "1"), (3, "x")]),
    "top.bus": (8, [(0, "00000011"), (2, "0000x000")]),
})


@settings(PROPERTY, max_examples=100)
@given(PROGRAMS)
def test_well_formed_programs_reprint_and_raise_only_wawk_error(program):
    assert parse_source(to_source(program)) == program
    try:
        execute(program, WAVE, out=io.StringIO())
    except WawkError:
        pass


# --- programs that run to their end ---
# Most draws of PROGRAMS stop at an error in their first statement, so they
# seldom reach what a sweep does later. RUNNING binds its variables in BEGIN
# before they are read, reads signals only in the sweep, where arithmetic
# takes them only through truth values, which neither x bits nor the
# trace's edges can break, and divides seldom, so most draws run to their
# END. What a name reads still changes as the sweep goes: a body may
# assign `clk`, or alias it once to top.bus (`done` guards the alias), and
# BEGIN may alias `a`, which conditions read as unbound until then.

SIGNAL_READS = st.one_of(
    st.builds(ast.Ident, st.sampled_from(["clk", "top.bus"])),
    st.builds(ast.OffsetRef, st.builds(ast.Ident, st.sampled_from(["clk", "top.bus"])),
              st.integers(-2, 2)),
)


def _truths(leaves):
    """`leaves` under '!', '&&' and '||'; no value of a leaf makes them raise."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(ast.Unary, st.just("!"), inner),
        st.builds(ast.Binary, st.sampled_from(["&&", "||"]), inner, inner),
    ), max_leaves=3)


GUARDS = _truths(st.one_of(SIGNAL_READS, st.just(ast.Ident("a"))))
BITS = _truths(SIGNAL_READS).map(  # 0 or 1: a bare signal read becomes !!sig
    lambda t: t if t.__class__ in (ast.Unary, ast.Binary) else ast.Unary("!", ast.Unary("!", t)))
INTS = st.recursive(
    st.one_of(st.builds(ast.IntLit, st.integers(0, 3)),
              st.builds(ast.Ident, st.sampled_from(["x", "y"])),
              st.just(ast.CurrentIndex()),
              st.just(ast.Call("length", (ast.Ident("l"),))),
              BITS),
    lambda inner: st.one_of(  # four in six draws neither multiply nor divide
        *[st.builds(ast.Binary, st.sampled_from(["+", "-", "<", "==", "!="]), inner, inner)] * 4,
        st.builds(ast.Binary, st.just("*"), inner, st.builds(ast.IntLit, st.integers(0, 3))),
        st.builds(ast.Binary, st.just("/"), inner, inner),
    ),
    max_leaves=4,
)
ALIAS_ONCE = ast.If(ast.Unary("!", ast.Ident("done")),
                    (ast.ExprStmt(ast.Call("alias", (ast.Ident("clk"), ast.Ident("top.bus")))),
                     ast.Assign("done", ast.IntLit(1))), ())
SWEEP_ACTIONS = st.one_of(
    st.builds(ast.Assign, st.sampled_from(["x", "y"]), INTS),
    st.builds(lambda v: ast.Assign("l", ast.Binary("+", ast.Ident("l"), v)), INTS),
    st.builds(ast.Assign, st.just("clk"), BITS),
    st.builds(lambda v: ast.ExprStmt(ast.Call("printf", (ast.StrLit("%d "), v))), INTS),
    st.builds(lambda n: ast.ExprStmt(ast.Call("printf", (ast.StrLit("%b "), ast.Ident(n)))),
              st.sampled_from(["clk", "top.bus"])),
    st.just(ALIAS_ONCE),
)
SWEEP_BODIES = st.lists(st.one_of(
    SWEEP_ACTIONS,
    st.builds(ast.If, st.one_of(GUARDS, INTS), st.lists(SWEEP_ACTIONS, max_size=2).map(tuple),
              st.lists(SWEEP_ACTIONS, max_size=1).map(tuple)),
), min_size=1, max_size=2).map(tuple)
BINDINGS = (ast.Assign("x", ast.IntLit(1)), ast.Assign("y", ast.IntLit(2)),
            ast.Assign("l", ast.ListLit(())), ast.Assign("done", ast.IntLit(0)))
BEGIN_EXTRAS = [ast.ExprStmt(ast.Call("alias", (ast.Ident("a"), ast.Ident(target))))
                for target in ("clk", "top.bus")] + [ast.Assign("clk", ast.IntLit(1))]
REPORT = ast.ExprStmt(ast.Call("printf", (ast.StrLit("%d %d %d %d\n"), ast.Ident("x"),
                                          ast.Ident("y"), ast.Call("length", (ast.Ident("l"),)),
                                          ast.Ident("done"))))
RUNNING = st.builds(
    lambda extras, sweep: ast.Program((ast.Statement(ast.Begin(), BINDINGS + tuple(extras)),
                                       *sweep, ast.Statement(ast.End(), (REPORT,)))),
    st.lists(st.sampled_from(BEGIN_EXTRAS), max_size=1),
    st.lists(st.builds(ast.Statement,
                       st.builds(lambda first, rest: ast.Conditions((first, *rest)),
                                 GUARDS, st.lists(st.one_of(GUARDS, INTS), max_size=2)),
                       SWEEP_BODIES),
             min_size=1, max_size=3),
)


def test_most_running_programs_run_to_their_end():
    ends = []

    @PROPERTY
    @given(RUNNING)
    def run(program):
        assert parse_source(to_source(program)) == program
        try:
            execute(program, WAVE, out=io.StringIO())
        except WawkError:
            ends.append(False)
        else:
            ends.append(True)

    run()
    assert len(ends) >= 100
    assert sum(ends) >= 0.6 * len(ends), f"{sum(ends)} of {len(ends)}"


# --- the command line, in process ---
# Random script, dump and spec text, long tokens mixed in, through
# cli.main as `wawk run` and `wawk gen spec` read them from files. Cycle
# counts stay at or below 1,000, so a spec renders at most a few
# thousand indexes per line.

LONG = ["n" * 5000, "9" * 5000, '"' + "%d" * 2000 + '"', "top." + "b" * 5000, "1" * 70]
CLI_SCRIPTS = st.one_of(
    SCRIPT_TEXT,
    st.lists(st.sampled_from(SCRIPT_WORDS + LONG), max_size=20).map(" ".join),
    PROGRAMS.map(to_source),
    RUNNING.map(to_source),
    RUNNING.map(to_source),
)
CLI_HEADER = "$var wire 1 ! clk $end\n$scope module top $end\n$var wire 8 \" bus $end\n" \
             "$upscope $end\n$enddefinitions $end\n"
CLI_CHANGES = st.lists(st.tuples(st.sampled_from("01xz"), st.text("01xz", min_size=1, max_size=9)),
                       max_size=20)
WELL_FORMED = st.one_of(  # clk and top.bus, or a generated trace's signals
    CLI_CHANGES.map(lambda changes: CLI_HEADER + "".join(
        f"#{10 * i}\n{clk}!\nb{bits} \"\n" for i, (clk, bits) in enumerate(changes))),
    SPECS.map(lambda spec: generate(spec)[0]),
)


def _spoiled(texts):
    """`texts` with one long or stray token put in as a line."""
    def put(text, at, token):
        lines = text.split("\n")
        lines.insert(at % (len(lines) + 1), token)
        return "\n".join(lines)
    return st.builds(put, texts, st.integers(0, 200), st.sampled_from(LONG + ["$bogus", "#3"]))


CLI_DUMPS = st.one_of(VCD_TEXT, WELL_FORMED, WELL_FORMED, WELL_FORMED, _spoiled(WELL_FORMED))
VALID_SPEC_LINES = st.builds("{:x} {}".format, st.one_of(st.sampled_from(sorted(WORDS.values())),
                                                          st.integers(0, 2**32 - 1)),
                             st.integers(1, 1000))
SPEC_LINES = st.one_of(
    VALID_SPEC_LINES,
    st.builds("{} {}".format, st.one_of(FIELD, st.sampled_from(LONG)), FIELD),
    st.sampled_from(["# a comment", "", "13 0", "13", "13 2 3", "13 " + "9" * 5000]),
)
CLI_SPECS = st.one_of(st.lists(VALID_SPEC_LINES, min_size=1, max_size=4),
                      st.lists(SPEC_LINES, max_size=4)).map("\n".join)
GEN_OPTIONS = st.lists(st.sampled_from([["--half-period", "3"], ["--half-period", "0"],
                                        ["--half-period", "9" * 70], ["--dummy-signals", "2"],
                                        ["--dummy-signals", "65"], ["--dummy-signals", "-1"]]),
                       max_size=2).map(lambda options: sum(options, []))
COMMANDS = st.one_of(
    st.tuples(st.just("run"), CLI_SCRIPTS, CLI_DUMPS,
              st.lists(st.sampled_from(["lw", "add", "x", "n" * 5000]), max_size=2)),
    st.tuples(st.just("cpi"), st.just(""), CLI_DUMPS,
              st.sampled_from([["lw"], ["--all"], ["n" * 5000]])),
    st.tuples(st.just("gen"), CLI_SPECS, st.just(""), GEN_OPTIONS),
)


@settings(PROPERTY, max_examples=150)
@given(COMMANDS, st.booleans())
def test_the_command_line_exits_0_1_or_2_with_at_most_one_short_line(command, to_file):
    kind, text, dump, rest = command
    with tempfile.TemporaryDirectory() as tmp:
        text_path, vcd, out = (os.path.join(tmp, name) for name in ("in", "t.vcd", "o.vcd"))
        with open(text_path, "wb") as f:
            f.write(text.encode("utf-8", "surrogatepass"))  # a lone surrogate is not UTF-8
        with open(vcd, "wb") as f:
            f.write(dump.encode("utf-8", "surrogatepass"))
        argv = {"run": ["run", text_path, vcd, *rest], "cpi": ["run", "@cpi", vcd, *rest],
                "gen": ["gen", "spec", text_path, out if to_file else "-", *rest]}[kind]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, err)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("wawk: ") and err.count("\n") == 1 and err.endswith("\n"), err
            assert len(err.replace(tmp, "")) <= 300, err
