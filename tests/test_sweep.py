"""The compiled, planned sweep against the dense one and the reference.

execute() compiles every expression once per run (interp._compile) and
visits only the indexes where a statement's signal-only head can hold
(interp._plan); visiting every statement at every index is the order it
must agree with. Every test here runs a script both ways and requires
the same output, the same final variables and the same error, context
included: on random well-formed programs over small waveforms with x/z
bits, late first changes and offsets past the trace, and on the cases
the planner must get right or decline, also with the planner's spans and
windows shrunk to one or two. Planned and dense runs share the compiler,
so random programs and random expressions are also run through the tree
walker in reference_eval.py, which shares none of it, and so is every
kind of operand of the compiled int fast path of `+`, `-` and `*`. One
narrowing (interp._narrow) must read as its head evaluated at every
index and test each distinct input of the head once, a head the plan
proved is not evaluated again, and a kept plan holds nothing of the run
that made it.
"""

import gc
import io
import sys
import weakref

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import reference_eval  # noqa: E402
from conftest import make_waveform  # noqa: E402
from printer import to_source  # noqa: E402
from test_properties import PROGRAMS, PROPERTY, RUNNING, WAVE, bodies, top_exprs  # noqa: E402
from wawk import ast, interp  # noqa: E402
from wawk.cli import bundled_script  # noqa: E402
from wawk.errors import RunFailure  # noqa: E402
from wawk.interp import Environment, default_native_modules, execute  # noqa: E402
from wawk.parser import MAX_DEPTH, parse_source  # noqa: E402
from wawk.riscv import MNEMONICS  # noqa: E402
from wawk.tracegen import generate, table1_spec  # noqa: E402
from wawk.vcd import parse_vcd  # noqa: E402

WAVES = [
    WAVE,
    # one index; clk never changes, so it reads all x
    make_waveform(1, {"clk": (1, []), "top.bus": (8, [(0, "00000001")]),
                      "x": (2, [(0, "1x")])}),
    # no change at index 0, z bits, a change at the last index
    make_waveform(7, {
        "clk": (1, [(2, "1"), (3, "0"), (4, "1"), (6, "z")]),
        "top.bus": (8, [(1, "0000000z"), (4, "00000100"), (5, "00000000"), (6, "00000011")]),
        "x": (2, [(0, "1x"), (3, "10")]),
    }),
    # two indexes: every offset of 2 or more lands outside the trace
    make_waveform(2, {"clk": (1, [(0, "0"), (1, "1")]), "top.bus": (8, [(1, "00000101")])}),
    make_waveform(0, {"clk": (1, []), "top.bus": (8, [])}),
]


def outcome(program, wave, args=(), modules=None, run=execute):
    """What one run shows: stdout, then the final variables or the error."""
    out = io.StringIO()
    try:
        env = run(program, wave, args=args, out=out, modules=modules)
    except RunFailure as err:
        return out.getvalue(), (type(err), err.message, err.context)
    return out.getvalue(), repr(env.variables)  # repr: a list may hold itself


def agree(dense_sweep, program, waves, args=(), modules=None):
    """Run `program` over each of `waves` dense, then planned three times:
    at the plan's first sight, as it is kept, and from the kept plan. All
    four must give the same outcome; returns the planned outcomes."""
    found = []
    for wave in waves:
        with dense_sweep():
            dense = outcome(program, wave, args, modules)
        for _ in range(3):
            planned = outcome(program, wave, args, modules)
            assert planned == dense, (to_source(program), wave.index_count)
        found.append(planned)
    return found


# Conditions the planner can take: literals, signals and offsets through
# operators, comparisons and arithmetic included, so one can raise. `x`
# is a signal only until a body assigns it; `x@k` reads the signal even then.
PURE = st.recursive(
    st.one_of(
        st.builds(ast.IntLit, st.integers(0, 5)),
        st.builds(ast.StrLit, st.sampled_from(["", "a"])),
        st.builds(ast.Ident, st.sampled_from(["clk", "top.bus", "x"])),
        st.builds(ast.OffsetRef, st.builds(ast.Ident, st.sampled_from(["clk", "top.bus", "x"])),
                  st.integers(-9, 9)),
    ),
    lambda inner: st.one_of(
        st.builds(ast.Unary, st.sampled_from("!-"), inner),
        st.builds(ast.Binary, st.sampled_from(sorted(ast.PRECEDENCE)), inner, inner),
    ),
    max_leaves=4,
)
HEADS = st.builds(
    lambda first, rest: ast.Conditions((first, *rest)),
    PURE, st.lists(st.one_of(PURE, top_exprs(MAX_DEPTH)), max_size=2))
PLANNABLE = st.lists(
    st.builds(ast.Statement, st.one_of(HEADS, HEADS, st.just(ast.Begin())), bodies(MAX_DEPTH)),
    min_size=1, max_size=3,
).map(lambda s: ast.Program(tuple(s)))

# Programs where what a name reads changes during a run: BEGIN and sweep
# bodies assign signal names and alias names to signals.
NAMED = st.recursive(
    st.one_of(
        st.builds(ast.IntLit, st.integers(0, 2)),
        st.builds(ast.Ident, st.sampled_from(["clk", "x", "y", "top.bus"])),
        st.builds(ast.OffsetRef, st.builds(ast.Ident, st.sampled_from(["clk", "x"])),
                  st.integers(-1, 1)),
    ),
    lambda inner: st.builds(ast.Binary, st.sampled_from(["&&", "||", "==", "+"]), inner, inner),
    max_leaves=3,
)
ALIAS = st.builds(lambda short, target: ast.ExprStmt(ast.Call("alias", (short, target))),
                  st.builds(ast.Ident, st.sampled_from(["x", "y"])),
                  st.builds(ast.Ident, st.sampled_from(["clk", "top.bus"])))
NAMES_ASSIGNED = st.sampled_from(["clk", "x"])
ASSIGN = st.builds(ast.Assign, NAMES_ASSIGNED, NAMED)
PRINT_INDEX = ast.ExprStmt(ast.Call("printf", (ast.StrLit("%d "), ast.CurrentIndex())))
RENAMINGS = st.builds(
    lambda begin, sweep: ast.Program((ast.Statement(ast.Begin(), tuple(begin)), *sweep)),
    st.lists(st.one_of(ALIAS, st.builds(ast.Assign, NAMES_ASSIGNED,
                                        st.builds(ast.IntLit, st.integers(0, 2)))), max_size=2),
    st.lists(st.builds(ast.Statement,
                       st.lists(NAMED, min_size=1, max_size=2).map(
                           lambda conditions: ast.Conditions(tuple(conditions))),
                       st.lists(st.one_of(ASSIGN, ASSIGN, st.just(PRINT_INDEX), ALIAS),
                                min_size=1, max_size=3).map(tuple)),
             min_size=1, max_size=3),
)


def reading(read, index):
    """What `read` gives at `index`: its value, or its error's class and
    message. repr, since a list may hold itself."""
    try:
        value = read(index)
    except RunFailure as err:
        return type(err), err.message
    return type(value), repr(value)


def state(env):
    """An environment with a few variables, the extern module imported."""
    env.variables.update(y=2, l=[1, 0])
    env.imported.add("extern")
    return env


@PROPERTY
@given(st.one_of(PURE, top_exprs(MAX_DEPTH)))
def test_compiled_expressions_read_as_the_reference(node):
    # fixed as in a sweep of one statement with `node` as its condition
    fixing = interp._assigned([ast.Statement(ast.Conditions((node,)), ())])
    for wave in WAVES:
        for cond in (True, False):
            for assigned, indexes in ((fixing, range(wave.index_count)), (None, [None])):
                env = state(Environment(wave, ["a"], io.StringIO()))
                compiled, _ = interp._compile(node, env, cond, assigned)
                walker = state(reference_eval.Walker(wave, ["a"], io.StringIO()))

                def walked(index):
                    walker.index = index
                    return walker.eval(node, cond)

                for index in indexes:
                    assert reading(compiled, index) == reading(walked, index), (node, index)
                assert env.out.getvalue() == walker.out.getvalue()
                assert repr(env.variables) == repr(walker.variables)
                assert env.aliases == walker.aliases


@PROPERTY
@given(PROGRAMS)
def test_random_programs_run_the_same_planned_and_dense(dense_sweep, program):
    agree(dense_sweep, program, WAVES)


@PROPERTY
@given(PLANNABLE)
def test_random_signal_heads_run_the_same_planned_and_dense(dense_sweep, program):
    agree(dense_sweep, program, WAVES)


# by name: a failing example's report would print a strategy's whole repr
REFERENCE_PROGRAMS = {"any": PROGRAMS, "signal_heads": PLANNABLE, "renamings": RENAMINGS,
                      "running": RUNNING}


@pytest.mark.parametrize("kind", list(REFERENCE_PROGRAMS))
@PROPERTY
@given(data=st.data())
def test_random_programs_run_as_the_reference(dense_sweep, kind, data):
    program = data.draw(REFERENCE_PROGRAMS[kind])
    expected = [outcome(program, wave, run=reference_eval.execute) for wave in WAVES]
    assert agree(dense_sweep, program, WAVES) == expected, to_source(program)


@pytest.mark.parametrize("window", [1, 2])
@PROPERTY
@given(program=PROGRAMS)
def test_random_programs_run_the_same_in_narrow_windows(dense_sweep, window, program):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "_WINDOW", window)
        patch.setattr(interp, "_SPAN", window)
        agree(dense_sweep, program, WAVES)


@pytest.mark.parametrize("window", [1, 2])
@PROPERTY
@given(program=PLANNABLE)
def test_random_signal_heads_run_the_same_in_narrow_windows(dense_sweep, window, program):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "_WINDOW", window)
        patch.setattr(interp, "_SPAN", window)
        agree(dense_sweep, program, WAVES)


# --- narrowing one head condition ---

HELD, UNPROVEN = ("held",), ("unproven",)


def narrowed(node, wave, pieces):
    """What interp._narrow makes of the pure condition `node` over
    `pieces`, and what it should make, both as {index: visit}; None when
    `node` names a signal the wave lacks. The parts must be ascending and
    apart, and adjacent parts must differ."""
    test, reads = interp._compile(node, Environment(wave), True, set())
    if reads is None:
        return None
    parts = list(interp._narrow(test, reads, wave.index_count, iter(pieces), UNPROVEN))
    for (_, end, visit), (start, _, after) in zip(parts, parts[1:]):
        assert end < start or (end == start and visit is not after), parts
    assert all(start < end for start, end, _ in parts), parts
    got = {index: visit for start, end, visit in parts for index in range(start, end)}
    expected = {}
    for start, end, statement in pieces:
        for index in range(start, end):
            try:
                if interp._truthy(test(index)):
                    expected[index] = statement
            except RunFailure:
                expected[index] = UNPROVEN
    return got, expected


@st.composite
def pieces_of(draw, count):
    """Ascending (start, end, statement) pieces over range(count), apart
    or adjacent, each holding HELD or UNPROVEN, as a narrowing passes on."""
    cuts = sorted(draw(st.sets(st.integers(0, count), max_size=6)) | {0, count})
    return [(start, end, draw(st.sampled_from([HELD, HELD, UNPROVEN])))
            for start, end in zip(cuts, cuts[1:]) if draw(st.booleans())]


@pytest.mark.parametrize("span", [1, 2, None])
@PROPERTY
@given(node=PURE, data=st.data())
def test_narrowing_reads_as_the_head_at_every_index(span, node, data):
    with pytest.MonkeyPatch.context() as patch:
        if span:
            patch.setattr(interp, "_SPAN", span)
        for wave in WAVES:
            found = narrowed(node, wave, data.draw(pieces_of(wave.index_count)))
            if found is not None:
                got, expected = found
                assert got == expected, (to_source(ast.Program((ast.Statement(
                    ast.Conditions((node,)), ()),))), wave.index_count)


NARROW_WAVE = make_waveform(5, {
    "s": (1, [(0, "1"), (1, "0"), (3, "1")]),
    "x": (2, [(0, "1x"), (2, "10")]),
})


@pytest.mark.parametrize("source, held", [
    ("1", [0, 1, 2, 3, 4]),  # reads nothing
    ('""', []),
    ("s@-2", [2]),  # enters at 2, where its first change, at 0, also cuts
    ("s != s", []),  # one series read twice
    ("x != x", None),  # ... raising while x has an x bit
    ("s@5 || s@-5 || !s@9", [0, 1, 2, 3, 4]),  # past both ends
    ("s@4 || s@-4", [0, 4]),  # at both ends
])
def test_narrowing_examples(source, held):
    (statement,) = parse_source(f"{source}: {{ }}").statements
    (node,) = statement.trigger.exprs
    got, expected = narrowed(node, NARROW_WAVE, [(0, 5, HELD)])
    assert got == expected
    if held is not None:
        assert got == dict.fromkeys(held, HELD)
    else:
        assert got == {0: UNPROVEN, 1: UNPROVEN}


def test_the_memo_is_kept_per_head_condition():
    # s and !s read the same values; each narrowing asks its own test
    for source, held in [("s", [0, 3, 4]), ("!s", [1, 2]), ("s", [0, 3, 4])]:
        (statement,) = parse_source(f"{source}: {{ }}").statements
        got, _ = narrowed(statement.trigger.exprs[0], NARROW_WAVE, [(0, 5, HELD)])
        assert got == dict.fromkeys(held, HELD)


# --- the cases the planner must get right or decline ---

SIG_SIGNALS = {
    "s": (1, [(0, "0"), (1, "1"), (2, "0"), (4, "1")]),
    "bus": (4, [(0, "0011"), (3, "0x00"), (5, "0001")]),
}
SIG = make_waveform(6, SIG_SIGNALS)


@pytest.fixture
def visited(monkeypatch):
    """Per execute(), the (index, statement ordinals) pairs the sweep
    visits, or None when it fell back to every statement at every index."""
    runs = []
    real = interp._plan

    def spy(env, sweep):
        plan = real(env, sweep)
        if plan is None:
            runs.append(None)
            return None
        plan = list(plan)
        runs.append([(index, [stmt[0] for stmt in stmts]) for index, stmts in plan])
        return iter(plan)

    monkeypatch.setattr(interp, "_plan", spy)
    return runs


def run_both(dense_sweep, source, wave=SIG, args=()):
    ((out, result),) = agree(dense_sweep, parse_source(source), [wave], args)
    return out, result


class TestPlan:
    def test_only_indexes_where_the_head_holds_are_visited(self, dense_sweep, visited):
        out, _ = run_both(dense_sweep, 's, !s@-1: { printf("%d ", INDEX); }')
        assert out == "1 4 "
        assert visited[-1] == [(1, [1]), (4, [1])]

    def test_the_sweep_reads_the_cheapest_condition_first_without_changing_order(
            self, dense_sweep, visited):
        wave = make_waveform(8, {"clk": (1, [(i, "01"[i % 2]) for i in range(8)]),
                                 "fire": (1, [(0, "0"), (5, "1"), (6, "0")])})
        out, _ = run_both(dense_sweep, 'clk, fire: { printf("%d ", INDEX); }', wave)
        assert out == "5 "
        assert visited[-1] == [(5, [1])]

    def test_a_head_name_assigned_in_a_sweep_body_stays_a_variable(self, dense_sweep, visited):
        # s reads the signal until the body assigns it, then the variable
        out, _ = run_both(dense_sweep, 's: { printf("%d ", INDEX); s = INDEX < 3; }')
        assert out == "1 2 3 "
        assert visited[-1] is None

    def test_a_head_name_assigned_only_in_begin_stays_a_variable(self, dense_sweep, visited):
        out, _ = run_both(dense_sweep, 'BEGIN: { s = 1; }\ns: { printf("%d ", INDEX); }')
        assert out == "0 1 2 3 4 5 "
        assert visited[-1] is None

    def test_alias_in_a_sweep_body_visits_every_index(self, dense_sweep, visited):
        # from index 0 on, s names bus, which holds where the signal s does not
        wave = make_waveform(6, {**SIG_SIGNALS, "go": (1, [(0, "1"), (1, "0")])})
        out, _ = run_both(dense_sweep, 'go: { alias(s, bus); }\ns: { printf("%d ", INDEX); }',
                          wave)
        assert out == "0 1 2 5 "
        assert visited[-1] is None
        run_both(dense_sweep, 'BEGIN: { alias(a, s); }\na: { printf("%d ", INDEX); }')
        assert visited[-1] == [(1, [2]), (4, [2]), (5, [2])]

    @pytest.mark.parametrize("head", ["INDEX > 3", "length([1]) == 1", "args", "nope"])
    def test_a_first_condition_that_is_not_signal_only_visits_every_index(
            self, dense_sweep, visited, head):
        run_both(dense_sweep, f'{head}, s: {{ printf("%d ", INDEX); }}', args=["a"])
        assert visited[-1] is None

    def test_index_and_calls_after_a_signal_head_run_only_where_it_holds(
            self, dense_sweep, visited):
        modules = default_native_modules()
        calls = []
        modules["probe"] = {"bump": lambda args: calls.append(args[0]) or 1}
        program = parse_source("BEGIN: { import(probe); }\n"
                               "s, call(probe.bump, INDEX), INDEX > 1: { n = INDEX; }")
        env = execute(program, SIG, out=io.StringIO(), modules=modules)
        assert calls == [1, 4, 5]
        assert env.variables["n"] == 5
        assert visited[-1] == [(1, [2]), (4, [2]), (5, [2])]

    def test_a_head_that_raises_at_a_later_index(self, dense_sweep):
        _, error = run_both(dense_sweep, "bus + 1: { n = INDEX; }")
        assert error[:2] == (RunFailure, "cannot convert '0x00' to an integer: contains x/z bits")
        assert error[2] == "statement 1 at index 3"
        # a false condition before it stops the sweep first
        _, result = run_both(dense_sweep, "BEGIN: { n = 0; }\n!s@1, bus + 1: { n = n + 1; }")
        assert result == "{'args': [], 'n': 3}"
        _, error = run_both(dense_sweep, "bus + 1, !s@1: { n = INDEX; }")
        assert error[2] == "statement 1 at index 3"

    @pytest.mark.parametrize("k, expected", [
        (6, ""), (-6, ""), (10**30, ""), (5, "0 "), (-5, "5 ")])
    def test_offsets_at_and_past_the_trace_length(self, dense_sweep, k, expected):
        out, _ = run_both(dense_sweep, f'bus@{k}: {{ printf("%d ", INDEX); }}')
        assert out == expected
        out, _ = run_both(dense_sweep, f'!bus@{k}: {{ printf("%d ", INDEX); }}')
        assert len(out.split()) == 6 - len(expected.split())

    def test_a_read_before_the_first_change_differs_from_one_before_the_trace(
            self, dense_sweep):
        # late@-1 is out of range at index 0, which compares as false, but
        # all x at index 1, which cannot be compared
        wave = make_waveform(6, {"late": (2, [(3, "01")])})
        _, error = run_both(dense_sweep, "late@-1 == 0: { }", wave)
        assert error[:2] == (RunFailure, "cannot convert 'xx' to an integer: contains x/z bits")
        assert error[2] == "statement 1 at index 1"

    def test_a_later_statement_assigns_what_an_earlier_one_reads(self, dense_sweep, visited):
        # the @cpi pattern: at one index the first statement reads `start`
        # before the second statement sets it
        source = ('s, start: { printf("%d-%d ", start, INDEX); }\n'
                  "s: { start = INDEX; }")
        out, _ = run_both(dense_sweep, source)
        assert out == "1-4 4-5 "
        assert visited[-1] == [(1, [1, 2]), (4, [1, 2]), (5, [1, 2])]

    def test_a_wave_longer_than_the_window(self, dense_sweep, visited):
        # `long` holds over more than two windows, then nothing fires for
        # more than a window before `blip`; the count is no multiple of it
        w = interp._WINDOW
        count = 5 * w + 3
        signals = {"long": (1, [(0, "0"), (1, "1"), (2 * w + 2, "0")]),
                   "blip": (1, [(0, "0"), (count - 2, "1"), (count - 1, "0")]),
                   "clk": (1, [(i, "01"[i % 2]) for i in range(count)])}
        source = ('long: { n = n + 1; }\n'
                  'blip || long@-1 && !long: { printf("%d ", INDEX); }\n'
                  'clk, long || blip: { m = m + 1; }')
        program = parse_source("BEGIN: { n = 0; m = 0; }\n" + source)
        (result,) = agree(dense_sweep, program, [make_waveform(count, signals)])
        fired = [*range(1, 2 * w + 2), count - 2]  # where `long || blip` holds
        assert result == (f"{2 * w + 2} {count - 2} ",
                          f"{{'args': [], 'n': {2 * w + 1}, 'm': {sum(i % 2 for i in fired)}}}")
        expected = ([(i, [2, 4] if i % 2 else [2]) for i in range(1, 2 * w + 2)]
                    + [(2 * w + 2, [3]), (count - 2, [3, 4] if (count - 2) % 2 else [3])])
        assert visited[-3:] == [expected] * 3
        empty = {name: (width, []) for name, (width, _) in signals.items()}
        assert agree(dense_sweep, program, [make_waveform(0, empty)]) == [
            ("", "{'args': [], 'n': 0, 'm': 0}")]
        assert visited[-1] == []

    def test_a_trace_of_one_index(self, dense_sweep, visited):
        wave = make_waveform(1, {"s": (1, [(0, "1")])})
        source = 's, !s@-1, !s@1: { printf("%d ", INDEX); }\n!s: { printf("never"); }'
        out, _ = run_both(dense_sweep, source, wave)
        assert out == "0 "
        assert visited[-1] == [(0, [1])]


# --- arithmetic: the compiled int fast path and _operate ---
# `+`, `-` and `*` on two ints of exactly class int skip _operate; every
# other operand must give the reference's value or error. SIG's bus reads
# 3 at indexes 0-2 and 0x00 at 3 and 4; probe.yes returns True, a bool
# that neither arithmetic nor extern.decode takes as an integer.

ARITHMETIC = [
    ("BEGIN: { import(probe); n = call(probe.yes) + 1; }",
     (RunFailure, "operand of '+' must be an integer", "statement 1 (BEGIN)")),
    ("BEGIN: { import(probe); n = 2 * call(probe.yes); }",
     (RunFailure, "operand of '*' must be an integer", "statement 1 (BEGIN)")),
    ("BEGIN: { n = 0; }\ns@1 || !s@1: { n = n + bus * 2 - INDEX; }",
     (RunFailure, "cannot convert '0x00' to an integer: contains x/z bits",
      "statement 2 at index 3")),
    ("BEGIN: { n = 0; }\n!bus@-3: { n = n + bus * 2 - INDEX; }", "{'args': [], 'n': 15}"),
    ("bus@-3: { n = 1 - bus; }",
     (RunFailure, "cannot convert '0x00' to an integer: contains x/z bits",
      "statement 1 at index 3")),
    ("BEGIN: { l = [1]; m = l + 2 + [3] - 0 * 5; }",
     (RunFailure, "operand of '-' must be an integer, got list", "statement 1 (BEGIN)")),
    ("BEGIN: { l = [1]; m = l + 2 + [3]; n = 1 + l; }",
     (RunFailure, "operand of '+' must be an integer, got list", "statement 1 (BEGIN)")),
    ("BEGIN: { l = [1]; m = l + (2 - 3) + [3 * 4]; }",
     "{'args': [], 'l': [1, -1, [12]], 'm': [1, -1, [12]]}"),
    ('BEGIN: { n = printf("") + 1; }',
     (RunFailure, "operand of '+' is an unbound variable", "statement 1 (BEGIN)")),
    ('BEGIN: { n = 1 * printf(""); }',
     (RunFailure, "operand of '*' is an unbound variable", "statement 1 (BEGIN)")),
    ("s@1: { n = s@-1 - 1; }",
     (RunFailure, "operand of '-' is an out-of-range signal sample",
      "statement 1 at index 0")),
    ("s@1: { n = 1 + s@9; }",
     (RunFailure, "operand of '+' is an out-of-range signal sample",
      "statement 1 at index 0")),
    ("BEGIN: { n = 18446744073709551616 * 18446744073709551616 - 1 + 2; m = 0 - n * 3; }",
     f"{{'args': [], 'n': {2**128 + 1}, 'm': {-3 * (2**128 + 1)}}}"),
    ("BEGIN: { import(probe); import(extern); n = call(extern.decode, call(probe.yes)); }",
     (RunFailure, "decode needs an instruction word, got bool", "statement 1 (BEGIN)")),
]


@pytest.mark.parametrize("source, expected", ARITHMETIC)
def test_arithmetic_reads_as_the_reference(dense_sweep, source, expected):
    program = parse_source(source)
    modules = {**default_native_modules(), "probe": {"yes": lambda args: True}}
    assert outcome(program, SIG, modules=modules, run=reference_eval.execute) == ("", expected)
    assert agree(dense_sweep, program, [SIG], modules=modules) == [("", expected)]


@pytest.fixture
def conditions_walked(monkeypatch):
    """The statement conditions the sweep evaluates, one node per call:
    the compiled functions that execute() itself calls. The planner's
    own tests of a head are not counted."""
    nodes = []
    real = interp._compile
    sweep = interp.execute.__code__

    def spy(node, env, cond, assigned):
        compiled, reads = real(node, env, cond, assigned)

        def counted(index):
            if sys._getframe(1).f_code is sweep:
                nodes.append(node)
            return compiled(index)

        return counted, reads

    monkeypatch.setattr(interp, "_compile", spy)
    return nodes


class TestBoundHeads:
    def test_a_proven_head_is_not_evaluated_again(self, conditions_walked):
        env = execute(parse_source("BEGIN: { n = 0; }\ns != s@-1: { n = n + 1; }"), SIG,
                      out=io.StringIO())
        assert env.variables["n"] == 3
        assert conditions_walked == []

    def test_only_the_conditions_after_the_head_are_walked(self, conditions_walked, visited):
        # the @cpi shape: `op` is assigned by a body, so the head stops before it
        wave = make_waveform(8, {"clk": (1, [(i, "01"[i % 2]) for i in range(8)]),
                                 "fire": (1, [(0, "0"), (1, "1"), (2, "0"), (5, "1"), (6, "0")])})
        program = parse_source('clk, !fire, fire@2, op == args[0]: { n = INDEX; }\n'
                               'clk, fire: { op = args[0]; }')
        env = execute(program, wave, args=["a"], out=io.StringIO())
        assert env.variables["n"] == 3
        assert visited[-1] == [(1, [2]), (3, [1]), (5, [2])]
        assert conditions_walked == [program.statements[0].trigger.exprs[3]]


def toggle_vcd(count):
    """`count` indexes of three 1-bit signals: top.a toggles at every
    index, top.b at every third, top.c is high two indexes in seven and x
    at 40."""
    lines = ["$scope module top $end", *(f"$var wire 1 {c} {c} $end" for c in "abc"),
             "$upscope $end", "$enddefinitions $end"]
    for i in range(count):
        lines += [f"#{i}", f"{i % 2}a"]
        if i % 3 == 0:
            lines.append(f"{i // 3 % 2}b")
        lines.append(f"{'x' if i == 40 else int(i % 7 < 2)}c")
    return "\n".join(lines) + "\n"


class TestWorkCounts:
    """How often the planner tests a head, counted rather than timed: at
    most once per distinct tuple of the values it reads (their identity),
    and never again in the sweep where it held."""

    HEADS = [("top.a != top.a@-1", [("top.a", 0), ("top.a", -1)]),
             ("top.b != top.b@-1", [("top.b", 0), ("top.b", -1)]),
             ("top.c && !top.a@1", [("top.c", 0), ("top.a", 1)]),
             ("top.b || top.c@-2", [("top.b", 0), ("top.c", -2)])]

    def test_each_head_is_tested_once_per_distinct_input(self, monkeypatch):
        calls = {}  # (head source, caller) -> calls
        heads = {parse_source(f"{h}: {{ }}").statements[0].trigger.exprs[0]: h
                 for h, _ in self.HEADS}
        real = interp._compile

        def spy(node, env, cond, assigned):
            compiled, reads = real(node, env, cond, assigned)
            if node not in heads:
                return compiled, reads

            def counted(index):
                caller = heads[node], sys._getframe(1).f_code.co_name
                calls[caller] = calls.get(caller, 0) + 1
                return compiled(index)

            return counted, reads

        monkeypatch.setattr(interp, "_compile", spy)
        count = 120  # several _SPANs of top.a's changes
        wave = parse_vcd(io.StringIO(toggle_vcd(count)))
        source = "".join(f"{h}: {{ n{i} = n{i} + 1; }}\n" for i, (h, _) in enumerate(self.HEADS))
        env = execute(parse_source("BEGIN: { n0 = 0; n1 = 0; n2 = 0; n3 = 0; }\n" + source),
                      wave, out=io.StringIO())
        distinct = [len({tuple(id(wave.series(name).value_at(i + k)) if 0 <= i + k < count
                               else None for name, k in reads) for i in range(count)})
                    for _, reads in self.HEADS]
        tested = [calls.get((h, "_narrow"), 0) for h, _ in self.HEADS]
        assert tested == distinct == [3, 5, 6, 6]
        assert [caller for _, caller in calls] == ["_narrow"] * len(self.HEADS)
        assert [env.variables[f"n{i}"] for i in range(4)] == [119, 39, 18, 76]


# go high at 0-4; s high at 1, 4 and 5; bus defined at 0-2 and 5, with an x at 3-4
REUSE_SIGNALS = {
    "go": (1, [(0, "1"), (5, "0")]),
    "s": (1, [(0, "0"), (1, "1"), (2, "0"), (4, "1")]),
    "bus": (4, [(0, "0011"), (3, "0x00"), (5, "0001")]),
}


def reuse_wave():
    return make_waveform(6, REUSE_SIGNALS)


class TestPlanReuse:
    """A plan is kept beside its waveform from the second run with the
    same statements and head reads on; every run must read as a run of
    the same script over a freshly made waveform."""

    def test_all_mnemonics_over_one_wave_narrow_in_the_first_two_runs_only(
            self, monkeypatch):
        text, _ = generate(table1_spec())
        source = bundled_script("cpi")
        fresh = [outcome(parse_source(source), parse_vcd(io.StringIO(text)), [m])
                 for m in MNEMONICS]
        narrowed = []
        real = interp._narrow

        def spy(*args):  # counts the runs that read a narrowing
            narrowed[-1] += 1
            yield from real(*args)

        monkeypatch.setattr(interp, "_narrow", spy)
        wave = parse_vcd(io.StringIO(text))
        program = parse_source(source)
        for mnemonic, expected in zip(MNEMONICS, fresh):
            narrowed.append(0)
            assert outcome(program, wave, [mnemonic]) == expected, mnemonic
        assert [n > 0 for n in narrowed] == [True, True] + [False] * (len(MNEMONICS) - 2)
        assert sum(1 for out, _ in fresh if out) == 36

    def test_begin_decides_the_head_by_the_arguments(self):
        # "v": s is a variable, so the head is `go` alone; "a" and "b" bind
        # the same three conditions, with t naming bus or s
        program = parse_source(
            'BEGIN: { if (args[0] == "v") s = 1;\n'
            '         if (args[0] == "b") alias(t, s); else alias(t, bus); }\n'
            'go, s, t: { printf("%d ", INDEX); }')
        expected = {"v": "0 1 2 ", "a": "1 ", "b": "1 4 "}
        wave = reuse_wave()
        for _ in range(3):
            for arg, out in expected.items():
                got = outcome(program, wave, [arg])
                assert got == outcome(program, reuse_wave(), [arg]), arg
                assert got[0] == out, arg

    def test_programs_that_share_heads_keep_their_own_plans(self):
        sources = ['s, !s@-1: { printf("%d ", INDEX); }',
                   's, !s@-1: { printf("%d,", INDEX); }',
                   's, !s@-1, INDEX > 2: { n = INDEX; }',
                   'BEGIN: { n = 0; }\ns, !s@-1: { n = n + INDEX; }',
                   's, !s@-1: { n = 1 / 0; }',
                   'BEGIN: { }\ns, !s@-1: { n = 1 / 0; }']  # the same statement, second
        expected = [("1 4 ", "{'args': []}"), ("1,4,", "{'args': []}"),
                    ("", "{'args': [], 'n': 4}"), ("", "{'args': [], 'n': 5}"),
                    ("", (RunFailure, "1 / 0", "statement 1 at index 1")),
                    ("", (RunFailure, "1 / 0", "statement 2 at index 1"))]
        wave = reuse_wave()
        for _ in range(3):
            for source, result in zip(sources, expected):
                got = outcome(parse_source(source), wave)
                assert got == outcome(parse_source(source), reuse_wave()) == result, source

    def test_the_dense_sweep_ignores_a_kept_plan(self, dense_sweep, conditions_walked):
        program = parse_source("s: { n = INDEX; }")
        wave = reuse_wave()
        for _ in range(3):
            assert outcome(program, wave) == ("", "{'args': [], 'n': 5}")
        assert conditions_walked == []
        with dense_sweep():
            assert outcome(program, wave) == ("", "{'args': [], 'n': 5}")
        assert len(conditions_walked) == wave.index_count

    def test_a_plan_is_kept_from_its_second_run_and_dies_with_its_waveform(self):
        program = parse_source("s: { n = INDEX; }")
        wave = reuse_wave()
        outcome(program, wave)
        assert list(interp._PLANS[wave].values()) == [False]
        outcome(program, wave)
        (kept,) = interp._PLANS[wave].values()
        # (statement ordinal, conditions proven): the head of one held
        assert kept == [(1, [(1, 1)]), (4, [(1, 1)]), (5, [(1, 1)])]
        held = weakref.ref(wave)
        gc.collect()  # so only this waveform can leave the map below
        before = len(interp._PLANS)
        del wave
        gc.collect()
        assert held() is None
        assert len(interp._PLANS) == before - 1

    def test_a_kept_plan_runs_with_the_state_of_the_run_that_reads_it(self):
        program = parse_source('BEGIN: { n = 0; }\n'
                               's: { printf("%s%d ", args[0], INDEX); n = n + INDEX; }')
        wave = reuse_wave()
        earlier = [io.StringIO(), io.StringIO()]
        for arg, out in zip("ab", earlier):
            execute(program, wave, args=[arg], out=out)
        (kept,) = interp._PLANS[wave].values()
        assert kept
        assert outcome(program, wave, ["c"]) == ("c1 c4 c5 ", "{'args': ['c'], 'n': 10}")
        assert [out.getvalue() for out in earlier] == ["a1 a4 a5 ", "b1 b4 b5 "]
