import io
import pathlib
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager
from operator import length_hint

import pytest

from wawk import interp, vcd
from wawk.errors import ParseFailure
from wawk.interp import execute
from wawk.parser import parse_source
from wawk.vcd import parse_vcd
from wawk.waveform import SignalSeries, Value, Waveform


def make_waveform(count: int, signals: dict) -> Waveform:
    """Build a Waveform directly, bypassing the VCD layer.

    `signals` maps name -> (width, [(index, bits), ...]) with indexes
    ascending."""
    table = {}
    for name, (width, changes) in signals.items():
        indexes = [i for i, _ in changes]
        values = [Value(bits) for _, bits in changes]
        table[name] = SignalSeries(width, indexes, values)
    return Waveform(list(range(count)), table)


def raises_exactly(error: type, message: str):
    """pytest.raises that also pins the whole message: an error class
    stands for a whole input family, so the message says what went wrong."""
    return pytest.raises(error, match=f"^{re.escape(message)}\\Z")


def run_script(source: str, waveform: Waveform, args=()):
    """Parse and execute a script; returns (stdout text, environment)."""
    out = io.StringIO()
    env = execute(parse_source(source), waveform, args=args, out=out)
    return out.getvalue(), env


NESTINGS = ("parens", "minus", "not", "subscript", "call", "list", "if", "sum", "block", "else")


def nested_statement(kind: str, depth: int) -> str:
    """An action statement that assigns `v_<kind>` through exactly `depth`
    levels of one kind of nesting the parser's depth limit counts. The
    subscript kind indexes a variable `l` holding [0]."""
    if kind == "if":
        return "if (1) " * depth + "v_if = 1;"
    if kind == "block":  # brace bodies
        return "if (1) { " * depth + "v_block = 1;" + " }" * depth
    if kind == "else":  # else bodies, each after an empty then body
        return "if (0) ; else " * depth + "v_else = 1;"
    if kind == "sum":  # a chain of `depth` operators, depth + 1 terms
        return "v_sum = " + "0 + " * depth + "1;"
    if kind == "call":  # min([...]) opens two levels, the call and the list
        half, odd = divmod(depth, 2)
        expr = "min([" * half + "(" * odd + "1" + ")" * odd + "])" * half
    else:
        opener, inner, closer = {
            "parens": ("(", "1", ")"),
            "minus": ("-", "1", ""),
            "not": ("!", "1", ""),
            "subscript": ("l[", "0", "]"),
            "list": ("[", "1", "]"),
        }[kind]
        expr = opener * depth + inner + closer * depth
    return f"v_{kind} = {expr};"


def nested_script(depth: int) -> str:
    """A BEGIN-only script with one statement per NESTINGS kind at `depth`
    levels; at an even depth it prints "1 1 1 0 1 1 1 1 1 1"."""
    lines = ["BEGIN: {", "l = [0];"]
    lines += [nested_statement(kind, depth) for kind in NESTINGS]
    lines.append('printf("%d %d %d %d %d %d %d %d %d %d\\n", v_parens, v_minus, v_not, '
                 "v_subscript, v_call, length(v_list), v_if, v_sum, v_block, v_else);")
    lines.append("}")
    return "\n".join(lines) + "\n"


def wave_from_vcd(text: str) -> Waveform:
    return parse_vcd(io.StringIO(text))


@pytest.fixture
def clocked_wave():
    """20 indexes, clk alternating from 1, plus an 8-bit counter that
    increments at every posedge."""
    clk = [(i, "10"[i % 2]) for i in range(20)]
    counter = [(i, format(i // 2, "08b")) for i in range(0, 20, 2)]
    return make_waveform(20, {"top.clk": (1, clk), "top.counter": (8, counter)})


@pytest.fixture(scope="session")
def dense_sweep():
    """A context manager under which execute() visits every statement at
    every index, the order the planned sweep must agree with."""

    @contextmanager
    def dense():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(interp, "_plan", lambda env, sweep: None)
            yield

    return dense


@contextmanager
def token_loop_lines():
    """A list that gets, for each line that parse_vcd() sends to the token
    loop, the number of lines after it in its block: the reader calls
    length_hint once per such line, to number it."""
    seen = []

    def hint(rest):
        seen.append(length_hint(rest))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vcd, "length_hint", hint)
        yield seen


def parse_by_token_loop(text: str) -> Waveform:
    """parse_vcd() of `text` with one space before every non-empty line.
    No fast path takes such a line, so the token loop, the reading the fast
    paths must agree with, reads every line; this asserts that it did."""
    text = re.sub(r"(?m)^(?=.)", " ", text)
    every = [after for _, lines in vcd._blocks(io.StringIO(text))
             for after in reversed(range(len(lines)))]
    with token_loop_lines() as seen:
        try:
            wave = parse_vcd(io.StringIO(text))
        except ParseFailure:
            assert seen == every[:len(seen)]  # each line up to the error's
            raise
    assert seen == every
    return wave


@pytest.fixture(scope="session")
def differential():
    """A function that runs tests/differential.py against HEAD with the
    arguments it is given; skips where git, tar or the history is missing."""
    root = pathlib.Path(__file__).resolve().parent.parent
    if shutil.which("git") is None or shutil.which("tar") is None:
        pytest.skip("no git or tar on PATH to extract HEAD with")
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "--verify", "HEAD"],
                          capture_output=True)
    if head.returncode:
        pytest.skip("no git history here to compare with")

    def run(*args):
        return subprocess.run([sys.executable, str(root / "tests" / "differential.py"),
                               "--against", "HEAD", *args],
                              capture_output=True, text=True, timeout=300)

    return run
