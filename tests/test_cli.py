import ast
import importlib.metadata
import io
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from conftest import nested_script
from wawk import cli, errors, parser
from wawk.cli import main
from wawk.parser import MAX_DEPTH
from wawk.tracegen import TraceSpec, generate, parse_spec_file, table1_spec


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
LINE_BUDGET = 2_600  # lines in src/wawk/*.py; a line added pays with one removed


def _declared_wawk_target():
    """The `module:attr` that pyproject.toml's [project.scripts] declares
    for the `wawk` command."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "wawk" in scripts, "pyproject.toml declares no `wawk` script"
    return scripts["wawk"]


def _fresh_python(check, cwd):
    """The output lines of `check` run by a new interpreter that imports
    wawk from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", check], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _wawk_distribution_installed():
    try:
        importlib.metadata.distribution("wawk")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _run_wawk(args, **kwargs):
    """`python -m wawk ARGS` in a fresh interpreter on the checkout's src."""
    env = kwargs.pop("env", dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "wawk", *args], env=env,
                          text=True, timeout=60, **kwargs)


def _stdin(data: bytes):
    """A stand-in for sys.stdin with `data` under it, read through
    `.buffer` as the CLI reads a real stdin."""
    return io.TextIOWrapper(io.BytesIO(data))


SMALL_SCRIPT = """\
BEGIN: { import(extern); }
TOP.servant_sim.dut.cpu.clk, TOP.servant_sim.dut.cpu.i_ibus_ack: {
    m = call(extern.decode, TOP.servant_sim.dut.cpu.i_ibus_rdt);
    printf("%s\\n", m);
}
"""


@pytest.fixture
def small_vcd(tmp_path):
    path = tmp_path / "small.vcd"
    text, _ = generate(parse_spec_file("00000033 3\n00000013 2\n"))
    path.write_text(text)
    return path


@pytest.fixture
def table1_vcd(tmp_path):
    path = tmp_path / "t1.vcd"
    text, _ = generate(table1_spec())
    path.write_text(text)
    return path


# a spec line in which one number is not in the format a spec takes
SPEC_REFUSED = [
    ("1_3 2", "line 1: bad instruction word '1_3'"),
    ("0x1_3 2", "line 1: bad instruction word '0x1_3'"),
    ("+13 2", "line 1: bad instruction word '+13'"),
    ("\uff10x13 2", "line 1: bad instruction word '\uff10x13'"),
    ("13 \u0663", "line 1: bad cycle count '\u0663'"),
    ("13 1_0", "line 1: bad cycle count '1_0'"),
    ("13 +2", "line 1: bad cycle count '+2'"),
    ("13 -1", "line 1: bad cycle count '-1'"),
    ("13 0x2", "line 1: bad cycle count '0x2'"),
]


class TestDecode:
    def test_known_word(self, capsys):
        assert main(["decode", "0x00000033"]) == 0
        assert capsys.readouterr().out == "add\n"

    def test_bare_hex(self, capsys):
        assert main(["decode", "00000013"]) == 0
        assert capsys.readouterr().out == "addi\n"

    def test_unknown_word(self, capsys):
        assert main(["decode", "0x00000000"]) == 0
        assert capsys.readouterr().out == "unknown\n"

    def test_bad_hex(self, capsys):
        assert main(["decode", "zzz"]) == 2
        assert "wawk:" in capsys.readouterr().err

    def test_too_wide(self, capsys):
        assert main(["decode", "0x100000000"]) == 2
        assert "32 bits" in capsys.readouterr().err

    # a word is an optional 0x or 0X, then ASCII hex digits; int() alone
    # also takes underscores, signs, spaces and non-ASCII digits
    @pytest.mark.parametrize("word, out", [("13", "addi"), ("0x13", "addi"),
                                           ("0X00500093", "addi"), ("0x33", "add")])
    def test_word_format(self, capsys, word, out):
        assert main(["decode", word]) == 0
        assert capsys.readouterr() == (out + "\n", "")

    @pytest.mark.parametrize("word", ["0x1_3", "1_3", "+5", "-5", " 13", "13 ", "\u0663",
                                      "\uff10x13", "0x", "", "0x+5"])
    def test_other_words_are_refused(self, capsys, word):
        assert main(["decode", word]) == 2
        message = f"wawk: {word!r} is not a hexadecimal instruction word\n"
        assert capsys.readouterr() == ("", message)


class TestGen:
    def test_table1_to_file(self, tmp_path, capsys):
        out = tmp_path / "trace.vcd"
        assert main(["gen", "table1", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("$timescale")
        expected, _ = generate(table1_spec())
        assert text == expected

    def test_table1_to_stdout(self, capsys):
        assert main(["gen", "table1", "-"]) == 0
        out = capsys.readouterr().out
        assert out == generate(table1_spec())[0]

    def test_options(self, tmp_path):
        out = tmp_path / "trace.vcd"
        assert main(["gen", "table1", str(out),
                     "--half-period", "3", "--dummy-signals", "2"]) == 0
        expected, _ = generate(table1_spec(clock_half_period=3, dummy_signals=2))
        assert out.read_text() == expected

    @pytest.mark.parametrize("option, value, message", [
        ("--half-period", "0", "clock half period 0 must be >= 1"),
        ("--half-period", "-1", "clock half period -1 must be >= 1"),
        ("--dummy-signals", "-1", "dummy signal count -1 must be 0..64"),
        ("--dummy-signals", "65", "dummy signal count 65 must be 0..64"),
    ])
    def test_option_numbers_out_of_range(self, capsys, option, value, message):
        assert main(["gen", "table1", "-", option, value]) == 2
        assert capsys.readouterr() == ("", f"wawk: {message}\n")

    # int() takes all but the first two; ASCII digits after one '-' only
    @pytest.mark.parametrize("value", ["abc", "", "٣", "1_0", "+2", " 5", "5 ", "0x5",
                                       "５", "--5", "-", "-٣"])
    @pytest.mark.parametrize("option", ["--half-period", "--dummy-signals"])
    def test_option_numbers_in_other_formats_are_refused(self, capsys, option, value):
        assert main(["gen", "table1", "-", f"{option}={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: wawk gen table1 ")
        assert err.endswith(f"\nwawk gen table1: error: argument {option}: "
                            f"invalid int value: {value!r}\n")

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "prog.spec"
        spec.write_text("# two adds\n0x00000033 3\n00000033 2\n")
        out = tmp_path / "trace.vcd"
        assert main(["gen", "spec", str(spec), str(out)]) == 0
        assert "$enddefinitions" in out.read_text()

    def test_spec_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(b"00000033 3\n00000013 2\n"))
        assert main(["gen", "spec", "-", "-"]) == 0
        out = capsys.readouterr().out
        assert out == generate(TraceSpec(((0x33, 3), (0x13, 2))))[0]

    def test_spec_missing_file(self, tmp_path, capsys):
        assert main(["gen", "spec", str(tmp_path / "none.spec"), "-"]) == 2
        assert "wawk:" in capsys.readouterr().err

    def test_spec_not_utf8(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(b"00000033 3\n\xff\n")
        assert main(["gen", "spec", str(spec), "-"]) == 2
        assert capsys.readouterr().err.startswith("wawk: cannot read spec: 'utf-8' codec")

    def test_spec_bad_contents(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("not hex at all\n")
        assert main(["gen", "spec", str(spec), "-"]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_spec_requires_file_argument(self, capsys):
        assert main(["gen", "spec"]) == 2

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.vcd"
        assert main(["gen", "table1", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"wawk: cannot write output: [Errno 2] No such file or directory: {str(out)!r}\n")

    def test_spec_number_formats(self, tmp_path, capsys):
        spec = tmp_path / "ok.spec"
        spec.write_text("13 2\n0x13 2\n0X00500093 2\n00000033 10\n")
        assert main(["gen", "spec", str(spec), "-"]) == 0
        text = capsys.readouterr().out
        expected, _ = generate(TraceSpec(((0x13, 2), (0x13, 2), (0x00500093, 2), (0x33, 10))))
        assert text == expected

    @pytest.mark.parametrize("line, message", SPEC_REFUSED, ids=[line for line, _ in SPEC_REFUSED])
    def test_spec_numbers_in_other_formats_are_refused(self, tmp_path, capsys, line, message):
        spec = tmp_path / "bad.spec"
        spec.write_text(line + "\n")
        assert main(["gen", "spec", str(spec), "-"]) == 2
        assert capsys.readouterr() == ("", f"wawk: {message}\n")


class TestRun:
    def test_script_file(self, tmp_path, small_vcd, capsys):
        script = tmp_path / "s.wawk"
        script.write_text(SMALL_SCRIPT)
        assert main(["run", str(script), str(small_vcd)]) == 0
        assert capsys.readouterr().out == "add\naddi\n"

    def test_script_from_stdin(self, small_vcd, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(SMALL_SCRIPT.encode()))
        assert main(["run", "-", str(small_vcd)]) == 0
        assert capsys.readouterr().out == "add\naddi\n"

    def test_bundled_script_with_arg(self, table1_vcd, capsys):
        assert main(["run", "@cpi", str(table1_vcd), "sra"]) == 0
        assert capsys.readouterr().out == "sra: avg=75 min=68 max=99\n"

    def test_bundled_script_constant_row(self, table1_vcd, capsys):
        assert main(["run", "@cpi", str(table1_vcd), "lui"]) == 0
        assert capsys.readouterr().out == "lui: 35\n"

    def test_bundled_script_absent_mnemonic_is_silent(self, table1_vcd, capsys):
        assert main(["run", "@cpi", str(table1_vcd), "fence"]) == 0
        assert capsys.readouterr().out == ""

    def test_all_flag(self, table1_vcd, capsys):
        assert main(["run", "@cpi", str(table1_vcd), "--all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 36
        assert "jal: avg=68 min=68 max=70" in lines
        assert "addi: 35" in lines

    @pytest.mark.parametrize("source", [
        's: { printf("%d ", INDEX); }\ngo: { alias(s, bus); }',
        'go: { alias(s, bus); }\ns: { printf("%d ", INDEX); }'])
    def test_an_alias_made_in_the_sweep_applies_from_the_next_read(
            self, tmp_path, capsys, source):
        # s is high at index 0 only, bus at every index; go aliases s to bus at 0
        vcd = tmp_path / "alias.vcd"
        vcd.write_text('$var wire 1 ! s $end\n$var wire 4 " bus $end\n'
                       "$var wire 1 # go $end\n$enddefinitions $end\n"
                       '#0\n1!\nb0001 "\n1#\n#1\n0!\n0#\n#2\n#3\n')
        script = tmp_path / "alias.wawk"
        script.write_text(source)
        assert main(["run", str(script), str(vcd)]) == 0
        assert capsys.readouterr().out == "0 1 2 3 "

    def test_all_conflicts_with_args(self, table1_vcd, tmp_path, capsys):
        assert main(["run", "@cpi", str(table1_vcd), "sra", "--all"]) == 2
        assert "wawk:" in capsys.readouterr().err
        # a usage error, found before any file is read
        assert main(["run", "@cpi", str(tmp_path / "missing.vcd"), "sra", "--all"]) == 2
        assert capsys.readouterr().err == (
            "wawk: --all and explicit script arguments are mutually exclusive\n")

    def test_script_and_vcd_both_from_stdin(self, capsys):
        assert main(["run", "-", "-"]) == 2
        assert capsys.readouterr() == (
            "", "wawk: only one of the script and the VCD can come from stdin\n")

    def test_unknown_bundled_name(self, small_vcd, capsys):
        assert main(["run", "@nope", str(small_vcd)]) == 2
        assert "@nope" in capsys.readouterr().err

    def test_missing_script_file(self, small_vcd, capsys):
        assert main(["run", "/no/such/script.wawk", str(small_vcd)]) == 2

    def test_script_not_utf8(self, tmp_path, small_vcd, capsys):
        script = tmp_path / "bad.wawk"
        script.write_bytes(b"BEGIN: { } // \xff\n")
        assert main(["run", str(script), str(small_vcd)]) == 2
        assert capsys.readouterr().err.startswith("wawk: cannot read script: 'utf-8' codec")

    def test_missing_vcd(self, tmp_path, capsys):
        script = tmp_path / "s.wawk"
        script.write_text("BEGIN: { }")
        assert main(["run", str(script), "/no/such.vcd"]) == 2
        assert "cannot read VCD" in capsys.readouterr().err

    def test_syntax_error_reports_position(self, tmp_path, small_vcd, capsys):
        script = tmp_path / "s.wawk"
        script.write_text("BEGIN: { x = ; }")
        assert main(["run", str(script), str(small_vcd)]) == 2
        err = capsys.readouterr().err
        assert f"{script}:1:" in err

    def test_backslash_before_line_break_is_one_line(self, tmp_path, small_vcd, capsys):
        script = tmp_path / "esc.wawk"
        script.write_bytes(b'BEGIN: { printf("a\\\n')
        assert main(["run", str(script), str(small_vcd)]) == 2
        err = capsys.readouterr().err
        assert err == f"wawk: {script}:1:17: unterminated string literal\n"

    def test_reserved_word_reported(self, tmp_path, small_vcd, capsys):
        script = tmp_path / "s.wawk"
        script.write_text("BEGIN: { map = 1; }")
        assert main(["run", str(script), str(small_vcd)]) == 2
        assert "reserved" in capsys.readouterr().err

    def test_malformed_vcd(self, tmp_path, capsys):
        script = tmp_path / "s.wawk"
        script.write_text("BEGIN: { }")
        vcd = tmp_path / "bad.vcd"
        vcd.write_text("$var wire 1 ! clk $end\n#0\n")
        assert main(["run", str(script), str(vcd)]) == 2

    def test_non_ascii_digits_on_stdin_are_malformed(self, tmp_path, capsys, monkeypatch):
        # stdin is read as ASCII, as files are: '²' (two UTF-8 bytes) reads as
        # two replacement characters, never as a digit that breaks int()
        script = tmp_path / "s.wawk"
        script.write_text("BEGIN: { }")
        monkeypatch.setattr("sys.stdin", _stdin(
            "$timescale \u00b2ns $end\n$enddefinitions $end\n".encode()))
        assert main(["run", str(script), "-"]) == 2
        assert capsys.readouterr().err == (
            "wawk: -: line 1: invalid $timescale '\ufffd\ufffdns'\n")

    def test_runtime_error_exits_1(self, tmp_path, small_vcd, capsys):
        script = tmp_path / "s.wawk"
        script.write_text("BEGIN: { v = nope + 1; }")
        assert main(["run", str(script), str(small_vcd)]) == 1
        err = capsys.readouterr().err
        assert "statement 1 (BEGIN)" in err

    @pytest.mark.parametrize("expr", ["1 < [1]", "0 < args"])
    def test_comparison_with_a_list_on_the_right_exits_1(self, tmp_path, small_vcd, capsys, expr):
        script = tmp_path / "s.wawk"
        script.write_text(f"BEGIN: {{ x = {expr}; }}")
        assert main(["run", str(script), str(small_vcd)]) == 1
        op = expr.split()[1]
        assert capsys.readouterr().err == (
            f"wawk: statement 1 (BEGIN): cannot compare list values with '{op}'\n")

    def test_runtime_error_mid_sweep_exits_1(self, tmp_path, small_vcd, capsys):
        script = tmp_path / "s.wawk"
        script.write_text("INDEX == 2: { v = 1 / 0; }")
        assert main(["run", str(script), str(small_vcd)]) == 1
        assert "index 2" in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered, command", [
        ("1", "run"), ("", "run"), ("1", "gen"), ("", "gen")], ids=["1", "", "gen-1", "gen"])
    def test_closed_stdout_exits_1_quietly(self, tmp_path, small_vcd, unbuffered, command):
        # `wawk run ... | head -1`: the reader is gone before wawk writes
        script = tmp_path / "s.wawk"
        script.write_text(SMALL_SCRIPT)
        argv = {"run": ["run", str(script), str(small_vcd)],
                "gen": ["gen", "table1", "-"]}[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        try:
            proc = _run_wawk(argv, env=env, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_depth_limit(self, tmp_path, small_vcd, capsys):
        # the deepest script the parser accepts runs in-process and from a
        # fresh interpreter; one level deeper is a syntax error, exit 2
        deepest = tmp_path / "deepest.wawk"
        deepest.write_text(nested_script(MAX_DEPTH))
        deeper = tmp_path / "deeper.wawk"
        deeper.write_text(nested_script(MAX_DEPTH + 1))
        col = len("v_parens = ") + MAX_DEPTH + 1  # the first '(' past the limit
        message = f"{deeper}:3:{col}: nesting deeper than {MAX_DEPTH} levels\n"

        assert main(["run", str(deepest), str(small_vcd)]) == 0
        assert capsys.readouterr().out == "1 1 1 0 1 1 1 1\n"
        assert main(["run", str(deeper), str(small_vcd)]) == 2
        assert capsys.readouterr().err == f"wawk: {message}"

        proc = _run_wawk(["run", str(deepest), str(small_vcd)], capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 1 1 0 1 1 1 1\n", "")
        proc = _run_wawk(["run", str(deeper), str(small_vcd)], capture_output=True)
        assert (proc.returncode, proc.stderr) == (2, f"wawk: {message}")

    @pytest.mark.parametrize("terms", [MAX_DEPTH + 2, 600])
    def test_long_chain_is_a_located_syntax_error(self, tmp_path, small_vcd, capsys, terms):
        # a chain of 600 terms used to end in a RecursionError traceback
        script = tmp_path / "chain.wawk"
        script.write_text("BEGIN: { v = " + "1 + " * (terms - 1) + "1; }\n")
        col = len("BEGIN: { v = " + "1 + " * MAX_DEPTH + "1 ") + 1  # operator 65
        message = f"wawk: {script}:1:{col}: nesting deeper than {MAX_DEPTH} levels\n"
        assert main(["run", str(script), str(small_vcd)]) == 2
        assert capsys.readouterr().err == message
        proc = _run_wawk(["run", str(script), str(small_vcd)], capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

    def test_benchmark_hook_points_are_called(self, tmp_path, small_vcd, monkeypatch):
        # perfbench/traced.py times each layer by replacing these names; a
        # refactor that stops calling through them would drop its spans
        calls = []

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((cli, "parse_source"), (cli, "parse_vcd_file"),
                             (cli, "execute"), (parser, "tokenize"),
                             (parser, "parse_program")):
            count(module, name)
        script = tmp_path / "s.wawk"
        script.write_text(SMALL_SCRIPT)
        assert main(["run", str(script), str(small_vcd)]) == 0
        assert calls == ["parse_source", "tokenize", "parse_program",
                         "parse_vcd_file", "execute"]

    def test_benchmark_hook_points_keep_their_call_shapes(self, tmp_path, small_vcd,
                                                          monkeypatch):
        # perfbench/traced.py and perfbench/setup_child.py call these names
        # with these arguments and no others: traced_parse_vcd_file(path)
        # and traced_execute(program, waveform, args=(), out=None) would
        # refuse any new argument, but only under `perfbench/run.py --trace 1`;
        # once those wrappers pass every argument through, relax this with them
        calls = []

        def record(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append((name, args, kwargs))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((cli, "parse_source"), (cli, "parse_vcd_file"),
                             (cli, "execute"), (parser, "tokenize"),
                             (parser, "parse_program")):
            record(module, name)
        script = tmp_path / "s.wawk"
        script.write_text(SMALL_SCRIPT)
        assert main(["run", str(script), str(small_vcd)]) == 0
        shapes = [(name, len(args), sorted(kwargs)) for name, args, kwargs in calls]
        assert shapes == [("parse_source", 1, []), ("tokenize", 1, []),
                          ("parse_program", 1, []), ("parse_vcd_file", 1, []),
                          ("execute", 2, ["args", "out"])]
        assert calls[0][1] == calls[1][1] == (SMALL_SCRIPT,)
        assert calls[3][1] == (str(small_vcd),)
        assert calls[4][2] == {"args": [], "out": sys.stdout}

    @pytest.mark.parametrize("layer", ["parse_vcd_file", "execute"])
    def test_an_interrupt_exits_130_without_a_traceback(self, tmp_path, small_vcd, capsys,
                                                         monkeypatch, layer):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, layer, interrupt)
        script = tmp_path / "s.wawk"
        script.write_text(SMALL_SCRIPT)
        assert main(["run", str(script), str(small_vcd)]) == 130
        assert capsys.readouterr() == ("", "wawk: interrupted\n")


# One input per kind of error: the whole stderr line and the exit code.
# {vcd} and {script} stand for the paths given to `wawk run`.
ERROR_VCD = ("$scope module top $end\n$var wire 1 ! clk $end\n$var wire 2 \" s $end\n"
             "$upscope $end\n$enddefinitions $end\n#0\n1!\n#1\n0!\n")
ERRORS = {
    "vcd-header": ("BEGIN: { }", "$var wire 1 ! a $end\n#0\n", 2,
                   "{vcd}: line 2: unexpected token '#0' in header"),
    "vcd-id-code": ("BEGIN: { }", "$var wire 1 ! a $end\n$enddefinitions $end\n#0\n1?\n", 2,
                    "{vcd}: line 4: undeclared id code '?'"),
    "vcd-width": ("BEGIN: { }", "$var wire 2 ! a $end\n$enddefinitions $end\n#0\nb101 !\n", 2,
                  "{vcd}: line 4: 3-bit value for 2-bit id code '!'"),
    "vcd-timestamp": ("BEGIN: { }", "$var wire 1 ! a $end\n$enddefinitions $end\n#5\n#4\n", 2,
                      "{vcd}: line 4: timestamp #4 does not increase (previous #5)"),
    "vcd-unsupported": ("BEGIN: { }", "$var real 64 ! r $end\n", 2,
                        "{vcd}: line 1: unsupported variable type 'real'"),
    "unterminated-string": ('BEGIN: { printf("abc); }', ERROR_VCD, 2,
                            "{script}:1:17: unterminated string literal"),
    "illegal-character": ("a ~ b: { }", ERROR_VCD, 2, "{script}:1:3: illegal character '~'"),
    "unexpected-token": ("BEGIN: { a = ; }", ERROR_VCD, 2,
                         "{script}:1:14: expected an expression, found ';'"),
    "reserved-word": ("BEGIN: { when = 1; }", ERROR_VCD, 2,
                      "{script}:1:10: 'when' is reserved and not supported here"),
    "index-in-begin": ("BEGIN: { v = INDEX; }", ERROR_VCD, 1,
                       "statement 1 (BEGIN): INDEX is only defined during the index sweep"),
    "unbound-variable": ("1: { v = never; }", ERROR_VCD, 1,
                         "statement 1 at index 0: unbound variable 'never'"),
    "unknown-signal": ("top.nope: { }", ERROR_VCD, 1,
                       "statement 1 at index 0: unknown signal 'top.nope'"),
    "x-bits": ("1: { v = top.s + 1; }", ERROR_VCD, 1,
               "statement 1 at index 0: cannot convert 'xx' to an integer: contains x/z bits"),
    "type-mismatch": ('BEGIN: { v = ("a" == 1); }', ERROR_VCD, 1,
                      "statement 1 (BEGIN): cannot compare string with int using '=='"),
    "division-by-zero": ("BEGIN: { x = 1 / 0; }", ERROR_VCD, 1, "statement 1 (BEGIN): 1 / 0"),
    "empty-list": ("BEGIN: { }\nEND: { v = min([]); }", ERROR_VCD, 1,
                   "statement 2 (END): min of an empty list"),
    "format-directive": ('BEGIN: { printf("%q", 1); }', ERROR_VCD, 1,
                         "statement 1 (BEGIN): unknown format directive '%q'"),
    "format-arity": ('BEGIN: { printf("%d %d", 1); }', ERROR_VCD, 1,
                     "statement 1 (BEGIN): format string needs more than 1 value(s)"),
    "format-type": ('BEGIN: { printf("%d", "x"); }', ERROR_VCD, 1,
                    "statement 1 (BEGIN): %d needs an integer, got string"),
    "unknown-module": ("BEGIN: { import(nonesuch); }", ERROR_VCD, 1,
                       "statement 1 (BEGIN): unknown native module 'nonesuch'"),
    "unknown-function": ("BEGIN: { }\ntop.clk: { v = median([1]); }", ERROR_VCD, 1,
                         "statement 2 at index 0: unknown function 'median'"),
    "alias-redefined": ("BEGIN: { alias(c, top.clk); alias(c, top.s); }", ERROR_VCD, 1,
                        "statement 1 (BEGIN): alias 'c' is already defined"),
}


@pytest.mark.parametrize("kind", ERRORS)
def test_each_kind_of_error_gives_its_exact_message(tmp_path, capsys, kind):
    source, dump, code, message = ERRORS[kind]
    script, vcd = tmp_path / "s.wawk", tmp_path / "t.vcd"
    script.write_text(source)
    vcd.write_text(dump)
    assert main(["run", str(script), str(vcd)]) == code
    expected = "wawk: " + message.format(script=script, vcd=vcd) + "\n"
    assert capsys.readouterr() == ("", expected)


class TestStdin:
    """`-` decodes the bytes under stdin the way the same file is decoded,
    whatever codec the locale or PYTHONIOENCODING gives sys.stdin."""

    @pytest.fixture(params=["locale", "PYTHONIOENCODING=utf-8"])
    def env(self, request):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        if request.param != "locale":
            env["PYTHONIOENCODING"] = "utf-8"
        return env

    @staticmethod
    def _run(args, env, stdin_path):
        with open(stdin_path, "rb") as stdin:
            return _run_wawk(args, env=env, stdin=stdin, capture_output=True)

    def test_script_not_utf8_exits_2(self, tmp_path, small_vcd, env):
        # the locale's codec let stdin through, or raised a traceback
        script = tmp_path / "s.wawk"
        script.write_bytes(b'BEGIN: { printf("hi\\n"); }\n\xff\n')
        message = ("wawk: cannot read script: 'utf-8' codec can't decode byte 0xff "
                   "in position 27: invalid start byte\n")
        from_stdin = self._run(["run", "-", str(small_vcd)], env, script)
        from_file = _run_wawk(["run", str(script), str(small_vcd)], env=env,
                              capture_output=True)
        assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (2, "", message)
        assert (from_file.returncode, from_file.stdout, from_file.stderr) == (2, "", message)

    def test_vcd_bytes_read_as_from_a_file(self, tmp_path, env):
        # stdin gave '!\udcff\udcfe' (or a traceback), a file gives '!\ufffd\ufffd'
        script = tmp_path / "s.wawk"
        script.write_text("BEGIN: { }\n")
        vcd = tmp_path / "t.vcd"
        vcd.write_bytes(b"$var wire 1 ! a $end\n$enddefinitions $end\n#0\n1!\xff\xfe\n")
        from_stdin = self._run(["run", str(script), "-"], env, vcd)
        from_file = _run_wawk(["run", str(script), str(vcd)], env=env, capture_output=True)
        assert (from_stdin.returncode, from_stdin.stdout) == (2, "")
        assert from_stdin.stderr == from_file.stderr.replace(str(vcd), "-")
        if "PYTHONIOENCODING" in env:
            assert from_stdin.stderr == "wawk: -: line 4: undeclared id code '!\ufffd\ufffd'\n"

    def test_spec_not_utf8_exits_2(self, tmp_path, env):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(b"00000033 3\n\xff\n")
        proc = self._run(["gen", "spec", "-", "-"], env, spec)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", (
            "wawk: cannot read spec: 'utf-8' codec can't decode byte 0xff in position 11: "
            "invalid start byte\n"))

    def test_well_formed_vcd_on_stdin(self, tmp_path, small_vcd, env):
        script = tmp_path / "s.wawk"
        script.write_text(SMALL_SCRIPT)
        proc = self._run(["run", str(script), "-"], env, small_vcd)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "add\naddi\n", "")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_entry_point_installed(self, tmp_path, capsys):
        # Checks the `wawk` command the package declares, without needing an
        # install: the declared target must be wawk.cli.main, return an int
        # exit code, and work when run the way pip's generated wrapper runs it.
        target = _declared_wawk_target()
        module_name, _, attr = target.partition(":")
        func = getattr(importlib.import_module(module_name), attr)
        assert func is main

        assert func(["decode", "00000013"]) == 0
        assert capsys.readouterr().out == "addi\n"

        wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "decode", "00000013"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "addi\n"

    def test_the_readme_library_examples_print_what_they_say(self, tmp_path, monkeypatch,
                                                              capsys):
        # the README's two python blocks, run in turn in one namespace
        # beside the trace.vcd that `wawk gen table1 trace.vcd` writes
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) == 2
        text, truth = generate(table1_spec())
        (tmp_path / "trace.vcd").write_text(text, encoding="ascii")
        monkeypatch.chdir(tmp_path)
        namespace = {}
        for block in blocks:
            exec(block, namespace)
        assert len(truth.instructions) == 110
        assert capsys.readouterr().out == "110 instructions fetched\n42\n"

    def test_the_trace_generator_is_imported_only_when_used(self, tmp_path):
        # a fresh interpreter: this process has imported wawk.tracegen already
        check = ("import sys, wawk.cli\n"
                 "print('wawk.tracegen' in sys.modules)\n"
                 "from wawk import generate\n"
                 "import wawk\n"
                 "print(generate is sys.modules['wawk.tracegen'].generate, wawk.__all__)\n")
        assert _fresh_python(check, tmp_path) == ["False", "True " + str([
            "ParseFailure", "RunFailure", "Value", "Waveform", "WawkError", "decode",
            "execute", "generate", "parse_source", "parse_vcd", "parse_vcd_file",
            "run_source"])]

    def test_the_cli_imports_neither_dataclasses_nor_inspect(self, tmp_path):
        # against the modules loaded just before, so a `site` that loads
        # either one itself does not count
        check = ("import sys\n"
                 "before = set(sys.modules)\n"
                 "import wawk.cli\n"
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))\n")
        assert _fresh_python(check, tmp_path) == ["[]"]

    def test_the_sources_stay_within_the_line_budget(self):
        # lines as `wc -l src/wawk/*.py` counts them: newline bytes
        lines = {path.name: path.read_bytes().count(b"\n")
                 for path in (SRC_DIR / "wawk").glob("*.py")}
        assert "interp.py" in lines
        assert sum(lines.values()) <= LINE_BUDGET, lines

    def test_every_error_message_is_pinned_by_a_test(self):
        # each literal piece of 10 or more characters in the message of a
        # `raise` of a wawk.errors class must occur in a string of the tests
        classes = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, Exception)}
        strings = "\0".join(
            node.value for path in pathlib.Path(__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str))
        unpinned = []
        for path in sorted((SRC_DIR / "wawk").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and isinstance(node.exc.func, ast.Name)
                        and node.exc.func.id in classes and node.exc.args):
                    continue
                message = node.exc.args[0]
                pieces = message.values if isinstance(message, ast.JoinedStr) else [message]
                unpinned += [f"{path.name}:{node.lineno}: {piece.value!r}" for piece in pieces
                             if isinstance(piece, ast.Constant) and isinstance(piece.value, str)
                             and len(piece.value) >= 10 and piece.value not in strings]
        assert unpinned == []

    @pytest.mark.skipif(not _wawk_distribution_installed(),
                        reason="no installed 'wawk' distribution "
                               "(importlib.metadata.PackageNotFoundError)")
    def test_console_script_on_path(self):
        scripts = [ep for ep in importlib.metadata.distribution("wawk").entry_points
                   if ep.group == "console_scripts" and ep.name == "wawk"]
        assert [ep.value for ep in scripts] == [_declared_wawk_target()]
        assert shutil.which("wawk") is not None


class TestEndToEnd:
    def test_spec_to_report(self, tmp_path, capsys):
        spec = tmp_path / "prog.spec"
        spec.write_text(
            "418BDB33 65  # sra\n"
            "418BDB33 75\n"
            "418BDB33 99\n"
            "418BDB33 60\n"
            "00000013 1   # flush\n")
        vcd = tmp_path / "prog.vcd"
        assert main(["gen", "spec", str(spec), str(vcd)]) == 0
        assert main(["run", "@cpi", str(vcd), "sra"]) == 0
        # all four sra entries are measured; only the trailing addi is not:
        # (65+75+99+60)/4 = 74.75 -> 75
        assert capsys.readouterr().out == "sra: avg=75 min=60 max=99\n"
