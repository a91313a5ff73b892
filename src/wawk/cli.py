"""Command-line front end.

    wawk run <script> <trace.vcd> [args...]   analyze a dump
    wawk gen table1 <out.vcd>                 canned benchmark trace
    wawk gen spec <spec.txt> <out.vcd>        trace from a spec file
    wawk decode <hexword>                     one instruction word

Exit codes: 0 success, 1 script runtime error or stdout closed early
(`| head`), 2 unusable input (bad usage, unreadable file, malformed VCD,
script syntax error, bad spec), 130 interrupted (Ctrl-C).
"""

import argparse
import io
import os
import sys
from contextlib import contextmanager
from importlib import resources

from .errors import ParseFailure, RunFailure, WawkSyntaxError
from .interp import execute
from .parser import parse_source
from .riscv import MNEMONICS, decode
from .vcd import ascii_int, parse_vcd, parse_vcd_file


def bundled_script(name: str) -> str:
    """Source text of a script shipped inside the package (see `@name`
    on the run subcommand)."""
    path = resources.files("wawk").joinpath("scripts", f"{name}.wawk")
    if not path.is_file():
        raise FileNotFoundError(f"no bundled script named {name!r}")
    return path.read_text(encoding="utf-8")


def _option_int(text: str) -> int:
    """ASCII decimal digits after at most one '-', as `wawk gen` reads its
    numbers; the spec check then refuses those out of range."""
    value = ascii_int(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return -value if text.startswith("-") else value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wawk",
        description="pattern-action analysis over VCD waveforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an analysis script over a dump")
    run.add_argument("script", help="script path, or @name for a bundled script (@cpi)")
    run.add_argument("vcd", help="VCD file, or - for stdin")
    run.add_argument("script_args", nargs="*", help="arguments exposed to the script as args")
    run.add_argument(
        "--all",
        action="store_true",
        help="run once per RV32I mnemonic, passing it as the single argument",
    )

    gen = sub.add_parser("gen", help="generate a synthetic core trace")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    for name, needs_spec in (("table1", False), ("spec", True)):
        g = gen_sub.add_parser(
            name,
            help="canned benchmark mix" if name == "table1" else "mix from a spec file",
        )
        if needs_spec:
            g.add_argument("specfile", help="lines of '<hex word> <cycles>'")
        g.add_argument("out", help="output VCD path, or - for stdout")
        g.add_argument("--half-period", type=_option_int, default=1,
                       help="clock half period in ns")
        g.add_argument("--dummy-signals", type=_option_int, default=0,
                       help="extra toggling 1-bit signals")

    dec = sub.add_parser("decode", help="decode one RV32I instruction word")
    dec.add_argument("word", help="instruction word in hex, e.g. 0x00500093")
    return parser


@contextmanager
def _open_text(path: str, encoding: str, errors: str = "strict"):
    """The file at `path`, or stdin for "-", decoded from its bytes whatever
    the locale's codec. Stdin stays open."""
    if path != "-":
        with open(path, "r", encoding=encoding, errors=errors) as f:
            yield f
    else:
        f = io.TextIOWrapper(sys.stdin.buffer, encoding=encoding, errors=errors)
        try:
            yield f
        finally:
            f.detach()


def _fail(message: str, code: int) -> int:
    print(f"wawk: {message}", file=sys.stderr)
    return code


def _cmd_run(opts) -> int:
    if opts.all and opts.script_args:
        return _fail("--all and explicit script arguments are mutually exclusive", 2)
    script_name = "<stdin>" if opts.script == "-" else opts.script
    if opts.script.startswith("@"):
        try:
            source = bundled_script(opts.script[1:])
        except FileNotFoundError:
            return _fail(f"no bundled script named {opts.script!r}", 2)
    elif opts.script == "-" and opts.vcd == "-":
        return _fail("only one of the script and the VCD can come from stdin", 2)
    else:
        try:
            with _open_text(opts.script, "utf-8") as f:
                source = f.read()
        except (OSError, UnicodeDecodeError) as err:
            return _fail(f"cannot read script: {err}", 2)
    try:
        program = parse_source(source)
    except WawkSyntaxError as err:
        return _fail(f"{script_name}:{err}", 2)

    try:
        if opts.vcd == "-":
            with _open_text("-", "ascii", "replace") as f:  # as parse_vcd_file reads
                waveform = parse_vcd(f)
        else:
            waveform = parse_vcd_file(opts.vcd)
    except OSError as err:
        return _fail(f"cannot read VCD: {err}", 2)
    except ParseFailure as err:
        return _fail(f"{opts.vcd}: {err}", 2)

    runs = [[m] for m in MNEMONICS] if opts.all else [list(opts.script_args)]
    try:
        for args in runs:
            execute(program, waveform, args=args, out=sys.stdout)
    except RunFailure as err:
        return _fail(str(err), 1)
    return 0


def _cmd_gen(opts) -> int:
    from .tracegen import generate, parse_spec_file, table1_spec

    try:
        if opts.generator == "table1":
            spec = table1_spec(opts.half_period, opts.dummy_signals)
        else:
            try:
                with _open_text(opts.specfile, "utf-8") as f:
                    spec = parse_spec_file(f.read())
            except (OSError, UnicodeDecodeError) as err:
                return _fail(f"cannot read spec: {err}", 2)
            spec = spec._replace(clock_half_period=opts.half_period,
                                 dummy_signals=opts.dummy_signals)
        text, _ = generate(spec)
    except ParseFailure as err:
        return _fail(str(err), 2)
    if opts.out == "-":
        sys.stdout.write(text)  # a BrokenPipeError goes to main
        return 0
    try:
        with open(opts.out, "w", encoding="ascii") as f:
            f.write(text)
    except OSError as err:
        return _fail(f"cannot write output: {err}", 2)
    return 0


def _cmd_decode(opts) -> int:
    word = ascii_int(opts.word, 16)
    if word is None:
        return _fail(f"{opts.word!r} is not a hexadecimal instruction word", 2)
    if word > 0xFFFFFFFF:
        return _fail(f"{opts.word!r} does not fit in 32 bits", 2)
    print(decode(word))
    return 0


def main(argv=None) -> int:
    try:
        opts = _build_parser().parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    command = {"run": _cmd_run, "gen": _cmd_gen}.get(opts.command, _cmd_decode)
    try:
        code = command(opts)
        sys.stdout.flush()
    except KeyboardInterrupt:
        return _fail("interrupted", 130)
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the flush at
        # interpreter exit cannot fail again (the recipe in the `signal`
        # module's documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code
