"""Acceptance gate: seven frozen end-to-end criteria.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible even under
pytest's capture) and fails loudly on any mismatch. Expected values are
frozen: report lines were hand-computed from the canned cycle mixes, and
randomized checks compare three independent implementations of the same
measurement (the interpreter, the trace generator's bookkeeping, and a
direct waveform scan).
"""

import io
import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import make_waveform, raises_exactly, run_script
from direct_scan import (
    expected_report_line,
    formula_values,
    measured_mnemonics,
    scan_all,
    signal_names,
    timestamp_of,
    width_of,
)
from printer import to_source
from rv32i_golden import GOLDEN, NON_INSTRUCTIONS
from wawk import ast
from wawk.cli import bundled_script
from wawk.errors import RunFailure
from wawk.interp import default_native_modules, execute
from wawk.parser import parse_source
from wawk.riscv import MNEMONICS, decode
from wawk.tracegen import WORDS, TraceSpec, generate, table1_spec
from wawk.vcd import parse_vcd


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def check(name):
        info = {}
        try:
            yield info
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {name}: FAIL", flush=True)
            raise
        with capsys.disabled():
            note = f" ({info['note']})" if "note" in info else ""
            print(f"[acceptance] {name}: PASS{note}", flush=True)

    return check


def run_bundled(program, waveform, mnemonic):
    out = io.StringIO()
    env = execute(program, waveform, args=[mnemonic], out=out)
    return out.getvalue(), env


# Hand-computed from the canned per-mnemonic cycle mixes. Constant rows
# print the single value; mixed rows print avg/min/max with the average
# rounded half up.
FROZEN_REPORT = {
    "lui": "lui: 35\n",
    "auipc": "auipc: 35\n",
    "jal": "jal: avg=68 min=68 max=70\n",
    "jalr": "jalr: avg=69 min=68 max=70\n",
    "beq": "beq: avg=68 min=68 max=70\n",
    "bne": "bne: avg=68 min=68 max=70\n",
    "blt": "blt: avg=68 min=68 max=70\n",
    "bge": "bge: avg=69 min=68 max=70\n",
    "bltu": "bltu: avg=69 min=68 max=70\n",
    "bgeu": "bgeu: avg=69 min=68 max=70\n",
    "lb": "lb: 69\n",
    "lh": "lh: avg=69 min=69 max=70\n",
    "lw": "lw: avg=69 min=69 max=70\n",
    "lhu": "lhu: avg=69 min=69 max=70\n",
    "sh": "sh: avg=69 min=69 max=70\n",
    "sw": "sw: avg=69 min=69 max=70\n",
    "addi": "addi: 35\n",
    "slti": "slti: 68\n",
    "sltiu": "sltiu: 68\n",
    "xori": "xori: 35\n",
    "ori": "ori: 35\n",
    "andi": "andi: 35\n",
    "slli": "slli: 68\n",
    "srli": "srli: avg=75 min=68 max=99\n",
    "srai": "srai: avg=70 min=68 max=99\n",
    "add": "add: 35\n",
    "sub": "sub: 35\n",
    "sll": "sll: 68\n",
    "slt": "slt: 68\n",
    "sltu": "sltu: 68\n",
    "xor": "xor: 35\n",
    "srl": "srl: avg=75 min=68 max=99\n",
    "sra": "sra: avg=75 min=68 max=99\n",
    "or": "or: 35\n",
    "and": "and: 35\n",
    "ecall": "ecall: 35\n",
}

# Not exercised by the canned trace (or, for "unknown", only as the
# trailing flush word, which is never measured): these must stay silent.
SILENT = ("lbu", "sb", "fence", "ebreak", "unknown")


def test_a1_canned_trace_report(criterion):
    with criterion("A1 canned trace reproduces the frozen report") as info:
        text, _ = generate(table1_spec())
        wave = parse_vcd(io.StringIO(text))
        program = parse_source(bundled_script("cpi"))
        got = {}
        for mnemonic in list(MNEMONICS) + ["unknown"]:
            got[mnemonic], _ = run_bundled(program, wave, mnemonic)
        for mnemonic, line in FROZEN_REPORT.items():
            assert got[mnemonic] == line, mnemonic
        for mnemonic in SILENT:
            assert got[mnemonic] == "", mnemonic
        assert sum(1 for line in got.values() if line) == 36
        info["note"] = ("36 report lines exact; 41 runs over one wave, "
                        "the third on reading the kept plan")


def test_a2_randomized_cross_validation(criterion, dense_sweep):
    with criterion("A2 interpreter == direct scan == generator bookkeeping "
                   "on 100 random traces") as info:
        rng = random.Random(0xA2C0FFEE)
        pool = sorted(WORDS.values())
        program = parse_source(bundled_script("cpi"))
        total_indexes = 0
        interp_runs = 0
        for k in range(100):
            if k == 0:
                n = 1
            elif k == 1:
                n = 500
            else:
                n = round(math.exp(rng.uniform(0.0, math.log(500.0))))
            instrs = tuple(
                (rng.choice(pool) if rng.random() < 0.5 else rng.getrandbits(32),
                 rng.randint(1, 128))
                for _ in range(n))
            text, truth = generate(TraceSpec(instrs))
            wave = parse_vcd(io.StringIO(text))
            assert wave.index_count == truth.index_count
            total_indexes += wave.index_count

            scanned = scan_all(wave)
            for mnemonic in list(MNEMONICS) + ["unknown"]:
                assert scanned.get(mnemonic, []) == formula_values(truth, mnemonic), (
                    k, mnemonic)

            measured = measured_mnemonics(truth)
            if measured:
                mnemonic = rng.choice(measured)
                oracle = scanned[mnemonic]
                with dense_sweep():
                    dense = run_bundled(program, wave, mnemonic)
                for line, env in (run_bundled(program, wave, mnemonic), dense):
                    assert env.variables["cpis"] == oracle, (k, mnemonic)
                    assert line == expected_report_line(mnemonic, oracle), (k, mnemonic)
                interp_runs += 1
        # single-instruction specs measure nothing; most specs must still
        # have exercised the interpreter
        assert interp_runs >= 85
        info["note"] = (f"{total_indexes} indexes, {interp_runs} interpreter runs, "
                        "each planned and dense")


def test_a3_generated_traces_parse_back_bit_exact(criterion):
    with criterion("A3 generated dump parses back bit-exact") as info:
        rng = random.Random(0xA3)
        pool = sorted(WORDS.values())
        instrs = tuple((rng.choice(pool), rng.randint(1, 128)) for _ in range(75))
        spec = TraceSpec(instrs, clock_half_period=3, dummy_signals=8)
        text, truth = generate(spec)
        wave = parse_vcd(io.StringIO(text))

        assert wave.index_count == truth.index_count
        assert wave.index_count >= 5000
        names = sorted(signal_names(truth))
        assert sorted(wave.signals) == names
        for i in range(wave.index_count):
            assert wave.timestamps[i] == timestamp_of(truth, i)
        for name in names:
            assert wave.series(name).width == width_of(truth, name)
            for i in range(wave.index_count):
                assert wave.series(name).value_at(i).bits == truth.expected_bits(name, i), (
                    name, i)
        info["note"] = f"{wave.index_count} indexes x {len(names)} signals"


def test_a4_decoder_corpus_and_totality(criterion):
    with criterion("A4 decoder matches frozen corpus and is total") as info:
        for mnemonic, word in GOLDEN:
            assert decode(word) == mnemonic, f"0x{word:08X}"
        assert sorted(m for m, _ in GOLDEN) == sorted(MNEMONICS)
        for word in NON_INSTRUCTIONS:
            assert decode(word) == "unknown", f"0x{word:08X}"
        rng = random.Random(0xA4)
        allowed = set(MNEMONICS) | {"unknown"}
        for _ in range(1_000_000):
            assert decode(rng.getrandbits(32)) in allowed
        info["note"] = f"{len(GOLDEN)} golden words, 1000000 random words"


def test_a5_language_semantics(criterion):
    with criterion("A5 script language semantics") as info:
        # BEGIN and END run exactly once even over an empty dump
        empty = parse_vcd(io.StringIO(
            "$timescale 1ns $end\n"
            "$scope module top $end\n"
            "$var wire 1 ! clk $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"))
        assert empty.index_count == 0
        out, env = run_script(
            'BEGIN: { n = 1; }\n1: { n = n + 1; }\nEND: { printf("%d", n); }',
            empty)
        assert out == "1"

        # comma conjunctions short-circuit left to right
        calls = []
        modules = default_native_modules()
        modules["probe"] = {"bump": lambda a: calls.append(tuple(a)) or len(calls)}
        wave = make_waveform(6, {"top.clk": (1, [(0, "1")] + [
            (i, "01"[i % 2]) for i in range(1, 6)])})
        execute(parse_source(
            "BEGIN: { import(probe); }\n"
            "INDEX == 2, call(probe.bump, INDEX), 0, call(probe.bump, 99): { }"),
            wave, out=io.StringIO(), modules=modules)
        assert calls == [(2,)]

        # the calibration trace: cycle counts survive the measurement
        # formula exactly, the trailing instruction is never measured,
        # and the lookahead falls silent at the end of the trace
        text, truth = generate(TraceSpec(((0x00000033, 3), (0x00000013, 2))))
        cal = parse_vcd(io.StringIO(text))
        assert cal.index_count == 16
        program = parse_source(bundled_script("cpi"))
        line, env = run_bundled(program, cal, "add")
        assert env.variables["cpis"] == [3]
        assert line == "add: 3\n"
        line, _ = run_bundled(program, cal, "addi")
        assert line == ""

        # unbound names: falsy in conditions, an error in bodies
        _, env = run_script("BEGIN: { n = 0; }\nnever: { n = n + 1; }", cal)
        assert env.variables["n"] == 0
        with raises_exactly(RunFailure, "statement 1 at index 0: unbound variable 'never'"):
            run_script("1: { v = never; }", cal)

        # list append mutates in place
        _, env = run_script("BEGIN: { a = [1]; b = a; a = a + 2; }", empty)
        assert env.variables["b"] == [1, 2]

        # aliases read exactly what the signal reads
        _, env = run_script(
            "BEGIN: { alias(c, TOP.servant_sim.dut.cpu.clk); same = 1; }\n"
            "c != TOP.servant_sim.dut.cpu.clk: { same = 0; }", cal)
        assert env.variables["same"] == 1

        # division truncates toward zero; average rounds half up
        _, env = run_script(
            "BEGIN: { q = (0 - 7) / 2; a = average([2, 3]); }", empty)
        assert env.variables["q"] == -3
        assert env.variables["a"] == 3

        # x/z never convert silently
        xwave = make_waveform(1, {"s": (2, [])})
        with raises_exactly(RunFailure, "statement 1 at index 0: "
                                        "cannot convert 'xx' to an integer: contains x/z bits"):
            run_script("1: { v = (s == 0); }", xwave)
        info["note"] = "9 semantic contracts"


def test_a6_bundled_script_shape(criterion):
    with criterion("A6 bundled script shape and print round trip") as info:
        source = bundled_script("cpi")
        program = parse_source(source)
        statements = program.statements
        assert len(statements) == 4

        assert isinstance(statements[0].trigger, ast.Begin)
        measure = statements[1].trigger
        assert isinstance(measure, ast.Conditions)
        assert len(measure.exprs) == 4
        fetch = statements[2].trigger
        assert isinstance(fetch, ast.Conditions)
        assert len(fetch.exprs) == 2
        assert isinstance(statements[3].trigger, ast.End)

        printed = to_source(program)
        reparsed = parse_source(printed)
        assert reparsed == program
        assert to_source(reparsed) == printed
        info["note"] = "4 statements, fixpoint reached"


def test_a7_million_index_budget(criterion):
    with criterion("A7 million-index pipeline under 30 s") as info:
        spec = TraceSpec(((0x00000013, 35),) * 13_889)
        started = time.perf_counter()
        text, truth = generate(spec)
        wave = parse_vcd(io.StringIO(text))
        program = parse_source(bundled_script("cpi"))
        line, env = run_bundled(program, wave, "addi")
        elapsed = time.perf_counter() - started

        assert truth.index_count == 1_000_010
        assert wave.index_count == 1_000_010
        assert line == "addi: 35\n"
        assert env.variables["cpis"] == [35] * 13_888
        assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
        info["note"] = f"{elapsed:.1f}s for 1000010 indexes"
