"""Synthetic core trace generator with known per-instruction timing.

Produces dumps shaped like a serial RV32I core simulation: a clock, an
instruction-bus acknowledge strobe, and the fetched instruction word,
under TOP.servant_sim.dut.cpu. Each generated trace comes with a
GroundTruth that records exactly which per-instruction values a
spacing-based cycle measurement must observe, so analysis results can be
checked against intent rather than against another implementation. The
ground truth is data: the trace's shape, its instructions and their ack
indexes. Its two queries, expected_bits and stats, are the ones the
benchmark's oracle asks; the tests ask theirs of it in tests/direct_scan.py.

Timing layout, with H the clock half period in ns:

  - index i sits at timestamp i*H; the clock is 1 at even i, 0 at odd i,
    so every full clock cycle spans two indexes and posedges land on
    even indexes
  - the ack for instruction k rises at index a_k and stays high for one
    clock cycle (indexes a_k and a_k+1); the instruction word changes to
    word_k at a_k
  - a_0 = 2, and a_{k+1} = a_k + 2*(cycles_k + 1)
  - the trace ends where instruction n's ack would rise, at index
    a_{n-1} + 2*(cycles_{n-1} + 1)

The +1 in the spacing is deliberate calibration. A measurement that
records `start` at each posedge with ack high and computes
(INDEX - start) / 2 at the last posedge where ack is low but high two
indexes later sees the ack-to-ack gap minus one cycle; spacing pulses
cycles_k + 1 apart makes that expression come out to exactly cycles_k.
The final instruction has no following ack, so it is never measured
(formula_value is None in the ground truth).
"""

import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator

from .errors import InvalidSpecError, quote
from .riscv import MNEMONICS, decode
from .vcd import ascii_int

SCOPE_PATH = ("TOP", "servant_sim", "dut", "cpu")
CLOCK_SIGNAL = "TOP.servant_sim.dut.cpu.clk"
ACK_SIGNAL = "TOP.servant_sim.dut.cpu.i_ibus_ack"
RDT_SIGNAL = "TOP.servant_sim.dut.cpu.i_ibus_rdt"

MAX_DUMMY_SIGNALS = 64


def dummy_signal_name(j: int) -> str:
    return f"{'.'.join(SCOPE_PATH)}.dbg{j}"


def _dummy_period(j: int) -> int:
    return j + 3


# What to generate: (instruction word, cycle count) pairs plus trace
# shaping knobs.
TraceSpec = namedtuple("TraceSpec", "instructions clock_half_period dummy_signals",
                       defaults=(1, 0))

# formula_value is what the spacing measurement reports for the
# instruction, or None for the final instruction, which no later ack closes
Instruction = namedtuple("Instruction", "word mnemonic cycles formula_value")


class GroundTruth(namedtuple(
        "GroundTruth", "half_period index_count dummy_signals instructions rises")):
    """What a generated trace holds; `rises` gives each instruction's ack
    index, in the order of `instructions`."""

    __slots__ = ()

    def expected_bits(self, name: str, index: int) -> str:
        """Bit string the generated dump must show for `name` at `index`."""
        if not 0 <= index < self.index_count:
            raise ValueError(f"index {index} out of range")
        if name == CLOCK_SIGNAL:
            return "1" if index % 2 == 0 else "0"
        if name == ACK_SIGNAL:
            pos = bisect_right(self.rises, index) - 1
            high = pos >= 0 and index <= self.rises[pos] + 1
            return "1" if high else "0"
        if name == RDT_SIGNAL:
            pos = bisect_right(self.rises, index) - 1
            if pos < 0:
                return "x" * 32
            return format(self.instructions[pos].word, "032b")
        j = ascii_int(name.rpartition(".dbg")[2])  # a dummy signal's number
        if j is not None and j < self.dummy_signals and name == dummy_signal_name(j):
            return str((index // _dummy_period(j)) % 2)
        raise ValueError(f"unknown signal {name!r}")

    def stats(self, mnemonic: str) -> tuple[int, int, int] | None:
        """(average, min, max) of the measured values, or None if the
        mnemonic is never measured. Average rounds exact halves up,
        matching the script builtin."""
        values = [ins.formula_value for ins in self.instructions
                  if ins.mnemonic == mnemonic and ins.formula_value is not None]
        if not values:
            return None
        avg = (2 * sum(values) + len(values)) // (2 * len(values))
        return avg, min(values), max(values)


def _int_in(value, lo: int, hi: float) -> bool:
    """Whether `value` is an int, not a bool, from `lo` to `hi`."""
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi


def _validate(spec: TraceSpec) -> None:
    if not isinstance(spec.instructions, (tuple, list)):
        kind = type(spec.instructions).__name__
        raise InvalidSpecError(f"trace spec instructions must be a tuple or list, not {kind}")
    if not spec.instructions:
        raise InvalidSpecError("trace spec has no instructions")
    for k, pair in enumerate(spec.instructions):
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise InvalidSpecError(f"instruction {k}: expected (word, cycles)")
        word, cycles = pair
        if not _int_in(word, 0, 0xFFFFFFFF):
            raise InvalidSpecError(f"instruction {k}: word {quote(word)} is not a 32-bit value")
        if not _int_in(cycles, 1, math.inf):
            raise InvalidSpecError(f"instruction {k}: cycle count {quote(cycles)} must be >= 1")
    if not _int_in(spec.clock_half_period, 1, math.inf):
        raise InvalidSpecError(f"clock half period {quote(spec.clock_half_period)} must be >= 1")
    if not _int_in(spec.dummy_signals, 0, MAX_DUMMY_SIGNALS):
        raise InvalidSpecError(
            f"dummy signal count {quote(spec.dummy_signals)} must be 0..{MAX_DUMMY_SIGNALS}"
        )


_PIECE_LINES = 4096  # lines that render() holds at a time


def render(spec: TraceSpec) -> tuple[Iterator[str], GroundTruth]:
    """The text of a dump for `spec`, in pieces of lines made as they are
    read, and the dump's ground truth. The spec is checked here, before
    the first piece."""
    _validate(spec)
    rises = []
    a = 2
    for _, cycles in spec.instructions:
        rises.append(a)
        a += 2 * (cycles + 1)

    last = len(spec.instructions) - 1
    instructions = [
        Instruction(word, decode(word), cycles, formula_value=cycles if k != last else None)
        for k, (word, cycles) in enumerate(spec.instructions)
    ]
    truth = GroundTruth(
        half_period=spec.clock_half_period,
        index_count=a,
        dummy_signals=spec.dummy_signals,
        instructions=instructions,
        rises=rises,
    )
    return _pieces(truth), truth


def _pieces(truth: GroundTruth) -> Iterator[str]:
    ack_at: dict[int, str] = {}
    rdt_at: dict[int, str] = {}
    for rise, ins in zip(truth.rises, truth.instructions):
        ack_at[rise] = "1"
        ack_at[rise + 2] = "0"
        rdt_at[rise] = format(ins.word, "b")

    clk_id, ack_id, rdt_id = "!", '"', "#"
    dummy_ids = [chr(37 + j) for j in range(truth.dummy_signals)]
    dummy_periods = [_dummy_period(j) for j in range(truth.dummy_signals)]

    lines = ["$timescale 1ns $end"]
    for scope in SCOPE_PATH:
        lines.append(f"$scope module {scope} $end")
    lines.append(f"$var wire 1 {clk_id} clk $end")
    lines.append(f"$var wire 1 {ack_id} i_ibus_ack $end")
    lines.append(f"$var wire 32 {rdt_id} i_ibus_rdt [31:0] $end")
    for j, dummy_id in enumerate(dummy_ids):
        lines.append(f"$var wire 1 {dummy_id} dbg{j} $end")
    lines.extend("$upscope $end" for _ in SCOPE_PATH)
    lines.append("$enddefinitions $end")

    lines += ["#0", "$dumpvars", f"1{clk_id}", f"0{ack_id}", f"bx {rdt_id}"]
    lines.extend(f"0{dummy_id}" for dummy_id in dummy_ids)
    lines.append("$end")

    append, half = lines.append, truth.half_period
    clk_tokens = (f"1{clk_id}", f"0{clk_id}")
    for i in range(1, truth.index_count):
        if len(lines) >= _PIECE_LINES:
            yield "\n".join(lines) + "\n"
            lines.clear()
        append(f"#{i * half}")
        append(clk_tokens[i & 1])
        ack = ack_at.get(i)
        if ack is not None:
            append(ack + ack_id)
        bits = rdt_at.get(i)
        if bits is not None:
            append(f"b{bits} {rdt_id}")
        for j, period in enumerate(dummy_periods):
            if i % period == 0:
                append(f"{'01'[(i // period) & 1]}{dummy_ids[j]}")
    yield "\n".join(lines) + "\n"


def generate(spec: TraceSpec) -> tuple[str, GroundTruth]:
    """Render a dump for `spec`; returns (vcd text, ground truth).

    Output is deterministic: the same spec always yields the same text.
    """
    pieces, truth = render(spec)
    return "".join(pieces), truth


# Canned per-mnemonic instruction words for generated traces, assembled
# from the base-ISA field layouts with arbitrary but fixed operands.
WORDS = {
    "lui": 0x123453B7,
    "auipc": 0x00FEE497,
    "jal": 0xC01FF06F,
    "jalr": 0x008082E7,
    "beq": 0xFEB50CE3,
    "bne": 0x00D61C63,
    "blt": 0xFCF74CE3,
    "bge": 0x03185863,
    "bltu": 0xFD3964E3,
    "bgeu": 0x055A7463,
    "lb": 0xFFF58603,
    "lh": 0x00269703,
    "lw": 0xE707A803,
    "lbu": 0x0408C903,
    "lhu": 0xFFA9DA03,
    "sb": 0xFF5B0FA3,
    "sh": 0x017C1723,
    "sw": 0xF19D2023,
    "addi": 0x00000013,
    "slti": 0x00BE2D93,
    "sltiu": 0x001F3E93,
    "xori": 0xFFFFCF13,
    "ori": 0x70016093,
    "andi": 0x0F027193,
    "slli": 0x01F31293,
    "srli": 0x00145393,
    "srai": 0x41F55493,
    "add": 0x01FF0EB3,
    "sub": 0x401101B3,
    "sll": 0x00429333,
    "slt": 0x007424B3,
    "sltu": 0x00A5B633,
    "xor": 0x00D747B3,
    "srl": 0x0108D933,
    "sra": 0x413A5AB3,
    "or": 0x016BEC33,
    "and": 0x019D7DB3,
    "fence": 0x0FF0000F,
    "ecall": 0x00000073,
    "ebreak": 0x00100073,
}

# Benchmark profile for the canned serial-core run: per-mnemonic cycle
# counts observed for a bit-serial RV32I core stepping through its
# compliance suite. Shift timing depends on the shift amount, loads and
# stores on alignment, branches on whether they are taken, hence the
# non-constant mixes.
_C35 = (35, 35)
_C68 = (68, 68)
_SHIFT5 = (68, 99, 68, 68, 72)
_SRAI13 = (99,) + (68,) * 12
_JUMP_TAKEN = (68, 68, 68, 68, 70)
_JUMP_MIXED = (68, 70)
_MEM3 = (69, 69, 70)

_PROFILE = {
    "lui": _C35, "auipc": _C35,
    "jal": _JUMP_TAKEN, "jalr": _JUMP_MIXED,
    "beq": _JUMP_TAKEN, "bne": _JUMP_TAKEN, "blt": _JUMP_TAKEN,
    "bge": _JUMP_MIXED, "bltu": _JUMP_MIXED, "bgeu": _JUMP_MIXED,
    "lb": (69, 69), "lh": _MEM3, "lw": _MEM3, "lhu": _MEM3,
    "sh": _MEM3, "sw": _MEM3,
    "addi": _C35, "slti": _C68, "sltiu": _C68,
    "xori": _C35, "ori": _C35, "andi": _C35,
    "slli": _C68, "srli": _SHIFT5, "srai": _SRAI13,
    "add": _C35, "sub": _C35, "sll": _C68, "slt": _C68, "sltu": _C68,
    "xor": _C35, "srl": _SHIFT5, "sra": _SHIFT5,
    "or": _C35, "and": _C35,
    "ecall": _C35,
}

# closes the final real instruction's measurement window; decodes to
# "unknown" so it can never match a mnemonic filter, and is itself the
# (never measured) last instruction
_SENTINEL = (0x00000000, 1)


def table1_spec(clock_half_period: int = 1, dummy_signals: int = 0) -> TraceSpec:
    """The canned benchmark trace: every profiled mnemonic gets its full
    cycle mix, one instruction per mix entry, plus a trailing sentinel."""
    instructions = []
    for mnemonic in MNEMONICS:
        mix = _PROFILE.get(mnemonic)
        if mix is None:
            continue
        instructions.extend((WORDS[mnemonic], cycles) for cycles in mix)
    instructions.append(_SENTINEL)
    return TraceSpec(tuple(instructions), clock_half_period, dummy_signals)


def parse_spec_file(text: str) -> TraceSpec:
    """Parse a '<hex word> <cycles>' line format; '#' starts a comment."""
    instructions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidSpecError(
                f"line {lineno}: expected '<hex word> <cycles>', got {quote(raw.strip())}"
            )
        word, cycles = ascii_int(parts[0], 16), ascii_int(parts[1])
        if word is None:
            raise InvalidSpecError(f"line {lineno}: bad instruction word {quote(parts[0])}")
        if cycles is None:
            raise InvalidSpecError(f"line {lineno}: bad cycle count {quote(parts[1])}")
        if word > 0xFFFFFFFF:
            raise InvalidSpecError(f"line {lineno}: word {quote(parts[0])} does not fit in 32 bits")
        if cycles < 1:
            raise InvalidSpecError(f"line {lineno}: cycle count must be >= 1")
        instructions.append((word, cycles))
    if not instructions:
        raise InvalidSpecError("spec file contains no instructions")
    return TraceSpec(tuple(instructions))
