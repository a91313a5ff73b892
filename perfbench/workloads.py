"""The benchmark's workloads: seeded inputs and their oracles.

A workload is a trace spec, a script and its arguments, all derived from
(workload name, seed). wawk only ever sees the generated files. Expected
output comes from the trace generator's ground truth, never from the
interpreter, so a wrong answer cannot agree with itself.
"""

import random
from dataclasses import dataclass

from wawk.riscv import MNEMONICS
from wawk.tracegen import (
    ACK_SIGNAL,
    CLOCK_SIGNAL,
    RDT_SIGNAL,
    WORDS,
    GroundTruth,
    TraceSpec,
    dummy_signal_name,
    table1_spec,
)

WIDE_INSTRUCTIONS = 4_500
WIDE_MNEMONIC = "lw"  # a load: three cycle counts in table1's mix
WIDE_DUMMIES = 64
SMALL_WIDE_INSTRUCTIONS = 120
SMALL_DUMMIES = 8
# rd, rs1 and rs2 fields: randomizing them never changes the mnemonic,
# except for ecall/ebreak, which require them to be zero
_OPERAND_MASK = (0x1F << 7) | (0x1F << 15) | (0x1F << 20)
_FIXED_WORDS = ("ecall", "ebreak")
_NAME_OF_WORD = {word: name for name, word in WORDS.items()}


class OracleError(Exception):
    """The generator's ground truth disagrees with what the benchmark
    asked it to generate."""


@dataclass(frozen=True)
class Case:
    """Everything one run of one workload needs."""

    spec: TraceSpec
    mnemonics: tuple[str, ...]  # intended mnemonic of each instruction
    script: str  # "@cpi", or the source text of a generated script
    args: tuple[str, ...]
    signals: tuple[str, ...]  # signals the script reads
    executions: int  # script executions per `wawk run`
    mnemonic: str | None  # the mnemonic a single-mnemonic run measures


def _table1_shuffled(rng: random.Random, dummy_signals: int, small: bool) -> TraceSpec:
    """table1's instruction mix in a seeded order. The multiset of
    (word, cycles) pairs, the index count and the report stay the same."""
    *body, sentinel = table1_spec(dummy_signals=dummy_signals).instructions
    if small:
        body = body[::4]
    rng.shuffle(body)
    return TraceSpec(tuple(body) + (sentinel,), dummy_signals=dummy_signals)


def _intended(spec: TraceSpec) -> tuple[str, ...]:
    return tuple(_NAME_OF_WORD.get(word, "unknown") for word, _ in spec.instructions)


def _wide(rng: random.Random, small: bool) -> tuple[TraceSpec, tuple[str, ...]]:
    """A random RV32I mix with table1's per-mnemonic cycle mixes and
    random register operands, closed by table1's sentinel."""
    table1 = table1_spec().instructions
    mix: dict[int, list[int]] = {}
    for word, cycles in table1[:-1]:
        mix.setdefault(word, []).append(cycles)
    names = [name for name, word in WORDS.items() if word in mix]
    count = SMALL_WIDE_INSTRUCTIONS if small else WIDE_INSTRUCTIONS
    instructions, mnemonics = [], []
    for _ in range(count):
        name = rng.choice(names)
        word = WORDS[name]
        cycles = rng.choice(mix[word])
        if name not in _FIXED_WORDS:
            word = (word & ~_OPERAND_MASK) | (rng.getrandbits(32) & _OPERAND_MASK)
        instructions.append((word, cycles))
        mnemonics.append(name)
    instructions.append(table1[-1])
    mnemonics.append("unknown")
    dummies = SMALL_DUMMIES if small else WIDE_DUMMIES
    return TraceSpec(tuple(instructions), dummy_signals=dummies), tuple(mnemonics)


def toggle_script(signals: tuple[str, ...]) -> str:
    """One statement per 1-bit signal, counting the indexes where it
    differs from the index before."""
    begin = ["BEGIN: {", "  total = 0;"]
    sweep, end = [], ["END: {"]
    for k, name in enumerate(signals):
        begin += [f"  alias(s{k}, {name});", f"  n{k} = 0;"]
        sweep.append(f"s{k} != s{k}@-1: {{ n{k} = n{k} + 1; total = total + 1; }}")
        end.append(f'  printf("{name.rsplit(".", 1)[1]}: %d\\n", n{k});')
    end.append('  printf("total: %d\\n", total);')
    return "\n".join(begin + ["}", ""] + sweep + ["", *end, "}", ""])


def make_case(workload: str, seed: int, small: bool = False) -> Case:
    """The inputs of one workload for one seed; the same seed always
    gives the same case. `small` shrinks the trace for the self-test."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cpi_all":
        spec = _table1_shuffled(rng, 0, small)
        return Case(spec, _intended(spec), "@cpi", ("--all",),
                    (CLOCK_SIGNAL, ACK_SIGNAL, RDT_SIGNAL), len(MNEMONICS), None)
    if workload == "cpi_wide":
        spec, mnemonics = _wide(rng, small)
        return Case(spec, mnemonics, "@cpi", (WIDE_MNEMONIC,),
                    (CLOCK_SIGNAL, ACK_SIGNAL, RDT_SIGNAL), 1, WIDE_MNEMONIC)
    if workload == "toggle_wide":
        spec = _table1_shuffled(rng, SMALL_DUMMIES if small else WIDE_DUMMIES, small)
        signals = (CLOCK_SIGNAL, ACK_SIGNAL) + tuple(
            dummy_signal_name(j) for j in range(spec.dummy_signals)
        )
        return Case(spec, _intended(spec), toggle_script(signals), (), signals, 1, None)
    raise ValueError(f"unknown workload {workload!r}")


def _report_line(mnemonic: str, stats: tuple[int, int, int]) -> str:
    avg, low, high = stats
    if low == high:
        return f"{mnemonic}: {avg}\n"
    return f"{mnemonic}: avg={avg} min={low} max={high}\n"


def expected_output(workload: str, case: Case, truth: GroundTruth) -> str:
    """The exact stdout `wawk run` must print for this case.

    For the cpi workloads, report lines come from the generator's
    per-instruction cycle counts (average rounded half up, as the README
    states). For toggle_wide, toggle counts come from the generator's
    expected bits at every index."""
    decoded = tuple(ins.mnemonic for ins in truth.instructions)
    if decoded != case.mnemonics:
        raise OracleError("the trace generator decoded an instruction word unexpectedly")
    if workload in ("cpi_all", "cpi_wide"):
        wanted = MNEMONICS if case.mnemonic is None else (case.mnemonic,)
        return "".join(
            _report_line(m, truth.stats(m)) for m in wanted if truth.stats(m) is not None
        )
    lines, total = [], 0
    for name in case.signals:
        bits = [truth.expected_bits(name, i) for i in range(truth.index_count)]
        toggles = sum(a != b for a, b in zip(bits, bits[1:]))
        total += toggles
        lines.append(f"{name.rsplit('.', 1)[1]}: {toggles}\n")
    return "".join(lines) + f"total: {total}\n"
