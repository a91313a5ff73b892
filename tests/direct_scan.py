"""Independent cycle-measurement oracle.

Walks a Waveform directly (no script language involved) and measures, per
mnemonic, the same quantity the bundled analysis script reports: at every
posedge where the acknowledge strobe is low now but high two indexes
later, record (index - start_of_current_instruction) / 2. Implemented
separately, against the measurement's definition, so interpreter results
can be checked against something that shares none of its code paths.

Also the queries the tests ask of a generated trace's ground truth
(wawk.tracegen.GroundTruth), as functions of it: its timestamps, signal
names and widths, and the measurements it says each mnemonic must show.
"""

from wawk.riscv import decode
from wawk.tracegen import ACK_SIGNAL, CLOCK_SIGNAL, RDT_SIGNAL, GroundTruth, dummy_signal_name
from wawk.waveform import Waveform


def timestamp_of(truth: GroundTruth, index: int) -> int:
    return index * truth.half_period


def signal_names(truth: GroundTruth) -> list[str]:
    names = [CLOCK_SIGNAL, ACK_SIGNAL, RDT_SIGNAL]
    names += [dummy_signal_name(j) for j in range(truth.dummy_signals)]
    return names


def width_of(truth: GroundTruth, name: str) -> int:
    if name == RDT_SIGNAL:
        return 32
    if name in signal_names(truth):
        return 1
    raise ValueError(f"unknown signal {name!r}")


def formula_values(truth: GroundTruth, mnemonic: str) -> list[int]:
    return [
        ins.formula_value
        for ins in truth.instructions
        if ins.mnemonic == mnemonic and ins.formula_value is not None
    ]


def measured_mnemonics(truth: GroundTruth) -> list[str]:
    """Each measured mnemonic once, in trace order."""
    return list(dict.fromkeys(
        ins.mnemonic for ins in truth.instructions if ins.formula_value is not None))


def scan_all(waveform: Waveform) -> dict[str, list[int]]:
    """Measurements for every mnemonic seen in the trace, in one pass."""
    clk = waveform.series(CLOCK_SIGNAL)
    ack = waveform.series(ACK_SIGNAL)
    rdt = waveform.series(RDT_SIGNAL)
    count = waveform.index_count
    start = None
    op = None
    values: dict[str, list[int]] = {}
    for i in range(count):
        if clk.value_at(i).bits != "1":
            continue
        fire = ack.value_at(i).bits == "1"
        if not fire and i + 2 < count and ack.value_at(i + 2).bits == "1" and op is not None:
            values.setdefault(op, []).append((i - start) // 2)
        if fire:
            start = i
            op = decode(rdt.value_at(i).to_int())
    return values


def scan_cpis(waveform: Waveform, mnemonic: str) -> list[int]:
    return scan_all(waveform).get(mnemonic, [])


def round_half_up_stats(values: list[int]) -> tuple[int, int, int]:
    """(average, min, max) with the average's exact halves rounded up."""
    assert values
    total = sum(values)
    n = len(values)
    avg = (2 * total + n) // (2 * n)
    return avg, min(values), max(values)


def expected_report_line(mnemonic: str, values: list[int]) -> str:
    """The report line the analysis script must print for these
    measurements; empty string when there are none."""
    if not values:
        return ""
    avg, lo, hi = round_half_up_stats(values)
    if lo == hi:
        return f"{mnemonic}: {avg}\n"
    return f"{mnemonic}: avg={avg} min={lo} max={hi}\n"
