import io

import pytest

from conftest import raises_exactly
from direct_scan import scan_cpis
from wawk.errors import InvalidSpecError
from wawk.riscv import MNEMONICS, decode
from wawk.tracegen import (
    ACK_SIGNAL,
    CLOCK_SIGNAL,
    MAX_DUMMY_SIGNALS,
    RDT_SIGNAL,
    WORDS,
    Instruction,
    TraceSpec,
    dummy_signal_name,
    generate,
    parse_spec_file,
    table1_spec,
)
from wawk.vcd import parse_vcd

DBG = dummy_signal_name(0)[:-1]  # a dummy signal's name without its number


def build(words_cycles, **kwargs):
    spec = TraceSpec(instructions=tuple(words_cycles), **kwargs)
    text, truth = generate(spec)
    return text, truth, parse_vcd(io.StringIO(text))


class TestHandTrace:
    """Two instructions taking 3 and 2 cycles, half period 1.

    Fetch acks rise at indexes 2 and 10; the trace runs 16 indexes.
    Only the first instruction is measurable: its duration shows up
    as the spacing to the next ack minus one full handshake cycle.
    """

    WORDS = ((0x00000033, 3), (0x00000013, 2))  # add, addi

    def test_ack_indexes(self):
        _, truth, _ = build(self.WORDS)
        assert [i.ack_index for i in truth.instructions] == [2, 10]

    def test_index_count(self):
        _, truth, wave = build(self.WORDS)
        assert truth.index_count == 16
        assert wave.index_count == 16

    def test_formula_values(self):
        _, truth, _ = build(self.WORDS)
        assert [i.formula_value for i in truth.instructions] == [3, None]

    def test_timestamps_follow_half_period(self):
        _, truth, wave = build(self.WORDS, clock_half_period=5)
        assert [wave.timestamps[i] for i in range(4)] == [0, 5, 10, 15]
        assert truth.timestamp_of(3) == 15

    def test_clock_alternates_from_high(self):
        _, _, wave = build(self.WORDS)
        bits = [wave.series(CLOCK_SIGNAL).value_at(i).bits for i in range(6)]
        assert bits == ["1", "0", "1", "0", "1", "0"]

    def test_ack_pulses_span_one_cycle(self):
        _, _, wave = build(self.WORDS)
        highs = [i for i in range(16) if wave.series(ACK_SIGNAL).value_at(i).bits == "1"]
        assert highs == [2, 3, 10, 11]

    def test_rdt_holds_word_while_acked(self):
        _, _, wave = build(self.WORDS)
        assert wave.series(RDT_SIGNAL).value_at(2).to_int() == 0x00000033
        assert wave.series(RDT_SIGNAL).value_at(10).to_int() == 0x00000013
        assert wave.series(RDT_SIGNAL).value_at(0).has_xz

    def test_scan_oracle_agrees(self):
        _, truth, wave = build(self.WORDS)
        assert scan_cpis(wave, "add") == [3]
        assert scan_cpis(wave, "addi") == []
        assert truth.formula_values("add") == [3]


class TestGroundTruth:
    def test_expected_bits_match_parsed_waveform(self):
        text, truth, wave = build(
            ((0x00000033, 2), (0x00000013, 4), (0x00000033, 1)), dummy_signals=3)
        assert sorted(truth.signal_names()) == sorted(wave.signals)
        for name in truth.signal_names():
            for i in range(truth.index_count):
                assert wave.series(name).value_at(i).bits == truth.expected_bits(name, i), (
                    name, i)

    def test_repeated_mnemonic_collects_all_measured(self):
        _, truth, wave = build(
            ((0x00000033, 2), (0x00000033, 5), (0x00000033, 1)))
        assert truth.formula_values("add") == [2, 5]
        assert scan_cpis(wave, "add") == [2, 5]

    def test_stats_round_half_up(self):
        _, truth, _ = build(
            ((0x00000033, 2), (0x00000033, 3), (0x00000013, 1)))
        assert truth.stats("add") == (3, 2, 3)  # avg 2.5 rounds up
        assert truth.stats("addi") is None  # last instruction unmeasured

    def test_measured_mnemonics_excludes_final(self):
        _, truth, _ = build(((0x00000033, 2), (0x00000013, 2)))
        assert truth.measured_mnemonics() == ["add"]

    def test_dummy_signals_toggle_at_their_period(self):
        _, truth, wave = build(((0x00000033, 2), (0x00000013, 1)),
                               dummy_signals=2)
        name = dummy_signal_name(0)  # period 3
        bits = [wave.series(name).value_at(i).bits for i in range(9)]
        assert bits == ["0", "0", "0", "1", "1", "1", "0", "0", "0"]
        assert truth.dummy_signals == 2

    # the benchmark's oracle reads expected_bits; a name or index the trace
    # does not hold is refused, not answered. The trace has dbg0 and dbg1,
    # and int() would read the number of dbg-1, "dbg 1" and dbg01
    @pytest.mark.parametrize("query, message", [
        (("width_of", "top.nope"), "unknown signal 'top.nope'"),
        (("width_of", DBG + "2"), f"unknown signal '{DBG}2'"),
        (("expected_bits", "top.nope", 0), "unknown signal 'top.nope'"),
        (("expected_bits", DBG + "2", 0), f"unknown signal '{DBG}2'"),
        (("expected_bits", DBG + "-1", 0), f"unknown signal '{DBG}-1'"),
        (("expected_bits", DBG + " 1", 0), f"unknown signal '{DBG} 1'"),
        (("expected_bits", DBG + "01", 0), f"unknown signal '{DBG}01'"),
        (("expected_bits", DBG + "x", 0), f"unknown signal '{DBG}x'"),
        (("expected_bits", CLOCK_SIGNAL, 12), "index 12 out of range"),
        (("expected_bits", RDT_SIGNAL, -1), "index -1 out of range"),
    ], ids=["width-unknown", "width-dummy-past-count", "bits-unknown",
            "bits-dummy-past-count", "bits-dummy-minus-1", "bits-dummy-space-1",
            "bits-dummy-01", "bits-dummy-x", "bits-index-past-end", "bits-index-negative"])
    def test_queries_outside_the_trace_are_refused(self, query, message):
        _, truth, _ = build(((0x00000033, 2), (0x00000013, 1)), dummy_signals=2)
        assert truth.index_count == 12
        method, *args = query
        with raises_exactly(ValueError, message):
            getattr(truth, method)(*args)


class TestValidation:
    def test_empty_instruction_list(self):
        with raises_exactly(InvalidSpecError, "trace spec has no instructions"):
            generate(TraceSpec(instructions=()))

    def test_nonpositive_cycles(self):
        with raises_exactly(InvalidSpecError, "instruction 0: cycle count 0 must be >= 1"):
            generate(TraceSpec(instructions=((0x13, 0),)))

    def test_word_out_of_range(self):
        message = "instruction 0: word 4294967296 is not a 32-bit value"
        with raises_exactly(InvalidSpecError, message):
            generate(TraceSpec(instructions=((1 << 32, 1),)))
        with raises_exactly(InvalidSpecError, "instruction 0: word -1 is not a 32-bit value"):
            generate(TraceSpec(instructions=((-1, 1),)))

    def test_nonpositive_half_period(self):
        with raises_exactly(InvalidSpecError, "clock half period 0 must be >= 1"):
            generate(TraceSpec(instructions=((0x13, 1),), clock_half_period=0))

    def test_too_many_dummies(self):
        message = f"dummy signal count {MAX_DUMMY_SIGNALS + 1} must be 0..{MAX_DUMMY_SIGNALS}"
        with raises_exactly(InvalidSpecError, message):
            generate(TraceSpec(instructions=((0x13, 1),),
                               dummy_signals=MAX_DUMMY_SIGNALS + 1))

    def test_instruction_not_a_pair(self):
        with raises_exactly(InvalidSpecError, "instruction 0: expected (word, cycles)"):
            generate(TraceSpec(instructions=((0x13,),)))

    # a pair is a tuple or list: a str or dict of two items is refused too
    @pytest.mark.parametrize("instruction", [5, None, "ab", {0x13: 1, 2: 3}],
                             ids=["int", "none", "str", "dict"])
    def test_an_instruction_of_another_type(self, instruction):
        with raises_exactly(InvalidSpecError, "instruction 0: expected (word, cycles)"):
            generate(TraceSpec((instruction,)))

    @pytest.mark.parametrize("instructions, kind", [
        (5, "int"), (None, "NoneType"), ({(0x13, 1)}, "set"), (iter([(0x13, 1)]), "list_iterator"),
    ], ids=["int", "none", "set", "iterator"])
    def test_instructions_of_another_type(self, instructions, kind):
        message = f"trace spec instructions must be a tuple or list, not {kind}"
        with raises_exactly(InvalidSpecError, message):
            generate(TraceSpec(instructions))

    @pytest.mark.parametrize("spec, message", [
        (TraceSpec(((0x13, True), (0x13, 1))), "instruction 0: cycle count True must be >= 1"),
        (TraceSpec(((True, 1),)), "instruction 0: word True is not a 32-bit value"),
        (TraceSpec(((0x13, 1),), clock_half_period=True), "clock half period True must be >= 1"),
        (TraceSpec(((0x13, 1),), dummy_signals=True),
         f"dummy signal count True must be 0..{MAX_DUMMY_SIGNALS}"),
    ], ids=["cycles", "word", "half-period", "dummy-signals"])
    def test_a_bool_is_not_a_number(self, spec, message):
        with raises_exactly(InvalidSpecError, message):
            generate(spec)

    def test_determinism(self):
        spec = TraceSpec(instructions=((0x33, 3), (0x13, 2)), dummy_signals=4)
        assert generate(spec)[0] == generate(spec)[0]


class TestSpecFile:
    def test_basic_lines(self):
        spec = parse_spec_file("00000033 3\n00000013 2\n")
        assert spec.instructions == ((0x33, 3), (0x13, 2))

    def test_comments_and_blanks(self):
        text = "# header\n\n0x00000033 3  # trailing\n   \n00000013 2\n"
        spec = parse_spec_file(text)
        assert spec.instructions == ((0x33, 3), (0x13, 2))

    def test_bad_field_count(self):
        message = "line 1: expected '<hex word> <cycles>', got '00000033 3 9'"
        with raises_exactly(InvalidSpecError, message):
            parse_spec_file("00000033 3 9\n")

    def test_bad_hex(self):
        with raises_exactly(InvalidSpecError, "line 1: bad instruction word 'wxyz'"):
            parse_spec_file("wxyz 3\n")

    def test_bad_cycles(self):
        with raises_exactly(InvalidSpecError, "line 1: bad cycle count 'zero'"):
            parse_spec_file("00000033 zero\n")
        with raises_exactly(InvalidSpecError, "line 1: cycle count must be >= 1"):
            parse_spec_file("00000033 0\n")

    def test_word_wider_than_32_bits(self):
        message = "line 1: word '100000000' does not fit in 32 bits"
        with raises_exactly(InvalidSpecError, message):
            parse_spec_file("100000000 1\n")

    def test_no_instructions(self):
        with raises_exactly(InvalidSpecError, "spec file contains no instructions"):
            parse_spec_file("# comments only\n\n")


class TestCannedWords:
    def test_every_word_decodes_to_its_mnemonic(self):
        assert sorted(WORDS) == sorted(MNEMONICS)
        for mnemonic, word in WORDS.items():
            assert decode(word) == mnemonic, mnemonic


class TestTable1Spec:
    def test_shape(self):
        spec = table1_spec()
        assert len(spec.instructions) == 110
        # final sentinel is a non-instruction and takes one cycle
        word, cycles = spec.instructions[-1]
        assert decode(word) == "unknown"
        assert cycles == 1

    def test_covers_profiled_mnemonics(self):
        spec = table1_spec()
        seen = {decode(w) for w, _ in spec.instructions}
        assert "unknown" in seen
        assert len(seen - {"unknown"}) == 36

    def test_options_forwarded(self):
        spec = table1_spec(clock_half_period=4, dummy_signals=7)
        assert spec.clock_half_period == 4
        assert spec.dummy_signals == 7

    def test_generated_trace_matches_oracle_scan(self):
        text, truth = generate(table1_spec())
        wave = parse_vcd(io.StringIO(text))
        for mnemonic in MNEMONICS:
            assert scan_cpis(wave, mnemonic) == truth.formula_values(mnemonic), mnemonic
