import io

import pytest

from conftest import make_waveform, raises_exactly, run_script
from wawk.errors import RunFailure
from wawk.interp import OUT_OF_RANGE, UNBOUND, default_native_modules, execute
from wawk.parser import parse_source


# x = 10 ** 8192: more digits than str() converts by default
# (sys.get_int_max_str_digits())
HUGE = "x = 10; " + "x = x * x; " * 13


def counting_module():
    calls = []

    def bump(args):
        calls.append(tuple(args))
        return len(calls)

    modules = default_native_modules()
    modules["probe"] = {"bump": bump}
    return modules, calls


def run_with_probe(source, waveform, args=()):
    modules, calls = counting_module()
    out = io.StringIO()
    env = execute(parse_source(source), waveform, args=args, out=out, modules=modules)
    return out.getvalue(), env, calls


@pytest.fixture
def empty_wave():
    return make_waveform(0, {})


class TestLifecycle:
    def test_begin_and_end_run_once(self, clocked_wave):
        _, env = run_script("BEGIN: { n = 1; }\nEND: { m = 2; }", clocked_wave)
        assert env.variables["n"] == 1
        assert env.variables["m"] == 2

    def test_begin_and_end_run_on_empty_waveform(self, empty_wave):
        out, env = run_script(
            'BEGIN: { n = 0; }\nEND: { printf("n=%d\\n", n); }', empty_wave
        )
        assert out == "n=0\n"

    def test_sweep_visits_every_index_in_order(self, clocked_wave):
        _, env = run_script("BEGIN: { seen = []; }\n1: { seen = seen + INDEX; }",
                            clocked_wave)
        assert env.variables["seen"] == list(range(20))

    def test_statements_run_in_source_order_per_index(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { log = []; }\n1: { log = log + 1; }\n1: { log = log + 2; }",
            clocked_wave)
        assert env.variables["log"][:4] == [1, 2, 1, 2]

    def test_condition_filters_indexes(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { seen = []; }\ntop.clk: { seen = seen + INDEX; }", clocked_wave)
        assert env.variables["seen"] == list(range(0, 20, 2))

    def test_variables_persist_across_indexes(self, clocked_wave):
        _, env = run_script("BEGIN: { n = 0; }\n1: { n = n + 1; }", clocked_wave)
        assert env.variables["n"] == 20

    def test_args_bound(self, clocked_wave):
        _, env = run_script("BEGIN: { first = args[0]; n = length(args); }",
                            clocked_wave, args=["addi", "x"])
        assert env.variables["first"] == "addi"
        assert env.variables["n"] == 2

    def test_end_runs_after_sweep(self, clocked_wave):
        out, _ = run_script(
            'BEGIN: { n = 0; }\n1: { n = n + 1; }\nEND: { printf("%d", n); }',
            clocked_wave)
        assert out == "20"


class TestConditionSemantics:
    def test_comma_is_conjunction(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { seen = []; }\ntop.clk, INDEX < 6: { seen = seen + INDEX; }",
            clocked_wave)
        assert env.variables["seen"] == [0, 2, 4]

    def test_comma_short_circuits(self, clocked_wave):
        # the bump after a false condition must never run
        _, env, calls = run_with_probe(
            "BEGIN: { import(probe); }\n"
            "INDEX == 3, call(probe.bump, INDEX): { }",
            clocked_wave)
        assert calls == [(3,)]

    def test_conditions_evaluate_left_to_right(self, clocked_wave):
        _, env, calls = run_with_probe(
            "BEGIN: { import(probe); }\n"
            "call(probe.bump, 1), call(probe.bump, 2), 0, call(probe.bump, 3): { }",
            clocked_wave)
        # 20 indexes; first two bumps run each time, the third never
        assert len(calls) == 40
        assert (3,) not in calls

    def test_body_runs_only_when_all_conditions_hold(self, clocked_wave):
        _, env, calls = run_with_probe(
            "BEGIN: { import(probe); n = 0; }\n"
            "top.clk, INDEX > 10: { n = n + call(probe.bump, INDEX); }",
            clocked_wave)
        assert [c[0] for c in calls] == [12, 14, 16, 18]

    def test_unbound_variable_falsy_in_condition(self, clocked_wave):
        _, env = run_script("BEGIN: { n = 0; }\nnever_set: { n = n + 1; }",
                            clocked_wave)
        assert env.variables["n"] == 0

    def test_negated_unbound_is_true_in_condition(self, clocked_wave):
        _, env = run_script("BEGIN: { n = 0; }\n!never_set: { n = n + 1; }",
                            clocked_wave)
        assert env.variables["n"] == 20

    def test_comparison_with_unbound_falsy_in_condition(self, clocked_wave):
        _, env = run_script("BEGIN: { n = 0; }\nnever_set == 3: { n = n + 1; }",
                            clocked_wave)
        assert env.variables["n"] == 0

    def test_unbound_in_arithmetic_raises_even_in_condition(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 at index 0: "
                                        "operand of '+' is an unbound variable"):
            run_script("never_set + 1: { }", clocked_wave)

    def test_x_valued_signal_falsy(self):
        wave = make_waveform(4, {"s": (1, [(2, "1")])})  # x at 0 and 1
        _, env = run_script("BEGIN: { seen = []; }\ns: { seen = seen + INDEX; }", wave)
        assert env.variables["seen"] == [2, 3]


class TestOffsets:
    def test_offset_reads_relative_value(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { seen = []; }\n"
            "top.clk, top.clk@2: { seen = seen + INDEX; }", clocked_wave)
        # posedges whose +2 neighbour exists: 0..16
        assert env.variables["seen"] == list(range(0, 18, 2))

    def test_offset_out_of_range_is_falsy(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { seen = []; }\ntop.clk@-2: { seen = seen + INDEX; }",
            clocked_wave)
        # indexes 0 and 1 look before the trace; even targets are clk=1
        assert env.variables["seen"] == list(range(2, 20, 2))

    def test_offset_out_of_range_comparison_falsy(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { n = 0; }\ntop.clk@100 == 1: { n = n + 1; }", clocked_wave)
        assert env.variables["n"] == 0

    def test_offset_arithmetic_out_of_range_raises(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 at index 0: "
                                        "operand of '+' is an out-of-range signal sample"):
            run_script("1: { v = top.clk@100 + 1; }", clocked_wave)

    def test_offset_through_alias(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { alias(c, top.clk); seen = []; }\n"
            "c@1 == 0: { seen = seen + INDEX; }", clocked_wave)
        assert env.variables["seen"] == list(range(0, 19, 2))

    def test_offset_on_unknown_signal_raises(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 at index 0: unknown signal 'nosuch'"):
            run_script("nosuch@2: { }", clocked_wave)


class TestSignalsAndAliases:
    def test_read_signal_by_full_name(self, clocked_wave):
        _, env = run_script("1: { v = top.counter; }", clocked_wave)
        assert env.variables["v"].to_int() == 9

    def test_alias_reads_match_direct_reads(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { alias(cnt, top.counter); same = 1; }\n"
            "cnt != top.counter: { same = 0; }", clocked_wave)
        assert env.variables["same"] == 1

    def test_alias_of_alias_resolves(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { alias(a, top.clk); alias(b, a); n = 0; }\nb: { n = n + 1; }",
            clocked_wave)
        assert env.variables["n"] == 10

    def test_alias_to_unknown_signal_raises(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): unknown signal 'top.nope'"):
            run_script("BEGIN: { alias(c, top.nope); }", clocked_wave)

    def test_alias_redefinition_raises(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): alias 'c' is already defined"):
            run_script("BEGIN: { alias(c, top.clk); alias(c, top.counter); }",
                       clocked_wave)

    def test_unknown_dotted_name_raises_even_in_condition(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 at index 0: unknown signal 'top.nope'"):
            run_script("top.nope: { }", clocked_wave)

    def test_signal_read_in_begin_raises(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): signal 'top.clk' "
                                        "can only be read during the index sweep") as exc:
            run_script("BEGIN: { v = top.clk; }", clocked_wave)
        assert "index sweep" in str(exc.value)

    def test_index_in_begin_raises(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "INDEX is only defined during the index sweep"):
            run_script("BEGIN: { v = INDEX; }", clocked_wave)

    def test_variable_shadows_signal(self, clocked_wave):
        # assignment creates a variable even when a signal has that name;
        # reads prefer the variable afterwards
        wave = make_waveform(4, {"clk": (1, [(0, "1")])})
        _, env = run_script("BEGIN: { n = 0; }\n1: { clk = 5; n = n + clk; }", wave)
        assert env.variables["n"] == 20


class TestValuesAndOperators:
    def test_logic_compares_to_int(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { hits = []; }\ntop.counter == 3: { hits = hits + INDEX; }",
            clocked_wave)
        assert env.variables["hits"] == [6, 7]

    def test_x_in_equality_raises(self):
        wave = make_waveform(2, {"s": (2, [(1, "10")])})  # xx at index 0
        with raises_exactly(RunFailure, "statement 1 at index 0: "
                                        "cannot convert 'xx' to an integer: contains x/z bits"):
            run_script("1: { v = (s == 0); }", wave)

    def test_x_in_arithmetic_raises(self):
        wave = make_waveform(1, {"s": (2, [])})
        with raises_exactly(RunFailure, "statement 1 at index 0: "
                                        "cannot convert 'xx' to an integer: contains x/z bits"):
            run_script("1: { v = s + 1; }", wave)

    def test_truncating_division(self, empty_wave):
        src = "BEGIN: { a = 7 / 2; b = (0 - 7) / 2; c = 7 / (0 - 2); d = (0 - 7) / (0 - 2); }"
        _, env = run_script(src, empty_wave)
        assert env.variables["a"] == 3
        assert env.variables["b"] == -3
        assert env.variables["c"] == -3
        assert env.variables["d"] == 3

    def test_division_by_zero(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): 1 / 0"):
            run_script("BEGIN: { v = 1 / 0; }", empty_wave)

    def test_messages_give_the_size_of_integers_str_cannot_convert(self, empty_wave):
        big = "a 27214-bit integer"
        for action, message in [("v = x / 0;", f"{big} / 0"),
                                ("v = [1][x];", f"list index {big} out of range for length 1"),
                                ("import(extern); v = call(extern.decode, x);",
                                 f"decode needs a 32-bit instruction word, got {big}")]:
            with raises_exactly(RunFailure, f"statement 1 (BEGIN): {message}"):
                run_script(f"BEGIN: {{ {HUGE} {action} }}", empty_wave)

    def test_unary_minus_and_not(self, empty_wave):
        _, env = run_script('BEGIN: { a = -5; b = !5; c = !0; d = !""; }', empty_wave)
        assert env.variables["a"] == -5
        assert env.variables["b"] == 0
        assert env.variables["c"] == 1
        assert env.variables["d"] == 1

    def test_arithmetic_grouping(self, empty_wave):
        _, env = run_script("BEGIN: { v = (18 - 10) / 2; w = 18 - 10 / 2; }", empty_wave)
        assert env.variables["v"] == 4
        assert env.variables["w"] == 13

    def test_string_equality(self, empty_wave):
        _, env = run_script(
            'BEGIN: { a = ("sra" == "sra"); b = ("sra" != "srl"); }', empty_wave)
        assert env.variables["a"] == 1
        assert env.variables["b"] == 1

    def test_string_int_comparison_raises(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "cannot compare string with int using '=='"):
            run_script('BEGIN: { v = ("a" == 1); }', empty_wave)

    @pytest.mark.parametrize("expr", ["1 < [1]", "[1] < 2", "0 < args", "args >= 0",
                                      "1 == [1]", "[1] == 1", "[1] != [1]"])
    def test_a_list_on_either_side_of_a_comparison_raises(self, empty_wave, expr):
        op = expr.split()[1]
        with raises_exactly(RunFailure,
                            f"statement 1 (BEGIN): cannot compare list values with '{op}'"):
            run_script(f"BEGIN: {{ v = {expr}; }}", empty_wave)

    def test_logical_operators_return_ints(self, empty_wave):
        _, env = run_script("BEGIN: { a = 2 && 3; b = 0 || 7; c = 0 && 1; }", empty_wave)
        assert env.variables["a"] == 1
        assert env.variables["b"] == 1
        assert env.variables["c"] == 0

    def test_and_or_short_circuit(self, empty_wave):
        # the right side would raise if evaluated
        _, env = run_script("BEGIN: { a = 0 && (1 / 0); b = 1 || (1 / 0); }", empty_wave)
        assert env.variables["a"] == 0
        assert env.variables["b"] == 1

    def test_unbound_in_body_raises_unknown_name(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 at index 0: unbound variable 'missing'"):
            run_script("1: { v = missing; }", clocked_wave)

    def test_module_name_is_not_a_value(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "'extern' is a native module, not a value"):
            run_script("BEGIN: { v = extern; }", empty_wave)


class TestLists:
    def test_plus_appends(self, empty_wave):
        _, env = run_script("BEGIN: { l = []; l = l + 3; l = l + 4; }", empty_wave)
        assert env.variables["l"] == [3, 4]

    def test_append_is_in_place(self, empty_wave):
        _, env = run_script("BEGIN: { a = [1]; b = a; a = a + 2; }", empty_wave)
        assert env.variables["b"] == [1, 2]

    def test_subscript(self, empty_wave):
        _, env = run_script("BEGIN: { l = [5, 6, 7]; v = l[1]; }", empty_wave)
        assert env.variables["v"] == 6

    def test_subscript_out_of_range(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "list index 3 out of range for length 1"):
            run_script("BEGIN: { l = [1]; v = l[3]; }", empty_wave)

    def test_subscript_non_list(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): cannot subscript int"):
            run_script("BEGIN: { v = 5[0]; }", empty_wave)

    def test_nested_literals(self, empty_wave):
        _, env = run_script('BEGIN: { l = [1, [2, "x"]]; v = l[1][1]; }', empty_wave)
        assert env.variables["v"] == "x"

    def test_empty_list_is_falsy(self, empty_wave):
        out, _ = run_script(
            'BEGIN: { l = []; }\nEND: { if (l) { printf("y"); } else { printf("n"); }; }',
            empty_wave)
        assert out == "n"


class TestBuiltins:
    def test_min_max_average_length(self, empty_wave):
        src = "BEGIN: { l = [3, 9, 4]; a = min(l); b = max(l); c = average(l); d = length(l); }"
        _, env = run_script(src, empty_wave)
        assert env.variables["a"] == 3
        assert env.variables["b"] == 9
        assert env.variables["c"] == 5  # 16/3 = 5.33 rounds to 5
        assert env.variables["d"] == 3

    def test_average_rounds_half_up(self, empty_wave):
        _, env = run_script(
            "BEGIN: { a = average([1, 2]); b = average([2, 3]); c = average([0 - 3, 0 - 4]); }",
            empty_wave)
        assert env.variables["a"] == 2  # 1.5 -> 2
        assert env.variables["b"] == 3  # 2.5 -> 3
        assert env.variables["c"] == -3  # -3.5 -> -3 (half rounds toward +inf)

    def test_empty_list_errors(self, empty_wave):
        for call in ("min([])", "max([])", "average([])"):
            name = call.split("(")[0]
            with raises_exactly(RunFailure, f"statement 1 (BEGIN): {name} of an empty list"):
                run_script(f"BEGIN: {{ v = {call}; }}", empty_wave)

    def test_length_of_empty_is_zero(self, empty_wave):
        _, env = run_script("BEGIN: { v = length([]); }", empty_wave)
        assert env.variables["v"] == 0

    def test_non_integer_list_rejected(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "min needs a list of integers, found string"):
            run_script('BEGIN: { v = min([1, "a"]); }', empty_wave)

    def test_unknown_function(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): unknown function 'median'"):
            run_script("BEGIN: { v = median([1]); }", empty_wave)

    def test_logic_values_count_as_integers(self, clocked_wave):
        # as in arithmetic: defined bits convert, x/z bits raise
        src = ("BEGIN: { l = []; }\n"
               "top.clk: { l = l + top.counter; m = max([top.counter, 3]); }\n"
               "END: { a = min(l); b = max(l); c = average(l); }")
        _, env = run_script(src, clocked_wave)
        assert [env.variables[name] for name in "abcm"] == [0, 9, 5, 9]
        wave = make_waveform(1, {"s": (4, [(0, "10x0")])})
        with raises_exactly(RunFailure, "statement 1 at index 0: "
                                        "cannot convert '10x0' to an integer: contains x/z bits"):
            run_script("1: { v = min([s]); }", wave)


class TestPrintf:
    def test_directives(self, empty_wave):
        out, _ = run_script(
            'BEGIN: { printf("%s=%d %b %d%%\\n", "n", 42, 5, 0 - 1); }', empty_wave)
        assert out == "n=42 101 -1%\n"

    def test_logic_value_directives(self):
        wave = make_waveform(1, {"s": (4, [(0, "10x0")])})
        out, _ = run_script('1: { printf("%b", s); }', wave)
        assert out == "10x0"

    def test_too_few_values(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "format string needs more than 1 value(s)"):
            run_script('BEGIN: { printf("%d %d", 1); }', empty_wave)

    def test_too_many_values(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "format string consumed 1 of 2 value(s)"):
            run_script('BEGIN: { printf("%d", 1, 2); }', empty_wave)

    def test_type_mismatch(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): %d needs an integer, got string"):
            run_script('BEGIN: { printf("%d", "x"); }', empty_wave)
        with raises_exactly(RunFailure, "statement 1 (BEGIN): %s needs a string, got int"):
            run_script('BEGIN: { printf("%s", 1); }', empty_wave)

    def test_unknown_directive(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): unknown format directive '%q'"):
            run_script('BEGIN: { printf("%q", 1); }', empty_wave)

    def test_needs_format_string(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): printf needs a format string first"):
            run_script("BEGIN: { printf(1); }", empty_wave)

    def test_integer_past_the_str_digit_limit(self, empty_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "%d value has too many digits to print") as exc:
            run_script(f'BEGIN: {{ {HUGE} printf("%d", x); }}', empty_wave)
        assert str(exc.value).startswith("statement 1 (BEGIN): ")


class TestNativeCalls:
    def test_import_then_call(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { import(extern); m = call(extern.decode, 19); }", clocked_wave)
        assert env.variables["m"] == "addi"

    def test_call_without_import(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "module 'extern' has not been imported"):
            run_script("BEGIN: { m = call(extern.decode, 19); }", clocked_wave)

    def test_import_unknown_module(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): unknown native module 'nonesuch'"):
            run_script("BEGIN: { import(nonesuch); }", clocked_wave)

    def test_call_unknown_function(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        "module 'extern' has no function 'wat'"):
            run_script("BEGIN: { import(extern); v = call(extern.wat, 1); }",
                       clocked_wave)

    def test_decode_accepts_logic_values(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { import(extern); }\n"
            "INDEX == 6: { m = call(extern.decode, top.counter); }", clocked_wave)
        # counter reads 3 at index 6; word 3 encodes lb x0, 0(x0)
        assert env.variables["m"] == "lb"

    @pytest.mark.parametrize("word", ["4294967296 + 19", "-1"])
    def test_decode_rejects_words_outside_32_bits(self, empty_wave, word):
        # the range `wawk decode` accepts; 2**32 + 19 used to decode as addi
        shown = {"4294967296 + 19": "4294967315", "-1": "-1"}[word]
        with raises_exactly(RunFailure, "statement 1 (BEGIN): "
                                        f"decode needs a 32-bit instruction word, got {shown}"):
            run_script(f"BEGIN: {{ import(extern); m = call(extern.decode, {word}); }}",
                       empty_wave)

    def test_decode_rejects_x(self):
        wave = make_waveform(1, {"w": (32, [])})
        with raises_exactly(RunFailure, f"statement 2 at index 0: cannot convert {'x' * 32!r} "
                                        "to an integer: contains x/z bits"):
            run_script("BEGIN: { import(extern); }\n1: { m = call(extern.decode, w); }",
                       wave)


class TestIfStatement:
    def test_if_else(self, empty_wave):
        out, _ = run_script(
            'BEGIN: { n = 3; if (n > 2) { printf("big"); } else { printf("small"); }; }',
            empty_wave)
        assert out == "big"

    def test_if_condition_tolerates_unbound(self, empty_wave):
        out, _ = run_script(
            'BEGIN: { if (missing) { printf("y"); } else { printf("n"); }; }',
            empty_wave)
        assert out == "n"

    def test_nested_if(self, clocked_wave):
        _, env = run_script(
            "BEGIN: { n = 0; }\n"
            "top.clk: { if (INDEX > 4) { if (INDEX < 10) { n = n + 1; }; }; }",
            clocked_wave)
        assert env.variables["n"] == 2  # indexes 6 and 8


class TestErrorContext:
    def test_sweep_error_names_statement_and_index(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 2 at index 4: unbound variable 'boom'") as exc:
            run_script("BEGIN: { }\ntop.clk, INDEX == 4: { v = boom; }", clocked_wave)
        assert "statement 2" in str(exc.value)
        assert "index 4" in str(exc.value)

    def test_begin_error_names_statement(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 1 (BEGIN): unknown signal 'top.nope'") as exc:
            run_script("BEGIN: { alias(c, top.nope); }", clocked_wave)
        assert "statement 1 (BEGIN)" in str(exc.value)

    def test_end_error_names_statement(self, clocked_wave):
        with raises_exactly(RunFailure, "statement 2 (END): min of an empty list") as exc:
            run_script("BEGIN: { }\nEND: { v = min([]); }", clocked_wave)
        assert "statement 2 (END)" in str(exc.value)


class TestMarkers:
    def test_markers_are_falsy_singletons(self):
        assert repr(UNBOUND) == "unbound"
        assert repr(OUT_OF_RANGE) == "out-of-range"


# Errors that each take one script to reach: the script over clocked_wave
# and the whole message. probe.none returns None and probe.yes True, values
# no script can write; a bool is no integer to decode, min, %d, %b or [].
SCRIPT_ERRORS = {
    "decode-arity": ("BEGIN: { import(extern); m = call(extern.decode, 1, 2); }",
                     "statement 1 (BEGIN): decode takes 1 argument, got 2"),
    "no-truth-value": ("BEGIN: { import(probe); if (call(probe.none)) { v = 1; } }",
                       "statement 1 (BEGIN): no truth value for None"),
    "lone-percent": ('BEGIN: { printf("abc%"); }',
                     "statement 1 (BEGIN): format string ends with a lone '%'"),
    "b-type": ('BEGIN: { printf("%b", "s"); }',
               "statement 1 (BEGIN): %b needs a logic value, got string"),
    "b-bool": ('BEGIN: { import(probe); printf("%b", call(probe.yes)); }',
               "statement 1 (BEGIN): %b needs a logic value, got bool"),
    "b-negative": ('BEGIN: { printf("%b", 0 - 1); }',
                   "statement 1 (BEGIN): %b needs a non-negative integer"),
    "append-absent": ("BEGIN: { l = []; }\n1: { l = l + top.clk@-1; }",
                      "statement 2 at index 0: cannot append an absent value to a list"),
    "alias-dotted": ("BEGIN: { alias(a.b, top.clk); }",
                     "statement 1 (BEGIN): alias name 'a.b' must be a plain identifier"),
    "alias-arity": ("BEGIN: { alias(a); }",
                    "statement 1 (BEGIN): alias takes two names: alias(short, target)"),
    "import-arity": ("BEGIN: { import(); }", "statement 1 (BEGIN): import takes one module name"),
    "call-arity": ("BEGIN: { v = call(); }",
                   "statement 1 (BEGIN): call needs a module.function name first"),
    "call-target": ("BEGIN: { import(extern); v = call(decode, 1); }",
                    "statement 1 (BEGIN): call target 'decode' must be module.function"),
    "index-type": ('BEGIN: { l = [1]; v = l["a"]; }',
                   "statement 1 (BEGIN): list index must be an integer, got string"),
    "length-arity": ("BEGIN: { v = length([1], [2]); }",
                     "statement 1 (BEGIN): length takes 1 argument, got 2"),
    "length-type": ("BEGIN: { v = length(1); }",
                    "statement 1 (BEGIN): length needs a list, got int"),
    "d-bool": ('BEGIN: { import(probe); printf("%d", call(probe.yes)); }',
               "statement 1 (BEGIN): %d needs an integer, got bool"),
    "min-bool": ("BEGIN: { import(probe); v = min([call(probe.yes)]); }",
                 "statement 1 (BEGIN): min needs a list of integers, found bool"),
    "index-bool": ("BEGIN: { import(probe); l = [1]; v = l[call(probe.yes)]; }",
                   "statement 1 (BEGIN): list index must be an integer, got bool"),
}


@pytest.mark.parametrize("kind", SCRIPT_ERRORS)
def test_each_script_error_gives_its_exact_message(clocked_wave, kind):
    source, message = SCRIPT_ERRORS[kind]
    modules = {**default_native_modules(),
               "probe": {"none": lambda args: None, "yes": lambda args: True}}
    with raises_exactly(RunFailure, message):
        execute(parse_source(source), clocked_wave, out=io.StringIO(), modules=modules)


def test_a_defined_logic_value_prints_and_subscripts_as_an_integer(clocked_wave):
    # top.counter reads 3 at index 6, as arithmetic and decode read it
    out, _ = run_script('BEGIN: { l = [10, 11, 12, 13]; }\n'
                        'INDEX == 6: { printf("%d %d", top.counter, l[top.counter]); }',
                        clocked_wave)
    assert out == "3 13"
