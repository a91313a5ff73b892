import io
import random

import pytest

from conftest import NESTINGS, make_waveform, nested_script, nested_statement, raises_exactly
from printer import to_source
from wawk import ast
from wawk.cli import bundled_script
from wawk.errors import WawkSyntaxError
from wawk import interp
from wawk.interp import execute
from wawk.parser import MAX_DEPTH, parse_source


def first_body(source):
    return parse_source("BEGIN: { " + source + " }").statements[0].body


def expr_of(source):
    (stmt,) = first_body(source + ";")
    assert isinstance(stmt, ast.ExprStmt)
    return stmt.expr


class TestTriggers:
    def test_begin_end(self):
        program = parse_source("BEGIN: { }\nEND: { }")
        assert isinstance(program.statements[0].trigger, ast.Begin)
        assert isinstance(program.statements[1].trigger, ast.End)

    def test_condition_list(self):
        program = parse_source("clk, !fire, fire@2: { }")
        trigger = program.statements[0].trigger
        assert isinstance(trigger, ast.Conditions)
        assert trigger.exprs == (
            ast.Ident("clk"),
            ast.Unary("!", ast.Ident("fire")),
            ast.OffsetRef(ast.Ident("fire"), 2),
        )

    def test_statement_lines(self):
        program = parse_source("BEGIN: { }\n\nclk: { }")
        assert program.statements[0].line == 1
        assert program.statements[1].line == 3


class TestStatements:
    def test_assignment(self):
        (stmt,) = first_body("start = INDEX;")
        assert stmt == ast.Assign("start", ast.CurrentIndex())

    def test_expression_statement(self):
        (stmt,) = first_body("printf(\"hi\");")
        assert stmt == ast.ExprStmt(ast.Call("printf", (ast.StrLit("hi"),)))

    def test_stray_semicolons_ignored(self):
        assert first_body("; ; a = 1; ;") == (ast.Assign("a", ast.IntLit(1)),)

    def test_if_with_blocks(self):
        (stmt,) = first_body("if (a) { b = 1; } else { b = 2; }")
        assert stmt == ast.If(
            ast.Ident("a"),
            (ast.Assign("b", ast.IntLit(1)),),
            (ast.Assign("b", ast.IntLit(2)),),
        )

    def test_if_single_statement_bodies(self):
        (stmt,) = first_body("if (a) b = 1; else b = 2;")
        assert stmt.then == (ast.Assign("b", ast.IntLit(1)),)
        assert stmt.orelse == (ast.Assign("b", ast.IntLit(2)),)

    def test_if_without_else(self):
        (stmt,) = first_body("if (a) { b = 1; }")
        assert stmt.orelse == ()

    def test_dangling_else_binds_to_nearest_if(self):
        (outer,) = first_body("if (a) if (b) x = 1; else x = 2;")
        assert outer.orelse == ()
        inner = outer.then[0]
        assert inner.orelse == (ast.Assign("x", ast.IntLit(2)),)

    def test_block_if_followed_by_semicolon(self):
        stmts = first_body("if (a) { b = 1; }; c = 2;")
        assert len(stmts) == 2

    def test_cannot_assign_to_signal_name(self):
        with raises_exactly(WawkSyntaxError, "1:10: cannot assign to a hierarchical signal name, "
                                             "found 'top.clk'"):
            first_body("top.clk = 1;")

    def test_cannot_assign_to_index(self):
        with raises_exactly(WawkSyntaxError, "1:10: cannot assign to INDEX, found 'INDEX'"):
            first_body("INDEX = 1;")

    def test_no_assignment_chaining(self):
        with raises_exactly(WawkSyntaxError, "1:16: expected ';' after assignment, found '='"):
            first_body("a = b = 1;")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        assert expr_of("1 + 2 * 3") == ast.Binary(
            "+", ast.IntLit(1), ast.Binary("*", ast.IntLit(2), ast.IntLit(3))
        )

    def test_precedence_add_over_comparison(self):
        assert expr_of("a + 1 == b") == ast.Binary(
            "==", ast.Binary("+", ast.Ident("a"), ast.IntLit(1)), ast.Ident("b")
        )

    def test_precedence_comparison_over_and_over_or(self):
        expr = expr_of("a || b && c == d")
        assert expr.op == "||"
        assert expr.right.op == "&&"
        assert expr.right.right.op == "=="

    def test_left_associativity(self):
        assert expr_of("10 - 4 - 3") == ast.Binary(
            "-", ast.Binary("-", ast.IntLit(10), ast.IntLit(4)), ast.IntLit(3)
        )

    def test_parentheses_override(self):
        assert expr_of("(1 + 2) * 3") == ast.Binary(
            "*", ast.Binary("+", ast.IntLit(1), ast.IntLit(2)), ast.IntLit(3)
        )

    def test_unary_binds_tighter_than_binary(self):
        assert expr_of("!a && b") == ast.Binary(
            "&&", ast.Unary("!", ast.Ident("a")), ast.Ident("b")
        )

    def test_offset_ref(self):
        assert expr_of("fire@2") == ast.OffsetRef(ast.Ident("fire"), 2)
        assert expr_of("fire@-2") == ast.OffsetRef(ast.Ident("fire"), -2)
        assert expr_of("fire@+3") == ast.OffsetRef(ast.Ident("fire"), 3)

    def test_offset_of_dotted_name(self):
        assert expr_of("a.b.c@1") == ast.OffsetRef(ast.Ident("a.b.c"), 1)

    def test_offset_needs_integer(self):
        with raises_exactly(WawkSyntaxError, "1:15: expected 'INT' as '@' offset, found 'x'"):
            expr_of("fire@x")

    def test_offset_needs_name_on_left(self):
        with raises_exactly(WawkSyntaxError, "1:18: left side of '@' must be a "
                                             "signal name, found '2'"):
            expr_of("(a + b)@2")

    def test_subscript(self):
        assert expr_of("args[0]") == ast.Subscript(ast.Ident("args"), ast.IntLit(0))

    def test_chained_subscript(self):
        assert expr_of("m[0][1]") == ast.Subscript(
            ast.Subscript(ast.Ident("m"), ast.IntLit(0)), ast.IntLit(1)
        )

    def test_call(self):
        assert expr_of("min(cpis)") == ast.Call("min", (ast.Ident("cpis"),))

    def test_call_with_dotted_name_argument(self):
        assert expr_of("call(extern.decode, instruction)") == ast.Call(
            "call", (ast.Ident("extern.decode"), ast.Ident("instruction"))
        )

    def test_only_names_are_callable(self):
        with raises_exactly(WawkSyntaxError, "1:17: only a named function can "
                                             "be called, found '('"):
            expr_of("args[0](1)")

    def test_list_literal(self):
        assert expr_of("[]") == ast.ListLit(())
        assert expr_of("[1, 2, 3]") == ast.ListLit(
            (ast.IntLit(1), ast.IntLit(2), ast.IntLit(3))
        )

    def test_unary_minus(self):
        assert expr_of("-x") == ast.Unary("-", ast.Ident("x"))


class TestErrors:
    def test_reserved_word_reports_reserved(self):
        with raises_exactly(WawkSyntaxError, "1:10: 'when' is reserved and not supported here"):
            parse_source("BEGIN: { when = 1; }")

    def test_hyphenated_reserved_word(self):
        with raises_exactly(WawkSyntaxError, "1:3: 'in-group' is reserved and not supported here"):
            parse_source("a in-group b: { }")

    def test_missing_colon(self):
        with raises_exactly(WawkSyntaxError, "1:5: expected ':' after statement "
                                             "trigger, found '{'"):
            parse_source("clk { }")

    def test_missing_semicolon(self):
        with raises_exactly(WawkSyntaxError, "1:16: expected ';' after assignment, found '}'"):
            parse_source("BEGIN: { a = 1 }")

    def test_unclosed_block(self):
        with raises_exactly(WawkSyntaxError, "1:16: expected '}' to close an "
                                             "action block, found 'end of input'"):
            parse_source("BEGIN: { a = 1;")

    def test_error_has_position(self):
        with raises_exactly(WawkSyntaxError, "1:14: expected an expression, found ';'") as exc:
            parse_source("BEGIN: { a = ; }")
        assert exc.value.line == 1
        assert exc.value.col == 14

    @pytest.mark.parametrize("source", ['BEGIN: { x = "abcdefgh"', r'BEGIN: { x = "\t\t\t\t"'])
    def test_end_of_input_after_a_string_is_past_its_closing_quote(self, source):
        assert len(source) == 23
        with pytest.raises(WawkSyntaxError, match="^1:24: expected ';' after assignment, "
                                                  "found 'end of input'$"):
            parse_source(source)


class TestDepthLimit:
    def test_max_depth_parses_runs_and_prints(self):
        program = parse_source(nested_script(MAX_DEPTH))
        out = io.StringIO()
        execute(program, make_waveform(0, {}), out=out)
        assert out.getvalue() == "1 1 1 0 1 1 1 1\n"
        assert to_source(program).startswith("BEGIN: {")

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_one_level_deeper_is_a_located_syntax_error(self, kind):
        # past the limit the parser used to die with RecursionError
        parse_source("BEGIN: {\n" + nested_statement(kind, MAX_DEPTH) + "\n}")
        with pytest.raises(WawkSyntaxError,
                           match=f"^2:\\d+: nesting deeper than {MAX_DEPTH} levels$") as exc:
            parse_source("BEGIN: {\n" + nested_statement(kind, MAX_DEPTH + 1) + "\n}")
        assert exc.value.line == 2
        assert exc.value.col > 1

    @pytest.mark.parametrize("link", [" + 1", " && 1", "[0]"])
    def test_a_chain_nests_one_level_per_link(self, link):
        # a 600-term chain used to parse and then end in RecursionError
        deepest = "BEGIN: { v = 1" + link * MAX_DEPTH
        parse_source(deepest + "; }")
        with pytest.raises(WawkSyntaxError,
                           match=f"^1:\\d+: nesting deeper than {MAX_DEPTH} levels$") as exc:
            parse_source(deepest + link + "; }")
        assert exc.value.col == len(deepest) + len(link) - len(link.lstrip()) + 1

    def test_links_after_a_group_count_above_it(self):
        # each group is the left operand of 30 more operators, so the tree
        # is 900 levels deep although no token sits inside more than 60
        # open parentheses and operators; the interpreter would overflow
        # the stack on it
        source = "1"
        for _ in range(30):
            source = "(" + source + ")" + " + 1" * 30
        with pytest.raises(WawkSyntaxError,
                           match=f"^1:\\d+: nesting deeper than {MAX_DEPTH} levels$"):
            parse_source("BEGIN: { v = " + source + "; }")


class TestRoundTrip:
    SAMPLES = [
        "BEGIN: { }",
        "clk, !fire, fire@2, op == args[0]: { cpis = cpis + ((INDEX - start) / 2); }",
        'END: { if (cpis) { printf("%s: %d\\n", args[0], average(cpis)); }; }',
        "a@-3 || b && !c, x * (y + 2) / z != 0: { m = [1, [2, 3], \"s\"]; }",
        "if_less: { v = m[i][j] - -k; }",
        # the first two nested too deep when every operator was printed in
        # parentheses; the third is a chain at the limit
        "BEGIN: { v = " + "-" * 40 + "1; }",
        "BEGIN: { v = " + "-" * 32 + "1" + " + 1" * 32 + "; }",
        "BEGIN: { v = 1" + " + 1" * MAX_DEPTH + "; }",
    ]

    def test_prints_only_the_parentheses_precedence_needs(self):
        printed = to_source(parse_source(bundled_script("cpi")))
        assert "\n  cpis = cpis + (INDEX - start) / 2;\n" in printed
        for source, expected in [
            ("(a - b) - (c - d)", "a - b - (c - d)"),
            ("(a || b) && !(c == d) * -(e)", "(a || b) && !(c == d) * -e"),
            ("-(-x)[0] + ((y))[(1)]", "-(-x)[0] + y[1]"),
        ]:
            assert to_source(parse_source(f"{source}: {{ }}")) == f"{expected}: {{ }}\n"

    @pytest.mark.parametrize("source", SAMPLES)
    def test_print_then_reparse_is_identity(self, source):
        tree = parse_source(source)
        assert parse_source(to_source(tree)) == tree

    def test_random_trees_round_trip(self):
        rng = random.Random(1234)
        for _ in range(200):
            tree = _random_program(rng)
            printed = to_source(tree)
            assert parse_source(printed) == tree, printed


NODE_CLASSES = [v for v in vars(ast).values()
                if isinstance(v, type) and issubclass(v, ast.Node) and v is not ast.Node]


def _filled(cls, value="x"):
    """A `cls` node with every field set to `value`."""
    return cls(*[value] * len(cls._fields))


class TestNodes:
    def test_equality_is_exact_by_class_and_never_with_a_plain_tuple(self):
        for cls in NODE_CLASSES:
            node = _filled(cls)
            assert node == _filled(cls) and not node != _filled(cls)
            assert node != tuple(node) and tuple(node) != node
            assert not node == tuple(node)
            for other in NODE_CLASSES:
                if other is not cls:
                    assert node != _filled(other) and not node == _filled(other)
        assert ast.Ident("a") != ast.StrLit("a") != ("a",)
        assert ast.Begin() != ast.End() != ast.CurrentIndex() != ()
        assert ast.Unary("-", ast.Ident("a")) != ast.Unary("-", ast.StrLit("a"))

    def test_hashes_follow_equality(self):
        nodes = {_filled(cls): cls for cls in NODE_CLASSES}
        assert len(nodes) == len(NODE_CLASSES)
        for cls in NODE_CLASSES:
            assert nodes[_filled(cls)] is cls
            assert hash(_filled(cls, 7)) == hash(_filled(cls, 7))
            assert tuple(_filled(cls)) not in nodes
        source = bundled_script("cpi")
        assert hash(parse_source(source)) == hash(parse_source(source))

    def test_a_statement_compares_and_hashes_without_its_line(self):
        one, seven = (ast.Statement(ast.Begin(), (), line) for line in (1, 7))
        assert one == seven and not one != seven and hash(one) == hash(seven)
        assert ast.Statement(ast.Begin(), ()).line == 0
        assert one != ast.Statement(ast.End(), (), 1)
        assert one != ast.Statement(ast.Begin(), (ast.ExprStmt(ast.IntLit(1)),), 1)
        spaced = parse_source("\n\nBEGIN: { }\n\nEND: { }")
        assert [s.line for s in spaced.statements] == [3, 5]
        assert spaced == parse_source("BEGIN: { }\nEND: { }")
        assert hash(spaced) == hash(parse_source("BEGIN: { }\nEND: { }"))

    def test_every_node_is_truthy(self):
        assert ast.Begin() and ast.End() and ast.CurrentIndex()
        assert ast.ListLit(()) and ast.Conditions(()) and ast.Program(())

    def test_a_node_cannot_be_changed(self):
        for cls in NODE_CLASSES:
            node = _filled(cls)
            for name in cls._fields + ("other",):
                with pytest.raises(AttributeError):
                    setattr(node, name, "y")
            assert node == _filled(cls)

    def test_repr_names_the_class_and_its_fields(self):
        node = ast.Binary("+", ast.IntLit(1), ast.Call("f", (ast.Ident("x"),)))
        assert repr(node) == ("Binary(op='+', left=IntLit(value=1), "
                              "right=Call(func='f', args=(Ident(name='x'),)))")
        assert repr(ast.Begin()) == "Begin()"
        assert repr(ast.Statement(ast.End(), (), 4)) == "Statement(trigger=End(), body=(), line=4)"

    def test_every_node_kind_prints_and_is_walked(self):
        source = ('BEGIN: { }\n'
                  'a@-1, !b, c[0] + INDEX * 2: {\n'
                  '  x = [1, "s"]; f(x); if (x) { y = 1; } else { y = 2; };\n'
                  '}\n'
                  'END: { }')
        program = parse_source(source)
        walked = list(interp._walk(program))
        assert {node.__class__ for node in walked} == set(NODE_CLASSES)
        assert len(walked) == 31
        assert to_source(program) == (
            'BEGIN: { }\n\n'
            'a@-1, !b, c[0] + INDEX * 2: {\n'
            '  x = [1, "s"];\n'
            '  f(x);\n'
            '  if (x) {\n'
            '    y = 1;\n'
            '  } else {\n'
            '    y = 2;\n'
            '  };\n'
            '}\n\n'
            'END: { }\n')


def _random_expr(rng, depth):
    choices = ["int", "str", "ident", "index"]
    if depth > 0:
        choices += ["unary", "binary", "offset", "subscript", "call", "list"]
    kind = rng.choice(choices)
    if kind == "int":
        return ast.IntLit(rng.randrange(0, 1000))
    if kind == "str":
        return ast.StrLit(rng.choice(["", "a b", "%d\n", 'q"q', "\\", "\t"]))
    if kind == "ident":
        return ast.Ident(rng.choice(["x", "y2", "fire", "a.b.c", "_v"]))
    if kind == "index":
        return ast.CurrentIndex()
    if kind == "unary":
        return ast.Unary(rng.choice("!-"), _random_expr(rng, depth - 1))
    if kind == "binary":
        op = rng.choice(["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "&&", "||"])
        return ast.Binary(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "offset":
        return ast.OffsetRef(ast.Ident(rng.choice(["s", "t.u"])), rng.randrange(-4, 5))
    if kind == "subscript":
        return ast.Subscript(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "call":
        args = tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(0, 3)))
        return ast.Call(rng.choice(["min", "printf", "f"]), args)
    return ast.ListLit(tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(0, 3))))


def _random_stmt(rng, depth):
    kind = rng.choice(["assign", "expr", "if"] if depth > 0 else ["assign", "expr"])
    if kind == "assign":
        return ast.Assign(rng.choice(["a", "b_1"]), _random_expr(rng, depth))
    if kind == "expr":
        return ast.ExprStmt(_random_expr(rng, depth))
    then = tuple(_random_stmt(rng, depth - 1) for _ in range(rng.randrange(0, 3)))
    orelse = tuple(_random_stmt(rng, depth - 1) for _ in range(rng.randrange(0, 2)))
    return ast.If(_random_expr(rng, depth - 1), then, orelse)


def _random_program(rng):
    statements = []
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.2:
            trigger = ast.Begin()
        elif roll < 0.4:
            trigger = ast.End()
        else:
            exprs = tuple(_random_expr(rng, 2) for _ in range(rng.randrange(1, 4)))
            trigger = ast.Conditions(exprs)
        body = tuple(_random_stmt(rng, 2) for _ in range(rng.randrange(0, 4)))
        statements.append(ast.Statement(trigger, body))
    return ast.Program(tuple(statements))
