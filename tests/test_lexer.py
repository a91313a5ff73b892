import pytest

from conftest import raises_exactly
from wawk.errors import WawkSyntaxError
from wawk.lexer import tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)]


def illegal_at(source):
    with pytest.raises(WawkSyntaxError) as exc:
        tokenize(source)
    return str(exc.value)


class TestBasics:
    def test_comment_only_is_empty(self):
        assert tokenize("// comment") == []

    def test_whitespace_only_is_empty(self):
        assert tokenize(" \t\n  \n") == []

    def test_statement_head_tokens(self):
        toks = tokenize("clk, fire: { start = INDEX; }")
        assert [(t.kind, t.text) for t in toks] == [
            ("IDENT", "clk"), (",", ","), ("IDENT", "fire"), (":", ":"),
            ("{", "{"), ("IDENT", "start"), ("=", "="), ("INDEX", "INDEX"),
            (";", ";"), ("}", "}"),
        ]
        assert len(toks) == 10

    def test_comments_run_to_end_of_line(self):
        assert texts("a // b c d\ne") == ["a", "e"]

    def test_dotted_name_is_one_token(self):
        toks = tokenize("TOP.servant_sim.dut.cpu.clk")
        assert len(toks) == 1
        assert toks[0].kind == "IDENT"
        assert toks[0].text == "TOP.servant_sim.dut.cpu.clk"

    def test_int_literal(self):
        tok = tokenize("042")[0]
        assert tok.kind == "INT"
        assert tok.value == 42

    def test_two_char_operators(self):
        assert kinds("== != <= >= && ||") == ["==", "!=", "<=", ">=", "&&", "||"]

    def test_one_char_operators(self):
        assert kinds("+-*/<>!@=:,;{}()[]") == list("+-*/<>!@=:,;{}()[]")

    def test_positions(self):
        a, b = tokenize("ab\n  cd")
        assert (a.line, a.col) == (1, 1)
        assert (b.line, b.col) == (2, 3)

    def test_positions_after_blank_lines_and_comments(self):
        toks = tokenize("a\n\n  b // c\n\r\n\t\"d\" e")
        assert [(t.text, t.line, t.col) for t in toks] == [
            ("a", 1, 1), ("b", 3, 3), ("d", 5, 2), ("e", 5, 6),
        ]


class TestKeywords:
    def test_keywords_get_their_own_kind(self):
        assert kinds("BEGIN END if else INDEX") == ["BEGIN", "END", "if", "else", "INDEX"]

    def test_keywords_are_case_sensitive(self):
        assert kinds("begin End index") == ["IDENT", "IDENT", "IDENT"]

    def test_reserved_words(self):
        for word in ("when", "groups", "reval", "step", "load", "map", "mapa", "function"):
            toks = tokenize(word)
            assert toks[0].kind == "RESERVED", word

    def test_hyphenated_reserved_words_join(self):
        for word in ("in-group", "in-groups", "resolve-group"):
            toks = tokenize(word)
            assert [(t.kind, t.text) for t in toks] == [("RESERVED", word)]

    def test_hyphen_join_backtracks(self):
        # "in-dex" is not reserved: "in" minus "dex"
        toks = tokenize("in-dex")
        assert [(t.kind, t.text) for t in toks] == [
            ("IDENT", "in"), ("-", "-"), ("IDENT", "dex"),
        ]

    def test_subtraction_of_identifiers_unaffected(self):
        assert kinds("a-b") == ["IDENT", "-", "IDENT"]


class TestStrings:
    def test_plain(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind == "STRING"
        assert tok.value == "hello"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc\\d\"e"')[0].value == 'a\nb\tc\\d"e'

    def test_unterminated(self):
        with raises_exactly(WawkSyntaxError, "1:1: unterminated string literal"):
            tokenize('"abc')

    def test_newline_inside_string(self):
        with raises_exactly(WawkSyntaxError, "1:1: unterminated string literal"):
            tokenize('"abc\ndef"')

    def test_unknown_escape(self):
        with pytest.raises(WawkSyntaxError, match=r"unsupported escape sequence '\\q'") as exc:
            tokenize(r'"a\qb"')
        assert (exc.value.line, exc.value.col) == (1, 4)
        with raises_exactly(WawkSyntaxError, "2:6: unsupported escape sequence '\\q'") as exc:
            tokenize('x\n  "a\\qb"')
        assert (exc.value.line, exc.value.col) == (2, 6)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_backslash_before_line_break(self, newline):
        # the string ends at its line, escaped or not
        with pytest.raises(WawkSyntaxError, match="^1:17: unterminated string literal$") as exc:
            tokenize('BEGIN: { printf("a\\' + newline + '"); }')
        assert (exc.value.line, exc.value.col) == (1, 17)


# (character, may start a name, may continue one): a name starts with a
# letter (str.isalpha()) or "_" and continues with letters, digits
# (str.isalnum()), "_" or "$"
@pytest.mark.parametrize("ch, starts, continues", [
    ("²", False, True), ("٣", False, True), ("½", False, True), ("Ⅻ", False, True),
    ("é", True, True), ("_", True, True), ("$", False, True),
    ("\xa0", False, False), ("\f", False, False),
])
class TestNameCharacters:
    def test_start_of_name(self, ch, starts, continues):
        if starts:
            assert texts(ch + "b") == [ch + "b"]
        else:
            assert illegal_at(ch + "b") == f"1:1: illegal character {ch!r}"

    def test_inside_name(self, ch, starts, continues):
        if continues:
            assert texts("a" + ch + "b") == ["a" + ch + "b"]
        else:
            assert illegal_at("a" + ch + "b") == f"1:2: illegal character {ch!r}"

    def test_after_dot(self, ch, starts, continues):
        if starts:
            assert texts("a." + ch + "b") == ["a." + ch + "b"]
        else:
            assert illegal_at("a." + ch + "b") == "1:2: illegal character '.'"


class TestErrors:
    def test_illegal_character(self):
        with raises_exactly(WawkSyntaxError, "1:3: illegal character '~'") as exc:
            tokenize("a ~ b")
        assert exc.value.line == 1
        assert exc.value.col == 3

    def test_integer_literal_past_the_str_digit_limit(self):
        # int() refuses more digits than sys.get_int_max_str_digits()
        with raises_exactly(WawkSyntaxError, "1:5: integer literal of 5000 "
                                             "digits is too long") as exc:
            tokenize("a = " + "9" * 5000)
        assert (exc.value.line, exc.value.col) == (1, 5)

    def test_single_ampersand(self):
        with raises_exactly(WawkSyntaxError, "1:3: illegal character '&'"):
            tokenize("a & b")

    def test_single_pipe(self):
        with raises_exactly(WawkSyntaxError, "1:3: illegal character '|'"):
            tokenize("a | b")
