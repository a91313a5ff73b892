"""Tokenizer for analysis scripts.

Token kinds are the literal operator/punctuation text for fixed tokens,
or one of IDENT / INT / STRING / RESERVED. Keywords (BEGIN, END, if,
else, INDEX) use the keyword text as the kind. Dotted hierarchical names
lex as a single IDENT token.

A handful of words from the wider WAL language are recognized and
reported as RESERVED so scripts using them fail with a clear message
instead of a confusing parse error; that includes the hyphenated group
operators, which would otherwise silently lex as subtraction.
"""

from dataclasses import dataclass

from .errors import IllegalCharacterError, UnterminatedStringError

KEYWORDS = frozenset({"BEGIN", "END", "if", "else", "INDEX"})

RESERVED_WORDS = frozenset(
    {"when", "groups", "reval", "step", "load", "map", "mapa", "function"}
)
_HYPHEN_JOINED = frozenset({"in-group", "in-groups", "resolve-group"})
_HYPHEN_HEADS = frozenset(w.split("-", 1)[0] for w in _HYPHEN_JOINED)

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||")
_ONE_CHAR = frozenset("+-*/<>!@=:,;{}()[]")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'"}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int
    value: object = None  # decoded payload for INT and STRING


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit() also accepts '²', which int() rejects
    return "0" <= ch <= "9"


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def at_end(self) -> bool:
        return self.pos >= len(self.src)

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def advance(self) -> str:
        ch = self.src[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def match(self, text: str) -> bool:
        if self.src.startswith(text, self.pos):
            for _ in text:
                self.advance()
            return True
        return False


def tokenize(source: str) -> list[Token]:
    sc = _Scanner(source)
    out: list[Token] = []
    while not sc.at_end():
        ch = sc.peek()
        if ch in " \t\r\n":
            sc.advance()
            continue
        if sc.src.startswith("//", sc.pos):
            while not sc.at_end() and sc.peek() != "\n":
                sc.advance()
            continue
        line, col = sc.line, sc.col
        if _is_ident_start(ch):
            out.append(_scan_word(sc, line, col))
            continue
        if _is_digit(ch):
            start = sc.pos
            while _is_digit(sc.peek()):
                sc.advance()
            text = sc.src[start : sc.pos]
            try:
                value = int(text)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise IllegalCharacterError(
                    f"integer literal of {len(text)} digits is too long", line, col
                ) from None
            out.append(Token("INT", text, line, col, value))
            continue
        if ch == '"':
            out.append(_scan_string(sc, line, col))
            continue
        matched = False
        for op in _TWO_CHAR_OPS:
            if sc.match(op):
                out.append(Token(op, op, line, col))
                matched = True
                break
        if matched:
            continue
        if ch in _ONE_CHAR:
            sc.advance()
            out.append(Token(ch, ch, line, col))
            continue
        raise IllegalCharacterError(f"illegal character {ch!r}", line, col)
    return out


def _scan_word(sc: _Scanner, line: int, col: int) -> Token:
    start = sc.pos
    sc.advance()
    while not sc.at_end() and _is_ident_char(sc.peek()):
        sc.advance()
    # dotted hierarchical name: a.b.c is one identifier
    while sc.peek() == "." and sc.pos + 1 < len(sc.src) and _is_ident_start(sc.src[sc.pos + 1]):
        sc.advance()
        while not sc.at_end() and _is_ident_char(sc.peek()):
            sc.advance()
    text = sc.src[start : sc.pos]
    if text in _HYPHEN_HEADS and sc.peek() == "-":
        # try to join e.g. "in" "-" "group" into the reserved word
        probe = sc.pos + 1
        end = probe
        while end < len(sc.src) and _is_ident_char(sc.src[end]):
            end += 1
        joined = text + "-" + sc.src[probe:end]
        if joined in _HYPHEN_JOINED:
            while sc.pos < end:
                sc.advance()
            return Token("RESERVED", joined, line, col)
    if text in KEYWORDS:
        return Token(text, text, line, col)
    if text in RESERVED_WORDS:
        return Token("RESERVED", text, line, col)
    return Token("IDENT", text, line, col)


def _scan_string(sc: _Scanner, line: int, col: int) -> Token:
    sc.advance()  # opening quote
    chunks: list[str] = []
    while True:
        if sc.at_end() or sc.peek() == "\n":
            raise UnterminatedStringError("unterminated string literal", line, col)
        ch = sc.advance()
        if ch == '"':
            break
        if ch == "\\":
            if sc.at_end():
                raise UnterminatedStringError("unterminated string literal", line, col)
            esc_line, esc_col = sc.line, sc.col
            esc = sc.advance()
            if esc not in _ESCAPES:
                raise IllegalCharacterError(
                    f"unsupported escape sequence '\\{esc}'", esc_line, esc_col
                )
            chunks.append(_ESCAPES[esc])
        else:
            chunks.append(ch)
    text = "".join(chunks)
    return Token("STRING", text, line, col, text)
