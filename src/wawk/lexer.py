r"""Tokenizer for analysis scripts.

Token kinds are the literal text of operators and punctuation and of the
keywords BEGIN, END, if, else and INDEX, or one of IDENT / INT / STRING /
RESERVED. Lexical rules:

- Spaces, tabs, CR and LF separate tokens, and `//` comments run to the
  end of the line; any other character that starts no token is illegal.
- A name starts with a letter (str.isalpha()) or `_` and continues with
  letters, digits (str.isalnum()), `_` or `$`. Dotted parts, each started
  the same way, make one hierarchical IDENT such as `TOP.cpu.clk`.
- An INT is ASCII digits. A string is double-quoted, takes the escapes
  `\n \t \r \\ \" \'` and ends at its line: a line break, or a backslash
  before one, leaves it unterminated.
- A few words of the wider WAL language lex as RESERVED, so the parser
  rejects them with a clear message; that includes the hyphenated group
  operators, which would otherwise lex as subtraction.

One token table, _TOKEN, and one loop do all of this. Python's `\w` is
exactly str.isalnum() plus `_`, so `[\w$]` gives the name characters, but
no regex class is str.isalpha(): `[^\W\d]` also admits `²`, `½` or `Ⅻ`
(numeric, but not Nd). So the loop checks the first character of each
dotted part and reports a bad one as an illegal character: at the name's
start, or at the `.` before a later part.
"""

import re
from collections import namedtuple

from .errors import WawkSyntaxError

KEYWORDS = frozenset({"BEGIN", "END", "if", "else", "INDEX"})

RESERVED_WORDS = frozenset(
    {"when", "groups", "reval", "step", "load", "map", "mapa", "function"}
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'"}

# One named group per token class, tried in this order. STRING matches up
# to its closing quote; when `closed` is missing, the character the match
# stopped at says what went wrong.
_TOKEN = re.compile(
    r"""
      (?P<skip> [ \t\r\n]+ | //[^\n]* )
    | (?P<RESERVED> (?: in-groups? | resolve-group ) (?![\w$]) )
    | (?P<NAME> [^\W\d][\w$]* (?: \.[^\W\d][\w$]* )* )
    | (?P<INT> [0-9]+ )
    | (?P<STRING> " (?: [^"\\\n] | \\[nrt\\"'] )* (?P<closed>")? )
    | (?P<op> == | != | <= | >= | && | \|\| | [-+*/<>!@=:,;{}()\[\]] )
    """,
    re.VERBOSE,
)


# value is the decoded payload for INT and STRING; width is the length of
# the source text, quotes and escapes included
Token = namedtuple("Token", "kind text line col value width", defaults=(None, 0))


def tokenize(source: str) -> list[Token]:
    out: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        bad = pos if m is None else None
        if m and m.lastgroup == "NAME":
            at = pos
            for part in m.group().split("."):
                if not (part[0].isalpha() or part[0] == "_"):
                    bad = at if at == pos else at - 1  # the name, or its "."
                    break
                at += len(part) + 1
        if bad is not None:
            raise WawkSyntaxError(f"illegal character {source[bad]!r}", line, bad - line_start + 1)
        kind, text, value = m.lastgroup, m.group(), None
        col, end = pos - line_start + 1, m.end()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
        elif kind == "NAME":
            kind = text if text in KEYWORDS else "RESERVED" if text in RESERVED_WORDS else "IDENT"
        elif kind == "INT":
            try:
                value = int(text)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise WawkSyntaxError(
                    f"integer literal of {len(text)} digits is too long", line, col
                ) from None
        elif kind == "STRING":
            if m["closed"] is None:
                # stopped at the end, a line break, or a backslash before
                # one of those or before an unsupported escape
                esc = source[end + 1 : end + 2] if source.startswith("\\", end) else ""
                if esc in ("", "\n") or source.startswith("\r\n", end + 1):
                    raise WawkSyntaxError("unterminated string literal", line, col)
                raise WawkSyntaxError(
                    f"unsupported escape sequence '\\{esc}'", line, end + 2 - line_start
                )
            text = value = re.sub(r"\\(.)", lambda e: _ESCAPES[e[1]], text[1:-1])
        elif kind == "op":
            kind = text
        if kind != "skip":
            out.append(Token(kind, text, line, col, value, end - pos))
        pos = end
    return out
