"""Recursive-descent parser for analysis scripts.

Script grammar, roughly:

    program    := statement*
    statement  := trigger ':' block
    trigger    := 'BEGIN' | 'END' | expr (',' expr)*
    block      := '{' stmt* '}'
    stmt       := 'if' '(' expr ')' body ('else' body)?
                | IDENT '=' expr ';'
                | expr ';'
                | ';'
    body       := block | stmt

Binary operators bind as ast.PRECEDENCE says and associate left; unary
'! -' binds tighter, and postfix ('@' offset, subscript, call) tighter
still. The '@' offset takes an optionally signed integer literal and its
left side must be a plain (possibly dotted) name. Assignment is a
statement, not an expression, and its target is a plain undotted name.

Nesting through parentheses, unary operators, binary operators,
subscripts, call arguments, list literals and if bodies is limited to
MAX_DEPTH levels, and each such level is parsed through one method,
`_Parser.nested`. A chain such as `a + b + c` or `m[i][j]` nests one
level per link: its tree is as deep as it is long.
"""

from . import ast
from .errors import WawkSyntaxError, quote
from .lexer import Token, tokenize

# The parser, the interpreter and the tests' source printer all recurse
# once or more per nesting level. A list literal costs the parser the most,
# six frames a level (nested, expr_list, expr, unary, postfix, primary):
# 395 above parse_source's caller at the limit. Without a limit, deep input
# exhausts Python's default 1000-frame stack, and 64 levels leave room for
# the caller's own frames, pytest's included.
MAX_DEPTH = 64

# The expressions one token makes, by the token's kind.
_LEAVES = {
    "INT": lambda tok: ast.IntLit(tok.value),
    "STRING": lambda tok: ast.StrLit(tok.value),
    "IDENT": lambda tok: ast.Ident(tok.text),
    "INDEX": lambda tok: ast.CurrentIndex(),
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        if tokens:
            last = tokens[-1]
            eof = Token("EOF", "", last.line, last.col + last.width)
        else:
            eof = Token("EOF", "", 1, 1)
        self.tokens = tokens + [eof]
        self.pos = 0
        self.depth = 0
        self.peak = 0  # the deepest level the tree being parsed reaches

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def check(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.check(kind):
            return self.advance()
        return None

    def expect(self, kind: str, context: str) -> Token:
        tok = self.peek()
        if tok.kind == kind:
            return self.advance()
        self.fail(f"expected {kind!r} {context}", tok)

    def nested(self, tok: Token, parse, *args):
        """Return `parse(*args)` one nesting level deeper, the level opened
        at `tok`. The level counts from the deepest one the tree built so
        far reaches, so each link of a chain such as `a + b + c` or
        `m[i][j]` adds one."""
        self.peak += 1
        if self.peak > MAX_DEPTH:
            raise WawkSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        self.depth += 1
        node = parse(*args)
        self.depth -= 1
        return node

    def fail(self, message: str, tok: Token):
        if tok.kind == "RESERVED":
            raise WawkSyntaxError(
                f"{quote(tok.text)} is reserved and not supported here", tok.line, tok.col
            )
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise WawkSyntaxError(f"{message}, found {quote(shown)}", tok.line, tok.col)

    # --- grammar ---

    def program(self) -> ast.Program:
        statements = []
        while not self.check("EOF"):
            statements.append(self.statement())
        return ast.Program(tuple(statements))

    def statement(self) -> ast.Statement:
        tok = self.peek()
        if self.accept("BEGIN"):
            trigger = ast.Begin()
        elif self.accept("END"):
            trigger = ast.End()
        else:
            trigger = ast.Conditions(self.expr_list())
        self.expect(":", "after statement trigger")
        body = self.block()
        return ast.Statement(trigger, body, line=tok.line)

    def block(self) -> tuple:
        self.expect("{", "to open an action block")
        stmts = []
        while not self.check("}"):
            if self.check("EOF"):
                self.fail("expected '}' to close an action block", self.peek())
            stmt = self.stmt()
            if stmt is not None:
                stmts.append(stmt)
        self.advance()
        return tuple(stmts)

    def stmt(self):
        if self.accept(";"):
            return None  # empty statement
        if self.accept("if"):
            return self.if_stmt()
        if self.check("IDENT") and self.tokens[self.pos + 1].kind == "=":
            name_tok = self.advance()
            if "." in name_tok.text:
                self.fail("cannot assign to a hierarchical signal name", name_tok)
            self.advance()  # '='
            value = self.expr()
            self.expect(";", "after assignment")
            return ast.Assign(name_tok.text, value)
        if self.check("INDEX") and self.tokens[self.pos + 1].kind == "=":
            self.fail("cannot assign to INDEX", self.peek())
        expr = self.expr()
        self.expect(";", "after expression statement")
        return ast.ExprStmt(expr)

    def if_stmt(self) -> ast.If:
        self.expect("(", "after 'if'")
        cond = self.expr()
        self.expect(")", "after if condition")
        then = self.body()
        orelse: tuple = ()
        if self.accept("else"):
            orelse = self.body()
        return ast.If(cond, then, orelse)

    def body(self) -> tuple:
        """A brace block, or a single statement treated as one."""
        self.peak = self.depth  # count from the if, not from its condition
        if self.check("{"):
            return self.nested(self.peek(), self.block)
        stmt = self.nested(self.peek(), self.stmt)
        return (stmt,) if stmt is not None else ()

    # --- expressions ---

    def expr(self, level: int = 0):
        """Precedence climbing over ast.PRECEDENCE: take every operator that
        binds at least as tightly as `level`; its right operand takes only
        tighter ones, so chains associate left."""
        # self.peak follows the deepest level this expression reaches; the
        # enclosing expression keeps the deeper of the two
        outer, self.peak = self.peak, self.depth
        node = self.unary()
        while (prec := ast.PRECEDENCE.get(self.peek().kind, -1)) >= level:
            tok = self.advance()
            node = ast.Binary(tok.kind, node, self.nested(tok, self.expr, prec + 1))
        self.peak = max(outer, self.peak)
        return node

    def expr_list(self, close: str | None = None) -> tuple:
        """Comma-separated expressions: one or more, or none before `close`."""
        items = [] if close is not None and self.check(close) else [self.expr()]
        while items and self.accept(","):
            items.append(self.expr())
        return tuple(items)

    def unary(self):
        if self.peek().kind in ("!", "-"):
            tok = self.advance()
            return ast.Unary(tok.kind, self.nested(tok, self.unary))
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            if self.accept("@"):
                node = self.offset_ref(node)
            elif self.check("["):
                node = ast.Subscript(node, self.nested(self.advance(), self.expr))
                self.expect("]", "after subscript")
            elif self.check("("):
                if not isinstance(node, ast.Ident):
                    self.fail("only a named function can be called", self.peek())
                node = ast.Call(node.name, self.nested(self.advance(), self.expr_list, ")"))
                self.expect(")", "after call arguments")
            else:
                return node

    def offset_ref(self, node) -> ast.OffsetRef:
        if not isinstance(node, ast.Ident):
            self.fail("left side of '@' must be a signal name", self.peek())
        sign = 1
        if self.accept("-"):
            sign = -1
        elif self.accept("+"):
            pass
        tok = self.expect("INT", "as '@' offset")
        return ast.OffsetRef(node, sign * tok.value)

    def primary(self):
        tok = self.peek()
        if tok.kind in _LEAVES:
            return _LEAVES[tok.kind](self.advance())
        if tok.kind == "[":
            node = ast.ListLit(self.nested(self.advance(), self.expr_list, "]"))
            self.expect("]", "after list literal")
        elif tok.kind == "(":
            node = self.nested(self.advance(), self.expr)
            self.expect(")", "after parenthesized expression")
        else:
            self.fail("expected an expression", tok)
        return node


def parse_program(tokens: list[Token]) -> ast.Program:
    return _Parser(tokens).program()


def parse_source(source: str) -> ast.Program:
    return parse_program(tokenize(source))
