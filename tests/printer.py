"""Source printer for syntax trees: the text that parses back to the same
tree, for round-trip tests and readable assertion messages.

It prints only the parentheses `PRECEDENCE` needs, so its output nests no
deeper than the tree, and `parse_source(to_source(p)) == p` holds for every
tree the parser builds.
"""

from wawk.ast import (
    PRECEDENCE,
    Assign,
    Begin,
    Binary,
    Call,
    Conditions,
    CurrentIndex,
    End,
    ExprStmt,
    Ident,
    If,
    IntLit,
    ListLit,
    OffsetRef,
    Program,
    StrLit,
    Subscript,
    Unary,
)

# '!' and '-' bind tighter than every binary operator
_UNARY = max(PRECEDENCE.values()) + 1

_ESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", "\\": "\\\\", '"': '\\"'}


def _quote(text: str) -> str:
    return '"' + "".join(_ESCAPES.get(ch, ch) for ch in text) + '"'


def _expr(node, level: int = 0) -> str:
    """`node` as source, in parentheses only when it binds looser than
    `level`."""
    match node:
        case IntLit(value=v):
            return str(v)
        case StrLit(value=v):
            return _quote(v)
        case ListLit(items=items):
            return "[" + ", ".join(_expr(e) for e in items) + "]"
        case Ident(name=name):
            return name
        case CurrentIndex():
            return "INDEX"
        case OffsetRef(signal=sig, offset=k):
            return f"{sig.name}@{k}" if k >= 0 else f"{sig.name}@-{-k}"
        case Unary(op=op, operand=operand):
            text = op + _expr(operand, _UNARY)
            return f"({text})" if level > _UNARY else text
        case Binary(op=op, left=left, right=right):
            prec = PRECEDENCE[op]
            text = f"{_expr(left, prec)} {op} {_expr(right, prec + 1)}"
            return f"({text})" if level > prec else text
        case Subscript(base=base, index=index):
            return f"{_expr(base, _UNARY + 1)}[{_expr(index)}]"
        case Call(func=func, args=args):
            return f"{func}(" + ", ".join(_expr(a) for a in args) + ")"
    raise TypeError(f"not an expression node: {node!r}")


def _stmt(node, depth: int) -> str:
    pad = "  " * depth
    match node:
        case Assign(name=name, value=value):
            return f"{pad}{name} = {_expr(value)};"
        case ExprStmt(expr=expr):
            return f"{pad}{_expr(expr)};"
        case If(cond=cond, then=then, orelse=orelse):
            text = f"{pad}if ({_expr(cond)}) {_block(then, depth)}"
            if orelse:
                text += f" else {_block(orelse, depth)}"
            return text + ";"
    raise TypeError(f"not a statement node: {node!r}")


def _block(body: tuple, depth: int) -> str:
    if not body:
        return "{ }"
    inner = "\n".join(_stmt(s, depth + 1) for s in body)
    return "{\n" + inner + "\n" + "  " * depth + "}"


def to_source(program: Program) -> str:
    chunks = []
    for stmt in program.statements:
        match stmt.trigger:
            case Begin():
                head = "BEGIN"
            case End():
                head = "END"
            case Conditions(exprs=exprs):
                head = ", ".join(_expr(e) for e in exprs)
            case other:
                raise TypeError(f"not a trigger node: {other!r}")
        chunks.append(f"{head}: {_block(stmt.body, 0)}")
    return "\n\n".join(chunks) + "\n"
