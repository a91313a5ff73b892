"""Syntax tree for analysis scripts, plus a source printer.

A node is an immutable named tuple under the `Node` mixin, built by
`_node` in one line. Nodes compare structurally but exactly by class:
`Ident("a")` equals neither `StrLit("a")` nor the tuple `("a",)`, and
hashes follow equality. Source positions are carried for error messages
but left out of equality and hashing, so a printed-and-reparsed tree
equals the original. Every node is truthy, even one without fields.
"""

from collections import namedtuple

# How tightly each binary operator binds, loosest first; all associate
# left. The parser and the printer both read this table.
PRECEDENCE = {"||": 0, "&&": 1, "==": 2, "!=": 2, "<": 2, "<=": 2, ">": 2, ">=": 2,
              "+": 3, "-": 3, "*": 4, "/": 4}
_UNARY = 5  # '!' and '-' bind tighter than every binary operator


class Node:
    """Equality, hashing and truth for the node classes below. Only the
    first `_compared` fields count (None: all of them)."""

    __slots__ = ()
    _compared = None

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self[:self._compared] == other[:self._compared]

    def __ne__(self, other):  # tuple.__ne__ would come first otherwise
        return not self == other

    def __hash__(self):
        return hash((self.__class__, self[:self._compared]))

    def __bool__(self):
        return True


def _node(name: str, fields: str, compared: int | None = None, defaults=None) -> type:
    base = namedtuple(name, fields, defaults=defaults)
    return type(name, (Node, base), {"__slots__": (), "_compared": compared})


# --- expressions ---
IntLit = _node("IntLit", "value")
StrLit = _node("StrLit", "value")
ListLit = _node("ListLit", "items")
Ident = _node("Ident", "name")
CurrentIndex = _node("CurrentIndex", "")  # INDEX: the sweep's position on the time axis
OffsetRef = _node("OffsetRef", "signal offset")  # signal is an Ident
Unary = _node("Unary", "op operand")  # op is '!' or '-'
Binary = _node("Binary", "op left right")  # arithmetic, comparison, '&&', '||'
Subscript = _node("Subscript", "base index")
Call = _node("Call", "func args")

# --- statements ---
Assign = _node("Assign", "name value")
ExprStmt = _node("ExprStmt", "expr")
If = _node("If", "cond then orelse")  # orelse is empty when there is no else branch

# --- top level ---
Begin = _node("Begin", "")
End = _node("End", "")
Conditions = _node("Conditions", "exprs")  # comma list; all must hold, left to right
# trigger is Begin, End or Conditions; line is not compared
Statement = _node("Statement", "trigger body line", compared=2, defaults=(0,))
Program = _node("Program", "statements")


# --- printing ---

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
