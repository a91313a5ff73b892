"""Syntax tree for analysis scripts.

A node is an immutable named tuple under the `Node` mixin, built by
`_node` in one line. Nodes compare structurally but exactly by class:
`Ident("a")` equals neither `StrLit("a")` nor the tuple `("a",)`, and
hashes follow equality. Source positions are carried for error messages
but left out of equality and hashing, so a printed-and-reparsed tree
equals the original. Every node is truthy, even one without fields.
"""

from collections import namedtuple

# How tightly each binary operator binds, loosest first; all associate
# left. The parser reads this table, and so does the tests' source printer.
PRECEDENCE = {"||": 0, "&&": 1, "==": 2, "!=": 2, "<": 2, "<=": 2, ">": 2, ">=": 2,
              "+": 3, "-": 3, "*": 4, "/": 4}


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

