"""Reference evaluator: the tree walker that wawk's compiler must agree with.

It walks the syntax tree at every evaluation, resolving each name when it
is read, and visits every statement at every index in source order, as
the language defines the sweep. It shares with wawk.interp the operators,
builtins and special forms, and nothing of the compiler, the planner or
the fixing of signal reads, so a fault there shows as a difference from
execute() here.
"""

from contextlib import contextmanager
from typing import IO, Sequence

from wawk import ast
from wawk.errors import RunFailure
from wawk.interp import (
    _BUILTINS,
    UNBOUND,
    Environment,
    _as_int,
    _format,
    _operate,
    _subscript,
    _truthy,
)
from wawk.waveform import Waveform


class Walker(Environment):
    """An Environment that evaluates syntax nodes at `index`, None
    outside the sweep. `cond` marks condition context, where an unbound
    name reads as the falsy UNBOUND instead of raising."""

    index = None

    def eval(self, node, cond: bool) -> object:
        return _EVAL[node.__class__](self, node, cond)

    def _e_literal(self, node, cond):
        return node.value

    def _e_list(self, node, cond):
        return [self.eval(e, cond) for e in node.items]

    def _e_ident(self, node, cond):
        return self.resolve(node.name, self.index, cond)

    def _e_index(self, node, cond):
        if self.index is None:
            raise RunFailure("INDEX is only defined during the index sweep")
        return self.index

    def _e_offset(self, node, cond):
        return self.sample(node.signal.name, self.index, node.offset)

    def _e_unary(self, node, cond):
        if node.op == "!":
            return int(not _truthy(self.eval(node.operand, cond)))
        return -_as_int(self.eval(node.operand, cond), "-")

    def _e_binary(self, node, cond):
        if node.op == "&&":
            if not _truthy(self.eval(node.left, cond)):
                return 0
            return int(_truthy(self.eval(node.right, cond)))
        if node.op == "||":
            if _truthy(self.eval(node.left, cond)):
                return 1
            return int(_truthy(self.eval(node.right, cond)))
        return _operate(node.op, self.eval(node.left, cond), self.eval(node.right, cond))

    def _e_subscript(self, node, cond):
        return _subscript(self.eval(node.base, cond), self.eval(node.index, cond))

    def _e_call(self, node, cond):
        func, arg_nodes = node.func, node.args
        if func == "alias":
            return self._form_alias(arg_nodes)
        if func == "import":
            return self._form_import(arg_nodes)
        if func == "call":
            target = self._call_target(arg_nodes)
            return target([self.eval(a, cond) for a in arg_nodes[1:]])
        if func == "printf":
            args = [self.eval(a, cond) for a in arg_nodes]
            if not args or not isinstance(args[0], str):
                raise RunFailure("printf needs a format string first")
            self.out.write(_format(args[0], args[1:]))
            return UNBOUND
        builtin = _BUILTINS.get(func)
        if builtin is None:
            raise RunFailure(f"unknown function {func!r}")
        return builtin([self.eval(a, cond) for a in arg_nodes])

    def exec_body(self, body: tuple) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                self.variables[stmt.name] = self.eval(stmt.value, False)
            elif isinstance(stmt, ast.ExprStmt):
                self.eval(stmt.expr, False)
            elif isinstance(stmt, ast.If):
                self.exec_body(stmt.then if _truthy(self.eval(stmt.cond, True)) else stmt.orelse)
            else:
                raise TypeError(f"cannot execute {stmt!r}")


_EVAL = {
    ast.IntLit: Walker._e_literal,
    ast.StrLit: Walker._e_literal,
    ast.ListLit: Walker._e_list,
    ast.Ident: Walker._e_ident,
    ast.CurrentIndex: Walker._e_index,
    ast.OffsetRef: Walker._e_offset,
    ast.Unary: Walker._e_unary,
    ast.Binary: Walker._e_binary,
    ast.Subscript: Walker._e_subscript,
    ast.Call: Walker._e_call,
}


def execute(
    program: ast.Program,
    waveform: Waveform,
    args: Sequence[str] = (),
    out: IO[str] | None = None,
    modules: dict[str, dict] | None = None,
) -> Walker:
    """What wawk.interp.execute() must do: BEGIN, then every statement at
    every index, then END, with the same errors and error contexts."""
    env = Walker(waveform, args, out, modules)
    numbered = list(enumerate(program.statements, start=1))
    for ordinal, stmt in numbered:
        if isinstance(stmt.trigger, ast.Begin):
            with _located(f"statement {ordinal} (BEGIN)"):
                env.exec_body(stmt.body)
    for env.index in range(env.count):
        for ordinal, stmt in numbered:
            if isinstance(stmt.trigger, ast.Conditions):
                with _located(f"statement {ordinal} at index {env.index}"):
                    if all(_truthy(env.eval(c, True)) for c in stmt.trigger.exprs):
                        env.exec_body(stmt.body)
    env.index = None
    for ordinal, stmt in numbered:
        if isinstance(stmt.trigger, ast.End):
            with _located(f"statement {ordinal} (END)"):
                env.exec_body(stmt.body)
    return env


@contextmanager
def _located(context: str):
    """Gives a runtime error raised inside it `context`, unless it has one."""
    try:
        yield
    except RunFailure as err:
        if err.context is None:
            err.context = context
        raise
