"""Interpreter for analysis scripts.

Execution model: BEGIN bodies run once, then every non-BEGIN/END
statement is evaluated at every index of the waveform in source order
(conditions first, body only when they all hold), then END bodies run
once. Variables are global and dynamically typed; `args` is pre-bound to
the command-line argument list.

Every expression and action body is compiled once per run into a
function of the sweep index (_compile). A name is resolved at each read,
except in a sweep where nothing can change the signal it reads; such a
read looks in the variables first, inline, as Environment.resolve does.
Arithmetic on two ints of class int skips _operate, which takes any
other operands. The tree walker this replaced is the tests' reference
evaluator.

The sweep visits only the indexes where a statement can fire, which
gives the same output, variables and errors as visiting every one (see
_plan). A statement's head is its leading conditions that read only
fixed signals and literals. Each head condition is constant between the
indexes where a signal it reads changes, and the planner reads each
stretch's values by their position in the signal's change list and tests
each distinct tuple of them once, keyed by the ids that its cuts carry
(_narrow). The statement is visited only where its head can hold, and
where the head held without raising the visit does not evaluate it
again. The visits are gathered a window of indexes at a time (_gather).
When a statement's first condition reads anything else, or a sweep
statement calls `alias`, every statement is visited at every index. A
plan is kept beside its waveform from its second run on, and `--all`
reads it instead of narrowing again.

Value domain: Python ints, strings, lists, four-state logic Values, and
two absence markers. UNBOUND is what reading a never-assigned variable
yields inside a condition (falsy, so "has this been set yet" patterns
work); reading one in an action body raises instead, because there it is
almost certainly a typo. OUT_OF_RANGE is what an `@` offset yields when
it lands outside the trace; it is falsy everywhere, so window conditions
degrade gracefully at the trace edges. Comparisons involving either
marker yield UNBOUND rather than raising; arithmetic on them raises.

Logic values convert to ints only when fully defined; x/z bits raise.
Truthiness of a logic value is "fully defined and non-zero". `+` on a
list appends the right operand in place and yields the list; `/` is
integer division truncating toward zero; `average` rounds half up.
"""

import math
import re
import sys
import weakref
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, repeat
from operator import add, eq, ge, gt, itemgetter, le, lt, mul, ne, sub
from typing import IO, Iterator, Sequence

from . import ast
from .errors import RunFailure
from .riscv import decode as _decode_word
from .value import Value
from .waveform import Waveform


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


UNBOUND = _Marker("unbound")
OUT_OF_RANGE = _Marker("out-of-range")


def _read(series, index: int, count: int) -> object:
    return series.value_at(index) if 0 <= index < count else OUT_OF_RANGE


def _shown(n: int) -> str:
    """`n` for an error message; str() raises past sys.get_int_max_str_digits()."""
    try:
        return str(n)
    except ValueError:
        return f"a {n.bit_length()}-bit integer"


def _extern_decode(args: list) -> str:
    if len(args) != 1:
        raise RunFailure(f"decode takes 1 argument, got {len(args)}")
    word = _integer(args[0], "decode needs an instruction word, got ")
    if not 0 <= word <= 0xFFFFFFFF:
        raise RunFailure(f"decode needs a 32-bit instruction word, got {_shown(word)}")
    return _decode_word(word)


def default_native_modules() -> dict[str, dict]:
    """Native function modules scripts can import; keys are module names,
    values map function names to callables taking the evaluated argument
    list."""
    return {"extern": {"decode": _extern_decode}}


def _type_name(v: object) -> str:
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, str):
        return "string"
    if isinstance(v, list):
        return "list"
    if isinstance(v, Value):
        return "logic"
    return repr(v)


def _truthy(v: object) -> bool:
    if isinstance(v, int):
        return v != 0
    if isinstance(v, Value):
        return not v.has_xz and int(v.digits, 2) != 0
    if isinstance(v, (str, list)):
        return bool(v)
    if v is UNBOUND or v is OUT_OF_RANGE:
        return False
    raise RunFailure(f"no truth value for {_type_name(v)}")


def _integer(v: object, refusal: str) -> int:
    """`v` as an int: a logic value converts (x/z bits raise), and a bool
    or any other non-int raises `refusal` followed by its type."""
    if isinstance(v, Value):
        return v.to_int()
    if isinstance(v, bool) or not isinstance(v, int):
        raise RunFailure(refusal + _type_name(v))
    return v


def _as_int(v: object, op: str) -> int:
    if isinstance(v, bool):
        raise RunFailure(f"operand of {op!r} must be an integer")
    if v is UNBOUND:
        raise RunFailure(f"operand of {op!r} is an unbound variable")
    if v is OUT_OF_RANGE:
        raise RunFailure(f"operand of {op!r} is an out-of-range signal sample")
    return _integer(v, f"operand of {op!r} must be an integer, got ")


def _need_list_arg(name: str, args: list) -> list:
    if len(args) != 1:
        raise RunFailure(f"{name} takes 1 argument, got {len(args)}")
    lst = args[0]
    if not isinstance(lst, list):
        raise RunFailure(f"{name} needs a list, got {_type_name(lst)}")
    return lst


def _int_list(name: str, args: list) -> list[int]:
    """The argument of builtin `name`: a non-empty list of integers, with
    logic values converted as arithmetic converts them (x/z bits raise)."""
    lst = _need_list_arg(name, args)
    if not lst:
        raise RunFailure(f"{name} of an empty list")
    refusal = f"{name} needs a list of integers, found "
    return [_integer(item, refusal) for item in lst]


def _builtin_average(args: list) -> int:
    items = _int_list("average", args)
    # integer mean, exact halves rounding up
    return (2 * sum(items) + len(items)) // (2 * len(items))


def _format(fmt: str, values: list) -> str:
    taken = 0

    def directive(m: re.Match) -> str:
        nonlocal taken
        spec = m[1]
        if spec == "%":
            return "%"
        if not spec:
            raise RunFailure("format string ends with a lone '%'")
        if taken >= len(values):
            raise RunFailure(f"format string needs more than {len(values)} value(s)")
        v = values[taken]
        taken += 1
        if spec == "d":
            v = _integer(v, "%d needs an integer, got ")
            try:
                return str(v)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise RunFailure("%d value has too many digits to print") from None
        if spec == "s":
            if not isinstance(v, str):
                raise RunFailure(f"%s needs a string, got {_type_name(v)}")
            return v
        if spec != "b":
            raise RunFailure(f"unknown format directive '%{spec}'")
        if isinstance(v, Value):
            return v.bits
        v = _integer(v, "%b needs a logic value, got ")
        if v < 0:
            raise RunFailure("%b needs a non-negative integer")
        return format(v, "b")

    out = re.sub(r"%(.?)", directive, fmt, flags=re.S)
    if taken != len(values):
        raise RunFailure(f"format string consumed {taken} of {len(values)} value(s)")
    return out


_BUILTINS = {
    "min": lambda args: min(_int_list("min", args)),
    "max": lambda args: max(_int_list("max", args)),
    "average": _builtin_average,
    "length": lambda args: len(_need_list_arg("length", args)),
}


def _divide(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise RunFailure(f"{_shown(lhs)} / 0")
    q = abs(lhs) // abs(rhs)
    return -q if (lhs < 0) != (rhs < 0) else q


_ARITH = {"+": add, "-": sub, "*": mul, "/": _divide}
_CMP = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def _operate(op: str, left: object, right: object) -> object:
    """`left op right` for an operator other than '&&' and '||', its
    operands evaluated."""
    cmp = _CMP.get(op)
    if cmp is None:
        if op == "+" and isinstance(left, list):
            if right is UNBOUND or right is OUT_OF_RANGE:
                raise RunFailure("cannot append an absent value to a list")
            left.append(right)
            return left
        return _ARITH[op](_as_int(left, op), _as_int(right, op))
    if left is UNBOUND or left is OUT_OF_RANGE or right is UNBOUND or right is OUT_OF_RANGE:
        return UNBOUND  # falsy: comparisons degrade, they do not raise
    if isinstance(left, Value):
        left = left.to_int()
    if isinstance(right, Value):
        right = right.to_int()
    cls = left.__class__
    if (cls is int or cls is str) and right.__class__ is cls:
        return int(cmp(left, right))  # the common case; below, find what is wrong
    if isinstance(left, str) != isinstance(right, str):
        raise RunFailure(
            f"cannot compare {_type_name(left)} with {_type_name(right)} using {op!r}"
        )
    for operand in (left, right):
        if not isinstance(operand, (int, str)) or isinstance(operand, bool):
            raise RunFailure(f"cannot compare {_type_name(operand)} values with {op!r}")
    return int(cmp(left, right))


class Environment:
    """All mutable state of one script run, and the special forms that
    change it. Returned by execute() so callers can inspect final
    variable values."""

    def __init__(
        self,
        waveform: Waveform,
        args: Sequence[str] = (),
        out: IO[str] | None = None,
        modules: dict[str, dict] | None = None,
    ):
        self.waveform = waveform
        self.out = out if out is not None else sys.stdout
        self.variables: dict[str, object] = {"args": list(args)}
        self.aliases: dict[str, str] = {}
        self.modules = modules if modules is not None else default_native_modules()
        self.imported: set[str] = set()
        self.count = waveform.index_count

    # --- name and signal resolution ---

    def sample(self, name: str, index: int | None, offset: int) -> object:
        """Signal `name` (or an alias of one) at `index` plus `offset`;
        OUT_OF_RANGE when that lands outside the trace. `index` is None
        outside the sweep."""
        if index is None:
            raise RunFailure(f"signal {name!r} can only be read during the index sweep")
        series = self.waveform.series(self.aliases.get(name, name))  # raises if unknown
        return _read(series, index + offset, self.count)

    def resolve(self, name: str, index: int | None, cond: bool) -> object:
        if name in self.variables:
            return self.variables[name]
        if name in self.aliases or name in self.waveform.signals:
            return self.sample(name, index, 0)
        if name in self.modules:
            raise RunFailure(f"{name!r} is a native module, not a value")
        if "." in name:
            raise RunFailure(f"unknown signal {name!r}")
        if cond:
            return UNBOUND
        raise RunFailure(f"unbound variable {name!r}")

    # --- special forms: they read their arguments as names ---

    def _form_alias(self, arg_nodes: tuple) -> object:
        if len(arg_nodes) != 2 or not all(isinstance(a, ast.Ident) for a in arg_nodes):
            raise RunFailure("alias takes two names: alias(short, target)")
        short, target = (a.name for a in arg_nodes)
        if "." in short:
            raise RunFailure(f"alias name {short!r} must be a plain identifier")
        if short in self.aliases:
            raise RunFailure(f"alias {short!r} is already defined")
        resolved = self.aliases.get(target, target)
        if resolved not in self.waveform.signals:
            raise RunFailure(f"unknown signal {resolved!r}")
        self.aliases[short] = resolved
        return UNBOUND

    def _form_import(self, arg_nodes: tuple) -> object:
        if len(arg_nodes) != 1 or not isinstance(arg_nodes[0], ast.Ident):
            raise RunFailure("import takes one module name")
        name = arg_nodes[0].name
        if name not in self.modules:
            raise RunFailure(f"unknown native module {name!r}")
        self.imported.add(name)
        return UNBOUND

    def _call_target(self, arg_nodes: tuple):
        """The native function that `call` names by its first argument."""
        if not arg_nodes or not isinstance(arg_nodes[0], ast.Ident):
            raise RunFailure("call needs a module.function name first")
        full = arg_nodes[0].name
        module, _, func = full.rpartition(".")
        if not module:
            raise RunFailure(f"call target {full!r} must be module.function")
        if module not in self.imported:
            raise RunFailure(f"module {module!r} has not been imported")
        fn = self.modules[module].get(func)
        if fn is None:
            raise RunFailure(f"module {module!r} has no function {func!r}")
        return fn


def _subscript(base: object, index: object) -> object:
    """`base[index]`, its operands evaluated."""
    if not isinstance(base, list):
        raise RunFailure(f"cannot subscript {_type_name(base)}")
    index = _integer(index, "list index must be an integer, got ")
    if not 0 <= index < len(base):
        raise RunFailure(f"list index {_shown(index)} out of range for length {len(base)}")
    return base[index]


def _walk(node) -> Iterator:
    """`node` and every syntax node below it. Nodes are tuples too, so
    only a plain tuple is a field that holds several children."""
    yield node
    for child in node:
        for item in child if child.__class__ is tuple else (child,):
            if isinstance(item, ast.Node):
                yield from _walk(item)


def _compile(node, env: Environment, cond: bool, assigned: set | None) -> tuple:
    """The expression or action statement `node` as a function of the
    sweep index (None in BEGIN and END). `cond` marks condition context,
    where an unbound name reads as the falsy UNBOUND.

    `assigned`, the names sweep bodies assign, is given only in a sweep
    where no statement calls alias. There `sig@k`, and a plain name neither
    in it nor a variable now, are fixed to the signal they read; any other
    name is resolved at each call, so an assignment or alias acts at once.
    With the function come the (SignalSeries, offset) pairs `node` reads
    when it is pure, reading only literals and fixed signals through
    operators; None otherwise, and wherever nothing is fixed."""
    cls = node.__class__
    if cls is ast.IntLit or cls is ast.StrLit:
        value = node.value
        return (lambda index: value), None if assigned is None else []
    if cls is ast.Ident or cls is ast.OffsetRef:
        offset = cls is ast.OffsetRef  # reads a signal even where a variable has its name
        name, k = (node.signal.name, node.offset) if offset else (node.name, 0)
        if assigned is not None and (offset or name not in assigned and name not in env.variables):
            series = env.waveform.signals.get(env.aliases.get(name, name))
            if series is not None:
                count = env.count
                return (lambda index: _read(series, index + k, count)), [(series, k)]
        if offset:
            return (lambda index: env.sample(name, index, k)), None
        resolve, variables = env.resolve, env.variables  # resolve's first test, inline
        return (lambda index: variables[name] if name in variables
                else resolve(name, index, cond)), None
    if cls is ast.Unary:
        operand, reads = _compile(node.operand, env, cond, assigned)
        if node.op == "!":
            return (lambda index: int(not _truthy(operand(index)))), reads
        return (lambda index: -_as_int(operand(index), "-")), reads
    if cls is ast.Binary:
        op = node.op
        left, left_reads = _compile(node.left, env, cond, assigned)
        right, right_reads = _compile(node.right, env, cond, assigned)
        reads = None if left_reads is None or right_reads is None else left_reads + right_reads
        if op == "&&":
            return (lambda index: int(_truthy(right(index))) if _truthy(left(index)) else 0), reads
        if op == "||":
            return (lambda index: 1 if _truthy(left(index)) else int(_truthy(right(index)))), reads
        arith = _ARITH.get(op)
        if arith is not None:
            def arithmetic(index):
                lhs, rhs = left(index), right(index)
                if lhs.__class__ is int and rhs.__class__ is int:  # not bool, not a Value
                    return arith(lhs, rhs)
                return _operate(op, lhs, rhs)

            return arithmetic, reads
        return (lambda index: _operate(op, left(index), right(index))), reads
    if cls is ast.CurrentIndex:
        def current(index):
            if index is None:
                raise RunFailure("INDEX is only defined during the index sweep")
            return index

        return current, None
    if cls is ast.ListLit:
        items = [_compile(item, env, cond, assigned)[0] for item in node.items]
        return (lambda index: [item(index) for item in items]), None
    if cls is ast.Subscript:
        base = _compile(node.base, env, cond, assigned)[0]
        at = _compile(node.index, env, cond, assigned)[0]
        return (lambda index: _subscript(base(index), at(index))), None
    if cls is ast.Call:
        func, arg_nodes = node.func, node.args
        if func == "alias":
            return (lambda index: env._form_alias(arg_nodes)), None
        if func == "import":
            return (lambda index: env._form_import(arg_nodes)), None
        args = [_compile(a, env, cond, assigned)[0] for a in arg_nodes]
        if func == "call":  # the target is looked up before the arguments are read
            args = args[1:]
            return (lambda index: env._call_target(arg_nodes)([arg(index) for arg in args])), None
        if func == "printf":
            def printf(index):
                values = [arg(index) for arg in args]
                if not values or not isinstance(values[0], str):
                    raise RunFailure("printf needs a format string first")
                env.out.write(_format(values[0], values[1:]))
                return UNBOUND

            return printf, None
        builtin = _BUILTINS.get(func)
        if builtin is None:
            def unknown(index):
                raise RunFailure(f"unknown function {func!r}")

            return unknown, None
        return (lambda index: builtin([arg(index) for arg in args])), None
    if cls is ast.ExprStmt:
        return _compile(node.expr, env, False, assigned)[0], None
    if cls is ast.Assign:
        name, variables = node.name, env.variables
        value = _compile(node.value, env, False, assigned)[0]

        def assign(index):
            variables[name] = value(index)

        return assign, None
    if cls is ast.If:
        test = _compile(node.cond, env, True, assigned)[0]
        then = _compile_body(node.then, env, assigned)
        orelse = _compile_body(node.orelse, env, assigned)
        return (lambda index: (then if _truthy(test(index)) else orelse)(index)), None
    raise TypeError(f"cannot run {node!r}")


def _compile_body(body: tuple, env: Environment, assigned: set | None):
    """The action `body` as one function of the sweep index (see _compile)."""
    steps = [_compile(stmt, env, False, assigned)[0] for stmt in body]

    def run(index):
        for step in steps:
            step(index)

    return run


def _assigned(statements) -> set | None:
    """The names the bodies of `statements` assign; None when one of them
    calls alias, so no signal read can be fixed."""
    assigned = set()
    for statement in statements:
        for node in chain.from_iterable(map(_walk, statement.trigger.exprs + statement.body)):
            if node.__class__ is ast.Call and node.func == "alias":
                return None
            if node.__class__ is ast.Assign:
                assigned.add(node.name)
    return assigned


def _can_raise(node) -> bool:
    """False when evaluating the pure condition `node` cannot raise: it
    only reads signals and literals through '!', '&&' and '||'."""
    cls = node.__class__
    if cls is ast.Unary:
        return node.op != "!" or _can_raise(node.operand)
    if cls is ast.Binary:
        return (node.op not in ("&&", "||")
                or _can_raise(node.left) or _can_raise(node.right))
    return False


def _cuts(r: int, series, k: int, count: int, lo: int, hi: int) -> list:
    """The cuts in (lo, hi), ascending, of read number `r`, `sig@k`, as
    (b, r, id(value)) triples: from index b on, the read gives `value`. It
    enters the trace at -k with sig's value at 0, takes each of sig's
    changes at that change's index less k, and leaves the trace at count - k."""
    indexes, values = series.indexes, series.values
    cuts = [(-k, r, id(series.value_at(0)))] if lo < -k < hi else []
    changes = range(bisect_right(indexes, lo + k), bisect_left(indexes, min(hi + k, count)))
    cuts += [(indexes[j] - k, r, id(values[j])) for j in changes]
    if lo < count - k < hi:
        cuts.append((count - k, r, id(OUT_OF_RANGE)))
    return cuts


def _narrow(test, reads: list, count: int, pieces, unproven: tuple) -> Iterator:
    """The parts of `pieces`, (start, end, statement) triples, where the
    bound head condition `test` can hold, adjacent parts with the same
    statement joined. A piece is read up to _SPAN changes of each read at
    a time and cut where a read of `test` can change (see _cuts). `test`
    runs once per distinct tuple of values read; where it raised, the part
    takes the `unproven` statement, which evaluates every condition and so
    raises the same error in the sweep."""
    # keyed by the ids of the values read, which the cuts carry: sound only
    # because each value stays alive while narrowing runs, held by a series,
    # all_x's cache or a marker
    memo = {}  # -> held (True), not held (False) or raised (None)
    start = end = joined = None
    for lo, last, statement in pieces:
        while lo < last:
            hi = last  # or the _SPAN-th change of a read after lo, if sooner
            if last - lo > _SPAN:  # a shorter piece holds few cuts anyway
                for series, k in reads:
                    j = bisect_right(series.indexes, lo + k) + _SPAN
                    if j < len(series.indexes):
                        hi = min(hi, series.indexes[j] - k)
            current = [id(_read(series, lo + k, count)) for series, k in reads] + [None]
            cuts = []
            for r, (series, k) in enumerate(reads):
                cuts += _cuts(r, series, k, count, lo, hi)
            cuts.sort(key=itemgetter(0))
            cuts.append((hi, -1, None))  # writes the slot after the reads
            a = lo
            for b, r, value_id in cuts:
                if b != a:
                    key = tuple(current)
                    held = memo.get(key, memo)
                    if held is memo:
                        try:
                            held = memo[key] = _truthy(test(a))
                        except RunFailure:
                            held = memo[key] = None
                    visit = statement if held else None if held is False else unproven
                    if visit is not None:
                        if a == end and visit is joined:
                            end = b
                        else:
                            if start is not None:
                                yield start, end, joined
                            start, end, joined = a, b, visit
                    a = b
                current[r] = value_id
            lo = hi
    if start is not None:
        yield start, end, joined


_SPAN = 16  # changes per read whose cuts a pending narrowing holds
_WINDOW = 256  # indexes whose visits the gatherer holds
_DONE = (math.inf, math.inf, None)


def _gather(streams: list) -> Iterator:
    """The visits of `streams`, one iterator of ascending (start, end,
    visit) pieces per statement in source order, as (index, visits) pairs
    in index and then source order. Each round buckets the visits of the
    _WINDOW indexes from the lowest one a pending piece reaches, so nothing
    is narrowed before it is read and no more than a window is held."""
    pending = [[*next(pieces, _DONE), pieces] for pieces in streams]
    while (lo := min(p[0] for p in pending)) < math.inf:
        hi = lo + _WINDOW
        buckets = defaultdict(list)
        for p in pending:
            start, end, visit, pieces = p
            while start < hi:
                for index in range(start, min(end, hi)):
                    buckets[index].append(visit)
                if end > hi:
                    start = hi
                    break
                start, end, visit = next(pieces, _DONE)
            p[:3] = start, end, visit
        yield from sorted(buckets.items())


# waveform -> {sweep key: False once seen, then its visits}; see _plan
_PLANS = weakref.WeakKeyDictionary()


def _plan(env: Environment, sweep: list) -> Iterator | None:
    """The sweep's visits as (index, visits) pairs, in index and then
    source order, skipping every index where no statement can fire; None
    when every statement must be visited at every index.

    A statement's head is its leading pure conditions (see _compile), up
    to and including the first that can raise. Between the cuts of its
    signals each head condition is constant, so a stretch where one is
    false holds no visit: the sweep would stop at that condition or at an
    earlier false one without raising. The head is narrowed starting from
    its condition whose signals change least, and no further than the
    visits are read (see _gather). A visit is (ordinal, proven): the
    statement, and how many of its conditions held without raising, all
    of the head or none, so a proven head is not evaluated again.

    The visits depend only on the statements, their ordinals and the
    (series, offset) reads of their heads, their key beside the waveform.
    The first run with a key keeps nothing, since a script run once never
    reads its visits again; the second keeps them for every later run."""
    streams, key = [], []
    for ordinal, statement, conditions, _ in sweep:
        head = []
        for node, (test, reads) in zip(statement.trigger.exprs, conditions):
            if reads is None:
                break
            head.append((sum(len(series.indexes) for series, _ in reads), test, reads))
            if _can_raise(node):
                break
        if not head:
            return None
        key.append((ordinal, statement, tuple(tuple(reads) for _, _, reads in head)))
        pieces, unproven = [(0, env.count, (ordinal, len(head)))], (ordinal, 0)
        for _, test, reads in sorted(head, key=itemgetter(0)):
            pieces = _narrow(test, reads, env.count, pieces, unproven)
        streams.append(pieces)
    visits = _gather(streams)
    plans = _PLANS.setdefault(env.waveform, {})
    key = tuple(key)
    kept = plans.get(key)
    if kept is None:
        plans[key] = False
        return visits
    if kept is False:
        kept = plans[key] = list(visits)
    return iter(kept)


def execute(
    program: ast.Program,
    waveform: Waveform,
    args: Sequence[str] = (),
    out: IO[str] | None = None,
    modules: dict[str, dict] | None = None,
) -> Environment:
    """Run a parsed script over a waveform; returns the final Environment."""
    env = Environment(waveform, args, out, modules)
    numbered = list(enumerate(program.statements, start=1))

    def run_blocks(kind: type, where: str) -> None:
        for ordinal, stmt in numbered:
            if isinstance(stmt.trigger, kind):
                try:
                    _compile_body(stmt.body, env, None)(None)
                except RunFailure as err:
                    if err.context is None:
                        err.context = f"statement {ordinal} ({where})"
                    raise

    run_blocks(ast.Begin, "BEGIN")

    swept = [(ordinal, stmt) for ordinal, stmt in numbered
             if isinstance(stmt.trigger, ast.Conditions)]
    if swept:
        assigned = _assigned(stmt for _, stmt in swept)
        sweep = [(ordinal, stmt, [_compile(c, env, True, assigned) for c in stmt.trigger.exprs],
                  _compile_body(stmt.body, env, assigned)) for ordinal, stmt in swept]
        runs = {  # a visit -> the statement's conditions after those proven, and its body
            (ordinal, proven): (ordinal, [test for test, _ in conditions[proven:]], body)
            for ordinal, _, conditions, body in sweep
            for proven in range(len(conditions) + 1)
        }
        visits = _plan(env, sweep)
        if visits is None:
            visits = zip(range(env.count), repeat([(ordinal, 0) for ordinal, _ in swept]))
        truthy = _truthy
        for index, statements in visits:
            for visit in statements:
                ordinal, conditions, body = runs[visit]
                try:
                    for condition in conditions:
                        if not truthy(condition(index)):
                            break
                    else:
                        body(index)
                except RunFailure as err:
                    if err.context is None:
                        err.context = f"statement {ordinal} at index {index}"
                    raise

    run_blocks(ast.End, "END")
    return env


def run_source(
    source: str,
    waveform: Waveform,
    args: Sequence[str] = (),
    out: IO[str] | None = None,
    modules: dict[str, dict] | None = None,
) -> Environment:
    """Parse and execute script source in one step."""
    from .parser import parse_source

    return execute(parse_source(source), waveform, args, out, modules)
