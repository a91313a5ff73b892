"""Interpreter for analysis scripts.

Execution model: BEGIN bodies run once, then every non-BEGIN/END
statement is evaluated at every index of the waveform in source order
(conditions first, body only when they all hold), then END bodies run
once. Variables are global and dynamically typed; `args` is pre-bound to
the command-line argument list.

Each run turns a statement into generated Python functions of the sweep
index (_Source), with straight-line temporaries: one per kind of visit,
its conditions (all, or those after its head) and then its body. Names,
literals and series reach a function only as arguments of its factory,
never as source text, so its source depends on the statement's shape
alone; each source is compiled once per process (_factory). A name is
read from the variables first, inline, then as Environment.resolve reads
it, except in a sweep where nothing can change the signal it names.
Arithmetic and comparisons on two ints of class int skip _operate, which
takes any other operands. The tree walker this replaced is the tests'
reference evaluator.

The sweep visits only the indexes where a statement can fire, which
gives the same output, variables and errors as visiting every one (see
_plan). A statement's head is its leading conditions that read only
fixed signals and literals. Each head condition is constant between the
indexes where a signal it reads changes, and the planner tests it once
per distinct tuple of the items its signals store for a stretch, so
equal values share one test (_narrow). The statement is visited only
where its head can hold, and where the head held without raising the
visit does not evaluate it again. The plan is made one window of indexes
at a time (_WINDOW), just ahead of the sweep. When a statement's first
condition reads anything else, or a sweep statement calls `alias`, every
statement is visited at every index. A waveform keeps the plan of its
latest sweep from that sweep's second run in a row on, and `--all` reads
it instead of narrowing.

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

import enum
import functools
import re
import sys
import weakref
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Iterator, Sequence
from itertools import chain, repeat
from operator import add, eq, ge, gt, itemgetter, le, lt, ne, sub

from . import ast
from .errors import RunFailure, quote, shown
from .riscv import decode as _decode_word
from .vcd import MAX_WIDTH
from .waveform import Value, Waveform


class _Marker(enum.Enum):
    UNBOUND = "unbound"
    OUT_OF_RANGE = "out-of-range"

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__


UNBOUND, OUT_OF_RANGE = _Marker


def _read(series, index: int, count: int) -> object:
    return series.value_at(index) if 0 <= index < count else OUT_OF_RANGE


def _extern_decode(args: list) -> str:
    if len(args) != 1:
        raise RunFailure(f"decode takes 1 argument, got {len(args)}")
    word = _integer(args[0], "decode needs an instruction word, got ")
    if not 0 <= word <= 0xFFFFFFFF:
        raise RunFailure(f"decode needs a 32-bit instruction word, got {shown(word)}")
    return _decode_word(word)


def default_native_modules() -> dict[str, dict]:
    """Native function modules scripts can import; keys are module names,
    values map function names to callables taking the evaluated argument
    list."""
    return {"extern": {"decode": _extern_decode}}


_TYPE_NAMES = ((bool, "bool"), (int, "int"), (str, "string"), (list, "list"), (Value, "logic"))


def _type_name(v: object) -> str:
    return next((name for cls, name in _TYPE_NAMES if isinstance(v, cls)), None) or repr(v)


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
        raise RunFailure(f"{shown(lhs)} / 0")
    q = abs(lhs) // abs(rhs)
    return -q if (lhs < 0) != (rhs < 0) else q


def _multiply(lhs: int, rhs: int) -> int:
    # bounded as a $var's width is: a product repeated at every index would
    # otherwise double its width each time until memory runs out
    product = lhs * rhs
    if product.bit_length() > MAX_WIDTH:
        raise RunFailure(f"product of '*' is wider than {MAX_WIDTH} bits")
    return product


_ARITH = {"+": add, "-": sub, "*": _multiply, "/": _divide}
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
        out=None,
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
            raise RunFailure(f"signal {quote(name)} can only be read during the index sweep")
        series = self.waveform.series(self.aliases.get(name, name))  # raises if unknown
        return _read(series, index + offset, self.count)

    def resolve(self, name: str, index: int | None, cond: bool) -> object:
        if name in self.variables:
            return self.variables[name]
        if name in self.aliases or name in self.waveform.signals:
            return self.sample(name, index, 0)
        if name in self.modules:
            raise RunFailure(f"{quote(name)} is a native module, not a value")
        if "." in name:
            raise RunFailure(f"unknown signal {quote(name)}")
        if cond:
            return UNBOUND
        raise RunFailure(f"unbound variable {quote(name)}")

    # --- special forms: they read their arguments as names ---

    def _form_alias(self, arg_nodes: tuple) -> object:
        if len(arg_nodes) != 2 or not all(isinstance(a, ast.Ident) for a in arg_nodes):
            raise RunFailure("alias takes two names: alias(short, target)")
        short, target = (a.name for a in arg_nodes)
        if "." in short:
            raise RunFailure(f"alias name {quote(short)} must be a plain identifier")
        if short in self.aliases:
            raise RunFailure(f"alias {quote(short)} is already defined")
        resolved = self.aliases.get(target, target)
        if resolved not in self.waveform.signals:
            raise RunFailure(f"unknown signal {quote(resolved)}")
        self.aliases[short] = resolved
        return UNBOUND

    def _form_import(self, arg_nodes: tuple) -> object:
        if len(arg_nodes) != 1 or not isinstance(arg_nodes[0], ast.Ident):
            raise RunFailure("import takes one module name")
        name = arg_nodes[0].name
        if name not in self.modules:
            raise RunFailure(f"unknown native module {quote(name)}")
        self.imported.add(name)
        return UNBOUND

    def _printf(self, values: list) -> object:
        if not values or not isinstance(values[0], str):
            raise RunFailure("printf needs a format string first")
        self.out.write(_format(values[0], values[1:]))
        return UNBOUND

    def _call_target(self, arg_nodes: tuple):
        """The native function that `call` names by its first argument."""
        if not arg_nodes or not isinstance(arg_nodes[0], ast.Ident):
            raise RunFailure("call needs a module.function name first")
        full = arg_nodes[0].name
        module, _, func = full.rpartition(".")
        if not module:
            raise RunFailure(f"call target {quote(full)} must be module.function")
        if module not in self.imported:
            raise RunFailure(f"module {quote(module)} has not been imported")
        fn = self.modules[module].get(func)
        if fn is None:
            raise RunFailure(f"module {quote(module)} has no function {quote(func)}")
        return fn


def _current(index: int | None) -> int:
    if index is None:
        raise RunFailure("INDEX is only defined during the index sweep")
    return index


def _unknown(func: str):
    raise RunFailure(f"unknown function {quote(func)}")


def _subscript(base: object, index: object) -> object:
    """`base[index]`, its operands evaluated."""
    if not isinstance(base, list):
        raise RunFailure(f"cannot subscript {_type_name(base)}")
    index = _integer(index, "list index must be an integer, got ")
    if not 0 <= index < len(base):
        raise RunFailure(f"list index {shown(index)} out of range for length {len(base)}")
    return base[index]


def _walk(node) -> Iterator:
    """`node` and every syntax node below it. Nodes are tuples too, so
    only a plain tuple is a field that holds several children."""
    yield node
    for child in node:
        for item in child if child.__class__ is tuple else (child,):
            if isinstance(item, ast.Node):
                yield from _walk(item)


_CACHED = 4096  # the most entries _factory and each memo of _narrow keep


# generated source -> the factory compiled from it, for every run: the
# source holds no script text, so each shape of statement compiles once
@functools.lru_cache(maxsize=_CACHED)
def _factory(source: str):
    exec(compile(source + "\n return run", "<wawk>", "exec"), globals(), made := {})
    return made["make"]


class _Source:
    """The lines of one generated function of the sweep index `index`
    (None in BEGIN and END): straight-line temporaries, with an `if` only
    for '&&', '||' and if statements. Names, literals, series and the run's
    objects reach it only in the tuple `c` that its factory `make` takes
    (one tuple: CPython compiles thousands of closure variables in time
    quadratic in their number); the source names `c` and helpers alone."""

    def __init__(self, env: Environment, assigned: set | None):
        self.env, self.assigned = env, assigned  # assigned: as _compile takes it
        self.lines, self.consts, self.indent = [], [], "  "

    def const(self, value) -> str:
        self.consts.append(value)
        return f"c[{len(self.consts) - 1}]"

    def put(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def temp(self, value: str) -> str:
        self.put(f"t{len(self.lines)} = {value}")
        return f"t{len(self.lines) - 1}"

    def expr(self, node, cond: bool) -> tuple:
        """Lines that evaluate the expression `node`, then the operand that
        holds its value and the reads _compile returns."""
        cls, env, c = node.__class__, self.env, self.const
        if cls is ast.IntLit or cls is ast.StrLit:
            return c(node.value), None if self.assigned is None else []
        if cls is ast.Ident or cls is ast.OffsetRef:
            offset = cls is ast.OffsetRef  # reads a signal even where a variable has its name
            name, k = (node.signal.name, node.offset) if offset else (node.name, 0)
            if self.assigned is not None and (
                    offset or name not in self.assigned and name not in env.variables):
                series = env.waveform.signals.get(env.aliases.get(name, name))
                if series is not None:
                    read = f"_read({c(series)}, index + {c(k)}, {c(env.count)})"
                    return self.temp(read), [(series, k)]
            if offset:
                return self.temp(f"{c(env.sample)}({c(name)}, index, {c(k)})"), None
            variables, name = c(env.variables), c(name)  # resolve's first test, inline
            return self.temp(f"{variables}[{name}] if {name} in {variables} "
                             f"else {c(env.resolve)}({name}, index, {cond})"), None
        if cls is ast.Unary:
            operand, reads = self.expr(node.operand, cond)
            return self.temp(f"int(not _truthy({operand}))" if node.op == "!"
                             else f"-_as_int({operand}, '-')"), reads
        if cls is ast.Binary:
            op = node.op
            left, reads = self.expr(node.left, cond)
            if op == "&&" or op == "||":
                value = self.temp("0" if op == "&&" else "1")
                self.put(f"if {'' if op == '&&' else 'not '}_truthy({left}):")
                self.indent += " "
                right, right_reads = self.expr(node.right, cond)
                self.put(f"{value} = int(_truthy({right}))")
                self.indent = self.indent[:-1]
            else:  # two ints of class int (not bool, not a Value) skip _operate
                right, right_reads = self.expr(node.right, cond)
                fast = (f"{_ARITH[op].__name__}({left}, {right})" if op in ("*", "/") else
                        f"{left} {op} {right}" if op in _ARITH else f"int({left} {op} {right})")
                value = self.temp(f"{fast} if {left}.__class__ is {right}.__class__ is int "
                                  f"else _operate({op!r}, {left}, {right})")
            return value, None if reads is None or right_reads is None else reads + right_reads
        if cls is ast.CurrentIndex:
            return self.temp("_current(index)"), None
        if cls is ast.ListLit:
            items = ", ".join(self.expr(item, cond)[0] for item in node.items)
            return self.temp(f"[{items}]"), None
        if cls is ast.Subscript:
            base = self.expr(node.base, cond)[0]
            return self.temp(f"_subscript({base}, {self.expr(node.index, cond)[0]})"), None
        if cls is ast.Call:
            func, arg_nodes = node.func, node.args
            if func == "alias" or func == "import":  # they read their arguments as names
                return self.temp(f"{c(getattr(env, '_form_' + func))}({c(arg_nodes)})"), None
            if func == "call":  # the target is looked up before the arguments are read
                callee = self.temp(f"{c(env._call_target)}({c(arg_nodes)})")
                arg_nodes = arg_nodes[1:]
            elif func == "printf" or func in _BUILTINS:
                callee = c(env._printf if func == "printf" else _BUILTINS[func])
            else:
                return self.temp(f"_unknown({c(func)})"), None
            args = ", ".join(self.expr(arg, cond)[0] for arg in arg_nodes)
            return self.temp(f"{callee}([{args}])"), None
        raise TypeError(f"cannot run {node!r}")

    def condition(self, node) -> None:
        """A line that returns unless the statement condition `node` holds."""
        self.put(f"if not _truthy({self.expr(node, True)[0]}): return")

    def block(self, body: tuple) -> None:
        """Lines that run the action statements of `body`."""
        for node in body:
            cls = node.__class__
            if cls is ast.ExprStmt:
                self.expr(node.expr, False)
            elif cls is ast.Assign:
                value = self.expr(node.value, False)[0]
                self.put(f"{self.const(self.env.variables)}[{self.const(node.name)}] = {value}")
            elif cls is ast.If:
                test = self.expr(node.cond, True)[0]
                for line, branch in ((f"if _truthy({test}):", node.then), ("else:", node.orelse)):
                    self.put(line)
                    self.indent += " "
                    self.put("pass")
                    self.block(branch)
                    self.indent = self.indent[:-1]
            else:
                raise TypeError(f"cannot run {node!r}")

    def build(self):
        """The function of these lines, from the factory of their source."""
        source = "def make(c):\n def run(index):\n  pass\n" + "\n".join(self.lines)
        return _factory(source)(tuple(self.consts))


def _compile(node, env: Environment, cond: bool, assigned: set | None) -> tuple:
    """The expression `node` as a function of the sweep index (None in
    BEGIN and END). `cond` marks condition context, where an unbound name
    reads as the falsy UNBOUND.

    `assigned`, the names sweep bodies assign, is given only in a sweep
    where no statement calls alias. There `sig@k`, and a plain name neither
    in it nor a variable now, are fixed to the signal they read; any other
    name is resolved at each call, so an assignment or alias acts at once.
    With the function come the (SignalSeries, offset) pairs `node` reads
    when it is pure, reading only literals and fixed signals through
    operators; None otherwise, and wherever nothing is fixed."""
    source = _Source(env, assigned)
    value, reads = source.expr(node, cond)
    source.put(f"return {value}")
    return source.build(), reads


def _visit(env: Environment, assigned: set | None, conditions: tuple, body: tuple):
    """One function of the sweep index that evaluates `conditions` in
    order and runs the action `body` where they all hold (see _compile)."""
    source = _Source(env, assigned)
    for node in conditions:
        source.condition(node)
    source.block(body)
    return source.build()


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


def _head(statement, env: Environment, assigned: set | None) -> list:
    """_compile's (test, reads) of the statement's leading pure conditions,
    up to and including the first with an operator but '!', '&&' and '||'."""
    head = []
    for node in statement.trigger.exprs:
        test, reads = _compile(node, env, True, assigned)
        if reads is None:
            break
        head.append((test, reads))
        if any(n.__class__ in (ast.Unary, ast.Binary) and n.op not in ("!", "&&", "||")
               for n in _walk(node)):
            break
    return head


def _cuts(r: int, series, k: int, count: int, lo: int, hi: int) -> list:
    """The cuts in [lo, hi), ascending, of read number `r`, `sig@k`, as
    (b, r, key) triples: from index b on, the read gives the value `key`
    stands for. A key is what the series stores for a change (a 1-bit code
    or a vector Value), None before sig's first change, or OUT_OF_RANGE
    outside the trace: within one read, equal keys are equal values. The
    first cut holds the key at lo. The read enters the trace at -k before
    sig's first change, takes each change at its index less k (one at 0
    right after the entry), and leaves the trace at count - k."""
    indexes, values = series.indexes, series.values
    at, first = lo + k, bisect_right(indexes, lo + k)
    key = (values[first - 1] if first else None) if 0 <= at < count else OUT_OF_RANGE
    cuts = [(lo, r, key), (-k, r, None)] if lo < -k < hi else [(lo, r, key)]
    cuts += [(indexes[j] - k, r, values[j])
             for j in range(first, bisect_left(indexes, min(hi + k, count)))]
    if lo < count - k < hi:
        cuts.append((count - k, r, OUT_OF_RANGE))
    return cuts


def _narrow(test, reads: list, count: int, pieces: list, unproven: tuple, memo: dict) -> list:
    """The parts of `pieces`, ascending (start, end, visit) triples, where
    the bound head condition `test` can hold, adjacent parts with the same
    visit joined. Each piece is cut where a read of `test` can change (see
    _cuts). `test` runs once per distinct tuple of the keys of its reads,
    its answer kept in `memo` across pieces and calls until it holds _CACHED
    answers; where it raised, the part takes the `unproven` visit, which
    evaluates every condition and so raises the same error in the sweep."""
    parts = []
    for lo, hi, statement in pieces:
        current, cuts = [None] * (len(reads) + 1), []
        for r, (series, k) in enumerate(reads):
            cuts += _cuts(r, series, k, count, lo, hi)
        cuts.sort(key=itemgetter(0))
        cuts.append((hi, -1, None))  # writes the slot after the reads
        a = lo
        for b, r, key in cuts:
            if b != a:
                inputs = tuple(current)
                held = memo.get(inputs, memo)
                if held is memo:
                    try:
                        held = _truthy(test(a))
                    except RunFailure:
                        held = None
                    if len(memo) < _CACHED:  # a bus that never repeats would fill it
                        memo[inputs] = held
                visit = statement if held else None if held is False else unproven
                if visit is not None:
                    if parts and parts[-1][1] == a and parts[-1][2] is visit:
                        parts[-1][1] = b
                    else:
                        parts.append([a, b, visit])
                a = b
            current[r] = key
    return parts


_WINDOW = 1024  # indexes the planner narrows and holds at a time

# waveform -> (its latest sweep key, that key's visits or None); see _plan
_PLANS = weakref.WeakKeyDictionary()


def _plan(env: Environment, sweep: list) -> Iterator | None:
    """The sweep's visits as (index, visits) pairs, in index and then
    source order, skipping every index where no statement can fire; None
    when every statement must be visited at every index.

    `sweep` holds (ordinal, statement, head) triples, the head as _head
    makes it. Between the cuts of its signals each head condition is
    constant, so a stretch where one is false holds no visit: the sweep
    would stop at that condition or at an earlier false one without
    raising. The plan is made one _WINDOW of indexes at a time, no further
    than the visits are read: each head is narrowed over the window
    starting from its condition whose signals change least, and each
    condition keeps one memo across the windows (see _narrow). A visit is
    (ordinal, proven): the statement, and how many of its conditions held
    without raising, all of the head or none, so a proven head is not
    evaluated again.

    The visits depend only on the statements, their ordinals and the
    (series, offset) reads of their heads, their key. A waveform keeps one
    slot: its latest key and, from that key's second run in a row on, its
    visits. A script run once never reads them again, and a new key takes
    the slot, so many scripts keep one plan per waveform."""
    narrowings, key = [], []
    for ordinal, statement, head in sweep:
        if not head:
            return None
        key.append((ordinal, statement, tuple(tuple(reads) for _, reads in head)))
        head = sorted(head, key=lambda h: sum(len(s.indexes) for s, _ in h[1]))
        narrowings.append(((ordinal, len(head)), (ordinal, 0),
                           [(test, reads, {}) for test, reads in head]))

    def windows() -> Iterator:
        for lo in range(0, env.count, _WINDOW):
            buckets = defaultdict(list)
            for statement, unproven, tests in narrowings:
                pieces = [(lo, min(lo + _WINDOW, env.count), statement)]
                for test, reads, memo in tests:
                    pieces = _narrow(test, reads, env.count, pieces, unproven, memo)
                for start, end, visit in pieces:
                    for index in range(start, end):
                        buckets[index].append(visit)
            yield from sorted(buckets.items())

    key = tuple(key)
    kept = _PLANS.get(env.waveform)
    if kept is None or kept[0] != key:
        _PLANS[env.waveform] = key, None
        return windows()
    if kept[1] is None:
        kept = _PLANS[env.waveform] = key, list(windows())
    return iter(kept[1])


def execute(
    program: ast.Program,
    waveform: Waveform,
    args: Sequence[str] = (),
    out=None,
    modules: dict[str, dict] | None = None,
) -> Environment:
    """Run a parsed script over a waveform; returns the final Environment."""
    env = Environment(waveform, args, out, modules)
    numbered = list(enumerate(program.statements, start=1))

    def run_blocks(kind: type, where: str) -> None:
        for ordinal, stmt in numbered:
            if isinstance(stmt.trigger, kind):
                try:  # one statement at a time, so that one shape compiles once
                    for action in stmt.body:
                        _visit(env, None, (), (action,))(None)
                except RunFailure as err:
                    if err.context is None:
                        err.context = f"statement {ordinal} ({where})"
                    raise

    run_blocks(ast.Begin, "BEGIN")

    swept = [(ordinal, stmt) for ordinal, stmt in numbered
             if isinstance(stmt.trigger, ast.Conditions)]
    if swept:
        assigned = _assigned(stmt for _, stmt in swept)
        sweep = [(ordinal, stmt, _head(stmt, env, assigned)) for ordinal, stmt in swept]
        visits = _plan(env, sweep)
        if visits is None:
            visits = zip(range(env.count), repeat([(ordinal, 0) for ordinal, _ in swept]))
        statements = {ordinal: (stmt.trigger.exprs, stmt.body) for ordinal, stmt in swept}
        runs = {}  # a visit -> its conditions after those proven, then its body
        for index, kinds in visits:
            for visit in kinds:
                run = runs.get(visit)
                if run is None:  # made at its first visit: no sweep changes what it fixes
                    exprs, body = statements[visit[0]]
                    run = runs[visit] = _visit(env, assigned, exprs[visit[1]:], body)
                try:
                    run(index)
                except RunFailure as err:
                    if err.context is None:
                        err.context = f"statement {visit[0]} at index {index}"
                    raise

    run_blocks(ast.End, "END")
    return env


def run_source(
    source: str,
    waveform: Waveform,
    args: Sequence[str] = (),
    out=None,
    modules: dict[str, dict] | None = None,
) -> Environment:
    """Parse and execute script source in one step."""
    from .parser import parse_source

    return execute(parse_source(source), waveform, args, out, modules)
