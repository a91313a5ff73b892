"""Wall time corrected for the speed of a shared host.

    python3 perfbench/hostclock.py SAMPLES -m wawk run SCRIPT VCD ARGS

A core on a shared host runs the same code at speeds a third and more
apart, in phases from under a second to tens of seconds, and CPU time
moves with wall time. So a process measures its host's speed as it runs:
a Sampler runs a fixed piece of pure-Python work (REFERENCE_S seconds at
full speed) when it starts, every PERIOD_S seconds on a timer signal, and
when it stops. The work is a small tree-walking evaluator, the kind of
code wawk's interpreter is, with nothing allocated per sample.

scaled() turns a span of wall time into the time it would have taken on
a host that runs the work in REFERENCE_S: each stretch between two
samples is scaled by REFERENCE_S over the mean of their durations, and
the samples' own time is left out.

Run as a script, it runs `python -m MODULE ARGS` under a Sampler, through
runpy as `python -m` does, and writes the samples to SAMPLES, one
"start duration" line each, in time.perf_counter() seconds, which are
the same clock in every process on Linux.
"""

import runpy
import signal
import sys
import time

REFERENCE_S = 0.007  # a sample at full speed: x86-64, 2 vCPUs, CPython 3.11
PERIOD_S = 0.1
_STATEMENTS = 192
_DEPTH = 6
_REPEATS = 3  # evaluations of the whole tree per sample


class _Lcg:
    """Deterministic choices without importing random."""

    def __init__(self, seed: int):
        self.state = seed

    def below(self, n: int) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (self.state >> 33) % n


_BINARY = {
    "+": lambda a, b: a + b & 0xFFFF,
    "-": lambda a, b: a - b & 0xFFFF,
    "*": lambda a, b: a * b & 0xFFFF,
    "<": lambda a, b: int(a < b),
    "==": lambda a, b: int(a == b),
    "&": lambda a, b: a & b,
}
_OPS = tuple(_BINARY)
_NAMES = "abcdefgh"


class _Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, env):
        return self.value


class _Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def eval(self, env):
        return env[self.name]


class _Binary:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right

    def eval(self, env):
        return _BINARY[self.op](self.left.eval(env), self.right.eval(env))


class _If:
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond, then, other):
        self.cond, self.then, self.other = cond, then, other

    def eval(self, env):
        return self.then.eval(env) if self.cond.eval(env) else self.other.eval(env)


class _Assign:
    __slots__ = ("name", "expr")

    def __init__(self, name, expr):
        self.name, self.expr = name, expr

    def eval(self, env):
        env[self.name] = value = self.expr.eval(env)
        return value


def _tree(lcg: _Lcg, depth: int):
    if depth == 0:
        if lcg.below(5) < 2:
            return _Num(lcg.below(100))
        return _Var(_NAMES[lcg.below(len(_NAMES))])
    kind = lcg.below(20)
    if kind < 3:
        return _If(_tree(lcg, depth - 1), _tree(lcg, depth - 1), _tree(lcg, depth - 1))
    if kind < 6:
        return _Assign(_NAMES[lcg.below(len(_NAMES))], _tree(lcg, depth - 1))
    return _Binary(_OPS[lcg.below(len(_OPS))], _tree(lcg, depth - 1), _tree(lcg, depth - 1))


_LCG = _Lcg(7)
_PROGRAM = tuple(_tree(_LCG, _DEPTH) for _ in range(_STATEMENTS))
_ENV = dict.fromkeys(_NAMES, 1)


def reference_work() -> int:
    """The fixed work whose duration measures the host's speed."""
    env = _ENV
    total = 0
    for i in range(_REPEATS):
        env["a"] = i
        for statement in _PROGRAM:
            total += statement.eval(env) & 0xFF
    return total


class Sampler:
    """Samples of reference_work's duration, (start, seconds), taken on
    entry, every PERIOD_S on SIGALRM, and on exit."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_):
        started = time.perf_counter()
        reference_work()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False


def scaled(samples: list[tuple[float, float]], start: float, end: float) -> tuple[float, float]:
    """(corrected, raw) seconds of the span start..end, less the time of
    the samples inside it. A stretch between two samples is scaled by
    their mean duration. The stretches at the ends of the span are
    bounded by the nearest samples outside it, or, when there is none,
    scaled by the nearest sample inside it."""
    samples = sorted(samples)
    inside = [(s, d) for s, d in samples if start <= s and s + d <= end]
    before = [d for s, d in samples if s + d <= start][-1:]
    after = [d for s, d in samples if s >= end][:1]
    bounds = before + [d for _, d in inside] + after
    if not bounds:
        raise ValueError("no host-speed sample near the span")
    corrected = raw = 0.0
    edge, duration = start, bounds[0]
    for s, d in inside + [(end, bounds[-1])]:
        gap = s - edge
        raw += gap
        corrected += gap * 2 * REFERENCE_S / (duration + d)
        edge, duration = s + d, d
    return corrected, raw


def main(argv: list[str]) -> int:
    out, flag, module, *args = argv
    if flag != "-m":
        raise SystemExit("usage: hostclock.py SAMPLES -m MODULE ARGS")
    sys.argv = [module, *args]
    code = 0
    sampler = Sampler()
    try:
        with sampler:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as done:
        code = done.code
    finally:
        with open(out, "w", encoding="ascii") as f:
            f.writelines(f"{s!r} {d!r}\n" for s, d in sampler.samples)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
