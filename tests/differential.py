"""Differential: read random dumps and run random scripts with this tree and another revision.

    python tests/differential.py --against HEAD --dumps 20000 --seed 1
    python tests/differential.py --against HEAD --scripts 5000 --seed 1

`--against REV` is extracted with `git archive REV src | tar -x` into a
temporary directory; nothing in `.git` changes and nothing is fetched.
Each tree's `wawk.vcd.parse_vcd` runs in a child process of its own. The
dumps are drawn from a seeded `random.Random`: nested scopes, every
variable type, ranges with and without spaces, shared id codes,
directives that span lines, dump blocks, scalar and vector changes,
stamps past 2**64, `\\r\\n` line ends, no final newline, newlines turned
into spaces, and faults (a token inserted, cut short or deleted). Each
dump is read at one of the block sizes 1-9 and 8,192, through universal
newlines or `newline=""`.

Both trees must give each dump the same reading, a form that does not
depend on how changes are stored: the error's class and text, or the
timestamps as a list, the timescale and, per name, its width, its change
indexes, `value_at(i).bits` at each of them and the first name of its id
code group. The last line printed counts the dumps that read as the same
waveform and as the same error; the first difference is printed in full.

`--scripts N` runs N random programs with `wawk.interp.execute`, each
over a waveform read from one of the well-formed dumps above, at a random
planner window (`interp._WINDOW`) and three times in a row, so that a
kept plan is made and then read. The programs mix signal-only heads the
planner narrows with conditions that read variables, `INDEX`, lists and
calls; `sig@k` offsets past both ends of the trace; vector samples compared
with int literals, over dumps that write one value to an id code again
in other digits (`b101`, `b00000101`); `alias` in BEGIN and
in the sweep; builtins, `printf`, `if`/`else`, and the runtime errors of
x/z bits made an int, `/ 0` and unbound names. Both trees must give each
run the same stdout and then the same `repr` of the final variables, or
the same error class, message and `context`. The last line printed
counts the programs whose runs end the same way and those that raise the
same error.

Exit code 0 when every dump and program agrees, 1 when one does not, 2
when the revision cannot be extracted.
"""

import argparse
import io
import pickle
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = [*range(1, 10), 8192]
BATCH = 500  # dumps read, or programs run, per pair of child processes
PROGRAMS_PER_DUMP = 5
WINDOWS = [1, 2, 3, 1024]

# each a (well-formed, faulty) pair of lists of choices
_SCOPES = ["module", "begin", "task", "function", "fork"], ["class"]
_TYPES = ["wire", "reg", "integer", "logic", "parameter", "time", "tri", "tri0", "tri1", "triand",
          "trior", "trireg", "supply0", "supply1", "wand", "wor"], ["real", "event"]
_WIDTHS = [1, 1, 1, 1, 2, 3, 4, 8, 32], [0, "x", "08", 65537]
_RANGES = [["[3:0]"], ["[7", ":", "0]"], ["[2]"]], [["extra"], ["[1:0]", "[1]"]]
_TIMESCALES = [["1ns"], ["10", "us"], ["100ps"], ["1", "s"]], [["1", "xs"], ["ns"], ["1ns", "1ns"]]
_STEPS = [1, 1, 2, 7], [0, -1]
_ODD_LINES = [["$comment", "1!", "#3", "$end"]], [["r1.5", "!"], ["1?"], ["hello"], ["#0"],
                                                   ["$enddefinitions", "$end"]]
_IDS = ["!", '"', "%", "a", "&'", "1", "!!", "b"], ["#", "$"]  # "#" and "$" as a vector's id
_JUNK = ["$end", "$var", "$scope", "$upscope", "$enddefinitions", "$dumpvars", "$comment", "#5",
         "#", "#x", "1!", "x", "b1", "b", "r1.5", "$bogus", "[3:0]", "0", "\n"]


def _choose(rng: random.Random, choices: tuple[list, list], faulty: float):
    """A well-formed choice, or with odds `faulty` a faulty one."""
    return rng.choice(choices[rng.random() < faulty])


def _header(rng: random.Random, faulty: float) -> tuple[list[str], dict[str, int]]:
    """Header tokens ("\\n" ends a line) and the declared id codes' widths."""
    tokens, widths, depth, names = [], {}, 0, 0
    if rng.random() < 0.7:
        tokens += ["$timescale", *_choose(rng, _TIMESCALES, faulty), "$end", "\n"]
    for _ in range(rng.randint(1, 8)):
        pick = rng.random()
        if pick < 0.15:
            scope = _choose(rng, _SCOPES, faulty)
            tokens += ["$scope", scope, rng.choice(["top", "m", "u0"]), "$end", "\n"]
            depth += 1
        elif pick < 0.25 and depth:
            tokens += ["$upscope", "$end", "\n"]
            depth -= 1
        elif pick < 0.3:
            tokens += [rng.choice(["$comment", "$date", "$version"]), "any", "$var", "$end", "\n"]
        else:
            id_code = _choose(rng, _IDS, faulty)  # declared again, it is a shared id code
            width = widths.get(id_code) if rng.random() >= faulty else None
            if width is None:
                width = _choose(rng, _WIDTHS, faulty)
            if isinstance(width, int) and 1 <= width <= 64:
                widths.setdefault(id_code, width)
            name = "s0" if rng.random() < faulty / 4 else f"s{names}"
            names += 1
            var = ["$var", _choose(rng, _TYPES, faulty), str(width), id_code, name]
            if rng.random() < 0.2:
                var += _choose(rng, _RANGES, faulty)
            if rng.random() < 0.2:  # the directive spans lines
                var.insert(rng.randint(1, len(var)), "\n")
            tokens += [*var, "$end", "\n"]
    tokens += ["$upscope", "$end", "\n"] * depth
    tokens += ["$enddefinitions", "$end", "\n"]
    return tokens, widths


def _spellings(digits: str, width: int) -> list[str]:
    """Every way to write the value `digits` stands for at `width`: the
    tails of its bits that the reader widens back to them."""
    def widened(tail: str) -> str:
        return tail.rjust(width, "0" if tail[0] in "01" else tail[0])

    bits = widened(digits.lower())
    return [bits[i:] for i in range(width) if widened(bits[i:]) == bits]


def _changes(rng: random.Random, widths: dict[str, int], faulty: float) -> list[str]:
    tokens, stamp, written = [], -1, {}  # written: id code -> the vector values written to it
    ids = list(widths) or ["!"]
    for _ in range(rng.randint(0, 40)):
        pick = rng.random()
        if pick < 0.25:
            step = _choose(rng, _STEPS, faulty) if stamp >= 0 else rng.choice([1, 4])
            if rng.random() < 0.03:
                step = max(1, 2**64 - stamp + rng.randint(-1, 2))  # around the end of 64 bits
            stamp += step
            tokens += [f"#{stamp}", "\n"]
        elif pick < 0.6:
            tokens += [rng.choice("0101xzXZ") + rng.choice(ids), "\n"]
        elif pick < 0.8:
            id_code = rng.choice(ids)
            width = widths.get(id_code, 1)
            if written.get(id_code) and rng.random() < 0.4:  # a value again, in other digits
                bits = rng.choice(_spellings(rng.choice(written[id_code]), width))
            else:
                size = rng.randint(1, width + (rng.random() < faulty))
                digits = rng.choice(["01", "0011xzXZ"])
                bits = "".join(rng.choice(digits) for _ in range(size))
            if len(bits) <= width:
                written.setdefault(id_code, []).append(bits)
            on_next_line = ["\n"] if rng.random() < 0.1 else []  # the id code waits a line
            tokens += [rng.choice("bB") + bits, *on_next_line, id_code, "\n"]
        elif pick < 0.9:
            inner = [rng.choice("01xz") + rng.choice(ids) for _ in range(rng.randint(0, 3))]
            block = rng.choice(["$dumpvars", "$dumpoff", "$dumpon", "$dumpall"])
            tokens += [block, "\n", *inner, "\n", "$end", "\n"]
        else:
            tokens += [*_choose(rng, _ODD_LINES, faulty), "\n"]
    return tokens


def _fault(rng: random.Random, tokens: list[str]) -> None:
    """Insert a token, cut one short or delete one, in place."""
    at = rng.randrange(len(tokens))
    pick = rng.random()
    if pick < 0.4:
        tokens.insert(at, rng.choice(_JUNK))
    elif pick < 0.7 and len(tokens[at]) > 1:
        tokens[at] = tokens[at][: rng.randrange(1, len(tokens[at]))]
    else:
        del tokens[at]


def random_dump(rng: random.Random, well_formed: bool = False) -> str:
    """A dump of up to a few dozen lines, well-formed about half the time,
    or always."""
    faulty = 0 if well_formed else rng.choice([0, 0, 0, 0.02, 0.1])
    tokens, widths = _header(rng, faulty)
    tokens += _changes(rng, widths, faulty)
    for _ in range(0 if well_formed else rng.choice([0, 0, 0, 0, 0, 0, 1, 2])):
        _fault(rng, tokens)
    parts = []
    for tok in tokens:
        if tok != "\n" and parts and parts[-1] != "\n":
            parts.append(rng.choice([" ", " ", "\t", "  "]))
        parts.append(tok)
    text = "".join(parts)
    pick = rng.random()
    if pick < 0.1:
        text = text.replace("\n", " ")
    elif pick < 0.2:
        text = text.replace("\n", "\r\n")
    if rng.random() < 0.1:
        text = text.rstrip("\r\n")
    return text


def signal_widths(dump: str) -> dict[str, int]:
    """The full name and width of each signal a well-formed `dump` declares."""
    widths, scopes, tokens = {}, [], iter(dump.split())
    for tok in tokens:
        if tok in ("$comment", "$date", "$version"):
            while next(tokens) != "$end":
                pass
        elif tok == "$scope":
            scopes.append(next(tokens) and next(tokens))
        elif tok == "$upscope":
            scopes.pop()
        elif tok == "$var":
            _, width, _, name = (next(tokens) for _ in range(4))
            widths[".".join(scopes + [name])] = int(width)
    return widths


def random_script(rng: random.Random, widths: dict[str, int]) -> str:
    """A program over the signals of `widths` (see the module docstring).
    About half the programs draw from every form; the others only from
    forms that cannot raise, so that most of them reach END."""
    risky, sweep_alias, swept = rng.random() < 0.5, rng.random() < 0.2, False
    names, vectors = list(widths), [name for name, width in widths.items() if width > 1]
    aliases = [f"a{k}" for k in range(rng.randint(0, 2))]

    def signal() -> str:
        pick = rng.random()
        if risky and pick < 0.02:
            return "top.none"  # an unknown signal
        return rng.choice(aliases) if aliases and pick < 0.3 else rng.choice(names)

    def sample(name: str | None = None) -> str:  # an offset may land past either end
        name = name or signal()
        if rng.random() < 0.5:
            return name
        return f"{name}@{rng.choice([-60, -3, -2, -1, 1, 2, 3, 60])}"

    def head(depth: int = 0) -> str:
        """A condition that reads only signals and literals."""
        pick = rng.random()
        if depth > 2 or pick < 0.45:
            return rng.choice(["", "!"]) + sample()
        if pick < 0.8 or not risky:
            return f"({head(depth + 1)}) {rng.choice(['&&', '||'])} ({head(depth + 1)})"
        if pick < 0.9 and vectors:  # equal values written in other digits read as one
            op = rng.choice(['==', '!=', '<', '>='])
            return f"{sample(rng.choice(vectors))} {op} {rng.randint(0, 7)}"
        if pick < 0.96:  # x/z bits raise
            right = sample() if rng.random() < 0.5 else str(rng.randint(0, 3))
            return f"{sample()} {rng.choice(['==', '!=', '<', '>='])} {right}"
        return f"{sample()} + {rng.randint(0, 2)} > {rng.randint(0, 3)}"

    def value(depth: int = 0) -> str:
        pick = rng.random()
        if depth > 2 or pick < 0.3 or not risky and pick >= 0.75:
            return rng.choice(["v0", "v1", "v2", str(rng.randint(-3, 9))] + ["INDEX"] * swept)
        if pick < 0.55:
            return f"{value(depth + 1)} {rng.choice('+-*')} {value(depth + 1)}"
        if pick < 0.6:
            return f"{value(depth + 1)} / 2"
        if pick < 0.65:
            return "length(l)"
        if pick < 0.75:
            return f"({value(depth + 1)}) {rng.choice(['==', '<', '>='])} ({value(depth + 1)})"
        if pick < 0.8 and swept:
            return sample()
        if pick < 0.82:
            return f"{value(depth + 1)} / {rng.choice(['v1', '0'])}"
        if pick < 0.85:
            return f"{rng.choice(['min', 'max', 'average'])}(l)"
        if pick < 0.88:
            return f"l[{rng.choice(['0', 'v0', 'length(l) - 1'])}]"
        if pick < 0.9:
            return rng.choice(["q", "w"])  # never assigned, a string
        if pick < 0.95:
            return f"call(extern.decode, {value(depth + 1)})"
        return f"[{value(depth + 1)}, {value(depth + 1)}]"

    def condition() -> str:
        return head() if swept and rng.random() < 0.6 else value()

    def action(depth: int = 0) -> str:
        pick = rng.random()
        if pick < 0.4:
            return f"{rng.choice(['v0', 'v1', 'v2'])} = {value()};"
        if pick < 0.5:
            return f"l = l + {value()};"
        if pick < 0.65:
            if risky and rng.random() < 0.1:
                return f'printf("%d\\n", {value()}, v0);'  # one value too many
            printed = sample() if swept and risky else signal() if swept else "v0"
            return rng.choice([f'printf("%d,", {value()});', f'printf("%b|%s ", {printed}, w);'])
        if pick < 0.85 and depth < 2:
            orelse = f" else {action(depth + 1)}" if rng.random() < 0.5 else ""
            return f"if ({condition()}) {{ {action(depth + 1)} }}{orelse}"
        if pick < 0.9 and swept and sweep_alias:
            return f"if (!made) {{ alias(b, {signal()}); made = 1; }}"
        return "v0 = v0 + 1;"

    begin = ['v0 = 0; v1 = 1; v2 = 2; l = []; w = "ab";']
    begin += ["import(extern);"] if rng.random() < 0.9 else []
    begin += [f"alias({a}, {rng.choice(names)});" for a in aliases]
    begin += [action() for _ in range(rng.randint(0, 2))]
    lines, swept = ["BEGIN: { " + " ".join(begin) + " }"], True
    for _ in range(rng.randint(1, 5)):
        conditions = [head() if rng.random() < 0.7 else value()]
        conditions += [condition() for _ in range(rng.randint(0, 2))]
        actions = " ".join(action() for _ in range(rng.randint(1, 3)))
        lines.append(f"{', '.join(conditions)}: {{ {actions} }}")
    lines.append('END: { printf("%d %d %d %d\\n", v0, v1, v2, length(l)); }')
    return "\n".join(lines) + "\n"


def reading(vcd, text: str, block: int, newline: str | None):
    """`text` as the reader `vcd` reads it, in a form independent of storage."""
    vcd._BLOCK = block
    try:
        wave = vcd.parse_vcd(io.StringIO(text, newline=newline))
    except Exception as err:  # noqa: BLE001 - any error class is compared
        return type(err).__name__, str(err)
    signals = wave.signals
    return list(wave.timestamps), wave.timescale, {
        name: (s.width, list(s.indexes), [s.value_at(i).bits for i in s.indexes],
               min(n for n in signals if signals[n] is s))
        for name, s in signals.items()
    }


def _error(err: Exception) -> tuple:
    return type(err).__name__, str(err), getattr(err, "context", None)


def _variables(env) -> str:
    """The repr of the final variables (a list may hold itself), with no
    limit on the digits of an int."""
    try:
        return repr(env.variables)
    except ValueError:  # past sys.get_int_max_str_digits(), from Python 3.11 on
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return repr(env.variables)
        finally:
            sys.set_int_max_str_digits(limit)


def runs(wawk, dump: str, source: str, window: int) -> tuple:
    """`source` run three times over `dump` by the tree `wawk`: each run's
    stdout, then its final variables' repr or its error."""
    wawk.interp._WINDOW = window
    try:
        wave = wawk.parse_vcd(io.StringIO(dump))
        program = wawk.parse_source(source)
    except Exception as err:  # noqa: BLE001 - any error class is compared
        return ("", _error(err)),
    outcomes = []
    for _ in range(3):
        out = io.StringIO()
        try:
            env = wawk.execute(program, wave, out=out)
        except Exception as err:  # noqa: BLE001
            outcomes.append((out.getvalue(), _error(err)))
        else:
            outcomes.append((out.getvalue(), _variables(env)))
    return tuple(outcomes)


def _child(mode: str, src: str, cases: str, out: str) -> None:
    sys.path.insert(0, src)
    import wawk
    from wawk import vcd

    assert Path(vcd.__file__).resolve().is_relative_to(Path(src).resolve()), vcd.__file__
    with open(cases, "rb") as f:
        cases = pickle.load(f)
    with open(out, "wb") as f:
        if mode == "dumps":
            pickle.dump([reading(vcd, *case) for case in cases], f)
        else:
            pickle.dump([runs(wawk, *case) for case in cases], f)


def _run_all(mode: str, src: Path, cases: list, work: Path, tag: str) -> list:
    given, out = work / f"{tag}.cases", work / f"{tag}.results"
    given.write_bytes(pickle.dumps(cases))
    env = {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0"}
    subprocess.run([sys.executable, "-B", __file__, "--child", mode, str(src), str(given),
                    str(out)], check=True, env=env, cwd=work)
    return pickle.loads(out.read_bytes())


def _compare(opts, mode: str, batches, describe, other: Path, work: Path) -> list | None:
    """This tree's result for every case of `batches` when `opts.against`
    gives the same; None, after printing the first case where it does not
    with `describe(n, case)`."""
    results = []
    for cases in batches:
        ours = _run_all(mode, ROOT / "src", cases, work, "ours")
        theirs = _run_all(mode, other / "src", cases, work, "theirs")
        for case, a, b in zip(cases, ours, theirs):
            if a != b:
                print(f"{describe(len(results), case)}\nthis tree: {a!r}\n{opts.against}: {b!r}")
                return None
            results.append(a)
    return results


def _dumps(opts, rng: random.Random, other: Path, work: Path) -> int:
    batches = ([(random_dump(rng), rng.choice(BLOCKS), rng.choice([None, ""]))
                for _ in range(min(BATCH, opts.dumps - start))]
               for start in range(0, opts.dumps, BATCH))
    results = _compare(opts, "dumps", batches, lambda n, case: (
        f"dump {n} (block {case[1]}, newline={case[2]!r}) reads differently:\n{case[0]!r}"),
        other, work)
    if results is None:
        return 1
    errors = sum(len(a) == 2 for a in results)
    print(f"{opts.dumps} dumps against {opts.against}, seed {opts.seed}: "
          f"{len(results) - errors} same waveform, {errors} same error")
    return 0


def _programs(rng: random.Random, count: int) -> list:
    """`count` (dump, program, window) cases, PROGRAMS_PER_DUMP to a dump."""
    cases = []
    while len(cases) < count:
        dump = random_dump(rng, well_formed=True)
        widths = signal_widths(dump)
        if widths:
            cases += [(dump, random_script(rng, widths), rng.choice(WINDOWS))
                      for _ in range(PROGRAMS_PER_DUMP)]
    return cases[:count]


def _scripts(opts, rng: random.Random, other: Path, work: Path) -> int:
    batches = (_programs(rng, min(BATCH, opts.scripts - start))
               for start in range(0, opts.scripts, BATCH))
    results = _compare(opts, "scripts", batches, lambda n, case: (
        f"program {n} (window {case[2]}) runs differently:\n{case[1]}over\n{case[0]!r}"),
        other, work)
    if results is None:
        return 1
    errors = sum(isinstance(a[-1][1], tuple) for a in results)
    print(f"{opts.scripts} programs against {opts.against}, seed {opts.seed}: "
          f"{len(results) - errors} same end, {errors} same error")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", help="git revision to compare with")
    parser.add_argument("--dumps", type=int, help="random dumps to read (1000 without --scripts)")
    parser.add_argument("--scripts", type=int, help="random programs to run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)
    if opts.child:
        _child(*opts.child)
        return 0
    rng = random.Random(opts.seed)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        other = work / "other"
        other.mkdir()
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", opts.against, "src"],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(other)], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or untar.returncode:
            print(f"cannot extract {opts.against!r} with git archive", file=sys.stderr)
            return 2
        if opts.dumps is None and opts.scripts is None:
            opts.dumps = 1000
        if opts.dumps and _dumps(opts, rng, other, work):
            return 1
        if opts.scripts and _scripts(opts, rng, other, work):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
