"""Reader differential: read random dumps with this tree and another revision.

    python tests/differential.py --against HEAD --dumps 20000 --seed 1

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
Exit code 0 when every dump agrees, 1 when one does not, 2 when the
revision cannot be extracted.
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
BATCH = 500  # dumps read per pair of child processes

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


def _changes(rng: random.Random, widths: dict[str, int], faulty: float) -> list[str]:
    tokens, stamp = [], -1
    ids = list(widths) or ["!"]
    for _ in range(rng.randint(0, 40)):
        pick = rng.random()
        if pick < 0.25:
            step = _choose(rng, _STEPS, faulty) if stamp >= 0 else rng.choice([1, 4])
            if rng.random() < 0.03:
                step = 2**64 - stamp + rng.randint(-1, 2)  # around the end of 64 bits
            stamp += step
            tokens += [f"#{stamp}", "\n"]
        elif pick < 0.6:
            tokens += [rng.choice("0101xzXZ") + rng.choice(ids), "\n"]
        elif pick < 0.8:
            id_code = rng.choice(ids)
            size = rng.randint(1, widths.get(id_code, 1) + (rng.random() < faulty))
            bits = "".join(rng.choice("0011xzXZ") for _ in range(size))
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


def random_dump(rng: random.Random) -> str:
    """A dump of up to a few dozen lines, well-formed about half the time."""
    faulty = rng.choice([0, 0, 0, 0.02, 0.1])
    tokens, widths = _header(rng, faulty)
    tokens += _changes(rng, widths, faulty)
    for _ in range(rng.choice([0, 0, 0, 0, 0, 0, 1, 2])):
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


def _child(src: str, dumps: str, out: str) -> None:
    sys.path.insert(0, src)
    from wawk import vcd

    assert Path(vcd.__file__).resolve().is_relative_to(Path(src).resolve()), vcd.__file__
    with open(dumps, "rb") as f:
        cases = pickle.load(f)
    with open(out, "wb") as f:
        pickle.dump([reading(vcd, *case) for case in cases], f)


def _read_all(src: Path, cases: list, work: Path, tag: str) -> list:
    dumps, out = work / f"{tag}.dumps", work / f"{tag}.readings"
    dumps.write_bytes(pickle.dumps(cases))
    env = {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0"}
    subprocess.run([sys.executable, "-B", __file__, "--child", str(src), str(dumps), str(out)],
                   check=True, env=env, cwd=work)
    return pickle.loads(out.read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", help="git revision to compare with")
    parser.add_argument("--dumps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
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
        same = {"waveform": 0, "error": 0}
        for start in range(0, opts.dumps, BATCH):
            cases = [(random_dump(rng), rng.choice(BLOCKS), rng.choice([None, ""]))
                     for _ in range(min(BATCH, opts.dumps - start))]
            ours = _read_all(ROOT / "src", cases, work, "ours")
            theirs = _read_all(other / "src", cases, work, "theirs")
            for n, (case, a, b) in enumerate(zip(cases, ours, theirs), start):
                if a != b:
                    print(f"dump {n} (block {case[1]}, newline={case[2]!r}) reads differently:"
                          f"\n{case[0]!r}\nthis tree: {a!r}\n{opts.against}: {b!r}")
                    return 1
                same["error" if len(a) == 2 else "waveform"] += 1
    print(f"{opts.dumps} dumps against {opts.against}, seed {opts.seed}: "
          f"{same['waveform']} same waveform, {same['error']} same error")
    return 0


if __name__ == "__main__":
    sys.exit(main())
