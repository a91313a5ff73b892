"""Value change dump parser.

Covers the plain-text subset that simulator frontends like Verilator and
Icarus actually emit: $timescale/$scope/$var/$upscope/$enddefinitions
headers; module, begin, task, function and fork scopes; every IEEE 1364
bit-vector variable type (wire, reg, integer, logic, parameter, time,
tri, tri0, tri1, triand, trior, trireg, supply0, supply1, wand and wor),
with an optional range that may hold spaces (`[7 : 0]`) and is dropped
from the name; `#` timestamps; scalar and binary vector changes;
$dumpvars, $dumpoff, $dumpon and $dumpall blocks, whose changes apply at
the current index; and skipped $comment/$date/$version blocks. Real (`r`)
changes, event, real and realtime variables, and other scope types are
rejected rather than guessed at.

Every `#` directive opens a new index on the time axis, even if no change
follows it; changes before the first `#` belong to index 0, and repeated
changes for one signal at the same index keep the last one. A vector
change is stored as the dump wrote it, with its id code's declared width
(see wawk.waveform for the extension rule). A $var may be at most MAX_WIDTH
(65,536) bits wide, and names that share an id code share one SignalSeries.
A 1-bit series stores one byte per change (see SignalSeries). The time
axis is kept in array('I'), widens once to array('Q') at the first
timestamp past 2**32 - 1, and turns into a list at the first past
2**64 - 1. Each series' change indexes stay array('I') until one of its
changes lands past index 2**32 - 1; the token loop then widens that
series to array('Q'), as it widens the axis.

The whole dump is read a block of _BLOCK characters at a time, split
into lines on "\\n", the only line end left by the universal newlines of
every stream wawk opens, and one token loop reads the header and then the
changes; directives may span lines. Past the header, a line that sets a
1-bit id code to 0 or 1 (`1!`) is looked up whole in a table built at
$enddefinitions, and a line that is one increasing timestamp of at most
19 digits (`#40`) is stepped directly. Any other line, a fast-path line
whose append overflows an array('I'), and every line inside a
$comment-style block or after a vector that waits for its id code go
through the token loop: the reference reading, the one place an array
widens, and the one that raises every error. No fast path takes a line
that starts with a blank, so the tests read a dump through the token
loop alone by indenting its lines.
"""

from array import array
from collections.abc import Iterator
from operator import length_hint

from .errors import VcdError, quote
from .waveform import BIT_CHARS, CODES, SignalSeries, Value, Waveform

_TIME_UNITS = ("fs", "ps", "ns", "us", "ms", "s")
_SCOPE_TYPES = ("module", "begin", "task", "function", "fork")
_VAR_TYPES = ("wire", "reg", "integer", "logic", "parameter", "time", "tri", "tri0", "tri1",
              "triand", "trior", "trireg", "supply0", "supply1", "wand", "wor")
_SKIP_DIRECTIVES = ("$comment", "$date", "$version")
_HEADER_DIRECTIVES = ("$enddefinitions", "$timescale", "$scope", "$upscope", "$var",
                      *_SKIP_DIRECTIVES)
_DUMP_BLOCKS = ("$dumpvars", "$dumpoff", "$dumpon", "$dumpall", "$end")
# widest $var accepted: the smallest vector-length limit IEEE 1364 lets a tool set
MAX_WIDTH = 65536
_BLOCK = 1 << 13  # characters read at a time from the dump


def _blocks(stream) -> Iterator[tuple[int, list[str]]]:
    """Every line of `stream` without its "\\n", in blocks of (number of
    the first line, lines), read _BLOCK characters at a time. A block inside
    a long line yields it up to its last space or tab, under its number."""
    first, tail, more, read = 1, "", [], stream.read
    while chunk := read(_BLOCK):
        if "\n" not in chunk:
            cut = max(chunk.rfind(" "), chunk.rfind("\t"))
            if cut < 0:  # joined once, where a blank or the line end comes
                more.append(chunk)
                continue
            yield first, [tail + "".join(more) + chunk[:cut]]  # read as that blank
            tail, more = chunk[cut + 1 :], []
            continue
        lines = (tail + "".join(more) + chunk).split("\n")
        tail, more = lines.pop(), []  # a partial line waits for the next block
        yield first, lines
        first += len(lines)
    if tail := tail + "".join(more):  # the last line has no "\n"
        yield first, [tail]


def ascii_int(text: str, base: int = 10) -> int | None:
    """`text` as an int when it is only ASCII digits of `base`, after an
    optional 0x or 0X in base 16; else None. int() alone also takes '1_0',
    '+11', ' 5' and digits such as '٣', and str.isdigit() takes '²'."""
    try:  # int() rejects more digits than sys.get_int_max_str_digits()
        return int(text, base) if text.isascii() and text.isalnum() else None
    except ValueError:
        return None


def _is_range(text: str) -> bool:
    return text.startswith("[") and text.endswith("]")


def _parse_timescale(parts: list[str], line: int) -> tuple[int, str]:
    text = "".join(parts)
    digits = text.rstrip("".join(_TIME_UNITS))
    unit = text[len(digits) :]
    magnitude = ascii_int(digits)
    if unit not in _TIME_UNITS or magnitude is None:
        raise VcdError(f"invalid $timescale {quote(' '.join(parts))}", line)
    return magnitude, unit


def _line_table(ids: dict[str, SignalSeries]) -> dict[str, tuple[array, bytearray, int]]:
    """The text of each line that sets a 1-bit id code to 0 or 1, such as
    "0!", mapped to that id code's indexes and values and the code set."""
    return {
        f"{c}{id_code}": (series.indexes, series.values, CODES[c])
        for id_code, series in ids.items()
        if series.width == 1
        for c in "01"
    }


def _parse_scope(parts: list[str], line: int, scope_path: list[str]) -> None:
    if len(parts) != 2:
        raise VcdError(f"malformed $scope {quote(' '.join(parts))}", line)
    scope_type, name = parts
    if scope_type not in _SCOPE_TYPES:
        raise VcdError(f"unsupported scope type {quote(scope_type)}", line)
    scope_path.append(name)


def _parse_var(parts: list[str], line: int, scope_path: list[str], ids: dict[str, SignalSeries],
               signals: dict[str, SignalSeries], ranges: dict[str, str]) -> None:
    # $var <type> <width> <id> <name> [<range>] $end; the range may hold spaces
    selected = "".join(parts[4:])  # the range, or ""; it is dropped from the name
    if len(parts) < 4 or (len(parts) > 5 and not _is_range(selected)):
        raise VcdError(f"malformed $var {quote(' '.join(parts))}", line)
    var_type, width_text, id_code, short_name = parts[:4]
    if var_type not in _VAR_TYPES:
        raise VcdError(f"unsupported variable type {quote(var_type)}", line)
    width = ascii_int(width_text)
    if width is None or width < 1:
        raise VcdError(f"invalid $var width {quote(width_text)}", line)
    if width > MAX_WIDTH:
        shown = width_text if len(width_text) <= 64 else quote(width_text)
        raise VcdError(f"$var width {shown} is over the limit of {MAX_WIDTH} bits", line)
    if len(parts) == 5 and not _is_range(parts[4]):
        raise VcdError(f"unexpected trailing token {quote(parts[4])} in $var", line)
    name = ".".join(scope_path + [short_name])
    if name in signals:
        was = ranges[name]
        selects = f" for bit-selects {was} and {selected}" if was and selected else ""
        raise VcdError(f"duplicate signal name {quote(name)}{selects}", line)
    ranges[name] = selected
    series = ids.setdefault(id_code, SignalSeries(width, array("I"), []))
    if series.width != width:
        raise VcdError(
            f"id code {quote(id_code)} re-declared with width {width}, was {series.width}", line)
    signals[name] = series


def parse_vcd(stream) -> Waveform:
    """Parse a dump from a text stream into a Waveform. The stream is read
    only through read(), and one token loop reads the header and then the
    changes. Lines end at "\\n", as in a stream opened with universal
    newlines, open()'s default; with newline="", a lone "\\r" ends no line."""
    timescale: tuple[int, str] | None = None
    scope_path: list[str] = []
    # id code -> its series; hierarchical name -> the series of its id code
    ids: dict[str, SignalSeries] = {}
    signals: dict[str, SignalSeries] = {}
    ranges: dict[str, str] = {}  # hierarchical name -> the range after it, or ""
    # 32-bit words, then 64-bit, while every stamp fits; a list from the first that does not
    timestamps: array | list[int] = array("I")
    header = True  # until $enddefinitions $end
    name, parts = None, []  # the directive open, if any; its tokens, in the header
    # filled in place at $enddefinitions, so the rest of that block reads it too
    table: dict[str, tuple[array, bytearray, int]] = {}
    vector_bits: str | None = None
    # past the header with no directive open and no vector waiting: the fast
    # paths apply (not to the rest of the $enddefinitions line)
    fast = False
    line = 0
    cur = 0  # index of the latest '#', and 0 before the first one
    last = -1  # the latest timestamp; every timestamp read is >= 0

    def store(bits: str, id_code: str, line: int) -> None:
        series = ids.get(id_code)
        if series is None:
            raise VcdError(f"undeclared id code {quote(id_code)}", line)
        width = series.width
        if len(bits) > width:
            raise VcdError(f"{len(bits)}-bit value for {width}-bit id code {quote(id_code)}", line)
        value = CODES[bits] if width == 1 else Value(bits, width)
        indexes = series.indexes
        if indexes and indexes[-1] == cur:
            series.values[-1] = value  # same-index rewrite: last one wins
            return
        try:
            indexes.append(cur)
        except OverflowError:  # past 2**32 - 1 in array('I'): this series widens
            series.indexes = array("Q", indexes)
            series.indexes.append(cur)
            table.update(_line_table({id_code: series}))
        series.values.append(value)

    for first, lines in _blocks(stream):
        # a line is numbered only off the fast path, from the lines left after it
        rest, end = iter(lines), first + len(lines) - 1
        for raw, entry in zip(rest, map(table.get, lines)):
            if fast:  # a whole-line scalar change, or a timestamp that increases
                if entry is not None:
                    indexes, values, value = entry
                    if indexes and indexes[-1] == cur:
                        values[-1] = value
                        continue
                    try:
                        indexes.append(cur)
                        values.append(value)
                        continue
                    except OverflowError:  # past 2**32 - 1: store() widens in the token loop
                        pass
                if raw[:1] == "#":
                    digits = raw[1:]
                    # up to 19 digits, below 2**64; longer stamps take the token loop
                    if len(digits) < 20 and digits.isascii() and digits.isdigit():
                        t = int(digits)
                        if t > last:
                            cur = len(timestamps)
                            try:
                                timestamps.append(t)
                                last = t
                                continue
                            except OverflowError:  # past 2**32 - 1: the token loop widens
                                pass
            line = end - length_hint(rest)
            for tok in raw.split():
                if name is not None:  # up to the directive's $end
                    if tok != "$end":
                        if header:  # a change-region $comment's text is dropped
                            parts.append(tok)
                        continue
                    if parts and name in ("$enddefinitions", "$upscope"):
                        raise VcdError(f"unexpected tokens in {name}", line)
                    if name == "$enddefinitions":
                        if scope_path:
                            raise VcdError("unclosed $scope", line)
                        header = False
                        table.update(_line_table(ids))
                    elif name == "$timescale":
                        timescale = _parse_timescale(parts, line)
                    elif name == "$scope":
                        _parse_scope(parts, line, scope_path)
                    elif name == "$upscope":
                        if not scope_path:
                            raise VcdError("$upscope without matching $scope", line)
                        scope_path.pop()
                    elif name == "$var":
                        _parse_var(parts, line, scope_path, ids, signals, ranges)
                    name = None
                    continue
                if vector_bits is not None:
                    store(vector_bits, tok, line)
                    vector_bits = None
                    continue
                c = tok[0]
                if header:
                    if tok not in _HEADER_DIRECTIVES:
                        what = "unsupported directive" if c == "$" else "unexpected token"
                        raise VcdError(f"{what} {quote(tok)} in header", line)
                    name, parts = tok, []
                elif c == "#":
                    t = ascii_int(tok[1:])
                    if t is None:
                        raise VcdError(f"invalid timestamp {quote(tok)}", line)
                    if t <= last:
                        message = f"timestamp #{t} does not increase (previous #{last})"
                        raise VcdError(message, line)
                    cur = len(timestamps)
                    try:
                        timestamps.append(t)
                    except OverflowError:  # past 2**32 - 1 in array('I'), or past 2**64 - 1
                        timestamps = array("Q", timestamps) if t < 1 << 64 else [*timestamps]
                        timestamps.append(t)
                    last = t
                elif c in "01xzXZ" and len(tok) > 1:
                    store(c.lower(), tok[1:], line)
                elif c in "bB":
                    bits = tok[1:].lower()
                    if not bits or not BIT_CHARS.issuperset(bits):
                        raise VcdError(f"invalid vector value {quote(tok)}", line)
                    vector_bits = bits
                elif c in "rR":
                    raise VcdError(f"real-number change {quote(tok)} is not supported", line)
                elif tok in _DUMP_BLOCKS:
                    pass  # a dump block's changes apply at the current index
                elif tok in _SKIP_DIRECTIVES:
                    name = tok
                elif c == "$":
                    raise VcdError(f"unsupported directive {quote(tok)} in change region", line)
                else:
                    raise VcdError(f"unrecognized token {quote(tok)} in change region", line)
            fast = not header and name is None and vector_bits is None
    if header and name is None:
        raise VcdError("missing $enddefinitions", line)
    if name is not None:
        raise VcdError(f"unexpected end of file in {name}" if header
                       else "unterminated directive block at end of file", line)
    if vector_bits is not None:
        raise VcdError("vector value at end of file has no id code", line)

    if not timestamps:  # no index to hold the changes
        for series in ids.values():
            del series.indexes[:]
            series.values.clear()
    return Waveform(timestamps, signals, timescale)


def parse_vcd_file(path) -> Waveform:
    with open(path, "r", encoding="ascii", errors="replace") as f:
        return parse_vcd(f)
