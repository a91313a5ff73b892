"""One traced `wawk run`: the CLI's own code path, in-process, with spans
around the calls it makes into each module.

    python3 perfbench/traced.py INPUT_DIR LAUNCH_WALL

INPUT_DIR is a prepared input directory (see run.py); LAUNCH_WALL is the
`time.time()` at which the parent started this process. Prints one JSON
object: per-layer times and counts, the spans, and whether the output
matched the oracle.

Spans wrap functions that `wawk.cli` and `wawk.parser` look up by name,
so nothing under src/ changes. The benchmark's own counting (changes
stored, distinct values, the timed `value_at` pass) runs inside the
`bench.analysis` span, whose time is taken out of the traced total. The
trace is regenerated after the run, timed as `tracegen.generate`, and
both the file and the values read are checked against it.
"""

import io
import json
import resource
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from wawk import cli, parser, tracegen
from wawk.interp import default_native_modules, execute
from wawk.lexer import tokenize
from wawk.parser import parse_program, parse_source
from wawk.vcd import parse_vcd_file

import workloads


class Tracer:
    """Spans kept in memory: (id, name, parent id, start, end) in seconds
    since the tracer was created."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, layer: str) -> float:
        """Time inside `layer`'s spans not covered by their child spans."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - children.get(s["id"], 0.0)
            for s in self.spans
            if s["name"].split(".", 1)[0] == layer
        )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def analyse(waveform, case: workloads.Case) -> dict:
    """Counts of what the reader stored, and a timed pass of
    SignalSeries.value_at over every index of the script's signals. The
    bits read are kept, as one string per signal, for the oracle check
    after the run."""
    series = list({id(s): s for s in waveform.signals.values()}.values())
    n = waveform.index_count
    elapsed, bits = 0.0, {}
    for name in case.signals:
        value_at = waveform.series(name).value_at
        started = time.perf_counter()
        values = [value_at(i) for i in range(n)]
        elapsed += time.perf_counter() - started
        bits[name] = "".join(v.bits for v in values)
    return {
        "vcd.signals_declared": len(waveform.signals),
        "vcd.changes_stored": sum(len(s.indexes) for s in series),
        "vcd.distinct_values": len({id(v) for s in series for v in s.values}),
        "waveform.index_count": n,
        "waveform.value_at_ns": elapsed / (n * len(case.signals)) * 1e9,
        "bits": bits,
    }


def main(input_dir: str, launch_wall: str) -> None:
    started_wall = time.time()
    meta = json.loads((Path(input_dir) / "meta.json").read_text())
    case = workloads.make_case(meta["workload"], meta["seed"], meta["small"])
    tracer = Tracer()
    failures = []
    facts: dict = {}

    def traced_tokenize(source):
        tokens = tracer.wrap(tokenize, "lexer.tokenize")(source)
        facts["lexer.tokens"] = len(tokens)
        return tokens

    def traced_parse_program(tokens):
        program = tracer.wrap(parse_program, "parser.parse_program")(tokens)
        facts["parser.statements"] = len(program.statements)
        return program

    def traced_parse_vcd_file(path):
        before = _peak_rss_mb()
        waveform = tracer.wrap(parse_vcd_file, "vcd.parse_vcd_file")(path)
        facts["vcd.rss_growth_mb"] = _peak_rss_mb() - before
        facts["vcd.bytes"] = Path(path).stat().st_size
        with tracer.span("bench.analysis"):
            facts.update(analyse(waveform, case))
        return waveform

    modules = default_native_modules()
    modules["extern"]["decode"] = tracer.wrap(modules["extern"]["decode"], "riscv.decode")

    def traced_execute(program, waveform, args=(), out=None):
        with tracer.span("interp.execute"):
            return execute(program, waveform, args=args, out=out, modules=modules)

    parser.tokenize = traced_tokenize
    parser.parse_program = traced_parse_program
    cli.parse_source = tracer.wrap(parse_source, "parser.parse_source")
    cli.parse_vcd_file = traced_parse_vcd_file
    cli.execute = traced_execute

    out = io.StringIO()
    with redirect_stdout(out), tracer.span("cli.main"):
        code = cli.main(["run", *meta["argv"]])
    run_s = tracer.total("cli.main") - tracer.total("bench.analysis")
    startup_s = started_wall - float(launch_wall)

    if code != 0:
        failures.append(f"wawk run exited {code}")
    if out.getvalue() != meta["expected"]:
        failures.append("wawk run output differs from the oracle")

    # input preparation, after the run so that its memory does not hide
    # the reader's in vcd.rss_growth_mb
    with tracer.span("tracegen.generate"):
        text, truth = tracegen.generate(case.spec)
    generated_bytes = len(text)
    if text != Path(meta["vcd"]).read_text(encoding="ascii"):
        failures.append("tracegen: the trace differs from the one generated before")
    for name, bits in facts.pop("bits", {}).items():
        if bits != "".join(truth.expected_bits(name, i) for i in range(truth.index_count)):
            failures.append(f"value_at: the values of {name} differ from the oracle")

    executions = tracer.count("interp.execute")
    execute_s = tracer.total("interp.execute")
    parse_s = tracer.total("vcd.parse_vcd_file")
    swept = executions * facts.get("waveform.index_count", 0)
    times = {
        "cli.self_s": tracer.self_time("cli"),
        "lexer.self_s": tracer.self_time("lexer"),
        "parser.parse_source_s": tracer.total("parser.parse_source"),
        "parser.self_s": tracer.self_time("parser"),
        "vcd.parse_s": parse_s,
        "vcd.mb_per_s": facts.get("vcd.bytes", 0) / 2**20 / parse_s if parse_s else 0.0,
        "vcd.rss_growth_mb": facts.get("vcd.rss_growth_mb", 0.0),
        "interp.execute_s": execute_s,
        "interp.self_s": tracer.self_time("interp"),
        "interp.ns_per_index": execute_s / swept * 1e9 if swept else 0.0,
        "waveform.value_at_ns": facts.get("waveform.value_at_ns", 0.0),
        "riscv.decode_s": tracer.total("riscv.decode"),
        "tracegen.generate_s": tracer.total("tracegen.generate"),
    }
    counts = {
        name: facts.get(name, 0)
        for name in (
            "lexer.tokens",
            "parser.statements",
            "vcd.bytes",
            "vcd.signals_declared",
            "vcd.changes_stored",
            "vcd.distinct_values",
            "waveform.index_count",
        )
    }
    counts.update({
        "interp.executions": executions,
        "interp.indexes_swept": swept,
        "riscv.decode_calls": tracer.count("riscv.decode"),
        "tracegen.bytes": generated_bytes,
        "trace.spans": len(tracer.spans),
    })
    print(json.dumps({
        "failures": failures,
        "times": times,
        "counts": counts,
        # launch to the end of cli.main, less the benchmark's own work
        "traced_total_s": startup_s + run_s,
        "spans": tracer.spans,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
