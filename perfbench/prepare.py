"""Generate the inputs of one workload and seed, once.

    python3 perfbench/prepare.py WORKLOAD SEED SMALL

Writes .perfbench/inputs/<workload>-seed<seed>[-small]/ with trace.vcd,
the script when the workload has its own, and meta.json: the `wawk run`
arguments, the workload parameters and the exact output the oracle
expects. An existing meta.json is reused. Prints the path of meta.json,
relative to the repository root. Exits 1 if the trace generator's ground
truth disagrees with the instructions it was asked for.

run.py runs this in a process of its own: the parent's peak memory would
otherwise be inherited by every child it starts, and show up in the
children's peak RSS.
"""

import json
import os
import shutil
import sys
import time
from pathlib import Path

from wawk.tracegen import generate

from workloads import OracleError, expected_output, make_case

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / ".perfbench" / "inputs"
CACHED_INPUTS = 8  # a wide trace is about 11 MB


def prepare(workload: str, seed: int, small: bool) -> Path:
    folder = INPUTS / f"{workload}-seed{seed}{'-small' if small else ''}"
    meta_path = folder / "meta.json"
    if meta_path.exists():
        os.utime(meta_path)
        return meta_path

    folder.mkdir(parents=True, exist_ok=True)
    case = make_case(workload, seed, small)
    started = time.perf_counter()
    text, truth = generate(case.spec)
    generate_s = time.perf_counter() - started
    vcd = folder / "trace.vcd"
    vcd.write_text(text, encoding="ascii")
    script = case.script
    if not script.startswith("@"):
        (folder / "script.wawk").write_text(script, encoding="utf-8")
        script = str((folder / "script.wawk").relative_to(ROOT))
    meta = {
        "workload": workload,
        "seed": seed,
        "small": small,
        "vcd": str(vcd.relative_to(ROOT)),
        "argv": [script, str(vcd.relative_to(ROOT)), *case.args],
        "bytes": len(text),
        "index_count": truth.index_count,
        "instructions": len(case.spec.instructions),
        "dummy_signals": case.spec.dummy_signals,
        "mnemonic": case.mnemonic,
        "executions": case.executions,
        "generate_s": generate_s,
        "expected": expected_output(workload, case, truth),
    }
    partial = folder / "meta.json.partial"
    partial.write_text(json.dumps(meta))
    partial.replace(meta_path)

    # keep the most recently used inputs only
    folders = sorted(
        (p for p in INPUTS.iterdir() if (p / "meta.json").exists()),
        key=lambda p: (p / "meta.json").stat().st_mtime,
    )
    for old in folders[:-CACHED_INPUTS]:
        shutil.rmtree(old)
    return meta_path


if __name__ == "__main__":
    workload, seed, small = sys.argv[1:]
    try:
        path = prepare(workload, int(seed), small == "1")
    except OracleError as err:
        print(f"prepare: {err}", file=sys.stderr)
        sys.exit(1)
    print(path.relative_to(ROOT))
