"""Self-test of the benchmark on small inputs (about a minute).

    python3 perfbench/selftest.py

Runs every workload on a shrunken trace, untraced and traced, and
checks that:
  - every output matched its oracle;
  - the metric names emitted are exactly those BENCHMARK.json declares;
  - the layer counts repeat exactly for the same seed;
  - a wrong expected output is caught by the oracle;
  - hostclock leaves a span at the reference speed as it is, less the
    samples inside it, and halves one at half the speed;
  - run.py refuses to run where the wawk sources are missing.
Exit code 0 when all checks pass, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys

import hostclock
import run

SEED = 5
REPEATED_COUNTS = (
    "vcd.changes_stored",
    "vcd.distinct_values",
    "lexer.tokens",
    "interp.indexes_swept",
    "riscv.decode_calls",
)


def main() -> int:
    failed = []

    def check(ok: bool, what: str) -> None:
        print(f"[selftest] {what}: {'ok' if ok else 'FAILED'}", flush=True)
        if not ok:
            failed.append(what)

    declared = run.declared()
    for workload in declared["workloads"]:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(workload, SEED, 0.0, trace, small=True)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={int(trace)} matches its oracle")
            check(set(result["metrics"]) == set(declared[kind]),
                  f"{workload} trace={int(trace)} emits exactly the declared {kind} metrics")
            if trace:
                again = run.run_workload(workload, SEED, 0.0, trace, small=True)
                check(all(result["metrics"][n] == again["metrics"][n] for n in REPEATED_COUNTS),
                      f"{workload} layer counts repeat for seed {SEED}")

    meta_path = run.WORK / "inputs" / f"cpi_wide-seed{SEED}-small" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["expected"] = meta["expected"].replace(":", ";", 1)
    check(run.measure(meta, 0.0, False)["failures"] != [], "a wrong answer is counted as failed")

    ref = hostclock.REFERENCE_S
    at_speed = hostclock.scaled([(0.0, ref), (1.0, ref)], -0.5, 1.5)
    slow = hostclock.scaled([(0.0, 2 * ref), (1.0, 2 * ref)], -0.5, 1.5)
    check(abs(at_speed[0] - (2.0 - 2 * ref)) < 1e-9 and abs(slow[0] - (1.0 - 2 * ref)) < 1e-9
          and abs(at_speed[1] - slow[1] - 2 * ref) < 1e-9, "hostclock scales spans by the host's speed")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "cpi_all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "without the wawk sources, run.py exits non-zero and prints no result")

    print(f"[selftest] {'all checks passed' if not failed else f'{len(failed)} check(s) failed'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
