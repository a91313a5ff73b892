"""wawk benchmark: one `wawk run` at a time, as a user runs it.

    python3 perfbench/run.py --workload cpi_all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root. For each workload and seed the inputs are
generated once and cached under .perfbench/inputs/, outside every timed
region. A run is a closed loop with one caller: it starts `wawk run` as a
fresh process, waits for it to exit and checks its output against the
oracle, then starts the next, for at least --seconds seconds and at
least three rounds (two when tracing).

--trace 0 reports the end-to-end metrics. Each round also times the two
load calls in a fresh process (setup_child.py).

Both children time themselves with hostclock.py: `wawk run` is started
as `python perfbench/hostclock.py SAMPLES -m wawk run ...`, which runs
the CLI as `python -m wawk` does, under a sampler of the host's speed.
Reported times are that wall time corrected to a fixed host speed (see
hostclock.py); the raw wall times go to the result file.

--trace 1 reports the per-layer metrics. Each round also runs traced.py,
which runs the same command in-process with spans around the calls into
each module; the tracing overhead is its total minus the raw wall time
of the untraced run.

The last line of stdout is one JSON object; a full record, with the
Python version, git revision, CPU count, workload parameters and the
spans of the last traced round, goes to .perfbench/results/. Every
metric name must be declared in BENCHMARK.json. Exit code 0 when every
output matched its oracle, 1 when one did not, 2 for unusable
arguments or a checkout without the wawk sources.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2  # a traced round of cpi_wide takes about half a minute


def declared() -> dict:
    """From BENCHMARK.json: {"workloads": [name, ...], "end_to_end":
    {name: unit}, "per_layer": {name: unit}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    return {"workloads": [w["name"] for w in spec["workloads"]], **metrics}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> tuple[float, float, float, int, str, str]:
    """Run argv from the repository root until it exits. Returns the
    time.perf_counter() of its launch and of its exit, the child's peak
    RSS in MB, its exit code, stdout and stderr."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / "child-stderr.txt", "w+b") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        return (started, ended, usage.ru_maxrss / 1024, proc.returncode,
                out.decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))


def measure(meta: dict, seconds: float, trace: bool) -> dict:
    """Closed loop with one caller: rounds of one untraced `wawk run`
    plus one setup sample (or, when tracing, one traced run)."""
    python = sys.executable
    samples_path = WORK / "hostclock-samples.txt"
    cli = [python, str(BENCH / "hostclock.py"), str(samples_path), "-m", "wawk", "run",
           *meta["argv"]]
    input_dir = str(Path(meta["vcd"]).parent)
    samples: dict[str, list] = {
        "run_s": [], "run_wall_s": [], "peak_rss_mb": [], "setup_s": [], "setup_wall_s": [],
        "traced": [],
    }
    failures: list[str] = []
    attempted = 0

    run_child([python, "-m", "wawk", "decode", "0x13"])  # warm-up: bytecode and file caches
    started = time.perf_counter()
    rounds = 0
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        rounds += 1
        samples_path.unlink(missing_ok=True)
        launched, exited, rss, code, out, err = run_child(cli)
        attempted += 1
        if code != 0 or out != meta["expected"]:
            verdict = "matches" if out == meta["expected"] else "differs from the oracle"
            failures.append(f"wawk run exited {code}, output {verdict}: {err.strip()[-300:]}")
            continue
        try:
            with open(samples_path, encoding="ascii") as f:
                host = [tuple(map(float, line.split())) for line in f]
            run_s, wall = hostclock.scaled(host, launched, exited)
        except (OSError, ValueError) as error:
            failures.append(f"wawk run left no usable host-speed samples: {error}")
            continue
        samples["run_s"].append(run_s)
        samples["run_wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss)

        attempted += 1
        if trace:
            _, _, _, code, out, err = run_child(
                [python, str(BENCH / "traced.py"), input_dir, repr(time.time())]
            )
            report = json.loads(out.splitlines()[-1]) if code == 0 and out else None
            if report is None:
                failures.append(f"traced run exited {code}: {err.strip()[-300:]}")
                continue
            failures += report["failures"]
            report["untraced_run_s"] = wall
            samples["traced"].append(report)
        else:
            _, _, _, code, out, err = run_child(
                [python, str(BENCH / "setup_child.py"), meta["argv"][0], meta["vcd"]]
            )
            loaded = json.loads(out.splitlines()[-1]) if code == 0 and out else None
            if loaded is None or loaded["index_count"] != meta["index_count"]:
                failures.append(f"setup child exited {code} or loaded a wrong index count: "
                                f"{err.strip()[-300:]}")
                continue
            samples["setup_s"].append(loaded["setup_s"])
            samples["setup_wall_s"].append(loaded["setup_wall_s"])
    return {"samples": samples, "attempted": attempted, "failures": failures}


def end_to_end(meta: dict, samples: dict) -> dict[str, float]:
    run_s = statistics.median(samples["run_s"])
    return {
        "run_s": run_s,
        "setup_s": statistics.median(samples["setup_s"]),
        "throughput_midx_s": meta["index_count"] * meta["executions"] / run_s / 1e6,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }


def per_layer(samples: dict, failures: list[str]) -> dict[str, float]:
    reports = samples["traced"]
    metrics = {
        name: statistics.median(r["times"][name] for r in reports) for name in reports[0]["times"]
    }
    for name, value in reports[0]["counts"].items():
        if any(r["counts"][name] != value for r in reports):
            failures.append(f"count {name} differs between traced rounds")
        metrics[name] = value
    # each traced run against the untraced run of the same round, so that
    # both see the machine in the same state
    metrics["trace.overhead_s"] = statistics.median(
        r["traced_total_s"] - r["untraced_run_s"] for r in reports
    )
    return metrics


def environment() -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "hostclock_reference_s": hostclock.REFERENCE_S,
        "hostclock_period_s": hostclock.PERIOD_S,
        # children inherit this as a floor on their peak RSS
        "parent_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Prepare, measure and check one workload. Returns the result line
    (the four contract keys) plus the full record under "record"."""
    units = declared()["per_layer" if trace else "end_to_end"]
    _, _, _, code, out, err = run_child(
        [sys.executable, str(BENCH / "prepare.py"), workload, str(seed), str(int(small))]
    )
    if code != 0:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "record": {"failures": [f"prepare exited {code}: {err.strip()[-300:]}"]}}
    meta = json.loads((ROOT / out.strip()).read_text())
    measured = measure(meta, seconds, trace)
    failures = measured["failures"]
    samples = measured["samples"]
    metrics = {}
    if samples["traced" if trace else "setup_s"]:
        metrics = per_layer(samples, failures) if trace else end_to_end(meta, samples)
        if set(metrics) != set(units):
            raise RuntimeError(
                f"metrics {sorted(set(metrics) ^ set(units))} are not declared in "
                "BENCHMARK.json, or declared but not measured"
            )
    record = {
        "environment": environment(),
        "workload": {k: v for k, v in meta.items() if k != "expected"},
        "trace": trace,
        "seconds": seconds,
        "units": units,
        "samples": {k: v for k, v in samples.items() if k != "traced"},
        "failures": failures,
        "spans": samples["traced"][-1]["spans"] if samples["traced"] else [],
    }
    return {
        "correct": not failures and bool(metrics),
        "attempted": measured["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "record": record,
    }


def _print_summary(workload: str, result: dict) -> None:
    record = result["record"]
    params = record.get("workload", {})
    print(f"{workload}: seed {params.get('seed')}, {params.get('index_count')} indexes, "
          f"{params.get('bytes')} bytes, {params.get('instructions')} instructions, "
          f"script args {params.get('argv', [])[2:]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:24} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'ops_failed':24} {result['failed'] / result['attempted']:14.6g} "
          f"({result['failed']} of {result['attempted']})")
    for failure in record["failures"][:5]:
        print(f"  FAILED: {failure}")


def _result_line(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def _save(workload: str, seed: int, trace: bool, result: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps({"result": _result_line(result), **result["record"]}, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = declared()["workloads"]
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # exit through the `finally` in run_child, which stops a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "wawk" / "cli.py").is_file():
        print(f"perfbench: no wawk sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = workloads if opts.workload == "all" else [opts.workload]
    results = {}
    for name in names:
        result = run_workload(name, opts.seed, opts.seconds, bool(opts.trace))
        _save(name, opts.seed, bool(opts.trace), result)
        _print_summary(name, result)
        results[name] = result
    if opts.workload == "all":
        units = declared()["per_layer" if opts.trace else "end_to_end"]
        print("workload    " + "  ".join(f"{n} ({u})" for n, u in units.items()) + "  ops_failed")
        for name, result in results.items():
            values = "  ".join(f"{result['metrics'].get(n, {}).get('value', float('nan')):.6g}" for n in units)
            print(f"{name:11} {values}  {result['failed']}/{result['attempted']}")
    else:
        print(json.dumps(_result_line(results[opts.workload])))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
