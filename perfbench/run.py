"""snsqp benchmark: end-to-end and per-layer metrics of fixed-budget solver runs.

Usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each measured run is a fresh process
(child.py) that imports the solver from ``src/``, solves the workload once
for its oracle-call budget, writes the trace CSVs and checks them.  Runs go
one at a time, with BLAS pinned to one thread, until ``--seconds`` is spent
(at least MIN_RUNS of them); each metric is the median over the runs.

The speed of a core on a shared machine changes by up to 2x within seconds
and stays changed for seconds to minutes: over ten 40-second invocations
the quartile spread of the median wall time reached 56%.  So each run
also times a fixed calibration kernel (child.calibration_kernel) just before
and just after its solve, and every time it reports (setup_s, wall_s,
oracle_calls_per_s and the per-layer times) is scaled by
CAL_REF_S / kernel time: it is the time on a reference machine where the
kernel takes CAL_REF_S.  The measured times are kept in result.json as
raw_setup_s and raw_wall_s.

--trace 0 reports the end-to-end metrics of untraced runs.  --trace 1
alternates traced and untraced runs and reports the per-layer metrics of the
traced ones, with the tracing overhead (traced minus untraced median wall
time).  Every run of one invocation uses the same seed, so their trace CSVs
must match byte for byte, and traced runs must agree exactly on the counts in
spans.EXACT_COUNTS.

A table goes to standard output first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full record, with the
environment and every run, is written to .perfbench_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import WORKLOADS  # noqa: E402
from spans import EXACT_COUNTS  # noqa: E402

MIN_RUNS = 3
#: calibration kernel time on the reference machine
CAL_REF_S = 0.1
CHILD_TIMEOUT_S = 30
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def spawn(workload: str, seed: int, run_dir: Path, traced: bool = False,
          warmup: bool = False) -> dict:
    """Run child.py once; returns its record with setup_s and scaled times, or the failure."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(run_dir)]
    cmd += ["--trace"] * traced + ["--warmup"] * warmup
    env = dict(os.environ, **BLAS_THREADS)
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "errors": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if warmup:
        return {"errors": [] if proc.returncode == 0 else [proc.stderr[-2000:]]}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"errors": []}
    if proc.returncode != 0 or "t_ready_ns" not in record:
        return {"traced": traced,
                "errors": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    record["traced"] = traced
    speed = CAL_REF_S / record["kernel_s"]
    record["raw_setup_s"] = (record.pop("t_ready_ns") - spawned) / 1e9
    record["raw_wall_s"] = record["wall_s"]
    record["setup_s"] = record["raw_setup_s"] * speed
    record["wall_s"] *= speed
    for name in record["layers"] or ():
        if name.endswith("_s"):
            record["layers"][name] *= speed
    return record


def cross_check(runs: list) -> None:
    """Mark runs that disagree with the first good run of the invocation.

    All runs share one seed, so trace bytes and the final stationarity must be
    identical, and traced runs must repeat every exact count.
    """
    good = [r for r in runs if not r["errors"]]
    if not good:
        return
    first = good[0]
    first_traced = next((r for r in good if r["traced"]), None)
    for run in good[1:]:
        if run["trace_sha256"] != first["trace_sha256"]:
            run["errors"].append("trace CSV sha256 differs from the first run")
        if run["final_stationarity"] != first["final_stationarity"]:
            run["errors"].append("final_stationarity differs from the first run")
        if run["traced"] and run is not first_traced:
            for name in EXACT_COUNTS:
                if run["layers"][name] != first_traced["layers"][name]:
                    run["errors"].append(f"{name} differs between traced runs")


def environment(runs: list) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
           "python": platform.python_version(), **versions,
           "blas_threads": BLAS_THREADS, "git_commit": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(runs: list) -> dict:
    untraced = [r for r in runs if not r["errors"] and not r["traced"]]
    return {
        "setup_s": median([r["setup_s"] for r in untraced]),
        "wall_s": median([r["wall_s"] for r in untraced]),
        "oracle_calls_per_s": median([r["oracle_calls"] / r["wall_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(runs: list, e2e: dict) -> dict:
    """Times are medians over traced runs; counts are taken from the first."""
    traced = [r["layers"] for r in runs if not r["errors"] and r["traced"]]
    if not traced:
        return {}
    metrics = {name: median([layers[name] for layers in traced])
               if name.endswith("_s") else value for name, value in traced[0].items()}
    metrics["trace.wall_s"] = median([r["wall_s"] for r in runs
                                      if not r["errors"] and r["traced"]])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - e2e["wall_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "snsqp" / "__init__.py").is_file():
        print(f"error: no solver sources at {ROOT / 'src' / 'snsqp'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    warm = spawn(args.workload, args.seed, out / "warmup", warmup=True)
    if warm["errors"]:
        print(f"error: solver does not import: {warm['errors'][0]}", file=sys.stderr)
        return 1

    runs = []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 0
        runs.append(spawn(args.workload, args.seed, out / f"run-{len(runs)}", traced))
        elapsed = time.monotonic() - begin
        enough = len(runs) >= MIN_RUNS + args.trace
        if enough and elapsed * (len(runs) + 1) / len(runs) > args.seconds:
            break
    cross_check(runs)

    e2e = end_to_end(runs)
    layers = per_layer(runs, e2e) if args.trace else {}
    failed = sum(1 for r in runs if r["errors"])
    good = [r for r in runs if not r["errors"]]
    final_stationarity = good[0]["final_stationarity"] if good else float("nan")
    n_untraced = sum(1 for r in good if not r["traced"])

    print(f"workload {args.workload}  seed {args.seed}  runs {len(runs)} "
          f"({n_untraced} untraced)  failed {failed}")
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<22} {value:>14.6g} {units[name]:<5} median of {n_untraced}")
    print(f"  {'final_stationarity':<22} {final_stationarity:>14.6g} {'1':<5} "
          "deterministic per seed")
    print(f"  {'failed_frac':<22} {failed / len(runs):>14.6g} {'1':<5} "
          f"{failed} of {len(runs)} runs")
    for name, value in layers.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for i, run in enumerate(runs):
        for error in run["errors"]:
            print(f"  run {i}: {error}")

    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]
               if m["name"] in values}  # all traced runs failed: no layer metrics
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(runs),
              "end_to_end": dict(e2e, final_stationarity=final_stationarity,
                                 failed_frac=failed / len(runs)),
              "per_layer": layers, "runs": runs, "result": result}
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
