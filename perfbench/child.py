"""One measured run of a benchmark workload, in a fresh process.

Usage: python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace]

Imports the solver from ``src/``, runs the workload's user path once, checks
its outputs and prints one JSON line.  ``t_ready_ns`` is the monotonic clock
(shared by all processes of the machine) once the imports are done, so the
parent can take set-up time from its own spawn time.  ``kernel_s`` is the
mean time of a fixed calibration kernel run just before and just after the
solve; the parent scales the run's times by it (see run.py).
With ``--trace`` the calls into each layer are recorded as spans (see
spans.py) and the per-layer report is added; without it the run checks that
no layer function is wrapped.  ``--warmup`` only imports, so that bytecode
and file caches are filled before anything is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (sibling module; the script directory is on sys.path)

#: workload -> (problem, sampling strategy, oracle-call budget)
WORKLOADS = {
    "pps-fixed10": ("pps", "fixed:10", 2000),
    "pps-adaptive": ("pps", "adaptive", 5000),
    "eq-quadratic": ("quadratic-eq", "fixed:10", 3000),
}
#: epoch size of the PPS run path, as ``snsqp bench-pps`` uses by default
EPOCH = 500
EQ_TOL = 1e-6
_RUN_LINE = re.compile(r"stop=(\S+) iterations=(\d+) oracle_calls=(\d+) "
                       r"final_stationarity=(\S+)")


def calibration_kernel() -> float:
    """Seconds taken by fixed work that uses no solver code.

    It has the two shapes of the solver's hot loops: dense pivoting steps on
    a small tableau (as in the LPs and QPs) and a Python call per scenario on
    tiny arrays (as in ``aggregate``).  So it slows down with a shared
    machine the way a run does.
    """
    import numpy as np

    tableau0 = np.random.default_rng(0).uniform(0.5, 1.5, size=(13, 40))
    points = np.random.default_rng(1).uniform(-1.0, 1.0, size=(1000, 2))
    start = time.monotonic()
    for _ in range(225):
        tableau = tableau0.copy()
        for _ in range(10):
            col = int(np.argmax(tableau[-1, :-1]))
            column = tableau[:-1, col]
            ratios = np.where(column > 1e-9,
                              tableau[:-1, -1] / np.maximum(column, 1e-9), np.inf)
            row = int(np.argmin(ratios))
            tableau = tableau - 0.5 * np.outer(tableau[:, col], tableau[row]) / tableau[row, col]
    x = np.array([0.5, -0.25])
    values, grads = np.empty(len(points)), np.empty(points.shape)
    for _ in range(10):
        for i, xi in enumerate(points):
            diff = x - xi
            values[i], grads[i] = float(diff @ diff), 2.0 * diff
        x = x - 1e-3 * grads.mean(axis=0)
    return time.monotonic() - start


def _cli_run(cli, config_path: Path) -> dict:
    """``snsqp run CONFIG``; returns the fields of its summary line."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.cli_main(["run", str(config_path)])
    match = _RUN_LINE.search(printed.getvalue())
    if code != 0 or match is None:
        raise RuntimeError(f"snsqp run exited {code}: {printed.getvalue()!r}")
    return {"stop_reason": match[1], "iterations": int(match[2]),
            "oracle_calls": int(match[3]), "final_stationarity": match[4]}


def check_outputs(problem, summary: dict, budget: int, trace_path: Path,
                  equality: bool) -> list:
    """Errors found in one run's summary and trace CSV; empty when correct."""
    errors = []
    if summary["stop_reason"] != "budget":
        errors.append(f"stop_reason {summary['stop_reason']!r}, expected 'budget'")
    if summary["oracle_calls"] < budget:
        errors.append(f"oracle_calls {summary['oracle_calls']} below budget {budget}")
    if not math.isfinite(summary["final_stationarity"]):
        errors.append(f"final_stationarity {summary['final_stationarity']!r} not finite")
    with open(trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != summary["iterations"]:
        errors.append(f"trace has {len(rows)} rows for {summary['iterations']} iterations")
    if not rows:
        return errors
    last = rows[-1]
    if int(last["oracle_calls"]) != summary["oracle_calls"]:
        errors.append("trace oracle_calls disagrees with the run summary")
    import numpy as np

    final_x = np.array([float(last[f"x{i}"]) for i in range(problem.dimension)])
    if not problem.set.membership(final_x):
        errors.append(f"final_x {final_x.tolist()} outside the feasible set")
    if equality:
        violation = float(np.sum(np.abs(problem.eq_constraints(final_x)[0])))
        if not violation <= EQ_TOL:
            errors.append(f"|c(final_x)|_1 = {violation!r} above {EQ_TOL}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    # imported here, so that run.py can import WORKLOADS without numpy
    import numpy
    import scipy
    from snsqp.bench import cli, pps, runner, synthetic

    if args.warmup:
        return 0
    problem_name, strategy, budget = WORKLOADS[args.workload]
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    if problem_name == "pps":
        run_id = runner.run_id_for(strategy, args.seed)
        entry = functools.partial(runner.run_single, strategy, args.seed, budget,
                                  EPOCH, out_dir)
    else:
        run_id = f"{problem_name}_{strategy.replace(':', '-')}_seed{args.seed}"
        config_path = out_dir / "run.json"
        config_path.write_text(json.dumps({
            "problem": problem_name, "strategy": strategy, "budget": budget,
            "seed": args.seed, "out": str(out_dir), "run_id": run_id,
            "epoch": EPOCH}), encoding="utf-8")
        entry = functools.partial(_cli_run, cli, config_path)

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    else:
        spans.check_pristine()
    ready = time.monotonic_ns()
    kernel_s = calibration_kernel()
    start = time.monotonic_ns()
    summary = entry()
    end = time.monotonic_ns()
    kernel_s = (kernel_s + calibration_kernel()) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    spans.check_pristine()

    summary["final_stationarity"] = float(summary["final_stationarity"])
    if problem_name == "pps":
        problem = pps.build_pps_problem()
    else:
        problem = synthetic.build_quadratic_equality_problem()
    trace_path = out_dir / f"{run_id}_trace.csv"
    errors = check_outputs(problem, summary, budget, trace_path,
                           equality=problem_name != "pps")
    layers = None
    if tracer is not None:
        layers, nesting_errors = spans.layer_report(tracer.spans, tracer.counts,
                                                    start, end)
        layers["driver.iterations"] = summary["iterations"]
        errors += nesting_errors
        tracer.write(out_dir / "spans.csv", out_dir.name)

    print(json.dumps({
        "t_ready_ns": ready,
        "kernel_s": kernel_s,
        "wall_s": (end - start) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "stop_reason": summary["stop_reason"],
        "oracle_calls": summary["oracle_calls"],
        "iterations": summary["iterations"],
        "final_stationarity": summary["final_stationarity"],
        "trace_sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        "errors": errors,
        "layers": layers,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
