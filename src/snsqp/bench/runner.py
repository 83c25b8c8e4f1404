"""Experiment runner: strategy-by-seed grids with per-run CSV artifacts.

Each (strategy, seed) pair is an independent run writing its own trace and
epoch CSVs, so runs may execute in any order or in parallel without changing
a single output byte.  A summary table collects the per-run endpoints.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..diagnostics import (
    fill_stationarity,
    reference_batch,
    reference_objective,
    reference_stationarity,
    write_run_csv,
)
from ..driver import SolverConfig, run_algorithm1
from ..sampling import AdaptiveSize, FixedSize, PolynomialSize
from . import pps

DEFAULT_STRATEGIES = ("fixed:10", "fixed:100", "fixed:1000",
                      "poly:1.25:1000", "adaptive")
SUMMARY_COLUMNS = ("strategy", "seed", "final_stationarity", "final_objective",
                   "oracle_calls", "iterations")


#: batch-size cap of the adaptive strategy
ADAPTIVE_CAP = 1000


def parse_strategy(text: str, eta: float = 1.0):
    """Parse 'fixed:N', 'poly:EXP:CAP' or 'adaptive' into a strategy object."""
    parts = text.split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            return FixedSize(size=int(parts[1]))
        if parts[0] == "poly" and len(parts) == 3:
            return PolynomialSize(exponent=float(parts[1]), cap=int(parts[2]))
        if parts[0] == "adaptive" and len(parts) == 1:
            return AdaptiveSize(eta=eta, cap=ADAPTIVE_CAP)
    except ValueError as exc:
        raise ValueError(f"bad strategy '{text}': {exc}") from exc
    raise ValueError(f"bad strategy '{text}': expected fixed:N, poly:EXP:CAP "
                     "or adaptive")


def run_id_for(strategy_text: str, seed: int) -> str:
    return f"{strategy_text.replace(':', '-')}_seed{seed}"


def run_single(strategy_text: str, seed: int, budget: int, epoch: int,
               out_dir, alpha0: float = pps.ALPHA0, eta: float = 1.0) -> dict:
    """One benchmark run; writes its CSVs and returns the summary row."""
    problem = pps.build_pps_problem()
    config = SolverConfig(
        x0=pps.X0,
        alpha0=alpha0,
        strategy=parse_strategy(strategy_text, eta=eta),
        budget=budget,
        master_seed=seed,
    )
    trace = run_algorithm1(problem, config)
    reference = reference_batch(problem)
    # one reference solve per epoch keeps small-batch runs (thousands of
    # iterations) from dominating the wall clock
    fill_stationarity(trace, reference, epoch_size=epoch)
    write_run_csv(trace, out_dir, run_id_for(strategy_text, seed), epoch_size=epoch)
    final_x = trace.final_x
    # the last record ends its epoch, so the fill evaluated it; a run
    # without records reports x0
    final_stat = (trace.records[-1].stationarity if trace.records
                  else reference_stationarity(problem, final_x, reference))
    return {
        "strategy": strategy_text,
        "seed": seed,
        "final_stationarity": repr(final_stat),
        "final_objective": repr(reference_objective(problem, final_x, reference)),
        "oracle_calls": trace.oracle_calls,
        "iterations": len(trace.records),
        "stop_reason": trace.stop_reason,
    }


def _run_single_args(args) -> dict:
    return run_single(*args)


def run_grid(strategies, n_seeds: int, budget: int, epoch: int, out_dir,
             seed_base: int = 0, alpha0: float = pps.ALPHA0, eta: float = 1.0,
             workers: int = 1) -> list:
    """All (strategy, seed) runs; writes summary.csv; returns summary rows.

    Row order is submission order (strategy-major), independent of workers.
    """
    jobs = [(text, seed_base + s, budget, epoch, out_dir, alpha0, eta)
            for text in strategies for s in range(n_seeds)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_single_args, jobs))
    else:
        rows = [_run_single_args(job) for job in jobs]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return rows
