"""Stationarity measurement, epoch accounting, and trace export.

The optimality measure treats the feasible region as rows c_j(x) >= 0 and
asks how well the (estimated) subgradient can be written as a nonnegative
combination of active constraint gradients:

    residual = min_{lam >= 0} |g - J lam|,  lam_j = 0 on inactive rows.

Inactivity is relative: |c_j| > activity_tol * (1 + |c_j|).  The reduced
nonnegative least-squares problem is solved exactly by scipy's NNLS.

Epoch accounting maps cumulative oracle calls to a fixed cost axis so runs
with different batch sizes can be compared: the record with cumulative call
count c lands in epoch floor((c - 1) / epoch_size), and the epoch table
carries the latest record within each epoch forward.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.optimize import nnls

from .driver import IterationTrace
from .qp import BoxPolyhedron
from .sampling import aggregate, draw_scenarios

#: seed of the frozen scenario batch behind every reported stationarity value
REFERENCE_SEED = 715517
REFERENCE_BATCH = 1000
DEFAULT_ACTIVITY_TOL = 1e-6
DEFAULT_EPOCH = 500

TRACE_COLUMNS = ("k", "epoch", "oracle_calls", "step_norm", "pred_decrease",
                 "zeta", "beta", "alpha", "theta", "N", "stationarity",
                 "merit", "objective_estimate")


@dataclass
class StationarityReport:
    residual: float
    multipliers: np.ndarray
    active_mask: np.ndarray
    activity_tol: float


def stationarity_error(g: np.ndarray, constraints_value: np.ndarray,
                       constraints_jacobian: np.ndarray,
                       activity_tol: float = DEFAULT_ACTIVITY_TOL) -> StationarityReport:
    """Distance from g to the cone spanned by active constraint gradients.

    constraints_jacobian has one column per constraint (shape n x J), matching
    the c_j(x) >= 0 orientation of the rows.
    """
    if not activity_tol > 0:
        raise ValueError("activity_tol must be positive")
    g = np.asarray(g, dtype=float)
    c = np.atleast_1d(np.asarray(constraints_value, dtype=float))
    jac = np.asarray(constraints_jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape != (g.size, c.size):
        raise ValueError("jacobian must have shape (len(g), len(constraints_value))")

    active = np.abs(c) <= activity_tol * (1.0 + np.abs(c))
    multipliers = np.zeros(c.size)
    if not active.any():
        residual = float(np.linalg.norm(g))
    else:
        lam, residual = nnls(jac[:, active], g)
        multipliers[active] = lam
        residual = float(residual)
    return StationarityReport(residual=residual, multipliers=multipliers,
                              active_mask=active, activity_tol=activity_tol)


def polyhedron_constraint_rows(box: BoxPolyhedron, x: np.ndarray) -> tuple:
    """Rewrite a BoxPolyhedron as rows c_j(x) >= 0 for the stationarity measure.

    Returns (values, jacobian) with one column per row: x - l >= 0, u - x >= 0,
    then h - Wx >= 0.
    """
    x = np.asarray(x, dtype=float)
    n = box.dim
    eye = np.eye(n)
    values = [x - box.lower, box.upper - x]
    columns = [eye, -eye]
    if box.n_ineq:
        values.append(box.ineq_rhs - box.ineq_matrix @ x)
        columns.append(-box.ineq_matrix.T)
    return np.concatenate(values), np.hstack(columns)


def reference_batch(problem, batch_size: int = REFERENCE_BATCH,
                    seed: int = REFERENCE_SEED) -> np.ndarray:
    """The frozen scenario batch behind every reported stationarity value.

    It depends only on (problem.scenario_sampler, seed, batch_size); a run
    draws it once and passes it to every reference evaluation.
    """
    return draw_scenarios(problem.scenario_sampler, seed, 0, batch_size)


def reference_objective(problem, x: np.ndarray, scenarios: np.ndarray) -> float:
    """Objective estimate at x over the reference batch."""
    return aggregate(problem, x, scenarios).mean_value


def reference_stationarity(problem, x: np.ndarray, scenarios: np.ndarray,
                           activity_tol: float = DEFAULT_ACTIVITY_TOL) -> float:
    """Stationarity residual at x using the reference batch's mean subgradient.

    With the frozen batch of reference_batch this estimates the
    true-subgradient measure, and is labeled as such in the docs.
    """
    g = aggregate(problem, x, scenarios).mean_subgradient
    values, columns = polyhedron_constraint_rows(problem.set, x)
    if problem.eq_constraints is not None:
        # equality rows enter as opposing pairs, giving their multiplier free sign
        c_eq, jac_eq = problem.eq_constraints(x)
        values = np.concatenate([values, c_eq, -c_eq])
        columns = np.hstack([columns, jac_eq, -jac_eq])
    return stationarity_error(g, values, columns, activity_tol).residual


def fill_stationarity(trace: IterationTrace, scenarios: np.ndarray,
                      activity_tol: float = DEFAULT_ACTIVITY_TOL,
                      epoch_size: Optional[int] = None) -> None:
    """Populate the stationarity column in place, over the reference batch.

    With epoch_size set, only the last record of each epoch is evaluated;
    those are exactly the records the epoch table carries, so the epoch CSV
    stays fully populated while long traces avoid a reference-batch solve
    per iteration.  Without it every record is filled.
    """
    records = trace.records
    if epoch_size is None:
        chosen = records
    else:
        if epoch_size < 1:
            raise ValueError("epoch_size must be a positive integer")
        chosen = [rec for i, rec in enumerate(records)
                  if i + 1 == len(records)
                  or ((records[i + 1].oracle_calls - 1) // epoch_size
                      > (rec.oracle_calls - 1) // epoch_size)]
    for rec in chosen:
        rec.stationarity = reference_stationarity(trace.problem, rec.x, scenarios,
                                                  activity_tol=activity_tol)


def export_trace(trace: IterationTrace, epoch_size: int = DEFAULT_EPOCH) -> tuple:
    """Per-iteration rows and per-epoch rows as lists of column dicts.

    Epoch rows cover 0 .. ceil(budget/epoch_size) - 1 when the run ended by
    budget (the full cost axis), otherwise up to the last record's epoch.
    Within each epoch the latest record wins; epochs before the first record
    carry the first record's values.
    """
    if epoch_size < 1:
        raise ValueError("epoch_size must be a positive integer")
    iter_rows = []
    for rec in trace.records:
        iter_rows.append(_row(rec, (rec.oracle_calls - 1) // epoch_size))

    epoch_rows = []
    if trace.records:
        last_epoch = (trace.records[-1].oracle_calls - 1) // epoch_size
        if trace.stop_reason == "budget" and trace.config is not None:
            n_epochs = math.ceil(trace.config.budget / epoch_size)
        else:
            n_epochs = last_epoch + 1
        idx = 0
        current = trace.records[0]
        for e in range(n_epochs):
            while (idx < len(trace.records)
                   and (trace.records[idx].oracle_calls - 1) // epoch_size <= e):
                current = trace.records[idx]
                idx += 1
            epoch_rows.append(_row(current, e))
    return iter_rows, epoch_rows


def write_run_csv(trace: IterationTrace, out_dir, run_id: str,
                  epoch_size: int = DEFAULT_EPOCH) -> tuple:
    """Write {run_id}_trace.csv and {run_id}_epochs.csv; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    iter_rows, epoch_rows = export_trace(trace, epoch_size)
    dim = trace.problem.dimension if trace.problem is not None else (
        trace.records[0].x.size if trace.records else 0)
    header = list(TRACE_COLUMNS) + [f"x{i}" for i in range(dim)]

    trace_path = out_dir / f"{run_id}_trace.csv"
    epochs_path = out_dir / f"{run_id}_epochs.csv"
    for path, rows in ((trace_path, iter_rows), (epochs_path, epoch_rows)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    return trace_path, epochs_path


def _row(rec, epoch: int) -> dict:
    row = {
        "k": rec.k,
        "epoch": epoch,
        "oracle_calls": rec.oracle_calls,
        "step_norm": repr(rec.step_norm),
        "pred_decrease": repr(rec.pred_decrease),
        "zeta": repr(rec.zeta),
        "beta": repr(rec.beta),
        "alpha": repr(rec.alpha),
        "theta": repr(rec.theta),
        "N": rec.batch_size,
        "stationarity": repr(rec.stationarity),
        "merit": repr(rec.merit),
        "objective_estimate": repr(rec.objective_estimate),
    }
    for i, xi in enumerate(rec.x):
        row[f"x{i}"] = repr(float(xi))
    return row
