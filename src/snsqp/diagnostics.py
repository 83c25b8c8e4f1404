"""Stationarity measurement, epoch accounting, and trace export.

The optimality measure treats the feasible region as rows c_j(x) >= 0 and
asks how well the (estimated) subgradient can be written as a nonnegative
combination of active constraint gradients:

    residual = min_{lam >= 0} |g - J lam|,  lam_j = 0 on inactive rows.

Inactivity is relative: |c_j| > ACTIVITY_TOL * (1 + |c_j|).  By Moreau's
decomposition the residual is the norm of g's projection onto the polar cone
{d : J_a.T @ d <= 0} of the active columns J_a.  The QP subproblem's
active-set loop, snsqp.qp._active_set, computes that projection exactly, so
one active-set method and one least-squares factor serve both.

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

from .driver import IterationTrace
from .qp import BoxPolyhedron, QpStatus, _active_set
from .sampling import OracleError, aggregate, draw_scenarios

#: seed of the frozen scenario batch behind every reported stationarity value
REFERENCE_SEED = 715517
REFERENCE_BATCH = 1000
ACTIVITY_TOL = 1e-6
DEFAULT_EPOCH = 500

TRACE_COLUMNS = ("k", "epoch", "oracle_calls", "step_norm", "pred_decrease",
                 "zeta", "beta", "alpha", "theta", "N", "stationarity",
                 "merit", "objective_estimate")


@dataclass
class StationarityReport:
    residual: float
    multipliers: np.ndarray
    active_mask: np.ndarray


def stationarity_error(g: np.ndarray, constraints_value: np.ndarray,
                       constraints_jacobian: np.ndarray) -> StationarityReport:
    """Distance from g to the cone spanned by active constraint gradients.

    constraints_jacobian has one column per constraint (shape n x J), matching
    the c_j(x) >= 0 orientation of the rows.
    """
    g = np.asarray(g, dtype=float)
    c = np.atleast_1d(np.asarray(constraints_value, dtype=float))
    jac = np.asarray(constraints_jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape != (g.size, c.size):
        raise ValueError("jacobian must have shape (len(g), len(constraints_value))")
    if not np.isfinite(np.concatenate((g, c, jac.ravel()))).all():
        raise ValueError("gradient, constraint values and jacobian must be finite")

    active = np.abs(c) <= ACTIVITY_TOL * (1.0 + np.abs(c))
    multipliers = np.zeros(c.size)
    if not active.any():
        residual = float(np.linalg.norm(g))
    else:
        lam, residual = _polar_projection(jac[:, active], g)
        multipliers[active] = lam
    return StationarityReport(residual=residual, multipliers=multipliers,
                              active_mask=active)


def _polar_projection(a: np.ndarray, b: np.ndarray) -> tuple:
    """min |b - a lam| over lam >= 0; returns (lam as a list, residual).

    b - a lam is then the projection d of b onto the polar cone
    {d : a.T @ d <= 0}, and lam the multipliers of its rows: qp._active_set
    with alpha = 1, g = -b and infinite bound limits, which never enter.
    A zero multiplier the final projection leaves at -1e-16 is floored at 0.

    Each column and b are first scaled by a power of two, which is exact, to
    a largest entry in [0.5, 1): the cone is unchanged, no a_j . a_j can
    underflow or overflow, and the loop's absolute tolerances meet entries
    of order one.
    """
    cols, col_exp = zip(*map(_unit_scaled, a.T.tolist()))
    b, b_exp = _unit_scaled(b.tolist())
    n, k = len(b), len(cols)
    status, d, _, rows, row_mults, _, _ = _active_set(
        [-v for v in b], 1.0, list(cols), [math.inf] * (2 * n) + [0.0] * k, 0)
    if status is not QpStatus.OPTIMAL:
        raise RuntimeError(f"polar-cone projection ended {status.value}")
    lam = [0.0] * k
    for c, w in zip(rows, row_mults):
        lam[c - 2 * n] = w if w > 0.0 else 0.0
    return ([math.ldexp(v, b_exp - e) for v, e in zip(lam, col_exp)],
            math.ldexp(math.hypot(*d), b_exp))


def _unit_scaled(values: list) -> tuple:
    """(values * 2**-e, e), with e chosen so the largest |value| is in [0.5, 1)."""
    exp = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -exp) for v in values], exp


def polyhedron_constraint_rows(box: BoxPolyhedron, x: np.ndarray) -> tuple:
    """The set's rows normals @ x <= limits as rows c_j(x) >= 0 for the
    stationarity measure.

    Returns (values, jacobian) with one column per row: x - l >= 0, u - x >= 0,
    then h - Wx >= 0.  The values are the limits of the set translated to x:
    limits - normals @ x can round h - Wx differently, because a product with
    the stacked rows may sum in another order than W @ x alone.
    """
    return box.translated_limits(x), -box.normals.T


def reference_batch(problem) -> np.ndarray:
    """The frozen scenario batch behind every reported stationarity value.

    It depends only on problem.scenario_sampler; a run draws it once and
    passes it to every reference evaluation.
    """
    return draw_scenarios(problem.scenario_sampler, REFERENCE_SEED, 0, REFERENCE_BATCH)


def reference_objective(problem, x: np.ndarray, scenarios: np.ndarray) -> float:
    """Objective estimate at x over the reference batch; nan where the oracle
    fails on it."""
    try:
        return aggregate(problem, x, scenarios).mean_value
    except OracleError:
        return math.nan


def reference_stationarity(problem, x: np.ndarray, scenarios: np.ndarray) -> float:
    """Stationarity residual at x using the reference batch's mean subgradient;
    nan where the oracle fails on the batch.

    With the frozen batch of reference_batch this estimates the
    true-subgradient measure, and is labeled as such in the docs.
    """
    try:
        g = aggregate(problem, x, scenarios).mean_subgradient
    except OracleError:  # a run that stopped on it keeps its outputs
        return math.nan
    values, columns = polyhedron_constraint_rows(problem.set, x)
    if problem.eq_constraints is not None:
        # equality rows enter as opposing pairs, giving their multiplier free sign
        c_eq, jac_eq = problem.eq_constraints(x)
        values = np.concatenate([values, c_eq, -c_eq])
        columns = np.hstack([columns, jac_eq, -jac_eq])
    return stationarity_error(g, values, columns).residual


def _epoch(rec, epoch_size: int) -> int:
    return (rec.oracle_calls - 1) // epoch_size


def _epoch_ends(records, epoch_size: int) -> dict:
    """{epoch: index of its last record} over the epochs that hold a record.

    Call counts only grow, so the keys and the indices both ascend.
    """
    if epoch_size < 1:
        raise ValueError("epoch_size must be a positive integer")
    return {_epoch(rec, epoch_size): i for i, rec in enumerate(records)}


def fill_stationarity(trace: IterationTrace, scenarios: np.ndarray,
                      epoch_size: Optional[int] = None) -> None:
    """Populate the stationarity column in place, over the reference batch.

    With epoch_size set, only the last record of each epoch is evaluated:
    export_trace builds the epoch table from the same _epoch_ends, so every
    record it carries is filled, while long traces avoid a reference-batch
    solve per iteration.  Without it every record is filled.  A record
    where the oracle fails on the reference batch is filled with nan.
    """
    records = trace.records
    if epoch_size is not None:
        records = [records[i] for i in _epoch_ends(records, epoch_size).values()]
    for rec in records:
        rec.stationarity = reference_stationarity(trace.problem, rec.x, scenarios)


def export_trace(trace: IterationTrace, epoch_size: int = DEFAULT_EPOCH) -> tuple:
    """Per-iteration rows and per-epoch rows as lists of column dicts.

    Epoch rows cover 0 .. ceil(budget/epoch_size) - 1 when the run ended by
    budget (the full cost axis), otherwise up to the last record's epoch.
    Each epoch carries its last record, an epoch without records the one
    before it; epochs before the first record carry the first record.
    """
    records = trace.records
    ends = _epoch_ends(records, epoch_size)
    iter_rows = [_row(rec, _epoch(rec, epoch_size)) for rec in records]
    epoch_rows = []
    if records:
        if trace.stop_reason == "budget" and trace.config is not None:
            n_epochs = math.ceil(trace.config.budget / epoch_size)
        else:
            n_epochs = max(ends) + 1
        current = records[0]
        for e in range(n_epochs):
            if e in ends:
                current = records[ends[e]]
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
    """The TRACE_COLUMNS of rec, then x0 .. x{n-1}; floats are written by repr."""
    row = {}
    for col in TRACE_COLUMNS:
        value = (epoch if col == "epoch" else rec.batch_size if col == "N"
                 else getattr(rec, col))
        row[col] = repr(value) if isinstance(value, float) else value
    for i, xi in enumerate(rec.x):
        row[f"x{i}"] = repr(float(xi))
    return row
