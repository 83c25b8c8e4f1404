"""Stationarity measurement, epoch accounting, and trace export.

The optimality measure treats the feasible region as rows c_j(x) >= 0 and
asks how well the (estimated) subgradient can be written as a nonnegative
combination of active constraint gradients:

    residual = min_{lam >= 0} |g - J lam|,  lam_j = 0 on inactive rows.

Inactivity is relative: |c_j| > ACTIVITY_TOL * (1 + |c_j|).  The reduced
nonnegative least-squares problem is solved exactly by the Lawson-Hanson
active-set method (Lawson & Hanson, *Solving Least Squares Problems*, 1974,
ch. 23), whose passive-set least-squares steps are taken on the columns
themselves, not through their Gram matrix.

Epoch accounting maps cumulative oracle calls to a fixed cost axis so runs
with different batch sizes can be compared: the record with cumulative call
count c lands in epoch floor((c - 1) / epoch_size), and the epoch table
carries the latest record within each epoch forward.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .driver import IterationTrace
from .qp import BoxPolyhedron
from .sampling import aggregate, draw_scenarios

#: seed of the frozen scenario batch behind every reported stationarity value
REFERENCE_SEED = 715517
REFERENCE_BATCH = 1000
ACTIVITY_TOL = 1e-6
DEFAULT_EPOCH = 500
_EPS = float(np.finfo(float).eps)

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
        lam, residual = _nnls(jac[:, active], g)
        multipliers[active] = lam
    return StationarityReport(residual=residual, multipliers=multipliers,
                              active_mask=active)


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple:
    """min |b - a lam| over lam >= 0 by Lawson-Hanson; returns (lam, residual).

    The column with the largest gradient a_j . (b - a lam) above a roundoff
    bound enters the passive set.  A least-squares step on the passive
    columns that leaves some weight <= 0 is cut back to lam >= 0, and the
    column that reaches zero first leaves.  The residual is |b - a lam| for
    the final lam.

    The problems here have a few rows and columns, so the method runs on
    Python floats: a numpy call per step would cost more than its
    arithmetic.  Each column and b are first scaled by a power of two, which
    is exact, to a largest entry in [0.5, 1): the cone is unchanged, and
    neither a_j . a_j nor the roundoff bound can underflow or overflow.
    """
    cols, col_exp = zip(*map(_unit_scaled, a.T.tolist()))
    b, b_exp = _unit_scaled(b.tolist())
    k = len(cols)
    tol = (10.0 * max(a.shape) * _EPS * math.hypot(*b)
           * math.hypot(*(v for col in cols for v in col)))
    lam = [0.0] * k
    passive = []
    resid = b
    w = [_dot(col, resid) for col in cols]
    entered = 0
    while True:
        j = max((i for i in range(k) if i not in passive), key=w.__getitem__,
                default=None)
        if j is None or not w[j] > tol:
            break
        z = _passive_least_squares(cols, b, passive + [j])
        if not z[j] > 0.0:
            # w_j > 0 implies z_j > 0 in exact arithmetic, so this is roundoff,
            # as on the second column of an opposing equality pair
            w[j] = -math.inf
            continue
        entered += 1
        if entered > 3 * k:
            raise RuntimeError("NNLS did not converge")
        passive.append(j)
        blocked = [i for i in passive if z[i] <= 0.0]
        while blocked:
            ratios = [lam[i] / (lam[i] - z[i]) for i in blocked]
            step = min(ratios)
            lam = [old + step * (new - old) for old, new in zip(lam, z)]
            leaving = blocked[ratios.index(step)]
            passive = [i for i in passive if i != leaving and lam[i] > 0.0]
            z = _passive_least_squares(cols, b, passive)
            blocked = [i for i in passive if z[i] <= 0.0]
        lam = z
        resid = b
        for i in passive:
            resid = [r - lam[i] * c for r, c in zip(resid, cols[i])]
        w = [_dot(col, resid) for col in cols]
    return (np.ldexp(lam, [b_exp - e for e in col_exp]),
            math.ldexp(math.hypot(*resid), b_exp))


def _unit_scaled(values: list) -> tuple:
    """(values * 2**-e, e), with e chosen so the largest |value| is in [0.5, 1)."""
    exp = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -exp) for v in values], exp


def _dot(u: list, v: list) -> float:
    return math.fsum(map(operator.mul, u, v))


def _passive_least_squares(cols: tuple, b: list, passive: list) -> list:
    """Least-squares weights of b on the passive columns, zero elsewhere.

    One column has the closed form (a_j . b) / (a_j . a_j).
    """
    z = [0.0] * len(cols)
    if len(passive) == 1:
        col = cols[passive[0]]
        z[passive[0]] = _dot(col, b) / _dot(col, col)
    elif passive:
        sub = np.array([cols[i] for i in passive]).T
        for i, weight in zip(passive, np.linalg.lstsq(sub, b, rcond=None)[0].tolist()):
            z[i] = weight
    return z


def polyhedron_constraint_rows(box: BoxPolyhedron, x: np.ndarray) -> tuple:
    """The set's rows normals @ x <= limits as rows c_j(x) >= 0 for the
    stationarity measure.

    Returns (values, jacobian) with one column per row: x - l >= 0, u - x >= 0,
    then h - Wx >= 0.  The values are the limits of the set translated to x:
    limits - normals @ x can round h - Wx differently, because a product with
    the stacked rows may sum in another order than W @ x alone.
    """
    return box.translate(x).limits, -box.normals.T


def reference_batch(problem) -> np.ndarray:
    """The frozen scenario batch behind every reported stationarity value.

    It depends only on problem.scenario_sampler; a run draws it once and
    passes it to every reference evaluation.
    """
    return draw_scenarios(problem.scenario_sampler, REFERENCE_SEED, 0, REFERENCE_BATCH)


def reference_objective(problem, x: np.ndarray, scenarios: np.ndarray) -> float:
    """Objective estimate at x over the reference batch."""
    return aggregate(problem, x, scenarios).mean_value


def reference_stationarity(problem, x: np.ndarray, scenarios: np.ndarray) -> float:
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
    return stationarity_error(g, values, columns).residual


def fill_stationarity(trace: IterationTrace, scenarios: np.ndarray,
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
        rec.stationarity = reference_stationarity(trace.problem, rec.x, scenarios)


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
