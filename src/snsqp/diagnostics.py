"""Stationarity measurement, epoch accounting, and trace export.

The optimality measure reads the feasible set as the subproblem does, bounds
and ineq_matrix rows with the limits of translated_limits, plus the equality
rows c(x) = 0, laid out by the subproblem's own builder, snsqp.qp._row_form.
It asks how well the (estimated) subgradient is balanced by the normals of
the bounds and rows active at x:

    residual = min |g + normals_a.T @ mu + jac_a @ nu|,  mu >= 0, nu free,

where a lower bound's normal is -e_i, an upper bound's e_i and a row's its
row of ineq_matrix.  Activity is relative: row j is active where its value
c_j (the translated limit, or the equality value) has
|c_j| <= ACTIVITY_TOL * (1 + |c_j|).  By Moreau's decomposition the residual
is the norm of the projection of -g onto the polar cone
{d : normals_a @ d <= 0, jac_a.T @ d = 0}: a scalar-curvature QP over the
same rows, which the subproblem's active-set loop, snsqp.qp._active_set,
solves exactly.  As in the subproblem, an active bound fixes its coordinate
and an equality row stays an equality row.

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
from itertools import chain, compress
from pathlib import Path
from typing import Optional

import numpy as np

from .driver import IterationTrace
from .qp import BoxPolyhedron, QpStatus, _active_set, _row_exponent, _row_form
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


def stationarity_error(g: np.ndarray, box: BoxPolyhedron, x: np.ndarray,
                       eq: tuple | None = None) -> StationarityReport:
    """The measure at x for the set box and the equality rows eq, the pair
    (c(x), jacobian with one column per row) that eq_constraints returns.

    The multipliers and the activity mask have one entry per entry of
    box.limits, then one per equality row.  Activity is read off the
    translated limits and c(x) alone; with nothing active the residual is
    |g| and the rows are never scaled.  Otherwise one _active_set call
    projects -g: active bounds have limit 0, inactive ones inf, and inactive
    rows are left out.  The loop reads the active rows at their row scale,
    as _row_form lays them out; g is scaled here, to the same row scale
    (_row_exponent), which leaves the polar cone as it is, and the residual
    and multipliers are scaled back.  Set multipliers the final projection
    leaves at -1e-16 are floored at 0.  A g of the wrong shape, a jacobian
    that does not match c(x), or non-finite data raise ValueError; a
    projection that does not end OPTIMAL, or whose multipliers or residual
    scale back past the float range (as on an equality row of subnormal
    entries), raises RuntimeError.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (box.dim,):
        raise ValueError("g must have an entry per coordinate of the set")
    # the sets are small: Python floats cost less than numpy calls
    g_list, values = g.tolist(), box.translated_limits(x).tolist()
    n, n_set, c_eq, jac = box.dim, len(values), None, None
    if eq is not None:
        c_eq, jac = np.atleast_1d(np.asarray(eq[0], dtype=float)), np.asarray(eq[1], dtype=float)
        if jac.shape != (n, c_eq.size):
            raise ValueError("the equality jacobian must have shape (len(g), len(c))")
        values += c_eq.tolist()  # an equality row's limit is -c_j: only |c_j| is read
    if not all(map(math.isfinite, chain(g_list, values, () if jac is None else jac.flat))):
        raise ValueError("gradient, equality values and jacobian must be finite")
    act = [abs(v) <= ACTIVITY_TOL * (1.0 + abs(v)) for v in values]
    multipliers = np.zeros(len(values))
    if not any(act):
        return StationarityReport(float(np.linalg.norm(g)), multipliers, np.array(act))

    # loop ids: the bounds, then the active rows, with the equality rows last
    active = act[2 * n:]
    index = [*range(2 * n), *compress(range(2 * n, len(values)), active)]
    g_exp = _row_exponent(g_list)
    _, _, exps, scaled = _row_form([], box, jac, c_eq)  # the rows alone
    status, d, mults, _, _ = _active_set(
        [math.ldexp(v, -g_exp) for v in g_list], 1.0, [*compress(scaled, active)],
        [0.0 if act[c] else math.inf for c in index], sum(act[n_set:]),
        [*compress(exps, active)])
    if status is QpStatus.OPTIMAL:
        try:  # a multiplier or the residual scaled back past the float range fails too
            for c, w in zip(index, mults):
                multipliers[c] = math.ldexp(w if c >= n_set or w > 0.0 else 0.0, g_exp)
            residual = math.ldexp(math.hypot(*d), g_exp)
            return StationarityReport(residual, multipliers, np.array(act))
        except OverflowError:
            status = QpStatus.NUMERICAL_FAILURE
    raise RuntimeError(f"polar-cone projection ended {status.value}")


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


def reference_stationarity(problem, x: np.ndarray, scenarios: np.ndarray, record=None) -> float:
    """Stationarity residual at x using the reference batch's mean subgradient;
    nan where the oracle fails on the batch.  A record given here keeps the
    batch's mean value, the reference objective at x, in
    record.reference_objective (nan where the oracle fails).

    With the frozen batch of reference_batch this estimates the
    true-subgradient measure, and is labeled as such in the docs.
    """
    try:
        stats = aggregate(problem, x, scenarios)
    except OracleError:  # a run that stopped on it keeps its outputs
        return math.nan
    if record is not None:
        record.reference_objective = stats.mean_value
    eq = None if problem.eq_constraints is None else problem.eq_constraints(x)
    return stationarity_error(stats.mean_subgradient, problem.set, x, eq).residual


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
    solve per iteration.  Without it every record is filled.  Each filled
    record also keeps its reference_objective from the same batch.  A record
    where the oracle fails on the reference batch is filled with nan.
    """
    records = trace.records
    if epoch_size is not None:
        records = [records[i] for i in _epoch_ends(records, epoch_size).values()]
    for rec in records:
        rec.stationarity = reference_stationarity(trace.problem, rec.x, scenarios, rec)


def export_trace(trace: IterationTrace, epoch_size: int = DEFAULT_EPOCH) -> tuple:
    """Per-iteration rows and per-epoch rows as lists of column dicts.

    Epoch rows cover 0 .. ceil(budget/epoch_size) - 1 when the run ended by
    budget (the full cost axis), otherwise up to the last record's epoch.
    Each epoch carries its last record, an epoch without records the one
    before it; epochs before the first record carry the first record.  Each
    dict holds the list row that write_run_csv writes.
    """
    header = _header(trace)
    return tuple([dict(zip(header, row)) for row in rows]
                 for rows in _rows(trace, epoch_size))


def write_run_csv(trace: IterationTrace, out_dir, run_id: str,
                  epoch_size: int = DEFAULT_EPOCH) -> tuple:
    """Write {run_id}_trace.csv and {run_id}_epochs.csv; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{run_id}_trace.csv"
    epochs_path = out_dir / f"{run_id}_epochs.csv"
    header = _header(trace)
    for path, rows in zip((trace_path, epochs_path), _rows(trace, epoch_size)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return trace_path, epochs_path


def _header(trace: IterationTrace) -> list:
    """TRACE_COLUMNS, then x0 .. x{n-1} for the trace's dimension."""
    dim = trace.problem.dimension if trace.problem is not None else (
        trace.records[0].x.size if trace.records else 0)
    return [*TRACE_COLUMNS, *(f"x{i}" for i in range(dim))]


def _rows(trace: IterationTrace, epoch_size: int) -> tuple:
    """The per-iteration and the per-epoch list rows of export_trace."""
    records = trace.records
    ends = _epoch_ends(records, epoch_size)
    # each column's record attribute; the epoch column's "k" is overwritten by _row
    fields = operator.attrgetter(*("k" if col == "epoch" else "batch_size" if col == "N"
                                   else col for col in TRACE_COLUMNS))
    iter_rows = [_row(rec, _epoch(rec, epoch_size), fields) for rec in records]
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
            epoch_rows.append(_row(current, e, fields))
    return iter_rows, epoch_rows


def _row(rec, epoch: int, fields) -> list:
    """The TRACE_COLUMNS of rec, read by fields, then x0 .. x{n-1}; floats
    are written by repr."""
    row = [repr(value) if isinstance(value, float) else value for value in fields(rec)]
    row[TRACE_COLUMNS.index("epoch")] = epoch
    row += map(repr, rec.x.tolist())
    return row
