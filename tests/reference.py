"""Brute-force reference oracles the tests certify the solver against.

Nothing here is clever on purpose.  The QP reference enumerates every
combination of active bounds and rows and solves the resulting equality
systems; the LP reference enumerates candidate vertices from every choice of
n active constraints.  Both are exponential and meant for tiny instances.
The rest are independent checks: a dense QP KKT residual, LP optimality
residuals (with the expansion of one batch row into its own LP solution),
finite differences, quadrature moments, grid minima, the plain PPS
sampler, the closed-form PPS recourse and a sampled weak-convexity modulus.
Four keep an earlier formulation to check a faster one bit for bit: the
served recourse batch, the trace export through csv.DictWriter, the
subproblem kernel (the active-set loop and its KKT certificate, with the
subproblem and the stationarity measure around them) as written before the
set held its rows and the certificate took one pass, and the batch
aggregate as written before it read finiteness off its sums.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from snsqp.bench import pps
from snsqp.bench.pps import PpsInstance
from snsqp.diagnostics import ACTIVITY_TOL, TRACE_COLUMNS
from snsqp.lp import FEAS_TOL, PIVOT_TOL, LpBatchSolution, LpProblem, LpSolution, LpStatus
from snsqp.model import ConstrainedStochasticProblem
from snsqp.qp import (MAX_ITER_PER_ROW, RANK_THRESHOLD, TOL, VIOLATION_TOL, QpProblem,
                      QpSolution, QpStatus, _dot, _row_exponent, _scaled_limit)
from snsqp.sampling import MIN_BATCH, OracleError, SampleStats, _first_failure, draw_scenarios


def enumerate_qp(problem: QpProblem, tol: float = 1e-9) -> tuple:
    """Globally optimal (objective, step) by active-set enumeration.

    Every coordinate is free, at lower, or at upper; every inequality row is
    active or not; equality rows are always active.  Exponential in size.
    """
    box, g, alpha = problem.set, problem.gradient, problem.curvature
    n = box.dim
    n_rows = box.ineq_rhs.size
    eq_jac = problem.eq_jacobian
    best_val, best_d = np.inf, None

    for coord_state in itertools.product((0, 1, 2), repeat=n):
        fixed = {i: box.lower[i] if st == 1 else box.upper[i]
                 for i, st in enumerate(coord_state) if st}
        free = [i for i in range(n) if i not in fixed]
        for k in range(n_rows + 1):
            for act in itertools.combinations(range(n_rows), k):
                d = _solve_kkt_guess(box, g, alpha, fixed, free, act,
                                     eq_jac, problem.eq_residual, tol)
                if d is None or not box.membership(d, tol=tol):
                    continue
                if problem.n_eq and np.max(np.abs(
                        problem.eq_residual + eq_jac.T @ d)) > tol:
                    continue
                val = g @ d + 0.5 * alpha * (d @ d)
                if val < best_val - 1e-14:
                    best_val, best_d = val, d
    return best_val, best_d


def _solve_kkt_guess(box, g, alpha, fixed, free, act, eq_jac, eq_res, tol):
    """Stationary point with the given coordinates fixed and rows/eqs active.

    On the free coordinates this is the projection of -g/alpha onto the
    active rows: the least-norm correction is found by least squares, so
    dependent rows (such as a duplicated equality column) need no special
    case.  None when the active rows cannot all be met to tol.
    """
    n = box.dim
    d = np.zeros(n)
    for i, v in fixed.items():
        d[i] = v

    active_rows = []
    active_rhs = []
    if act:
        active_rows.append(box.ineq_matrix[list(act)])
        active_rhs.append(box.ineq_rhs[list(act)])
    if eq_jac is not None and eq_jac.size:
        active_rows.append(eq_jac.T)
        active_rhs.append(-eq_res)
    if not active_rows:
        for i in free:
            d[i] = -g[i] / alpha
        return d

    rows = np.vstack(active_rows)
    rhs = np.concatenate(active_rhs)
    if fixed:
        fixed_idx = list(fixed)
        rhs = rhs - rows[:, fixed_idx] @ np.array([fixed[i] for i in fixed_idx])
    if not free:
        return d if np.max(np.abs(rhs), initial=0.0) <= tol else None
    a = rows[:, free]
    start = -g[free] / alpha
    step = start + np.linalg.lstsq(a, rhs - a @ start, rcond=None)[0]
    if np.max(np.abs(a @ step - rhs)) > tol:
        return None
    d[free] = step
    return d


def set_rows(box) -> np.ndarray:
    """The set's bounds and rows as one dense matrix, in the order of
    box.limits: the lower bounds as -I, the upper bounds as I, then
    ineq_matrix.  set_rows(box) @ x <= box.limits is the set."""
    eye = np.eye(box.dim)
    return np.concatenate([-eye, eye, box.ineq_matrix])


def kkt_residual(problem: QpProblem, solution) -> float:
    """Max of the stationarity, primal, dual and complementarity infinity
    norms of a candidate (step, set_multipliers, eq_multipliers) for

        min g.d + (alpha/2)|d|^2  s.t.  set_rows(set) @ d <= set.limits,
                                        eq_jacobian.T @ d = -eq_residual,

    from that definition on dense arrays, unscaled.  Zero for an exact KKT
    point, and NaN if any entry of the candidate is NaN.
    """
    rows, d = set_rows(problem.set), np.asarray(solution.step, dtype=float)
    mu = np.asarray(solution.set_multipliers, dtype=float)
    stationarity = problem.gradient + problem.curvature * d + rows.T @ mu
    eq_gap = np.zeros(0)
    if problem.n_eq:
        lam = np.asarray(solution.eq_multipliers, dtype=float)
        stationarity = stationarity + problem.eq_jacobian @ lam
        eq_gap = problem.eq_jacobian.T @ d + problem.eq_residual
    slack = problem.set.limits - rows @ d
    return float(np.max(np.concatenate([
        np.abs(stationarity), -slack, np.abs(eq_gap), -mu, np.abs(mu * slack), [0.0]])))


def enumerate_lp(problem: LpProblem, tol: float = 1e-9) -> float:
    """Optimal value by vertex enumeration; requires a bounded optimum.

    Candidate active constraints: the inequality rows, the lower bounds, and
    the finite upper bounds.  Every choice of n of them with a nonsingular
    system yields a candidate vertex; infeasible ones are discarded.
    """
    a_mat, b = problem.ineq_matrix, problem.ineq_rhs
    lo, up = problem.lower, problem.upper
    c = problem.cost
    q = problem.n_vars

    normals = [a_mat]
    offsets = [b]
    normals.append(-np.eye(q))
    offsets.append(-lo)
    finite_up = np.flatnonzero(np.isfinite(up))
    if finite_up.size:
        sel = np.eye(q)[finite_up]
        normals.append(sel)
        offsets.append(up[finite_up])
    normals = np.vstack(normals)
    offsets = np.concatenate(offsets)
    total = normals.shape[0]

    combos = np.array(list(itertools.combinations(range(total), q)))
    mats = normals[combos]
    rhs = offsets[combos]
    dets = np.abs(np.linalg.det(mats))
    good = dets > 1e-12
    if not good.any():
        raise ValueError("no nonsingular vertex system found")
    points = np.linalg.solve(mats[good], rhs[good][..., None])[..., 0]

    feasible = (np.all(points @ a_mat.T <= b + tol, axis=1)
                & np.all(points >= lo - tol, axis=1)
                & np.all(points <= up + tol, axis=1))
    if not feasible.any():
        raise ValueError("vertex enumeration found no feasible vertex")
    return float(np.min(points[feasible] @ c))



def verify_lp(problem: LpProblem, solution: LpSolution) -> dict:
    """Primal residual, dual residual and duality gap of a claimed optimum.

    The bound multipliers are the parts of the reduced costs c + A^T mu."""
    x = solution.primal
    mu = solution.duals
    r = problem.cost + problem.ineq_matrix.T @ mu
    pi_lower = np.maximum(r, 0.0)
    pi_upper = np.maximum(-r, 0.0)

    primal_res = max(
        float(np.max(problem.ineq_matrix @ x - problem.ineq_rhs, initial=0.0)),
        float(np.max(problem.lower - x, initial=0.0)),
        float(np.max(np.where(np.isfinite(problem.upper), x - problem.upper, 0.0),
                     initial=0.0)),
    )

    stationarity = problem.cost + problem.ineq_matrix.T @ mu - pi_lower + pi_upper
    slack = problem.ineq_rhs - problem.ineq_matrix @ x
    finite_up = np.isfinite(problem.upper)
    up_gap = np.where(finite_up, problem.upper - x, 0.0)
    dual_res = max(
        float(np.linalg.norm(stationarity, ord=np.inf)),
        max(0.0, -float(np.min(mu, initial=0.0))),
        float(np.max(np.abs(mu * slack), initial=0.0)),
        float(np.max(np.abs(pi_lower * (x - problem.lower)), initial=0.0)),
        # an upper multiplier on an infinite bound is pure dual infeasibility
        float(np.max(np.abs(np.where(finite_up, pi_upper * up_gap, pi_upper)),
                     initial=0.0)),
    )

    dual_objective = (-mu @ problem.ineq_rhs + pi_lower @ problem.lower
                      - float(pi_upper @ np.where(finite_up, problem.upper, 0.0)))
    gap = abs(solution.objective - dual_objective)
    return {"primal_res": primal_res, "dual_res": dual_res, "gap": gap}


def batch_row(problem: LpProblem, batch: LpBatchSolution, i: int) -> LpSolution:
    """Row i of a batch as an LpSolution of its own: its group's solve, with
    the row's basic values and objective (the solve itself if not OPTIMAL)."""
    solve = batch.solves[batch.group[i]]
    if solve.status is not LpStatus.OPTIMAL:
        return solve
    values = np.zeros(problem.n_vars + problem.n_rows)
    values[solve.at_upper] = problem.ranges[solve.at_upper]
    values[solve.basis] = batch.xb[i]
    return LpSolution(problem.lower + values[:problem.n_vars], solve.duals,
                      float(batch.objective[i]), solve.status,
                      basis=solve.basis, at_upper=solve.at_upper)


def served_batch(problem: LpProblem, rhs: np.ndarray, start) -> LpBatchSolution | None:
    """solve_lp_multi_rhs's batch where the checked Start serves every row,
    as the served path was written before the Start held its fit bound and
    the problem its column cost: products by @, the slack costs padded, the
    bound rebuilt and both range tests in full per call.  None where the
    start does not serve the batch."""
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    n_lp, s = rhs.shape
    rng = problem.ranges
    costs = np.concatenate([problem.cost, np.zeros(s)])
    fixed_cost = float(problem.cost @ problem.lower)
    basis, upper, b_inv = start.basis, start.at_upper, start.inverse
    bound = rng[basis] + FEAS_TOL
    net = rhs - problem.lower_rows
    if upper.size:
        net = net - problem.columns[:, upper] @ rng[upper]
    values = net @ b_inv.T
    xb = b_inv @ net[0]
    if not (((values >= -FEAS_TOL) & (values <= bound)).all()
            and ((xb >= -FEAS_TOL) & (xb <= bound)).all()):
        return None
    y = costs[basis] @ b_inv
    viol = start.sign * (costs - y @ problem.columns)
    if viol[viol.argmax()] > PIVOT_TOL:
        return None
    full = np.zeros(problem.n_vars + s)
    full[upper] = rng[upper]
    full[basis] = xb
    x = problem.lower + full[:problem.n_vars]
    sol = LpSolution(x, -y, float(problem.cost @ x), LpStatus.OPTIMAL, 0, basis, upper, b_inv)
    nonbasic_cost = fixed_cost + costs[upper] @ rng[upper]
    return LpBatchSolution([sol], np.zeros(n_lp, dtype=np.intp), values,
                           nonbasic_cost + values @ costs[basis])


def served_recourse(instance: PpsInstance, p: float, scenarios: np.ndarray) -> tuple | None:
    """recourse_lp's (values, p-derivatives) for a batch its crash start
    serves, as written before the oracle built its cost and right-hand
    sides in place: the cost by _recourse_cost and with_vectors, the demand
    caps written into a zero block, and served_batch.  None where the start
    does not serve the batch."""
    n = instance.stores
    problem = instance.recourse.with_vectors(cost=pps._recourse_cost(instance, p))
    slopes, intercepts = scenarios[:, :n], scenarios[:, n:]
    rhs = np.zeros((len(scenarios), n + instance.factories))
    rhs[:, :n] = slopes * p + intercepts
    start, mask = pps._recourse_start(instance, p, rhs[:, :n])
    sol = served_batch(problem, rhs, start)
    if sol is None:
        return None
    return sol.objective, -(sol.xb @ mask) - slopes @ sol.solves[0].duals[:n]


def dict_run_csv(trace, out_dir, run_id: str, epoch_size: int) -> tuple:
    """write_run_csv as csv.DictWriter wrote it from one dict per row: the
    TRACE_COLUMNS of each record, floats by repr, then x0 .. x{n-1} by
    repr(float); per epoch the last record so far, over the whole budget
    when the run stopped on it.  Writes {run_id}_trace.csv and
    {run_id}_epochs.csv under out_dir and returns the two paths."""
    records = trace.records
    dim = trace.problem.dimension if trace.problem is not None else (
        records[0].x.size if records else 0)
    header = list(TRACE_COLUMNS) + [f"x{i}" for i in range(dim)]

    def row(rec, epoch):
        out = {}
        for col in TRACE_COLUMNS:
            value = (epoch if col == "epoch" else rec.batch_size if col == "N"
                     else getattr(rec, col))
            out[col] = repr(value) if isinstance(value, float) else value
        for i, xi in enumerate(rec.x):
            out[f"x{i}"] = repr(float(xi))
        return out

    def epoch_of(rec):
        return (rec.oracle_calls - 1) // epoch_size

    ends = {epoch_of(rec): i for i, rec in enumerate(records)}
    iter_rows = [row(rec, epoch_of(rec)) for rec in records]
    epoch_rows = []
    if records:
        if trace.stop_reason == "budget" and trace.config is not None:
            n_epochs = math.ceil(trace.config.budget / epoch_size)
        else:
            n_epochs = max(ends) + 1
        current = records[0]
        for e in range(n_epochs):
            current = records[ends[e]] if e in ends else current
            epoch_rows.append(row(current, e))
    paths = (Path(out_dir) / f"{run_id}_trace.csv", Path(out_dir) / f"{run_id}_epochs.csv")
    for path, rows in zip(paths, (iter_rows, epoch_rows)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    return paths


def checked_aggregate(problem: ConstrainedStochasticProblem, x: np.ndarray,
                      scenarios: np.ndarray) -> SampleStats:
    """sampling.aggregate as it was written before it read finiteness off
    its sums: one isfinite pass over each output array, then the axis-0
    reduce.  Its SampleStats computes the scatter as before, from the
    subgradients it is given and the mean."""
    n_scen = len(scenarios)
    if n_scen < MIN_BATCH:
        raise ValueError(f"a batch needs at least {MIN_BATCH} scenarios")
    try:
        values, grads = problem.oracle(x, scenarios)
    except Exception as exc:
        index = _first_failure(problem, x, scenarios)
        where = (f"on the batch of {n_scen} scenarios (no scenario fails alone)"
                 if index is None else f"at scenario index {index}")
        raise OracleError(f"oracle failed {where}: {exc}") from exc
    values = np.asarray(values, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if values.shape != (n_scen,) or grads.shape != (n_scen, problem.dimension):
        raise OracleError(f"oracle returned shapes {values.shape} and {grads.shape} "
                          f"for {n_scen} scenarios in dimension {problem.dimension}")
    if not (np.logical_and.reduce(np.isfinite(values), axis=None)
            and np.logical_and.reduce(np.isfinite(grads), axis=None)):
        finite = np.isfinite(values) & np.isfinite(grads).all(axis=1)
        raise OracleError(f"oracle returned a non-finite value or subgradient at "
                          f"scenario index {int(np.argmin(finite))}")
    mean_grad = np.add.reduce(grads, axis=0) / n_scen
    return SampleStats(float(np.add.reduce(values) / n_scen), mean_grad, None, n_scen, grads)


def kernel_solve(problem: QpProblem) -> QpSolution:
    """solve_qp as it was written before the set held its rows: the rows
    and their exponents derived on every call, the loop kernel_active_set,
    the certificate kernel_kkt."""
    box, alpha, m = problem.set, problem.curvature, problem.n_eq
    gradient, limits = problem.gradient.tolist(), box.limits.tolist()
    general = box.ineq_matrix.tolist()
    if problem.eq_jacobian is not None:
        general += problem.eq_jacobian.T.tolist()
        limits = limits + (-problem.eq_residual).tolist()
    exps = list(map(_row_exponent, general))
    g_max = max(map(abs, gradient))
    if math.isfinite(g_max / alpha):
        result = kernel_active_set(gradient, alpha, general, limits, m, exps)
    else:
        result = QpStatus.NUMERICAL_FAILURE, None, None, False, 0
    status, d, mults, rank_warning, iterations = result
    residual = math.inf
    if status is QpStatus.OPTIMAL:
        residual = kernel_kkt(gradient, alpha, general, limits, m, exps, d, mults)
        if not residual <= TOL * max(1.0, g_max):
            status = QpStatus.NUMERICAL_FAILURE
    else:
        d, mults = [0.0] * len(gradient), [0.0] * len(limits)
    n_set = box.limits.size
    return QpSolution(np.array(d), np.array(mults[n_set:]), np.array(mults[:n_set]),
                      residual, status, rank_warning, iterations)


def kernel_stationarity(g: np.ndarray, box, x: np.ndarray, eq: tuple | None = None) -> tuple:
    """stationarity_error's (residual, multipliers) as it was written before
    the set held its rows, through kernel_active_set."""
    g_list, values = np.asarray(g, dtype=float).tolist(), box.translated_limits(x).tolist()
    n, n_set = box.dim, len(values)
    rows = box.ineq_matrix.tolist()
    if eq is not None:
        rows += np.asarray(eq[1], dtype=float).T.tolist()
        values = values + (-np.atleast_1d(np.asarray(eq[0], dtype=float))).tolist()
    act = [abs(v) <= ACTIVITY_TOL * (1.0 + abs(v)) for v in values]
    multipliers = np.zeros(len(values))
    if not any(act):
        return float(np.linalg.norm(g)), multipliers
    index = [*range(2 * n), *(c for c in range(2 * n, len(values)) if act[c])]
    g_exp, active = _row_exponent(g_list), [rows[c - 2 * n] for c in index[2 * n:]]
    status, d, mults, _, _ = kernel_active_set(
        [math.ldexp(v, -g_exp) for v in g_list], 1.0, active,
        [0.0 if act[c] else math.inf for c in index], sum(act[n_set:]),
        list(map(_row_exponent, active)))
    if status is not QpStatus.OPTIMAL:
        raise RuntimeError(f"polar-cone projection ended {status.value}")
    for c, w in zip(index, mults):
        multipliers[c] = math.ldexp(w if c >= n_set or w > 0.0 else 0.0, g_exp)
    return math.ldexp(math.hypot(*d), g_exp), multipliers


def kernel_active_set(gradient: list, alpha: float, general: list, limits: list, m: int,
                      exps: list):
    """qp._active_set as it was written before the set held its rows: it
    takes the rows unscaled and scales each by its exponent on every call."""
    n, k = len(gradient), len(general)
    general = [[math.ldexp(v, -e) for v in a] for a, e in zip(general, exps)]
    limits = limits[:2 * n] + [_scaled_limit(b, e) for b, e in zip(limits[2 * n:], exps)]
    side = [0.0] * n
    rows = list(range(2 * n + k - m, 2 * n + k))  # then inequality rows, in order of entry
    eq_rows, eq_limits = general[k - m:], limits[2 * n + k - m:]
    if not all(map(math.isfinite, eq_limits)):  # no finite step meets such a row
        return QpStatus.INFEASIBLE, None, None, False, 0
    d, row_mults, rank_warning = _project(gradient, alpha, limits, side, eq_rows, eq_limits)
    if m and max(abs(_dot(a, d) - b) for a, b in zip(eq_rows, eq_limits)) > VIOLATION_TOL:
        return QpStatus.INFEASIBLE, None, None, rank_warning, 0
    nu = [0.0] * len(limits)  # working multipliers over alpha, by constraint id
    entering, iterations = None, 0
    for _ in range(MAX_ITER_PER_ROW * (n + k)):
        if entering is None:
            # fixed coordinates sit on their bounds; working rows hold to roundoff
            excess = [v - b for v, b in zip(
                [-x for x in d] + d + [_dot(a, d) for a in general], limits)]
            for c in rows:
                excess[c] = 0.0
            # ties go to the lowest id
            entering = max(range(len(excess)), key=excess.__getitem__)
            if excess[entering] <= VIOLATION_TOL:
                break
        if entering < 2 * n:  # a bound's normal is a signed unit vector
            a = [0.0] * n
            a[entering % n] = 1.0 if entering >= n else -1.0
        else:
            a = general[entering - 2 * n]
        work = [general[c - 2 * n] for c in rows]
        # a = work.T @ coef + (unit normals of the fixed bounds) + toward, with
        # toward orthogonal to the working rows and zero on fixed coordinates
        toward, coef, dependent = _direction(work, [s == 0.0 for s in side], a)
        rank_warning = rank_warning or dependent
        # what a unit step takes from each working multiplier, by constraint
        # id; the equality rows' multipliers are free in sign and never leave
        shrink = {i + n * (s > 0.0): s * (a[i] - _dot([w[i] for w in work], coef))
                  for i, s in enumerate(side) if s}
        shrink.update(zip(rows[m:], coef[m:]))
        # step lengths in multiplier units: onto the violated constraint, and
        # to the first working multiplier that reaches zero
        tiny = RANK_THRESHOLD * math.hypot(*a)
        reach = _dot(toward, toward)
        full = (_dot(a, d) - limits[entering]) / reach if reach > tiny * tiny else math.inf
        falls = sorted(c for c, v in shrink.items() if v > tiny)
        ratios = [nu[c] / shrink[c] for c in falls]
        partial = min(ratios, default=math.inf)
        t = min(full, partial)
        if t == math.inf:
            return QpStatus.INFEASIBLE, None, None, rank_warning, iterations
        d = [x - t * y for x, y in zip(d, toward)]
        for c, v in shrink.items():
            nu[c] -= t * v
        nu[entering] += t  # zero when it started to enter: it was not working
        iterations += 1
        if full <= partial:
            if entering < 2 * n:
                i = entering % n
                side[i] = a[i]
                d[i] = a[i] * limits[entering]  # the bound itself
            else:
                rows.append(entering)
            entering = None
        else:
            leaving = falls[ratios.index(partial)]
            nu[leaving] = 0.0
            if leaving < 2 * n:
                side[leaving % n] = 0.0
            else:
                rows.remove(leaving)
    else:
        return QpStatus.NUMERICAL_FAILURE, None, None, rank_warning, iterations
    work = [general[c - 2 * n] for c in rows]
    if iterations:  # else d is the start: the same projection
        d, row_mults, dependent = _project(gradient, alpha, limits, side, work,
                                           [limits[c] for c in rows])
        rank_warning = rank_warning or dependent
    # the step and multipliers come from the final working set alone, so the
    # step meets its working rows to roundoff
    mults = [0.0] * len(limits)
    for i, (s, g, x) in enumerate(zip(side, gradient, d)):
        if s:
            mults[i + n * (s > 0.0)] = -s * (g + alpha * x + _dot([w[i] for w in work], row_mults))
    for c, w in zip(rows, row_mults):
        mults[c] = math.ldexp(w, -exps[c - 2 * n])
    return QpStatus.OPTIMAL, d, mults, rank_warning, iterations


def kernel_kkt(gradient: list, alpha: float, general: list, limits: list, m: int,
               exps: list, d: list, mults: list) -> float:
    """qp._kkt as it was written before the one-pass certificate: the slack,
    stationarity, scaled and parts lists, then one max."""
    n, p = len(gradient), len(general) - m
    n_set = 2 * n + p
    # the slack of the lower bounds, the upper bounds and the general rows
    slack = ([b + x for b, x in zip(limits, d)] + [b - x for b, x in zip(limits[n:], d)]
             + [b - _dot(a, d) for a, b in zip(general, limits[2 * n:])])
    # g + alpha d + (normal-cone element) + (equality rows' part), by
    # coordinate, summed over the inequality rows and then the equality rows
    stat = [g + alpha * x + (up - lo) for g, x, lo, up in
            zip(gradient, d, mults[:n], mults[n:2 * n])]
    for rows, w in ((general[:p], mults[2 * n:n_set]), (general[p:], mults[n_set:])):
        if rows:
            stat = [s + _dot(col, w) for s, col in zip(stat, zip(*rows))]
    # each inequality row's -slack and -multiplier and each equality row's
    # |gap|, at its row scale
    scaled = [-_scaled_limit(s, e) for s, e in zip(slack[2 * n:n_set], exps)]
    scaled += [-_scaled_limit(w, -e) for w, e in zip(mults[2 * n:n_set], exps)]
    scaled += [abs(_scaled_limit(s, e)) for s, e in zip(slack[n_set:], exps[p:])]
    parts = [*map(abs, stat), *map(operator.neg, slack[:2 * n] + mults[:2 * n]), *scaled,
             *(abs(w * s) for w, s in zip(mults, slack[:n_set]))]
    # |stat| keeps the max nonnegative; Python's max would drop a NaN that is not first
    return math.nan if any(map(math.isnan, parts)) else max(parts)


def _factor(work: list, free: list):
    """qp._factor as kernel_active_set's _direction and _project call it,
    empty lists for no rows."""
    if len(work) > 1:
        u, s, vt = np.linalg.svd(np.array(work) * free, full_matrices=False)
        keep = s > RANK_THRESHOLD * s[0]
        return u[:, keep].tolist(), s[keep].tolist(), (vt[keep] * free).tolist()
    if not work:
        return [], [], []
    part = [a if f else 0.0 for a, f in zip(work[0], free)]
    norm = math.hypot(*part)
    if not norm > 0.0:
        return [[]], [], []
    return [[1.0]], [norm], [[a / norm for a in part]]


def _direction(work: list, free: list, normal: list):
    """qp._direction as kernel_active_set calls it."""
    toward = [a if f else 0.0 for a, f in zip(normal, free)]
    u, s, vt = _factor(work, free)
    scaled = []  # coords / s
    # vt's rows are orthonormal: taking one off leaves the next coordinate as it was
    for sv, v in zip(s, vt):
        c = _dot(v, toward)
        toward = [x - c * y for x, y in zip(toward, v)]
        scaled.append(c / sv)
    return toward, [_dot(row, scaled) for row in u], len(s) < len(work)


def _project(gradient: list, alpha: float, limits: list, side: list, work: list, rhs: list):
    """qp._project as kernel_active_set calls it."""
    n = len(gradient)
    d = [-limits[i] if k < 0.0 else limits[n + i] if k > 0.0 else -g / alpha
         for i, (k, g) in enumerate(zip(side, gradient))]
    u, s, vt = _factor(work, [k == 0.0 for k in side])
    residual = [b - _dot(a, d) for a, b in zip(work, rhs)]
    # -alpha inside the sums: a row with no singular value sums to +0.0, not -0.0
    scaled = []  # -alpha coords / s
    for col, sv, v in zip(zip(*u), s, vt):
        c = _dot(col, residual) / sv
        d = [x + c * y for x, y in zip(d, v)]
        scaled.append(-alpha * (c / sv))
    return d, [_dot(row, scaled) for row in u], len(s) < len(work)


def finite_difference_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def truncated_normal_moments(a: float, b: float) -> tuple:
    """(mean, variance) of N(midpoint, (width/4)^2) restricted to [a, b],
    by direct quadrature of the truncated density."""
    mean0 = 0.5 * (a + b)
    sigma = (b - a) / 4.0

    def density(u):
        return math.exp(-0.5 * ((u - mean0) / sigma) ** 2)

    mass, _ = quad(density, a, b)
    mean, _ = quad(lambda u: u * density(u), a, b)
    mean /= mass
    second, _ = quad(lambda u: (u - mean) ** 2 * density(u), a, b)
    return mean, second / mass


def plain_scenario_sampler(instance: PpsInstance):
    """The PPS sampler in its plainest form.  Round one draws one (count, m)
    block of standard normals for all m = 2*stores intervals, the slopes'
    then the intercepts'.  Each later round draws one normal per entry still
    pending, taken in row-major order, and a Python loop over those (i, j)
    entries keeps each accepted value.  pps.scenario_sampler must give the
    same bits from the same generator."""
    lo, hi = np.vstack([instance.slope_intervals, instance.intercept_intervals]).T
    mean, sigma = 0.5 * (lo + hi), (hi - lo) / 4.0

    def sample(rng, count):
        out = mean + sigma * rng.standard_normal((count, lo.size))
        pending = [(i, j) for i in range(count) for j in range(lo.size)
                   if not lo[j] <= out[i, j] <= hi[j]]
        while pending:
            rejected = []
            for (i, j), z in zip(pending, rng.standard_normal(len(pending))):
                value = mean[j] + sigma[j] * z
                if lo[j] <= value <= hi[j]:
                    out[i, j] = value
                else:
                    rejected.append((i, j))
            pending = rejected
        return out

    return sample


def grid_minimum(fn, lower: np.ndarray, upper: np.ndarray, steps: int) -> tuple:
    """(best point, best value) of fn over a regular grid on a box."""
    axes = [np.linspace(lo, hi, steps) for lo, hi in zip(lower, upper)]
    best_x, best_val = None, np.inf
    for point in itertools.product(*axes):
        val = fn(np.array(point))
        if val < best_val:
            best_val, best_x = val, np.array(point)
    return best_x, best_val


def recourse_closed_form(instance: PpsInstance, p: float, slopes: np.ndarray,
                         intercepts: np.ndarray) -> tuple:
    """Vectorized recourse values and d/dp for a batch of scenarios.

    Valid only for uniform shipment costs (the reference data has s_ij = 2);
    kept as an independent check of recourse_lp.  With a single margin
    m = p - s, the optimal policy ships up to capacity from the mandatory
    production floor and tops up at the cheapest factory, so the value is
    piecewise quadratic in p with explicit breakpoints.
    slopes/intercepts have shape (batch, stores); returns two (batch,) arrays.
    """
    ship = float(instance.shipment_costs.flat[0])
    if np.ptp(instance.shipment_costs) != 0.0:
        raise ValueError("closed form requires uniform shipment costs")
    floor_capacity = instance.quantity_floor * instance.factories
    c_min = float(np.min(instance.production_costs))
    base = float(np.sum(instance.production_costs)) * instance.quantity_floor

    demand = slopes * p + intercepts
    if np.any(demand < 0):
        raise ValueError("closed form requires nonnegative demand caps")
    total = demand.sum(axis=1)
    d_total = slopes.sum(axis=1)

    margin = p - ship
    premium = margin - c_min
    shipped = np.minimum(floor_capacity, total)
    extra = np.maximum(total - floor_capacity, 0.0)

    value = base - max(margin, 0.0) * shipped - max(premium, 0.0) * extra
    deriv = np.zeros_like(total)
    if margin > 0:
        deriv -= shipped
        deriv -= margin * np.where(total < floor_capacity, d_total, 0.0)
    if premium > 0:
        deriv -= extra
        deriv -= premium * np.where(total > floor_capacity, d_total, 0.0)
    return value, deriv


def second_stage_lp(instance: PpsInstance, p: float, scenario: np.ndarray) -> LpProblem:
    """The recourse LP at price p for one scenario row, for cold solves."""
    return instance.recourse.with_vectors(
        cost=pps._recourse_cost(instance, p), ineq_rhs=pps._recourse_rhs(instance, p, scenario))


def suggest_rho(problem: ConstrainedStochasticProblem, n_pairs: int = 10 ** 4,
                seed: int = 0) -> float:
    """Brute-force modulus estimate: the largest sampled ratio
    2 * (R(x', xi) - R(x, xi) - G(x, xi).(x' - x)) / |x' - x|^2 over random
    feasible pairs, one scenario each.  A lower bound on the true modulus."""
    box = problem.set
    rng = np.random.Generator(np.random.Philox(key=seed))
    scenarios = draw_scenarios(problem.scenario_sampler, seed, 0, n_pairs)
    worst = 0.0
    for i in range(n_pairs):
        x = rng.uniform(box.lower, box.upper)
        x_alt = rng.uniform(box.lower, box.upper)
        d = x_alt - x
        d_sq = float(d @ d)
        if d_sq < 1e-16:
            continue
        batch = scenarios[i:i + 1]
        (val_x,), (grad_x,) = problem.oracle(x, batch)
        (val_alt,), _ = problem.oracle(x_alt, batch)
        gap = val_alt - val_x - float(grad_x @ d)
        worst = max(worst, 2.0 * gap / d_sq)
    return worst
