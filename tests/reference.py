"""Brute-force reference oracles the tests certify the solver against.

Nothing here is clever on purpose.  The QP reference enumerates every
combination of active bounds and rows and solves the resulting equality
systems; the LP reference enumerates candidate vertices from every choice of
n active constraints.  Both are exponential and meant for tiny instances.
The rest are independent checks: a dense QP KKT residual, LP optimality
residuals (with the expansion of one batch row into its own LP solution),
finite differences, quadrature moments, grid minima, the plain two-call PPS
sampler, the closed-form PPS recourse and a sampled weak-convexity modulus.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad

from snsqp.bench import pps
from snsqp.bench.pps import PpsInstance
from snsqp.lp import LpBatchSolution, LpProblem, LpSolution, LpStatus
from snsqp.model import ConstrainedStochasticProblem
from snsqp.qp import QpProblem
from snsqp.sampling import draw_scenarios


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
