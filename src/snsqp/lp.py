"""Dense linear programs with inequality rows and variable bounds.

Two-phase revised simplex on the slack-extended standard form, with
bounded-variable pivoting (variables may sit at either bound when nonbasic)
and Bland's rule engaged after a pivot budget to guarantee termination on
degenerate instances.

Dual sign convention: inequality rows A x <= b carry nonnegative multipliers
mu in the Lagrangian L = c.x + mu.(A x - b).  The value-function subgradient
formulas downstream rely on this sign, so it is part of the contract.
bound_duals holds the reduced cost of each variable at the optimum:
nonnegative at an active lower bound, nonpositive at an active upper bound.

LPs that share cost, rows and bounds and differ only in the right-hand side
are solved together by solve_lp_multi_rhs, which reuses optimal bases across
them ("bunching", Birge & Louveaux, Introduction to Stochastic Programming,
L-shaped chapter).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
#: pivots before switching from largest-violation pricing to Bland's rule
BLAND_AFTER_FACTOR = 10
#: periodic reinversion of the basis for numerical hygiene
REFACTOR_EVERY = 60


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpProblem:
    """min cost.x  s.t.  ineq_matrix @ x <= ineq_rhs,  lower <= x <= upper.

    Lower bounds must be finite; upper bounds may be +inf.
    """

    cost: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.cost = np.atleast_1d(np.asarray(self.cost, dtype=float))
        self.ineq_matrix = np.atleast_2d(np.asarray(self.ineq_matrix, dtype=float))
        self.ineq_rhs = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=float))
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        q = self.cost.size
        if self.ineq_matrix.shape[1] != q or self.ineq_matrix.shape[0] != self.ineq_rhs.size:
            raise ValueError("ineq_matrix must be (s, q) with ineq_rhs of length s")
        if self.lower.size != q or self.upper.size != q:
            raise ValueError("bounds must have the same length as cost")
        if not np.isfinite(self.lower).all():
            raise ValueError("lower bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("requires lower <= upper")

    @property
    def n_vars(self) -> int:
        return self.cost.size

    @property
    def n_rows(self) -> int:
        return self.ineq_rhs.size


@dataclass
class LpSolution:
    """Solution of one LP.

    At an optimum, basis lists the basic columns of [ineq_matrix | I]
    (structural variables, then one slack per row) and at_upper the nonbasic
    structural variables that sit at their upper bound; together they
    determine the vertex for any right-hand side.
    """

    primal: np.ndarray
    duals: np.ndarray
    bound_duals: np.ndarray
    objective: float
    status: LpStatus
    iterations: int = 0
    basis: np.ndarray = None
    at_upper: np.ndarray = None


@dataclass
class LpBatchSolution:
    """Solutions of LPs that differ only in their right-hand side, one row each.

    status is an object array of LpStatus; rows that are not OPTIMAL hold
    zeros and a nan objective.
    cold_solves counts the solve_lp calls made; every other row reused the
    optimal basis of one of those solves.
    """

    primal: np.ndarray
    duals: np.ndarray
    bound_duals: np.ndarray
    objective: np.ndarray
    status: np.ndarray
    cold_solves: int


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP; status reports infeasibility/unboundedness, never raises for them."""
    q, s = problem.n_vars, problem.n_rows
    if s == 0:
        return _solve_box_only(problem)

    rng_x = problem.upper - problem.lower
    b0 = problem.ineq_rhs - problem.ineq_matrix @ problem.lower

    core = _Simplex(problem.ineq_matrix, b0, rng_x, problem.cost)
    status = core.run(bland_after=BLAND_AFTER_FACTOR * (q + s))
    if status is not LpStatus.OPTIMAL:
        return LpSolution(np.zeros(q), np.zeros(s), np.zeros(q), np.nan, status,
                          core.pivots)

    vals = core.values()
    x = problem.lower + vals[:q]
    y = core.dual_y()
    reduced = core.cost - y @ core.cols
    # a basic artificial sits at zero; its row's slack (the negated column)
    # spans the same basis with the same duals
    basis = core.basis.copy()
    artificial = basis >= q + s
    basis[artificial] = q + core.neg_rows[basis[artificial] - q - s]
    return LpSolution(
        primal=x,
        duals=-y,
        bound_duals=reduced[:q],
        objective=float(problem.cost @ x),
        status=LpStatus.OPTIMAL,
        iterations=core.pivots,
        basis=basis,
        at_upper=np.flatnonzero(core.at_upper[:q] & ~core.in_basis[:q]),
    )


def solve_lp_multi_rhs(problem: LpProblem, rhs: np.ndarray) -> LpBatchSolution:
    """Solve `problem` once per row of rhs (shape (N, rows)), reusing bases.

    The LPs share cost, rows and bounds (problem.ineq_rhs is not used), so an
    optimal basis of one is dual feasible for all of them, and it is optimal
    for every right-hand side that keeps its basic values within bounds.  The
    first unresolved row is cold-solved by solve_lp; B^-1 (b0 - N_U u_U) is
    formed for every other unresolved row in one product; rows whose basic
    values lie within their bounds to FEAS_TOL are accepted with the cold
    solve's duals; the rest repeat from the first rejected row.
    """
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    n_lp, s = rhs.shape
    if s != problem.n_rows:
        raise ValueError("rhs must have one column per inequality row")
    q = problem.n_vars
    cols = np.hstack([problem.ineq_matrix, np.eye(s)])
    rng = np.concatenate([problem.upper - problem.lower, np.full(s, np.inf)])
    shifted = rhs - problem.ineq_matrix @ problem.lower

    primal = np.zeros((n_lp, q))
    duals = np.zeros((n_lp, s))
    bound_duals = np.zeros((n_lp, q))
    objective = np.full(n_lp, np.nan)
    status = np.full(n_lp, None, dtype=object)
    cold_solves = 0
    pending = np.arange(n_lp)
    while pending.size:
        first, rest = pending[0], pending[1:]
        sol = solve_lp(replace(problem, ineq_rhs=rhs[first]))
        cold_solves += 1
        status[first] = sol.status
        if sol.status is not LpStatus.OPTIMAL:
            pending = rest
            continue
        primal[first], objective[first] = sol.primal, sol.objective
        duals[first], bound_duals[first] = sol.duals, sol.bound_duals
        if not rest.size:
            break

        basis, upper = sol.basis, sol.at_upper
        b_inv = np.linalg.inv(cols[:, basis])
        xb = (shifted[rest] - cols[:, upper] @ rng[upper]) @ b_inv.T
        fits = np.all((xb >= -FEAS_TOL) & (xb <= rng[basis] + FEAS_TOL), axis=1)
        won = rest[fits]
        z = np.zeros((won.size, q + s))
        z[:, upper] = rng[upper]
        z[:, basis] = xb[fits]
        primal[won] = problem.lower + z[:, :q]
        objective[won] = primal[won] @ problem.cost
        duals[won], bound_duals[won] = sol.duals, sol.bound_duals
        status[won] = LpStatus.OPTIMAL
        pending = rest[~fits]
    return LpBatchSolution(primal=primal, duals=duals, bound_duals=bound_duals,
                           objective=objective, status=status,
                           cold_solves=cold_solves)


def verify_lp(problem: LpProblem, solution: LpSolution) -> dict:
    """Primal residual, dual residual and duality gap of a claimed optimum."""
    x = solution.primal
    mu = solution.duals
    r = solution.bound_duals
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


def _solve_box_only(problem: LpProblem) -> LpSolution:
    """No rows: minimize a linear function over a box."""
    q = problem.n_vars
    x = problem.lower.copy()
    for j in range(q):
        if problem.cost[j] < -PIVOT_TOL:
            if not np.isfinite(problem.upper[j]):
                return LpSolution(np.zeros(q), np.zeros(0), np.zeros(q), np.nan,
                                  LpStatus.UNBOUNDED)
            x[j] = problem.upper[j]
    return LpSolution(x, np.zeros(0), problem.cost.copy(), float(problem.cost @ x),
                      LpStatus.OPTIMAL, basis=np.zeros(0, dtype=int),
                      at_upper=np.flatnonzero(x != problem.lower))


class _Simplex:
    """Revised simplex on  [A | I | -E] z = b0,  0 <= z <= rng.

    Columns: q structural variables (shifted so their lower bound is 0),
    s slacks, then one artificial column -e_i per negative rhs row.
    Artificials cost 1 in phase 1 and get range 0 afterwards, which pins
    them to value zero without basis surgery.
    """

    def __init__(self, a_matrix, b0, rng_x, structural_cost):
        s, q = a_matrix.shape
        self.s, self.q = s, q
        neg_rows = np.flatnonzero(b0 < 0.0)
        n_art = neg_rows.size
        cols = np.hstack([a_matrix, np.eye(s)])
        if n_art:
            art = np.zeros((s, n_art))
            art[neg_rows, np.arange(n_art)] = -1.0
            cols = np.hstack([cols, art])
        self.cols = cols
        self.b0 = b0
        self.nv = q + s + n_art
        self.rng = np.concatenate([rng_x, np.full(s + n_art, np.inf)])
        self.art_slice = slice(q + s, self.nv)
        self.neg_rows = neg_rows
        self.structural_cost = structural_cost
        self.cost = np.zeros(self.nv)
        self.max_pivots = 1000 * (q + s) + 10000

        # starting basis: slacks, except artificials on negative rows
        self.basis = np.arange(q, q + s)
        if n_art:
            self.basis[neg_rows] = q + s + np.arange(n_art)
        self.in_basis = np.zeros(self.nv, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.zeros(self.nv, dtype=bool)
        self.b_inv = np.eye(s)
        if n_art:
            self.b_inv[neg_rows, neg_rows] = -1.0
        self.xb = np.abs(b0)
        self.pivots = 0

    def run(self, bland_after: int) -> LpStatus:
        if self.neg_rows.size:
            phase1 = np.zeros(self.nv)
            phase1[self.art_slice] = 1.0
            self.cost = phase1
            self._optimize(bland_after)  # bounded below by 0, cannot be unbounded
            if self._objective() > FEAS_TOL:
                return LpStatus.INFEASIBLE
            self.rng[self.art_slice] = 0.0
        real = np.zeros(self.nv)
        real[:self.q] = self.structural_cost
        self.cost = real
        return self._optimize(bland_after)

    def values(self) -> np.ndarray:
        vals = np.where(self.at_upper & np.isfinite(self.rng), self.rng, 0.0)
        vals[self.basis] = self.xb
        return vals

    def dual_y(self) -> np.ndarray:
        return self.cost[self.basis] @ self.b_inv

    def _objective(self) -> float:
        return float(self.cost @ self.values())

    def _optimize(self, bland_after: int) -> LpStatus:
        while True:
            y = self.cost[self.basis] @ self.b_inv
            reduced = self.cost - y @ self.cols
            j = self._entering(reduced, bland=self.pivots > bland_after)
            if j is None:
                return LpStatus.OPTIMAL
            if not self._pivot(j):
                return LpStatus.UNBOUNDED
            if self.pivots > self.max_pivots:
                raise RuntimeError("simplex pivot limit exceeded")

    def _entering(self, reduced: np.ndarray, bland: bool) -> int | None:
        movable = ~self.in_basis & (self.rng > 0.0)
        viol = np.where(movable & ~self.at_upper, -reduced, 0.0)
        viol = np.where(movable & self.at_upper, reduced, viol)
        viol[viol <= PIVOT_TOL] = 0.0
        if bland:
            nz = np.flatnonzero(viol)
            return int(nz[0]) if nz.size else None
        j = int(np.argmax(viol))
        return j if viol[j] > 0.0 else None

    def _pivot(self, j: int) -> bool:
        """Bring column j toward the basis; False signals an unbounded ray."""
        col = self.b_inv @ self.cols[:, j]
        sigma = -1.0 if self.at_upper[j] else 1.0
        delta = sigma * col

        rng_b = self.rng[self.basis]
        ratios = np.full(self.s, np.inf)
        to_lower = delta > PIVOT_TOL
        ratios[to_lower] = np.maximum(self.xb[to_lower], 0.0) / delta[to_lower]
        to_upper = (delta < -PIVOT_TOL) & np.isfinite(rng_b)
        ratios[to_upper] = (np.maximum(rng_b[to_upper] - self.xb[to_upper], 0.0)
                            / -delta[to_upper])

        min_ratio = float(ratios.min())
        flip_t = self.rng[j]
        if not (np.isfinite(min_ratio) or np.isfinite(flip_t)):
            return False
        self.pivots += 1

        if flip_t < min_ratio:
            self.xb = self.xb - flip_t * delta
            self.at_upper[j] = not self.at_upper[j]
            return True

        # leaving: smallest variable index among the minimal ratios (Bland-safe)
        tied = np.flatnonzero(ratios == min_ratio)
        leave_pos = int(tied[np.argmin(self.basis[tied])])
        leave = self.basis[leave_pos]

        self.xb = self.xb - min_ratio * delta
        self.xb[leave_pos] = min_ratio if sigma > 0 else self.rng[j] - min_ratio
        self.at_upper[leave] = delta[leave_pos] < 0  # it left toward its upper bound
        self.at_upper[j] = False
        self.in_basis[leave] = False
        self.in_basis[j] = True
        self.basis[leave_pos] = j

        piv = col[leave_pos]
        row = self.b_inv[leave_pos] / piv
        self.b_inv = self.b_inv - np.outer(col, row)
        self.b_inv[leave_pos] = row

        if self.pivots % REFACTOR_EVERY == 0:
            self._refactor()
        return True

    def _refactor(self):
        self.b_inv = np.linalg.inv(self.cols[:, self.basis])
        nb_upper = self.at_upper & ~self.in_basis
        rhs = self.b0 - self.cols[:, nb_upper] @ self.rng[nb_upper]
        self.xb = self.b_inv @ rhs
