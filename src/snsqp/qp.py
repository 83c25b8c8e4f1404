"""Strictly convex quadratic subproblems over a compact box-plus-inequality set.

Solves

    min  g.d + (alpha/2) ||d||^2
    s.t. eq_jacobian.T @ d = -eq_residual     (optional linearized equalities)
         d in set                             (translated feasible set)

with a dense primal active-set method over free variables.  With scalar
curvature an active bound just fixes its coordinate: the face step is
-(d + g/alpha) on the free coordinates, projected onto the null space of the
working equality and inequality rows there, and a bound's multiplier is the
stationarity residual on its coordinate.  The solve returns the step together
with equality multipliers and the decomposed normal-cone element of the set,
certified by a KKT residual.  Problems here are small (a few dozen
variables); exact active-set identification is preferred over iterative
methods because the multipliers feed merit and stationarity formulas.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

#: KKT tolerance, relative to max(1, |g|_inf)
TOL = 1e-8
#: active-set iterations allowed per variable and constraint row
MAX_ITER_PER_ROW = 50
#: relative singular-value threshold marking dependent working-set rows
RANK_THRESHOLD = 1e-12
#: distance from the linearized equalities and the set accepted at the start point
START_TOL = 1e-12
#: phase-1 l1 equality violation above this value means the subproblem is infeasible
PHASE1_VIOLATION_TOL = 1e-6


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class BoxPolyhedron:
    """Compact convex set {x : lower <= x <= upper, ineq_matrix @ x <= ineq_rhs}.

    All bounds must be finite: compactness is what keeps subproblem steps and
    multipliers bounded.  Instances are treated as immutable.
    """

    lower: np.ndarray
    upper: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box bounds must be finite (compact set)")
        if np.any(self.lower > self.upper):
            raise ValueError("requires lower <= upper componentwise")
        if (self.ineq_matrix is None) != (self.ineq_rhs is None):
            raise ValueError("ineq_matrix and ineq_rhs must be given together")
        if self.ineq_matrix is not None:
            self.ineq_matrix = np.atleast_2d(np.asarray(self.ineq_matrix, dtype=float))
            self.ineq_rhs = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=float))
            if self.ineq_matrix.shape != (self.ineq_rhs.size, self.dim):
                raise ValueError("ineq_matrix must be (p, n) with ineq_rhs of length p")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def n_ineq(self) -> int:
        return 0 if self.ineq_matrix is None else self.ineq_rhs.size

    def membership(self, x, tol: float = 1e-9) -> bool:
        """Whether x lies in the set, within an absolute tolerance."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        if self.ineq_matrix is not None:
            if np.any(self.ineq_matrix @ x > self.ineq_rhs + tol):
                return False
        return True

    def translate(self, x) -> "BoxPolyhedron":
        """The set in step coordinates: {d : x + d in self}."""
        x = np.asarray(x, dtype=float)
        rhs = None if self.ineq_rhs is None else self.ineq_rhs - self.ineq_matrix @ x
        return BoxPolyhedron(self.lower - x, self.upper - x, self.ineq_matrix, rhs)


@dataclass
class QpProblem:
    """One subproblem: gradient estimate, scalar curvature, optional equality rows.

    eq_jacobian columns are the constraint gradients (shape n x m); the
    linearized constraints read eq_jacobian.T @ d = -eq_residual.  The set is
    already translated to step coordinates by the caller.
    """

    gradient: np.ndarray
    curvature: float
    set: BoxPolyhedron
    eq_jacobian: np.ndarray | None = None
    eq_residual: np.ndarray | None = None

    def __post_init__(self):
        self.gradient = np.atleast_1d(np.asarray(self.gradient, dtype=float))
        self.curvature = float(self.curvature)
        if self.curvature <= 0.0:
            raise ValueError("curvature must be positive (strict convexity)")
        if self.gradient.size != self.set.dim:
            raise ValueError("gradient dimension does not match the set")
        if (self.eq_jacobian is None) != (self.eq_residual is None):
            raise ValueError("eq_jacobian and eq_residual must be given together")
        if self.eq_jacobian is not None:
            self.eq_jacobian = np.atleast_2d(np.asarray(self.eq_jacobian, dtype=float))
            self.eq_residual = np.atleast_1d(np.asarray(self.eq_residual, dtype=float))
            if self.eq_jacobian.shape != (self.set.dim, self.eq_residual.size):
                raise ValueError("eq_jacobian must be (n, m) with eq_residual of length m")

    @property
    def n_eq(self) -> int:
        return 0 if self.eq_residual is None else self.eq_residual.size


@dataclass
class QpSolution:
    """Step, multipliers and certification for one subproblem.

    set_multiplier holds nonnegative magnitudes: entries 0..n-1 belong to the
    active bound of each coordinate (active_lower/active_upper tell which
    side), entries n..n+p-1 to the inequality rows.  The signed normal-cone
    element is v = sum_i mult_i * (+-e_i) + sum_r mult_{n+r} * ineq_row_r.
    """

    step: np.ndarray
    eq_multipliers: np.ndarray
    set_multiplier: np.ndarray
    active_lower: np.ndarray
    active_upper: np.ndarray
    active_ineq: np.ndarray
    kkt_residual: float
    status: QpStatus
    rank_warning: bool = False
    iterations: int = 0


def solve_qp(problem: QpProblem) -> QpSolution:
    """Solve the subproblem with a primal active-set loop over free variables.

    The working state is d, a side per coordinate (-1 at its lower bound, +1
    at its upper bound, 0 free) and the active inequality rows; the equality
    rows are always in.  An active bound fixes its coordinate, so only the
    general working rows, restricted to the free coordinates, are factored.
    The lowest-id blocking constraint enters (coordinate i has id i,
    inequality row r id n + r) and the most negative multiplier leaves.
    Infeasibility of the linearized equalities inside the set is detected by
    an l1 phase-1 solve (see _starting_point).
    """
    box = problem.set
    n, m, p = box.dim, problem.n_eq, box.n_ineq
    alpha = problem.curvature
    g = problem.gradient

    d, infeasible = _starting_point(problem)
    if infeasible:
        return _failed_solution(problem, QpStatus.INFEASIBLE)

    eq_rows = problem.eq_jacobian.T if m else np.zeros((0, n))
    side = np.zeros(n)
    free = np.ones(n)  # 1.0 on free coordinates, 0.0 on fixed ones
    rows: list[int] = []  # active inequality rows, in order of entry
    rank_warning = False
    # stationarity-unit scale shared with the final certification
    scale = max(1.0, float(np.linalg.norm(g, ord=np.inf)))
    max_iter = MAX_ITER_PER_ROW * (n + m + p)
    for it in range(1, max_iter + 1):
        # the face step is -u projected onto the null space of the working
        # rows on the free coordinates; -alpha * z are those rows' multipliers
        u = (d + g / alpha) * free
        if m or rows:
            work = np.vstack([eq_rows, box.ineq_matrix[rows]]) if rows else eq_rows
            free_rows = work * free
            z, _, rank, _ = np.linalg.lstsq(free_rows.T, u, rcond=RANK_THRESHOLD)
            q = free_rows.T @ z - u
            rank_warning = rank_warning or rank < m + len(rows)
        else:
            q = -u
        if alpha * np.linalg.norm(q, ord=np.inf) <= 0.25 * TOL * scale:
            # minimizer of the current face reached: check multipliers
            resid = -(g + alpha * d)
            row_mults = np.zeros(0)
            if m or rows:
                row_mults = -alpha * z
                resid -= work.T @ row_mults
            # on a fixed coordinate the stationarity residual is its bound's term
            mults = np.concatenate([side * resid, row_mults[m:]])
            worst = int(np.argmin(mults))
            if mults[worst] >= -10.0 * TOL:
                return _assemble_solution(problem, d, side, rows, mults, row_mults[:m],
                                          rank_warning, it)
            if worst < n:
                side[worst], free[worst] = 0.0, 1.0
            else:
                rows.pop(worst - n)
        else:
            ratio, blocking = _ratio_test(box, rows, d, q)
            d = d + ratio * q
            if blocking is None:
                continue
            if blocking < n:
                side[blocking] = np.sign(q[blocking])
                free[blocking] = 0.0
                d[blocking] = box.upper[blocking] if side[blocking] > 0.0 else box.lower[blocking]
            else:
                rows.append(blocking - n)
    return _failed_solution(problem, QpStatus.NUMERICAL_FAILURE, rank_warning, max_iter)


def kkt_residual(problem: QpProblem, candidate: QpSolution) -> float:
    """Max of stationarity, primal, dual and complementarity infinity norms.

    Zero for an exact KKT point of the subproblem.
    """
    box = problem.set
    n, p = box.dim, box.n_ineq
    d = np.asarray(candidate.step, dtype=float)
    if d.size != n:
        raise ValueError("candidate step dimension mismatch")
    mult = np.asarray(candidate.set_multiplier, dtype=float)
    if mult.size != n + p:
        raise ValueError("set_multiplier must have length n + p")

    v = np.zeros(n)
    signs = np.where(candidate.active_upper, 1.0, -1.0)
    bound_active = candidate.active_lower | candidate.active_upper
    v += np.where(bound_active, signs * mult[:n], 0.0)
    if p:
        v += box.ineq_matrix.T @ (np.where(candidate.active_ineq, mult[n:], 0.0))

    stat = problem.gradient + problem.curvature * d + v
    if problem.n_eq:
        stat = stat + problem.eq_jacobian @ candidate.eq_multipliers
    stationarity = np.linalg.norm(stat, ord=np.inf)

    primal = max(
        float(np.max(box.lower - d, initial=0.0)),
        float(np.max(d - box.upper, initial=0.0)),
    )
    if p:
        primal = max(primal, float(np.max(box.ineq_matrix @ d - box.ineq_rhs, initial=0.0)))
    if problem.n_eq:
        primal = max(primal, float(np.linalg.norm(problem.eq_jacobian.T @ d + problem.eq_residual,
                                                  ord=np.inf)))

    dual = max(0.0, -float(np.min(mult, initial=0.0)))

    comp = 0.0
    lower_slack = d - box.lower
    upper_slack = box.upper - d
    slack = np.where(candidate.active_upper, upper_slack, lower_slack)
    comp = max(comp, float(np.max(np.abs(np.where(bound_active, mult[:n] * slack, 0.0)),
                                  initial=0.0)))
    # multiplier mass on rows never marked active counts as a complementarity defect
    comp = max(comp, float(np.max(np.abs(np.where(bound_active, 0.0, mult[:n])), initial=0.0)))
    if p:
        ineq_slack = box.ineq_rhs - box.ineq_matrix @ d
        comp = max(comp, float(np.max(np.abs(np.where(candidate.active_ineq,
                                                      mult[n:] * ineq_slack, mult[n:])),
                                      initial=0.0)))
    return max(stationarity, primal, dual, comp)


def _ratio_test(box: BoxPolyhedron, rows: list[int], d: np.ndarray,
                q: np.ndarray) -> tuple[float, int | None]:
    """Largest feasible fraction of q (at most 1), and the lowest-id blocking constraint.

    Fixed coordinates have q_i = 0 and never block, nor do the active rows.
    """
    tiny = 1e-13
    best, blocking = 1.0, None
    for i, (di, qi, lo, up) in enumerate(zip(d.tolist(), q.tolist(), box.lower.tolist(),
                                             box.upper.tolist())):
        if qi < -tiny:
            ratio = max(di - lo, 0.0) / -qi
        elif qi > tiny:
            ratio = max(up - di, 0.0) / qi
        else:
            continue
        if ratio < best:
            best, blocking = ratio, i
    if box.n_ineq:
        row_dir = (box.ineq_matrix @ q).tolist()
        row_slack = (box.ineq_rhs - box.ineq_matrix @ d).tolist()
        for r in range(box.n_ineq):
            if row_dir[r] > tiny and r not in rows:
                ratio = max(row_slack[r], 0.0) / row_dir[r]
                if ratio < best:
                    best, blocking = ratio, box.dim + r
    return best, blocking


def _starting_point(problem: QpProblem) -> tuple[np.ndarray, bool]:
    """Feasible start: the least-norm solution of the linearized equalities
    (d = 0 without them) when it satisfies them and lies in the set, each
    within START_TOL; otherwise a phase-1 point.

    The tolerance absorbs roundoff of the caller's translation, such as a row
    right-hand side of -1e-15 at an iterate on that row.
    """
    box = problem.set
    if problem.n_eq:
        et = problem.eq_jacobian.T
        d = np.linalg.lstsq(et, -problem.eq_residual, rcond=None)[0]
        on_rows = np.linalg.norm(et @ d + problem.eq_residual, ord=np.inf) <= START_TOL
    else:
        d, on_rows = np.zeros(box.dim), True
    if on_rows and box.membership(d, tol=START_TOL):
        return d, False
    return _phase1_start(problem)


def _phase1_start(problem: QpProblem) -> tuple[np.ndarray, bool]:
    """Minimize the l1 equality violation over the set via an elastic LP.

    Variables (d, u, v) with u, v >= 0 and eq.T d + u - v = -eq_residual;
    the optimal sum u + v is the violation.  Declares infeasibility above
    PHASE1_VIOLATION_TOL.  With no equality rows this degenerates to a pure
    feasibility solve over the set.
    """
    from . import lp

    box = problem.set
    n, m = box.dim, problem.n_eq
    if m:
        et = problem.eq_jacobian.T  # (m, n)
        target = -problem.eq_residual
        big = 10.0 * (np.linalg.norm(problem.eq_residual, 1) + 1.0)
    else:
        et = np.zeros((0, n))
        target = np.zeros(0)
        big = 1.0

    cost = np.concatenate([np.zeros(n), np.ones(2 * m)])
    rows = [np.hstack([et, np.eye(m), -np.eye(m)]),
            np.hstack([-et, -np.eye(m), np.eye(m)])]
    rhs = [target, -target]
    if box.n_ineq:
        rows.append(np.hstack([box.ineq_matrix, np.zeros((box.n_ineq, 2 * m))]))
        rhs.append(box.ineq_rhs)
    lp_problem = lp.LpProblem(
        cost=cost,
        ineq_matrix=np.vstack(rows),
        ineq_rhs=np.concatenate(rhs),
        lower=np.concatenate([box.lower, np.zeros(2 * m)]),
        upper=np.concatenate([box.upper, np.full(2 * m, big)]),
    )
    sol = lp.solve_lp(lp_problem)
    if sol.status is not lp.LpStatus.OPTIMAL or sol.objective > PHASE1_VIOLATION_TOL:
        return np.zeros(n), True
    return sol.primal[:n], False


def _assemble_solution(problem: QpProblem, d: np.ndarray, side: np.ndarray,
                       rows: list[int], mults: np.ndarray, eq_mults: np.ndarray,
                       rank_warning: bool, iterations: int) -> QpSolution:
    """Certified solution from the final working state.

    mults holds the bound multipliers (zero on free coordinates), then those
    of the active rows in the order of rows.
    """
    n, p = problem.set.dim, problem.set.n_ineq
    rows = np.asarray(rows, dtype=int)
    set_multiplier = np.zeros(n + p)
    set_multiplier[:n] = mults[:n]
    set_multiplier[n + rows] = mults[n:]
    active_ineq = np.zeros(p, dtype=bool)
    active_ineq[rows] = True
    solution = QpSolution(
        step=d,
        eq_multipliers=eq_mults,
        set_multiplier=set_multiplier,
        active_lower=side < 0.0,
        active_upper=side > 0.0,
        active_ineq=active_ineq,
        kkt_residual=0.0,
        status=QpStatus.OPTIMAL,
        rank_warning=rank_warning,
        iterations=iterations,
    )
    solution.kkt_residual = kkt_residual(problem, solution)
    scale = max(1.0, float(np.linalg.norm(problem.gradient, ord=np.inf)))
    if solution.kkt_residual > TOL * scale:
        solution.status = QpStatus.NUMERICAL_FAILURE
    return solution


def _failed_solution(problem: QpProblem, status: QpStatus, rank_warning: bool = False,
                     iterations: int = 0) -> QpSolution:
    n, p = problem.set.dim, problem.set.n_ineq
    return QpSolution(
        step=np.zeros(n),
        eq_multipliers=np.zeros(problem.n_eq),
        set_multiplier=np.zeros(n + p),
        active_lower=np.zeros(n, dtype=bool),
        active_upper=np.zeros(n, dtype=bool),
        active_ineq=np.zeros(p, dtype=bool),
        kkt_residual=np.inf,
        status=status,
        rank_warning=rank_warning,
        iterations=iterations,
    )
