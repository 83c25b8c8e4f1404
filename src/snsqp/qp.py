"""Strictly convex quadratic subproblems over a compact box-plus-inequality set.

Solves

    min  g.d + (alpha/2) ||d||^2
    s.t. eq_jacobian.T @ d = -eq_residual     (optional linearized equalities)
         d in set                             (translated feasible set)

With scalar curvature this is the projection of -g/alpha onto a polyhedron,
solved by the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983): it starts from the unconstrained minimizer, so it
needs no feasible point, and adds violated constraints while the working
multipliers stay nonnegative.  An active bound fixes its coordinate, so only
the working rows on the free coordinates are factored.  The solve returns
the step with equality multipliers and the decomposed normal-cone element of
the set, certified by a KKT residual.  Problems here are small (a few dozen
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
#: violation of a bound, an inequality row or the linearized equalities that the solve accepts
VIOLATION_TOL = 1e-12


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
        """Whether x lies in the set, within an absolute tolerance.

        Every test is phrased so that a NaN coordinate fails it; the bounds
        are finite, so an infinite one fails too.
        """
        x = np.asarray(x, dtype=float)
        if not (np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol)):
            return False
        if self.ineq_matrix is not None:
            if not np.all(self.ineq_matrix @ x <= self.ineq_rhs + tol):
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
    """Solve the subproblem with a dual active-set loop over free variables.

    The start is -g/alpha plus the least-norm correction onto the equality
    rows; if that misses them by more than VIOLATION_TOL, the subproblem is
    INFEASIBLE.  The working set is a side per coordinate (-1 fixed at its
    lower bound, +1 at its upper bound, 0 free), the equality rows and the
    working inequality rows.  Each round takes the most violated bound or
    row and moves d along the part of its normal that the working set leaves
    free, while the working multipliers fall.  If one reaches zero first, its
    constraint leaves (a partial step); otherwise the violated constraint
    joins (a full step).  A violated constraint with no primal step and
    nothing to drop proves the subproblem INFEASIBLE.

    QpSolution.iterations counts the constraints added plus those dropped.
    """
    box = problem.set
    n, m, p = box.dim, problem.n_eq, box.n_ineq
    # constraint c reads normals[c] @ d <= limits[c]: ids i and n + i are the
    # lower and upper bounds of coordinate i, 2n + r is inequality row r, and
    # the equality rows (met with ==) come last
    empty = (np.zeros((0, n)), np.zeros(0))
    ineq = (box.ineq_matrix, box.ineq_rhs) if p else empty
    eq = (problem.eq_jacobian.T, -problem.eq_residual) if m else empty
    eye = np.eye(n)
    normals = np.concatenate([-eye, eye, ineq[0], eq[0]])
    limits = np.concatenate([-box.lower, box.upper, ineq[1], eq[1]])
    side = np.zeros(n)
    rows = list(range(2 * n + p, 2 * n + p + m))  # then inequality rows, in order of entry
    d, row_mults, rank_warning = _project(problem, side, normals[rows], limits[rows])
    if m and np.linalg.norm(normals[rows] @ d - limits[rows], ord=np.inf) > VIOLATION_TOL:
        return _failed_solution(problem, QpStatus.INFEASIBLE, rank_warning)
    nu = np.zeros(limits.size)  # working multipliers over alpha, by constraint id
    entering, iterations = None, 0
    for _ in range(MAX_ITER_PER_ROW * (n + m + p)):
        free = side == 0.0
        if entering is None:
            # fixed coordinates sit on their bounds; working rows hold to roundoff
            excess = normals @ d - limits
            excess[rows] = 0.0
            entering = int(np.argmax(excess))  # ties go to the lowest id
            if excess[entering] <= VIOLATION_TOL:
                break
        normal, work = normals[entering], normals[rows]
        u, s, vt = _factor(work, free)
        rank_warning = rank_warning or s.size < len(rows)
        # normal = work.T @ coef + (normals of the fixed bounds) + toward, with
        # toward orthogonal to the working rows and zero on fixed coordinates
        coords = vt @ (normal * free)
        toward = normal * free - vt.T @ coords
        coef = u @ (coords / s)
        # what a unit step takes from each working multiplier; the equality
        # rows' multipliers are free in sign and never leave
        fixed = np.flatnonzero(side)
        shrink = np.zeros(limits.size)
        shrink[fixed + n * (side[fixed] > 0.0)] = (side * (normal - work.T @ coef))[fixed]
        shrink[rows[m:]] = coef[m:]
        # step lengths in multiplier units: onto the violated constraint, and
        # to the first working multiplier that reaches zero
        tiny = RANK_THRESHOLD * np.linalg.norm(normal)
        reach = toward @ toward
        full = (normal @ d - limits[entering]) / reach if reach > tiny * tiny else np.inf
        falls = np.flatnonzero(shrink > tiny)
        ratios = nu[falls] / shrink[falls]
        partial = ratios.min(initial=np.inf)
        t = min(full, partial)
        if t == np.inf:
            return _failed_solution(problem, QpStatus.INFEASIBLE, rank_warning, iterations)
        d = d - t * toward
        nu -= t * shrink
        nu[entering] += t  # zero when it started to enter: it was not working
        iterations += 1
        if full <= partial:
            if entering < 2 * n:
                i = entering % n
                side[i] = normal[i]
                d[i] = normal[i] * limits[entering]  # the bound itself
            else:
                rows.append(entering)
            entering = None
        else:
            leaving = int(falls[np.argmin(ratios)])
            nu[leaving] = 0.0
            if leaving < 2 * n:
                side[leaving % n] = 0.0
            else:
                rows.remove(leaving)
    else:
        return _failed_solution(problem, QpStatus.NUMERICAL_FAILURE, rank_warning, iterations)
    work = normals[rows]
    if iterations:  # else d is the start: the same projection
        d, row_mults, dependent = _project(problem, side, work, limits[rows])
        rank_warning = rank_warning or dependent
    return _assemble_solution(problem, side, rows, work, d, row_mults, rank_warning, iterations)


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


def _factor(rows: np.ndarray, free: np.ndarray):
    """Thin SVD (u, s, vt) of the rows on the free coordinates, without the
    singular values below RANK_THRESHOLD times the largest."""
    if not len(rows):
        return np.zeros((0, 0)), np.zeros(0), np.zeros((0, free.size))
    u, s, vt = np.linalg.svd(rows * free, full_matrices=False)
    keep = s > RANK_THRESHOLD * s[0]
    return u[:, keep], s[keep], vt[keep]


def _project(problem: QpProblem, side: np.ndarray, work: np.ndarray, rhs: np.ndarray):
    """-g/alpha with the fixed coordinates moved to their bounds, plus the
    least-norm correction of the free ones onto the rows work @ d = rhs; the
    rows' multipliers (-alpha times the coefficients of that correction); and
    whether the rows are dependent on the free coordinates."""
    box = problem.set
    d = np.where(side < 0.0, box.lower,
                 np.where(side > 0.0, box.upper, -problem.gradient / problem.curvature))
    if not len(work):
        return d, np.zeros(0), False
    u, s, vt = _factor(work, side == 0.0)
    coords = u.T @ (rhs - work @ d) / s
    return d + vt.T @ coords, -problem.curvature * (u @ (coords / s)), s.size < len(work)


def _assemble_solution(problem: QpProblem, side: np.ndarray, rows: list[int],
                       work: np.ndarray, d: np.ndarray, row_mults: np.ndarray,
                       rank_warning: bool, iterations: int) -> QpSolution:
    """Certified solution from _project's step and row multipliers for the
    final working set alone, so that the step meets its working rows to
    roundoff; a bound's multiplier is the stationarity residual on its
    coordinate."""
    box = problem.set
    n, m, p = box.dim, problem.n_eq, box.n_ineq
    ineq = np.asarray(rows[m:], dtype=int) - 2 * n
    set_multiplier = np.zeros(n + p)
    set_multiplier[:n] = -side * (problem.gradient + problem.curvature * d + work.T @ row_mults)
    set_multiplier[n + ineq] = row_mults[m:]
    active_ineq = np.zeros(p, dtype=bool)
    active_ineq[ineq] = True
    solution = QpSolution(
        step=d,
        eq_multipliers=row_mults[:m],
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
