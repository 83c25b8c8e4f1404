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
the working rows on the free coordinates are factored.

Every consumer reads the set in one row form, normals @ x <= limits, built
once per BoxPolyhedron: the lower bounds as -I, the upper bounds as I, then
the inequality rows.  The solve returns the step, the equality multipliers
and one nonnegative multiplier per row of normals, certified by a KKT
residual over those rows.  Problems here are small (a few dozen variables);
exact active-set identification is preferred over iterative methods because
the multipliers feed merit and stationarity formulas.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, field

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

    Its row form normals @ x <= limits is built once, at construction: rows
    0..n-1 are the lower bounds (-x_i <= -lower_i), rows n..2n-1 the upper
    bounds (x_i <= upper_i), and rows 2n..2n+p-1 the inequality rows.  All
    data must be finite, and the bounds keep the set compact, which keeps
    subproblem steps and multipliers bounded.  Instances are treated as
    immutable.
    """

    lower: np.ndarray
    upper: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    normals: np.ndarray = field(init=False, repr=False)
    limits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must be vectors of the same shape")
        _require_finite(lower=self.lower, upper=self.upper)  # a compact set
        if np.any(self.lower > self.upper):
            raise ValueError("requires lower <= upper componentwise")
        if (self.ineq_matrix is None) != (self.ineq_rhs is None):
            raise ValueError("ineq_matrix and ineq_rhs must be given together")
        rows, rhs = np.zeros((0, self.dim)), np.zeros(0)
        if self.ineq_matrix is not None:
            self.ineq_matrix = rows = np.atleast_2d(np.asarray(self.ineq_matrix, dtype=float))
            self.ineq_rhs = rhs = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=float))
            if rows.shape != (rhs.size, self.dim):
                raise ValueError("ineq_matrix must be (p, n) with ineq_rhs of length p")
            _require_finite(ineq_matrix=rows, ineq_rhs=rhs)
        eye = np.eye(self.dim)
        self.normals = np.concatenate([-eye, eye, rows])
        self.normals.flags.writeable = False  # translated sets share it
        self.limits = np.concatenate([-self.lower, self.upper, rhs])

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def n_ineq(self) -> int:
        return 0 if self.ineq_matrix is None else self.ineq_rhs.size

    def membership(self, x, tol: float = 1e-9) -> bool:
        """Whether x lies in the set, within an absolute tolerance; a NaN or
        infinite coordinate never does."""
        x = np.asarray(x, dtype=float)
        return bool(np.isfinite(x).all() and np.all(self.normals @ x <= self.limits + tol))

    def translate(self, x) -> "BoxPolyhedron":
        """The set in step coordinates, {d : x + d in self}, sharing normals.

        A finite x far outside the set can overflow a translated limit; that
        raises a ValueError naming the field, so the translated set keeps
        all-finite data.
        """
        x = np.asarray(x, dtype=float)
        # the sets are small: Python's finiteness tests cost less than numpy's
        if x.shape != self.lower.shape or not all(map(math.isfinite, x.tolist())):
            raise ValueError("x must be a finite vector of the set's dimension")
        shifted = copy.copy(self)
        rhs = self.limits[2 * self.dim:]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            shifted.lower = self.lower - x
            shifted.upper = self.upper - x
            if self.ineq_rhs is not None:
                shifted.ineq_rhs = rhs = self.ineq_rhs - self.ineq_matrix @ x
        shifted.limits = np.concatenate([-shifted.lower, shifted.upper, rhs])
        if not all(map(math.isfinite, shifted.limits.tolist())):
            _require_finite(**{"translated lower": shifted.lower,
                               "translated upper": shifted.upper,
                               "translated ineq_rhs": rhs})
        return shifted


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
        if not 0.0 < self.curvature < math.inf:
            raise ValueError("curvature must be positive (strict convexity) and finite")
        if self.gradient.shape != (self.set.dim,):
            raise ValueError("gradient dimension does not match the set")
        _require_finite(gradient=self.gradient)
        if (self.eq_jacobian is None) != (self.eq_residual is None):
            raise ValueError("eq_jacobian and eq_residual must be given together")
        if self.eq_jacobian is not None:
            self.eq_jacobian = np.atleast_2d(np.asarray(self.eq_jacobian, dtype=float))
            self.eq_residual = np.atleast_1d(np.asarray(self.eq_residual, dtype=float))
            if self.eq_jacobian.shape != (self.set.dim, self.eq_residual.size):
                raise ValueError("eq_jacobian must be (n, m) with eq_residual of length m")
            _require_finite(eq_jacobian=self.eq_jacobian, eq_residual=self.eq_residual)

    @property
    def n_eq(self) -> int:
        return 0 if self.eq_residual is None else self.eq_residual.size


@dataclass
class QpSolution:
    """Step, multipliers and certification for one subproblem.

    set_multipliers has one entry per row of set.normals (lower bounds, upper
    bounds, inequality rows); it is nonnegative and zero off the final working
    set.  The normal-cone element of the set is set.normals.T @ set_multipliers.
    """

    step: np.ndarray
    eq_multipliers: np.ndarray
    set_multipliers: np.ndarray
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

    If the start -g/alpha overflows, the solve is a NUMERICAL_FAILURE.
    QpSolution.iterations counts the constraints added plus those dropped.
    """
    box = problem.set
    n, m, p = box.dim, problem.n_eq, box.n_ineq
    # on Python floats, so that an overflow raises no numpy warning
    if not math.isfinite(max(map(abs, problem.gradient.tolist()), default=0.0)
                         / problem.curvature):
        return _failed_solution(problem, QpStatus.NUMERICAL_FAILURE)
    # constraint c reads normals[c] @ d <= limits[c]: the set's rows in the
    # order BoxPolyhedron gives them, then the equality rows (met with ==)
    normals, limits = box.normals, box.limits
    if m:
        normals = np.concatenate([normals, problem.eq_jacobian.T])
        limits = np.concatenate([limits, -problem.eq_residual])
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

    All four come from the set's rows: the slack limits - normals @ d and the
    normal-cone element normals.T @ set_multipliers.  Zero for an exact KKT
    point of the subproblem, and NaN if any part is NaN.
    """
    box = problem.set
    d = np.asarray(candidate.step, dtype=float)
    mult = np.asarray(candidate.set_multipliers, dtype=float)
    if d.shape != (box.dim,) or mult.shape != box.limits.shape:
        raise ValueError("the candidate needs a step entry per coordinate and a "
                         "set multiplier per row of the set")
    slack = box.limits - box.normals @ d
    stat = problem.gradient + problem.curvature * d + box.normals.T @ mult
    eq_gap = np.zeros(0)
    if problem.n_eq:
        stat = stat + problem.eq_jacobian @ candidate.eq_multipliers
        eq_gap = np.abs(problem.eq_jacobian.T @ d + problem.eq_residual)
    parts = (np.abs(stat), -slack, eq_gap, -mult, np.abs(mult * slack))
    return float(np.concatenate(parts).max(initial=0.0))


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
    n, m = box.dim, problem.n_eq
    fixed = np.flatnonzero(side)
    set_multipliers = np.zeros(box.limits.size)
    residual = problem.gradient + problem.curvature * d + work.T @ row_mults
    set_multipliers[fixed + n * (side[fixed] > 0.0)] = (-side * residual)[fixed]
    set_multipliers[rows[m:]] = row_mults[m:]
    solution = QpSolution(
        step=d,
        eq_multipliers=row_mults[:m],
        set_multipliers=set_multipliers,
        kkt_residual=0.0,
        status=QpStatus.OPTIMAL,
        rank_warning=rank_warning,
        iterations=iterations,
    )
    solution.kkt_residual = kkt_residual(problem, solution)
    scale = max(1.0, float(np.linalg.norm(problem.gradient, ord=np.inf)))
    if not solution.kkt_residual <= TOL * scale:  # NaN fails too
        solution.status = QpStatus.NUMERICAL_FAILURE
    return solution


def _failed_solution(problem: QpProblem, status: QpStatus, rank_warning: bool = False,
                     iterations: int = 0) -> QpSolution:
    return QpSolution(
        step=np.zeros(problem.set.dim),
        eq_multipliers=np.zeros(problem.n_eq),
        set_multipliers=np.zeros(problem.set.limits.size),
        kkt_residual=np.inf,
        status=status,
        rank_warning=rank_warning,
        iterations=iterations,
    )


def _require_finite(**fields: np.ndarray) -> None:
    """Raise ValueError naming the first field with a NaN or infinite entry."""
    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
