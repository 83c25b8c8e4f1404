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

The loop, _active_set, is the package's one active-set method: it also
computes the stationarity measure of snsqp.diagnostics, which by Moreau's
decomposition is a projection onto a polar cone.  For both callers it reads
the rows at their row scale (_row_exponent), so a subproblem solves the same
however its rows are written, and returns one multiplier per bound and row,
scaled back.

The set has one form: a frozen BoxPolyhedron always holds its rows, zero of
them when it has none, and its limits -lower, upper and ineq_rhs, built once,
where a bound is the signed unit vector it is and only the inequality rows
are stored as rows.  It also holds those rows once as Python floats, with
each row's exponent and scaled copy (row_form), which a translated set
shares, so no solve converts or scales them again; only the equality rows
are scaled per call.  One builder, _row_form, lays out the lists the loop
reads, those limits and rows, then the equality rows, for the subproblem,
its certificate and the stationarity measure alike.  The solve returns the
step, the equality multipliers and one nonnegative multiplier per bound and
row, certified on the lists it was solved on by one KKT residual, _kkt, in
which the equality rows are rows, read at the loop's row scale.  _kkt takes
one pass over the rows and one over the coordinates and keeps only the
largest part.  Problems here are small (a few dozen variables);
exact active-set identification is preferred over iterative methods because
the multipliers feed merit and stationarity formulas.

Because they are small, the working-set algebra and the KKT certificate run
on Python floats: a numpy call costs more than the arithmetic it does on a
handful of entries.  Dot products are correctly rounded (math.fsum).  _factor
is the one least-squares factor, with one rank rule, for the direction and
the projection.  It calls numpy's SVD only for two or more working rows,
which no canonical run has: the PPS set has one inequality row, the equality
problems one equality row.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

#: KKT tolerance, relative to max(1, |g|_inf)
TOL = 1e-8
#: active-set iterations allowed per variable and constraint row
MAX_ITER_PER_ROW = 50
#: relative singular-value threshold marking dependent working-set rows
RANK_THRESHOLD = 1e-12
#: violation of a bound, or of a row scaled to a largest entry in [0.5, 1), that the solve accepts
VIOLATION_TOL = 1e-12


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True, eq=False)
class BoxPolyhedron:
    """Compact convex set {x : lower <= x <= upper, ineq_matrix @ x <= ineq_rhs}.

    It has one form: a set given no rows (None) holds zero rows, an
    ineq_matrix of shape (0, n) and an empty ineq_rhs.  Its limits are built
    once, at construction: entries 0..n-1 are the lower bounds'
    (-x_i <= -lower_i), n..2n-1 the upper bounds' (x_i <= upper_i), and
    2n..2n+p-1 the inequality rows'.  So are its rows as the kernel reads
    them, row_form = (rows, exps, scaled): each row a tuple of floats, its
    _row_exponent, and the row times 2**-exponent.  It needs at least one
    coordinate, all data must be finite, and the bounds keep the set
    compact, which keeps subproblem steps and multipliers bounded.  The set
    is frozen, its arrays are read-only copies and its held rows tuples, so
    neither the limits nor the rows can fall out of step with their data.
    Two sets compare by identity.
    """

    lower: np.ndarray
    upper: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    limits: np.ndarray = field(init=False, repr=False)
    row_form: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lower, upper = _frozen(np.atleast_1d(self.lower)), _frozen(np.atleast_1d(self.upper))
        if lower.ndim != 1 or lower.shape != upper.shape or not lower.size:
            raise ValueError("lower and upper must be nonempty vectors of the same shape")
        _require_finite(lower=lower, upper=upper)  # a compact set
        if np.any(lower > upper):
            raise ValueError("requires lower <= upper componentwise")
        if (self.ineq_matrix is None) != (self.ineq_rhs is None):
            raise ValueError("ineq_matrix and ineq_rhs must be given together")
        rows, rhs = (np.zeros((0, lower.size)), ()) if self.ineq_matrix is None else (
            np.atleast_2d(self.ineq_matrix), np.atleast_1d(self.ineq_rhs))
        rows, rhs = _frozen(rows), _frozen(rhs)
        if rows.shape != (rhs.size, lower.size):
            raise ValueError("ineq_matrix must be (p, n) with ineq_rhs of length p")
        _require_finite(ineq_matrix=rows, ineq_rhs=rhs)
        self.__dict__.update(lower=lower, upper=upper, ineq_matrix=rows, ineq_rhs=rhs,
                             limits=_frozen(np.concatenate([-lower, upper, rhs])),
                             row_form=_scaled_rows(tuple(map(tuple, rows.tolist()))))

    @property
    def dim(self) -> int:
        return self.lower.size

    def membership(self, x, tol: float = 1e-9) -> bool:
        """Whether every slack translated_limits(x) is at least -tol.  A NaN
        or infinite coordinate, or a slack beyond the float range, is not a
        member; a point of the wrong shape raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.lower.shape:
            raise ValueError("x must be a vector of the set's dimension")
        try:
            slack = self.translated_limits(x)
        except ValueError:  # a non-finite coordinate or slack
            return False
        return bool(np.all(slack >= -tol))

    def translate(self, x) -> BoxPolyhedron:
        """The set in step coordinates, {d : x + d in self}, sharing
        ineq_matrix, with its data sliced, read-only, out of
        translated_limits(x)."""
        n, limits = self.dim, self.translated_limits(x)
        lower = -limits[:n]
        lower.flags.writeable = False
        shifted = object.__new__(BoxPolyhedron)
        shifted.__dict__.update(self.__dict__, lower=lower, upper=limits[n:2 * n],
                                ineq_rhs=limits[2 * n:], limits=limits)
        return shifted

    def translated_limits(self, x) -> np.ndarray:
        """The limits of the set translated to x, read-only: -(lower - x),
        upper - x, then ineq_rhs - ineq_matrix @ x.

        A finite x far outside the set can overflow a translated limit; that
        raises a ValueError naming the field, so the translated set keeps
        all-finite data.
        """
        x = np.asarray(x, dtype=float)
        # the sets are small: Python floats cost less than numpy calls, and
        # they overflow to inf without a warning
        xs = x.tolist()
        if x.shape != self.lower.shape or not all(map(math.isfinite, xs)):
            raise ValueError("x must be a finite vector of the set's dimension")
        limits = ([-(lo - v) for lo, v in zip(self.lower.tolist(), xs)]
                  + [up - v for up, v in zip(self.upper.tolist(), xs)])
        if self.ineq_rhs.size:  # a set without rows skips np.errstate
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                products = (self.ineq_matrix @ x).tolist()
            limits += map(operator.sub, self.ineq_rhs.tolist(), products)
        if not all(map(math.isfinite, limits)):
            n, values = self.dim, np.array(limits)
            _require_finite(**{"translated lower": values[:n],
                               "translated upper": values[n:2 * n],
                               "translated ineq_rhs": values[2 * n:]})
        return _frozen(limits)


@dataclass(frozen=True, eq=False)
class QpProblem:
    """One subproblem: gradient estimate, scalar curvature, optional equality rows.

    eq_jacobian columns are the constraint gradients (shape n x m); the
    linearized constraints read eq_jacobian.T @ d = -eq_residual.  The set is
    already translated to step coordinates by the caller.  The problem is
    frozen; its arrays are converted to float, not copied.  Two problems
    compare by identity.
    """

    gradient: np.ndarray
    curvature: float
    set: BoxPolyhedron
    eq_jacobian: np.ndarray | None = None
    eq_residual: np.ndarray | None = None

    def __post_init__(self):
        gradient = np.atleast_1d(np.asarray(self.gradient, dtype=float))
        curvature = float(self.curvature)
        if not 0.0 < curvature < math.inf:
            raise ValueError("curvature must be positive (strict convexity) and finite")
        if gradient.shape != (self.set.dim,):
            raise ValueError("gradient dimension does not match the set")
        # a few entries: Python's test costs less than numpy's calls
        if not all(map(math.isfinite, gradient.tolist())):
            raise ValueError("gradient must be finite")
        eq_jacobian, eq_residual = self.eq_jacobian, self.eq_residual
        if (eq_jacobian is None) != (eq_residual is None):
            raise ValueError("eq_jacobian and eq_residual must be given together")
        if eq_jacobian is not None:
            eq_jacobian = np.atleast_2d(np.asarray(eq_jacobian, dtype=float))
            eq_residual = np.atleast_1d(np.asarray(eq_residual, dtype=float))
            if eq_jacobian.shape != (self.set.dim, eq_residual.size):
                raise ValueError("eq_jacobian must be (n, m) with eq_residual of length m")
            _require_finite(eq_jacobian=eq_jacobian, eq_residual=eq_residual)
        self.__dict__.update(gradient=gradient, curvature=curvature,
                             eq_jacobian=eq_jacobian, eq_residual=eq_residual)

    @property
    def n_eq(self) -> int:
        return 0 if self.eq_residual is None else self.eq_residual.size


@dataclass
class QpSolution:
    """Step, multipliers and certification for one subproblem.

    set_multipliers has one entry per entry of set.limits (lower bounds, upper
    bounds, inequality rows); it is nonnegative and zero off the final working
    set.  For n = set.dim, the normal-cone element of the set is
    set_multipliers[n:2n] - set_multipliers[:n]
    + set.ineq_matrix.T @ set_multipliers[2n:],
    on every set: one without rows has an ineq_matrix of shape (0, n).
    """

    step: np.ndarray
    eq_multipliers: np.ndarray
    set_multipliers: np.ndarray
    kkt_residual: float
    status: QpStatus
    rank_warning: bool = False
    iterations: int = 0


def solve_qp(problem: QpProblem) -> QpSolution:
    """Solve the subproblem with _active_set on its row form and certify the
    loop's own step and multipliers by _kkt on the same lists.

    If the start -g/alpha overflows, the solve is a NUMERICAL_FAILURE.  A
    solve whose loop does not end OPTIMAL returns zeros and an infinite
    residual.  A solve whose loop ends OPTIMAL but whose certificate exceeds
    TOL * max(1, |g|_inf) is a NUMERICAL_FAILURE too, and keeps the loop's
    step, multipliers and finite residual.  QpSolution.iterations counts the
    constraints added plus those dropped.
    """
    box, alpha, m = problem.set, problem.curvature, problem.n_eq
    gradient = problem.gradient.tolist()
    general, limits, exps, scaled = _row_form(box.limits.tolist(), box, problem.eq_jacobian,
                                              problem.eq_residual)
    # on Python floats, so that an overflow raises no numpy warning
    g_max = max(map(abs, gradient))
    status, d, mults, rank_warning, iterations = (
        _active_set(gradient, alpha, scaled, limits, m, exps) if math.isfinite(g_max / alpha)
        else (QpStatus.NUMERICAL_FAILURE, None, None, False, 0))
    if status is QpStatus.OPTIMAL:
        residual = _kkt(gradient, alpha, general, limits, m, exps, d, mults)
        if not residual <= TOL * max(1.0, g_max):  # NaN fails too
            status = QpStatus.NUMERICAL_FAILURE
    else:
        d, mults, residual = [0.0] * len(gradient), [0.0] * len(limits), math.inf
    mults, n_set = np.array(mults), box.limits.size
    return QpSolution(step=np.array(d), eq_multipliers=mults[n_set:],
                      set_multipliers=mults[:n_set], kkt_residual=residual, status=status,
                      rank_warning=rank_warning, iterations=iterations)


def _row_form(limits: list, box: BoxPolyhedron, eq_jacobian=None, eq_values=None):
    """The lists _active_set and _kkt read, (general, limits, exps, scaled):
    the set's held rows, then, for an equality pair, one row per column of
    eq_jacobian; limits, one per entry of box.limits (the set's own, or
    translated to a point), then -eq_values; and each row's _row_exponent
    and the row scaled by it.  The subproblem, its certificate and the
    stationarity measure all take their lists from here."""
    general, exps, scaled = box.row_form
    if eq_jacobian is not None:
        eq, eq_exps, eq_scaled = _scaled_rows(tuple(eq_jacobian.T.tolist()))
        general, exps, scaled = general + eq, exps + eq_exps, scaled + eq_scaled
        limits = limits + [-v for v in eq_values.tolist()]
    return general, limits, exps, scaled


def _active_set(gradient: list, alpha: float, general: list, limits: list, m: int,
                exps: list):
    """The dual active-set loop for min g.d + (alpha/2)|d|^2 on Python
    floats, over the bounds -d_i <= limits[i] and d_i <= limits[n + i], then
    the rows a . d <= limits[c] of general, whose last m are equality rows.
    A bound with an infinite limit never enters.

    The rows of general come scaled to their row scale, times 2**-exps for
    exps the _row_exponent of each row (as _row_form lays them out), and
    each row's limit is scaled here to match, exactly: the solve is the same
    however the rows are written, no a . a underflows or overflows, and the
    absolute tolerances meet entries of order one.

    The start is -g/alpha plus the least-norm correction onto the equality
    rows; if that misses them by more than VIOLATION_TOL, the status is
    INFEASIBLE.  The working set is a side per coordinate (-1 fixed at its
    lower bound, +1 at its upper bound, 0 free), the equality rows and the
    working inequality rows.  Each round takes the most violated bound or
    row and moves d along the part of its normal that the working set leaves
    free, while the working multipliers fall.  If one reaches zero first, its
    constraint leaves (a partial step); otherwise the violated constraint
    joins (a full step).  A violated constraint with no primal step and
    nothing to drop proves the problem INFEASIBLE.  _direction and _project
    factor the working rows through _factor.

    Returns (status, d, mults, rank_warning, iterations).  When OPTIMAL,
    mults has one multiplier per constraint id, in the units of the rows
    before scaling, zero off the final working set; a bound's is the
    stationarity residual on its coordinate.  Otherwise d and mults are
    None.
    """
    n, k = len(gradient), len(general)
    limits = limits[:2 * n] + [_scaled_limit(b, e) for b, e in zip(limits[2 * n:], exps)]
    rows = list(range(2 * n + k - m, 2 * n + k))  # then inequality rows, in order of entry
    eq_rows, eq_limits = general[k - m:], limits[2 * n + k - m:]
    if not all(map(math.isfinite, eq_limits)):  # no finite step meets such a row
        return QpStatus.INFEASIBLE, None, None, False, 0
    d, row_mults, rank_warning = _project(gradient, alpha, limits, [0.0] * n, eq_rows, eq_limits)
    if m and max(abs(_dot(a, d) - b) for a, b in zip(eq_rows, eq_limits)) > VIOLATION_TOL:
        return QpStatus.INFEASIBLE, None, None, rank_warning, 0
    # side: the bound each coordinate is fixed at (0: free); nu: the working
    # multipliers over alpha, by constraint id
    side, nu, entering, iterations = [0.0] * n, [0.0] * len(limits), None, 0
    for _ in range(MAX_ITER_PER_ROW * (n + k)):
        if entering is None:
            # fixed coordinates sit on their bounds; working rows hold to roundoff
            excess = list(map(operator.sub, [-x for x in d] + d + [_dot(a, d) for a in general],
                              limits))
            for c in rows:
                excess[c] = 0.0
            worst = max(excess)
            if worst <= VIOLATION_TOL:
                break
            entering = excess.index(worst)  # ties go to the lowest id
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
                side[i], d[i] = a[i], a[i] * limits[entering]  # d_i on the bound itself
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


def _row_exponent(row) -> int:
    """The one row scale: row times 2**-_row_exponent(row) has its largest
    entry in [0.5, 1), exactly; a zero row keeps exponent 0."""
    return math.frexp(max(map(abs, row)))[1]


def _scaled_rows(rows: tuple) -> tuple:
    """(rows, exps, scaled), tuples: the rows, the _row_exponent of each,
    and each row times 2**-exponent, exactly."""
    exps = tuple(map(_row_exponent, rows))
    return rows, exps, tuple([tuple([math.ldexp(v, -e) for v in a]) for a, e in zip(rows, exps)])


def _scaled_limit(b: float, exp: int) -> float:
    """b * 2**-exp, or b's infinity where that overflows: no finite step meets the row."""
    try:
        return math.ldexp(b, -exp)
    except OverflowError:
        return math.copysign(math.inf, b)


def _kkt(gradient: list, alpha: float, general: list, limits: list, m: int,
         exps: list, d: list, mults: list) -> float:
    """The KKT residual of the step d and the multipliers mults, one per
    constraint id, over _active_set's lists, whose last m general rows are
    equality rows: the largest of |stationarity| per coordinate, each
    bound's and inequality row's -slack, -multiplier and |w * s|, and each
    equality row's |gap|, in one pass over the rows and one over the
    coordinates, with no list of the parts.

    Each general row's slack, and each inequality row's multiplier sign, are
    read at the loop's row scale, the exps _active_set was given, so the
    certificate does not depend on how the rows are written; an equality
    row's multiplier is free in sign.  The stationarity and the
    complementarity w * s are free of that scale already and stay unscaled.
    The bounds are the signed unit vectors they are.  Any NaN part makes the
    residual NaN: each part that can be NaN turns NaN one of the |.| terms,
    and their sum, probe, is NaN exactly then.
    """
    # worst, the max so far, starts at +0.0: |stat| >= 0 is a part
    n, p, worst, probe = len(gradient), len(general) - m, 0.0, 0.0
    for j, (a, b, e) in enumerate(zip(general, limits[2 * n:], exps)):
        s, w = b - _dot(a, d), mults[2 * n + j]
        c = abs(w * s) if j < p else abs(_scaled_limit(s, e))  # |w * s|, or |gap|
        if j < p:
            worst = max(worst, -_scaled_limit(s, e), -_scaled_limit(w, -e))
        worst, probe = max(worst, c), probe + c
    # g + alpha d + (normal-cone element) + (equality rows' part), by
    # coordinate, summed over the inequality rows and then the equality rows
    w_rows, w_eq = mults[2 * n:2 * n + p], mults[2 * n + p:]
    for g, x, lo, up, lo_b, up_b, col in zip(gradient, d, mults, mults[n:], limits, limits[n:],
                                             zip(*general) if general else [()] * n):
        stat = g + alpha * x + (up - lo)
        if p:
            stat += _dot(col, w_rows)
        if m:
            stat += _dot(col[p:], w_eq)
        lo_s, up_s, stat = lo_b + x, up_b - x, abs(stat)
        lo_c, up_c = abs(lo * lo_s), abs(up * up_s)
        worst = max(worst, stat, -lo_s, -up_s, -lo, -up, lo_c, up_c)
        probe += stat + lo_c + up_c
    return math.nan if math.isnan(probe) else worst


def _dot(u, v) -> float:
    """Correctly rounded dot product of two sequences of Python floats."""
    return math.fsum(map(operator.mul, u, v))


def _factor(work: list, free: list):
    """Thin SVD (u, s, vt) of the working rows on the free coordinates, as
    Python lists, without the singular values below RANK_THRESHOLD times the
    largest: the one factorization of a working set and its one rank rule.

    It needs a row: _direction and _project return before it for none,
    where nothing is factored.  One row has the closed form u = [[1]],
    s = [|a_f|], vt = [a_f / |a_f|] for a_f its free part, with the norm
    taken by math.hypot, which neither underflows nor overflows on the way;
    a zero a_f has no singular value, the one the threshold drops.  Two or
    more rows go through numpy's SVD.  Either way vt is zero on the fixed
    coordinates, so the direction and the correction leave them alone.
    """
    if len(work) > 1:
        u, s, vt = np.linalg.svd(np.array(work) * free, full_matrices=False)
        keep = s > RANK_THRESHOLD * s[0]
        return u[:, keep].tolist(), s[keep].tolist(), (vt[keep] * free).tolist()
    part = [a if f else 0.0 for a, f in zip(work[0], free)]
    norm = math.hypot(*part)
    if not norm > 0.0:
        return [[]], [], []
    return [[1.0]], [norm], [[a / norm for a in part]]


def _direction(work: list, free: list, normal: list):
    """Split normal on the free coordinates into work.T @ coef plus toward,
    orthogonal to the working rows; returns (toward, coef, dependent).

    Over _factor's (u, s, vt): toward = normal_f - vt.T @ coords and
    coef = u @ (coords / s), for coords = vt @ normal_f.  The rows are
    dependent when _factor keeps fewer singular values than rows; coef is
    then the least-norm split, 0 for a row with a zero free part.
    """
    toward = [a if f else 0.0 for a, f in zip(normal, free)]
    if not work:
        return toward, [], False
    u, s, vt = _factor(work, free)
    scaled = []  # coords / s
    # vt's rows are orthonormal: taking one off leaves the next coordinate as it was
    for sv, v in zip(s, vt):
        c = _dot(v, toward)
        toward = [x - c * y for x, y in zip(toward, v)]
        scaled.append(c / sv)
    return toward, [_dot(row, scaled) for row in u], len(s) < len(work)


def _project(gradient: list, alpha: float, limits: list, side: list, work: list, rhs: list):
    """-g/alpha with the fixed coordinates moved to their bounds, plus the
    least-norm correction of the free ones onto the rows work @ d = rhs; the
    rows' multipliers (-alpha times the coefficients of that correction); and
    whether the rows are dependent on the free coordinates.

    The bounds are -limits[i] and limits[n + i].  Over _factor's (u, s, vt),
    for the row residual r = rhs - work @ d: the correction is
    vt.T @ (u.T @ r / s) and the multipliers are -alpha u @ (u.T @ r / s^2).
    A row with a zero free part moves nothing and gets multiplier +0.0.
    """
    n = len(gradient)
    d = [-limits[i] if k < 0.0 else limits[n + i] if k > 0.0 else -g / alpha
         for i, (k, g) in enumerate(zip(side, gradient))]
    if not work:
        return d, [], False
    u, s, vt = _factor(work, [k == 0.0 for k in side])
    residual = [b - _dot(a, d) for a, b in zip(work, rhs)]
    # -alpha inside the sums: a row with no singular value sums to +0.0, not -0.0
    scaled = []  # -alpha coords / s
    for col, sv, v in zip(zip(*u), s, vt):
        c = _dot(col, residual) / sv
        d = [x + c * y for x, y in zip(d, v)]
        scaled.append(-alpha * (c / sv))
    return d, [_dot(row, scaled) for row in u], len(s) < len(work)


def _frozen(values) -> np.ndarray:
    """A read-only float copy."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _require_finite(**fields: np.ndarray) -> None:
    """Raise ValueError naming the first field with a NaN or infinite entry."""
    for name, value in fields.items():
        # the reduction of ndarray.all without its Python wrapper
        if not np.logical_and.reduce(np.isfinite(value), axis=None):
            raise ValueError(f"{name} must be finite")
