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
decomposition is a projection onto a polar cone.  For both callers it
scales the rows, so a subproblem solves the same however its rows are
written, and returns one multiplier per bound and row, scaled back.

The set has one form: a frozen BoxPolyhedron always holds its rows, zero of
them when it has none, and its limits -lower, upper and ineq_rhs, built once,
where a bound is the signed unit vector it is and only the inequality rows
are stored as rows.  One builder, _row_form, lays out the lists the loop
reads, those limits and rows, then the equality rows, for the subproblem,
its certificate and the stationarity measure alike.  The solve returns the
step, the equality multipliers and one nonnegative multiplier per bound and
row, certified on the lists it was solved on by one KKT residual, _kkt, in
which the equality rows are rows, read at the loop's row scale
(_row_exponent).  Problems here are small (a few dozen variables);
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
    2n..2n+p-1 the inequality rows'.  It needs at least one coordinate, all
    data must be finite, and the bounds keep the set compact, which keeps
    subproblem steps and multipliers bounded.  The set is frozen and its
    arrays are read-only copies, so the limits cannot fall out of step with
    their data.  Two sets compare by identity.
    """

    lower: np.ndarray
    upper: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    limits: np.ndarray = field(init=False, repr=False)

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
                             limits=_frozen(np.concatenate([-lower, upper, rhs])))

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


@dataclass(eq=False)
class QpProblem:
    """One subproblem: gradient estimate, scalar curvature, optional equality rows.

    eq_jacobian columns are the constraint gradients (shape n x m); the
    linearized constraints read eq_jacobian.T @ d = -eq_residual.  The set is
    already translated to step coordinates by the caller.  Two problems
    compare by identity.
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
    solve that does not end OPTIMAL returns zeros and an infinite residual.
    QpSolution.iterations counts the constraints added plus those dropped.
    """
    box, alpha, m = problem.set, problem.curvature, problem.n_eq
    gradient = problem.gradient.tolist()
    general, limits = _row_form(box.limits.tolist(), box, problem.eq_jacobian,
                                problem.eq_residual)
    exps = list(map(_row_exponent, general))
    # on Python floats, so that an overflow raises no numpy warning
    if math.isfinite(max(map(abs, gradient)) / alpha):
        result = _active_set(gradient, alpha, general, limits, m, exps)
    else:
        result = QpStatus.NUMERICAL_FAILURE, None, None, False, 0
    status, d, mults, rank_warning, iterations = result
    residual = math.inf
    if status is QpStatus.OPTIMAL:
        residual = _kkt(gradient, alpha, general, limits, m, exps, d, mults)
        if not residual <= TOL * max(1.0, *map(abs, gradient)):  # NaN fails too
            status = QpStatus.NUMERICAL_FAILURE
    else:
        d, mults = [0.0] * len(gradient), [0.0] * len(limits)
    n_set = box.limits.size
    return QpSolution(
        step=np.array(d),
        eq_multipliers=np.array(mults[n_set:]),
        set_multipliers=np.array(mults[:n_set]),
        kkt_residual=residual,
        status=status,
        rank_warning=rank_warning,
        iterations=iterations,
    )


def _row_form(limits: list, box: BoxPolyhedron, eq_jacobian=None, eq_values=None):
    """The (general, limits) lists as _active_set reads them: limits, one per
    entry of box.limits (the set's own, or translated to a point), with the
    set's ineq_matrix rows, then, for an equality pair, one row per column of
    eq_jacobian with limit -eq_values.  The subproblem, its certificate and
    the stationarity measure all take their lists from here."""
    general = box.ineq_matrix.tolist()
    if eq_jacobian is not None:
        general += eq_jacobian.T.tolist()
        limits = limits + (-eq_values).tolist()
    return general, limits


def _active_set(gradient: list, alpha: float, general: list, limits: list, m: int,
                exps: list):
    """The dual active-set loop for min g.d + (alpha/2)|d|^2 on Python
    floats, over the bounds -d_i <= limits[i] and d_i <= limits[n + i], then
    the rows a . d <= limits[c] of general, whose last m are equality rows.
    A bound with an infinite limit never enters.

    Each row of general and its limit are first scaled to the row scale
    exps, the _row_exponent of each row, exactly: the solve is the same
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
    mults has one multiplier per constraint id, in the units of general,
    zero off the final working set; a bound's is the stationarity residual
    on its coordinate.  Otherwise d and mults are None.
    """
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


def _row_exponent(row) -> int:
    """The one row scale: row times 2**-_row_exponent(row) has its largest
    entry in [0.5, 1), exactly; a zero row keeps exponent 0."""
    return math.frexp(max(map(abs, row)))[1]


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
    equality rows.

    Each general row's slack, and each inequality row's multiplier sign, are
    read at the loop's row scale, the exps _active_set was given, so the
    certificate does not depend on how the rows are written; an equality
    row's gap is its negated slack, and its multiplier is free in sign.  The stationarity and
    the complementarity w * s are free of that scale already and stay
    unscaled.  The bounds are the signed unit vectors they are.
    """
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


def _dot(u, v) -> float:
    """Correctly rounded dot product of two sequences of Python floats."""
    return math.fsum(map(operator.mul, u, v))


def _factor(work: list, free: list):
    """Thin SVD (u, s, vt) of the working rows on the free coordinates, as
    Python lists, without the singular values below RANK_THRESHOLD times the
    largest: the one factorization of a working set and its one rank rule.

    No row gives empty lists.  One row has the closed form u = [[1]],
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
    if not work:
        return [], [], []
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
