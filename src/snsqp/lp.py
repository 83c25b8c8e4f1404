"""Dense linear programs with inequality rows and variable bounds.

Two-phase revised simplex on the slack-extended standard form, with
bounded-variable pivoting (variables may sit at either bound when nonbasic)
and Bland's rule engaged after a pivot budget to guarantee termination on
degenerate instances.

Pivot rules.  The simplex keeps one state per column: -1 for a nonbasic
variable at its lower bound, +1 at its upper bound, 0 for a basic one.  A
fixed column (range 0) is not movable and never enters, so state * movable *
reduced cost is each column's violation.  The column with the largest
violation above PIVOT_TOL enters (the first one on ties); under Bland's rule
the first column above PIVOT_TOL does.  The leaving variable has the smallest
ratio, ties going to the smallest variable index, unless the entering
variable reaches its own other bound first (a bound flip).

Dual sign convention: inequality rows A x <= b carry nonnegative multipliers
mu in the Lagrangian L = c.x + mu.(A x - b).  The value-function subgradient
formulas downstream rely on this sign, so it is part of the contract.

LpProblem builds the column block [A | I] and the column ranges once;
LPs that share cost, rows and bounds and differ only in the right-hand side
are solved together by solve_lp_multi_rhs, which reuses optimal bases across
them ("bunching", Birge & Louveaux, Introduction to Stochastic Programming,
L-shaped chapter), and stores its result by basis rather than by row.

Starting basis.  A solve may be given a start in the form an LpSolution
reports its optimum, (basis, at_upper).  It is used only when it is a basis
of this problem that is primal feasible for this right-hand side: one
distinct column per row, nonbasic upper-bound columns with finite bounds,
a nonsingular basis matrix, and B^-1 (b0 - N_U u_U) within the basic
bounds to FEAS_TOL.  Phase 2 then runs from it, and needs no pivot when the
start is optimal (Bixby, "Solving real-world linear programs", Oper. Res.
50(1), 2002, on why a known basis beats a slack start).  Any other start is
ignored: the solve starts from the slack basis and makes exactly the pivots
it makes without one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
#: pivots before switching from largest-violation pricing to Bland's rule
BLAND_AFTER_FACTOR = 10
#: periodic reinversion of the basis for numerical hygiene
REFACTOR_EVERY = 60
#: a start whose basis matrix has a larger 1-norm condition number counts as singular
START_CONDITION_LIMIT = 1e12


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """min cost.x  s.t.  ineq_matrix @ x <= ineq_rhs,  lower <= x <= upper.

    Every entry must be finite, except that upper bounds may be +inf.  The
    arrays are copied and made read-only.  Construction also builds what
    every solve of these rows and bounds shares: the column block
    [ineq_matrix | I], the column ranges (upper - lower, then +inf per
    slack) and ineq_matrix @ lower.  with_vectors swaps in a new cost or
    right-hand side and keeps them.
    """

    cost: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    ranges: np.ndarray = field(init=False, repr=False, compare=False)
    lower_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cost = _frozen(np.atleast_1d(self.cost))
        ineq_matrix = _frozen(np.atleast_2d(self.ineq_matrix))
        ineq_rhs = _frozen(np.atleast_1d(self.ineq_rhs))
        lower = _frozen(np.atleast_1d(self.lower))
        upper = _frozen(np.atleast_1d(self.upper))
        q, s = cost.size, ineq_rhs.size
        if ineq_matrix.shape[1] != q or ineq_matrix.shape[0] != s:
            raise ValueError("ineq_matrix must be (s, q) with ineq_rhs of length s")
        if lower.size != q or upper.size != q:
            raise ValueError("bounds must have the same length as cost")
        for name, values in (("cost", cost), ("ineq_matrix", ineq_matrix),
                             ("ineq_rhs", ineq_rhs), ("lower bounds", lower)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.isnan(upper).any():
            raise ValueError("upper bounds must not be nan")
        if np.any(lower > upper):
            raise ValueError("requires lower <= upper")
        for name, value in (
                ("cost", cost), ("ineq_matrix", ineq_matrix), ("ineq_rhs", ineq_rhs),
                ("lower", lower), ("upper", upper),
                ("columns", _frozen(np.hstack([ineq_matrix, np.eye(s)]))),
                ("ranges", _frozen(np.concatenate([upper - lower, np.full(s, np.inf)]))),
                ("lower_rows", _frozen(ineq_matrix @ lower))):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.cost.size

    @property
    def n_rows(self) -> int:
        return self.ineq_rhs.size

    def with_vectors(self, cost=None, ineq_rhs=None) -> LpProblem:
        """This LP with a new cost and/or right-hand side.

        The rows, bounds and the arrays built from them are shared; only the
        new vectors are checked.
        """
        changes = {}
        if cost is not None:
            changes["cost"] = _finite_vector(cost, self.n_vars, "cost")
        if ineq_rhs is not None:
            changes["ineq_rhs"] = _finite_vector(ineq_rhs, self.n_rows, "ineq_rhs")
        return self._with(**changes)

    def _with(self, **vectors) -> LpProblem:
        """A copy with some vectors replaced, unchecked: the caller checked them."""
        copy = object.__new__(LpProblem)
        copy.__dict__.update(self.__dict__, **vectors)
        return copy


def _frozen(values) -> np.ndarray:
    """A read-only float copy."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _finite_vector(values, size: int, name: str) -> np.ndarray:
    out = _frozen(np.atleast_1d(values))
    if out.shape != (size,):
        raise ValueError(f"{name} must have length {size}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


@dataclass
class LpSolution:
    """Solution of one LP.

    At an optimum, basis lists the basic columns of [ineq_matrix | I]
    (structural variables, then one slack per row) and at_upper the nonbasic
    structural variables that sit at their upper bound; together they
    determine the vertex for any right-hand side.  basis_inverse is the
    inverse of those columns, freshly computed rather than updated through
    the pivots; primal and duals come from it.
    """

    primal: np.ndarray
    duals: np.ndarray
    objective: float
    status: LpStatus
    iterations: int = 0
    basis: np.ndarray = None
    at_upper: np.ndarray = None
    basis_inverse: np.ndarray = None


@dataclass
class LpBatchSolution:
    """Solutions of LPs that differ only in their right-hand side, stored by basis.

    solves holds one LpSolution per solve_lp call, made in row order for the
    first row no earlier basis fits.  Row i has the status, basis, at_upper
    and duals of solves[group[i]], its basic values xb[i] in that basis's
    order, and its optimal value objective[i].  A row that is not OPTIMAL is
    the one its solve was made for, with zero xb and a nan objective.
    """

    solves: list
    group: np.ndarray
    xb: np.ndarray
    objective: np.ndarray


def solve_lp(problem: LpProblem, start: tuple = None) -> LpSolution:
    """Solve the LP; status reports infeasibility/unboundedness, never raises for them.

    start is an optional (basis, at_upper) pair of integer arrays, the form
    LpSolution reports: the basic columns of [ineq_matrix | I], one per row,
    and the nonbasic structural variables at their upper bound.  When it is
    a well-conditioned basis that is primal feasible for this right-hand
    side (see _checked_start), phase 2 runs from it; otherwise it is ignored
    and the solve starts from the slack basis, with the same pivots as
    without a start.
    """
    q, s = problem.n_vars, problem.n_rows
    b0 = problem.ineq_rhs - problem.lower_rows
    checked = None if start is None else _checked_start(problem, b0, start)
    core = _Simplex(problem, b0, checked)
    status = core.run(bland_after=BLAND_AFTER_FACTOR * (q + s))
    if status is not LpStatus.OPTIMAL:
        return LpSolution(np.zeros(q), np.zeros(s), np.nan, status, core.pivots)

    # a basic artificial sits at zero; its row's slack (the negated column)
    # spans the same basis with the same duals
    basis = core.basis.copy()
    if core.neg_rows.size:
        artificial = basis >= q + s
        basis[artificial] = q + core.neg_rows[basis[artificial] - q - s]
    at_upper = np.flatnonzero(core.state[:q] > 0)
    vals = np.zeros(q + s)
    vals[at_upper] = problem.ranges[at_upper]
    b_inv, xb, y = core.b_inv, core.xb, core.y
    if core.pivots or core.neg_rows.size:
        # values and duals from a fresh inverse of the final basis, so that
        # they do not depend on the pivots that led there; without pivots or
        # artificials the start's own inverse is that inverse already
        b_inv = np.linalg.inv(problem.columns[:, basis])
        xb = b_inv @ _net_of_upper(problem, b0, at_upper)
        y = core.cost[core.basis] @ b_inv
    vals[basis] = xb
    x = problem.lower + vals[:q]
    return LpSolution(
        primal=x,
        duals=-y,
        objective=float(problem.cost @ x),
        status=LpStatus.OPTIMAL,
        iterations=core.pivots,
        basis=basis,
        at_upper=at_upper,
        basis_inverse=b_inv,
    )


def solve_lp_multi_rhs(problem: LpProblem, rhs: np.ndarray,
                       start: tuple = None) -> LpBatchSolution:
    """Solve `problem` once per row of rhs (shape (N, rows)), reusing bases.

    The LPs share cost, rows and bounds (problem.ineq_rhs is not used), so an
    optimal basis of one is dual feasible for all of them, and it is optimal
    for every right-hand side that keeps its basic values within bounds.  The
    first unresolved row is cold-solved by solve_lp, which is passed `start`
    (see solve_lp: a start that does not fit that row falls back to the
    slack basis).  B^-1 (b0 - N_U u_U) is then formed for every unresolved
    row, that one included, in one product with the cold solve's fresh basis
    inverse, so each row's values depend on its basis and not on the pivots
    that found it.  Rows whose basic values lie within their bounds to
    FEAS_TOL join its group with those values and the objective c.l +
    c_U (u_U - l_U) + c_B xb; the rest repeat from the first rejected row.
    """
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    n_lp, s = rhs.shape
    if s != problem.n_rows:
        raise ValueError("rhs must have one column per inequality row")
    if not np.isfinite(rhs).all():
        raise ValueError("rhs must be finite")
    rng = problem.ranges
    shifted = rhs - problem.lower_rows
    costs = np.concatenate([problem.cost, np.zeros(s)])  # slacks cost nothing
    fixed_cost = float(problem.cost @ problem.lower)

    solves = []
    group = np.zeros(n_lp, dtype=np.intp)
    xb = np.zeros((n_lp, s))
    objective = np.full(n_lp, np.nan)
    pending = np.arange(n_lp)
    while pending.size:
        sol = solve_lp(problem._with(ineq_rhs=rhs[pending[0]]), start)
        group[pending] = len(solves)  # the rows it does not fit move on
        solves.append(sol)
        if sol.status is not LpStatus.OPTIMAL:
            pending = pending[1:]
            continue

        basis, upper = sol.basis, sol.at_upper
        b = shifted if pending.size == n_lp else shifted[pending]
        values = _net_of_upper(problem, b, upper) @ sol.basis_inverse.T
        fits = ((values >= -FEAS_TOL) & (values <= rng[basis] + FEAS_TOL)).all(axis=1)
        fits[0] = True  # the cold-solved row, optimal within the simplex's tolerances
        won, values = pending[fits], values[fits]
        xb[won] = values
        # nonbasic variables sit at the bound they sit at in the cold solve
        objective[won] = (fixed_cost + costs[upper] @ rng[upper]) + values @ costs[basis]
        pending = pending[~fits]
    return LpBatchSolution(solves=solves, group=group, xb=xb, objective=objective)


def _checked_start(problem: LpProblem, b0: np.ndarray, start: tuple):
    """(basis, at_upper, B^-1, basic values) of a usable start, else None.

    Usable means: integer arrays, one distinct column of [A | I] per row,
    at_upper naming distinct nonbasic structural variables with finite
    upper bounds, a basis matrix whose 1-norm condition number is at most
    START_CONDITION_LIMIT, and basic values B^-1 (b0 - N_U u_U) within
    [0, range] to FEAS_TOL.
    """
    q, s = problem.n_vars, problem.n_rows
    basis, at_upper = (np.asarray(part) for part in start)
    if basis.shape != (s,) or at_upper.ndim != 1:
        return None
    if basis.dtype.kind not in "iu" or (at_upper.size and at_upper.dtype.kind not in "iu"):
        return None
    # a few dozen indices: Python's set and range tests beat numpy's calls
    basic, upper = basis.tolist(), at_upper.tolist()
    rng = problem.ranges
    if not all(0 <= j < q + s for j in basic):
        return None
    if not all(0 <= j < q and math.isfinite(rng[j]) for j in upper):
        return None
    if len(set(basic + upper)) != s + len(upper):
        return None
    basis, at_upper = np.array(basic, dtype=np.intp), np.array(upper, dtype=np.intp)
    matrix = problem.columns[:, basis]
    try:
        b_inv = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore"):  # an overflow reads as inf and is rejected
        condition = (np.abs(matrix).sum(axis=0).max(initial=0.0)
                     * np.abs(b_inv).sum(axis=0).max(initial=0.0))
    if not condition <= START_CONDITION_LIMIT:  # also rejects a nan inverse
        return None
    xb = b_inv @ _net_of_upper(problem, b0, at_upper)
    if not ((xb >= -FEAS_TOL) & (xb <= rng[basis] + FEAS_TOL)).all():
        return None
    return basis, at_upper, b_inv, xb


def _net_of_upper(problem: LpProblem, b0: np.ndarray, at_upper: np.ndarray) -> np.ndarray:
    """b0 - N_U u_U: the right-hand side left once the columns at_upper sit at
    their upper bounds (b0 itself when there are none)."""
    if not at_upper.size:  # subtracting the empty product's zeros changes no bit
        return b0
    return b0 - problem.columns[:, at_upper] @ problem.ranges[at_upper]


class _Simplex:
    """Revised simplex on  [A | I | -E] z = b0,  0 <= z <= rng.

    Columns: q structural variables (shifted so their lower bound is 0),
    s slacks, then one artificial column -e_i per negative rhs row.
    Artificials cost 1 in phase 1; afterwards they get range 0 and stop
    being movable, which pins them to value zero without basis surgery.  A checked start (from
    _checked_start) is primal feasible, so it needs no artificials.
    """

    def __init__(self, problem: LpProblem, b0: np.ndarray, start: tuple = None):
        s, q = problem.n_rows, problem.n_vars
        self.s, self.q = s, q
        # the problem's own arrays, read-only; phase 1 extends both
        cols, rng = problem.columns, problem.ranges
        if start is None:
            neg_rows = np.flatnonzero(b0 < 0.0)
            n_art = neg_rows.size
            if n_art:
                art = np.zeros((s, n_art))
                art[neg_rows, np.arange(n_art)] = -1.0
                cols = np.hstack([cols, art])
                rng = np.concatenate([rng, np.full(n_art, np.inf)])
            # starting basis: slacks, except artificials on negative rows
            basis, at_upper = np.arange(q, q + s), np.zeros(0, dtype=np.intp)
            b_inv = np.eye(s)
            if n_art:
                basis[neg_rows] = q + s + np.arange(n_art)
                b_inv[neg_rows, neg_rows] = -1.0
            xb = np.abs(b0)
        else:
            basis, at_upper, b_inv, xb = start
            neg_rows, n_art = np.zeros(0, dtype=np.intp), 0
        self.cols = cols
        self.b0 = b0
        self.nv = q + s + n_art
        self.rng = rng
        self.art_slice = slice(q + s, self.nv)
        self.neg_rows = neg_rows
        self.structural_cost = problem.cost
        self.max_pivots = 1000 * (q + s) + 10000

        self.basis = basis
        # -1 nonbasic at lower, +1 nonbasic at upper, 0 basic
        self.state = np.full(self.nv, -1.0)
        self.state[at_upper] = 1.0
        self.state[basis] = 0.0
        self.movable = rng > 0.0  # a fixed column never enters
        self.b_inv = b_inv
        self.xb = xb
        self.pivots = 0

    def run(self, bland_after: int) -> LpStatus:
        if self.neg_rows.size:
            phase1 = np.zeros(self.nv)
            phase1[self.art_slice] = 1.0
            self.cost = phase1
            self._optimize(bland_after)  # bounded below by 0, cannot be unbounded
            if self.xb[self.basis >= self.q + self.s].sum() > FEAS_TOL:
                return LpStatus.INFEASIBLE
            self.rng[self.art_slice] = 0.0
            self.movable[self.art_slice] = False
        real = np.zeros(self.nv)
        real[:self.q] = self.structural_cost
        self.cost = real
        return self._optimize(bland_after)

    def _optimize(self, bland_after: int) -> LpStatus:
        while True:
            self.y = y = self.cost[self.basis] @ self.b_inv
            reduced = self.cost - y @ self.cols
            j = self._entering(self.state * self.movable * reduced,
                               bland=self.pivots > bland_after)
            if j is None:
                return LpStatus.OPTIMAL
            if not self._pivot(j):
                return LpStatus.UNBOUNDED
            if self.pivots > self.max_pivots:
                raise RuntimeError("simplex pivot limit exceeded")

    @staticmethod
    def _entering(viol: np.ndarray, bland: bool) -> int | None:
        if bland:
            nz = (viol > PIVOT_TOL).nonzero()[0]
            return int(nz[0]) if nz.size else None
        j = int(viol.argmax())
        return j if viol[j] > PIVOT_TOL else None

    def _pivot(self, j: int) -> bool:
        """Bring column j toward the basis; False signals an unbounded ray."""
        col = self.b_inv @ self.cols[:, j]
        from_upper = bool(self.state[j] > 0)
        delta = -col if from_upper else col

        # a falling basic variable has room xb to its lower bound, a rising one
        # room to its upper bound, which is infinite when its range is
        room = np.where(delta > 0, self.xb, self.rng[self.basis] - self.xb)
        size = np.abs(delta)
        ratios = np.full(self.s, math.inf)
        np.divide(np.maximum(room, 0.0), size, out=ratios, where=size > PIVOT_TOL)

        min_ratio = float(ratios.min(initial=math.inf))
        flip_t = float(self.rng[j])
        if not (math.isfinite(min_ratio) or math.isfinite(flip_t)):
            return False
        self.pivots += 1

        if flip_t < min_ratio:
            self.xb -= flip_t * delta
            self.state[j] = -self.state[j]
            return True

        # leaving: smallest variable index among the minimal ratios (Bland-safe)
        tied = (ratios == min_ratio).nonzero()[0]
        leave_pos = int(tied[0] if tied.size == 1 else tied[self.basis[tied].argmin()])
        leave = int(self.basis[leave_pos])

        self.xb -= min_ratio * delta
        self.xb[leave_pos] = flip_t - min_ratio if from_upper else min_ratio
        self.state[leave] = 1.0 if delta[leave_pos] < 0 else -1.0  # the bound it reached
        self.state[j] = 0.0
        self.basis[leave_pos] = j

        piv = col[leave_pos]
        row = self.b_inv[leave_pos] / piv
        self.b_inv -= col[:, None] * row
        self.b_inv[leave_pos] = row

        if self.pivots % REFACTOR_EVERY == 0:
            self._refactor()
        return True

    def _refactor(self):
        self.b_inv = np.linalg.inv(self.cols[:, self.basis])
        nb_upper = self.state > 0
        rhs = self.b0 - self.cols[:, nb_upper] @ self.rng[nb_upper]
        self.xb = self.b_inv @ rhs
