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

Starting basis.  A solve may be given a start as the (basis, at_upper) an
LpSolution reports, or as the Start that check_start makes of one: its
checks and basis inverse depend only on the columns and bounds, so a Start
is checked once and trusted on every LP that shares its columns, as
with_vectors copies do.  Per solve, B^-1 (b0 - N_U u_U) must lie within the
basic bounds to FEAS_TOL; the start is then priced once, and is the optimum
without a simplex when no column enters (Bixby, "Solving real-world linear
programs", Oper. Res. 50(1), 2002, on known bases); else phase 2 runs from
it.  A start that fails a check is ignored, and the slack basis is used.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .qp import _frozen, _require_finite

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
        cost, ineq_rhs, lower, upper = (_frozen(np.atleast_1d(vector)) for vector in (
            self.cost, self.ineq_rhs, self.lower, self.upper))
        ineq_matrix = _frozen(np.atleast_2d(self.ineq_matrix))
        q, s = cost.size, ineq_rhs.size
        if ineq_matrix.shape[1] != q or ineq_matrix.shape[0] != s:
            raise ValueError("ineq_matrix must be (s, q) with ineq_rhs of length s")
        if lower.size != q or upper.size != q:
            raise ValueError("bounds must have the same length as cost")
        _require_finite(cost=cost, ineq_matrix=ineq_matrix, ineq_rhs=ineq_rhs,
                        **{"lower bounds": lower})
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


def _finite_vector(values, size: int, name: str) -> np.ndarray:
    out = _frozen(np.atleast_1d(values))
    if out.shape != (size,):
        raise ValueError(f"{name} must have length {size}")
    _require_finite(**{name: out})
    return out


@dataclass
class LpSolution:
    """Solution of one LP.

    At an optimum, basis lists the basic columns of [ineq_matrix | I]
    (structural variables, then one slack per row) and at_upper the nonbasic
    structural variables that sit at their upper bound; together they
    determine the vertex for any right-hand side.  basis_inverse is the
    inverse of those columns, freshly computed rather than updated through
    the pivots (a Start's own when none was made); primal and duals come from it.
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


class Start(NamedTuple):
    """A start that check_start has checked on `columns`, in read-only arrays: its
    basis, at_upper, basis inverse and pricing sign (_Simplex's state * movable)."""

    basis: np.ndarray
    at_upper: np.ndarray
    inverse: np.ndarray
    sign: np.ndarray
    columns: np.ndarray


def solve_lp(problem: LpProblem, start: tuple | Start = None) -> LpSolution:
    """Solve the LP; status reports infeasibility/unboundedness, never raises for them.

    start is optional: the (basis, at_upper) of an LpSolution, integer arrays
    of the basic columns of [ineq_matrix | I] and of the nonbasic structural
    variables at their upper bound, or a Start checked once by check_start.
    A start that fits this right-hand side is priced once, and builds no
    simplex when it is optimal; see "Starting basis" above.
    """
    q, s = problem.n_vars, problem.n_rows
    b0 = problem.ineq_rhs - problem.lower_rows
    if isinstance(start, Start) and start.columns is not problem.columns:
        start = start.basis, start.at_upper
    if start is not None and not isinstance(start, Start):
        start = check_start(problem, start)
    checked = None
    if start is not None:
        basis, at_upper, b_inv = start.basis, start.at_upper, start.inverse
        xb = b_inv @ _net_of_upper(problem, b0, at_upper)
        if ((xb >= -FEAS_TOL) & (xb <= problem.ranges[basis] + FEAS_TOL)).all():
            y, j = _price(np.concatenate([problem.cost, np.zeros(s)]), basis, b_inv,
                          problem.columns, start.sign, bland=False)
            if j is None:
                return _optimum(problem, basis, at_upper, b_inv, xb, y, 0)
            checked = basis.copy(), at_upper, b_inv.copy(), xb  # pivots work in place
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
    b_inv, xb, y = core.b_inv, core.xb, core.y
    if core.pivots or core.neg_rows.size:
        # values and duals from a fresh inverse of the final basis, independent
        # of the pivots that led there; an optimal slack basis has it already
        b_inv = np.linalg.inv(problem.columns[:, basis])
        xb = b_inv @ _net_of_upper(problem, b0, at_upper)
        y = core.cost[core.basis] @ b_inv
    return _optimum(problem, basis, at_upper, b_inv, xb, y, core.pivots)


def _optimum(problem: LpProblem, basis, at_upper, b_inv, xb, y, pivots) -> LpSolution:
    """The OPTIMAL LpSolution of a basis, from its inverse, basic values and duals."""
    vals = np.zeros(problem.n_vars + problem.n_rows)
    vals[at_upper] = problem.ranges[at_upper]
    vals[basis] = xb
    x = problem.lower + vals[:problem.n_vars]
    return LpSolution(x, -y, float(problem.cost @ x), LpStatus.OPTIMAL, pivots,
                      basis, at_upper, b_inv)


def solve_lp_multi_rhs(problem: LpProblem, rhs: np.ndarray,
                       start: tuple | Start = None) -> LpBatchSolution:
    """Solve `problem` once per row of rhs (shape (N, rows)), reusing bases.

    The LPs share cost, rows and bounds (problem.ineq_rhs is not used), so an
    optimal basis of one is dual feasible for all of them, and optimal for
    every right-hand side that keeps its basic values within bounds.  The
    first unresolved row is cold-solved by solve_lp from `start`.  Then
    B^-1 (b0 - N_U u_U) is formed for every unresolved row in one product with
    the solve's basis inverse, so a row's values do not depend on the pivots
    that found its basis.  Rows whose values lie within bounds to FEAS_TOL
    join its group, with objective c.l + c_U (u_U - l_U) + c_B xb; the rest
    repeat from the first rejected row.
    """
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    n_lp, s = rhs.shape
    if s != problem.n_rows:
        raise ValueError("rhs must have one column per inequality row")
    _require_finite(rhs=rhs)
    rng = problem.ranges
    shifted = rhs - problem.lower_rows
    costs = np.concatenate([problem.cost, np.zeros(s)])  # slacks cost nothing
    fixed_cost = float(problem.cost @ problem.lower)

    solves, group = [], np.zeros(n_lp, dtype=np.intp)
    xb, objective = np.zeros((n_lp, s)), np.full(n_lp, np.nan)
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
        # nonbasic variables sit at the bound they sit at in the cold solve
        nonbasic_cost = fixed_cost + costs[upper] @ rng[upper]
        if pending.size == n_lp and fits.all():  # one basis serves every row
            return LpBatchSolution(solves, group, values, nonbasic_cost + values @ costs[basis])
        won, values = pending[fits], values[fits]
        xb[won] = values
        objective[won] = nonbasic_cost + values @ costs[basis]
        pending = pending[~fits]
    return LpBatchSolution(solves=solves, group=group, xb=xb, objective=objective)


def check_start(problem: LpProblem, start: tuple) -> Start | None:
    """The Start of a (basis, at_upper) pair on problem's columns, else None.

    It needs integer arrays, one distinct column of [A | I] per row, at_upper
    naming distinct nonbasic structural variables with finite upper bounds,
    and a basis matrix whose 1-norm condition number is at most
    START_CONDITION_LIMIT: nothing that depends on the cost or right-hand side.
    """
    q, s = problem.n_vars, problem.n_rows
    basis, at_upper = (np.asarray(part) for part in start)
    if (basis.shape != (s,) or at_upper.ndim != 1 or basis.dtype.kind not in "iu"
            or (at_upper.size and at_upper.dtype.kind not in "iu")):
        return None
    # a few dozen indices: Python's set and range tests beat numpy's calls
    basic, upper, rng = basis.tolist(), sorted(at_upper.tolist()), problem.ranges
    if not (all(0 <= j < q + s for j in basic)
            and all(0 <= j < q and math.isfinite(rng[j]) for j in upper)
            and len(set(basic + upper)) == s + len(upper)):
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
    sign = np.full(q + s, -1.0)
    sign[at_upper], sign[basis] = 1.0, 0.0
    sign *= rng > 0.0
    for part in (basis, at_upper, b_inv, sign):
        part.flags.writeable = False
    return Start(basis, at_upper, b_inv, sign, problem.columns)


def _net_of_upper(problem: LpProblem, b0: np.ndarray, at_upper: np.ndarray) -> np.ndarray:
    """b0 - N_U u_U: the right-hand side left once the columns at_upper sit at
    their upper bounds (b0 itself when there are none)."""
    if not at_upper.size:  # subtracting the empty product's zeros changes no bit
        return b0
    return b0 - problem.columns[:, at_upper] @ problem.ranges[at_upper]


def _price(cost, basis, b_inv, columns, sign, bland: bool) -> tuple:
    """Duals y = c_B B^-1 and the column entering by the pivot rules, or None."""
    y = cost[basis] @ b_inv
    viol = sign * (cost - y @ columns)
    if bland:
        nz = (viol > PIVOT_TOL).nonzero()[0]
        return y, int(nz[0]) if nz.size else None
    j = int(viol.argmax())
    return y, j if viol[j] > PIVOT_TOL else None


class _Simplex:
    """Revised simplex on  [A | I | -E] z = b0,  0 <= z <= rng.

    Columns: q structural variables (shifted so their lower bound is 0),
    s slacks, then one artificial column -e_i per negative rhs row.
    Artificials cost 1 in phase 1; afterwards they get range 0 and stop
    being movable, which pins them to value zero without basis surgery.  A start
    from solve_lp is checked and primal feasible, so it needs no artificials.
    """

    def __init__(self, problem: LpProblem, b0: np.ndarray, start: tuple = None):
        self.s, self.q = s, q = problem.n_rows, problem.n_vars
        # the problem's own arrays, read-only; phase 1 extends both
        cols, rng = problem.columns, problem.ranges
        if start is None:
            neg_rows = np.flatnonzero(b0 < 0.0)
            n_art = neg_rows.size
            # starting basis: slacks, except artificials on negative rows
            basis, at_upper = np.arange(q, q + s), np.zeros(0, dtype=np.intp)
            b_inv = np.eye(s)
            if n_art:
                art = np.zeros((s, n_art))
                art[neg_rows, np.arange(n_art)] = -1.0
                cols = np.hstack([cols, art])
                rng = np.concatenate([rng, np.full(n_art, np.inf)])
                basis[neg_rows] = q + s + np.arange(n_art)
                b_inv[neg_rows, neg_rows] = -1.0
            xb = np.abs(b0)
        else:
            basis, at_upper, b_inv, xb = start
            neg_rows, n_art = np.zeros(0, dtype=np.intp), 0
        self.cols, self.rng, self.b0 = cols, rng, b0
        self.nv = q + s + n_art
        self.art_slice = slice(q + s, self.nv)
        self.neg_rows, self.structural_cost = neg_rows, problem.cost
        self.max_pivots = 1000 * (q + s) + 10000

        self.basis = basis
        # -1 nonbasic at lower, +1 nonbasic at upper, 0 basic
        self.state = np.full(self.nv, -1.0)
        self.state[at_upper] = 1.0
        self.state[basis] = 0.0
        self.movable = rng > 0.0  # a fixed column never enters
        self.b_inv, self.xb, self.pivots = b_inv, xb, 0

    def run(self, bland_after: int) -> LpStatus:
        if self.neg_rows.size:
            self.cost = np.zeros(self.nv)
            self.cost[self.art_slice] = 1.0
            self._optimize(bland_after)  # bounded below by 0, cannot be unbounded
            if self.xb[self.basis >= self.q + self.s].sum() > FEAS_TOL:
                return LpStatus.INFEASIBLE
            self.rng[self.art_slice] = 0.0
            self.movable[self.art_slice] = False
        self.cost = np.zeros(self.nv)
        self.cost[:self.q] = self.structural_cost
        return self._optimize(bland_after)

    def _optimize(self, bland_after: int) -> LpStatus:
        while True:
            self.y, j = _price(self.cost, self.basis, self.b_inv, self.cols,
                               self.state * self.movable, bland=self.pivots > bland_after)
            if j is None:
                return LpStatus.OPTIMAL
            if not self._pivot(j):
                return LpStatus.UNBOUNDED
            if self.pivots > self.max_pivots:
                raise RuntimeError("simplex pivot limit exceeded")

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
