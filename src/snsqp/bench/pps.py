"""Joint production, pricing and shipment benchmark (two-stage, nonsmooth).

First stage picks a production budget x and a price p subject to
x >= 1, p in [1, 10] and x <= slope0*p + intercept0.  The second stage sees
random store demand curves slope_j(xi)*p + intercept_j(xi) and chooses
production y_i >= 1 and shipments z_ij >= 0 to minimize

    c2.y + sum_ij (s_ij - p) z_ij
    s.t. sum_i z_ij <= slope_j(xi)*p + intercept_j(xi)   (demand)
         sum_j z_ij <= y_i                               (capacity)

The sampled total objective is (c1 - p)*x + R(p, xi) with R the second-stage
optimum; its subgradient over (x, p) combines the smooth first-stage part
with the LP value function's derivative in p (envelope theorem: the explicit
-z terms of the objective plus the demand duals times the rhs slopes).

Scenario coordinates are truncated normals on the stated intervals with
mean = midpoint and sigma = width/4 (the distribution's center and spread
are an assumption; the source data only names the intervals).  A batch of
scenarios is an array of shape (N, 2*stores): the slopes, then the
intercepts.  One rejection pass draws all 2*stores columns: a first block of
N x 2*stores normals, then, round by round, one normal per entry still
rejected, in row-major order (exact rejection, per entry, from the same
truncated normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import lp
from ..model import ConstrainedStochasticProblem
from ..qp import BoxPolyhedron, _frozen

#: each round accepts about 95.4% of the pending draws, so the cap is never reached
_MAX_REJECTION_ROUNDS = 10 ** 4

#: weak-convexity modulus estimate used for this benchmark's runs; together
#: with eta_alpha = 1.5 it makes the reference curvature ALPHA0 admissible
RHO_ESTIMATE = 10.0

#: the reference curvature alpha0 of benchmark runs
ALPHA0 = 15.0


@dataclass(frozen=True, eq=False)
class PpsInstance:
    """The benchmark's data.  Its arrays are read-only copies, so they cannot
    fall out of step with recourse, crash_starts and regime_prices, which
    are built from them once, at construction.  Two instances compare by
    identity."""

    factories: int
    stores: int
    first_stage_cost: float
    production_costs: np.ndarray
    shipment_costs: np.ndarray
    demand_slope0: float
    demand_intercept0: float
    slope_intervals: np.ndarray
    intercept_intervals: np.ndarray
    price_bounds: tuple = (1.0, 10.0)
    quantity_floor: float = 1.0
    #: the recourse LP, built and checked once from the fields above
    recourse: lp.LpProblem = field(init=False, repr=False)
    #: the crash starts of _recourse_start on it, each checked once and held
    #: as a (Start, mask) pair: the mask is float64, 1 at each basis position
    #: that holds a shipment
    crash_starts: tuple = field(init=False, repr=False)
    #: the prices where _recourse_start's regimes end: min s, then min s + min c
    regime_prices: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("production_costs", "shipment_costs", "slope_intervals",
                     "intercept_intervals"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.factories < 1 or self.stores < 1:
            raise ValueError("needs at least one factory and one store")
        if self.production_costs.shape != (self.factories,):
            raise ValueError("production_costs must have one entry per factory")
        if self.shipment_costs.shape != (self.factories, self.stores):
            raise ValueError("shipment_costs must be factories x stores")
        if np.any(self.slope_intervals >= 0):
            raise ValueError("slope intervals must be strictly negative")
        if np.any(self.intercept_intervals <= 0):
            raise ValueError("intercept intervals must be positive")
        for intervals in (self.slope_intervals, self.intercept_intervals):
            if not np.all(intervals[:, 0] < intervals[:, 1]):
                raise ValueError("each interval's lower end must lie below its upper end")
        object.__setattr__(self, "recourse", _recourse_problem(self))
        object.__setattr__(self, "crash_starts", _crash_starts(self))
        ship = float(self.shipment_costs.min())
        object.__setattr__(self, "regime_prices",
                           (ship, ship + float(self.production_costs.min())))


def build_pps_instance() -> PpsInstance:
    """The five-factory five-store instance with the reference data."""
    return PpsInstance(
        factories=5,
        stores=5,
        first_stage_cost=4.2,
        production_costs=np.array([2.2, 3.2, 3.3, 4.2, 2.4]),
        shipment_costs=np.full((5, 5), 2.0),
        demand_slope0=-1.0,
        demand_intercept0=12.0,
        slope_intervals=np.array([[-1.5, -0.5], [-2.0, -1.0], [-2.5, -1.5],
                                  [-3.0, -2.0], [-2.5, -1.5]]),
        intercept_intervals=np.array([[16.0, 17.0], [21.0, 22.0], [26.0, 27.0],
                                      [31.0, 32.0], [26.0, 27.0]]),
    )


def _truncated_normal(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray,
                      count: int, *, mean: np.ndarray = None,
                      sigma: np.ndarray = None) -> np.ndarray:
    """Rejection sampling, vectorized over `count` draws per interval.

    lo/hi have shape (m,); returns a new (count, m) array whose column j lies
    in [lo[j], hi[j]].  mean and sigma, the midpoint and width/4 of each
    interval, may be given precomputed.  Round one draws one (count, m)
    block of standard normals z and forms mean + sigma * z.  Each later round
    draws exactly one normal per entry still pending, in row-major order,
    forms mean[j] + sigma[j] * z for that entry's column j, and writes back
    only the accepted values.  Each entry is thus drawn by exact rejection
    from its own truncated normal; a nan draw is rejected.  Acceptance is
    about 95.4% per attempt (2-sigma window), so a handful of rounds
    suffice; exhausting the hard cap means a broken generator and raises,
    naming the interval of the first entry still pending.
    """
    if mean is None:
        mean, sigma = 0.5 * (lo + hi), (hi - lo) / 4.0
    out = mean + sigma * rng.standard_normal((count, lo.size))
    flat = out.reshape(-1)  # a view: out is new and contiguous
    pending = np.flatnonzero(~((out >= lo) & (out <= hi)))  # a nan is rejected too
    rounds = 1
    while pending.size:
        column = pending % lo.size
        if rounds == _MAX_REJECTION_ROUNDS:
            a, b = float(lo[column[0]]), float(hi[column[0]])
            raise RuntimeError(f"truncated-normal rejection sampling on [{a!r}, {b!r}] "
                               f"accepted no draw in {_MAX_REJECTION_ROUNDS} rounds")
        draw = mean[column] + sigma[column] * rng.standard_normal(pending.size)
        ok = (draw >= lo[column]) & (draw <= hi[column])
        flat[pending[ok]] = draw[ok]
        pending = pending[~ok]
        rounds += 1
    return out


def split_scenarios(instance: PpsInstance, scenarios: np.ndarray) -> tuple:
    """(slopes, intercepts) views of a scenario batch, or of one scenario row."""
    return scenarios[..., :instance.stores], scenarios[..., instance.stores:]


def scenario_sampler(instance: PpsInstance):
    """Sampler callback: (rng, count) -> array of shape (count, 2*stores).

    One _truncated_normal call draws every column: the slopes' intervals,
    then the intercepts'."""
    lo, hi = np.ascontiguousarray(
        np.vstack([instance.slope_intervals, instance.intercept_intervals]).T)
    mean, sigma = 0.5 * (lo + hi), (hi - lo) / 4.0

    def sample(rng: np.random.Generator, count: int):
        return _truncated_normal(rng, lo, hi, count, mean=mean, sigma=sigma)

    return sample


def first_stage_set(instance: PpsInstance) -> BoxPolyhedron:
    """x >= quantity_floor, p in price_bounds, x <= slope0*p + intercept0."""
    p_lo, p_hi = instance.price_bounds
    # slope0 < 0, so the demand line caps x most loosely at the lowest price
    x_hi = instance.demand_slope0 * p_lo + instance.demand_intercept0
    return BoxPolyhedron(
        lower=np.array([instance.quantity_floor, p_lo]),
        upper=np.array([x_hi, p_hi]),
        ineq_matrix=np.array([[1.0, -instance.demand_slope0]]),
        ineq_rhs=np.array([instance.demand_intercept0]),
    )


def _recourse_problem(instance: PpsInstance) -> lp.LpProblem:
    """The recourse LP's rows and bounds, built and checked once per instance.

    Variables are (y, z-flattened); the rows, independent of price and
    scenario, are the demand rows, then the capacity rows.  Its cost is the
    one at p = 0 and its right-hand side is zero: recourse_lp sets both per
    price.  The problem is immutable, so sharing it keeps the oracle a pure
    function of (x, batch).
    """
    m, n = instance.factories, instance.stores
    demand = np.hstack([np.zeros((n, m)), np.tile(np.eye(n), m)])  # sum_i z_ij
    capacity = np.hstack([np.diag(np.full(m, -1.0)),                  # sum_j z_ij - y_i
                          np.kron(np.eye(m), np.ones((1, n)))])
    return lp.LpProblem(cost=_recourse_cost(instance, 0.0),
                        ineq_matrix=np.vstack([demand, capacity]),
                        ineq_rhs=np.zeros(n + m),
                        lower=np.concatenate([np.full(m, instance.quantity_floor),
                                              np.zeros(m * n)]),
                        upper=np.full(m + m * n, np.inf))


def _recourse_cost(instance: PpsInstance, p: float) -> np.ndarray:
    """Production costs, then the shipment costs less the price."""
    return np.concatenate([instance.production_costs,
                           (instance.shipment_costs - p).ravel()])


def _recourse_rhs(instance: PpsInstance, p: float, scenarios: np.ndarray) -> np.ndarray:
    """Recourse right-hand sides at price p: demand caps, then zeros for the
    capacity rows; one row per scenario (a 1-D scenario gives a 1-D rhs)."""
    slopes, intercepts = split_scenarios(instance, scenarios)
    rhs = np.zeros(scenarios.shape[:-1] + (instance.stores + instance.factories,))
    np.add(slopes * p, intercepts, out=rhs[..., :instance.stores])
    return rhs


def _recourse_start(instance: PpsInstance, p: float, demand: np.ndarray) -> tuple:
    """The checked crash start for the recourse LPs of a batch at price p,
    as its held (Start, shipped-variable mask) pair.

    demand has shape (batch, stores).  The rule is the optimal policy for
    uniform shipment costs s and production costs c (the three regimes of
    the closed form):

    - p <= min s: nothing ships, and the slack basis is optimal.
    - up to min s + min c: each factory ships its floor production to store
      j*; the demand slacks and those floor units are basic.
    - above it: the cheapest factory k makes and ships the rest.  Its
      production y_k and its shipments z_kj are basic, with the other
      factories' floor units to j*.

    j* is the store whose smallest demand in the batch is largest, so one
    basis fits every row whose demand covers the floor units.  The pair is
    one of instance.crash_starts, checked once, and the regime ends are
    instance.regime_prices, computed once.  With non-uniform shipment costs
    the rule is only a guess, which the simplex finishes from.
    """
    no_shipping, floor_only = instance.regime_prices
    if p <= no_shipping:
        return instance.crash_starts[0]
    # numpy reduces a narrow block much faster along rows than down columns
    j_star = int(np.ascontiguousarray(demand.T).min(axis=1).argmax())
    regime = 1 if p <= floor_only else 2
    return instance.crash_starts[regime][j_star]


def _crash_starts(instance: PpsInstance) -> tuple:
    """(lp.Start, mask) pairs of the crash bases of _recourse_start: the slack
    basis, then by j* floor units and top-up.  Basis positions follow the rows
    (demand, capacity); the mask is _shipped of the basis, read-only float64."""
    def start(basis):
        checked = lp.check_start(instance.recourse, (basis, ()))
        return checked, _frozen(_shipped(instance, checked.basis))

    m, n = instance.factories, instance.stores
    k = int(instance.production_costs.argmin())
    slacks, floor, top_up = m + m * n + np.arange(n + m), [], []
    for j_star in range(n):
        floor_units = m + np.arange(m) * n + j_star
        topped = m + k * n + np.arange(n)  # z_kj
        topped[j_star] = k                 # y_k: z_kj* is already a floor unit
        floor.append(start(np.concatenate([slacks[:n], floor_units])))
        top_up.append(start(np.concatenate([topped, floor_units])))
    return start(slacks), tuple(floor), tuple(top_up)


def _shipped(instance: PpsInstance, basis: np.ndarray) -> np.ndarray:
    """True at each position of a recourse basis that holds a shipment z_ij."""
    return (basis >= instance.factories) & (basis < instance.recourse.n_vars)


def recourse_lp(instance: PpsInstance, p: float, scenarios: np.ndarray) -> tuple:
    """Recourse values and their p-derivatives for a batch, by linear programming.

    At one price every scenario's recourse LP has the same cost, rows and
    bounds, so lp.solve_lp_multi_rhs serves the batch from a few optimal
    bases; only the cost and the right-hand sides are built per call, on
    instance.recourse.  The cost is built once, as a view of its column
    cost; a price that makes it non-finite raises ValueError("cost
    must be finite").  The batch starts from the immutable crash start that
    _recourse_start picks for p and this batch's demands; when that start
    fits every row and prices optimal it serves the whole batch, and else
    each cold solve starts from it.  The p-derivative comes from the
    envelope theorem: the z part of the cost vector has derivative -1 per
    unit shipped, and the demand right-hand sides have derivative slope_j,
    weighted by their duals; both terms are read per basis of the batch
    (shipped totals from the basic values, through the start's held mask
    when the start serves the batch).  Returns two (batch,) arrays; raises
    RuntimeError naming the first scenario whose LP is not solved to
    optimality.
    """
    # the cost over the LP's columns at p = 0, with p taken off each shipment
    # cost: _recourse_cost, then a zero per slack
    q = instance.recourse.n_vars
    cost = instance.recourse.column_cost.copy()
    shipments = cost[instance.factories:q]
    shipments -= p
    # at p >= 0 only the cheapest shipment's s - p can overflow; a nan or a
    # negative price is checked on the whole cost
    if not (math.isfinite(instance.regime_prices[0] - p) if p >= 0
            else np.isfinite(shipments).all()):
        raise ValueError("cost must be finite")
    cost.flags.writeable = False
    problem = instance.recourse._with(cost=cost[:q], column_cost=cost)
    rhs = _recourse_rhs(instance, p, scenarios)
    start, mask = _recourse_start(instance, p, rhs[:, :instance.stores])
    sol = lp.solve_lp_multi_rhs(problem, rhs, start)
    n = instance.stores
    slopes, _ = split_scenarios(instance, scenarios)
    # no recourse variable has a finite upper bound, so a nonbasic shipment
    # ships 0 and a basic one its value; ndarray.dot is @ with less overhead
    if len(sol.solves) == 1 and sol.solves[0].basis is start.basis:  # an optimal start
        return sol.objective, -sol.xb.dot(mask) - slopes.dot(sol.solves[0].duals[:n])
    dr_dp = np.empty(len(rhs))
    for g, solve in enumerate(sol.solves):
        if solve.status is not lp.LpStatus.OPTIMAL:  # solves go in row order
            raise RuntimeError(f"second-stage LP of scenario {int((sol.group == g).argmax())} "
                               f"ended {solve.status.value}")
        rows = slice(None) if len(sol.solves) == 1 else sol.group == g
        shipped = sol.xb[rows].dot(_shipped(instance, solve.basis))
        dr_dp[rows] = -shipped - slopes[rows].dot(solve.duals[:n])
    return sol.objective, dr_dp


def pps_oracle(instance: PpsInstance, first_stage, scenarios: np.ndarray) -> tuple:
    """Sampled total objectives (N,) and subgradients over (x, p), (N, 2)."""
    x, p = float(first_stage[0]), float(first_stage[1])
    recourse, dr_dp = recourse_lp(instance, p, scenarios)
    grads = np.empty((len(scenarios), 2))
    grads[:, 0] = instance.first_stage_cost - p
    np.add(-x, dr_dp, out=grads[:, 1])
    return np.add((instance.first_stage_cost - p) * x, recourse, out=recourse), grads


def build_pps_problem() -> ConstrainedStochasticProblem:
    """Assemble the full stochastic problem around the reference instance."""
    instance = build_pps_instance()

    def oracle(point, scenarios):
        # looked up per call, so a wrapper installed later sees every call
        return pps_oracle(instance, point, scenarios)

    return ConstrainedStochasticProblem(
        dimension=2,
        scenario_sampler=scenario_sampler(instance),
        oracle=oracle,
        set=first_stage_set(instance),
        rho_estimate=RHO_ESTIMATE,
        lipschitz_h=0.0,
    )


#: the reference start point for benchmark runs
X0 = np.array([1.5, 1.5])
