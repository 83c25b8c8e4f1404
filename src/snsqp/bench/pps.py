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
intercepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import lp
from ..model import ConstrainedStochasticProblem
from ..qp import BoxPolyhedron

#: each round accepts about 95.4% of the pending draws, so the cap is never reached
_MAX_REJECTION_ROUNDS = 10 ** 4

#: weak-convexity modulus estimate used for this benchmark's runs; together
#: with eta_alpha = 1.5 it makes the reference curvature ALPHA0 admissible
RHO_ESTIMATE = 10.0

#: the reference curvature alpha0 of benchmark runs
ALPHA0 = 15.0


@dataclass(frozen=True)
class PpsInstance:
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
    recourse: lp.LpProblem = field(init=False, compare=False, repr=False)
    #: the crash starts of _recourse_start on it, each checked once
    crash_starts: tuple = field(init=False, compare=False, repr=False)
    #: the prices where _recourse_start's regimes end: min s, then min s + min c
    regime_prices: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("production_costs", "shipment_costs", "slope_intervals",
                     "intercept_intervals"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
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
                      count: int) -> np.ndarray:
    """Rejection sampling, vectorized over `count` draws per interval.

    lo/hi have shape (m,); the result has shape (count, m).  Acceptance is
    about 95.4% per attempt (2-sigma window), so a handful of rounds suffice;
    exhausting the hard cap means a broken generator and raises.
    """
    mean = 0.5 * (lo + hi)
    sigma = (hi - lo) / 4.0
    out = np.empty((count, lo.size))
    pending = np.ones((count, lo.size), dtype=bool)
    for _ in range(_MAX_REJECTION_ROUNDS):
        draw = mean + sigma * rng.standard_normal((count, lo.size))
        ok = pending & (draw >= lo) & (draw <= hi)
        out[ok] = draw[ok]
        pending &= ~ok
        if not pending.any():
            return out
    a, b = (float(v[pending.any(axis=0)][0]) for v in (lo, hi))
    raise RuntimeError(f"truncated-normal rejection sampling on [{a!r}, {b!r}] "
                       f"accepted no draw in {_MAX_REJECTION_ROUNDS} rounds")


def split_scenarios(instance: PpsInstance, scenarios: np.ndarray) -> tuple:
    """(slopes, intercepts) views of a scenario batch, or of one scenario row."""
    return scenarios[..., :instance.stores], scenarios[..., instance.stores:]


def scenario_sampler(instance: PpsInstance):
    """Sampler callback: (rng, count) -> array of shape (count, 2*stores)."""
    slope_lo, slope_hi = instance.slope_intervals.T
    int_lo, int_hi = instance.intercept_intervals.T

    def sample(rng: np.random.Generator, count: int):
        slopes = _truncated_normal(rng, slope_lo, slope_hi, count)
        intercepts = _truncated_normal(rng, int_lo, int_hi, count)
        return np.hstack([slopes, intercepts])

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
    rhs[..., :instance.stores] = slopes * p + intercepts
    return rhs


def _recourse_start(instance: PpsInstance, p: float, demand: np.ndarray):
    """The checked crash start for the recourse LPs of a batch at price p.

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
    basis fits every row whose demand covers the floor units.  Each start is
    one of instance.crash_starts, checked once, and the regime ends are
    instance.regime_prices, computed once.  With non-uniform shipment
    costs the rule is only a guess, which the simplex finishes from.
    """
    no_shipping, floor_only = instance.regime_prices
    slack, floor, top_up = instance.crash_starts
    if p <= no_shipping:
        return slack
    # numpy reduces a narrow block much faster along rows than down columns
    j_star = int(np.ascontiguousarray(demand.T).min(axis=1).argmax())
    return (floor if p <= floor_only else top_up)[j_star]


def _crash_starts(instance: PpsInstance) -> tuple:
    """lp.Starts of the crash bases of _recourse_start: the slack basis, then by j*
    floor units and top-up.  Basis positions follow the rows (demand, capacity)."""
    def start(basis):
        return lp.check_start(instance.recourse, (basis, ()))

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


def recourse_lp(instance: PpsInstance, p: float, scenarios: np.ndarray) -> tuple:
    """Recourse values and their p-derivatives for a batch, by linear programming.

    At one price every scenario's recourse LP has the same cost, rows and
    bounds, so lp.solve_lp_multi_rhs serves the batch from a few optimal
    bases; only the cost and the right-hand sides are built per call, on
    instance.recourse.  Each cold solve starts from the immutable crash
    start that _recourse_start picks for p and this batch's demands.  The
    p-derivative comes from the envelope theorem: the z part of the cost
    vector has derivative -1 per unit shipped, and the demand right-hand
    sides have derivative slope_j, weighted by their duals; both terms are
    read per basis of the batch (shipped totals from the basic values).
    Returns two (batch,) arrays; raises RuntimeError naming the first
    scenario whose LP is not solved to optimality.
    """
    problem = instance.recourse.with_vectors(cost=_recourse_cost(instance, p))
    rhs = _recourse_rhs(instance, p, scenarios)
    start = _recourse_start(instance, p, rhs[:, :instance.stores])
    sol = lp.solve_lp_multi_rhs(problem, rhs, start)
    m, n = instance.factories, instance.stores
    slopes, _ = split_scenarios(instance, scenarios)
    dr_dp = np.empty(len(rhs))
    for g, solve in enumerate(sol.solves):
        if solve.status is not lp.LpStatus.OPTIMAL:  # solves go in row order
            raise RuntimeError(f"second-stage LP of scenario {int((sol.group == g).argmax())} "
                               f"ended {solve.status.value}")
        rows = slice(None) if len(sol.solves) == 1 else sol.group == g
        # no recourse variable has a finite upper bound, so a nonbasic
        # shipment ships 0 and a basic one its value
        shipped = sol.xb[rows] @ ((solve.basis >= m) & (solve.basis < problem.n_vars))
        dr_dp[rows] = -shipped - slopes[rows] @ solve.duals[:n]
    return sol.objective, dr_dp


def pps_oracle(instance: PpsInstance, first_stage, scenarios: np.ndarray) -> tuple:
    """Sampled total objectives (N,) and subgradients over (x, p), (N, 2)."""
    x, p = float(first_stage[0]), float(first_stage[1])
    recourse, dr_dp = recourse_lp(instance, p, scenarios)
    grads = np.empty((len(scenarios), 2))
    grads[:, 0] = instance.first_stage_cost - p
    grads[:, 1] = -x + dr_dp
    return (instance.first_stage_cost - p) * x + recourse, grads


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
