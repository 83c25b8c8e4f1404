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

from dataclasses import dataclass

import numpy as np

from .. import lp
from ..model import ConstrainedStochasticProblem
from ..qp import BoxPolyhedron

#: each round accepts about 95.4% of the pending draws, so the cap is never reached
_MAX_REJECTION_ROUNDS = 10 ** 4

#: weak-convexity modulus estimate used for this benchmark's runs; together
#: with eta_alpha = 1.5 it makes the reference curvature alpha0 = 15 admissible
RHO_ESTIMATE = 10.0


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

    def __post_init__(self):
        object.__setattr__(self, "production_costs",
                           np.asarray(self.production_costs, dtype=float))
        object.__setattr__(self, "shipment_costs",
                           np.asarray(self.shipment_costs, dtype=float))
        object.__setattr__(self, "slope_intervals",
                           np.asarray(self.slope_intervals, dtype=float))
        object.__setattr__(self, "intercept_intervals",
                           np.asarray(self.intercept_intervals, dtype=float))
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
    slope_lo = instance.slope_intervals[:, 0]
    slope_hi = instance.slope_intervals[:, 1]
    int_lo = instance.intercept_intervals[:, 0]
    int_hi = instance.intercept_intervals[:, 1]

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


def _recourse_rows(instance: PpsInstance) -> np.ndarray:
    """Constraint rows of the recourse LP; independent of price and scenario."""
    m, n = instance.factories, instance.stores
    rows = np.zeros((n + m, m + m * n))
    for j in range(n):
        rows[j, m + j::n] = 1.0            # sum_i z_ij
    for i in range(m):
        rows[n + i, m + i * n: m + (i + 1) * n] = 1.0
        rows[n + i, i] = -1.0              # sum_j z_ij - y_i
    return rows


def recourse_template(instance: PpsInstance) -> lp.LpProblem:
    """The recourse LP's rows and bounds, built and checked once per instance.

    Variables are (y, z-flattened).  Its cost is the one at p = 0 and its
    right-hand side is zero: recourse_lp sets both per price.  The problem
    is immutable, so sharing it keeps the oracle a pure function of
    (x, batch).
    """
    m, n = instance.factories, instance.stores
    nz = m * n
    return lp.LpProblem(cost=_recourse_cost(instance, 0.0),
                        ineq_matrix=_recourse_rows(instance),
                        ineq_rhs=np.zeros(n + m),
                        lower=np.concatenate([np.full(m, instance.quantity_floor),
                                              np.zeros(nz)]),
                        upper=np.full(m + nz, np.inf))


def _recourse_cost(instance: PpsInstance, p: float) -> np.ndarray:
    """Production costs, then the shipment costs less the price."""
    return np.concatenate([instance.production_costs,
                           (instance.shipment_costs - p).ravel()])


def _recourse_rhs(instance: PpsInstance, p: float, scenarios: np.ndarray) -> np.ndarray:
    """Recourse right-hand sides at price p: demand caps, then zeros for the
    capacity rows; one row per scenario (a 1-D scenario gives a 1-D rhs)."""
    slopes, intercepts = split_scenarios(instance, scenarios)
    capacity = np.zeros(scenarios.shape[:-1] + (instance.factories,))
    return np.concatenate([slopes * p + intercepts, capacity], axis=-1)


def recourse_lp(instance: PpsInstance, p: float, scenarios: np.ndarray,
                template: lp.LpProblem = None) -> tuple:
    """Recourse values and their p-derivatives for a batch, by linear programming.

    At one price every scenario's recourse LP has the same cost, rows and
    bounds, so lp.solve_lp_multi_rhs serves the batch from a few optimal
    bases; only the cost and the right-hand sides are built per call.  The
    p-derivative comes from the envelope theorem: the z part of the cost
    vector has derivative -1 per unit shipped, and the demand right-hand
    sides have derivative slope_j, weighted by their duals.
    Returns two (batch,) arrays; raises RuntimeError naming the first
    scenario whose LP is not solved to optimality.
    """
    if template is None:
        template = recourse_template(instance)
    problem = template.with_vectors(cost=_recourse_cost(instance, p))
    sol = lp.solve_lp_multi_rhs(problem, _recourse_rhs(instance, p, scenarios))
    failed = np.flatnonzero(sol.status != lp.LpStatus.OPTIMAL)
    if failed.size:
        raise RuntimeError(f"second-stage LP of scenario {failed[0]} ended "
                           f"{sol.status[failed[0]].value}")
    shipped = np.sum(sol.primal[:, instance.factories:], axis=1)
    demand_duals = sol.duals[:, :instance.stores]
    slopes, _ = split_scenarios(instance, scenarios)
    return sol.objective, -shipped - np.einsum("ij,ij->i", demand_duals, slopes)


def pps_oracle(instance: PpsInstance, first_stage, scenarios: np.ndarray,
               template: lp.LpProblem = None) -> tuple:
    """Sampled total objectives (N,) and subgradients over (x, p), (N, 2)."""
    x, p = float(first_stage[0]), float(first_stage[1])
    recourse, dr_dp = recourse_lp(instance, p, scenarios, template=template)
    grads = np.empty((len(scenarios), 2))
    grads[:, 0] = instance.first_stage_cost - p
    grads[:, 1] = -x + dr_dp
    return (instance.first_stage_cost - p) * x + recourse, grads


def build_pps_problem() -> ConstrainedStochasticProblem:
    """Assemble the full stochastic problem around the reference instance."""
    instance = build_pps_instance()
    template = recourse_template(instance)

    def oracle(point, scenarios):
        return pps_oracle(instance, point, scenarios, template=template)

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
