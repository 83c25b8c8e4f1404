"""Problem definition and the proximal quadratic model of the objective.

A problem bundles the stochastic oracle r(x) = E[R(x, xi)] with its sampled
subgradients, optional smooth equality constraints, the convex feasible set,
and the two scalars the algorithms need: a weak-convexity modulus estimate
(rho_estimate) and a constraint-gradient Lipschitz constant (lipschitz_h).

The oracle works on batches: a batch of N scenarios is an array whose first
axis indexes the scenarios, and one call returns the N sampled values and
the N subgradients at x.

The local model at an iterate is the quadratic
    value_at_center + gradient.d + (curvature/2) |d|^2,
whose minimizer over the translated feasible set is the search direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .qp import BoxPolyhedron

#: oracle signature: (x, scenarios) -> (values of shape (N,), subgradients (N, n))
Oracle = Callable[[np.ndarray, np.ndarray], tuple]
#: sampler signature: (rng, count) -> array of count scenarios along axis 0
Sampler = Callable[[np.random.Generator, int], np.ndarray]
#: equality constraints: x -> (c(x) of length m, jacobian of shape (n, m))
EqConstraints = Callable[[np.ndarray], tuple]


@dataclass(frozen=True)
class ConstrainedStochasticProblem:
    """min E[R(x, xi)] over x in C, subject to c(x) = 0.

    The oracle must be a pure function of (x, scenarios): repeated calls
    with identical arguments return identical results, so runs reproduce
    bitwise wherever they are evaluated.  Row i of its output is a sampled
    value and subgradient for scenario i.  The library only takes len() of
    a batch and slices it along its first axis.
    """

    dimension: int
    scenario_sampler: Sampler
    oracle: Oracle
    set: BoxPolyhedron
    rho_estimate: float
    lipschitz_h: float = 0.0
    eq_constraints: Optional[EqConstraints] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.set.dim != self.dimension:
            raise ValueError("feasible set dimension does not match the problem")
        if not self.rho_estimate > 0:
            raise ValueError("rho_estimate must be positive")
        if self.lipschitz_h < 0:
            raise ValueError("lipschitz_h must be nonnegative")


@dataclass
class LocalModel:
    """Quadratic model of the objective around the current iterate."""

    value_at_center: float
    gradient: np.ndarray
    curvature: float

    def __post_init__(self):
        self.gradient = np.asarray(self.gradient, dtype=float)
        if not self.curvature > 0:
            raise ValueError("curvature must be positive")


def model_value(model: LocalModel, d: np.ndarray) -> float:
    d = np.asarray(d, dtype=float)
    return float(model.value_at_center + model.gradient @ d
                 + 0.5 * model.curvature * (d @ d))


def predicted_decrease(model: LocalModel, d: np.ndarray) -> float:
    """Model decrease for the full step d (positive means the model improves)."""
    d = np.asarray(d, dtype=float)
    return float(-(model.gradient @ d) - 0.5 * model.curvature * (d @ d))


def predicted_decrease_with_step(model: LocalModel, d: np.ndarray, beta: float) -> float:
    """Model decrease for the scaled step beta*d, beta in (0, 1]."""
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    d = np.asarray(d, dtype=float)
    return float(-beta * (model.gradient @ d)
                 - 0.5 * model.curvature * beta * beta * (d @ d))


def merit_value(objective_value: float, c_value: np.ndarray, theta: float) -> float:
    """l1 penalty merit: objective + theta * |c|_1."""
    if not theta > 0:
        raise ValueError("theta must be positive")
    return float(objective_value + theta * np.sum(np.abs(c_value)))


def upper_c2_gap(r_at_x: float, r_at_xd: float, g: np.ndarray, d: np.ndarray) -> float:
    """Linearization excess r(x+d) - r(x) - g.d.

    For an objective that is a pointwise minimum of smooth pieces this is at
    most (rho/2)|d|^2 for every subgradient g at x; tests probe the bound.
    """
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    return float(r_at_xd - r_at_x - g @ d)
