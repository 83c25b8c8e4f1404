"""Problem definition, model decrease and merit value.

A problem bundles the stochastic oracle r(x) = E[R(x, xi)] with its sampled
subgradients, optional smooth equality constraints, the convex feasible set,
and the two scalars the algorithms need: a weak-convexity modulus estimate
(rho_estimate) and a constraint-gradient Lipschitz constant (lipschitz_h).

The oracle works on batches: a batch of N scenarios is an array whose first
axis indexes the scenarios, and one call returns the N sampled values and
the N subgradients at x.

The local model at an iterate is the quadratic
    value + gradient.d + (curvature/2) |d|^2,
whose minimizer over the translated feasible set is the search direction.
"""

from __future__ import annotations

import math
import numbers
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
        _require_int(dimension=self.dimension)
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.set.dim != self.dimension:
            raise ValueError("feasible set dimension does not match the problem")
        # written so that NaN and inf fail every test
        if not 0 < self.rho_estimate < math.inf:
            raise ValueError("rho_estimate must be positive and finite")
        if not 0 <= self.lipschitz_h < math.inf:
            raise ValueError("lipschitz_h must be nonnegative and finite")


def _require_int(**fields) -> None:
    """Raise ValueError naming the first field that is not an integer; a
    numpy integer is one, a bool or a float of integral value is not."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer")


def predicted_decrease(gradient: np.ndarray, curvature: float, d: np.ndarray) -> float:
    """Model decrease for the full step d (positive means the model improves).

    d.d is ndarray.dot, the BLAS product with less call overhead than
    matmul; g.d stays matmul, which for one entry can give an exact zero
    the other sign than ndarray.dot.
    """
    return float(-(gradient @ d) - 0.5 * curvature * d.dot(d))


def merit_value(objective_value: float, c_value: np.ndarray, theta: float) -> float:
    """l1 penalty merit: objective + theta * |c|_1."""
    if not theta > 0:
        raise ValueError("theta must be positive")
    # np.sum is this reduction behind a Python wrapper: the same bits
    return float(objective_value + theta * np.add.reduce(np.abs(c_value), axis=None))

