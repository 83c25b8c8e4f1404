"""Scenario batches: seeded draws, aggregation, and sample-size schedules.

Batches are reproducible by construction: the stream for iteration k of a run
is a counter-based generator keyed by a 64-bit mix of (master_seed, k), so
the draw does not depend on history, execution order, or worker count.

Three batch-size schedules are provided: a constant size, a polynomial ramp
ceil(k^exponent), and an adaptive rule that grows the batch exactly when the
sample variance of the subgradients overwhelms the model decrease.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import ConstrainedStochasticProblem, _require_int

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
#: smallest batch: the sample variance needs two scenarios
MIN_BATCH = 2


class OracleError(RuntimeError):
    """Raised when the oracle fails or returns a non-finite result on a batch."""


class SampleStats:
    """Batch mean of values/subgradients plus the spread of the subgradients.

    sum_sq_dev is the unnormalized scatter sum |G_i - mean|^2 over the batch;
    dividing by (batch_size - 1) * batch_size estimates the variance of the
    batch mean, which is what the adaptive test compares against.  Only the
    adaptive rule reads it, so aggregate leaves it unset and it is computed
    on first read from the batch's subgradients and their mean.
    """

    __slots__ = ("mean_value", "mean_subgradient", "batch_size", "_sum_sq_dev", "_scatter_of")

    def __init__(self, mean_value: float, mean_subgradient: np.ndarray,
                 sum_sq_dev: float, batch_size: int):
        self.mean_value = mean_value
        self.mean_subgradient = mean_subgradient
        self.batch_size = batch_size
        self._sum_sq_dev = sum_sq_dev
        self._scatter_of = None  # (subgradients, mean) while sum_sq_dev is unset

    @property
    def sum_sq_dev(self) -> float:
        if self._sum_sq_dev is None:
            grads, mean = self._scatter_of
            dev = grads - mean
            self._sum_sq_dev, self._scatter_of = float(np.sum(dev * dev)), None
        return self._sum_sq_dev

    def __repr__(self) -> str:
        return (f"SampleStats(mean_value={self.mean_value!r}, mean_subgradient="
                f"{self.mean_subgradient!r}, sum_sq_dev={self.sum_sq_dev!r}, "
                f"batch_size={self.batch_size!r})")


@dataclass(frozen=True)
class FixedSize:
    size: int

    def __post_init__(self):
        _require_int(size=self.size)
        if self.size < MIN_BATCH:
            raise ValueError(f"batch size must be at least {MIN_BATCH}")

    def initial_size(self) -> int:
        return self.size


@dataclass(frozen=True)
class PolynomialSize:
    """Deterministic ramp: iteration k draws ceil(k^exponent) scenarios,
    clamped to [MIN_BATCH, cap]."""

    exponent: float
    cap: int

    def __post_init__(self):
        if not 0 < self.exponent < math.inf:  # NaN and inf fail too
            raise ValueError("exponent must be positive and finite")
        _require_int(cap=self.cap)
        if not self.cap >= MIN_BATCH:
            raise ValueError(f"requires cap >= {MIN_BATCH}")

    def initial_size(self) -> int:
        return MIN_BATCH


@dataclass(frozen=True)
class AdaptiveSize:
    """Grow the batch when subgradient noise drowns the predicted progress."""

    eta: float
    cap: int

    def __post_init__(self):
        if not 0 < self.eta < math.inf:  # NaN and inf fail too
            raise ValueError("eta must be positive and finite")
        _require_int(cap=self.cap)
        if not self.cap >= MIN_BATCH:
            raise ValueError(f"requires cap >= {MIN_BATCH}")

    def initial_size(self) -> int:
        return MIN_BATCH


SamplingStrategy = Union[FixedSize, PolynomialSize, AdaptiveSize]


def _mix64(z: int) -> int:
    """splitmix64 finalizer; full 64-bit avalanche."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_key(master_seed: int, iteration: int) -> int:
    """128-bit key for the (seed, iteration) scenario stream; a numpy
    integer gives the key of the Python int of the same value."""
    a = _mix64(operator.index(master_seed) & _MASK64)
    b = _mix64(a ^ _mix64(operator.index(iteration) & _MASK64))
    return (a << 64) | b


def draw_scenarios(sampler, master_seed: int, iteration: int, count: int) -> np.ndarray:
    """Draw an i.i.d. batch from the substream owned by (master_seed, iteration).

    The batch is returned read-only, so an oracle cannot change it for a
    later evaluation: the reference batch serves a whole run.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.Generator(np.random.Philox(key=substream_key(master_seed, iteration)))
    batch = sampler(rng, count)
    batch.flags.writeable = False
    return batch


def aggregate(problem: ConstrainedStochasticProblem, x: np.ndarray,
              scenarios: np.ndarray) -> SampleStats:
    """Evaluate the oracle on the batch and reduce in scenario order.

    The oracle is called once for the whole batch.  A failure, or a nan/inf
    in its values or subgradients, raises OracleError naming the first
    scenario index at fault; an oracle that raises is re-run one scenario at
    a time to find it, and the error names the whole batch when none fails
    alone.  Finiteness is one pass over each output array; the per-scenario
    mask is built only when that pass fails.  The scatter is computed on the
    first read of sum_sq_dev, from the subgradient array as the oracle
    returned it.
    """
    n_scen = len(scenarios)
    if n_scen < MIN_BATCH:
        raise ValueError(f"a batch needs at least {MIN_BATCH} scenarios")
    try:
        values, grads = problem.oracle(x, scenarios)
    except Exception as exc:
        index = _first_failure(problem, x, scenarios)
        where = (f"on the batch of {n_scen} scenarios (no scenario fails alone)"
                 if index is None else f"at scenario index {index}")
        raise OracleError(f"oracle failed {where}: {exc}") from exc
    values = np.asarray(values, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if values.shape != (n_scen,) or grads.shape != (n_scen, problem.dimension):
        raise OracleError(f"oracle returned shapes {values.shape} and {grads.shape} "
                          f"for {n_scen} scenarios in dimension {problem.dimension}")
    if not (np.isfinite(values).all() and np.isfinite(grads).all()):
        finite = np.isfinite(values) & np.isfinite(grads).all(axis=1)
        raise OracleError(f"oracle returned a non-finite value or subgradient at "
                          f"scenario index {int(np.argmin(finite))}")
    # np.mean is this sum and division behind a Python wrapper: the same bits
    mean_grad = np.add.reduce(grads, axis=0) / n_scen
    stats = SampleStats(float(np.add.reduce(values) / n_scen), mean_grad, None, n_scen)
    stats._scatter_of = grads, mean_grad
    return stats


def _first_failure(problem, x, scenarios):
    """Index of the first scenario the oracle fails on by itself, or None."""
    for i in range(len(scenarios)):
        try:
            problem.oracle(x, scenarios[i:i + 1])
        except Exception:
            return i
    return None


def variance_test(stats: SampleStats, alpha: float, step_norm_sq: float,
                  eta: float) -> bool:
    """True when the estimated variance of the batch mean is dominated
    by eta * alpha * |step|^2."""
    n = stats.batch_size
    return stats.sum_sq_dev / ((n - 1) * n) <= eta * alpha * step_norm_sq


def next_sample_size(strategy: SamplingStrategy, stats: SampleStats, alpha: float,
                     step_norm_sq: float, iteration: int) -> int:
    """Batch size for the given (1-based) iteration.

    The adaptive rule solves the variance test for the smallest batch that
    would have passed it with the current scatter, so the size it returns is
    never below the current one when the test just failed.
    """
    if isinstance(strategy, FixedSize):
        return strategy.size
    if isinstance(strategy, PolynomialSize):
        try:
            raw = math.ceil(iteration ** strategy.exponent)
        except OverflowError:  # a power past the float range is past any cap
            return strategy.cap
        return min(max(raw, MIN_BATCH), strategy.cap)
    if isinstance(strategy, AdaptiveSize):
        if step_norm_sq == 0.0:
            if stats.sum_sq_dev > 0.0:
                # only exact gradients could pass a zero-step test; take the cap
                logger.warning("adaptive batch: zero step with residual scatter, "
                               "jumping to cap %d", strategy.cap)
            return strategy.cap
        if variance_test(stats, alpha, step_norm_sq, strategy.eta):
            return stats.batch_size
        # a subnormal step can underflow the product to 0.0: past any cap too
        scale = strategy.eta * alpha * step_norm_sq * (stats.batch_size - 1)
        ratio = stats.sum_sq_dev / scale if scale > 0.0 else math.inf
        if not ratio < strategy.cap:  # also an infinite ratio from a tiny step
            return strategy.cap
        return max(math.ceil(ratio), MIN_BATCH)
    raise TypeError(f"unknown sampling strategy: {strategy!r}")
