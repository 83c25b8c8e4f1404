"""The two solver loops: full-step proximal SQP and the line-search variant.

run_algorithm1 handles problems whose only constraint is the convex set: it
draws a batch, builds the quadratic model, solves the subproblem over the
translated set and takes the full step.  run_algorithm2 adds smooth equality
constraints: the subproblem linearizes them, an l1 merit line search picks
zeta, and the actual step length is beta = min(nu*zeta, nu*(pi + mu)) where
pi is a computable floor on the acceptable step.  The paper allows bounded
schedules nu_k and mu_k and a curvature alpha_k in [rho, eta_alpha*rho];
this implementation fixes nu_k = 1, mu_k = 0 and alpha_k = alpha0 (clamped
to eta_alpha*rho after the first iteration), so beta = min(zeta, pi).

Both record one trace row per iteration and stop on an oracle-call budget,
an iteration cap, a stall (ten consecutive steps of norm <= 1e-8, counted as
they are taken: a larger step resets the count), a
subproblem that is infeasible or whose solve fails (for example when -g/alpha
overflows), a line search that reaches its cap of halvings, or an oracle
failure (oracle_error: an OracleError out of aggregate, whose message the
trace keeps as error); every stop keeps the records made so far.  The
trace's oracle_calls counts every scenario evaluated, the batch of a failed
last iteration included.  The stochastic objective estimate is carried in
the trace but never used in any decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .model import ConstrainedStochasticProblem, _require_int, merit_value, predicted_decrease
from .qp import QpProblem, QpStatus, _frozen, solve_qp
from .sampling import (
    OracleError,
    SamplingStrategy,
    aggregate,
    draw_scenarios,
    next_sample_size,
    scenario_generator,
)

STALL_WINDOW = 10
STALL_TOL = 1e-8
MAX_HALVINGS = 64


@dataclass
class SolverConfig:
    """Run settings shared by both loops.  x0 is kept as a read-only copy, so
    a later write to the caller's array changes neither the config nor what
    a trace without records reports as final_x."""

    x0: np.ndarray
    alpha0: float
    strategy: SamplingStrategy
    budget: int
    master_seed: int = 0
    eta_alpha: float = 1.5
    eta_beta: float = 0.5
    gamma: float = 1.0
    theta0: float = 1.0
    max_iterations: int = 10 ** 6

    def __post_init__(self):
        self.x0 = _frozen(self.x0)
        # written so that NaN and inf fail every test
        if not 0 < self.alpha0 < math.inf:
            raise ValueError("alpha0 must be positive and finite")
        if not 1 < self.eta_alpha < math.inf:
            raise ValueError("eta_alpha must be finite and exceed 1")
        if not 0 < self.eta_beta < 1:
            raise ValueError("eta_beta must lie in (0, 1)")
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 < self.theta0 < math.inf:
            raise ValueError("theta0 must be positive and finite")
        _require_int(budget=self.budget, master_seed=self.master_seed,
                     max_iterations=self.max_iterations)
        if self.budget < 1:
            raise ValueError("budget must be a positive integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")


@dataclass
class IterationRecord:
    """One row per iteration; x is the iterate AFTER the step of iteration k,
    while objective_estimate and merit are evaluated at the pre-step point
    (they reuse the batch that produced the direction)."""

    k: int
    x: np.ndarray
    step_norm: float
    pred_decrease: float
    zeta: float
    beta: float
    alpha: float
    theta: float
    batch_size: int
    oracle_calls: int
    merit: float
    objective_estimate: float
    stationarity: float = math.nan
    # extra fields for tests and diagnostics, not part of the CSV contract
    direction: np.ndarray = None
    eq_multipliers: np.ndarray = None
    pi: float = 1.0
    backtracks: int = 0


@dataclass
class IterationTrace:
    records: List[IterationRecord] = field(default_factory=list)
    stop_reason: str = ""
    problem: ConstrainedStochasticProblem = None
    config: SolverConfig = None
    # scenarios evaluated, including the batch of a failed last iteration
    oracle_calls: int = 0
    # the message of the OracleError that ended an oracle_error run
    error: str = ""

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x if self.records else self.config.x0


def update_theta(theta_prev: float, lam: np.ndarray, gamma: float) -> float:
    """Penalty update: never decreases, always dominates |lam|_inf + gamma."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    # np.max is this reduction behind a Python wrapper: the same bits
    lam_norm = float(np.maximum.reduce(np.abs(lam), axis=None)) if np.size(lam) else 0.0
    return max(theta_prev, lam_norm + gamma)


def compute_pi(eta_beta: float, alpha: float, h: float, theta: float, m: int) -> float:
    """Step-length floor: the largest power of 1/2 at most eta_beta*alpha/(h*theta*m).

    h = 0 (or m = 0) makes the ratio infinite and the floor is 1.  A ratio
    that is 0, as when h*theta*m overflows, gives 0; a subnormal ratio gives
    its own power of 1/2.
    """
    if h == 0.0 or m == 0:
        return 1.0
    ratio = eta_beta * alpha / (h * theta * m)
    if ratio >= 1.0:
        return 1.0
    if not ratio > 0.0:
        return 0.0
    # ratio lies in [2**(e-1), 2**e) for e = frexp(ratio)[1], exactly
    return math.ldexp(0.5, math.frexp(ratio)[1])


def line_search(problem: ConstrainedStochasticProblem, x: np.ndarray, c_x: np.ndarray,
                d: np.ndarray, lam: np.ndarray, theta: float, alpha: float,
                eta_beta: float) -> tuple:
    """Largest zeta in {1, 1/2, 1/4, ...} with acceptable merit-slope decrease.

    c_x is problem.eq_constraints(x)[0], which the caller has already
    evaluated.  The acceptance inequality compares the guaranteed linearized
    reduction of theta*|c|_1 against its actual value at x + zeta*d, with
    slack (eta_beta*alpha/2)*zeta*|d|^2.  Termination within ceil(log2(1/pi)) + 1
    halvings is guaranteed when rho/H estimates are honest.  Past the cap of
    MAX_HALVINGS halvings, a sign that rho_estimate or lipschitz_h is
    underestimated, it returns (None, MAX_HALVINGS + 1): every trial rejected.
    """
    # np.sum is this reduction behind a Python wrapper: the same bits
    c_norm = float(np.add.reduce(np.abs(c_x), axis=None))
    lam_c = abs(float(lam @ c_x))
    d_sq = float(d @ d)
    zeta = 1.0
    for backtracks in range(MAX_HALVINGS + 1):
        c_trial, _ = problem.eq_constraints(x + zeta * d)
        lhs = theta * c_norm - zeta * lam_c
        rhs = (theta * float(np.add.reduce(np.abs(c_trial), axis=None))
               - 0.5 * eta_beta * alpha * zeta * d_sq)
        if lhs >= rhs:
            return zeta, backtracks
        zeta *= 0.5
    return None, MAX_HALVINGS + 1


def run_algorithm1(problem: ConstrainedStochasticProblem,
                   config: SolverConfig) -> IterationTrace:
    """Full-step loop for problems with no equality constraints."""
    if problem.eq_constraints is not None:
        raise ValueError("problem has equality constraints; use run_algorithm2")
    return _run(problem, config, with_equalities=False)


def run_algorithm2(problem: ConstrainedStochasticProblem,
                   config: SolverConfig) -> IterationTrace:
    """Line-search loop for problems with smooth equality constraints."""
    if problem.eq_constraints is None:
        raise ValueError("problem has no equality constraints; use run_algorithm1")
    return _run(problem, config, with_equalities=True)


def _run(problem, config, with_equalities):
    rho = problem.rho_estimate
    if not rho <= config.alpha0 <= config.eta_alpha * rho + 1e-12:
        raise ValueError(
            f"alpha0 = {config.alpha0} outside [rho, eta_alpha*rho] = "
            f"[{rho}, {config.eta_alpha * rho}]")
    x0 = np.asarray(config.x0, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ValueError("x0 dimension does not match the problem")
    if not problem.set.membership(x0):
        raise ValueError("x0 lies outside the feasible set")

    x = x0.copy()   # always a member of the feasible set
    alpha, theta = config.alpha0, config.theta0
    sample_size = config.strategy.initial_size()
    oracle_calls = small_steps = 0
    rng = scenario_generator()  # re-keyed by every draw
    trace = IterationTrace(problem=problem, config=config)
    # the constraint count enters the step floor; frozen from the start point
    n_eq = len(problem.eq_constraints(x0)[0]) if with_equalities else 0

    for k in itertools.count(1):
        if oracle_calls >= config.budget:
            trace.stop_reason = "budget"
            break
        if k > config.max_iterations:
            trace.stop_reason = "max_iterations"
            break

        scenarios = draw_scenarios(problem.scenario_sampler, config.master_seed,
                                   k, sample_size, rng)
        oracle_calls += len(scenarios)
        try:
            stats = aggregate(problem, x, scenarios)
        except OracleError as exc:
            trace.stop_reason, trace.error = "oracle_error", str(exc)
            break

        if with_equalities:
            c_val, jac = problem.eq_constraints(x)
        else:
            c_val, jac = None, None
        sub = QpProblem(gradient=stats.mean_subgradient, curvature=alpha,
                        set=problem.set.translate(x),
                        eq_jacobian=jac, eq_residual=c_val)
        sol = solve_qp(sub)
        if sol.status is not QpStatus.OPTIMAL:
            trace.stop_reason = ("subproblem_infeasible" if sol.status is QpStatus.INFEASIBLE
                                 else "subproblem_failed")
            break
        d = sol.step

        if with_equalities:
            theta = update_theta(theta, sol.eq_multipliers, config.gamma)
            zeta, backtracks = line_search(problem, x, c_val, d, sol.eq_multipliers,
                                           theta, alpha, config.eta_beta)
            if zeta is None:
                trace.stop_reason = "line_search_cap"
                break
            pi = compute_pi(config.eta_beta, alpha, problem.lipschitz_h, theta, n_eq)
            beta = min(zeta, pi)
            merit = merit_value(stats.mean_value, c_val, theta)
            theta_col = theta
        else:
            zeta, pi, beta, backtracks = 1.0, 1.0, 1.0, 0
            merit = stats.mean_value
            theta_col = 0.0

        x = x + beta * d
        # kill roundoff drift across the box faces; the step itself is feasible.
        # np.clip's ufunc gives these bits, NaN and signed zeros included
        np.minimum(np.maximum(x, problem.set.lower, out=x), problem.set.upper, out=x)
        step_norm = float(np.linalg.norm(d))

        trace.records.append(IterationRecord(
            k=k, x=x.copy(),
            step_norm=step_norm,
            pred_decrease=predicted_decrease(stats.mean_subgradient, alpha, d),
            zeta=zeta, beta=beta, alpha=alpha, theta=theta_col,
            batch_size=stats.batch_size, oracle_calls=oracle_calls,
            merit=merit, objective_estimate=stats.mean_value,
            direction=d, eq_multipliers=sol.eq_multipliers,  # fresh arrays per solve
            pi=pi, backtracks=backtracks,
        ))

        # the adaptive rule sizes the NEXT batch from this iteration's stats
        sample_size = next_sample_size(config.strategy, stats, alpha,
                                       float(d @ d), k + 1)
        # alpha0 may sit up to 1e-12 above eta_alpha*rho; later iterations do not
        alpha = min(alpha, config.eta_alpha * rho)

        small_steps = small_steps + 1 if step_norm <= STALL_TOL else 0
        if small_steps >= STALL_WINDOW:
            trace.stop_reason = "stall"
            break

    trace.oracle_calls = oracle_calls
    return trace
