"""Solver loop tests: scalar update rules first, then whole runs.

Whole-run assertions stick to properties that hold deterministically (iterate
feasibility, re-checkable acceptance inequalities, frozen stop reasons) or to
targets computed by an independent brute-force pass in the same test.
"""

import csv
import dataclasses
import itertools
import json
import math
import sys

import numpy as np
import pytest

from snsqp import driver, qp
from snsqp.bench import cli, pps
from snsqp.bench.cli import cli_main
from snsqp.bench.runner import run_id_for, run_single
from snsqp.bench.synthetic import (
    QuadraticPiece,
    SyntheticUc2Spec,
    build_affine_equality_problem,
    build_quadratic_equality_problem,
    build_synthetic_uc2,
    two_piece_crossing_spec,
)
from snsqp.driver import (
    SolverConfig,
    compute_pi,
    line_search,
    run_algorithm1,
    run_algorithm2,
    update_theta,
)
from snsqp.model import ConstrainedStochasticProblem
from snsqp.qp import BoxPolyhedron
from snsqp.sampling import AdaptiveSize, FixedSize

from reference import grid_minimum


class TestUpdateTheta:
    def test_hand_computed(self):
        # max(theta, |lam|_inf + gamma) = max(3, 16 + 1) = 17
        assert update_theta(3.0, np.array([-16.0, 2.0]), 1.0) == pytest.approx(17.0)

    def test_keeps_large_theta(self):
        assert update_theta(40.0, np.array([1.0]), 2.0) == pytest.approx(40.0)

    def test_idempotent(self):
        lam = np.array([5.0, -2.0])
        once = update_theta(1.0, lam, 0.5)
        assert update_theta(once, lam, 0.5) == pytest.approx(once)

    def test_empty_multipliers(self):
        assert update_theta(2.0, np.zeros(0), 1.5) == pytest.approx(2.0)
        assert update_theta(1.0, np.zeros(0), 1.5) == pytest.approx(1.5)

    def test_monotone_in_sequence(self):
        rng = np.random.default_rng(6)
        theta = 1.0
        values = []
        for _ in range(50):
            theta = update_theta(theta, rng.normal(size=3) * 10, 1.0)
            values.append(theta)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            update_theta(1.0, np.array([1.0]), 0.0)


class TestComputePi:
    def test_powers_of_two(self):
        # ratio 0.3 -> ceil(log2(1/0.3)) = 2 -> 1/4
        assert compute_pi(0.3, 1.0, 1.0, 1.0, 1) == pytest.approx(0.25)
        # exact power of two stays put
        assert compute_pi(0.5, 1.0, 1.0, 1.0, 1) == pytest.approx(0.5)
        assert compute_pi(0.125, 1.0, 1.0, 1.0, 1) == pytest.approx(0.125)

    def test_ratio_at_least_one_gives_full_step(self):
        assert compute_pi(0.5, 4.0, 1.0, 1.0, 2) == pytest.approx(1.0)
        assert compute_pi(1.0, 1.0, 1.0, 1.0, 1) == pytest.approx(1.0)

    def test_affine_constraints_give_full_step(self):
        assert compute_pi(0.5, 1.0, 0.0, 100.0, 3) == pytest.approx(1.0)
        assert compute_pi(0.5, 1.0, 5.0, 100.0, 0) == pytest.approx(1.0)

    def test_always_a_reachable_halving(self):
        """pi is a power of 1/2 in (0, 1] and at most the ratio itself."""
        rng = np.random.default_rng(44)
        for _ in range(300):
            eta_beta = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(0.1, 30.0))
            h = float(rng.uniform(0.01, 10.0))
            theta = float(rng.uniform(0.1, 50.0))
            m = int(rng.integers(1, 5))
            pi = compute_pi(eta_beta, alpha, h, theta, m)
            assert 0.0 < pi <= 1.0
            exponent = math.log2(pi)
            assert exponent == pytest.approx(round(exponent), abs=1e-12)
            ratio = eta_beta * alpha / (h * theta * m)
            assert pi <= min(ratio, 1.0) + 1e-15
            assert pi > 0.5 * min(ratio, 1.0) - 1e-15


    def test_a_ratio_one_ulp_below_a_power_of_half_gets_the_next_power(self):
        """The largest power of 1/2 at most the ratio, exactly: 2**-k for
        2**-k itself, 2**-(k+1) one ulp below it.  The power taken from
        log2(1/ratio) rounded to 2**-k, above the ratio, for 996 of these k."""
        for k in range(1, 1000):
            power = math.ldexp(1.0, -k)
            assert compute_pi(power, 1.0, 1.0, 1.0, 1) == power
            assert compute_pi(math.nextafter(power, 0.0), 1.0, 1.0, 1.0, 1) == power / 2

    @pytest.mark.parametrize("args", [(0.5, 1e-300, 1e10, 1.0, 1), (5e-324, 1.0, 1.0, 1.0, 1),
                                      (3e-310, 1.0, 1.0, 1.0, 1)])
    def test_a_subnormal_ratio_gets_its_power_of_half(self, args):
        """1/ratio overflows for a subnormal ratio; the floor is still the
        largest power of 1/2 at most the ratio."""
        eta_beta, alpha, h, theta, m = args
        ratio = eta_beta * alpha / (h * theta * m)
        assert 0.0 < ratio < sys.float_info.min
        pi = compute_pi(*args)
        assert math.frexp(pi)[0] == 0.5 and pi <= ratio < 2 * pi

    def test_an_overflowing_denominator_gives_zero(self):
        """h*theta*m past the float range makes the ratio 0: no step is
        guaranteed, so the floor is 0."""
        assert compute_pi(0.5, 1.0, 1e300, 1e10, 1) == 0.0


class TestUpdateAlpha:
    def test_identity_by_default(self):
        """alpha_k stays at alpha0 in both loops: there is no alpha schedule."""
        runs = [
            (run_algorithm1,
             build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.5),
             SolverConfig(x0=np.array([1.0, 1.0]), alpha0=4.0,
                          strategy=FixedSize(8), budget=800, master_seed=3)),
            (run_algorithm2, build_quadratic_equality_problem(),
             SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                          strategy=FixedSize(10), budget=300, master_seed=4)),
        ]
        for run, problem, config in runs:
            trace = run(problem, config)
            assert trace.records
            for rec in trace.records:
                assert rec.alpha == config.alpha0


class TestLineSearch:
    def test_affine_constraint_accepts_full_step(self):
        """With an affine c the linearized reduction is exact at zeta = 1."""
        problem = build_affine_equality_problem()
        x = np.array([0.5, 1.5])
        c, jac = problem.eq_constraints(x)
        # a direction that satisfies the linearized constraint: c + J'd = 0
        d = np.array([-0.6, -0.4])
        assert abs(c[0] + jac[:, 0] @ d) < 1e-12
        zeta, backtracks = line_search(problem, x, c, d, lam=np.array([0.3]),
                                       theta=2.0, alpha=1.0, eta_beta=0.5)
        assert zeta == pytest.approx(1.0)
        assert backtracks == 0

    def test_halves_until_acceptance(self):
        """A quadratic constraint with a long step forces backtracking."""
        problem = build_quadratic_equality_problem()
        x = np.array([1.0, 0.0])
        c, jac = problem.eq_constraints(x)       # c = 0 at x1 = 1
        d = np.array([-8.0, 0.0])                 # J'd = -16, way past the bend
        zeta, backtracks = line_search(problem, x, c, d, lam=np.array([1.0]),
                                       theta=1.0, alpha=2.0, eta_beta=0.5)
        assert backtracks > 0
        assert zeta == pytest.approx(0.5 ** backtracks)
        # the accepted zeta satisfies the inequality it was tested against
        c_norm = float(np.sum(np.abs(c)))
        lam_c = abs(float(np.array([1.0]) @ c))
        c_trial, _ = problem.eq_constraints(x + zeta * d)
        lhs = 1.0 * c_norm - zeta * lam_c
        rhs = 1.0 * float(np.sum(np.abs(c_trial))) - 0.5 * 0.5 * 2.0 * zeta * float(d @ d)
        assert lhs >= rhs

    def test_zero_direction_accepted_immediately(self):
        problem = build_quadratic_equality_problem()
        x = np.array([1.0, 0.0])
        zeta, backtracks = line_search(problem, x, problem.eq_constraints(x)[0],
                                       np.zeros(2), lam=np.array([0.0]),
                                       theta=1.0, alpha=2.0, eta_beta=0.5)
        assert zeta == pytest.approx(1.0)
        assert backtracks == 0


class TestRunValidation:
    def test_x0_outside_set_rejected(self):
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.0)
        config = SolverConfig(x0=np.array([5.0, 0.0]), alpha0=4.0,
                              strategy=FixedSize(4), budget=100)
        with pytest.raises(ValueError, match="outside the feasible set"):
            run_algorithm1(problem, config)

    def test_alpha0_window_enforced(self):
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.0)
        for alpha0 in (2.0, 7.0):   # window is [4, 6] at eta_alpha = 1.5
            config = SolverConfig(x0=np.zeros(2), alpha0=alpha0,
                                  strategy=FixedSize(4), budget=100)
            with pytest.raises(ValueError, match="alpha0"):
                run_algorithm1(problem, config)

    def test_wrong_loop_for_problem(self):
        plain = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.0)
        constrained = build_affine_equality_problem()
        config = SolverConfig(x0=np.zeros(2), alpha0=4.0,
                              strategy=FixedSize(4), budget=100)
        with pytest.raises(ValueError):
            run_algorithm2(plain, config)
        with pytest.raises(ValueError):
            run_algorithm1(constrained, SolverConfig(
                x0=np.array([0.5, 0.5]), alpha0=1.0,
                strategy=FixedSize(4), budget=100))

    def test_x0_shape_checked(self):
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.0)
        config = SolverConfig(x0=np.zeros(3), alpha0=4.0,
                              strategy=FixedSize(4), budget=100)
        with pytest.raises(ValueError, match="dimension"):
            run_algorithm1(problem, config)

    def test_config_keeps_a_read_only_copy_of_x0(self):
        """A later write to the caller's array changes neither config.x0 nor
        the final_x of a run that ends before its first record."""
        x0 = np.array([0.5, 0.5])
        config = SolverConfig(x0=x0, alpha0=0.25, strategy=FixedSize(2), budget=100)
        trace = run_algorithm1(nan_on_call(1), config)
        assert trace.stop_reason == "oracle_error" and trace.records == []
        x0[:] = 9.0
        np.testing.assert_array_equal(config.x0, [0.5, 0.5])
        np.testing.assert_array_equal(trace.final_x, [0.5, 0.5])
        with pytest.raises(ValueError, match="read-only"):
            config.x0[0] = 1.0

    def test_config_field_validation(self):
        base = dict(x0=np.zeros(2), alpha0=1.0, strategy=FixedSize(4), budget=10)
        with pytest.raises(ValueError):
            SolverConfig(**{**base, "alpha0": 0.0})
        with pytest.raises(ValueError):
            SolverConfig(**{**base, "eta_alpha": 1.0})
        with pytest.raises(ValueError):
            SolverConfig(**{**base, "eta_beta": 1.0})
        with pytest.raises(ValueError):
            SolverConfig(**{**base, "budget": 0})
        with pytest.raises(ValueError, match="max_iterations must be a positive integer"):
            SolverConfig(**{**base, "max_iterations": 0})
        for field in ("alpha0", "eta_alpha", "gamma", "theta0"):
            with pytest.raises(ValueError, match=f"{field} must be .*finite"):
                SolverConfig(**{**base, field: math.inf})

    @pytest.mark.parametrize("field, value", [
        ("budget", 10.5), ("budget", True), ("master_seed", 1.5),
        ("master_seed", False), ("max_iterations", 2.5), ("max_iterations", 3.0),
    ])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        base = dict(x0=np.zeros(2), alpha0=1.0, strategy=FixedSize(4), budget=10)
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            SolverConfig(**{**base, field: value})

    def test_numpy_integer_fields_run_as_python_ints(self):
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.5)
        runs = [run_algorithm1(problem, SolverConfig(
            x0=np.zeros(2), alpha0=4.0, strategy=FixedSize(cast(4)), budget=cast(40),
            master_seed=cast(3), max_iterations=cast(5))) for cast in (int, np.int64)]
        for trace in runs:
            assert trace.stop_reason == "max_iterations" and trace.oracle_calls == 20
        np.testing.assert_array_equal(runs[0].final_x, runs[1].final_x)


def overflow_on_call(call):
    """min E[x.x/8] over [-1, 1]^2, with rho 0.25, whose oracle returns the
    finite gradient 8e307 on its given call only: at alpha = 0.25, -g/alpha
    overflows.  An injected fault, so the oracle is not a pure function."""
    calls = itertools.count(1)

    def oracle(x, xi):
        grad = np.full(2, 8e307) if next(calls) == call else 0.25 * x
        return np.full(len(xi), 0.125 * float(x @ x)), np.tile(grad, (len(xi), 1))

    return ConstrainedStochasticProblem(
        dimension=2, scenario_sampler=lambda rng, count: np.zeros(count),
        oracle=oracle, set=BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
        rho_estimate=0.25)


def nan_on_call(call):
    """The quadratic of overflow_on_call, whose oracle returns a nan value
    for the first scenario on its given call only: an injected fault."""
    calls = itertools.count(1)
    problem = overflow_on_call(0)

    def oracle(x, xi):
        values = np.full(len(xi), 0.125 * float(x @ x))
        if next(calls) == call:
            values[0] = np.nan
        return values, np.tile(0.25 * x, (len(xi), 1))

    return dataclasses.replace(problem, oracle=oracle)


def nan_from_call(call):
    """The quadratic of overflow_on_call, whose oracle returns a nan value
    for the first scenario on every call from its given call on: a fault
    that outlasts the run into the reference fill."""
    calls = itertools.count(1)
    problem = overflow_on_call(0)

    def oracle(x, xi):
        values = np.full(len(xi), 0.125 * float(x @ x))
        if next(calls) >= call:
            values[0] = np.nan
        return values, np.tile(0.25 * x, (len(xi), 1))

    return dataclasses.replace(problem, oracle=oracle)


def unit_slope(upper, **rows):
    """min E[-sum(x)] over [0, upper] and the given rows, with rho 1: at
    alpha 1 every step adds 1 to each coordinate until the set stops it."""
    n = len(upper)
    return ConstrainedStochasticProblem(
        dimension=n, scenario_sampler=lambda rng, count: np.zeros(count),
        oracle=lambda x, xi: (np.full(len(xi), -float(x.sum())), np.full((len(xi), n), -1.0)),
        set=BoxPolyhedron(lower=np.zeros(n), upper=upper, **rows), rho_estimate=1.0)


def scripted_steps(steps):
    """min over [-1, 1] whose k-th subproblem step at alpha 1 is steps[k-1]:
    the oracle returns the gradient -steps[k-1] on its k-th call, wherever x
    is.  It is stateful, so each run needs a fresh problem."""
    script = iter(steps)

    def oracle(x, xi):
        return np.zeros(len(xi)), np.full((len(xi), 1), -next(script))

    return ConstrainedStochasticProblem(
        dimension=1, scenario_sampler=lambda rng, count: np.zeros(count), oracle=oracle,
        set=BoxPolyhedron(lower=[-1.0], upper=[1.0]), rho_estimate=1.0)


class TestStall:
    """The stall stop counts consecutive steps of norm at most STALL_TOL;
    a larger step, even by one ulp, resets the count."""

    SMALL = driver.STALL_TOL
    LARGER = math.nextafter(driver.STALL_TOL, 1.0)

    def run(self, steps):
        config = SolverConfig(x0=np.zeros(1), alpha0=1.0, strategy=FixedSize(2),
                              budget=2 * len(steps))
        trace = run_algorithm1(scripted_steps(steps), config)
        # the script is what the loop took
        assert [rec.step_norm for rec in trace.records] == steps[:len(trace.records)]
        return trace

    def test_fires_on_the_tenth_consecutive_small_step(self):
        trace = self.run([self.LARGER] + [self.SMALL] * 10 + [self.LARGER] * 3)
        assert trace.stop_reason == "stall"
        assert len(trace.records) == 11

    def test_nine_small_steps_do_not_stall(self):
        trace = self.run([self.LARGER] + [self.SMALL] * 9)
        assert trace.stop_reason == "budget"
        assert len(trace.records) == 10

    def test_a_larger_step_resets_the_count(self):
        steps = ([self.SMALL] * 9 + [self.LARGER]) * 3 + [self.SMALL] * 10 + [self.LARGER]
        trace = self.run(steps)
        assert trace.stop_reason == "stall"
        assert len(trace.records) == 40


class TestFullStepLoop:
    def test_deterministic_quadratic_reaches_minimizer(self):
        """One smooth piece, no noise: the loop is exact proximal descent."""
        spec = SyntheticUc2Spec(pieces=[
            QuadraticPiece(offset=0.0, linear=np.array([-2.0, 4.0]),
                           curvature_matrix=2.0 * np.eye(2))])
        problem = build_synthetic_uc2(spec, noise_width=0.0)
        config = SolverConfig(x0=np.zeros(2), alpha0=3.0, strategy=FixedSize(2),
                              budget=10_000, master_seed=1)
        trace = run_algorithm1(problem, config)
        assert trace.stop_reason == "stall"
        # minimizer of the piece: solve 2x = -linear, inside the box
        np.testing.assert_allclose(trace.final_x, [1.0, -2.0], atol=1e-6)
        assert trace.records[-1].step_norm <= 1e-8

    def test_nonsmooth_accumulation_matches_brute_force(self):
        """E[-|x1 - xi|] pushes x1 to a box edge; compare with a grid scan."""

        def sampler(rng, count):
            return rng.uniform(-0.5, 0.5, size=count)

        def oracle(x, xi):
            u = x[0] - xi
            return -np.abs(u), -np.sign(u)[:, None]

        box = BoxPolyhedron(lower=[-1.0], upper=[1.0])
        problem = ConstrainedStochasticProblem(
            dimension=1, scenario_sampler=sampler, oracle=oracle, set=box,
            rho_estimate=1.0)
        config = SolverConfig(x0=np.array([0.1]), alpha0=1.0,
                              strategy=FixedSize(1000), budget=40_000,
                              master_seed=7)
        trace = run_algorithm1(problem, config)

        scenarios = np.linspace(-0.5, 0.5, 4001)

        def true_objective(x):
            return float(np.mean(-np.abs(x[0] - scenarios)))

        best_x, _ = grid_minimum(true_objective, box.lower, box.upper, 401)
        assert abs(abs(trace.final_x[0]) - abs(best_x[0])) <= 0.05

    def test_iterates_stay_feasible_and_rows_consistent(self):
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.5)
        config = SolverConfig(x0=np.array([1.0, 1.0]), alpha0=4.0,
                              strategy=FixedSize(8), budget=800, master_seed=3)
        trace = run_algorithm1(problem, config)
        assert trace.stop_reason in ("budget", "stall")
        prev_calls = 0
        for rec in trace.records:
            assert problem.set.membership(rec.x, tol=1e-9)
            assert rec.batch_size == 8
            assert rec.oracle_calls == prev_calls + 8
            prev_calls = rec.oracle_calls
            assert rec.zeta == 1.0 and rec.beta == 1.0 and rec.pi == 1.0
            assert rec.theta == 0.0
            assert rec.step_norm == pytest.approx(
                float(np.linalg.norm(rec.direction)))
            # full-step model decrease is nonnegative by optimality of d
            assert rec.pred_decrease >= -1e-10

    def test_stop_reasons_distinct(self):
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.3)
        base = dict(x0=np.array([1.0, 1.0]), alpha0=4.0, strategy=FixedSize(4),
                    master_seed=5)
        by_budget = run_algorithm1(problem, SolverConfig(budget=20, **base))
        assert by_budget.stop_reason == "budget"
        assert by_budget.oracle_calls == 20
        by_iters = run_algorithm1(problem, SolverConfig(budget=10 ** 6,
                                                        max_iterations=3, **base))
        assert by_iters.stop_reason == "max_iterations"
        assert len(by_iters.records) == 3

        smooth = build_synthetic_uc2(SyntheticUc2Spec(pieces=[
            QuadraticPiece(offset=0.0, linear=np.array([1.0]),
                           curvature_matrix=np.array([[2.0]]))]),
            noise_width=0.0)
        by_stall = run_algorithm1(smooth, SolverConfig(
            x0=np.array([0.0]), alpha0=3.0, strategy=FixedSize(2),
            budget=10 ** 6, master_seed=1))
        assert by_stall.stop_reason == "stall"

    def test_infeasible_subproblem_stops_cleanly(self):
        """A constraint with zero gradient and nonzero value cannot linearize."""

        def constraints(x):
            return np.array([x[0] ** 2 + 1.0]), np.array([[2.0 * x[0]], [0.0]])

        problem = ConstrainedStochasticProblem(
            dimension=2,
            scenario_sampler=lambda rng, count: np.zeros(count),
            oracle=lambda x, xi: (np.full(len(xi), float(x @ x)),
                                  np.tile(2.0 * x, (len(xi), 1))),
            set=BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
            rho_estimate=2.0, lipschitz_h=2.0, eq_constraints=constraints)
        config = SolverConfig(x0=np.zeros(2), alpha0=2.0, strategy=FixedSize(2),
                              budget=100, master_seed=0)
        trace = run_algorithm2(problem, config)
        assert trace.stop_reason == "subproblem_infeasible"
        assert len(trace.records) == 0

    def test_failed_subproblem_keeps_the_records(self):
        """A finite gradient whose -g/alpha overflows fails the solve; the run
        ends there and keeps every record made before it."""
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=0.25,
                              strategy=FixedSize(2), budget=100, master_seed=0)
        trace = run_algorithm1(overflow_on_call(4), config)
        assert trace.stop_reason == "subproblem_failed"
        assert [rec.k for rec in trace.records] == [1, 2, 3]
        np.testing.assert_array_equal(trace.final_x, [0.0, 0.0])
        # four batches of 2 were evaluated; the last record holds three
        assert trace.oracle_calls == 8
        assert trace.records[-1].oracle_calls == 6

    @pytest.mark.parametrize("setting, value, problem", [
        ("MAX_ITER_PER_ROW", 1, unit_slope([2.5])),
        ("TOL", 0.0, unit_slope([5.0, 5.0], ineq_matrix=[[1.0, 3.0]], ineq_rhs=[11.3])),
    ], ids=["iteration-cap", "certificate"])
    def test_numerical_failure_keeps_the_records(self, monkeypatch, setting, value,
                                                 problem):
        """The third subproblem is the first that meets the set's boundary:
        the upper bound after a pass the cap leaves no room to check, or the
        row with a certificate a roundoff above the zero TOL."""
        config = SolverConfig(x0=np.zeros(problem.dimension), alpha0=1.0,
                              strategy=FixedSize(2), budget=100)
        assert run_algorithm1(problem, config).stop_reason == "stall"
        monkeypatch.setattr(qp, setting, value)
        trace = run_algorithm1(problem, config)
        assert trace.stop_reason == "subproblem_failed"
        assert [rec.k for rec in trace.records] == [1, 2]
        np.testing.assert_array_equal(trace.final_x, np.full(problem.dimension, 2.0))
        assert trace.oracle_calls == 6

    def test_oracle_error_keeps_the_records(self):
        """A nan from the oracle at iteration 3 ends the run as oracle_error
        with the records of iterations 1 and 2, the message of the
        OracleError, and the failed batch counted."""
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=0.25,
                              strategy=FixedSize(2), budget=100, master_seed=0)
        trace = run_algorithm1(nan_on_call(3), config)
        assert trace.stop_reason == "oracle_error"
        assert [rec.k for rec in trace.records] == [1, 2]
        assert "non-finite" in trace.error and "scenario index 0" in trace.error
        assert trace.oracle_calls == 6 and trace.records[-1].oracle_calls == 4
        np.testing.assert_array_equal(trace.final_x, trace.records[-1].x)

    def test_oracle_error_run_writes_csvs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._PROBLEM_BUILDERS, "quadratic-eq",
                            (lambda: nan_on_call(3), 0.25, np.array([0.5, 0.5])))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "quadratic-eq", "strategy": "fixed:2", "budget": 100,
            "out": str(tmp_path), "run_id": "nan"}))
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stop=oracle_error iterations=2 oracle_calls=6 " in out
        assert "error: oracle returned a non-finite value" in out
        with open(tmp_path / "nan_trace.csv", newline="") as fh:
            assert [row["k"] for row in csv.DictReader(fh)] == ["1", "2"]
        with open(tmp_path / "nan_epochs.csv", newline="") as fh:
            assert [row["k"] for row in csv.DictReader(fh)] == ["2"]

    def test_lasting_oracle_error_run_writes_csvs(self, capsys, tmp_path, monkeypatch):
        """An oracle that keeps failing fails the reference fill too: each
        record's stationarity and the final one are nan, and the run still
        writes its CSVs and prints the run's error."""
        monkeypatch.setitem(cli._PROBLEM_BUILDERS, "quadratic-eq",
                            (lambda: nan_from_call(3), 0.25, np.array([0.5, 0.5])))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "quadratic-eq", "strategy": "fixed:2", "budget": 100,
            "out": str(tmp_path), "run_id": "nan"}))
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("stop=oracle_error iterations=2 oracle_calls=6 "
                "final_stationarity=nan") in out
        assert "error: oracle returned a non-finite value or subgradient at " \
               "scenario index 0" in out
        with open(tmp_path / "nan_trace.csv", newline="") as fh:
            assert [(row["k"], row["stationarity"]) for row in csv.DictReader(fh)] == [
                ("1", "nan"), ("2", "nan")]
        with open(tmp_path / "nan_epochs.csv", newline="") as fh:
            assert [row["stationarity"] for row in csv.DictReader(fh)] == ["nan"]

    def test_lasting_recourse_failure_in_a_pps_run_writes_csvs(self, tmp_path,
                                                                monkeypatch):
        """A recourse LP that raises from iteration 3 on fails the reference
        evaluations too: run_single reports nan for the final stationarity
        and objective, and writes the two records with nan stationarity."""
        calls, original = itertools.count(1), pps.recourse_lp

        def failing(instance, p, scenarios):
            if next(calls) >= 3:
                raise RuntimeError("second-stage LP of scenario 0 ended infeasible")
            return original(instance, p, scenarios)

        monkeypatch.setattr(pps, "recourse_lp", failing)
        row = run_single("fixed:10", 0, 2000, 500, tmp_path)
        assert (row["stop_reason"], row["iterations"], row["oracle_calls"]) == (
            "oracle_error", 2, 30)
        assert (row["final_stationarity"], row["final_objective"]) == ("nan", "nan")
        with open(tmp_path / f"{run_id_for('fixed:10', 0)}_trace.csv", newline="") as fh:
            assert [(rec["k"], rec["stationarity"]) for rec in csv.DictReader(fh)] == [
                ("1", "nan"), ("2", "nan")]

    def test_recourse_failure_in_a_pps_run_keeps_the_records(self, tmp_path,
                                                              monkeypatch):
        """A recourse LP that raises at iteration 3 of a PPS run reaches the
        driver as an OracleError; run_single keeps the two records before
        it and writes them."""
        calls, original = itertools.count(1), pps.recourse_lp

        def failing(instance, p, scenarios):
            if next(calls) == 3:
                raise RuntimeError("second-stage LP of scenario 0 ended infeasible")
            return original(instance, p, scenarios)

        monkeypatch.setattr(pps, "recourse_lp", failing)
        row = run_single("fixed:10", 0, 2000, 500, tmp_path)
        assert (row["stop_reason"], row["iterations"], row["oracle_calls"]) == (
            "oracle_error", 2, 30)
        with open(tmp_path / f"{run_id_for('fixed:10', 0)}_trace.csv", newline="") as fh:
            assert [rec["k"] for rec in csv.DictReader(fh)] == ["1", "2"]

    def test_failed_subproblem_run_writes_csvs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._PROBLEM_BUILDERS, "quadratic-eq",
                            (lambda: overflow_on_call(4), 0.25, np.array([0.5, 0.5])))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "quadratic-eq", "strategy": "fixed:2", "budget": 100,
            "out": str(tmp_path), "run_id": "failed"}))
        assert cli_main(["run", str(path)]) == 0
        assert "stop=subproblem_failed iterations=3 oracle_calls=8 " in capsys.readouterr().out
        with open(tmp_path / "failed_trace.csv", newline="") as fh:
            assert [row["k"] for row in csv.DictReader(fh)] == ["1", "2", "3"]
        assert (tmp_path / "failed_epochs.csv").exists()


class TestLineSearchLoop:
    def test_line_search_cap_keeps_the_trace(self, monkeypatch, capsys, tmp_path):
        """Past MAX_HALVINGS the run stops as line_search_cap, keeps the
        records so far and counts the batch spent.  quadratic-eq with
        fixed:10 and seed 0 backtracks at its first iteration, so with no
        halving allowed it stops there with no record and 10 oracle calls."""
        problem = build_quadratic_equality_problem()
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                              strategy=FixedSize(10), budget=1000, master_seed=0)
        assert run_algorithm2(problem, config).records[0].backtracks == 1
        monkeypatch.setattr(driver, "MAX_HALVINGS", 0)
        trace = run_algorithm2(problem, config)
        assert trace.stop_reason == "line_search_cap"
        assert trace.records == [] and trace.oracle_calls == 10
        np.testing.assert_array_equal(trace.final_x, config.x0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "quadratic-eq", "strategy": "fixed:10", "budget": 1000,
            "out": str(tmp_path), "run_id": "capped"}))
        assert cli_main(["run", str(path)]) == 0
        assert "stop=line_search_cap iterations=0 oracle_calls=10 " in capsys.readouterr().out
        with open(tmp_path / "capped_trace.csv", newline="") as fh:
            assert list(csv.DictReader(fh)) == []

    def test_affine_problem_converges_to_constrained_minimizer(self):
        problem = build_affine_equality_problem()
        config = SolverConfig(x0=np.array([0.0, 0.0]), alpha0=1.0,
                              strategy=FixedSize(200), budget=60_000,
                              master_seed=11)
        trace = run_algorithm2(problem, config)
        c_final, _ = problem.eq_constraints(trace.final_x)
        assert float(np.sum(np.abs(c_final))) <= 1e-6
        np.testing.assert_allclose(trace.final_x, [2.0, -1.0], atol=0.05)

    def test_affine_problem_in_other_units_runs_the_same(self):
        """The constraint written 1e6 (x1 + x2 - 1) = 0: the subproblem scales
        its rows, so the run stalls where the unscaled one does, at the
        constrained minimizer (2, -1), and not on a false infeasibility."""
        problem = build_affine_equality_problem()

        def scaled_constraints(x):
            c, jac = problem.eq_constraints(x)
            return 1e6 * c, 1e6 * jac

        config = SolverConfig(x0=np.array([0.0, 0.0]), alpha0=1.0,
                              strategy=FixedSize(10), budget=3_000, master_seed=0)
        base = run_algorithm2(problem, config)
        scaled = run_algorithm2(
            dataclasses.replace(problem, eq_constraints=scaled_constraints), config)
        assert base.stop_reason == scaled.stop_reason == "stall"
        assert len(scaled.records) > 0
        np.testing.assert_allclose(base.final_x, [2.0, -1.0])
        np.testing.assert_allclose(scaled.final_x, base.final_x, rtol=0.0, atol=1e-9)

    def test_quadratic_constraint_run_invariants(self):
        problem = build_quadratic_equality_problem()
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                              strategy=FixedSize(50), budget=8_000,
                              master_seed=2)
        trace = run_algorithm2(problem, config)
        assert len(trace.records) > 10
        thetas = [rec.theta for rec in trace.records]
        assert all(a <= b for a, b in zip(thetas, thetas[1:]))
        for rec in trace.records:
            assert problem.set.membership(rec.x, tol=1e-9)
            # theta dominates the multipliers it was updated with
            lam_norm = float(np.max(np.abs(rec.eq_multipliers)))
            assert rec.theta >= lam_norm + 1.0 - 1e-9
            # beta = min(nu*zeta, nu*(pi + mu)) with nu = 1, mu = 0
            assert rec.beta == pytest.approx(min(rec.zeta, rec.pi))
            assert rec.zeta >= rec.pi - 1e-15
            max_backtracks = math.ceil(math.log2(1.0 / rec.pi)) + 1
            assert rec.backtracks <= max_backtracks
        # the iterates approach the constraint manifold x1 = +-1
        c_final, _ = problem.eq_constraints(trace.final_x)
        assert abs(c_final[0]) <= 1e-6

    def test_theta_sequence_recheck(self):
        """Recompute the penalty recursion from the recorded multipliers."""
        problem = build_quadratic_equality_problem()
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                              strategy=FixedSize(25), budget=2_000,
                              master_seed=9, gamma=1.0, theta0=1.0)
        trace = run_algorithm2(problem, config)
        theta = config.theta0
        for rec in trace.records:
            theta = update_theta(theta, rec.eq_multipliers, config.gamma)
            assert rec.theta == pytest.approx(theta)

    def test_beta_is_min_of_zeta_and_pi(self):
        problem = build_quadratic_equality_problem()
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                              strategy=FixedSize(10), budget=300, master_seed=4)
        trace = run_algorithm2(problem, config)
        for rec in trace.records:
            assert rec.beta == min(rec.zeta, rec.pi)
        assert any(rec.beta < rec.zeta for rec in trace.records)


class TestAdaptiveInsideLoop:
    def test_batch_growth_follows_failed_tests(self):
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.8)
        config = SolverConfig(x0=np.array([1.5, 1.5]), alpha0=4.0,
                              strategy=AdaptiveSize(eta=1.0, cap=500),
                              budget=4_000, master_seed=12)
        trace = run_algorithm1(problem, config)
        sizes = [rec.batch_size for rec in trace.records]
        assert sizes[0] == 2
        assert max(sizes) == 500   # noise eventually dominates the steps
        # each recorded size is reproduced by the sizing rule applied to the
        # previous iteration's statistics, recomputed from its batch at the
        # iterate it was drawn at
        from snsqp.sampling import aggregate, draw_scenarios, next_sample_size
        starts = [config.x0] + [rec.x for rec in trace.records]
        for start, prev, rec in zip(starts, trace.records, trace.records[1:]):
            stats = aggregate(problem, start, draw_scenarios(
                problem.scenario_sampler, config.master_seed, prev.k, prev.batch_size))
            snsq = float(prev.step_norm) ** 2
            expected = next_sample_size(config.strategy, stats, prev.alpha,
                                        snsq, prev.k + 1)
            assert rec.batch_size == expected


def test_pps_iterates_meet_every_row():
    """Each subproblem projects from the current iterate, so row roundoff does
    not build up over a run: every iterate meets every row to a few ulp."""
    problem = pps.build_pps_problem()
    trace = run_algorithm1(problem, SolverConfig(
        x0=pps.X0, alpha0=15.0, strategy=FixedSize(10), budget=2000))
    assert trace.stop_reason == "budget"
    rows, rhs = problem.set.ineq_matrix, problem.set.ineq_rhs
    slack_tol = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(rhs))
    excess = np.array([rows @ rec.x - rhs for rec in trace.records])
    assert np.all(excess <= slack_tol), float(excess.max())
