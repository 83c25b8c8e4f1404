"""Scenario streams, batch aggregation and the three batch-size schedules.

The stream tests pin down bitwise reproducibility (counter-based generator
keyed by (seed, iteration)); the schedule tests freeze small hand-computed
cases of the adaptive growth rule.
"""

import logging
import math

import numpy as np
import pytest

from snsqp.model import ConstrainedStochasticProblem
from snsqp.qp import BoxPolyhedron
from snsqp.sampling import (
    AdaptiveSize,
    FixedSize,
    MIN_BATCH,
    OracleError,
    PolynomialSize,
    SampleStats,
    aggregate,
    draw_scenarios,
    next_sample_size,
    substream_key,
    variance_test,
)


def uniform_sampler(rng, count):
    return rng.uniform(-1.0, 1.0, size=(count, 3))


def batched(per_scenario):
    """Lift a per-scenario (value, subgradient) function to the batch oracle."""

    def oracle(x, scenarios):
        pairs = [per_scenario(x, xi) for xi in scenarios]
        return (np.array([value for value, _ in pairs]),
                np.array([grad for _, grad in pairs]))

    return oracle


def toy_problem(per_scenario):
    return ConstrainedStochasticProblem(
        dimension=2,
        scenario_sampler=lambda rng, count: np.arange(count),
        oracle=batched(per_scenario),
        set=BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
        rho_estimate=1.0,
    )


class TestScenarioStreams:
    def test_bitwise_reproducible(self):
        a = draw_scenarios(uniform_sampler, master_seed=42, iteration=7, count=64)
        b = draw_scenarios(uniform_sampler, master_seed=42, iteration=7, count=64)
        assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_iterations_get_distinct_streams(self):
        a = draw_scenarios(uniform_sampler, master_seed=42, iteration=7, count=16)
        b = draw_scenarios(uniform_sampler, master_seed=42, iteration=8, count=16)
        assert not np.array_equal(np.asarray(a), np.asarray(b))

    def test_seeds_get_distinct_streams(self):
        a = draw_scenarios(uniform_sampler, master_seed=0, iteration=1, count=16)
        b = draw_scenarios(uniform_sampler, master_seed=1, iteration=1, count=16)
        assert not np.array_equal(np.asarray(a), np.asarray(b))

    def test_stream_independent_of_history(self):
        """Iteration k's batch does not depend on having drawn 1..k-1."""
        direct = draw_scenarios(uniform_sampler, master_seed=3, iteration=5,
                                count=32)
        for k in range(1, 5):
            draw_scenarios(uniform_sampler, master_seed=3, iteration=k, count=11)
        replay = draw_scenarios(uniform_sampler, master_seed=3, iteration=5,
                                count=32)
        assert np.array_equal(np.asarray(direct), np.asarray(replay))

    def test_substream_keys_distinct(self):
        keys = {substream_key(seed, k) for seed in range(20) for k in range(200)}
        assert len(keys) == 20 * 200
        assert all(0 <= key < (1 << 128) for key in keys)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            draw_scenarios(uniform_sampler, master_seed=0, iteration=1, count=0)


class TestAggregate:
    def test_identical_scenarios_have_zero_scatter(self):
        problem = toy_problem(lambda x, xi: (1.5, np.array([2.0, -1.0])))
        stats = aggregate(problem, np.zeros(2), np.zeros(4))
        assert stats.mean_value == pytest.approx(1.5)
        np.testing.assert_allclose(stats.mean_subgradient, [2.0, -1.0])
        assert stats.sum_sq_dev == pytest.approx(0.0)
        assert stats.batch_size == 4

    def test_two_point_batch_by_hand(self):
        # grads (0,0) and (2,0): mean (1,0), deviations (-1,0),(1,0), scatter 2
        problem = toy_problem(
            lambda x, xi: (float(xi), np.array([float(xi), 0.0])))
        stats = aggregate(problem, np.zeros(2), np.array([0.0, 2.0]))
        np.testing.assert_allclose(stats.mean_subgradient, [1.0, 0.0])
        assert stats.sum_sq_dev == pytest.approx(2.0)
        assert stats.mean_value == pytest.approx(1.0)

    def test_order_independent_mean(self):
        problem = toy_problem(
            lambda x, xi: (float(xi), np.array([float(xi), float(xi) ** 2])))
        batch = np.array([0.5, -1.0, 2.0, 0.25])
        a = aggregate(problem, np.zeros(2), batch)
        b = aggregate(problem, np.zeros(2), batch[::-1])
        np.testing.assert_allclose(a.mean_subgradient, b.mean_subgradient,
                                   atol=1e-15)
        assert a.sum_sq_dev == pytest.approx(b.sum_sq_dev, abs=1e-12)

    def test_failure_names_scenario_index(self):
        def oracle(x, xi):
            if xi == 3:
                raise FloatingPointError("recourse blew up")
            return 0.0, np.zeros(2)

        problem = toy_problem(oracle)
        with pytest.raises(OracleError, match="scenario index 3"):
            aggregate(problem, np.zeros(2), np.arange(5))

    def test_non_finite_output_names_scenario_index(self):
        def nan_at_2(x, xi):
            return (math.nan if xi == 2 else 0.0), np.zeros(2)

        def inf_grad_at_1(x, xi):
            return 0.0, np.array([math.inf if xi == 1 else 0.0, 0.0])

        with pytest.raises(OracleError, match="non-finite.*scenario index 2"):
            aggregate(toy_problem(nan_at_2), np.zeros(2), np.arange(4))
        with pytest.raises(OracleError, match="non-finite.*scenario index 1"):
            aggregate(toy_problem(inf_grad_at_1), np.zeros(2), np.arange(4))

    def test_one_oracle_call_per_batch(self):
        calls = []

        def oracle(x, scenarios):
            calls.append(len(scenarios))
            return np.zeros(len(scenarios)), np.zeros((len(scenarios), 2))

        problem = ConstrainedStochasticProblem(
            dimension=2, scenario_sampler=lambda rng, count: np.arange(count),
            oracle=oracle, set=BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
            rho_estimate=1.0)
        aggregate(problem, np.zeros(2), np.arange(7))
        assert calls == [7]

    def test_wrong_output_shape_rejected(self):
        problem = toy_problem(lambda x, xi: (0.0, np.zeros(3)))
        with pytest.raises(OracleError, match="shapes"):
            aggregate(problem, np.zeros(2), np.arange(3))

    def test_rejects_tiny_batches(self):
        problem = toy_problem(lambda x, xi: (0.0, np.zeros(2)))
        with pytest.raises(ValueError):
            aggregate(problem, np.zeros(2), np.zeros(1))


class TestVarianceTest:
    def test_hand_computed_cases(self):
        # scatter 90 over 10 scenarios: mean-variance estimate 90/90 = 1.0
        stats = SampleStats(mean_value=0.0, mean_subgradient=np.zeros(2),
                            sum_sq_dev=90.0, batch_size=10)
        assert not variance_test(stats, alpha=1.0, step_norm_sq=0.5, eta=0.5)
        assert variance_test(stats, alpha=4.0, step_norm_sq=0.5, eta=0.5)
        # boundary case counts as a pass
        assert variance_test(stats, alpha=2.0, step_norm_sq=0.5, eta=1.0)

    def test_zero_scatter_always_passes(self):
        stats = SampleStats(mean_value=0.0, mean_subgradient=np.zeros(2),
                            sum_sq_dev=0.0, batch_size=2)
        assert variance_test(stats, alpha=1e-9, step_norm_sq=1e-12, eta=1e-6)


class TestSchedules:
    def test_fixed_is_constant(self):
        strat = FixedSize(size=17)
        assert strat.initial_size() == 17
        stats = SampleStats(0.0, np.zeros(1), 123.0, 17)
        for k in (1, 5, 1000):
            assert next_sample_size(strat, stats, 1.0, 1.0, k) == 17

    def test_polynomial_ramp_values(self):
        strat = PolynomialSize(exponent=1.25, cap=1000)
        stats = SampleStats(0.0, np.zeros(1), 0.0, 2)
        assert strat.initial_size() == 2
        assert next_sample_size(strat, stats, 1.0, 1.0, 1) == 2      # MIN_BATCH
        assert next_sample_size(strat, stats, 1.0, 1.0, 4) == 6      # ceil(4^1.25)
        # 256^1.25 = 1024 runs into the cap
        assert next_sample_size(strat, stats, 1.0, 1.0, 256) == 1000

    def test_polynomial_monotone_until_cap(self):
        strat = PolynomialSize(exponent=1.25, cap=400)
        stats = SampleStats(0.0, np.zeros(1), 0.0, 2)
        sizes = [next_sample_size(strat, stats, 1.0, 1.0, k)
                 for k in range(1, 300)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == 2
        assert sizes[-1] == 400

    def test_adaptive_growth_by_hand(self):
        # failing test with scatter 90, batch 10: smallest passing batch is
        # ceil(90 / (eta alpha |d|^2 (10-1))) = ceil(90 / 4.5) = 20
        strat = AdaptiveSize(eta=1.0, cap=1000)
        stats = SampleStats(0.0, np.zeros(1), 90.0, 10)
        assert next_sample_size(strat, stats, 1.0, 0.5, 30) == 20

    def test_adaptive_keeps_size_on_pass(self):
        strat = AdaptiveSize(eta=1.0, cap=1000)
        stats = SampleStats(0.0, np.zeros(1), 1.0, 50)
        assert next_sample_size(strat, stats, 10.0, 10.0, 4) == 50

    def test_adaptive_never_shrinks_on_fail(self):
        strat = AdaptiveSize(eta=0.7, cap=10_000)
        rng = np.random.default_rng(555)
        for _ in range(300):
            n = int(rng.integers(2, 200))
            ssd = float(rng.uniform(0.1, 50.0))
            alpha = float(rng.uniform(0.1, 10.0))
            snsq = float(rng.uniform(1e-6, 2.0))
            stats = SampleStats(0.0, np.zeros(1), ssd, n)
            nxt = next_sample_size(strat, stats, alpha, snsq, 9)
            if not variance_test(stats, alpha, snsq, strat.eta):
                assert nxt >= n
            assert MIN_BATCH <= nxt <= strat.cap

    def test_adaptive_zero_step_jumps_to_cap(self, caplog):
        strat = AdaptiveSize(eta=1.0, cap=777)
        noisy = SampleStats(0.0, np.zeros(1), 5.0, 10)
        with caplog.at_level(logging.WARNING, logger="snsqp.sampling"):
            assert next_sample_size(strat, noisy, 1.0, 0.0, 3) == 777
        assert any("zero step" in rec.message for rec in caplog.records)
        caplog.clear()
        clean = SampleStats(0.0, np.zeros(1), 0.0, 10)
        with caplog.at_level(logging.WARNING, logger="snsqp.sampling"):
            assert next_sample_size(strat, clean, 1.0, 0.0, 3) == 777
        assert not caplog.records

    def test_adaptive_cap_clamps(self):
        strat = AdaptiveSize(eta=1e-9, cap=64)
        stats = SampleStats(0.0, np.zeros(1), 1e6, 10)
        assert next_sample_size(strat, stats, 1.0, 1.0, 2) == 64

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            FixedSize(size=1)
        with pytest.raises(ValueError):
            PolynomialSize(exponent=0.0, cap=10)
        with pytest.raises(ValueError):
            PolynomialSize(exponent=float("nan"), cap=10)
        with pytest.raises(ValueError):
            PolynomialSize(exponent=1.0, cap=1)
        with pytest.raises(ValueError):
            AdaptiveSize(eta=0.0, cap=10)
        with pytest.raises(ValueError):
            AdaptiveSize(eta=float("nan"), cap=10)
        with pytest.raises(ValueError):
            AdaptiveSize(eta=1.0, cap=1)
