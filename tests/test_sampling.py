"""Scenario streams, batch aggregation and the three batch-size schedules.

The stream tests pin down bitwise reproducibility (counter-based generator
keyed by (seed, iteration)); the schedule tests freeze small hand-computed
cases of the adaptive growth rule.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from snsqp.bench import pps
from snsqp.bench.synthetic import build_quadratic_equality_problem
from snsqp.diagnostics import fill_stationarity, reference_batch, reference_stationarity
from snsqp.driver import SolverConfig, run_algorithm1
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
    scenario_generator,
    substream_key,
    variance_test,
)


def uniform_sampler(rng, count):
    return rng.uniform(-1.0, 1.0, size=(count, 3))


#: the three sampler families the runs draw from, and one that reads the
#: generator's buffered uint32 half
SAMPLERS = {"uniform": uniform_sampler,
            "quadratic-eq": build_quadratic_equality_problem().scenario_sampler,
            "pps": pps.scenario_sampler(pps.build_pps_instance()),
            "uint32": lambda rng, count: rng.integers(0, 2 ** 32, size=count, dtype=np.uint32)}


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

    def test_numpy_integer_seed_keys_like_python_int(self):
        for seed in (np.int64(3), np.uint64(3), np.int32(3)):
            assert substream_key(seed, np.int64(5)) == substream_key(3, 5)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            draw_scenarios(uniform_sampler, master_seed=0, iteration=1, count=0)

    @settings(max_examples=60, deadline=None)
    @given(sampler=st.sampled_from(sorted(SAMPLERS)),
           seed=st.integers(0, 2 ** 64 - 1), iteration=st.integers(1, 10 ** 6),
           count=st.integers(1, 1000),
           before=st.lists(st.tuples(st.sampled_from(["integers", "random"]),
                                     st.integers(1, 9)), max_size=4))
    def test_a_reused_generator_draws_a_fresh_generators_batch(self, sampler, seed,
                                                               iteration, count, before):
        """A generator left anywhere in its stream, mid-buffer after odd
        uint32 or double draws, is re-keyed to exactly the state of
        Philox(key=substream_key(seed, iteration)): the batch is bitwise the
        one a fresh generator draws."""
        sampler = SAMPLERS[sampler]
        rng = scenario_generator()
        for method, size in before:
            if method == "integers":
                rng.integers(0, 2 ** 31, size=size, dtype=np.uint32)
            else:
                rng.random(size)
        fresh = np.random.Generator(np.random.Philox(key=substream_key(seed, iteration)))
        expected = sampler(fresh, count)
        reused = draw_scenarios(sampler, seed, iteration, count, rng)
        assert reused.tobytes() == expected.tobytes()
        assert draw_scenarios(sampler, seed, iteration, count).tobytes() == expected.tobytes()


class TestReadOnlyBatches:
    """draw_scenarios clears the batch's writeable flag, so no oracle can
    change a loop batch or the shared reference batch for a later use."""

    def test_a_write_to_a_drawn_batch_raises(self):
        drawn = []

        def sampler(rng, count):
            drawn.append(uniform_sampler(rng, count))
            return drawn[-1]

        batch = draw_scenarios(sampler, master_seed=0, iteration=1, count=8)
        assert batch is drawn[0]  # the flag is cleared in place: no copy
        with pytest.raises(ValueError, match="read-only"):
            batch[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            batch[1:3] *= 2.0

    @staticmethod
    def _writing_problem():
        from snsqp.bench.synthetic import build_quadratic_equality_problem
        base = build_quadratic_equality_problem()

        def oracle(x, xi):
            xi += 0.5  # breaks the contract: the batch belongs to the caller
            return base.oracle(x, xi)

        return base, ConstrainedStochasticProblem(
            dimension=2, scenario_sampler=base.scenario_sampler, oracle=oracle,
            set=base.set, rho_estimate=base.rho_estimate,
            lipschitz_h=base.lipschitz_h, eq_constraints=base.eq_constraints)

    def test_an_oracle_that_writes_its_batch_ends_the_run(self):
        from snsqp.driver import run_algorithm2
        _, problem = self._writing_problem()
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                              strategy=FixedSize(10), budget=100)
        trace = run_algorithm2(problem, config)
        assert trace.stop_reason == "oracle_error"
        assert trace.records == [] and trace.oracle_calls == 10
        assert "scenario index 0" in trace.error and "read-only" in trace.error

    def test_an_oracle_that_writes_the_reference_batch_fills_nan(self):
        """Before the batch was read-only, each evaluation shifted it for
        every later one; now each gives nan and the batch stays as drawn."""
        from snsqp.driver import run_algorithm2
        base, problem = self._writing_problem()
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                              strategy=FixedSize(10), budget=50)
        trace = run_algorithm2(base, config)
        trace.problem = problem
        reference = reference_batch(problem)
        drawn = reference.copy()
        fill_stationarity(trace, reference)
        assert len(trace.records) == 5
        assert all(math.isnan(rec.stationarity) for rec in trace.records)
        assert np.array_equal(reference, drawn)

    def test_a_clean_run_fills_the_values_of_a_writable_batch(self):
        """The flag changes no value: each filled stationarity is bitwise the
        one computed over a writable copy of the reference batch."""
        from snsqp.bench.synthetic import build_quadratic_equality_problem
        from snsqp.driver import run_algorithm2
        problem = build_quadratic_equality_problem()
        config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                              strategy=FixedSize(10), budget=200, master_seed=4)
        trace = run_algorithm2(problem, config)
        reference = reference_batch(problem)
        fill_stationarity(trace, reference)
        writable = reference.copy()
        assert writable.flags.writeable and not reference.flags.writeable
        assert len(trace.records) == 20
        for rec in trace.records:
            assert math.isfinite(rec.stationarity)
            assert rec.stationarity == reference_stationarity(problem, rec.x, writable)


@st.composite
def oracle_outputs(draw):
    """(values, grads) of one batch: N in [2, 3000] scenarios, n in [1, 6]
    coordinates, grads C-ordered, F-ordered or every other column of a wider
    array.  Entries reach 1e300 in magnitude; a column or the values may be
    pushed to the float maximum, one sign, so that a finite batch's sum
    overflows; a column may be all -0.0 or zeros of both signs; and up to
    three nan or +-inf entries land at random positions."""
    n_scen, n = draw(st.integers(2, 3000)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = draw(st.integers(-300, 299))
    low = top - draw(st.integers(0, 30))

    def entries(*shape):
        mantissa = rng.uniform(1.0, 10.0, shape) * rng.choice([-1.0, 1.0], shape)
        return mantissa * 10.0 ** rng.integers(low, top, shape, endpoint=True)

    values, grads = entries(n_scen), entries(n_scen, n)
    column = grads[:, draw(st.integers(0, n - 1))]
    zeros = draw(st.sampled_from(["none", "negative", "signed"]))
    if zeros != "none":
        column[:] = -0.0 if zeros == "negative" else rng.choice([0.0, -0.0], n_scen)
    if draw(st.booleans()):  # any two entries of one sign overflow their sum
        huge = rng.uniform(0.6, 1.0, n_scen) * 1.79e308 * draw(st.sampled_from([1.0, -1.0]))
        (values if draw(st.booleans()) else column)[:] = huge
    for _ in range(draw(st.integers(0, 3)) * draw(st.booleans())):
        where = values if draw(st.booleans()) else column
        where[draw(st.integers(0, n_scen - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        grads = np.asfortranarray(grads)
    elif layout == "strided":
        wide = np.zeros((n_scen, 2 * n))
        wide[:, ::2] = grads
        grads = wide[:, ::2]
    return values, grads


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

    def test_batch_only_failure_names_the_batch(self):
        def oracle(x, scenarios):
            if len(scenarios) > 3:
                raise MemoryError("batch too large")
            return np.zeros(len(scenarios)), np.zeros((len(scenarios), 2))

        problem = ConstrainedStochasticProblem(
            dimension=2, scenario_sampler=lambda rng, count: np.arange(count),
            oracle=oracle, set=BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
            rho_estimate=1.0)
        with pytest.raises(OracleError) as info:
            aggregate(problem, np.zeros(2), np.arange(5))
        assert str(info.value) == ("oracle failed on the batch of 5 scenarios "
                                   "(no scenario fails alone): batch too large")

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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_scen=st.integers(2, 2000),
           n=st.integers(1, 5), low=st.integers(-150, 150), high=st.integers(-150, 150),
           read_scatter=st.booleans())
    def test_reductions_are_bitwise_numpy_mean(self, seed, n_scen, n, low, high,
                                                read_scatter):
        """The means are bitwise values.mean() and grads.mean(axis=0), and the
        scatter, when it is read, is bitwise np.sum(dev * dev): the forms
        aggregate used before it reduced each array once and left the
        scatter to its first read.  Entries span magnitudes 1e-150..1e150."""
        rng = np.random.default_rng(seed)
        low, high = min(low, high), max(low, high)

        def entries(*shape):
            mantissa = rng.uniform(1.0, 10.0, shape) * rng.choice([-1.0, 1.0], shape)
            return mantissa * 10.0 ** rng.integers(low, high + 1, shape)

        values, grads = entries(n_scen), entries(n_scen, n)
        problem = ConstrainedStochasticProblem(
            dimension=n, scenario_sampler=lambda rng, count: np.zeros(count),
            oracle=lambda x, xi: (values, grads),
            set=BoxPolyhedron(lower=-np.ones(n), upper=np.ones(n)), rho_estimate=1.0)
        stats = aggregate(problem, np.zeros(n), np.zeros(n_scen))
        assert stats.batch_size == n_scen
        assert type(stats.mean_value) is float
        assert (np.float64(stats.mean_value).tobytes()
                == np.float64(float(values.mean())).tobytes())
        mean_grad = grads.mean(axis=0)
        assert stats.mean_subgradient.tobytes() == mean_grad.tobytes()
        if read_scatter:
            dev = grads - mean_grad
            expected = float(np.sum(dev * dev))
            assert type(stats.sum_sq_dev) is float
            assert (np.float64(stats.sum_sq_dev).tobytes()
                    == np.float64(expected).tobytes())

    @settings(max_examples=300, deadline=None)
    @given(outputs=oracle_outputs())
    def test_matches_the_checked_aggregate_bit_for_bit(self, outputs):
        """The sums of one sequential pass, and finiteness read off them,
        give every bit of the aggregate that checked each entry first
        (reference.checked_aggregate): the means, the scatter, and the
        OracleError message naming the first bad scenario.  So they do with
        numpy's overflow warning raised (the suite turns RuntimeWarning into
        an error), ignored, or raised as FloatingPointError: a finite batch
        whose sum overflows raises where the reference raised and is
        accepted where it was, and a warning that a nan or inf entry set off
        still ends in the OracleError."""
        values, grads = outputs
        n_scen, n = grads.shape
        problem = ConstrainedStochasticProblem(
            dimension=n, scenario_sampler=lambda rng, count: np.zeros(count),
            oracle=lambda x, xi: (values, grads),
            set=BoxPolyhedron(lower=-np.ones(n), upper=np.ones(n)), rho_estimate=1.0)

        def result(fn, over):
            try:
                with np.errstate(over=over):
                    stats = fn(problem, np.zeros(n), np.zeros(n_scen))
            except (OracleError, RuntimeWarning, FloatingPointError) as exc:
                # numpy names the ufunc in its message: reduce or accumulate
                return type(exc), str(exc) if type(exc) is OracleError else None
            with np.errstate(all="ignore"):  # the scatter of an overflowing batch
                return [np.float64(stats.mean_value).tobytes(),
                        stats.mean_subgradient.tobytes(),
                        np.float64(stats.sum_sq_dev).tobytes()]

        for over in ("warn", "ignore", "raise"):
            assert result(aggregate, over) == result(reference.checked_aggregate, over), over

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

    def test_unknown_strategy_raises_type_error(self):
        """Only the three strategy classes size a batch: anything else, the
        text of a strategy included, is a TypeError that names it."""
        stats = SampleStats(0.0, np.zeros(1), 0.0, 2)
        for strategy in (object(), "fixed:10", 10):
            with pytest.raises(TypeError, match="unknown sampling strategy"):
                next_sample_size(strategy, stats, 1.0, 1.0, 1)

    def test_polynomial_ramp_values(self):
        strat = PolynomialSize(exponent=1.25, cap=1000)
        stats = SampleStats(0.0, np.zeros(1), 0.0, 2)
        assert strat.initial_size() == 2
        assert next_sample_size(strat, stats, 1.0, 1.0, 1) == 2      # MIN_BATCH
        assert next_sample_size(strat, stats, 1.0, 1.0, 4) == 6      # ceil(4^1.25)
        # 256^1.25 = 1024 runs into the cap
        assert next_sample_size(strat, stats, 1.0, 1.0, 256) == 1000

    def test_polynomial_power_past_the_float_range_takes_the_cap(self):
        """3^1000 overflows a float; the size is the cap, not an OverflowError."""
        strat = PolynomialSize(exponent=1000.0, cap=10)
        stats = SampleStats(0.0, np.zeros(1), 0.0, 2)
        assert next_sample_size(strat, stats, 1.0, 1.0, 3) == 10

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

    def test_adaptive_underflowing_step_takes_the_cap(self):
        """eta * alpha * |step|^2 * (N - 1) underflows to 0.0 for the smallest
        subnormal step; the size is the cap, not a ZeroDivisionError."""
        stats = SampleStats(0.0, np.zeros(1), 1.0, 10)
        assert next_sample_size(AdaptiveSize(eta=0.25, cap=1000), stats,
                                1.0, 5e-324, 2) == 1000

    def test_adaptive_tiny_step_takes_the_cap(self):
        """A step whose squared norm is subnormal makes the growth ratio
        infinite; the run takes the cap instead of failing in ceil."""
        problem = ConstrainedStochasticProblem(
            dimension=1,
            scenario_sampler=lambda rng, count: rng.uniform(0.0, 5.0, count),
            oracle=lambda x, xi: (x[0] * (1.0 + xi), (1.0 + xi)[:, None]),
            set=BoxPolyhedron(lower=[0.0], upper=[1.0]),
            rho_estimate=1.0,
        )
        config = SolverConfig(x0=np.array([1e-160]), alpha0=1.0,
                              strategy=AdaptiveSize(eta=1.0, cap=1000), budget=2000)
        trace = run_algorithm1(problem, config)
        assert trace.records[1].batch_size == 1000

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            FixedSize(size=1)
        with pytest.raises(ValueError):
            PolynomialSize(exponent=0.0, cap=10)
        with pytest.raises(ValueError):
            PolynomialSize(exponent=float("nan"), cap=10)
        with pytest.raises(ValueError, match="exponent must be positive and finite"):
            PolynomialSize(exponent=float("inf"), cap=10)
        with pytest.raises(ValueError):
            PolynomialSize(exponent=1.0, cap=1)
        with pytest.raises(ValueError):
            AdaptiveSize(eta=0.0, cap=10)
        with pytest.raises(ValueError):
            AdaptiveSize(eta=float("nan"), cap=10)
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            AdaptiveSize(eta=float("inf"), cap=10)
        with pytest.raises(ValueError):
            AdaptiveSize(eta=1.0, cap=1)

    @pytest.mark.parametrize("strategy, fields, field", [
        (FixedSize, {"size": 10.0}, "size"),
        (FixedSize, {"size": True}, "size"),
        (PolynomialSize, {"exponent": 1.2, "cap": 10.5}, "cap"),
        (AdaptiveSize, {"eta": 1.0, "cap": 10.5}, "cap"),
        (AdaptiveSize, {"eta": 1.0, "cap": np.float64(1000.0)}, "cap"),
    ], ids=["fixed-float", "fixed-bool", "poly-float-cap", "adaptive-float-cap",
            "adaptive-numpy-float-cap"])
    def test_integer_fields_reject_floats_and_bools(self, strategy, fields, field):
        """A float size reaches the sampler only at the first draw, or at the
        cap, and fails there with every record lost."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            strategy(**fields)

    def test_numpy_integer_fields_accepted(self):
        assert FixedSize(np.int64(10)).initial_size() == 10
        assert PolynomialSize(exponent=1.2, cap=np.int32(10)).cap == 10
        assert AdaptiveSize(eta=1.0, cap=np.uint16(10)).cap == 10
