"""Production-pricing-shipment benchmark tests.

The recourse LP is cross-checked three ways: a hand-solved corner case, the
closed form for uniform shipment costs, and central finite differences of the
value function away from its breakpoints (p = 2 and p = 4.2, where the
shipping margin and the production premium change sign).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from snsqp import lp
from snsqp.bench.pps import (
    X0,
    build_pps_instance,
    build_pps_problem,
    first_stage_set,
    pps_oracle,
    recourse_closed_form,
    sample_truncated_normal,
    scenario_sampler,
    second_stage_lp,
    split_scenarios,
)
from snsqp.bench.reference import truncated_normal_moments
from snsqp.sampling import OracleError, aggregate, draw_scenarios


@pytest.fixture(scope="module")
def instance():
    return build_pps_instance()


@pytest.fixture(scope="module")
def problem():
    return build_pps_problem()


def scenario(slopes, intercepts):
    """One scenario row: the slopes, then the intercepts."""
    return np.concatenate([slopes, intercepts])


class TestInstanceData:
    def test_reference_numbers(self, instance):
        assert instance.factories == 5 and instance.stores == 5
        assert instance.first_stage_cost == pytest.approx(4.2)
        np.testing.assert_allclose(instance.production_costs,
                                   [2.2, 3.2, 3.3, 4.2, 2.4])
        assert np.all(instance.shipment_costs == 2.0)
        np.testing.assert_allclose(instance.slope_intervals[3], [-3.0, -2.0])
        np.testing.assert_allclose(instance.intercept_intervals[2], [26.0, 27.0])
        assert instance.price_bounds == (1.0, 10.0)
        assert instance.demand_slope0 == pytest.approx(-1.0)
        assert instance.demand_intercept0 == pytest.approx(12.0)

    def test_first_stage_set_geometry(self, instance):
        box = first_stage_set(instance)
        np.testing.assert_allclose(box.lower, [1.0, 1.0])
        np.testing.assert_allclose(box.upper, [11.0, 10.0])
        np.testing.assert_allclose(box.ineq_matrix, [[1.0, 1.0]])
        np.testing.assert_allclose(box.ineq_rhs, [12.0])
        assert box.membership(X0)
        assert box.membership(np.array([2.0, 10.0]))
        assert not box.membership(np.array([6.0, 7.0]))   # 6 + 7 > 12
        assert not box.membership(np.array([0.5, 5.0]))

    def test_rejects_bad_intervals(self):
        good = build_pps_instance()
        with pytest.raises(ValueError):
            build_pps_instance().__class__(
                factories=good.factories, stores=good.stores,
                first_stage_cost=good.first_stage_cost,
                production_costs=good.production_costs,
                shipment_costs=good.shipment_costs,
                demand_slope0=good.demand_slope0,
                demand_intercept0=good.demand_intercept0,
                slope_intervals=np.abs(good.slope_intervals),
                intercept_intervals=good.intercept_intervals)


class TestScenarioDistribution:
    def test_draws_stay_inside_intervals(self, instance, problem):
        scenarios = draw_scenarios(problem.scenario_sampler, 9, 1, 2000)
        assert scenarios.shape == (2000, 10)
        slopes, intercepts = split_scenarios(instance, scenarios)
        assert np.all(slopes >= instance.slope_intervals[:, 0])
        assert np.all(slopes <= instance.slope_intervals[:, 1])
        assert np.all(intercepts >= instance.intercept_intervals[:, 0])
        assert np.all(intercepts <= instance.intercept_intervals[:, 1])

    def test_moments_match_quadrature(self, instance):
        """Sample mean/variance against direct integration of the density."""
        a, b = instance.slope_intervals[3]
        mean_q, var_q = truncated_normal_moments(a, b)
        rng = np.random.default_rng(2718)
        draws = np.array([sample_truncated_normal((a, b), rng)
                          for _ in range(40_000)])
        se = np.sqrt(var_q / draws.size)
        assert abs(draws.mean() - mean_q) <= 4.0 * se
        assert draws.var(ddof=1) == pytest.approx(var_q, rel=0.03)

    def test_single_draw_respects_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = sample_truncated_normal((16.0, 17.0), rng)
            assert 16.0 <= u <= 17.0
        with pytest.raises(ValueError):
            sample_truncated_normal((2.0, 2.0), rng)

    def test_exhausted_rejection_cap_names_the_interval(self):
        class OutOfRange:
            def standard_normal(self, shape):
                return np.full(shape, 10.0)

        with pytest.raises(RuntimeError, match=r"\[16\.0, 17\.0\]"):
            sample_truncated_normal((16.0, 17.0), OutOfRange())

    def test_sampler_is_deterministic(self, problem):
        a = draw_scenarios(problem.scenario_sampler, 4, 11, 50)
        b = draw_scenarios(problem.scenario_sampler, 4, 11, 50)
        assert np.array_equal(a, b)


class TestRecourseLp:
    def test_zero_demand_corner_by_hand(self, instance):
        """All demand caps zero: nothing ships, production sits at the floor."""
        corner = scenario(np.full(5, -1.6), np.full(5, 16.0))
        sol = lp.solve_lp(second_stage_lp(instance, 10.0, corner))
        assert sol.status is lp.LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.primal[:5], np.ones(5), atol=1e-9)
        np.testing.assert_allclose(sol.primal[5:], np.zeros(25), atol=1e-9)
        assert sol.objective == pytest.approx(float(np.sum(instance.production_costs)))

    def test_matches_closed_form(self, instance, problem):
        rng = np.random.default_rng(31)
        scenarios = draw_scenarios(problem.scenario_sampler, 8, 2, 100)
        slopes, intercepts = split_scenarios(instance, scenarios)
        for p in (1.0, 2.5, 4.0, 6.0, 8.5, 10.0):
            values, derivs = recourse_closed_form(instance, p, slopes, intercepts)
            for i in (0, 17, 56, 99):
                sol = lp.solve_lp(second_stage_lp(instance, p, scenarios[i]))
                assert sol.objective == pytest.approx(values[i], abs=1e-9)

    def test_batch_oracle_matches_scenario_loop(self, instance, problem):
        scenarios = draw_scenarios(problem.scenario_sampler, 5, 3, 60)
        point = np.array([2.5, 7.0])
        stats = aggregate(problem, point, scenarios)
        loop = [pps_oracle(instance, point, scenarios[i:i + 1])
                for i in range(len(scenarios))]
        loop_values = np.array([values[0] for values, _ in loop])
        loop_grads = np.array([grads[0] for _, grads in loop])
        assert loop_values.mean() == pytest.approx(stats.mean_value, abs=1e-9)
        np.testing.assert_allclose(loop_grads.mean(axis=0), stats.mean_subgradient,
                                   atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(1.0, 10.0), x=st.floats(1.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 40))
    def test_batch_oracle_matches_cold_lp_and_closed_form(self, instance, problem,
                                                           p, x, seed, size):
        """Values against one cold LP per scenario; d/dp against the closed
        form, away from the price breakpoints p = 2 and p = 4.2."""
        assume(abs(p - 2.0) > 1e-6 and abs(p - 4.2) > 1e-6)
        scenarios = draw_scenarios(problem.scenario_sampler, seed, 0, size)
        values, grads = pps_oracle(instance, np.array([x, p]), scenarios)
        first_stage = (instance.first_stage_cost - p) * x
        cold = np.array([lp.solve_lp(second_stage_lp(instance, p, row)).objective
                         for row in scenarios])
        np.testing.assert_allclose(values, first_stage + cold, rtol=0, atol=1e-8)
        _, derivs = recourse_closed_form(instance, p,
                                         *split_scenarios(instance, scenarios))
        np.testing.assert_allclose(grads[:, 1], -x + derivs, rtol=0, atol=1e-8)
        assert np.all(grads[:, 0] == instance.first_stage_cost - p)

    def test_one_cold_solve_serves_a_batch(self, instance, problem):
        scenarios = draw_scenarios(problem.scenario_sampler, 0, 1, 1000)
        slopes, intercepts = split_scenarios(instance, scenarios)
        for p in (1.5, 3.0, 5.0, 6.5, 8.0):
            template = second_stage_lp(instance, p, scenarios[0])
            rhs = np.hstack([slopes * p + intercepts, np.zeros((1000, 5))])
            assert lp.solve_lp_multi_rhs(template, rhs).cold_solves == 1

    def test_closed_form_requires_uniform_costs(self, instance):
        slopes, intercepts = np.full(5, -1.0), np.full(5, 20.0)
        bad = build_pps_instance().__class__(
            factories=instance.factories, stores=instance.stores,
            first_stage_cost=instance.first_stage_cost,
            production_costs=instance.production_costs,
            shipment_costs=instance.shipment_costs + np.eye(5),
            demand_slope0=instance.demand_slope0,
            demand_intercept0=instance.demand_intercept0,
            slope_intervals=instance.slope_intervals,
            intercept_intervals=instance.intercept_intervals)
        with pytest.raises(ValueError):
            recourse_closed_form(bad, 5.0, slopes[None, :], intercepts[None, :])


class TestOracle:
    def test_gradient_matches_finite_differences(self, instance, problem):
        """Central differences in (x, p) away from the p breakpoints."""
        scenarios = draw_scenarios(problem.scenario_sampler, 21, 4, 6)
        h = 1e-5
        for x, p in ((1.5, 3.0), (2.0, 6.5), (4.0, 8.0)):
            _, grads = pps_oracle(instance, np.array([x, p]), scenarios)
            fd_x = (pps_oracle(instance, np.array([x + h, p]), scenarios)[0]
                    - pps_oracle(instance, np.array([x - h, p]), scenarios)[0]
                    ) / (2 * h)
            fd_p = (pps_oracle(instance, np.array([x, p + h]), scenarios)[0]
                    - pps_oracle(instance, np.array([x, p - h]), scenarios)[0]
                    ) / (2 * h)
            np.testing.assert_allclose(grads[:, 0], fd_x, rtol=0, atol=1e-6)
            np.testing.assert_allclose(grads[:, 1], fd_p, rtol=0, atol=1e-4)

    def test_value_decomposition(self, instance, problem):
        batch = draw_scenarios(problem.scenario_sampler, 2, 1, 1)
        x, p = 3.0, 7.0
        (value,), _ = pps_oracle(instance, np.array([x, p]), batch)
        recourse = lp.solve_lp(second_stage_lp(instance, p, batch[0])).objective
        assert value == pytest.approx((instance.first_stage_cost - p) * x
                                      + recourse)

    def test_infeasible_recourse_surfaces_as_oracle_error(self, instance, problem):
        # negative demand cap contradicts z >= 0
        bad = scenario(np.full(5, -2.0), np.full(5, 1.0))
        good = scenario(np.full(5, -1.0), np.full(5, 20.0))
        with pytest.raises(RuntimeError):
            pps_oracle(instance, np.array([2.0, 10.0]), bad[None, :])
        with pytest.raises(OracleError, match="scenario index 1"):
            aggregate(problem, np.array([2.0, 10.0]), np.stack([good, bad, good]))


class TestCurvatureBudget:
    def test_sampled_modulus_under_analytic_ceiling(self, instance, problem):
        """Pairwise linearization-excess ratios against the sharp modulus.

        Per scenario the objective is piecewise quadratic in (x, p) with
        Hessian [[0, -1], [-1, -2 sum(slopes)]] on its smooth pieces and
        downward kinks between them, so the excess ratio cannot exceed the
        largest eigenvalue over the slope box.  The configured rho_estimate
        is a smaller tuning constant, which is fine: it only has to pass the
        curvature-window validation of the runs, not bound the geometry.
        """
        from snsqp.bench.synthetic import suggest_rho
        worst_slope_sum = float(np.sum(instance.slope_intervals[:, 0]))
        hess = np.array([[0.0, -1.0], [-1.0, -2.0 * worst_slope_sum]])
        ceiling = float(np.max(np.linalg.eigvalsh(hess)))
        est = suggest_rho(problem, n_pairs=4000, seed=101)
        assert est <= ceiling + 1e-6
        assert est >= 0.5 * ceiling
        # the pinned benchmark constant is deliberately below the ceiling
        assert problem.rho_estimate == pytest.approx(10.0)
        assert problem.rho_estimate < ceiling

    def test_gap_bound_with_analytic_modulus(self, instance, problem):
        worst_slope_sum = float(np.sum(instance.slope_intervals[:, 0]))
        hess = np.array([[0.0, -1.0], [-1.0, -2.0 * worst_slope_sum]])
        ceiling = float(np.max(np.linalg.eigvalsh(hess)))
        rng = np.random.default_rng(606)
        scenarios = draw_scenarios(problem.scenario_sampler, 77, 1, 400)
        box = problem.set
        for i in range(len(scenarios)):
            x = rng.uniform(box.lower, box.upper)
            x_alt = rng.uniform(box.lower, box.upper)
            d = x_alt - x
            (val,), (grad,) = problem.oracle(x, scenarios[i:i + 1])
            (val_alt,), _ = problem.oracle(x_alt, scenarios[i:i + 1])
            gap = val_alt - val - float(grad @ d)
            assert gap <= 0.5 * ceiling * float(d @ d) + 1e-9
