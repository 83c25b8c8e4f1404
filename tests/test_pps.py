"""Production-pricing-shipment benchmark tests.

The recourse LP is cross-checked three ways: a hand-solved corner case, the
closed form for uniform shipment costs, and central finite differences of the
value function away from its breakpoints (p = 2 and p = 4.2, where the
shipping margin and the production premium change sign).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from snsqp import lp
from snsqp.bench import pps
from snsqp.bench.pps import (
    X0,
    build_pps_instance,
    build_pps_problem,
    first_stage_set,
    pps_oracle,
    _truncated_normal,
    recourse_lp,
    scenario_sampler,
    split_scenarios,
)
from snsqp.diagnostics import REFERENCE_SEED, reference_batch
from snsqp.sampling import OracleError, aggregate, draw_scenarios

from reference import (
    plain_scenario_sampler,
    recourse_closed_form,
    second_stage_lp,
    suggest_rho,
    truncated_normal_moments,
)


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
        assert not box.membership(np.array([np.nan, 1.5]))

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
        for changes, message in (
                ({"factories": 0}, "needs at least one factory and one store"),
                ({"stores": 0}, "needs at least one factory and one store"),
                ({"production_costs": good.production_costs[:4]},
                 "production_costs must have one entry per factory"),
                ({"shipment_costs": good.shipment_costs[:, :4]},
                 "shipment_costs must be factories x stores"),
                ({"intercept_intervals": -good.intercept_intervals},
                 "intercept intervals must be positive")):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(good, **changes)

    def test_replace_rebuilds_the_recourse_lp(self, instance):
        """The recourse LP is built from the other fields, so a replaced
        instance gets its own."""
        raised = dataclasses.replace(instance, quantity_floor=2.0)
        np.testing.assert_array_equal(raised.recourse.lower[:5], 2.0)
        np.testing.assert_array_equal(raised.recourse.lower[5:], 0.0)
        np.testing.assert_array_equal(instance.recourse.lower[:5], 1.0)

    def test_arrays_are_read_only_copies(self):
        """recourse, crash_starts and regime_prices are built from the arrays
        once, so a write to any of them raises, and a later write to the
        caller's array leaves the instance as it was built."""
        costs = np.array([2.2, 3.2, 3.3, 4.2, 2.4])
        instance = dataclasses.replace(build_pps_instance(), production_costs=costs)
        costs[0] = 9.0
        assert instance.production_costs[0] == 2.2
        for name in ("production_costs", "shipment_costs", "slope_intervals",
                     "intercept_intervals"):
            array = getattr(instance, name)
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                array += 0.0

    def test_rejects_reversed_or_empty_intervals(self):
        """Lower end not below the upper end fails at construction, not at
        the first draw (which would spin through the rejection cap)."""
        good = build_pps_instance()
        for j, bad in ((0, [-0.5, -1.5]), (2, [-2.0, -2.0])):
            slopes = good.slope_intervals.copy()
            slopes[j] = bad
            with pytest.raises(ValueError, match="lower end"):
                dataclasses.replace(good, slope_intervals=slopes)
        intercepts = good.intercept_intervals.copy()
        intercepts[1] = [22.0, 21.0]
        with pytest.raises(ValueError, match="lower end"):
            dataclasses.replace(good, intercept_intervals=intercepts)


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
        draws = _truncated_normal(rng, np.array([a]), np.array([b]), 40_000)[:, 0]
        se = np.sqrt(var_q / draws.size)
        assert abs(draws.mean() - mean_q) <= 4.0 * se
        assert draws.var(ddof=1) == pytest.approx(var_q, rel=0.03)

    def test_single_draw_respects_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            (u,), = _truncated_normal(rng, np.array([16.0]), np.array([17.0]), 1)
            assert 16.0 <= u <= 17.0

    def test_exhausted_rejection_cap_names_the_interval(self):
        class OutOfRange:
            def standard_normal(self, shape):
                return np.full(shape, 10.0)

        with pytest.raises(RuntimeError, match=r"\[16\.0, 17\.0\]"):
            _truncated_normal(OutOfRange(), np.array([16.0]), np.array([17.0]), 1)

    def test_exhausted_cap_names_the_first_pending_entrys_interval(self):
        """Entries (0, 1) and (1, 0) stay pending; the first in row-major
        order is in column 1, so its interval is the one named."""
        class Crossed:
            def standard_normal(self, shape):
                if shape == (2, 2):
                    return np.array([[0.0, 10.0], [10.0, 0.0]])
                return np.full(shape, 10.0)

        with pytest.raises(RuntimeError, match=r"\[21\.0, 22\.0\]"):
            _truncated_normal(Crossed(), np.array([16.0, 21.0]), np.array([17.0, 22.0]), 2)

    def test_a_nan_draw_is_rejected_and_redrawn(self):
        """Round one's nan entries are redrawn, one normal each, in row-major
        order; the entries it accepted keep their values."""
        class NanFirst:
            def __init__(self):
                self.shapes = []

            def standard_normal(self, shape):
                self.shapes.append(shape)
                if len(self.shapes) == 1:
                    return np.array([[np.nan, 0.0], [1.0, np.nan]])
                return np.array([-1.0, 1.0])

        rng = NanFirst()
        out = _truncated_normal(rng, np.array([16.0, 21.0]), np.array([17.0, 22.0]), 2)
        assert rng.shapes == [(2, 2), 2]
        np.testing.assert_array_equal(out, [[16.25, 21.5], [16.75, 21.75]])

    @pytest.mark.parametrize("size", [1, 2, 10, 1000])
    def test_sampler_matches_the_plain_two_call_sampler(self, instance, problem, size):
        """At fixed (seed, iteration) pairs the batch is, bit for bit, that of
        the plain reference: one call for the whole (count, 2*stores) block,
        then one call per rejection round."""
        plain = plain_scenario_sampler(instance)
        for seed, iteration in ((0, 0), (1, 7), (42, 3), (2 ** 31, 1)):
            drawn = draw_scenarios(problem.scenario_sampler, seed, iteration, size)
            reference = draw_scenarios(plain, seed, iteration, size)
            assert drawn.shape == reference.shape == (size, 10)
            assert drawn.tobytes() == reference.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), iteration=st.integers(0, 2 ** 31),
           size=st.integers(1, 1000))
    def test_sampler_matches_the_plain_sampler(self, instance, problem, seed,
                                               iteration, size):
        """The vectorized redraw of the pending entries gives, bit for bit,
        the draws of the plain per-entry loop from the same generator."""
        drawn = draw_scenarios(problem.scenario_sampler, seed, iteration, size)
        plain = draw_scenarios(plain_scenario_sampler(instance), seed, iteration, size)
        assert drawn.shape == plain.shape == (size, 10)
        assert drawn.tobytes() == plain.tobytes()

    def test_every_column_matches_its_intervals_moments(self, instance, problem):
        """Each of the 2*stores columns of a batch is the truncated normal of
        its own interval: a redraw that read another column's mean or sigma
        would shift the column's mean or variance."""
        scenarios = draw_scenarios(problem.scenario_sampler, 2718, 0, 40_000)
        intervals = np.vstack([instance.slope_intervals, instance.intercept_intervals])
        for (a, b), draws in zip(intervals, scenarios.T):
            mean_q, var_q = truncated_normal_moments(a, b)
            se = np.sqrt(var_q / draws.size)
            assert abs(draws.mean() - mean_q) <= 4.0 * se, (a, b)
            assert draws.var(ddof=1) == pytest.approx(var_q, rel=0.03), (a, b)

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

    @pytest.mark.parametrize("price", [np.nan, np.inf, -np.inf])
    def test_non_finite_price_raises(self, instance, problem, price):
        scenarios = draw_scenarios(problem.scenario_sampler, 0, 1, 10)
        with pytest.raises(ValueError, match="cost must be finite"):
            recourse_lp(instance, price, scenarios)

    @pytest.mark.parametrize("shipment, price", [(-1e308, 1e308), (1e308, -1e308)])
    def test_price_that_overflows_the_cost_raises(self, instance, problem, shipment,
                                                  price):
        """A finite price whose shipment margin s - p overflows, either way."""
        extreme = dataclasses.replace(instance, shipment_costs=np.full((5, 5), shipment))
        scenarios = draw_scenarios(problem.scenario_sampler, 0, 1, 10)
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="cost must be finite"):
            recourse_lp(extreme, price, scenarios)

    def test_one_cold_solve_serves_a_batch(self, instance, problem):
        scenarios = draw_scenarios(problem.scenario_sampler, 0, 1, 1000)
        slopes, intercepts = split_scenarios(instance, scenarios)
        for p in (1.5, 3.0, 5.0, 6.5, 8.0):
            at_p = second_stage_lp(instance, p, scenarios[0])
            rhs = np.hstack([slopes * p + intercepts, np.zeros((1000, 5))])
            assert len(lp.solve_lp_multi_rhs(at_p, rhs).solves) == 1

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


#: prices of the pinned cold solves, 0.25 apart
PIN_PRICES = np.linspace(1.5, 8.0, 27)
#: (pivots, basis) of the recourse LP's cold solve at each of PIN_PRICES,
#: recorded with the earlier simplex kernel, which priced by masking the
#: reduced costs with np.where.  At p <= 2 nothing ships (the slack basis);
#: up to p = 4.2 the factories ship their floor production; above it the
#: cheapest factory tops up.  Every upper bound is +inf, so no variable
#: ends at one.
NOTHING_SHIPS = (0, tuple(range(30, 40)))
FLOOR_SHIPS = (5, (30, 31, 32, 33, 34, 5, 10, 15, 20, 25))
CHEAPEST_TOPS_UP = (10, (0, 6, 7, 8, 9, 5, 10, 15, 20, 25))
PINNED_SOLVES = [NOTHING_SHIPS] * 3 + [FLOOR_SHIPS] * 8 + [CHEAPEST_TOPS_UP] * 16
#: (pivots, basis) of recourse_lp's one cold solve per price on the whole
#: reference batch, from the crash basis of pps._recourse_start.  Store 3 has
#: the largest smallest demand at every price, so j* = 3: the floor units are
#: z_i3 (8, 13, 18, 23, 28); above p = 4.2 factory 0 makes the rest, with y_0
#: in store 3's position.  The crash basis is optimal, so no solve pivots.
CRASH_FLOOR_SHIPS = (0, (30, 31, 32, 33, 34, 8, 13, 18, 23, 28))
CRASH_CHEAPEST_TOPS_UP = (0, (5, 6, 7, 0, 9, 8, 13, 18, 23, 28))
CRASH_SOLVES = ([NOTHING_SHIPS] * 3 + [CRASH_FLOOR_SHIPS] * 8
                + [CRASH_CHEAPEST_TOPS_UP] * 16)


def record_solves(monkeypatch):
    """Wrap snsqp.lp.solve_lp and solve_lp_multi_rhs, forwarding every
    argument as the benchmark's span tracer does when it wraps solve_lp;
    returns the lists the two wrappers append to."""
    solves, batches = [], []
    solve_lp, solve_lp_multi_rhs = lp.solve_lp, lp.solve_lp_multi_rhs

    def counted(*args, **kwargs):
        solves.append(solve_lp(*args, **kwargs))
        return solves[-1]

    def recorded(*args, **kwargs):
        batches.append(solve_lp_multi_rhs(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(lp, "solve_lp", counted)
    monkeypatch.setattr(lp, "solve_lp_multi_rhs", recorded)
    return solves, batches


class TestPinnedPivots:
    def test_cold_solves_on_a_price_grid(self, instance, problem):
        """Scenario k of the reference batch at PIN_PRICES[k]."""
        batch = reference_batch(problem)
        pivots = 0
        for k, p in enumerate(PIN_PRICES):
            sol = lp.solve_lp(second_stage_lp(instance, p, batch[k]))
            assert (sol.iterations, tuple(sol.basis)) == PINNED_SOLVES[k], f"p = {p}"
            assert sol.at_upper.size == 0
            pivots += sol.iterations
        assert pivots == 200

    def test_one_cold_solve_per_price_on_the_reference_batch(self, instance, problem,
                                                             monkeypatch):
        """At each pinned price one basis serves the reference batch: its
        crash start, which needs no solve_lp call, so the pins are read from
        the batch's solves."""
        batch = reference_batch(problem)
        _, batches = record_solves(monkeypatch)
        for k, p in enumerate(PIN_PRICES):
            recourse_lp(instance, p, batch)
            (sol,) = batches[k].solves
            assert (sol.iterations, tuple(sol.basis)) == CRASH_SOLVES[k], f"p = {p}"


@pytest.mark.parametrize("size", [10, 1000])
def test_optimal_crash_starts_build_no_simplex(instance, problem, monkeypatch, size):
    """At every pinned price one held crash start is optimal for the whole
    batch, so recourse_lp prices it once: it builds no lp._Simplex and
    inverts no matrix, since the instance checked its starts when it was
    built."""
    scenarios = draw_scenarios(problem.scenario_sampler, REFERENCE_SEED, 0, size)
    simplices, inversions = [], []
    simplex, inv = lp._Simplex, np.linalg.inv

    def counted_simplex(*args, **kwargs):
        simplices.append(args)
        return simplex(*args, **kwargs)

    def counted_inv(*args, **kwargs):
        inversions.append(args)
        return inv(*args, **kwargs)

    monkeypatch.setattr(lp, "_Simplex", counted_simplex)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    for p in PIN_PRICES:
        values, derivs = recourse_lp(instance, p, scenarios)
        assert values.shape == derivs.shape == (size,)
    assert simplices == [] and inversions == []


@pytest.mark.parametrize("size", [10, 1000])
def test_every_cold_solve_goes_through_solve_lp(instance, problem, monkeypatch, size):
    """The benchmark's lp.recourse_* spans time the recourse LP by wrapping
    snsqp.lp.solve_lp.  A crash start that serves its whole batch makes no
    solve_lp call; a cold solve that bypassed that name would drop out of
    the spans without any error.  So, through recourse_lp and through the
    problem's oracle, the wrapped name must see every solve that
    len(LpBatchSolution.solves) counts, except the one of a start serving
    its whole batch.  The last price's batch holds a row whose demand is
    below the crash start's floor units, so the start fits only some rows
    and its cold solves must be seen."""
    scenarios = draw_scenarios(problem.scenario_sampler, REFERENCE_SEED, 0, size)
    short = scenario(np.full(5, -1.0), np.full(5, 5.0))  # demand 2 at p = 3
    mixed = np.vstack([scenarios, short])
    solves, batches = record_solves(monkeypatch)
    calls, starts = [], []
    for p, batch in ((1.5, scenarios), (3.0, scenarios), (6.5, scenarios), (3.0, mixed)):
        start, _ = pps._recourse_start(instance, p, batch[:, 5:] + p * batch[:, :5])
        for evaluate in (lambda: recourse_lp(instance, p, batch),
                         lambda: problem.oracle(np.array([2.0, p]), batch)):
            before = len(solves)
            evaluate()
            calls.append(len(solves) - before)
            starts.append(start)
    assert len(batches) == 8
    for batch, seen, start in zip(batches, calls, starts):
        (first, *_) = batch.solves
        whole = (len(batch.solves) == 1 and first.iterations == 0
                 and np.array_equal(first.basis, start.basis))
        assert seen == len(batch.solves) - whole
    assert calls[:6] == [0] * 6
    assert calls[6] == calls[7] == len(batches[7].solves) >= 2


def cold_recourse(instance, p, scenarios):
    """One cold solve per row from the slack basis: its values, its
    p-derivatives by the envelope formula of recourse_lp, and the solutions."""
    sols = [lp.solve_lp(second_stage_lp(instance, p, row)) for row in scenarios]
    slopes, _ = split_scenarios(instance, scenarios)
    values = np.array([sol.objective for sol in sols])
    derivs = np.array([-sol.primal[instance.factories:].sum()
                       - sol.duals[:instance.stores] @ slope
                       for sol, slope in zip(sols, slopes)])
    return values, derivs, sols


def same_bytes(actual, expected) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.dtype, actual.shape, actual.tobytes()) == (
        expected.dtype, expected.shape, expected.tobytes())


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.0, 10.0), seed=st.integers(0, 2 ** 32 - 1),
       size=st.sampled_from([1, 2, 10, 37, 1000]), short_row=st.booleans())
def test_a_start_serving_its_batch_gives_the_loops_bits(instance, problem, p, seed,
                                                         size, short_row):
    """solve_lp_multi_rhs with a checked Start against the same start given
    as a (basis, at_upper) pair, which always takes the loop of cold
    solves: xb, objective, group and solves[0] agree bit for bit, whether
    the start serves the whole batch or, with a row whose demand is below
    the floor units, only some of it."""
    scenarios = draw_scenarios(problem.scenario_sampler, seed, 0, size)
    if short_row:
        slope = np.full(5, -1.0)
        scenarios = np.vstack([scenarios, scenario(slope, 2.0 - p * slope)])
    at_p = instance.recourse.with_vectors(cost=pps._recourse_cost(instance, p))
    rhs = pps._recourse_rhs(instance, p, scenarios)
    start, _ = pps._recourse_start(instance, p, rhs[:, :instance.stores])
    priced = lp.solve_lp_multi_rhs(at_p, rhs, start)
    looped = lp.solve_lp_multi_rhs(at_p, rhs, (start.basis, start.at_upper))
    for name in ("xb", "objective", "group"):
        assert same_bytes(getattr(priced, name), getattr(looped, name)), name
    assert len(priced.solves) == len(looped.solves)
    first, want = priced.solves[0], looped.solves[0]
    assert (first.status, first.iterations) == (want.status, want.iterations)
    for name in ("primal", "duals", "objective", "basis", "at_upper", "basis_inverse"):
        assert same_bytes(getattr(first, name), getattr(want, name)), name


@settings(max_examples=30, deadline=None)
@given(p=st.floats(1.0, 10.0), seed=st.integers(0, 2 ** 32 - 1),
       size=st.sampled_from([1, 10, 1000]))
def test_a_served_batch_reads_its_starts_held_mask(instance, problem, p, seed, size):
    """Each crash start holds its shipped-variable mask as a read-only float
    array.  When the start serves the whole batch, recourse_lp's
    p-derivative reads it and gives the bits of the boolean mask that a
    cold-solved basis builds."""
    scenarios = draw_scenarios(problem.scenario_sampler, seed, 0, size)
    rhs = pps._recourse_rhs(instance, p, scenarios)
    start, mask = pps._recourse_start(instance, p, rhs[:, :instance.stores])
    built = (start.basis >= instance.factories) & (start.basis < instance.recourse.n_vars)
    assert mask.dtype == np.float64 and not mask.flags.writeable
    assert same_bytes(mask, built.astype(float))
    at_p = instance.recourse.with_vectors(cost=pps._recourse_cost(instance, p))
    sol = lp.solve_lp_multi_rhs(at_p, rhs, start)
    assume(len(sol.solves) == 1 and sol.solves[0].iterations == 0)
    slopes, _ = split_scenarios(instance, scenarios)
    _, derivs = recourse_lp(instance, p, scenarios)
    assert same_bytes(derivs, -(sol.xb @ built) - slopes @ sol.solves[0].duals[:5])


class TestCrashStart:
    def test_non_uniform_shipment_costs(self, instance, problem, monkeypatch):
        """With non-uniform shipment costs the crash basis is only a guess;
        the simplex finishes from it, and every row agrees with its own cold
        solve in value and p-derivative."""
        rng = np.random.default_rng(5)
        uneven = dataclasses.replace(
            instance, shipment_costs=2.0 + rng.uniform(0.0, 1.0, (5, 5)))
        scenarios = draw_scenarios(problem.scenario_sampler, 3, 1, 40)
        solves, _ = record_solves(monkeypatch)
        crash_pivots = 0
        for p in (1.5, 2.4, 3.5, 5.0, 6.5, 9.5):
            before = len(solves)
            values, derivs = recourse_lp(uneven, p, scenarios)
            crash_pivots += sum(sol.iterations for sol in solves[before:])
            cold_values, cold_derivs, _ = cold_recourse(uneven, p, scenarios)
            np.testing.assert_allclose(values, cold_values, rtol=0, atol=1e-9)
            np.testing.assert_allclose(derivs, cold_derivs, rtol=0, atol=1e-9)
        assert crash_pivots > 0

    def test_no_solve_writes_a_held_start(self, instance, problem, monkeypatch):
        """With non-uniform shipment costs a held crash start needs pivots,
        which the simplex makes on copies: two solves of the same batch agree
        bit for bit, and the instance's held bases and inverses stay
        read-only and unchanged."""
        rng = np.random.default_rng(5)
        uneven = dataclasses.replace(
            instance, shipment_costs=2.0 + rng.uniform(0.0, 1.0, (5, 5)))
        slack, floor, top_up = uneven.crash_starts
        held = [slack, *floor, *top_up]
        before = [(start.basis.tobytes(), start.inverse.tobytes()) for start in held]
        scenarios = draw_scenarios(problem.scenario_sampler, 3, 1, 40)
        from_held, simplex = [], lp._Simplex

        def recorded(problem, b0, start=None):
            from_held.append(start is not None)
            return simplex(problem, b0, start)

        monkeypatch.setattr(lp, "_Simplex", recorded)
        for p in (3.5, 5.0, 6.5, 9.5):
            first, second = recourse_lp(uneven, p, scenarios), recourse_lp(uneven, p, scenarios)
            for a, b in zip(first, second):
                assert a.tobytes() == b.tobytes()
        assert any(from_held)
        for start, (basis, inverse) in zip(held, before):
            assert not any(part.flags.writeable for part in (
                start.basis, start.at_upper, start.inverse, start.sign))
            assert (start.basis.tobytes(), start.inverse.tobytes()) == (basis, inverse)

    @pytest.mark.parametrize("p", [3.0, 6.0])
    @pytest.mark.parametrize("where", [0, 5])
    def test_row_too_small_for_the_floor_units_falls_back(self, instance, problem,
                                                          monkeypatch, p, where):
        """A row with demand 1 at every store cannot take the five floor
        units at j*.  Its cold solve starts from the slack basis and makes
        the pivots of its own cold solve; the other rows take no pivot."""
        scenarios = draw_scenarios(problem.scenario_sampler, 3, 1, 12)
        slopes = np.full(instance.stores, -1.0)
        batch = np.insert(scenarios, where, scenario(slopes, 1.0 - slopes * p), axis=0)
        solves, _ = record_solves(monkeypatch)
        values, derivs = recourse_lp(instance, p, batch)
        crash = list(solves)
        cold_values, cold_derivs, cold = cold_recourse(instance, p, batch)
        np.testing.assert_allclose(values, cold_values, rtol=0, atol=1e-9)
        np.testing.assert_allclose(derivs, cold_derivs, rtol=0, atol=1e-9)
        assert len(crash) == 2
        (fallback,) = [sol for sol in crash if sol.iterations]
        assert fallback.iterations == cold[where].iterations > 0
        assert tuple(fallback.basis) == tuple(cold[where].basis)


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

    def test_calls_share_no_state(self, problem):
        """The oracle shares the instance's immutable recourse LP across
        calls; a call's bytes do not depend on the calls made before it."""
        batch = draw_scenarios(problem.scenario_sampler, 9, 2, 50)
        point = np.array([2.0, 5.0])
        first_values, first_grads = problem.oracle(point, batch)
        for p in (1.5, 3.0, 9.5):
            problem.oracle(np.array([2.0, p]), batch[::-1])
        values, grads = problem.oracle(point, batch)
        assert values.tobytes() == first_values.tobytes()
        assert grads.tobytes() == first_grads.tobytes()

    def test_calls_go_through_the_module_name(self, monkeypatch):
        """The benchmark's bench.oracle span wraps snsqp.bench.pps.pps_oracle
        after the problem is built, so the problem's oracle looks that name
        up on every call."""
        problem = build_pps_problem()
        points, original = [], pps.pps_oracle

        def recorded(instance, point, scenarios):
            points.append(point)
            return original(instance, point, scenarios)

        monkeypatch.setattr(pps, "pps_oracle", recorded)
        batch = draw_scenarios(problem.scenario_sampler, 9, 2, 10)
        problem.oracle(X0, batch)
        aggregate(problem, np.array([2.0, 5.0]), batch)
        assert [list(point) for point in points] == [[1.5, 1.5], [2.0, 5.0]]

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

    def test_recourse_names_the_first_infeasible_row(self, instance):
        """Each infeasible row gets a cold solve of its own; the error names
        the smallest of them, whichever group it was found in."""
        bad = scenario(np.full(5, -2.0), np.full(5, 1.0))
        good = scenario(np.full(5, -1.0), np.full(5, 20.0))
        with pytest.raises(RuntimeError, match="scenario 1 ended infeasible"):
            recourse_lp(instance, 10.0, np.stack([good, bad, good, bad]))


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
