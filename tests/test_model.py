"""Model and merit arithmetic, plus the linearization-gap bound.

The quadratic-model identities are exact, so the expected numbers here are
worked out by hand.  The gap bound is probed against a piecewise-quadratic
family whose weak-convexity modulus is known in closed form.
"""

import numpy as np
import pytest

from snsqp.model import (
    ConstrainedStochasticProblem,
    LocalModel,
    merit_value,
    model_value,
    predicted_decrease,
    predicted_decrease_with_step,
    upper_c2_gap,
)
from snsqp.qp import BoxPolyhedron
from snsqp.bench.synthetic import piecewise_min, two_piece_crossing_spec


class TestModelValue:
    def test_hand_worked_example(self):
        # 1 + (2,0).(1,1) + (4/2)*|(1,1)|^2 = 1 + 2 + 4 = 7
        model = LocalModel(value_at_center=1.0, gradient=[2.0, 0.0], curvature=4.0)
        assert model_value(model, np.array([1.0, 1.0])) == pytest.approx(7.0)

    def test_zero_step_returns_center(self):
        model = LocalModel(value_at_center=-3.25, gradient=[5.0, -1.0, 2.0],
                           curvature=0.7)
        assert model_value(model, np.zeros(3)) == pytest.approx(-3.25)

    def test_quadratic_identity(self):
        """m(d) + m(-d) - 2 m(0) = curvature * |d|^2 for any d."""
        rng = np.random.default_rng(321)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            model = LocalModel(value_at_center=float(rng.normal()),
                               gradient=rng.normal(size=n),
                               curvature=float(rng.uniform(0.1, 9.0)))
            d = rng.normal(size=n)
            lhs = (model_value(model, d) + model_value(model, -d)
                   - 2.0 * model_value(model, np.zeros(n)))
            assert lhs == pytest.approx(model.curvature * float(d @ d), rel=1e-12)

    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(ValueError):
            LocalModel(value_at_center=0.0, gradient=[1.0], curvature=0.0)
        with pytest.raises(ValueError):
            LocalModel(value_at_center=0.0, gradient=[1.0], curvature=-2.0)


class TestPredictedDecrease:
    def test_hand_worked_example(self):
        # -(2,0).(1,1) - 2*|(1,1)|^2 = -2 - 4 = -6
        model = LocalModel(value_at_center=1.0, gradient=[2.0, 0.0], curvature=4.0)
        assert predicted_decrease(model, np.array([1.0, 1.0])) == pytest.approx(-6.0)

    def test_complements_model_value(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            model = LocalModel(value_at_center=float(rng.normal()),
                               gradient=rng.normal(size=n),
                               curvature=float(rng.uniform(0.2, 5.0)))
            d = rng.normal(size=n)
            expected = model_value(model, np.zeros(n)) - model_value(model, d)
            assert predicted_decrease(model, d) == pytest.approx(expected,
                                                                 abs=1e-12)

    def test_positive_at_unconstrained_minimizer(self):
        model = LocalModel(value_at_center=0.0, gradient=[3.0, -1.0],
                           curvature=2.0)
        d = -np.asarray(model.gradient) / model.curvature
        assert predicted_decrease(model, d) > 0.0

    def test_full_step_matches_beta_one(self):
        model = LocalModel(value_at_center=0.5, gradient=[1.0, -2.0],
                           curvature=3.0)
        d = np.array([0.4, 0.1])
        assert predicted_decrease_with_step(model, d, 1.0) == pytest.approx(
            predicted_decrease(model, d))

    def test_partial_step_dominates_scaled_full_step(self):
        """-beta g.d - (a/2) beta^2 |d|^2 >= beta * (-g.d - (a/2)|d|^2)."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            model = LocalModel(value_at_center=0.0, gradient=rng.normal(size=n),
                               curvature=float(rng.uniform(0.1, 4.0)))
            d = rng.normal(size=n)
            beta = float(rng.uniform(0.01, 1.0))
            assert (predicted_decrease_with_step(model, d, beta)
                    >= beta * predicted_decrease(model, d) - 1e-12)

    def test_beta_out_of_range_rejected(self):
        model = LocalModel(value_at_center=0.0, gradient=[1.0], curvature=1.0)
        for beta in (0.0, -0.5, 1.0001, 2.0):
            with pytest.raises(ValueError):
                predicted_decrease_with_step(model, np.array([1.0]), beta)


class TestMeritValue:
    def test_hand_worked_example(self):
        # 2 + 17 * (|1| + |-3|) = 2 + 68 = 70
        assert merit_value(2.0, np.array([1.0, -3.0]), 17.0) == pytest.approx(70.0)

    def test_zero_residual_is_plain_objective(self):
        assert merit_value(-4.5, np.zeros(3), 8.0) == pytest.approx(-4.5)

    def test_monotone_in_theta(self):
        c = np.array([0.3, -0.2])
        values = [merit_value(1.0, c, theta) for theta in (0.5, 1.0, 4.0, 50.0)]
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            merit_value(1.0, np.array([1.0]), 0.0)


class TestUpperC2Gap:
    def test_zero_step_gives_zero(self):
        assert upper_c2_gap(3.0, 3.0, np.array([5.0, -1.0]),
                            np.zeros(2)) == pytest.approx(0.0)

    def test_negative_absolute_value_example(self):
        # r(u) = -|u|: from x=1 to x+d=-1 with g = -sign(1) = -1 the
        # excess is (-1) - (-1) - (-1)(-2) = -2; concave kinks go down
        assert upper_c2_gap(-1.0, -1.0, np.array([-1.0]),
                            np.array([-2.0])) == pytest.approx(-2.0)

    def test_smooth_quadratic_recovers_half_curvature(self):
        # r(u) = u^2: gap = (x+d)^2 - x^2 - 2x d = d^2
        for x, d in ((0.5, 1.0), (-2.0, 0.25), (3.0, -4.0)):
            gap = upper_c2_gap(x * x, (x + d) ** 2, np.array([2.0 * x]),
                               np.array([d]))
            assert gap == pytest.approx(d * d)

    def test_bound_holds_over_piecewise_family(self):
        """gap <= (rho/2) |d|^2 with rho the largest piece curvature."""
        spec = two_piece_crossing_spec()
        rho = spec.rho
        rng = np.random.default_rng(2024)
        worst_ratio = 0.0
        for _ in range(10_000):
            x = rng.uniform(-2.0, 2.0, 2)
            d = rng.uniform(-1.0, 1.0, 2) * rng.choice([0.05, 0.5, 2.0])
            r_x, g, _ = piecewise_min(spec, x)
            r_xd, _, _ = piecewise_min(spec, x + d)
            gap = upper_c2_gap(r_x, r_xd, g, d)
            nd2 = float(d @ d)
            assert gap <= 0.5 * rho * nd2 + 1e-10
            if nd2 > 1e-12:
                worst_ratio = max(worst_ratio, gap / (0.5 * nd2))
        # the bound is sharp: some pair must come close to rho itself,
        # so no smaller modulus (e.g. rho/2) would have passed
        assert worst_ratio > 0.9 * rho

    def test_bound_sharp_along_top_curvature_direction(self):
        spec = two_piece_crossing_spec()
        rho = spec.rho
        # deep inside one piece's region, stepping along its top eigenvector
        x = np.array([-1.5, 0.0])
        d = np.array([0.05, 0.0])
        r_x, g, idx_x = piecewise_min(spec, x)
        r_xd, _, idx_xd = piecewise_min(spec, x + d)
        assert idx_x == idx_xd
        gap = upper_c2_gap(r_x, r_xd, g, d)
        assert gap == pytest.approx(0.5 * rho * float(d @ d), rel=1e-9)


def test_problem_validation():
    box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0])

    def sampler(rng, count):
        return np.zeros(count)

    def oracle(x, scenarios):
        return np.zeros(len(scenarios)), np.zeros((len(scenarios), 2))

    with pytest.raises(ValueError):
        ConstrainedStochasticProblem(dimension=0, scenario_sampler=sampler,
                                     oracle=oracle, set=box, rho_estimate=1.0)
    with pytest.raises(ValueError):
        ConstrainedStochasticProblem(dimension=3, scenario_sampler=sampler,
                                     oracle=oracle, set=box, rho_estimate=1.0)
    with pytest.raises(ValueError):
        ConstrainedStochasticProblem(dimension=2, scenario_sampler=sampler,
                                     oracle=oracle, set=box, rho_estimate=0.0)
    with pytest.raises(ValueError):
        ConstrainedStochasticProblem(dimension=2, scenario_sampler=sampler,
                                     oracle=oracle, set=box, rho_estimate=1.0,
                                     lipschitz_h=-1.0)
