"""Model-decrease and merit arithmetic.

The quadratic-model identities are exact, so the expected numbers here are
worked out by hand.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snsqp.model import ConstrainedStochasticProblem, merit_value, predicted_decrease
from snsqp.qp import BoxPolyhedron


class TestPredictedDecrease:
    def test_hand_worked_example(self):
        # -(2,0).(1,1) - 2*|(1,1)|^2 = -2 - 4 = -6
        assert predicted_decrease(np.array([2.0, 0.0]), 4.0,
                                  np.array([1.0, 1.0])) == pytest.approx(-6.0)

    def test_complements_model_value(self):
        """m(0) - m(d) for the model m(d) = v + g.d + (a/2)|d|^2."""
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            value = float(rng.normal())
            g = rng.normal(size=n)
            a = float(rng.uniform(0.2, 5.0))
            d = rng.normal(size=n)
            expected = value - (value + g @ d + 0.5 * a * (d @ d))
            assert predicted_decrease(g, a, d) == pytest.approx(expected, abs=1e-12)

    def test_positive_at_unconstrained_minimizer(self):
        g = np.array([3.0, -1.0])
        assert predicted_decrease(g, 2.0, -g / 2.0) > 0.0

    def test_partial_step_dominates_scaled_full_step(self):
        """-beta g.d - (a/2) beta^2 |d|^2 >= beta * (-g.d - (a/2)|d|^2)."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            g = rng.normal(size=n)
            a = float(rng.uniform(0.1, 4.0))
            d = rng.normal(size=n)
            beta = float(rng.uniform(0.01, 1.0))
            assert (predicted_decrease(g, a, beta * d)
                    >= beta * predicted_decrease(g, a, d) - 1e-12)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3),
           curvature=st.floats(1e-3, 1e3))
    def test_keeps_the_bits_of_matmul(self, data, n, curvature):
        """d.d by ndarray.dot writes the bytes d @ d wrote: on signed
        zeros, subnormals and sizes 1-3, the decrease is bit for bit the
        expression it replaced."""
        entry = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
                          st.floats(-1e100, 1e100), st.floats(-1e-300, 1e-300))
        g, d = (np.array([data.draw(entry) for _ in range(n)]) for _ in range(2))
        old = float(-(g @ d) - 0.5 * curvature * (d @ d))
        assert np.float64(predicted_decrease(g, curvature, d)).tobytes() == np.float64(old).tobytes()


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


@pytest.mark.parametrize("dimension", [2.0, True], ids=["float", "bool"])
def test_problem_dimension_must_be_an_integer(dimension):
    """A float dimension would run, and the CSV export fail on range(2.0)."""
    with pytest.raises(ValueError, match="^dimension must be an integer$"):
        ConstrainedStochasticProblem(
            dimension=dimension, scenario_sampler=lambda rng, count: np.zeros(count),
            oracle=lambda x, s: (np.zeros(len(s)), np.zeros((len(s), 2))),
            set=BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0]), rho_estimate=1.0)


@pytest.mark.parametrize("field, value, message", [
    ("lipschitz_h", float("nan"), "lipschitz_h must be nonnegative and finite"),
    ("lipschitz_h", float("inf"), "lipschitz_h must be nonnegative and finite"),
    ("rho_estimate", float("inf"), "rho_estimate must be positive and finite"),
], ids=["lipschitz_h-nan", "lipschitz_h-inf", "rho_estimate-inf"])
def test_problem_rejects_non_finite_scalars(field, value, message):
    """NaN and inf would otherwise get through to the step bound pi."""
    scalars = {"rho_estimate": 1.0, "lipschitz_h": 0.0, field: value}
    with pytest.raises(ValueError, match=message):
        ConstrainedStochasticProblem(
            dimension=2, scenario_sampler=lambda rng, count: np.zeros(count),
            oracle=lambda x, s: (np.zeros(len(s)), np.zeros((len(s), 2))),
            set=BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0]), **scalars)
