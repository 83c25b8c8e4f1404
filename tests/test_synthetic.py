"""Min-of-quadratics test family: closed-form values vs numeric estimates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snsqp.bench.synthetic import (
    QuadraticPiece,
    SyntheticUc2Spec,
    build_affine_equality_problem,
    build_quadratic_equality_problem,
    build_synthetic_uc2,
    piecewise_min_batch,
    two_piece_crossing_spec,
)
from snsqp.sampling import draw_scenarios

from reference import finite_difference_gradient, suggest_rho

#: one scenario with no shift: the noise mean, so its value is the expectation
NO_SHIFT = np.zeros((1, 2))


class TestPiecewiseMin:
    def test_single_piece_is_plain_quadratic(self):
        q_mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = SyntheticUc2Spec(pieces=[
            QuadraticPiece(offset=1.0, linear=np.array([1.0, -1.0]),
                           curvature_matrix=q_mat)])
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0, 2)
            (val,), (grad,), (idx,) = piecewise_min_batch(spec, x, NO_SHIFT)
            assert idx == 0
            expected = 1.0 + np.array([1.0, -1.0]) @ x + 0.5 * x @ (q_mat @ x)
            assert val == pytest.approx(expected)
            np.testing.assert_allclose(
                grad, finite_difference_gradient(
                    lambda u: piecewise_min_batch(spec, u, NO_SHIFT)[0][0], x),
                atol=1e-6)

    def test_crossing_family_attains_lower_piece(self):
        spec = two_piece_crossing_spec()
        # piece 0 has linear x1-term +2, piece 1 has -2: piece 1 wins for x1>0
        _, _, (idx_pos,) = piecewise_min_batch(spec, np.array([1.0, 0.0]), NO_SHIFT)
        assert idx_pos == 1
        _, _, (idx_neg,) = piecewise_min_batch(spec, np.array([-1.0, 0.0]), NO_SHIFT)
        assert idx_neg == 0
        # subgradient jumps across the crossing plane x1 = 0
        eps = 1e-9
        _, (g_left,), _ = piecewise_min_batch(spec, np.array([-eps, 0.3]), NO_SHIFT)
        _, (g_right,), _ = piecewise_min_batch(spec, np.array([eps, 0.3]), NO_SHIFT)
        assert abs(g_left[0] - g_right[0]) > 3.0

    def test_shift_moves_value_by_inner_product(self):
        spec = two_piece_crossing_spec()
        rng = np.random.default_rng(88)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, 2)
            shift = rng.uniform(-0.3, 0.3, 2)
            (base, shifted), _, (idx0, idx1) = piecewise_min_batch(
                spec, x, np.stack([np.zeros(2), shift]))
            # the same shift hits every piece, so the argmin cannot change
            assert idx0 == idx1
            assert shifted == pytest.approx(base + float(shift @ x), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticPiece(offset=0.0, linear=np.array([1.0, 2.0]),
                           curvature_matrix=np.eye(3))
        with pytest.raises(ValueError):
            QuadraticPiece(offset=0.0, linear=np.array([1.0, 2.0]),
                           curvature_matrix=np.array([[1.0, 3.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            QuadraticPiece(offset=0.0, linear=np.array([1.0]),
                           curvature_matrix=np.array([[-2.0]]))
        with pytest.raises(ValueError):
            SyntheticUc2Spec(pieces=[])
        with pytest.raises(ValueError, match="all pieces must share one dimension"):
            SyntheticUc2Spec(pieces=[
                QuadraticPiece(offset=0.0, linear=np.zeros(2), curvature_matrix=np.eye(2)),
                QuadraticPiece(offset=0.0, linear=np.zeros(3), curvature_matrix=np.eye(3))])


def scalar_piecewise_min(spec, x, shift):
    """The attaining-piece rule, one scenario at a time: pieces are scanned in
    order and a later one wins only when lower by more than 1e-15."""
    best_val, best_idx = np.inf, -1
    for t, piece in enumerate(spec.pieces):
        lin = piece.linear + shift
        val = piece.offset + lin @ x + 0.5 * x @ (piece.curvature_matrix @ x)
        if val < best_val - 1e-15:
            best_val, best_idx = val, t
    piece = spec.pieces[best_idx]
    return best_val, piece.linear + shift + piece.curvature_matrix @ x


#: quarter-integers keep every value exact, so distinct pieces tie often
quarters = st.integers(-8, 8).map(lambda k: k / 4)


def quarter_vectors(n):
    return st.lists(quarters, min_size=n, max_size=n).map(np.array)


@st.composite
def tie_prone_cases(draw):
    n = draw(st.integers(1, 3))
    pieces = [QuadraticPiece(offset=draw(quarters), linear=draw(quarter_vectors(n)),
                             curvature_matrix=np.diag(draw(st.lists(
                                 st.integers(0, 4), min_size=n, max_size=n))) / 2.0)
              for _ in range(draw(st.integers(1, 4)))]
    shifts = np.array(draw(st.lists(quarter_vectors(n), min_size=1, max_size=6)))
    return SyntheticUc2Spec(pieces=pieces), draw(quarter_vectors(n)), shifts


class TestBatchOracleTieRule:
    @settings(max_examples=200, deadline=None)
    @given(case=tie_prone_cases())
    def test_matches_scalar_scan(self, case):
        spec, x, shifts = case
        values, grads = build_synthetic_uc2(spec, noise_width=0.0).oracle(x, shifts)
        for i, shift in enumerate(shifts):
            want_value, want_grad = scalar_piecewise_min(spec, x, shift)
            assert values[i] == want_value
            np.testing.assert_array_equal(grads[i], want_grad)

    def test_exact_tie_goes_to_lowest_index(self):
        """On the crossing plane x1 = 0 both pieces take the same value, with
        x1-derivatives +2 and -2; every scenario must get piece 0's."""
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.0)
        shifts = np.array([[0.0, 0.0], [0.0, 0.1], [0.25, -0.1]])
        _, grads = problem.oracle(np.array([0.0, 0.3]), shifts)
        np.testing.assert_array_equal(grads[:, 0], 2.0 + shifts[:, 0])

    def test_later_piece_needs_a_margin_above_1e_15(self):
        def spec(offset):
            flat = np.zeros((1, 1))
            return SyntheticUc2Spec(pieces=[
                QuadraticPiece(offset=0.0, linear=np.array([1.0]), curvature_matrix=flat),
                QuadraticPiece(offset=offset, linear=np.array([-1.0]),
                               curvature_matrix=flat)])

        x, shifts = np.zeros(1), np.zeros((2, 1))
        _, grads = build_synthetic_uc2(spec(-1e-15), 0.0).oracle(x, shifts)
        np.testing.assert_array_equal(grads[:, 0], [1.0, 1.0])
        _, grads = build_synthetic_uc2(spec(-4e-15), 0.0).oracle(x, shifts)
        np.testing.assert_array_equal(grads[:, 0], [-1.0, -1.0])


class TestTrueExpectation:
    def test_matches_monte_carlo(self):
        """Zero-mean shifts leave the expectation at the unshifted value."""
        spec = two_piece_crossing_spec()
        problem = build_synthetic_uc2(spec, noise_width=0.6)
        rng = np.random.default_rng(5)
        scenarios = draw_scenarios(problem.scenario_sampler, 12, 1, 40_000)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, 2)
            vals, _ = problem.oracle(x, scenarios)
            (true_val,), _, _ = piecewise_min_batch(spec, x, NO_SHIFT)
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean() - true_val) <= 4.0 * se + 1e-12

    def test_gradient_matches_finite_differences_away_from_kink(self):
        spec = two_piece_crossing_spec()
        for x in (np.array([1.2, -0.7]), np.array([-0.9, 1.1])):
            _, (grad,), _ = piecewise_min_batch(spec, x, NO_SHIFT)
            fd = finite_difference_gradient(
                lambda u: piecewise_min_batch(spec, u, NO_SHIFT)[0][0], x)
            np.testing.assert_allclose(grad, fd, atol=1e-6)


class TestRho:
    def test_rho_is_max_eigenvalue(self):
        spec = two_piece_crossing_spec()
        assert spec.rho == pytest.approx(4.0)
        tilted = SyntheticUc2Spec(pieces=[
            QuadraticPiece(offset=0.0, linear=np.zeros(2),
                           curvature_matrix=np.array([[2.0, 1.0], [1.0, 2.0]]))])
        assert tilted.rho == pytest.approx(3.0)

    def test_suggest_rho_brackets_true_modulus(self):
        spec = two_piece_crossing_spec()
        problem = build_synthetic_uc2(spec, noise_width=0.4)
        est = suggest_rho(problem, n_pairs=20_000, seed=3)
        # sampled ratios never exceed the sharp modulus and get close to it
        assert est <= spec.rho + 1e-9
        assert est >= 0.8 * spec.rho

    def test_flat_family_gets_positive_floor(self):
        flat = SyntheticUc2Spec(pieces=[
            QuadraticPiece(offset=0.0, linear=np.array([1.0]),
                           curvature_matrix=np.zeros((1, 1)))])
        problem = build_synthetic_uc2(flat, noise_width=0.0)
        assert problem.rho_estimate > 0.0

    def test_negative_noise_width_rejected(self):
        with pytest.raises(ValueError):
            build_synthetic_uc2(two_piece_crossing_spec(), noise_width=-0.1)


class TestUpperC2Gap:
    """The linearization excess r(x+d) - r(x) - g.d against (rho/2)|d|^2."""

    def test_bound_holds_over_piecewise_family(self):
        """gap <= (rho/2) |d|^2 with rho the largest piece curvature."""
        spec = two_piece_crossing_spec()
        rho = spec.rho
        rng = np.random.default_rng(2024)
        worst_ratio = 0.0
        for _ in range(10_000):
            x = rng.uniform(-2.0, 2.0, 2)
            d = rng.uniform(-1.0, 1.0, 2) * rng.choice([0.05, 0.5, 2.0])
            (r_x,), (g,), _ = piecewise_min_batch(spec, x, NO_SHIFT)
            (r_xd,), _, _ = piecewise_min_batch(spec, x + d, NO_SHIFT)
            gap = r_xd - r_x - g @ d
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
        (r_x,), (g,), (idx_x,) = piecewise_min_batch(spec, x, NO_SHIFT)
        (r_xd,), _, (idx_xd,) = piecewise_min_batch(spec, x + d, NO_SHIFT)
        assert idx_x == idx_xd
        gap = r_xd - r_x - g @ d
        assert gap == pytest.approx(0.5 * rho * float(d @ d), rel=1e-9)


class TestEqualityCompanions:
    def test_affine_problem_shapes_and_constants(self):
        problem = build_affine_equality_problem()
        assert problem.dimension == 2
        assert problem.lipschitz_h == 0.0
        c, jac = problem.eq_constraints(np.array([0.25, 0.5]))
        assert c.shape == (1,) and jac.shape == (2, 1)
        assert c[0] == pytest.approx(-0.25)
        np.testing.assert_allclose(jac, [[1.0], [1.0]])
        (val,), (grad,) = problem.oracle(np.array([0.7, 0.0]), np.array([0.2]))
        assert val == pytest.approx(-0.5)
        np.testing.assert_allclose(grad, [-1.0, 0.0])

    def test_quadratic_problem_shapes_and_constants(self):
        problem = build_quadratic_equality_problem()
        assert problem.lipschitz_h == pytest.approx(2.0)
        assert problem.rho_estimate == pytest.approx(2.0)
        x = np.array([0.5, -1.0])
        c, jac = problem.eq_constraints(x)
        assert c[0] == pytest.approx(-0.75)
        np.testing.assert_allclose(jac, [[1.0], [0.0]])
        xi = np.array([0.1, -0.1])
        (val,), (grad,) = problem.oracle(x, xi[None, :])
        diff = x - xi
        assert val == pytest.approx(float(diff @ diff))
        np.testing.assert_allclose(grad, 2.0 * diff)

    def test_constraint_jacobians_match_finite_differences(self):
        for problem in (build_affine_equality_problem(),
                        build_quadratic_equality_problem()):
            x = np.array([0.8, -0.3])
            _, jac = problem.eq_constraints(x)
            fd = finite_difference_gradient(
                lambda u: problem.eq_constraints(u)[0][0], x)
            np.testing.assert_allclose(jac[:, 0], fd, atol=1e-6)
