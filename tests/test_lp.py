"""Linear programming kernel tests.

The ground truth comes from two independent sources: brute-force vertex
enumeration (tiny instances) and scipy's HiGHS solver (larger random ones).
Dual variables are checked both through the KKT residuals and by pricing
finite right-hand-side perturbations.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st, target
from scipy.optimize import linprog

from snsqp import lp
from snsqp.lp import (
    LpProblem,
    LpStatus,
    solve_lp,
    solve_lp_multi_rhs,
)

from reference import batch_row, enumerate_lp, verify_lp


def random_instance(rng, q, s, inf_uppers=False):
    """A feasible LP with a bounded optimum.

    Feasibility: the right-hand side is built from an interior point.
    Boundedness: costs on unbounded-above coordinates are kept positive.
    """
    lower = rng.uniform(-2.0, 0.0, q)
    width = rng.uniform(0.5, 3.0, q)
    upper = lower + width
    cost = rng.normal(size=q)
    if inf_uppers:
        drop = rng.random(q) < 0.4
        upper = np.where(drop, np.inf, upper)
        cost = np.where(drop, np.abs(cost) + 0.1, cost)
    interior = lower + width * rng.uniform(0.2, 0.8, q)
    a_mat = rng.normal(size=(s, q))
    rhs = a_mat @ interior + rng.uniform(0.1, 2.0, s)
    return LpProblem(cost=cost, ineq_matrix=a_mat, ineq_rhs=rhs,
                     lower=lower, upper=upper)


def shared_rows_family(seed, q, s, n_rhs, inf_uppers):
    """LPs that share cost, rows and bounds, and right-hand sides for them.

    Each right-hand side is built from its own point spread over the whole
    box (width 3 on coordinates without an upper bound), so different rows
    often need different optimal bases.
    """
    rng = np.random.default_rng(seed)
    problem = random_instance(rng, q, s, inf_uppers=inf_uppers)
    width = np.where(np.isfinite(problem.upper), problem.upper - problem.lower, 3.0)
    points = problem.lower + width * rng.uniform(0.0, 1.0, (n_rhs, q))
    rhs = points @ problem.ineq_matrix.T + rng.uniform(0.0, 2.0, (n_rhs, s))
    return problem, rhs


class TestMultiRhs:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.integers(1, 6),
           s=st.integers(0, 5), n_rhs=st.integers(1, 12),
           inf_uppers=st.booleans())
    def test_every_row_matches_its_own_solve(self, seed, q, s, n_rhs, inf_uppers):
        problem, rhs = shared_rows_family(seed, q, s, n_rhs, inf_uppers)
        batch = solve_lp_multi_rhs(problem, rhs)
        target(float(len(batch.solves)), label="cold solves")
        assert 1 <= len(batch.solves) <= n_rhs
        for i in range(n_rhs):
            row_problem = replace(problem, ineq_rhs=rhs[i])
            cold = solve_lp(row_problem)
            row = batch_row(problem, batch, i)
            assert row.status is LpStatus.OPTIMAL
            assert abs(batch.objective[i] - cold.objective) <= 1e-8
            residuals = verify_lp(row_problem, row)
            assert residuals["gap"] <= 1e-8
            assert residuals["primal_res"] <= 1e-8
            assert residuals["dual_res"] <= 1e-7

    def test_rejected_rows_get_a_cold_solve(self):
        """max x1 + x2 under x1 <= b1, x2 <= b2, x1 + x2 <= b3 in [0, 10]^2:
        the first rhs has the two bound rows active, the second the sum row."""
        problem = LpProblem(cost=[-1.0, -1.0],
                            ineq_matrix=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                            ineq_rhs=np.zeros(3), lower=[0.0, 0.0],
                            upper=[10.0, 10.0])
        rhs = np.array([[1.0, 1.0, 5.0], [4.0, 4.0, 5.0], [2.0, 1.5, 9.0]])
        batch = solve_lp_multi_rhs(problem, rhs)
        assert len(batch.solves) == 2
        np.testing.assert_allclose(batch.objective, [-2.0, -5.0, -3.5], atol=1e-12)
        # the third row reused the first basis, and with it its duals
        assert batch.group[2] == batch.group[0]

    def test_infeasible_row_keeps_the_others(self):
        problem = LpProblem(cost=[1.0], ineq_matrix=[[-1.0]], ineq_rhs=[0.0],
                            lower=[0.0], upper=[10.0])
        batch = solve_lp_multi_rhs(problem, np.array([[-1.0], [-20.0], [-2.0]]))
        assert [batch.solves[g].status for g in batch.group] == [
            LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.OPTIMAL]
        np.testing.assert_allclose(batch.objective[[0, 2]], [1.0, 2.0])
        assert np.isnan(batch.objective[1])

    def test_rhs_width_must_match_rows(self):
        problem = LpProblem(cost=[1.0], ineq_matrix=[[1.0]], ineq_rhs=[1.0],
                            lower=[0.0], upper=[1.0])
        with pytest.raises(ValueError):
            solve_lp_multi_rhs(problem, np.ones((3, 2)))


class TestAgainstVertexEnumeration:
    def test_small_boxed_instances(self):
        rng = np.random.default_rng(8841)
        for trial in range(300):
            q = int(rng.integers(2, 6))
            s = int(rng.integers(0, 5))
            problem = random_instance(rng, q, s)
            sol = solve_lp(problem)
            assert sol.status is LpStatus.OPTIMAL, f"trial {trial}"
            truth = enumerate_lp(problem)
            assert abs(sol.objective - truth) <= 1e-8 * (1.0 + abs(truth)), (
                f"trial {trial}: {sol.objective} vs {truth}")
            res = verify_lp(problem, sol)
            assert res["primal_res"] <= 1e-8
            assert res["dual_res"] <= 1e-7
            assert res["gap"] <= 1e-7 * (1.0 + abs(truth))

    def test_unbounded_above_instances(self):
        rng = np.random.default_rng(932)
        for _ in range(120):
            q = int(rng.integers(2, 5))
            s = int(rng.integers(1, 4))
            problem = random_instance(rng, q, s, inf_uppers=True)
            sol = solve_lp(problem)
            assert sol.status is LpStatus.OPTIMAL
            # replace inf by a huge finite bound; optimum must agree
            capped = LpProblem(cost=problem.cost, ineq_matrix=problem.ineq_matrix,
                               ineq_rhs=problem.ineq_rhs, lower=problem.lower,
                               upper=np.where(np.isfinite(problem.upper),
                                              problem.upper, 1e6))
            ref = solve_lp(capped)
            assert abs(sol.objective - ref.objective) <= 1e-7


class TestAgainstScipy:
    def test_random_instances(self):
        rng = np.random.default_rng(5150)
        for trial in range(150):
            q = int(rng.integers(3, 11))
            s = int(rng.integers(1, 9))
            problem = random_instance(rng, q, s, inf_uppers=bool(trial % 3 == 0))
            sol = solve_lp(problem)
            assert sol.status is LpStatus.OPTIMAL
            ref = linprog(problem.cost, A_ub=problem.ineq_matrix,
                          b_ub=problem.ineq_rhs,
                          bounds=list(zip(problem.lower, problem.upper)),
                          method="highs")
            assert ref.status == 0
            assert abs(sol.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun)), (
                f"trial {trial}")

    def test_infeasible_matches_scipy(self):
        problem = LpProblem(cost=[1.0, 1.0],
                            ineq_matrix=[[1.0, 1.0], [-1.0, -1.0]],
                            ineq_rhs=[-1.0, -1.0],
                            lower=[-5.0, -5.0], upper=[5.0, 5.0])
        assert solve_lp(problem).status is LpStatus.INFEASIBLE
        ref = linprog(problem.cost, A_ub=problem.ineq_matrix,
                      b_ub=problem.ineq_rhs,
                      bounds=list(zip(problem.lower, problem.upper)),
                      method="highs")
        assert ref.status == 2


def test_duals_price_rhs_perturbations():
    """duals[i] = -d(objective)/d(rhs[i]) at a nondegenerate optimum."""
    rng = np.random.default_rng(77)
    problem = random_instance(rng, 4, 3)
    sol = solve_lp(problem)
    assert sol.status is LpStatus.OPTIMAL
    h = 1e-6
    for i in range(problem.n_rows):
        rhs = problem.ineq_rhs.copy()
        rhs[i] += h
        bumped = solve_lp(LpProblem(cost=problem.cost,
                                    ineq_matrix=problem.ineq_matrix,
                                    ineq_rhs=rhs, lower=problem.lower,
                                    upper=problem.upper))
        fd = (bumped.objective - sol.objective) / h
        assert abs(fd + sol.duals[i]) <= 1e-4 * (1.0 + abs(sol.duals[i]))


def test_bound_duals_price_bound_perturbations():
    """Reduced cost r_j = c_j + (A^T mu)_j prices the lower bound:
    dV/d(lower_j) = max(r_j, 0)."""
    rng = np.random.default_rng(4021)
    problem = random_instance(rng, 3, 2)
    sol = solve_lp(problem)
    reduced = problem.cost + problem.ineq_matrix.T @ sol.duals
    h = 1e-6
    for j in range(problem.n_vars):
        lower = problem.lower.copy()
        lower[j] += h
        bumped = solve_lp(LpProblem(cost=problem.cost,
                                    ineq_matrix=problem.ineq_matrix,
                                    ineq_rhs=problem.ineq_rhs, lower=lower,
                                    upper=problem.upper))
        fd = (bumped.objective - sol.objective) / h
        assert abs(fd - max(reduced[j], 0.0)) <= 1e-4


def test_complementarity_and_dual_signs():
    rng = np.random.default_rng(31313)
    for _ in range(50):
        problem = random_instance(rng, 4, 4)
        sol = solve_lp(problem)
        slack = problem.ineq_rhs - problem.ineq_matrix @ sol.primal
        assert np.min(sol.duals) >= -1e-9
        assert np.max(np.abs(sol.duals * slack)) <= 1e-7


class TestStatuses:
    def test_infeasible_rows(self):
        problem = LpProblem(cost=[1.0], ineq_matrix=[[1.0]], ineq_rhs=[-3.0],
                            lower=[0.0], upper=[10.0])
        sol = solve_lp(problem)
        assert sol.status is LpStatus.INFEASIBLE
        assert np.isnan(sol.objective)

    def test_unbounded_ray(self):
        problem = LpProblem(cost=[-1.0, 0.0], ineq_matrix=[[0.0, 1.0]],
                            ineq_rhs=[4.0], lower=[0.0, 0.0],
                            upper=[np.inf, np.inf])
        assert solve_lp(problem).status is LpStatus.UNBOUNDED

    def test_bounded_by_row_not_box(self):
        # the cost pushes along +x1, only the row stops it
        problem = LpProblem(cost=[-1.0, -1.0], ineq_matrix=[[1.0, 1.0]],
                            ineq_rhs=[2.0], lower=[0.0, 0.0],
                            upper=[np.inf, np.inf])
        sol = solve_lp(problem)
        assert sol.status is LpStatus.OPTIMAL
        assert abs(sol.objective + 2.0) <= 1e-9


class TestBoxOnlyPath:
    def test_signs_pick_bounds(self):
        problem = LpProblem(cost=[1.0, -2.0, 0.0], ineq_matrix=np.zeros((0, 3)),
                            ineq_rhs=np.zeros(0), lower=[-1.0, -1.0, -1.0],
                            upper=[2.0, 2.0, 2.0])
        sol = solve_lp(problem)
        np.testing.assert_allclose(sol.primal, [-1.0, 2.0, -1.0])
        assert sol.objective == pytest.approx(-5.0)

    def test_negative_cost_infinite_upper_unbounded(self):
        problem = LpProblem(cost=[-1.0], ineq_matrix=np.zeros((0, 1)),
                            ineq_rhs=np.zeros(0), lower=[0.0], upper=[np.inf])
        assert solve_lp(problem).status is LpStatus.UNBOUNDED


def test_degenerate_vertex_terminates():
    """Beale's cycling example; Dantzig pricing alone loops on it."""
    problem = LpProblem(
        cost=[-0.75, 150.0, -0.02, 6.0],
        ineq_matrix=[[0.25, -60.0, -0.04, 9.0],
                     [0.5, -90.0, -0.02, 3.0],
                     [0.0, 0.0, 1.0, 0.0]],
        ineq_rhs=[0.0, 0.0, 1.0],
        lower=np.zeros(4),
        upper=np.full(4, np.inf),
    )
    sol = solve_lp(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_fixed_variables():
    problem = LpProblem(cost=[1.0, 1.0], ineq_matrix=[[1.0, 1.0]],
                        ineq_rhs=[5.0], lower=[2.0, 0.0], upper=[2.0, 3.0])
    sol = solve_lp(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(2.0)
    assert sol.primal[1] == pytest.approx(0.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        LpProblem(cost=[1.0], ineq_matrix=[[1.0, 2.0]], ineq_rhs=[1.0],
                  lower=[0.0], upper=[1.0])
    with pytest.raises(ValueError):
        LpProblem(cost=[1.0], ineq_matrix=np.zeros((0, 1)), ineq_rhs=np.zeros(0),
                  lower=[-np.inf], upper=[1.0])
    with pytest.raises(ValueError):
        LpProblem(cost=[1.0], ineq_matrix=np.zeros((0, 1)), ineq_rhs=np.zeros(0),
                  lower=[2.0], upper=[1.0])
    with pytest.raises(ValueError, match="bounds must have the same length as cost"):
        LpProblem(cost=[1.0], ineq_matrix=np.zeros((0, 1)), ineq_rhs=np.zeros(0),
                  lower=[0.0, 0.0], upper=[1.0])


class TestNonFiniteInputs:
    """min -x0 - x1  s.t.  x0 + x1 <= 4  on [0, 3]^2, with one entry made
    non-finite.  Before these checks a nan upper bound made its variable
    fixed (OPTIMAL at [0, 4]), a nan cost gave a nan objective, and a nan
    right-hand side failed inside the ratio test."""

    @staticmethod
    def make(**changes):
        data = dict(cost=[-1.0, -1.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[4.0],
                    lower=[0.0, 0.0], upper=[3.0, 3.0])
        data.update(changes)
        return LpProblem(**data)

    @pytest.mark.parametrize("changes, message", [
        ({"upper": [np.nan, 5.0]}, "upper bounds must not be nan"),
        ({"cost": [np.nan, -1.0]}, "cost must be finite"),
        ({"cost": [-np.inf, -1.0]}, "cost must be finite"),
        ({"ineq_rhs": [np.nan]}, "ineq_rhs must be finite"),
        ({"ineq_rhs": [np.inf]}, "ineq_rhs must be finite"),
        ({"ineq_matrix": [[1.0, np.nan]]}, "ineq_matrix must be finite"),
        ({"ineq_matrix": [[np.inf, 1.0]]}, "ineq_matrix must be finite"),
    ])
    def test_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            self.make(**changes)

    def test_infinite_upper_still_allowed(self):
        sol = solve_lp(self.make(upper=[np.inf, 3.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-4.0)

    def test_with_vectors_checks_the_new_vectors(self):
        problem = self.make()
        with pytest.raises(ValueError, match="cost must be finite"):
            problem.with_vectors(cost=[np.nan, -1.0])
        with pytest.raises(ValueError, match="ineq_rhs must be finite"):
            problem.with_vectors(ineq_rhs=[np.nan])
        with pytest.raises(ValueError, match="length 2"):
            problem.with_vectors(cost=[-1.0])
        moved = problem.with_vectors(ineq_rhs=[2.0])
        assert solve_lp(moved).objective == pytest.approx(-2.0)
        assert moved.columns is problem.columns
        assert solve_lp(problem).objective == pytest.approx(-4.0)

    def test_multi_rhs_checks_the_batch(self):
        problem = self.make()
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="rhs must be finite"):
                solve_lp_multi_rhs(problem, np.array([[4.0], [bad]]))

    def test_problem_arrays_are_read_only_copies(self):
        cost = np.array([-1.0, -1.0])
        problem = self.make(cost=cost)
        cost[0] = 5.0
        assert problem.cost[0] == -1.0
        with pytest.raises(ValueError):
            problem.ineq_rhs[0] = 1.0


def assert_same_solution(actual, expected):
    """Status, pivots, objective, primal, duals, basis and at_upper agree bit for bit."""
    assert (actual.status, actual.iterations) == (expected.status, expected.iterations)
    for name in ("objective", "primal", "duals", "basis", "at_upper"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert (got is None) is (want is None), name
        if got is not None:
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape, got.tobytes()) == (
                want.dtype, want.shape, want.tobytes()), name


@st.composite
def kernel_lps(draw):
    """Bounded feasible LPs that reach every branch of the simplex kernel.

    Finite upper bounds on coordinates with negative cost give bound flips;
    rows with only negative coefficients exclude the lower corner, so their
    shifted right-hand side is negative and phase 1 adds an artificial;
    small-integer data gives degenerate vertices, so ratio ties; an LP
    without rows moves only by bound flips; in some examples about 30% of
    the bounded coordinates are fixed (lower == upper), so pricing must
    pass over columns that cannot move.  Feasibility: every row holds at a
    point inside the box, on the fixed value of a fixed coordinate.
    Boundedness: coordinates without an upper bound have positive cost.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    q = draw(st.integers(1, 5))
    s = draw(st.integers(0, 4))
    unbounded_share = draw(st.sampled_from([0.0, 0.4, 1.0]))
    fixed_share = draw(st.sampled_from([0.0, 0.3]))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        lower = rng.integers(-2, 1, q).astype(float)
        width = 2.0 * rng.integers(1, 3, q)
        point = lower + width / 2
        cost = rng.integers(-3, 4, q).astype(float)
        a_mat = rng.integers(-2, 3, (s, q)).astype(float)
        slack = rng.integers(0, 2, s).astype(float)
    else:
        lower = rng.uniform(-2.0, 0.0, q)
        width = rng.uniform(0.5, 3.0, q)
        point = lower + width * rng.uniform(0.1, 0.9, q)
        cost = rng.normal(size=q)
        a_mat = rng.normal(size=(s, q))
        slack = rng.uniform(0.0, 0.5, s)
    unbounded = rng.random(q) < unbounded_share
    upper = np.where(unbounded, np.inf, lower + width)
    cost = np.where(unbounded, np.abs(cost) + 0.5, cost)
    covering = rng.random(s) < 0.5
    a_mat[covering] = -np.abs(a_mat[covering])
    fixed = ~unbounded & (rng.random(q) < fixed_share)
    lower, upper = np.where(fixed, point, lower), np.where(fixed, point, upper)
    return LpProblem(cost=cost, ineq_matrix=a_mat, ineq_rhs=a_mat @ point + slack,
                     lower=lower, upper=upper)


class TestKernelBranches:
    @settings(max_examples=150, deadline=None)
    @given(problem=kernel_lps())
    def test_bland_from_the_first_pivot_and_refactor_every_pivot(self, problem):
        """Bland's rule from pivot 0 and a fresh basis inverse after every
        pivot, against vertex enumeration."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp, "BLAND_AFTER_FACTOR", 0)
            patch.setattr(lp, "REFACTOR_EVERY", 1)
            sol = solve_lp(problem)
        target(float(sol.iterations), label="pivots")
        assert sol.status is LpStatus.OPTIMAL
        assert abs(sol.objective - enumerate_lp(problem)) <= 1e-8
        residuals = verify_lp(problem, sol)
        assert residuals["primal_res"] <= 1e-8
        assert residuals["dual_res"] <= 1e-8
        assert residuals["gap"] <= 1e-8


class TestStart:
    @settings(max_examples=150, deadline=None)
    @given(problem=kernel_lps(), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([0.0, 0.01, 0.3, 3.0]))
    def test_start_from_a_nearby_optimum(self, problem, seed, scale):
        """The start is the cold optimum of a relaxed right-hand side: the
        LP's own optimal basis when scale is 0, else one that may not be
        primal feasible here (then the solve falls back to the slack basis)."""
        shift = scale * np.random.default_rng(seed).uniform(0.0, 1.0, problem.n_rows)
        nearby = solve_lp(problem.with_vectors(ineq_rhs=problem.ineq_rhs + shift))
        assert nearby.status is LpStatus.OPTIMAL
        sol = solve_lp(problem, (nearby.basis, nearby.at_upper))
        target(float(solve_lp(problem).iterations - sol.iterations), label="pivots saved")
        assert sol.status is LpStatus.OPTIMAL
        assert abs(sol.objective - enumerate_lp(problem)) <= 1e-8
        residuals = verify_lp(problem, sol)
        assert residuals["primal_res"] <= 1e-8
        assert residuals["dual_res"] <= 1e-8
        assert residuals["gap"] <= 1e-8
        if scale == 0.0:
            assert sol.iterations == 0

    @staticmethod
    def bound_rows(rhs):
        """max x1 + x2 under x1 <= b1, x2 <= b2, x1 + x2 <= b3 on [0, 10]^2.
        Columns: x1, x2, then the slacks s1, s2, s3."""
        return LpProblem(cost=[-1.0, -1.0],
                         ineq_matrix=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                         ineq_rhs=rhs, lower=[0.0, 0.0], upper=[10.0, 10.0])

    @pytest.mark.parametrize("start", [
        pytest.param(([0, 2, 4], []), id="singular"),          # x1 = s1 + s3
        pytest.param(([0, 1, 5], []), id="out-of-range"),
        pytest.param(([0, -1, 4], []), id="negative"),
        pytest.param(([0, 1], []), id="wrong-length"),
        pytest.param(([0, 1, 4], []), id="primal-infeasible"),  # s3 = 5 - 4 - 4
        pytest.param(([0, 0, 4], []), id="repeated"),
        pytest.param(([0, 3, 4], [2]), id="slack-at-upper"),
        pytest.param(([2, 3, 4], [0, 0]), id="repeated-at-upper"),
        pytest.param(([0, 3, 4], [0]), id="basic-at-upper"),
        pytest.param(([0.0, 1.0, 4.0], []), id="float-indices"),
    ])
    def test_unusable_start_gives_the_cold_solve(self, start):
        problem = self.bound_rows([4.0, 4.0, 5.0])
        cold = solve_lp(problem)
        sol = solve_lp(problem, start)
        assert (sol.status, sol.objective, sol.iterations) == (
            cold.status, cold.objective, cold.iterations)
        np.testing.assert_array_equal(sol.basis, cold.basis)

    def test_ill_conditioned_start_gives_the_cold_solve(self):
        """A basis that inverts but whose 1-norm condition number passes
        START_CONDITION_LIMIT is no Start, and the solve from that pair is
        the cold solve bit for bit.  Columns x1 and x2 of rows (1, 1) and
        (1, 1 + 1e-13) make such a basis."""
        problem = LpProblem(cost=[-1.0, -1.0], ineq_matrix=[[1.0, 1.0], [1.0, 1.0 + 1e-13]],
                            ineq_rhs=[1.0, 1.0], lower=[0.0, 0.0], upper=[10.0, 10.0])
        pair = ([0, 1], [])
        matrix = problem.columns[:, pair[0]]
        np.linalg.inv(matrix)  # invertible: the inverse does not raise
        assert np.linalg.cond(matrix, 1) > lp.START_CONDITION_LIMIT
        assert lp.check_start(problem, pair) is None
        assert_same_solution(solve_lp(problem, pair), solve_lp(problem))

    def test_infeasible_problem_with_a_start(self):
        problem = LpProblem(cost=[1.0, 1.0],
                            ineq_matrix=[[1.0, 1.0], [-1.0, -1.0]],
                            ineq_rhs=[-1.0, -1.0],
                            lower=[-5.0, -5.0], upper=[5.0, 5.0])
        cold = solve_lp(problem)
        sol = solve_lp(problem, ([0, 3], []))
        assert sol.status is cold.status is LpStatus.INFEASIBLE
        assert sol.iterations == cold.iterations
        assert np.isnan(sol.objective)

    @settings(max_examples=150, deadline=None)
    @given(problem=kernel_lps(), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([0.0, 0.01, 0.3, 3.0]))
    def test_checked_start_solves_as_its_pair(self, problem, seed, scale):
        """A Start that check_start made once gives bit for bit what its
        (basis, at_upper) pair gives, solve after solve: on this LP, and on
        a copy with a new cost, which shares its columns and pivots away
        from the start.  A Start checked on another LpProblem's columns,
        even equal ones, is checked again, so it gives the pair's solve too."""
        rng = np.random.default_rng(seed)
        nearby = solve_lp(problem.with_vectors(
            ineq_rhs=problem.ineq_rhs + scale * rng.uniform(0.0, 1.0, problem.n_rows)))
        pair = (nearby.basis, nearby.at_upper)
        held = lp.check_start(problem, pair)
        fields = (problem.cost, problem.ineq_matrix, problem.ineq_rhs, problem.lower,
                  problem.upper)
        equal = lp.check_start(LpProblem(*fields), pair)
        doubled = lp.check_start(LpProblem(fields[0], 2.0 * fields[1], *fields[2:]), pair)
        assert (held is None) is (equal is None)
        cost = rng.normal(size=problem.n_vars)
        recosted = problem.with_vectors(cost=np.where(np.isinf(problem.upper),
                                                      np.abs(cost) + 0.5, cost))
        for target_lp in (problem, recosted):
            expected = solve_lp(target_lp, pair)
            for start in (held, held, equal) + (() if doubled is None else (doubled,)):
                assert_same_solution(solve_lp(target_lp, start), expected)

    def test_multi_rhs_passes_the_start_to_its_cold_solves(self, monkeypatch):
        """The first row fits the start; the second row is rejected, and its
        cold solve falls back to the slack basis, since the start does not
        fit it either."""
        problem = self.bound_rows(np.zeros(3))
        start = (np.array([2, 3, 1]), np.array([0]))   # x1 at 10, x2 basic
        rhs = np.array([[10.0, 9.0, 19.0], [1.0, 1.0, 5.0]])
        starts = []

        def solve(problem, start=None):
            starts.append(start)
            return solve_lp(problem, start)

        monkeypatch.setattr(lp, "solve_lp", solve)
        batch = solve_lp_multi_rhs(problem, rhs, start)
        assert len(batch.solves) == len(starts) == 2
        assert all(given is start for given in starts)
        np.testing.assert_allclose(batch.objective, [-19.0, -2.0], atol=1e-12)



class TestFixedColumnStart:
    """Starts that hold a fixed column basic or nonbasic at its upper bound.

    A cold solve never leaves a fixed column there, so these starts come
    from fixing a basic or at-upper structural variable of a cold optimum
    at its optimal value (lower = upper = value).
    """

    @staticmethod
    def fixed_at_optimum(problem, pick):
        cold = solve_lp(problem)
        assert cold.status is LpStatus.OPTIMAL
        q = problem.n_vars
        held = np.union1d(cold.basis[cold.basis < q], cold.at_upper)
        held = held[problem.lower[held] < problem.upper[held]]
        assume(held.size)
        j = held[pick % held.size]
        lower, upper = problem.lower.copy(), problem.upper.copy()
        lower[j] = upper[j] = cold.primal[j]
        fixed = LpProblem(cost=problem.cost, ineq_matrix=problem.ineq_matrix,
                          ineq_rhs=problem.ineq_rhs, lower=lower, upper=upper)
        return fixed, (cold.basis, cold.at_upper)

    @staticmethod
    def certify(problem, sol):
        assert sol.status is LpStatus.OPTIMAL
        assert abs(sol.objective - enumerate_lp(problem)) <= 1e-8
        residuals = verify_lp(problem, sol)
        assert residuals["primal_res"] <= 1e-8
        assert residuals["dual_res"] <= 1e-8
        assert residuals["gap"] <= 1e-8

    @settings(max_examples=150, deadline=None)
    @given(problem=kernel_lps(), pick=st.integers(0, 2 ** 16))
    def test_optimal_start_needs_no_pivot(self, problem, pick):
        """The cold optimum stays optimal once one of its columns is fixed."""
        fixed, start = self.fixed_at_optimum(problem, pick)
        sol = solve_lp(fixed, start)
        self.certify(fixed, sol)
        assert sol.iterations == 0

    @settings(max_examples=150, deadline=None)
    @given(problem=kernel_lps(), pick=st.integers(0, 2 ** 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_new_cost_pivots_away_from_the_start(self, problem, pick, seed):
        """A fresh cost makes the start primal feasible but not optimal, so
        phase 2 pivots from a basis that holds the fixed column; costs stay
        positive on coordinates without an upper bound."""
        fixed, start = self.fixed_at_optimum(problem, pick)
        cost = np.random.default_rng(seed).normal(size=fixed.n_vars)
        cost = np.where(np.isinf(fixed.upper), np.abs(cost) + 0.5, cost)
        fixed = fixed.with_vectors(cost=cost)
        sol = solve_lp(fixed, start)
        target(float(sol.iterations), label="pivots")
        self.certify(fixed, sol)


def pinned_lps(integral):
    """Seeded LPs with finite and infinite uppers and rows with negative
    shifted right-hand sides; with integral data most vertices are
    degenerate, so the ratio test ties often."""
    rng = np.random.default_rng(31 if integral else 2718)
    for _ in range(300 if integral else 200):
        if integral:
            q = int(rng.integers(2, 6))
            s = int(rng.integers(2, 6))
            lower = rng.integers(-2, 1, q).astype(float)
            width = 2.0 * rng.integers(1, 3, q)
            upper = np.where(rng.random(q) < 0.3, np.inf, lower + width)
            cost = rng.integers(-3, 4, q).astype(float)
            cost = np.where(np.isinf(upper), np.abs(cost) + 1.0, cost)
            a_mat = rng.integers(-2, 3, (s, q)).astype(float)
            rhs = a_mat @ (lower + width / 2) + rng.integers(0, 2, s)
        else:
            q = int(rng.integers(1, 7))
            s = int(rng.integers(1, 6))
            lower = rng.uniform(-2, 0, q)
            width = rng.uniform(0.5, 3, q)
            upper = np.where(rng.random(q) < 0.4, np.inf, lower + width)
            cost = rng.normal(size=q)
            cost = np.where(np.isinf(upper), np.abs(cost) + 0.1, cost)
            a_mat = rng.normal(size=(s, q))
            point = lower + np.where(np.isfinite(upper), width, 1.0) * rng.uniform(0, 1, q)
            rhs = a_mat @ point + rng.uniform(-0.5, 1.0, s)
        yield LpProblem(cost, a_mat, rhs, lower, upper)


@pytest.mark.parametrize("integral, overrides, expected", [
    (False, {}, (521, "dcde7acd64ae12d6bd3cde1d111a3f05b41231ecb7542d53811843c58cf29b7a")),
    (False, {"BLAND_AFTER_FACTOR": 0, "REFACTOR_EVERY": 1},
     (603, "9d7d6855ebab89edf27d0706b5af595eab25d7bf47e912a061c528e81adbdcb4")),
    (True, {}, (983, "a580aaec1a525d3afb944ba252115927f9fa8bbdff8b95eb333757abc5655ae9")),
    (True, {"BLAND_AFTER_FACTOR": 0, "REFACTOR_EVERY": 1},
     (1064, "5f123e6b915361e9ceccc8a2b9a488e12352dda3a1e82dc70c690c7a3edb89c8")),
])
def test_pivots_are_pinned(integral, overrides, expected, monkeypatch):
    """Total pivots and a sha256 over every status, basis and at_upper list.

    The constants were recorded with the earlier kernel, which priced by
    masking the reduced costs with np.where; they pin every pivot rule,
    including the smallest-index tie break of the ratio test, which the
    integral family reaches.
    """
    for name, value in overrides.items():
        monkeypatch.setattr(lp, name, value)
    digest = hashlib.sha256()
    pivots = 0
    for problem in pinned_lps(integral):
        sol = solve_lp(problem)
        pivots += sol.iterations
        digest.update(sol.status.value.encode())
        if sol.basis is not None:
            digest.update(np.asarray(sol.basis, dtype=np.int64).tobytes() + b"|")
            digest.update(np.asarray(sol.at_upper, dtype=np.int64).tobytes() + b"/")
    assert (pivots, digest.hexdigest()) == expected
