"""Subproblem solver tests.

Ground truth for small instances is exhaustive active-set enumeration; the
box-only case additionally has the closed form clip(-g/alpha, lower, upper).
Every optimum is re-certified through the independent dense KKT residual,
reference.kkt_residual.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from snsqp import qp
from snsqp.diagnostics import stationarity_error
from snsqp.qp import (
    BoxPolyhedron,
    QpProblem,
    QpStatus,
    _direction,
    _project,
    solve_qp,
)

import reference
from reference import enumerate_qp, kkt_residual, set_rows


def random_box(rng, n, p=0):
    lower = rng.uniform(-2.0, -0.2, n)
    upper = rng.uniform(0.2, 2.0, n)
    if p == 0:
        return BoxPolyhedron(lower=lower, upper=upper)
    rows = rng.normal(size=(p, n))
    # keep an interior point strictly feasible so the set is never empty
    interior = lower + (upper - lower) * rng.uniform(0.3, 0.7, n)
    rhs = rows @ interior + rng.uniform(0.05, 1.5, p)
    return BoxPolyhedron(lower=lower, upper=upper, ineq_matrix=rows, ineq_rhs=rhs)


class TestBoxOnly:
    def test_matches_clip_formula(self):
        rng = np.random.default_rng(2211)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            box = random_box(rng, n)
            g = rng.normal(scale=3.0, size=n)
            alpha = float(rng.uniform(0.2, 5.0))
            sol = solve_qp(QpProblem(gradient=g, curvature=alpha, set=box))
            assert sol.status is QpStatus.OPTIMAL
            expected = np.clip(-g / alpha, box.lower, box.upper)
            np.testing.assert_allclose(sol.step, expected, atol=1e-9)

    def test_interior_optimum_has_zero_multipliers(self):
        box = BoxPolyhedron(lower=[-10.0, -10.0], upper=[10.0, 10.0])
        sol = solve_qp(QpProblem(gradient=[1.0, -2.0], curvature=2.0, set=box))
        np.testing.assert_allclose(sol.step, [-0.5, 1.0])
        assert sol.set_multipliers.shape == (4,)
        assert not sol.set_multipliers.any()
        np.testing.assert_array_equal(set_rows(box).T @ sol.set_multipliers, 0.0)


class TestAgainstEnumeration:
    def test_with_inequality_rows(self):
        rng = np.random.default_rng(990)
        for trial in range(80):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, 4))
            box = random_box(rng, n, p)
            g = rng.normal(scale=2.0, size=n)
            alpha = float(rng.uniform(0.5, 4.0))
            problem = QpProblem(gradient=g, curvature=alpha, set=box)
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL, f"trial {trial}"
            best_val, best_d = enumerate_qp(problem)
            got = g @ sol.step + 0.5 * alpha * (sol.step @ sol.step)
            assert got <= best_val + 1e-8, f"trial {trial}"
            np.testing.assert_allclose(sol.step, best_d, atol=1e-6,
                                       err_msg=f"trial {trial}")

    def test_with_equality_rows(self):
        rng = np.random.default_rng(412)
        for trial in range(80):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(n, 3)))
            box = random_box(rng, n)
            jac = rng.normal(size=(n, m))
            # residual chosen so that an in-box solution exists
            target = box.lower + (box.upper - box.lower) * rng.uniform(0.2, 0.8, n)
            res = -(jac.T @ target)
            g = rng.normal(scale=2.0, size=n)
            alpha = float(rng.uniform(0.5, 4.0))
            problem = QpProblem(gradient=g, curvature=alpha, set=box,
                                eq_jacobian=jac, eq_residual=res)
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL, f"trial {trial}"
            assert np.max(np.abs(problem.eq_residual
                                 + jac.T @ sol.step)) <= 1e-7
            best_val, _ = enumerate_qp(problem)
            got = g @ sol.step + 0.5 * alpha * (sol.step @ sol.step)
            assert got <= best_val + 1e-7, f"trial {trial}"


class TestCertification:
    def test_kkt_residual_small_and_consistent(self):
        """The solve's certificate and the dense reference residual are both
        small and agree to roundoff, with zero, one or two equality rows
        through a point of the set."""
        rng = np.random.default_rng(5523)
        for trial in range(60):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(0, 3))
            m = int(rng.integers(0, 3))
            box = random_box(rng, n, p)
            eq = {}
            if m:
                jac = rng.normal(size=(n, m))
                while True:  # a point in the box that meets the rows too
                    target = box.lower + (box.upper - box.lower) * rng.uniform(0.2, 0.8, n)
                    if box.membership(target, tol=0.0):
                        break
                eq = dict(eq_jacobian=jac, eq_residual=-(jac.T @ target))
            problem = QpProblem(gradient=rng.normal(size=n),
                                curvature=float(rng.uniform(0.5, 3.0)), set=box, **eq)
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL, f"trial {trial}"
            recomputed = kkt_residual(problem, sol)
            assert recomputed <= 1e-6
            # both read the roundoff of one KKT point, the certificate at its row scale
            assert abs(sol.kkt_residual - recomputed) <= 1e-12

    def test_stationarity_identity_with_equalities(self):
        """g + alpha d + J lam + v = 0 with v in the normal cone."""
        rng = np.random.default_rng(808)
        for _ in range(40):
            n = 4
            box = random_box(rng, n, 2)
            jac = rng.normal(size=(n, 1))
            target = box.lower + (box.upper - box.lower) * 0.5
            problem = QpProblem(gradient=rng.normal(size=n), curvature=1.5,
                                set=box, eq_jacobian=jac,
                                eq_residual=-(jac.T @ target))
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL
            v = set_rows(box).T @ sol.set_multipliers
            resid = (problem.gradient + problem.curvature * sol.step
                     + jac @ sol.eq_multipliers + v)
            assert np.max(np.abs(resid)) <= 1e-6
            assert np.min(sol.set_multipliers) >= 0.0
            # zero off the working set: a row with slack carries no multiplier
            slack = box.limits - set_rows(box) @ sol.step
            assert not np.any(sol.set_multipliers[slack > 1e-9])

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("m", [0, 1])
    def test_normal_cone_formula_holds_on_every_set(self, p, m):
        """QpSolution's formula, read on the set's own fields, on sets with
        and without rows: g + alpha d + mu[n:2n] - mu[:n]
        + ineq_matrix.T @ mu[2n:] + eq_jacobian @ lam = 0.  A set without
        rows held None there, and the formula raised AttributeError."""
        rng = np.random.default_rng(4040 + 10 * p + m)
        n = 3
        for _ in range(30):
            box = random_box(rng, n, p)
            # an equality row through a member of the set: a solve's step
            member = solve_qp(QpProblem(rng.normal(size=n), 1.0, box)).step
            jac = rng.normal(size=(n, m))
            eq = dict(eq_jacobian=jac, eq_residual=-(jac.T @ member)) if m else {}
            problem = QpProblem(rng.normal(scale=3.0, size=n), 1.5, box, **eq)
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL
            mu = sol.set_multipliers
            resid = (problem.gradient + problem.curvature * sol.step + mu[n:2 * n] - mu[:n]
                     + box.ineq_matrix.T @ mu[2 * n:] + jac @ sol.eq_multipliers)
            assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(problem.gradient)))


class TestFeasibilityHandling:
    def test_rows_cut_off_origin(self):
        """Negative row rhs means d=0 is infeasible: the solve needs no feasible start."""
        rng = np.random.default_rng(64)
        for _ in range(40):
            n = 3
            box = BoxPolyhedron(lower=np.full(n, -4.0), upper=np.full(n, 4.0),
                                ineq_matrix=rng.normal(size=(2, n)),
                                ineq_rhs=rng.uniform(-1.5, -0.2, 2))
            problem = QpProblem(gradient=rng.normal(size=n), curvature=1.0,
                                set=box)
            sol = solve_qp(problem)
            assert sol.status is QpStatus.OPTIMAL
            assert box.membership(sol.step, tol=1e-7)
            best_val, _ = enumerate_qp(problem)
            got = problem.gradient @ sol.step + 0.5 * (sol.step @ sol.step)
            assert got <= best_val + 1e-7

    def test_inconsistent_equalities_detected(self):
        # zero jacobian with nonzero residual cannot be linearized away
        box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        problem = QpProblem(gradient=[1.0, 1.0], curvature=1.0, set=box,
                            eq_jacobian=np.zeros((2, 1)), eq_residual=[1.0])
        assert solve_qp(problem).status is QpStatus.INFEASIBLE

    def test_equality_out_of_reach_of_box(self):
        box = BoxPolyhedron(lower=[-1.0], upper=[1.0])
        problem = QpProblem(gradient=[0.0], curvature=1.0, set=box,
                            eq_jacobian=[[1.0]], eq_residual=[5.0])
        assert solve_qp(problem).status is QpStatus.INFEASIBLE


class TestSetValidation:
    def test_membership_and_translate(self):
        box = BoxPolyhedron(lower=[0.0, 0.0], upper=[2.0, 2.0],
                            ineq_matrix=[[1.0, 1.0]], ineq_rhs=[3.0])
        assert box.membership(np.array([1.0, 1.0]))
        assert not box.membership(np.array([2.0, 2.0]))   # row violated
        assert not box.membership(np.array([-0.1, 0.0]))
        shifted = box.translate(np.array([1.0, 1.0]))
        np.testing.assert_allclose(shifted.lower, [-1.0, -1.0])
        np.testing.assert_allclose(shifted.upper, [1.0, 1.0])
        np.testing.assert_allclose(shifted.ineq_rhs, [1.0])
        # membership of d=0 in the translated set mirrors membership of x
        assert shifted.membership(np.zeros(2))

    def test_rows_are_built_once(self):
        """The limits are built once; the bounds are read as the signed unit
        vectors they are, so no dense row matrix is built, and a translated
        set shares ineq_matrix."""
        box = BoxPolyhedron(lower=[0.0, -1.0], upper=[2.0, 1.0],
                            ineq_matrix=[[1.0, 3.0]], ineq_rhs=[4.0])
        assert not hasattr(box, "normals")
        np.testing.assert_array_equal(box.limits, [0.0, 1.0, 2.0, 1.0, 4.0])
        x = np.array([0.5, 0.5])
        shifted = box.translate(x)
        assert shifted.ineq_matrix is box.ineq_matrix
        # the same operations as a set built from the shifted data
        rebuilt = BoxPolyhedron(box.lower - x, box.upper - x, box.ineq_matrix,
                                box.ineq_rhs - box.ineq_matrix @ x)
        assert shifted.limits.tobytes() == rebuilt.limits.tobytes()
        assert shifted.ineq_rhs.tobytes() == rebuilt.ineq_rhs.tobytes()

    def test_arrays_are_read_only_copies(self):
        """A write to any array of a set, or of a translated set, raises: the
        row form cannot fall out of step with its data.  The caller's arrays
        are copied, so they stay writable and the set does not follow them."""
        lower, upper = np.zeros(2), np.ones(2)
        rows, rhs = np.array([[1.0, 1.0]]), np.array([1.5])
        box = BoxPolyhedron(lower, upper, rows, rhs)
        lower[0], upper[0], rows[0, 0], rhs[0] = -1.0, 5.0, 2.0, 3.0
        np.testing.assert_array_equal(box.lower, [0.0, 0.0])
        np.testing.assert_array_equal(box.limits, [-0.0, -0.0, 1.0, 1.0, 1.5])
        np.testing.assert_array_equal(box.ineq_matrix, [[1.0, 1.0]])
        shifted = box.translate([0.5, 0.25])
        for owner in (box, shifted):
            for name in ("lower", "upper", "ineq_matrix", "ineq_rhs", "limits"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(owner, name)[0] = 5.0
        assert box.membership([1.0, 0.5]) and not box.membership([3.0, 0.0])

    def test_fields_are_frozen(self):
        """Assigning any field of a set, or of a translated set, raises.
        Assigned, upper = (5, 5) on the unit box left limits reading 1 while
        membership([3, 0]) read the new bound and said True."""
        box = BoxPolyhedron([0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]], [1.5])
        for owner in (box, box.translate([0.5, 0.25])):
            for f in dataclasses.fields(owner):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(owner, f.name, np.array([5.0, 5.0]))
        np.testing.assert_array_equal(box.upper, [1.0, 1.0])
        assert not box.membership([3.0, 0.0])

    def test_a_set_without_rows_holds_zero_rows(self):
        """A set given no rows, None, stores zero rows, as does its
        translated set: an (0, n) ineq_matrix and an empty ineq_rhs, both
        read-only, and the same limits as a set given the zero rows."""
        box = BoxPolyhedron([0.0, -1.0], [2.0, 1.0])
        given = BoxPolyhedron([0.0, -1.0], [2.0, 1.0], np.zeros((0, 2)), [])
        shifted = box.translate([0.5, 0.5])
        for owner in (box, given, shifted):
            assert owner.ineq_matrix.shape == (0, 2) and owner.ineq_rhs.shape == (0,)
            assert not owner.ineq_matrix.flags.writeable and not owner.ineq_rhs.flags.writeable
        assert shifted.ineq_matrix is box.ineq_matrix
        assert given.limits.tobytes() == box.limits.tobytes()

    def test_rejects_a_set_without_coordinates(self):
        """A set of dimension 0 is rejected where it is built.  Accepted, its
        subproblem ended NUMERICAL_FAILURE: the loop's budget of
        MAX_ITER_PER_ROW rounds per coordinate and row was 0 rounds."""
        with pytest.raises(ValueError, match="nonempty vectors"):
            BoxPolyhedron([], [])
        with pytest.raises(ValueError, match="nonempty vectors"):
            BoxPolyhedron(np.zeros(0), np.zeros(0), np.zeros((0, 0)), np.zeros(0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), p=st.integers(0, 2))
    def test_translated_limits_are_the_numpy_expressions(self, data, n, p):
        """translated_limits computes the bounds on Python floats; its bytes,
        zero signs included, and the data translate slices out of it are
        numpy's -(lower - x), upper - x and ineq_rhs - ineq_matrix @ x."""
        entries = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
        vector = lambda k: np.array(data.draw(st.lists(entries, min_size=k, max_size=k)))
        lower = vector(n)
        upper = lower + np.abs(vector(n))
        rows, rhs = vector(p * n).reshape(p, n), vector(p)
        box = BoxPolyhedron(lower, upper, rows if p else None, rhs if p else None)
        x = np.array([data.draw(st.sampled_from([lo, hi]) | entries)
                      for lo, hi in zip(lower, upper)])
        expected = np.concatenate([-(lower - x), upper - x, rhs - rows @ x])
        assert box.translated_limits(x).tobytes() == expected.tobytes()
        shifted = box.translate(x)
        assert shifted.limits.tobytes() == expected.tobytes()
        assert shifted.lower.tobytes() == (lower - x).tobytes()
        assert shifted.upper.tobytes() == (upper - x).tobytes()
        assert shifted.ineq_rhs.tobytes() == (rhs - rows @ x).tobytes()

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0],
                                   [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_translate_rejects_bad_x(self, x):
        box = BoxPolyhedron(lower=[0.0, -1.0], upper=[2.0, 1.0],
                            ineq_matrix=[[10.0, 0.0]], ineq_rhs=[4.0])
        with pytest.raises(ValueError, match="x must"):
            box.translate(x)

    @pytest.mark.parametrize("lower, upper, x, field", [
        ([-1.0, -1.0], [1.0, 1.0], [1e308, 0.0], "translated ineq_rhs"),
        ([-1.0, -1.0], [1.0, 1.0], [-1e308, 0.0], "translated ineq_rhs"),
        ([-1e308, -1.0], [1.0, 1.0], [1e308, 0.0], "translated lower"),
        ([-1.0, -1.0], [1e308, 1.0], [-1e308, 0.0], "translated upper"),
    ])
    def test_translate_rejects_an_overflowing_limit(self, lower, upper, x, field):
        """A finite x far outside the set overflows h - W @ x or a shifted
        bound; before the check numpy only warned, and the translated set got
        an infinite limit.  The suite turns that warning into an error."""
        box = BoxPolyhedron(lower, upper, [[10.0, 0.0]], [4.0])
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            box.translate(x)

    @pytest.mark.parametrize("row, rhs, x", [
        ([10.0, 0.0], 4.0, [1e300, 0.0]),          # a product of 1e301
        ([10.0, -3.0], 4.0, [-1e307, 5e306]),
        ([1e-300, 3.0], -2.0, [1e307, -1e299]),
        ([10.0, 0.0], 4.0, [1e299 / 1.0000001, 0.0]),  # a product just below 1e300
        ([1.0, 0.0], float(np.finfo(float).max), [-1e300, 0.0]),  # h - W x overflows
        ([1.0, 1.0], -float(np.finfo(float).max), [5e299, 5e299]),
    ])
    def test_translated_limits_near_the_float_range(self, row, rhs, x):
        """The row products are taken inside np.errstate for every x.  The
        limits are numpy's ineq_rhs - ineq_matrix @ x bit for bit, and an
        overflow raises the ValueError and no warning (the suite turns a
        RuntimeWarning into an error)."""
        box = BoxPolyhedron([-1.0, -1.0], [1.0, 1.0], [row], [rhs])
        x = np.array(x)
        with np.errstate(over="ignore"):
            expected = np.array([rhs]) - np.array([row]) @ x
        if np.isfinite(expected).all():
            assert box.translated_limits(x)[4:].tobytes() == expected.tobytes()
        else:
            with pytest.raises(ValueError, match="translated ineq_rhs must be finite"):
                box.translated_limits(x)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_membership_rejects_non_finite_coordinates(self, value):
        box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0],
                            ineq_matrix=[[1.0, 1.0]], ineq_rhs=[1.0])
        for i in range(2):
            x = np.zeros(2)
            x[i] = value
            assert not box.membership(x)
            assert not box.membership(x, tol=np.inf)

    def test_membership_of_a_far_point_is_false(self):
        """A finite point whose row slack overflows is not a member.  A
        product over a dense row matrix warned "overflow encountered in
        matmul" here, which the suite turns into an error."""
        box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0],
                            ineq_matrix=[[1.0, 3.0]], ineq_rhs=[1.0])
        assert not box.membership((1e308, 1e308))
        assert not box.membership((1e308, 1e308), tol=np.inf)

    @pytest.mark.parametrize("x", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_membership_rejects_a_wrong_shaped_point(self, x):
        box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0],
                            ineq_matrix=[[1.0, 3.0]], ineq_rhs=[1.0])
        with pytest.raises(ValueError):
            box.membership(x)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            BoxPolyhedron(lower=[0.0], upper=[np.inf])
        with pytest.raises(ValueError):
            BoxPolyhedron(lower=[1.0], upper=[0.0])
        with pytest.raises(ValueError):
            BoxPolyhedron(lower=[0.0, 0.0], upper=[1.0, 1.0],
                          ineq_matrix=[[1.0]], ineq_rhs=[1.0])
        with pytest.raises(ValueError, match="vectors of the same shape"):
            BoxPolyhedron(lower=[0.0, 0.0], upper=[1.0])
        with pytest.raises(ValueError, match="vectors of the same shape"):
            BoxPolyhedron(lower=[[0.0]], upper=[[1.0]])
        with pytest.raises(ValueError, match="must be given together"):
            BoxPolyhedron(lower=[0.0], upper=[1.0], ineq_matrix=[[1.0]])
        box = BoxPolyhedron(lower=[0.0], upper=[1.0])
        with pytest.raises(ValueError):
            QpProblem(gradient=[1.0], curvature=0.0, set=box)
        with pytest.raises(ValueError):
            QpProblem(gradient=[1.0, 2.0], curvature=1.0, set=box)
        with pytest.raises(ValueError):
            QpProblem(gradient=[1.0], curvature=1.0, set=box,
                      eq_jacobian=[[1.0]])
        with pytest.raises(ValueError, match=r"eq_jacobian must be \(n, m\)"):
            QpProblem(gradient=[1.0], curvature=1.0, set=box,
                      eq_jacobian=[[1.0, 2.0]], eq_residual=[0.0])


    def test_problem_fields_are_frozen(self):
        """A subproblem is frozen like its set: assigning any field raises,
        and the fields keep what construction converted (a list gradient is
        a float array, an integer curvature a float)."""
        box = BoxPolyhedron([0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]], [1.5])
        problem = QpProblem(gradient=[1, -2], curvature=2, set=box.translate([0.5, 0.25]),
                            eq_jacobian=[[1.0], [0.0]], eq_residual=[0.0])
        for f in dataclasses.fields(problem):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(problem, f.name, getattr(problem, f.name))
        assert problem.gradient.dtype == np.float64 and type(problem.curvature) is float
        assert problem.eq_jacobian.shape == (2, 1) and problem.n_eq == 1


#: (working rows drawn, whether the first is added again) for the factor tests
WORKING_SETS = [pytest.param(1, False, id="one-row"), pytest.param(2, False, id="two-rows"),
                pytest.param(3, False, id="three-rows"),
                pytest.param(2, True, id="duplicated-row")]


class TestOneRowClosedForm:
    """The working-set factor: one working row on the free coordinates has a
    closed form, more rows go through the SVD.  Either must agree with the
    least-norm solutions of numpy's lstsq, and rows that are dependent on the
    free coordinates (a duplicated row, or more rows than free coordinates)
    must come out dependent."""

    @staticmethod
    def random_case(rng, n_rows=1, duplicate=False):
        n = int(rng.integers(1, 6))
        box = random_box(rng, n)
        side = rng.choice([-1.0, 0.0, 0.0, 1.0], size=n)
        problem = QpProblem(gradient=rng.normal(scale=2.0, size=n),
                            curvature=float(rng.uniform(0.5, 4.0)), set=box)
        free_start = -problem.gradient / problem.curvature
        start = np.where(side < 0.0, box.lower, np.where(side > 0.0, box.upper, free_start))
        rows, rhs = rng.normal(size=(n_rows, n)), rng.normal(size=n_rows)
        if duplicate:  # the same constraint twice
            rows, rhs = np.vstack([rows, rows[:1]]), np.append(rhs, rhs[0])
        dependent = duplicate or n_rows > np.count_nonzero(side == 0.0)
        return problem, side, rows, rhs, start, dependent

    @pytest.mark.parametrize("n_rows, duplicate", WORKING_SETS)
    def test_projection_is_the_least_norm_correction(self, n_rows, duplicate):
        rng = np.random.default_rng(3301)
        for trial in range(300):
            problem, side, rows, rhs, start, expected = self.random_case(rng, n_rows, duplicate)
            free = side == 0.0
            d, mults, dependent = _project(problem.gradient.tolist(), problem.curvature,
                                           problem.set.limits.tolist(), side.tolist(),
                                           rows.tolist(), rhs.tolist())
            assert dependent == expected, f"trial {trial}"
            if not free.any():  # every coordinate fixed: nothing to correct
                assert d == start.tolist() and mults == [0.0] * len(rows)
                continue
            correction = np.zeros_like(start)
            correction[free] = np.linalg.lstsq(rows[:, free], rhs - rows @ start,
                                               rcond=None)[0]
            coef = np.linalg.lstsq(rows[:, free].T, correction[free], rcond=None)[0]
            np.testing.assert_allclose(d, start + correction, rtol=1e-12, atol=1e-12,
                                       err_msg=f"trial {trial}")
            np.testing.assert_allclose(mults, -problem.curvature * coef, rtol=1e-10,
                                       atol=1e-12, err_msg=f"trial {trial}")
            if not expected:
                assert (np.abs(rows @ np.array(d) - rhs)
                        <= 1e-12 * (1.0 + np.abs(rows) @ np.abs(d))).all()

    @pytest.mark.parametrize("n_rows, duplicate", WORKING_SETS)
    def test_direction_splits_the_normal(self, n_rows, duplicate):
        rng = np.random.default_rng(3302)
        for trial in range(300):
            _, side, rows, _, _, expected_dependent = self.random_case(rng, n_rows, duplicate)
            free = side == 0.0
            if not free.any():
                continue
            normal = rng.normal(size=rows.shape[1])
            toward, coef, dependent = _direction(rows.tolist(), free.tolist(),
                                                 normal.tolist())
            expected = np.linalg.lstsq(rows[:, free].T, normal[free], rcond=None)[0]
            assert dependent == expected_dependent, f"trial {trial}"
            np.testing.assert_allclose(coef, expected, rtol=1e-10, atol=1e-12,
                                       err_msg=f"trial {trial}")
            np.testing.assert_allclose(np.array(toward)[free],
                                       normal[free] - expected @ rows[:, free], atol=1e-12,
                                       err_msg=f"trial {trial}")
            assert not np.array(toward)[~free].any()

    @pytest.mark.parametrize("row, side", [([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
                                           ([0.0, 2.0, -1.0], [0.0, -1.0, 1.0])])
    def test_row_with_a_zero_free_part_is_dependent(self, row, side):
        box = BoxPolyhedron(lower=[-1.0, -2.0, -3.0], upper=[1.0, 2.0, 3.0])
        problem = QpProblem(gradient=[0.5, -1.0, 4.0], curvature=2.0, set=box)
        data = problem.gradient.tolist(), problem.curvature, box.limits.tolist()
        start, _, dependent = _project(*data, side, [], [])
        assert not dependent
        d, mults, dependent = _project(*data, side, [row], [0.7])
        assert d == start and mults == [0.0] and dependent
        toward, coef, dependent = _direction([row], [s == 0.0 for s in side],
                                             [1.0, 1.0, 1.0])
        assert coef == [0.0] and dependent
        assert toward == [1.0 if s == 0.0 else 0.0 for s in side]

    def test_zero_equality_row_sets_rank_warning(self):
        box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        problem = QpProblem(gradient=[0.5, -3.0], curvature=1.0, set=box,
                            eq_jacobian=np.zeros((2, 1)), eq_residual=[0.0])
        sol = solve_qp(problem)
        assert sol.status is QpStatus.OPTIMAL and sol.rank_warning
        np.testing.assert_array_equal(sol.step, [-0.5, 1.0])
        np.testing.assert_array_equal(sol.eq_multipliers, [0.0])


def test_duplicated_rows_still_solve():
    """Dependent working sets must not break the step computation."""
    box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0],
                        ineq_matrix=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
                        ineq_rhs=[1.0, 1.0, 2.0])
    problem = QpProblem(gradient=[-3.0, -3.0], curvature=1.0, set=box)
    sol = solve_qp(problem)
    assert sol.status is QpStatus.OPTIMAL
    np.testing.assert_allclose(sol.step, [0.5, 0.5], atol=1e-8)
    assert kkt_residual(problem, sol) <= 1e-7


def test_scaling_consistency():
    """Scaling g and alpha by t leaves the minimizer unchanged."""
    rng = np.random.default_rng(17)
    box = random_box(rng, 3, 2)
    g = rng.normal(size=3)
    base = solve_qp(QpProblem(gradient=g, curvature=2.0, set=box))
    for t in (0.5, 3.0, 40.0):
        scaled = solve_qp(QpProblem(gradient=t * g, curvature=t * 2.0, set=box))
        np.testing.assert_allclose(scaled.step, base.step, atol=1e-7)


def quarters(lo, hi):
    """Multiples of 1/4 in [lo/4, hi/4]: exact data whose infeasible cases
    miss feasibility by far more than any solver tolerance."""
    return st.integers(lo, hi).map(lambda k: k / 4.0)


@st.composite
def box_data(draw, n, around_origin=False):
    """Bounds with some lower == upper coordinates, and a point of the box."""
    lower = np.array([draw(quarters(-8, 0 if around_origin else 4)) for _ in range(n)])
    width = np.array([draw(st.one_of(st.just(0.0), quarters(1, 8))) for _ in range(n)])
    if around_origin:
        width = np.maximum(width, -lower)
    frac = np.array([draw(quarters(0, 4)) for _ in range(n)])
    return lower, lower + width, lower + width * frac


def integer_matrix(draw, rows, cols):
    return np.array([[draw(st.integers(-3, 3)) for _ in range(cols)]
                     for _ in range(rows)], dtype=float).reshape(rows, cols)


def make_problem(draw, lower, upper, rows, rhs, jac, residual):
    box = BoxPolyhedron(lower=lower, upper=upper,
                        ineq_matrix=rows if len(rhs) else None,
                        ineq_rhs=rhs if len(rhs) else None)
    g = np.array([draw(quarters(-16, 16)) for _ in range(lower.size)])
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    if jac.shape[1] == 0:
        return QpProblem(gradient=g, curvature=alpha, set=box)
    return QpProblem(gradient=g, curvature=alpha, set=box,
                     eq_jacobian=jac, eq_residual=residual)


@st.composite
def random_qps(draw):
    """0-2 rows and 0-2 equalities, consistent with a box point or arbitrary."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(0, 2))
    m = draw(st.integers(0, min(2, n)))
    lower, upper, point = draw(box_data(n))
    rows = integer_matrix(draw, p, n)
    jac = integer_matrix(draw, n, m)
    assume(np.linalg.matrix_rank(jac) == m)
    if draw(st.booleans()):
        rhs = rows @ point + np.array([draw(quarters(0, 8)) for _ in range(p)])
        residual = -(jac.T @ point)
    else:
        rhs = np.array([draw(quarters(-8, 12)) for _ in range(p)])
        residual = np.array([draw(quarters(-8, 8)) for _ in range(m)])
    return make_problem(draw, lower, upper, rows, rhs, jac, residual)


@st.composite
def roundoff_row_qps(draw):
    """d = 0 violates the first row by 1e-15, as after a step onto that row."""
    n = draw(st.integers(1, 4))
    lower, upper, _ = draw(box_data(n, around_origin=True))
    rows = integer_matrix(draw, draw(st.integers(1, 2)), n)
    assume(np.any(rows[0]))
    rhs = np.array([-1e-15] + [draw(quarters(0, 8)) for _ in rows[1:]])
    return make_problem(draw, lower, upper, rows, rhs, np.zeros((n, 0)), None)


@st.composite
def far_equality_qps(draw):
    """Equalities met inside the box, but not at their least-norm point."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    lower, upper, point = draw(box_data(n))
    jac = integer_matrix(draw, n, m)
    assume(np.linalg.matrix_rank(jac) == m)
    residual = -(jac.T @ point)
    least_norm = np.linalg.lstsq(jac.T, -residual, rcond=None)[0]
    assume(not BoxPolyhedron(lower, upper).membership(least_norm, tol=1e-12))
    return make_problem(draw, lower, upper, np.zeros((0, n)), np.zeros(0), jac, residual)


@st.composite
def duplicated_equality_qps(draw):
    """One equality column and a multiple of it: every KKT matrix of the
    enumeration is singular, yet the problem is well posed."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(0, 2))
    lower, upper, point = draw(box_data(n))
    rows = integer_matrix(draw, p, n)
    col = integer_matrix(draw, n, 1)
    assume(np.any(col))
    jac = np.hstack([col, draw(st.sampled_from([1.0, -1.0, 2.0])) * col])
    if draw(st.booleans()):
        target = point
        rhs = rows @ point + np.array([draw(quarters(0, 8)) for _ in range(p)])
    else:
        target = np.array([draw(quarters(-12, 12)) for _ in range(n)])
        rhs = np.array([draw(quarters(-8, 12)) for _ in range(p)])
    return make_problem(draw, lower, upper, rows, rhs, jac, -(jac.T @ target))


def solve_against_enumeration(problem):
    """Solve and certify against enumeration."""
    sol = solve_qp(problem)
    best_val, best_d = enumerate_qp(problem)
    if best_d is None:
        assert sol.status is QpStatus.INFEASIBLE
    else:
        assert sol.status is QpStatus.OPTIMAL
        d = sol.step
        got = problem.gradient @ d + 0.5 * problem.curvature * (d @ d)
        assert abs(got - best_val) <= 1e-8
        scale = max(1.0, float(np.max(np.abs(problem.gradient))))
        assert sol.kkt_residual <= 1e-8 * scale
    return sol


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(problem=random_qps())
    def test_random_box_polyhedra(self, problem):
        solve_against_enumeration(problem)

    @settings(max_examples=100, deadline=None)
    @given(problem=roundoff_row_qps())
    def test_roundoff_row_violation_starts_at_zero(self, problem):
        assert solve_against_enumeration(problem).status is QpStatus.OPTIMAL

    @settings(max_examples=100, deadline=None)
    @given(problem=far_equality_qps())
    def test_least_norm_start_outside_box_takes_phase1(self, problem):
        assert solve_against_enumeration(problem).status is QpStatus.OPTIMAL

    @settings(max_examples=200, deadline=None)
    @given(problem=duplicated_equality_qps())
    def test_duplicated_equality_column(self, problem):
        solve_against_enumeration(problem)


def rescaled(problem, row_factors, eq_factors):
    """The problem with inequality row i and its limit times row_factors[i],
    and equality column j and its residual times eq_factors[j]."""
    box, kwargs = problem.set, {}
    scaled = BoxPolyhedron(box.lower, box.upper, box.ineq_matrix * np.c_[row_factors],
                           box.ineq_rhs * row_factors)
    if problem.n_eq:
        kwargs = dict(eq_jacobian=problem.eq_jacobian * eq_factors,
                      eq_residual=problem.eq_residual * eq_factors)
    return QpProblem(gradient=problem.gradient, curvature=problem.curvature, set=scaled,
                     **kwargs)


class TestScaleRule:
    """A subproblem solves the same however its rows are written: the loop
    scales each row and its limit by a power of two, to a largest entry in
    [0.5, 1), and scales the multipliers back."""

    @staticmethod
    def check_powers_of_two(data, problem):
        """The same status and bitwise the same certificate, step and bound
        multipliers; each row's multiplier exactly times 2**-k.  The
        certificate reads each row at the loop's row scale, so it is the
        same however the rows are written."""
        exponent = st.integers(-30, 30)
        rows = np.array([data.draw(exponent) for _ in range(problem.set.ineq_rhs.size)], dtype=int)
        cols = np.array([data.draw(exponent) for _ in range(problem.n_eq)], dtype=int)
        base = solve_qp(problem)
        scaled = solve_qp(rescaled(problem, np.ldexp(1.0, rows), np.ldexp(1.0, cols)))
        assert scaled.status is base.status
        assert np.float64(scaled.kkt_residual).tobytes() == np.float64(base.kkt_residual).tobytes()
        assert scaled.step.tobytes() == base.step.tobytes()
        n2 = 2 * problem.set.dim
        assert scaled.set_multipliers[:n2].tobytes() == base.set_multipliers[:n2].tobytes()
        np.testing.assert_array_equal(scaled.set_multipliers[n2:],
                                      np.ldexp(base.set_multipliers[n2:], -rows))
        np.testing.assert_array_equal(scaled.eq_multipliers, np.ldexp(base.eq_multipliers, -cols))

    @staticmethod
    def check_powers_of_ten(data, problem):
        """Rows and equality columns times 1e-6, 1 or 1e6: the same status,
        and the same step to a relative 1e-9."""
        factor = st.sampled_from([1e-6, 1.0, 1e6])
        rows = np.array([data.draw(factor) for _ in range(problem.set.ineq_rhs.size)])
        cols = np.array([data.draw(factor) for _ in range(problem.n_eq)])
        base = solve_qp(problem)
        scaled = solve_qp(rescaled(problem, rows, cols))
        assert scaled.status is base.status
        size = max(1.0, float(np.max(np.abs(base.step))))
        np.testing.assert_allclose(scaled.step, base.step, rtol=0.0, atol=1e-9 * size)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), problem=random_qps())
    def test_powers_of_two_are_exact(self, data, problem):
        self.check_powers_of_two(data, problem)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), problem=duplicated_equality_qps())
    def test_powers_of_two_are_exact_on_a_duplicated_column(self, data, problem):
        self.check_powers_of_two(data, problem)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), problem=random_qps())
    def test_powers_of_ten_solve_the_same(self, data, problem):
        self.check_powers_of_ten(data, problem)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), problem=duplicated_equality_qps())
    def test_powers_of_ten_solve_the_same_on_a_duplicated_column(self, data, problem):
        self.check_powers_of_ten(data, problem)

    def test_a_duplicated_column_written_large_keeps_its_status(self):
        """Four working rows, two of them one equality column written at
        1e-6 and 1e6, go through numpy's SVD.  Its backward error alone,
        times a row written at 1e6, failed a certificate that read the rows
        in their own units."""
        box = BoxPolyhedron([0.0, 0.0, 0.0, 0.0], [0.0, 0.25, 0.25, 0.25],
                            [[-3.0, 0.0, -1.0, 0.0], [2.0, -3.0, -3.0, 0.0]], [-0.0625, -0.1875])
        problem = QpProblem([0.0, 0.0, 0.75, 0.0], 0.5, box,
                            [[2.0, 2.0], [2.0, 2.0], [-1.0, -1.0], [0.0, 0.0]], [0.0625, 0.0625])
        factors = np.array([1e-6, 1e6])
        base = solve_qp(problem)
        scaled = solve_qp(rescaled(problem, factors, factors))
        assert base.status is scaled.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(scaled.step, base.step, rtol=0.0, atol=1e-9)

    def test_an_equality_column_written_at_2_27_is_optimal(self):
        """Bitwise the step and the certificate of the unscaled problem.  A
        certificate that read the equality gap in the column's own units
        made it 2.2e-8, over TOL, a NUMERICAL_FAILURE."""
        box = BoxPolyhedron(lower=[-1.0, -0.25], upper=[0.75, 0.5])
        problem = QpProblem([0.0, -1.75], 2.0, box, [[1.0], [-1.75]], [0.125])
        base = solve_qp(problem)
        scaled = solve_qp(rescaled(problem, [], np.array([2.0 ** 27])))
        assert base.status is scaled.status is QpStatus.OPTIMAL
        assert scaled.step.tobytes() == base.step.tobytes()
        assert scaled.kkt_residual == base.kkt_residual

    def test_a_limit_beyond_the_float_range_is_infinite(self):
        """A row of entries near 1e-300 scales its limit past the float
        range: the row never binds if the limit is positive, and is never
        met if it is negative or an equality."""
        box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        tiny = [[1e-300], [0.0]]
        for limit, status in ((1e10, QpStatus.OPTIMAL), (-1e10, QpStatus.INFEASIBLE)):
            rows = BoxPolyhedron(box.lower, box.upper, np.transpose(tiny), [limit])
            assert solve_qp(QpProblem([1.0, 1.0], 1.0, rows)).status is status
            equality = QpProblem([1.0, 1.0], 1.0, box, tiny, [limit])
            assert solve_qp(equality).status is QpStatus.INFEASIBLE


def finite_problem_data():
    return dict(lower=[-1.0, -1.0], upper=[1.0, 1.0], ineq_matrix=[[1.0, 2.0]],
                ineq_rhs=[1.0], gradient=[1.0, -1.0], curvature=1.0,
                eq_jacobian=[[1.0], [1.0]], eq_residual=[0.5])


@pytest.mark.parametrize("name", ["lower", "upper", "ineq_matrix", "ineq_rhs", "gradient",
                                  "curvature", "eq_jacobian", "eq_residual"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_names_its_field(name, value):
    """Non-finite data is rejected where it enters, with its field's name,
    not inside solve_qp with an unrelated error or a false INFEASIBLE."""
    data = finite_problem_data()
    data[name] = np.full_like(np.asarray(data[name], dtype=float), value)
    with pytest.raises(ValueError, match=name):
        box = BoxPolyhedron(*(data.pop(key) for key in
                              ("lower", "upper", "ineq_matrix", "ineq_rhs")))
        QpProblem(set=box, **data)


@pytest.mark.parametrize("gradient, curvature", [([1e308, -1e308], 1e-10),
                                                 ([1.0, 1.0], 1e-320)])
def test_overflowing_start_is_numerical_failure(gradient, curvature):
    """Finite data whose start -g/alpha overflows."""
    box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0])
    sol = solve_qp(QpProblem(gradient=gradient, curvature=curvature, set=box))
    assert sol.status is QpStatus.NUMERICAL_FAILURE
    assert not np.isfinite(sol.kkt_residual)


def test_iteration_cap_is_numerical_failure(monkeypatch):
    """The loop runs at most MAX_ITER_PER_ROW passes per constraint.  Here
    -g/alpha = 3 leaves [-1, 1]: one pass adds the upper bound, and a second
    would find nothing violated, so a cap of one pass ends the solve."""
    problem = QpProblem(gradient=[-3.0], curvature=1.0,
                        set=BoxPolyhedron(lower=[-1.0], upper=[1.0]))
    assert solve_qp(problem).status is QpStatus.OPTIMAL
    monkeypatch.setattr(qp, "MAX_ITER_PER_ROW", 1)
    sol = solve_qp(problem)
    assert sol.status is QpStatus.NUMERICAL_FAILURE
    assert sol.iterations == 1
    assert not sol.rank_warning
    np.testing.assert_array_equal(sol.step, [0.0])
    assert sol.kkt_residual == np.inf


def test_certificate_above_tol_is_numerical_failure(monkeypatch):
    """A solve whose KKT residual exceeds TOL times the gradient scale fails,
    keeping its step and residual.  This certificate is a roundoff above 0,
    so a TOL of 0 fails it."""
    box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0],
                        ineq_matrix=[[1.0, 3.0]], ineq_rhs=[0.3])
    problem = QpProblem(gradient=[-0.7, -1.1], curvature=0.7, set=box)
    certified = solve_qp(problem)
    assert certified.status is QpStatus.OPTIMAL
    assert 0.0 < certified.kkt_residual <= 1e-15
    monkeypatch.setattr(qp, "TOL", 0.0)
    sol = solve_qp(problem)
    assert sol.status is QpStatus.NUMERICAL_FAILURE
    assert sol.iterations == certified.iterations == 1
    assert not sol.rank_warning
    assert sol.kkt_residual == certified.kkt_residual
    np.testing.assert_array_equal(sol.step, certified.step)


@pytest.mark.parametrize("field", ["step", "set_multipliers", "eq_multipliers"])
def test_kkt_residual_is_nan_on_a_nan_candidate(field):
    """A NaN entry must fail the certificate, not drop out of a max."""
    box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0])
    problem = QpProblem(gradient=[0.5, 3.0], curvature=1.0, set=box,
                        eq_jacobian=[[1.0], [1.0]], eq_residual=[-0.5])
    sol = solve_qp(problem)
    assert sol.status is QpStatus.OPTIMAL
    entries = getattr(sol, field)
    entries[np.argmin(entries)] = np.nan
    assert np.isnan(kkt_residual(problem, sol))


@st.composite
def kernel_cases(draw):
    """(problem, stationarity set, point, equality pair) for the kernel
    reference: n of 1-4, 0-2 inequality rows and 0-2 equality rows with
    integer or irregular entries, the second row or column possibly a
    multiple of the first, and each row and column with its limit times
    2**k for |k| <= 40.  The stationarity set has the same rows, active at
    the point where their slack is drawn 0."""
    n, p, m = draw(st.integers(1, 4)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    lower, upper, point = draw(box_data(n))
    if draw(st.booleans()):
        rows, jac = integer_matrix(draw, p, n), integer_matrix(draw, n, m)
    else:
        entry = st.floats(-3.0, 3.0)
        rows = np.array([[draw(entry) for _ in range(n)] for _ in range(p)]).reshape(p, n)
        jac = np.array([[draw(entry) for _ in range(m)] for _ in range(n)]).reshape(n, m)
    multiple = st.sampled_from([1.0, -1.0, 2.0])
    if p == 2 and draw(st.booleans()):
        rows[1] = draw(multiple) * rows[0]
    if m == 2 and draw(st.booleans()):
        jac[:, 1] = draw(multiple) * jac[:, 0]
    if draw(st.booleans()):
        rhs = rows @ point + np.array([draw(quarters(0, 8)) for _ in range(p)])
        residual = -(jac.T @ point)
    else:
        rhs = np.array([draw(quarters(-8, 12)) for _ in range(p)])
        residual = np.array([draw(quarters(-8, 8)) for _ in range(m)])
    exponent = st.integers(-40, 40)
    row_k = np.ldexp(1.0, np.array([draw(exponent) for _ in range(p)], dtype=int))
    col_k = np.ldexp(1.0, np.array([draw(exponent) for _ in range(m)], dtype=int))
    rows, rhs, jac, residual = rows * np.c_[row_k], rhs * row_k, jac * col_k, residual * col_k
    problem = make_problem(draw, lower, upper, rows, rhs, jac, residual)
    slack = np.array([draw(st.one_of(st.just(0.0), quarters(1, 8))) for _ in range(p)])
    at_point = BoxPolyhedron(lower, upper, rows if p else None, (rows @ point + slack) if p else None)
    values = np.array([draw(st.sampled_from([0.0, 1e-9, -1e-9, 0.5, -2.0])) for _ in range(m)])
    return problem, at_point, point, (values, jac) if m else None


def outcome(fn, *args):
    """fn(*args), or the type of the ValueError, OverflowError or
    RuntimeError it raised: the kernel must raise where its reference does."""
    try:
        return fn(*args)
    except (ValueError, OverflowError, RuntimeError) as exc:
        return type(exc)


def as_bits(value):
    """The bytes of a float or float array; an exception type as it is."""
    return value if isinstance(value, type) else np.asarray(value, dtype=float).tobytes()


class TestKernelReference:
    """The kernel keeps every bit of the one it replaced, kept in
    reference.py: the loop reading the set's held rows and the one-pass
    certificate give the old solves, certificates and stationarity
    measures bit for bit, and raise where they raised."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), case=kernel_cases())
    def test_solve_certificate_and_measure_keep_their_bits(self, data, case):
        problem, at_point, point, eq = case
        got, want = outcome(solve_qp, problem), outcome(reference.kernel_solve, problem)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.status is want.status
            assert (got.iterations, got.rank_warning) == (want.iterations, want.rank_warning)
            for field in ("step", "eq_multipliers", "set_multipliers", "kkt_residual"):
                assert as_bits(getattr(got, field)) == as_bits(getattr(want, field)), field
        # the certificate of the loop's candidate with one entry changed: a
        # NaN, a signed zero, an infinity or any float
        box, m, gradient = problem.set, problem.n_eq, problem.gradient.tolist()
        general, limits, exps, _ = qp._row_form(box.limits.tolist(), box,
                                                problem.eq_jacobian, problem.eq_residual)
        loop = outcome(reference.kernel_active_set, gradient, problem.curvature, general,
                       limits, m, exps)
        if not isinstance(loop, type) and loop[0] is QpStatus.OPTIMAL:
            _, d, mults, _, _ = loop
            candidate = d + mults
            candidate[data.draw(st.integers(0, len(candidate) - 1))] = data.draw(st.one_of(
                st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf]), st.floats(-1e3, 1e3)))
            args = (gradient, problem.curvature, general, limits, m, exps,
                    candidate[:len(d)], candidate[len(d):])
            assert as_bits(outcome(qp._kkt, *args)) == as_bits(outcome(reference.kernel_kkt, *args))
        got = outcome(stationarity_error, problem.gradient, at_point, point, eq)
        want = outcome(reference.kernel_stationarity, problem.gradient, at_point, point, eq)
        if isinstance(want, type):
            assert got is want
        else:
            assert as_bits(got.residual) == as_bits(want[0])
            assert as_bits(got.multipliers) == as_bits(want[1])
