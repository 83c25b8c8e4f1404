"""Stationarity measure and trace/epoch export.

The cone-projection residual is certified four ways: hand-constructed KKT
points (residual zero), exact recovery of planted multipliers, a dense grid
scan over candidate multipliers as an independent minimizer, and agreement
with scipy's NNLS on random problems.  scipy is a test-only dependency.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import nnls

import snsqp
from snsqp.diagnostics import (
    ACTIVITY_TOL,
    DEFAULT_EPOCH,
    REFERENCE_BATCH,
    REFERENCE_SEED,
    TRACE_COLUMNS,
    StationarityReport,
    export_trace,
    fill_stationarity,
    reference_batch,
    reference_objective,
    reference_stationarity,
    stationarity_error,
    write_run_csv,
)
from snsqp.driver import IterationRecord, IterationTrace, SolverConfig
from snsqp.qp import BoxPolyhedron
from snsqp.sampling import FixedSize, draw_scenarios

from reference import set_rows


def column_stationarity(g, constraints_value, constraints_jacobian):
    """The measure in column form, rows c_j(x) >= 0 with constraint gradients
    J (n x k): min |g - J lam| over lam >= 0 on the active rows.

    It builds the equivalent set at x = 0, bounds -1 <= x <= 1, which are
    never active there, and the rows -J.T @ x <= c, and returns the report
    without the bound entries.
    """
    jac = np.asarray(constraints_jacobian, dtype=float)
    c = np.atleast_1d(np.asarray(constraints_value, dtype=float))
    n = jac.shape[0]
    box = BoxPolyhedron(-np.ones(n), np.ones(n), -jac.T, c)
    report = stationarity_error(g, box, np.zeros(n))
    return StationarityReport(report.residual, report.multipliers[2 * n:],
                              report.active_mask[2 * n:])


class TestStationarityError:
    def test_zero_gradient_is_stationary(self):
        report = column_stationarity(np.zeros(3), np.array([0.0, 1.0]),
                                     np.ones((3, 2)))
        assert report.residual == pytest.approx(0.0)
        np.testing.assert_array_equal(report.active_mask, [True, False])

    def test_no_active_rows_returns_gradient_norm(self):
        g = np.array([3.0, -4.0])
        report = column_stationarity(g, np.array([2.0]), np.array([[1.0], [0.0]]))
        assert report.residual == pytest.approx(5.0)
        assert not report.active_mask.any()
        assert np.all(report.multipliers == 0.0)

    def test_recovers_planted_multipliers(self):
        """g built as J lam* with lam* >= 0 on active rows: residual 0."""
        rng = np.random.default_rng(404)
        for _ in range(50):
            n, j = 4, 3
            jac = rng.normal(size=(n, j))
            lam_true = rng.uniform(0.5, 2.0, j)
            g = jac @ lam_true
            c = np.zeros(j)   # all rows active
            report = column_stationarity(g, c, jac)
            assert report.residual <= 1e-8
            np.testing.assert_allclose(report.multipliers, lam_true, atol=1e-6)

    def test_matches_grid_scan(self):
        """Dense scan over lam >= 0 as an independent minimizer."""
        g = np.array([1.0, 0.5, -0.3])
        jac = np.array([[1.0, 0.0, 0.4],
                        [0.0, 1.0, -0.2],
                        [0.3, -0.5, 1.0]])
        c = np.zeros(3)
        report = column_stationarity(g, c, jac)
        axis = np.arange(0.0, 2.0, 1e-3)
        best = np.inf
        for l0 in axis[::20]:
            for l1 in axis[::20]:
                resid = g[:, None] - (jac[:, :2] @ np.stack(
                    [np.full_like(axis, l0), np.full_like(axis, l1)])
                    + jac[:, 2:3] * axis)
                best = min(best, float(np.min(np.linalg.norm(resid, axis=0))))
        assert report.residual <= best + 1e-9
        assert report.residual >= best - 2e-3

    def test_inactive_rows_get_zero_multiplier(self):
        g = np.array([1.0, 1.0])
        c = np.array([0.0, 5.0])
        jac = np.array([[1.0, 1.0], [1.0, 1.0]])
        report = column_stationarity(g, c, jac)
        assert report.multipliers[1] == 0.0

    def test_relative_activity_threshold(self):
        """Active iff |c| <= tol*(1+|c|), i.e. |c| <= tol/(1-tol) = 1.000001e-6."""
        assert ACTIVITY_TOL == 1e-6
        g = np.array([1.0])
        jac = np.array([[1.0, 1.0]])
        # 1.0000005e-6 is above tol itself but inside the relative margin
        for value, active in ((-1.0000005e-6, True), (1.0000005e-6, True),
                              (1.0000015e-6, False), (-1.0000015e-6, False)):
            report = column_stationarity(g, np.array([value, 1.0]), jac)
            assert report.active_mask.tolist() == [active, False]
            assert report.residual == pytest.approx(0.0 if active else 1.0)

    def test_scaling_property(self):
        """The cone is scale-invariant: residual(t g) = t residual(g)."""
        rng = np.random.default_rng(15)
        g = rng.normal(size=4)
        jac = rng.normal(size=(4, 2))
        base = column_stationarity(g, np.zeros(2), jac).residual
        for t in (0.5, 2.0, 10.0):
            scaled = column_stationarity(t * g, np.zeros(2), jac).residual
            assert scaled == pytest.approx(t * base, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            column_stationarity(np.zeros(2), np.zeros(2), np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["gradient", "value", "jacobian"])
    @pytest.mark.parametrize("row_active", [True, False])
    def test_rejects_non_finite_input(self, bad, where, row_active):
        """Both the no-active-row path and the NNLS path check every input."""
        g = np.array([1.0, 2.0])
        c = np.array([0.0 if row_active else 1.0, 3.0])
        jac = np.eye(2)
        {"gradient": g, "value": c, "jacobian": jac}[where].flat[1] = bad
        with pytest.raises(ValueError, match="finite"):
            column_stationarity(g, c, jac)


@st.composite
def nnls_problems(draw):
    """(g, J) with n <= 4 rows and k <= 6 columns; about a third of them end
    with a negated copy of one column, as an equality row contributes.

    Nonzero entries are at least 1e-3 in size: scipy's NNLS tests its
    weights against absolute tolerances and returns lam = 0 for
    g = J = [[1.85e-305]], so it is no reference at extreme scales.
    test_extreme_scales_are_exact covers those.
    """
    entries = st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    jac = np.array([[draw(entries) for _ in range(k)] for _ in range(n)])
    if draw(st.integers(0, 2)) == 0:
        jac = np.hstack([jac, -jac[:, [draw(st.integers(0, k - 1))]]])
    g = np.array([draw(entries) for _ in range(n)])
    return g, jac


class TestAgainstScipyNnls:
    @settings(max_examples=500, deadline=None)
    @given(problem=nnls_problems())
    # the final projection leaves the last multiplier at -7.2e-16
    @example(problem=(np.array([0.0, -1.0]), np.array([[0.5, 0.0, 0.0, 0.0, -0.5],
                                                       [3.0, 0.0, 0.0, -2.5, -3.0]])))
    def test_residual_and_multipliers(self, problem):
        """All rows active, so the measure is the NNLS min |g - J lam|, lam >= 0.

        The residual is |g - J lam| evaluated at the returned lam, which
        carries rounding of order eps * | |g| + |J| lam |.  Where g lies in a
        badly conditioned cone lam is large, and that term, not |g|, sets the
        agreement bound.  lam is unique only when J has full column rank, and
        then a perturbation of the data moves it by at most cond(J) times
        its relative size.
        """
        g, jac = problem
        report = column_stationarity(g, np.zeros(jac.shape[1]), jac)
        lam = report.multipliers
        lam_ref, residual_ref = nnls(jac, g)
        assert np.all(lam >= 0.0)
        scale = max(1.0, np.linalg.norm(g), np.linalg.norm(np.abs(jac) @ lam))
        assert abs(report.residual - residual_ref) <= 1e-12 * scale
        if np.linalg.matrix_rank(jac) == jac.shape[1]:
            bound = 1e-12 * np.linalg.cond(jac) * max(1.0, np.linalg.norm(lam_ref))
            assert np.max(np.abs(lam - lam_ref)) <= bound

    def test_extreme_scales_are_exact(self):
        """Scaling g or a column by a power of two scales the residual or the
        multiplier exactly, even where a_j . a_j would underflow or overflow."""
        g = np.array([3.0, 1.0, 0.5])
        jac = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        base = column_stationarity(g, np.zeros(2), jac)
        assert base.residual == pytest.approx(0.5, rel=1e-14)
        np.testing.assert_allclose(base.multipliers, [1.0, 1.0], rtol=1e-14)
        for shift in (-1000, -600, 600):
            scaled_g = column_stationarity(np.ldexp(g, shift), np.zeros(2), jac)
            assert scaled_g.residual == np.ldexp(base.residual, shift)
            np.testing.assert_array_equal(scaled_g.multipliers,
                                          np.ldexp(base.multipliers, shift))
            scaled_col = column_stationarity(
                g, np.zeros(2), jac * np.ldexp(1.0, [shift, 0]))
            assert scaled_col.residual == base.residual
            np.testing.assert_array_equal(
                scaled_col.multipliers, np.ldexp(base.multipliers, [-shift, 0]))

    def test_opposing_pair_gives_free_sign(self):
        """An equality row's +-J pair: one side carries the multiplier."""
        jac = np.array([[2.0, -2.0], [0.0, 0.0]])
        for g, expected in (([3.0, 0.5], [1.5, 0.0]), ([-3.0, 0.5], [0.0, 1.5])):
            report = column_stationarity(np.array(g), np.zeros(2), jac)
            np.testing.assert_allclose(report.multipliers, expected, rtol=1e-15)
            assert report.residual == pytest.approx(0.5, rel=1e-15)


def entry_point_imports(package: str,
                        imports: str = "snsqp, snsqp.bench.cli, snsqp.bench.runner") -> str:
    """The modules of `package` that importing `imports` (by default the
    solver and the benchmark entry points) loads in a fresh interpreter, as a
    printed sorted list."""
    src = str(Path(snsqp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {imports}; "
            "print(sorted(m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_runtime_imports_leave_scipy_out():
    """The solver and the benchmark entry points run on numpy alone."""
    assert entry_point_imports("scipy") == "[]"


def test_runtime_imports_leave_multiprocessing_out():
    """Only a grid run with several workers imports the process pool."""
    assert entry_point_imports("multiprocessing") == "[]"


def test_package_import_loads_the_solver_alone():
    """`import snsqp` loads the solver loops and what they call, not the LP
    kernel, the diagnostics or the CSV writer."""
    assert entry_point_imports("snsqp", "snsqp") == str(
        ["snsqp", "snsqp.driver", "snsqp.model", "snsqp.qp", "snsqp.sampling"])
    assert entry_point_imports("csv", "snsqp") == "[]"


@st.composite
def set_form_problems(draw):
    """(g, box, x, eq, active) with n <= 4 coordinates, p <= 3 inequality
    rows and m <= 2 equality rows, and the expected activity of each row.

    x sits on faces: each coordinate at its lower bound, its upper bound or
    inside, and some coordinates have zero width.  An inequality row is a
    random row through x (value 0 up to rounding) or 0.5 away from it, or
    it repeats a bound of one coordinate.  An equality row is active (c = 0)
    or not, and some have a zero column.  Nonzero entries are at least 1e-3
    in size, as for nnls_problems.
    """
    entries = st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
    vector = lambda k: np.array([draw(entries) for _ in range(k)])
    n, p, m = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    lower = vector(n)
    upper = lower + np.array([draw(st.sampled_from([0.0, 0.5, 2.0])) for _ in range(n)])
    where = [draw(st.sampled_from(["lower", "upper", "inside"])) for _ in range(n)]
    x = np.array([lo if w == "lower" else hi if w == "upper" or lo == hi
                  else 0.5 * (lo + hi) for lo, hi, w in zip(lower, upper, where)])
    rows, rhs = np.zeros((p, n)), np.zeros(p)
    for r in range(p):
        i, kind = draw(st.integers(0, n - 1)), draw(st.sampled_from(
            ["through", "off", "repeats lower", "repeats upper"]))
        if kind.startswith("repeats"):
            rows[r, i] = -1.0 if kind == "repeats lower" else 1.0
            rhs[r] = -lower[i] if kind == "repeats lower" else upper[i]
        else:
            rows[r] = vector(n)
            rhs[r] = rows[r] @ x + (0.5 if kind == "off" else 0.0)
    box = BoxPolyhedron(lower, upper, rows if p else None, rhs if p else None)
    eq = None
    if m:
        columns = [vector(n) * (draw(st.integers(0, 3)) > 0) for _ in range(m)]
        eq = (np.array([draw(st.sampled_from([0.0, 0.0, 0.5, -2.0])) for _ in range(m)]),
              np.array(columns).T)
    slack = np.concatenate([x - lower, upper - x, rhs - rows @ x,
                            np.zeros(0) if eq is None else eq[0]])
    return vector(n), box, x, eq, np.abs(slack) <= ACTIVITY_TOL * (1.0 + np.abs(slack))


class TestPolyhedronRows:
    def test_box_rows(self):
        """One entry per row of the set's row form: lower bounds, upper
        bounds, inequality rows, then the equality rows."""
        box = BoxPolyhedron(lower=[0.0, -1.0], upper=[2.0, 1.0],
                            ineq_matrix=[[1.0, 1.0]], ineq_rhs=[1.5])
        # x1 at its upper bound and on the row x0 + x1 <= 1.5; -g = (1, 2)
        # is the upper-bound normal (0, 1) plus the row's normal (1, 1)
        x = np.array([0.5, 1.0])
        report = stationarity_error(np.array([-1.0, -2.0]), box, x)
        assert report.active_mask.tolist() == [False, False, False, True, True]
        np.testing.assert_allclose(report.multipliers, [0.0, 0.0, 0.0, 1.0, 1.0],
                                   atol=1e-15)
        assert report.residual <= 1e-15
        # off the row, an active equality row with normal (1, 0) takes the
        # first coordinate of g with a negative multiplier, the upper bound
        # on x1 the second
        x = np.array([0.25, 1.0])
        eq = (np.array([0.0, 3.0]), np.array([[1.0, 1.0], [0.0, 0.0]]))
        report = stationarity_error(np.array([1.0, -2.0]), box, x, eq)
        assert report.active_mask.tolist() == [False] * 3 + [True, False] + [True, False]
        np.testing.assert_allclose(report.multipliers, [0.0] * 3 + [2.0, 0.0, -1.0, 0.0],
                                   atol=1e-15)
        assert report.residual <= 1e-15

    def test_kkt_point_of_box_projection_is_stationary(self):
        """At x* = argmin over the box, -g sits in the normal cone: the
        stationarity measure applied to -gradient-of-model must vanish."""
        box = BoxPolyhedron(lower=[0.0, 0.0], upper=[1.0, 1.0])
        # objective x1 (minimized at the lower face): gradient (1, 0)
        x_star = np.array([0.0, 0.5])
        report = stationarity_error(np.array([1.0, 0.0]), box, x_star)
        assert report.residual <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["value", "jacobian"])
    @pytest.mark.parametrize("row_active", [True, False])
    def test_rejects_non_finite_equality_rows(self, bad, where, row_active):
        box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        c = np.array([0.0 if row_active else 1.0, 3.0])
        jac = np.eye(2)
        {"value": c, "jacobian": jac}[where].flat[1] = bad
        with pytest.raises(ValueError, match="finite"):
            stationarity_error(np.array([1.0, 2.0]), box, np.zeros(2), (c, jac))

    def test_rejects_shape_mismatch(self):
        box = BoxPolyhedron(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        with pytest.raises(ValueError):
            stationarity_error(np.zeros(3), box, np.zeros(2))
        with pytest.raises(ValueError):
            stationarity_error(np.zeros(2), box, np.zeros(2),
                               (np.zeros(1), np.zeros((2, 2))))

    @settings(max_examples=500, deadline=None)
    @given(problem=set_form_problems())
    def test_against_scipy_nnls_over_the_blockwise_columns(self, problem):
        """The measure is scipy's NNLS min |g - J lam| over the active columns
        of [I, -I, -W^T, E, -E]: bounds x - l >= 0 and u - x >= 0, rows
        h - Wx >= 0, and each equality row as an opposing pair.  Bounds with
        zero width, rows that repeat a bound and zero equality columns leave
        the multipliers non-unique, so only the residual, the signs and the
        residual of the returned multipliers are compared."""
        g, box, x, eq, expected_active = problem
        report = stationarity_error(g, box, x, eq)
        n, n_set = box.dim, box.limits.size
        jac = np.zeros((n, 0)) if eq is None else eq[1]
        np.testing.assert_array_equal(report.active_mask, expected_active)
        mu, nu = report.multipliers[:n_set], report.multipliers[n_set:]
        assert np.all(mu >= 0.0)
        assert np.all(report.multipliers[~report.active_mask] == 0.0)
        rows = set_rows(box)
        columns = np.hstack([-rows.T, jac, -jac])[
            :, np.concatenate([expected_active, expected_active[n_set:]])]
        # scipy's NNLS crashes the interpreter on a matrix with no columns
        residual_ref = nnls(columns, g)[1] if columns.size else np.linalg.norm(g)
        scale = max(1.0, np.linalg.norm(g),
                    np.linalg.norm(np.abs(rows.T) @ mu + np.abs(jac) @ np.abs(nu)))
        assert abs(report.residual - residual_ref) <= 1e-12 * scale
        own = np.linalg.norm(g + rows.T @ mu + jac @ nu)
        assert abs(own - report.residual) <= 1e-12 * scale


def _record(k, calls, x, batch=10):
    return IterationRecord(
        k=k, x=np.asarray(x, dtype=float), step_norm=0.1, pred_decrease=0.01,
        zeta=1.0, beta=1.0, alpha=2.0, theta=0.0, batch_size=batch,
        oracle_calls=calls, merit=-1.0, objective_estimate=-1.0,
        stationarity=float(k))


def _trace(records, stop_reason, budget=None):
    config = None
    if budget is not None:
        config = SolverConfig(x0=np.zeros(2), alpha0=1.0,
                              strategy=FixedSize(10), budget=budget)
    return IterationTrace(records=records, stop_reason=stop_reason,
                          problem=None, config=config)


class TestEpochAccounting:
    def test_epoch_index_is_floor_of_calls_minus_one(self):
        records = [_record(1, 200, [0.0, 0.0]),
                   _record(2, 400, [0.1, 0.0]),
                   _record(3, 600, [0.2, 0.0])]
        iter_rows, epoch_rows = export_trace(_trace(records, "stall"),
                                             epoch_size=500)
        assert [row["epoch"] for row in iter_rows] == [0, 0, 1]
        assert [row["epoch"] for row in epoch_rows] == [0, 1]
        # latest record within each epoch wins
        assert epoch_rows[0]["k"] == 2
        assert epoch_rows[1]["k"] == 3

    def test_budget_stop_fills_whole_cost_axis(self):
        # batches of 1000: records at 1000, 2000, ..., 50000
        records = [_record(k, 1000 * k, [0.0, 0.0], batch=1000)
                   for k in range(1, 51)]
        _, epoch_rows = export_trace(_trace(records, "budget", budget=50_000),
                                     epoch_size=500)
        assert len(epoch_rows) == 100
        assert [row["epoch"] for row in epoch_rows] == list(range(100))
        # record k lands in epoch 2k-1 and carries into 2k; epoch 0 backfills
        assert epoch_rows[0]["k"] == 1 and epoch_rows[1]["k"] == 1
        assert epoch_rows[2]["k"] == 1
        assert epoch_rows[3]["k"] == 2
        assert epoch_rows[99]["k"] == 50

    def test_early_stop_truncates_cost_axis(self):
        records = [_record(1, 700, [0.0, 0.0], batch=700)]
        _, epoch_rows = export_trace(_trace(records, "stall", budget=50_000),
                                     epoch_size=500)
        assert len(epoch_rows) == 2   # epochs 0 and 1 only

    def test_leading_epochs_backfill_from_first_record(self):
        records = [_record(1, 1800, [0.5, 0.5], batch=1800),
                   _record(2, 2100, [0.6, 0.5], batch=300)]
        _, epoch_rows = export_trace(_trace(records, "stall"), epoch_size=500)
        assert len(epoch_rows) == 5
        assert [row["k"] for row in epoch_rows] == [1, 1, 1, 1, 2]

    def test_empty_trace_exports_nothing(self):
        iter_rows, epoch_rows = export_trace(_trace([], "budget", budget=100))
        assert iter_rows == [] and epoch_rows == []

    def test_bad_epoch_size_rejected(self):
        with pytest.raises(ValueError):
            export_trace(_trace([], "stall"), epoch_size=0)


class TestCsvExport:
    def test_column_order_and_values(self, tmp_path):
        records = [_record(1, 10, [0.25, -1.5])]
        trace_path, epochs_path = write_run_csv(_trace(records, "stall"),
                                                tmp_path, "demo", epoch_size=500)
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRACE_COLUMNS) + ["x0", "x1"]
        body = dict(zip(rows[0], rows[1]))
        assert body["k"] == "1"
        assert body["epoch"] == "0"
        assert body["oracle_calls"] == "10"
        assert body["N"] == "10"
        assert float(body["x0"]) == 0.25
        assert float(body["x1"]) == -1.5
        # floats are written as repr: round-trip is exact
        assert float(body["alpha"]) == 2.0
        with open(epochs_path, newline="") as fh:
            erows = list(csv.reader(fh))
        assert erows[0] == rows[0]
        assert len(erows) == 2

    def test_empty_trace_writes_header_only(self, tmp_path):
        trace_path, epochs_path = write_run_csv(_trace([], "budget", budget=50),
                                                tmp_path, "empty")
        for path in (trace_path, epochs_path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1
            assert rows[0] == list(TRACE_COLUMNS)


class TestReferenceMeasure:
    def test_frozen_batch_reused(self):
        from snsqp.bench.pps import build_pps_problem
        problem = build_pps_problem()
        x = np.array([2.0, 7.0])
        batch = reference_batch(problem)
        assert len(batch) == REFERENCE_BATCH
        # a freshly built problem (a new sampler closure) draws the same batch
        assert np.array_equal(batch, reference_batch(build_pps_problem()))
        a = reference_stationarity(problem, x, batch)
        b = reference_stationarity(problem, x, reference_batch(problem))
        assert a == b
        assert (reference_objective(problem, x, batch)
                == reference_objective(problem, x, reference_batch(problem)))

    def test_batch_oracle_agrees_with_scenario_loop(self):
        from snsqp.bench.pps import build_pps_problem
        problem = build_pps_problem()
        x = np.array([3.0, 6.0])
        batch = draw_scenarios(problem.scenario_sampler, REFERENCE_SEED, 0, 200)
        loop = [problem.oracle(x, batch[i:i + 1]) for i in range(len(batch))]
        loop_value = np.mean([values[0] for values, _ in loop])
        loop_grad = np.mean([grads[0] for _, grads in loop], axis=0)
        loop_measure = stationarity_error(loop_grad, problem.set, x).residual
        assert reference_objective(problem, x, batch) == pytest.approx(
            loop_value, abs=1e-9)
        assert reference_stationarity(problem, x, batch) == pytest.approx(
            loop_measure, abs=1e-9)

    def test_interior_point_measure_is_gradient_norm(self):
        """Strictly inside the set no rows are active, so the measure is |g|."""
        from snsqp.bench.synthetic import (build_synthetic_uc2,
                                           two_piece_crossing_spec)
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.2)
        x = np.array([0.7, -0.4])
        batch = draw_scenarios(problem.scenario_sampler, REFERENCE_SEED, 0, 64)
        scenarios_measure = reference_stationarity(problem, x, batch)
        from snsqp.sampling import aggregate
        g = aggregate(problem, x, batch).mean_subgradient
        assert scenarios_measure == pytest.approx(float(np.linalg.norm(g)))

    def test_fill_stationarity_populates_all_records(self):
        from snsqp.bench.synthetic import (build_synthetic_uc2,
                                           two_piece_crossing_spec)
        from snsqp.driver import run_algorithm1
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.3)
        config = SolverConfig(x0=np.array([1.0, 1.0]), alpha0=4.0,
                              strategy=FixedSize(5), budget=100, master_seed=6)
        trace = run_algorithm1(problem, config)
        assert all(math.isnan(rec.stationarity) for rec in trace.records)
        fill_stationarity(trace, draw_scenarios(problem.scenario_sampler,
                                                REFERENCE_SEED, 0, 64))
        assert all(math.isfinite(rec.stationarity) for rec in trace.records)
        assert all(rec.stationarity >= 0.0 for rec in trace.records)

    @pytest.mark.parametrize("calls, stop_reason, budget", [
        ([300 * k for k in range(1, 11)], "budget", 3000),   # budget stop
        ([200, 400, 600], "stall", None),                   # stall stop
        ([1800, 2100], "stall", None),                      # leading backfill
        ([700, 1400], "budget", 1000),                      # budget overshoot
    ])
    def test_epoch_fill_covers_every_carried_record(self, calls, stop_reason,
                                                    budget):
        """Every record an epoch row carries has its stationarity filled."""
        from snsqp.bench.synthetic import (build_synthetic_uc2,
                                           two_piece_crossing_spec)
        problem = build_synthetic_uc2(two_piece_crossing_spec(), noise_width=0.3)
        records = [_record(k, c, [0.1 * k, -0.5]) for k, c in enumerate(calls, 1)]
        for rec in records:
            rec.stationarity = math.nan
        trace = _trace(records, stop_reason, budget=budget)
        trace.problem = problem
        fill_stationarity(trace, draw_scenarios(problem.scenario_sampler,
                                                REFERENCE_SEED, 0, 64),
                          epoch_size=500)
        _, epoch_rows = export_trace(trace, epoch_size=500)
        carried = {row["k"] for row in epoch_rows}
        assert all(math.isfinite(records[k - 1].stationarity) for k in carried)
        assert math.isfinite(records[-1].stationarity)

    def test_affine_eq_corner_is_exactly_stationary(self, monkeypatch):
        """At the corner (-1, 2) of affine-eq the upper bound on x1 and the
        equality row x0 + x1 = 1 are active.  The bound fixes x1 and the row
        then fixes x0, so the projection is exactly zero with no SVD: one
        working row on the free coordinates takes the closed form."""
        from snsqp.bench.synthetic import build_affine_equality_problem

        def no_svd(*args, **kwargs):
            raise AssertionError("the measure called np.linalg.svd")

        problem = build_affine_equality_problem()
        batch = reference_batch(problem)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert reference_stationarity(problem, np.array([-1.0, 2.0]), batch) == 0.0

    def test_equality_rows_relax_the_measure(self):
        """A gradient normal to the constraint manifold counts as stationary."""
        from snsqp.bench.synthetic import build_quadratic_equality_problem
        problem = build_quadratic_equality_problem()
        # at x = (1, 0): c = 0, constraint gradient (2, 0); over a batch of
        # zero shifts the subgradient of |x - xi|^2 at x is 2x = (2, 0),
        # exactly J * 1
        x = np.array([1.0, 0.0])
        measure = reference_stationarity(problem, x, np.zeros((16, 2)))
        assert measure <= 1e-8
