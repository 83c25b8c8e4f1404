"""Release gate: one test per numbered acceptance requirement.

1. QP step contraction under gradient perturbation.
2. True-function descent dominates the model decrease (full-step loop).
3. Accepted line-search steps re-verify, respect the pi floor and the
   backtrack cap.
4. LP and QP solvers agree with brute-force enumeration.
5. Larger fixed batches end with smaller mean stationarity error.
6. Adaptive sampling reaches fixed:1000 accuracy with fewer solves.
7. Adaptive batch size climbs from 2 to the cap within a known window.
8. Equality-constrained runs land on the brute-force minimizer.
9. Trace CSVs are bitwise identical across worker counts.

Requirements 5-7 share one pricing-benchmark grid (4 strategies x 5 seeds
x 50000 oracle calls); expect a few minutes for this module.
"""

import csv
import math

import numpy as np
import pytest

from snsqp.bench.runner import run_grid, run_id_for
from snsqp.bench.synthetic import (
    build_affine_equality_problem,
    build_quadratic_equality_problem,
    build_synthetic_uc2,
    piecewise_min_batch,
    two_piece_crossing_spec,
)
from snsqp.driver import SolverConfig, compute_pi, run_algorithm1, run_algorithm2
from snsqp.lp import LpProblem, LpStatus, solve_lp
from snsqp.qp import BoxPolyhedron, QpProblem, QpStatus, solve_qp
from snsqp.sampling import FixedSize

from reference import enumerate_lp, enumerate_qp, verify_lp

BENCH_STRATEGIES = ("fixed:10", "fixed:100", "fixed:1000", "adaptive")
BENCH_SEEDS = 5
BENCH_BUDGET = 50000
BENCH_EPOCH = 500


def _epoch_rows(out_dir, strategy, seed):
    path = out_dir / f"{run_id_for(strategy, seed)}_epochs.csv"
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mean_final(rows, strategy):
    vals = [float(r["final_stationarity"]) for r in rows
            if r["strategy"] == strategy]
    assert len(vals) == BENCH_SEEDS
    return float(np.mean(vals))


@pytest.fixture(scope="module")
def pps_benchmark(tmp_path_factory):
    out = tmp_path_factory.mktemp("pps_grid")
    rows = run_grid(BENCH_STRATEGIES, n_seeds=BENCH_SEEDS, budget=BENCH_BUDGET,
                    epoch=BENCH_EPOCH, out_dir=out, seed_base=0,
                    alpha0=15.0, eta=1.0, workers=1)
    return out, rows


def test_step_contraction_under_gradient_perturbation():
    """Perturbing the model gradient moves the step by at most |dg|/alpha."""
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(120):
        n = int(rng.integers(2, 21))
        center = rng.uniform(-1.0, 1.0, n)
        box = BoxPolyhedron(lower=center - rng.uniform(0.5, 2.0, n),
                            upper=center + rng.uniform(0.5, 2.0, n))
        alpha = float(rng.uniform(0.5, 5.0))
        g = rng.normal(size=n)
        g_bar = g + rng.normal(size=n) * rng.uniform(0.01, 1.0)
        if trial % 2:
            m = int(rng.integers(1, 4))
            jac = rng.normal(size=(n, m))
            res = -jac.T @ center    # center solves the linearized rows
        else:
            jac, res = None, None
        steps = []
        for grad in (g, g_bar):
            sol = solve_qp(QpProblem(gradient=grad, curvature=alpha, set=box,
                                     eq_jacobian=jac, eq_residual=res))
            assert sol.status is QpStatus.OPTIMAL
            steps.append(sol.step)
        lhs = float(np.linalg.norm(steps[1] - steps[0]))
        assert lhs <= np.linalg.norm(g_bar - g) / alpha + 1e-8
        checked += 1
    assert checked >= 100


def test_true_descent_dominates_model_decrease():
    """With alpha = rho, every accepted step decreases the true objective by
    at least the true-gradient model decrease."""
    spec = two_piece_crossing_spec()
    problem = build_synthetic_uc2(spec, noise_width=0.5)
    config = SolverConfig(x0=np.array([1.5, -1.2]), alpha0=spec.rho,
                          strategy=FixedSize(30), budget=10 ** 9,
                          master_seed=7, max_iterations=200)
    trace = run_algorithm1(problem, config)
    assert len(trace.records) == 200

    x = config.x0
    worst = np.inf
    for rec in trace.records:
        d = rec.direction
        (r_here,), (g_true,), _ = piecewise_min_batch(spec, x, np.zeros((1, 2)))
        (r_next,), _, _ = piecewise_min_batch(spec, rec.x, np.zeros((1, 2)))
        predicted = -float(g_true @ d) - 0.5 * rec.alpha * float(d @ d)
        worst = min(worst, (r_here - r_next) - predicted)
        x = rec.x
    assert worst >= -1e-10


def test_line_search_inequality_floor_and_backtrack_cap():
    """Each accepted zeta re-verifies the merit inequality, sits above the
    power-of-1/2 floor, and pays at most ceil(log2(1/pi)) + 1 halvings."""
    problem = build_quadratic_equality_problem()
    config = SolverConfig(x0=np.array([0.5, 0.5]), alpha0=2.0,
                          strategy=FixedSize(50), budget=3000, master_seed=11)
    trace = run_algorithm2(problem, config)
    assert len(trace.records) >= 40

    x = config.x0
    for rec in trace.records:
        d = rec.direction
        c_x, _ = problem.eq_constraints(x)
        c_trial, _ = problem.eq_constraints(x + rec.zeta * d)
        lhs = rec.theta * float(np.sum(np.abs(c_x))) \
            - rec.zeta * abs(float(rec.eq_multipliers @ c_x))
        rhs = rec.theta * float(np.sum(np.abs(c_trial))) \
            - 0.5 * config.eta_beta * rec.alpha * rec.zeta * float(d @ d)
        assert lhs >= rhs
        pi = compute_pi(config.eta_beta, rec.alpha, problem.lipschitz_h,
                        rec.theta, 1)
        assert rec.pi == pi
        assert rec.zeta >= pi
        assert rec.backtracks <= math.ceil(math.log2(1.0 / pi)) + 1
        x = rec.x


def test_lp_qp_agree_with_brute_force_enumeration():
    """500 random LPs against vertex enumeration, 500 random QPs against
    active-set enumeration, both to 1e-8."""
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        s = int(rng.integers(0, 4))
        lower = rng.uniform(-3.0, 0.0, n)
        upper = lower + rng.uniform(0.5, 4.0, n)
        interior = lower + (upper - lower) * rng.uniform(0.2, 0.8, n)
        mat = rng.normal(size=(s, n))
        rhs = mat @ interior + rng.uniform(0.1, 2.0, s)
        problem = LpProblem(cost=rng.normal(size=n), ineq_matrix=mat,
                            ineq_rhs=rhs, lower=lower, upper=upper)
        sol = solve_lp(problem)
        assert sol.status is LpStatus.OPTIMAL
        assert abs(sol.objective - enumerate_lp(problem)) <= 1e-8
        assert verify_lp(problem, sol)["gap"] <= 1e-8

    for trial in range(500):
        n = int(rng.integers(2, 5))
        center = rng.uniform(-0.5, 0.5, n)
        box = BoxPolyhedron(lower=center - rng.uniform(0.3, 1.5, n),
                            upper=center + rng.uniform(0.3, 1.5, n))
        p = int(rng.integers(0, 3))
        if p:
            w = rng.normal(size=(p, n))
            box = BoxPolyhedron(lower=box.lower, upper=box.upper,
                                ineq_matrix=w,
                                ineq_rhs=w @ center + rng.uniform(0.05, 1.0, p))
        if trial % 2:
            m = int(rng.integers(1, 3))
            jac = rng.normal(size=(n, m))
            res = -jac.T @ center
        else:
            jac, res = None, None
        alpha = float(rng.uniform(0.5, 5.0))
        problem = QpProblem(gradient=rng.normal(size=n), curvature=alpha,
                            set=box, eq_jacobian=jac, eq_residual=res)
        sol = solve_qp(problem)
        assert sol.status is QpStatus.OPTIMAL
        obj = float(problem.gradient @ sol.step) \
            + 0.5 * alpha * float(sol.step @ sol.step)
        ref_obj, _ = enumerate_qp(problem)
        assert abs(obj - ref_obj) <= 1e-8


def test_larger_fixed_batches_end_with_smaller_error(pps_benchmark,
                                                     tmp_path_factory):
    """Mean final stationarity error: fixed:10 > fixed:100 > fixed:1000.

    Stochastic ordering on 5-seed means; one retry with fresh seeds before
    declaring failure.
    """
    _, rows = pps_benchmark
    means = {s: _mean_final(rows, s) for s in BENCH_STRATEGIES[:3]}
    if not (means["fixed:10"] > means["fixed:100"] > means["fixed:1000"]):
        retry_dir = tmp_path_factory.mktemp("pps_grid_retry")
        rows = run_grid(BENCH_STRATEGIES[:3], n_seeds=BENCH_SEEDS,
                        budget=BENCH_BUDGET, epoch=BENCH_EPOCH,
                        out_dir=retry_dir, seed_base=BENCH_SEEDS,
                        alpha0=15.0, eta=1.0, workers=1)
        means = {s: _mean_final(rows, s) for s in BENCH_STRATEGIES[:3]}
    assert means["fixed:10"] > means["fixed:100"]
    assert means["fixed:100"] > means["fixed:1000"]


def test_adaptive_reaches_large_batch_accuracy_with_fewer_solves(pps_benchmark):
    """Adaptive final error within 2x of fixed:1000, reached with strictly
    fewer cumulative oracle calls (budget counted when never reached)."""
    out, rows = pps_benchmark
    fixed_mean = _mean_final(rows, "fixed:1000")
    adaptive_mean = _mean_final(rows, "adaptive")
    assert adaptive_mean <= 2.0 * fixed_mean

    def calls_to_reach(strategy, seed, level):
        for row in _epoch_rows(out, strategy, seed):
            if float(row["stationarity"]) <= level:
                return float(row["oracle_calls"])
        return float(BENCH_BUDGET)

    level = fixed_mean
    adaptive_cost = np.mean([calls_to_reach("adaptive", s, level)
                             for s in range(BENCH_SEEDS)])
    fixed_cost = np.mean([calls_to_reach("fixed:1000", s, level)
                          for s in range(BENCH_SEEDS)])
    assert adaptive_cost < fixed_cost


def test_adaptive_batch_size_climbs_to_cap_quickly(pps_benchmark):
    """N starts at 2 and hits the cap of 1000 within 10-60 iterations on a
    majority of seeds."""
    out, _ = pps_benchmark
    hits = 0
    for seed in range(BENCH_SEEDS):
        path = out / f"{run_id_for('adaptive', seed)}_trace.csv"
        with open(path, newline="") as fh:
            trace_rows = list(csv.DictReader(fh))
        assert int(trace_rows[0]["N"]) == 2
        first_cap = next((int(r["k"]) for r in trace_rows
                          if int(r["N"]) == 1000), None)
        if first_cap is not None and 10 <= first_cap <= 60:
            hits += 1
    assert hits >= 3


def test_equality_runs_land_on_brute_force_minimizer():
    """With N = 1000, at least 4 of 5 seeds end feasible and within 0.05 of
    the grid-search constrained minimizer."""
    problem = build_affine_equality_problem()
    # the constraint pins x2 = 1 - x1; the box then allows x1 in [-1, 2];
    # expectations on the grid come from a dense midpoint rule over the
    # uniform noise interval
    t_grid = np.linspace(-1.0, 2.0, 3001)
    xi = np.linspace(-0.2, 0.2, 2001)
    values = -np.mean(np.abs(t_grid[:, None] - xi[None, :]), axis=1)
    t_star = t_grid[np.argmin(values)]
    x_star = np.array([t_star, 1.0 - t_star])

    hits = 0
    for seed in range(5):
        config = SolverConfig(x0=np.array([0.0, 0.0]), alpha0=1.0,
                              strategy=FixedSize(1000), budget=120000,
                              master_seed=seed)
        trace = run_algorithm2(problem, config)
        x = trace.final_x
        c, _ = problem.eq_constraints(x)
        if (float(np.sum(np.abs(c))) <= 1e-6
                and float(np.max(np.abs(x - x_star))) <= 0.05):
            hits += 1
    assert hits >= 4


def test_trace_csvs_bitwise_identical_across_worker_counts(tmp_path):
    """Same seeds, 1 worker vs 2 workers: every CSV byte matches."""
    grid = dict(strategies=("fixed:10", "adaptive"), n_seeds=2, budget=600,
                epoch=100, seed_base=0, alpha0=15.0, eta=1.0)
    run_grid(out_dir=tmp_path / "serial", workers=1, **grid)
    run_grid(out_dir=tmp_path / "pool", workers=2, **grid)

    serial_files = sorted((tmp_path / "serial").glob("*.csv"))
    names = [f.name for f in serial_files]
    assert "summary.csv" in names and len(names) == 9
    for path in serial_files:
        twin = tmp_path / "pool" / path.name
        assert path.read_bytes() == twin.read_bytes()
