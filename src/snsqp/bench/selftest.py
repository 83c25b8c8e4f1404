"""Fast invariant checks behind `snsqp selftest`.

Each check re-derives a solver answer from something dumber (enumeration,
closed forms, hand arithmetic) and compares.  Runtime is a few seconds; the
full test suite is stricter and larger.
"""

from __future__ import annotations

import numpy as np

from ..driver import compute_pi
from ..lp import LpProblem, LpStatus, solve_lp, verify_lp
from ..qp import BoxPolyhedron, QpProblem, QpStatus, solve_qp
from ..sampling import SampleStats, AdaptiveSize, draw_scenarios, next_sample_size
from . import pps
from .reference import enumerate_lp, enumerate_qp


def check_lp_enumeration() -> str:
    rng = np.random.default_rng(101)
    for trial in range(40):
        q = int(rng.integers(2, 5))
        s = int(rng.integers(1, 5))
        a_mat = rng.normal(size=(s, q))
        x_mid = rng.normal(size=q)
        rhs = a_mat @ x_mid + rng.uniform(0.0, 2.0, s)
        lo = x_mid - rng.uniform(0.5, 2.0, q)
        up = x_mid + rng.uniform(0.5, 2.0, q)
        prob = LpProblem(rng.normal(size=q), a_mat, rhs, lo, up)
        sol = solve_lp(prob)
        if sol.status is not LpStatus.OPTIMAL:
            return f"trial {trial}: unexpected status {sol.status.value}"
        gap = abs(sol.objective - enumerate_lp(prob))
        residuals = verify_lp(prob, sol)
        if gap > 1e-8 or max(residuals.values()) > 1e-7:
            return f"trial {trial}: gap {gap:.2e}, residuals {residuals}"
    return ""


def check_qp_enumeration() -> str:
    rng = np.random.default_rng(202)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        lo = rng.uniform(-2.0, -0.2, n)
        up = rng.uniform(0.2, 2.0, n)
        if p:
            box = BoxPolyhedron(lower=lo, upper=up,
                                ineq_matrix=rng.normal(size=(p, n)),
                                ineq_rhs=rng.uniform(0.1, 1.0, p))
        else:
            box = BoxPolyhedron(lower=lo, upper=up)
        prob = QpProblem(gradient=rng.normal(size=n) * 2,
                         curvature=float(rng.uniform(0.5, 5.0)), set=box)
        sol = solve_qp(prob)
        if sol.status is not QpStatus.OPTIMAL:
            return f"trial {trial}: unexpected status {sol.status.value}"
        got = prob.gradient @ sol.step + 0.5 * prob.curvature * (sol.step @ sol.step)
        want, _ = enumerate_qp(prob)
        if abs(got - want) > 1e-8:
            return f"trial {trial}: objective {got} vs enumeration {want}"
    return ""


def check_scenario_determinism() -> str:
    sampler = pps.scenario_sampler(pps.build_pps_instance())
    first = draw_scenarios(sampler, 7, 3, 5)
    if not np.array_equal(first, draw_scenarios(sampler, 7, 3, 5)):
        return "identical (seed, iteration) produced different batches"
    if np.array_equal(first, draw_scenarios(sampler, 7, 4, 5)):
        return "different iterations produced identical batches"
    return ""


def check_pi_formula() -> str:
    # ratio 0.5 exactly: one halving
    if compute_pi(0.5, 1.0, 1.0, 1.0, 1) != 0.5:
        return "ratio 0.5 should give pi = 0.5"
    if compute_pi(0.9, 10.0, 1.0, 1.0, 1) != 1.0:
        return "ratio >= 1 should give pi = 1"
    if compute_pi(0.5, 1.0, 0.0, 5.0, 3) != 1.0:
        return "h = 0 should give pi = 1"
    return ""


def check_adaptive_arithmetic() -> str:
    strategy = AdaptiveSize(eta=1.0, cap=10 ** 6)
    stats = SampleStats(mean_value=0.0, mean_subgradient=np.zeros(1),
                        sum_sq_dev=90.0, batch_size=10)
    # eta * alpha * |d|^2 = 0.5 fails the test (1 > 0.5): grow to ceil(90/4.5)
    grown = next_sample_size(strategy, stats, alpha=0.5, step_norm_sq=1.0,
                             iteration=2)
    if grown != 20:
        return f"expected 20, got {grown}"
    kept = next_sample_size(strategy, stats, alpha=100.0, step_norm_sq=1.0,
                            iteration=2)
    if kept != 10:
        return f"passing test should keep N = 10, got {kept}"
    return ""


def check_recourse_closed_form() -> str:
    instance = pps.build_pps_instance()
    scenarios = draw_scenarios(pps.scenario_sampler(instance), 55, 0, 200)
    slopes, intercepts = pps.split_scenarios(instance, scenarios)
    rng = np.random.default_rng(55)
    for _ in range(10):
        p = float(rng.uniform(*instance.price_bounds))
        x = float(rng.uniform(1.0, 2.0))
        values, grads = pps.pps_oracle(instance, (x, p), scenarios)
        cf_val, cf_der = pps.recourse_closed_form(instance, p, slopes, intercepts)
        value_gap = np.abs(values - ((instance.first_stage_cost - p) * x + cf_val))
        deriv_gap = np.abs(grads[:, 1] - (-x + cf_der))
        for name, gap in (("value", value_gap), ("d/dp", deriv_gap)):
            i = int(np.argmax(gap))
            if gap[i] > 1e-7:
                return f"p = {p}, scenario {i}: {name} off the closed form by {gap[i]:.2e}"
    return ""


CHECKS = (
    ("lp vs vertex enumeration", check_lp_enumeration),
    ("qp vs active-set enumeration", check_qp_enumeration),
    ("scenario stream determinism", check_scenario_determinism),
    ("line-search floor formula", check_pi_formula),
    ("adaptive batch arithmetic", check_adaptive_arithmetic),
    ("recourse closed form vs LP", check_recourse_closed_form),
)


def run_all() -> list:
    failures = []
    for name, check in CHECKS:
        detail = check()
        if detail:
            failures.append(f"{name}: {detail}")
            print(f"FAIL {name}: {detail}")
        else:
            print(f"PASS {name}")
    return failures
