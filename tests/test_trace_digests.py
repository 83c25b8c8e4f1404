"""Byte pins on the trace and epoch CSVs of three short canonical runs.

A change that claims to keep every number must leave these digests alone.
A change that alters trace bytes on purpose updates the pins here and says
why.  Like the pivot pins in test_lp.py, the digests belong to the numpy and
BLAS build they were recorded with: another build may round differently.
The same runs also pin their subproblem traffic: solve, active-set
iteration and rank-warning counts, and that no solve or stationarity fill
needs an SVD or a numpy least-squares call.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from snsqp import driver
from snsqp.bench.cli import cli_main
from snsqp.bench.runner import run_id_for, run_single
from snsqp.qp import QpStatus, solve_qp

#: sha256 of the (trace CSV, epoch CSV) of each run
PINS = {
    "pps": ("3e1835d5d7ea827ae2f226ffe9f5bb8bc54fb6137856718827cc59bf79997036",
            "eebf7e0499f6cddd990c34851a5819fe1819b81d80e4e1c3162722f2b7a0988f"),
    "quadratic-eq": ("871d64db71110430246e134b0159d5dce866fa15850a66acaab340651a0348fa",
                     "b435f3ebd9fd6c43427d0e781464509e7fb9db1b00f08b5d09adba3c2f00773a"),
    "affine-eq": ("f9cc4ed808c5faf3cb365474dfc6c4b49f24cf86316bfedb566f48b568dc1910",
                  "2c3dc5c16e29f8362615c12ccc0b05f17804334e880dac400873ff343ad07940"),
}


def _check_digests(out_dir, run_id, name):
    actual = tuple(
        hashlib.sha256((out_dir / f"{run_id}_{kind}.csv").read_bytes()).hexdigest()
        for kind in ("trace", "epochs"))
    assert actual == PINS[name], f"{name} run: expected {PINS[name]}, got {actual}"


def _pps_run(out_dir):
    run_single("fixed:10", 0, 2000, 500, out_dir)


def _equality_run(out_dir, problem):
    config = out_dir / "cfg.json"
    config.write_text(json.dumps({
        "problem": problem, "strategy": "fixed:10", "budget": 1000, "seed": 0,
        "out": str(out_dir), "run_id": "pinned"}))
    assert cli_main(["run", str(config)]) == 0


def test_pps_fixed10_run(tmp_path):
    _pps_run(tmp_path)
    _check_digests(tmp_path, run_id_for("fixed:10", 0), "pps")


@pytest.mark.parametrize("problem", ["quadratic-eq", "affine-eq"])
def test_equality_run(tmp_path, capsys, problem):
    _equality_run(tmp_path, problem)
    _check_digests(tmp_path, "pinned", problem)


@pytest.mark.parametrize("name, solves, iterations", [
    ("pps", 200, 191), ("quadratic-eq", 100, 0), ("affine-eq", 15, 11)])
def test_subproblem_path(tmp_path, capsys, monkeypatch, name, solves, iterations):
    """The same runs' subproblem traffic: every solve OPTIMAL without a rank
    warning, and none factors its working set by SVD, since each has at most
    one working row (PPS one inequality row, the equality problems one
    equality row), which _factor's closed form covers.  The stationarity
    fill of the same runs projects onto the polar cone with the same
    active-set loop and _factor, so the SVD check covers it as well; and no
    least-squares call of numpy's remains."""
    statuses, counts, svd_calls, lstsq_calls = Counter(), Counter(), [], []
    svd, lstsq = np.linalg.svd, np.linalg.lstsq

    def recording_solve(problem):
        solution = solve_qp(problem)
        statuses[solution.status] += 1
        counts["iterations"] += solution.iterations
        counts["rank_warnings"] += solution.rank_warning
        return solution

    def recording_svd(*args, **kwargs):
        svd_calls.append(args)
        return svd(*args, **kwargs)

    def recording_lstsq(*args, **kwargs):
        lstsq_calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(driver, "solve_qp", recording_solve)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    if name == "pps":
        _pps_run(tmp_path)
    else:
        _equality_run(tmp_path, name)
    assert statuses == {QpStatus.OPTIMAL: solves}
    assert counts == {"iterations": iterations, "rank_warnings": 0}
    assert not svd_calls and not lstsq_calls
