"""Command-line entry points: exit codes, config validation, artifacts."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snsqp
from snsqp import driver
from snsqp.bench import cli, runner
from snsqp.bench.cli import cli_main
from snsqp.bench.runner import ADAPTIVE_CAP, parse_strategy, run_id_for
from snsqp.sampling import AdaptiveSize, FixedSize, PolynomialSize


class TestParseStrategy:
    def test_forms(self):
        assert parse_strategy("fixed:25") == FixedSize(25)
        assert parse_strategy("poly:1.25:800") == PolynomialSize(exponent=1.25,
                                                                 cap=800)
        assert parse_strategy("adaptive", eta=0.5) == AdaptiveSize(
            eta=0.5, cap=ADAPTIVE_CAP)

    def test_rejects_garbage(self):
        for text in ("fixed", "fixed:x", "poly:1.25", "exact:3", ""):
            with pytest.raises(ValueError):
                parse_strategy(text)

    def test_run_id_is_filename_safe(self):
        rid = run_id_for("poly:1.25:1000", 3)
        assert ":" not in rid
        assert rid.endswith("_seed3")


class TestRunCommand:
    def test_missing_config_file(self, capsys, tmp_path):
        rc = cli_main(["run", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error: config" in capsys.readouterr().err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli_main(["run", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err
        path.write_text("[1, 2]")
        assert cli_main(["run", str(path)]) == 2
        assert "error: config: top level must be an object" in capsys.readouterr().err

    def test_unknown_field_named_in_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "pps", "strategy": "fixed:10",
                                    "budget": 100, "bogus": 1}))
        assert cli_main(["run", str(path)]) == 2
        assert "config.bogus: unknown field" in capsys.readouterr().err

    def test_missing_required_field(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "pps", "strategy": "fixed:10"}))
        assert cli_main(["run", str(path)]) == 2
        assert "config.budget" in capsys.readouterr().err

    def test_unknown_problem(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "mystery", "strategy": "fixed:10",
                                    "budget": 100}))
        assert cli_main(["run", str(path)]) == 2
        assert "config.problem" in capsys.readouterr().err

    def test_bad_budget_type(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "pps", "strategy": "fixed:10",
                                    "budget": "lots"}))
        assert cli_main(["run", str(path)]) == 2
        assert "config.budget" in capsys.readouterr().err

    def test_bad_strategy_text(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "pps", "strategy": "fixed:two",
                                    "budget": 100}))
        assert cli_main(["run", str(path)]) == 2
        assert "config.strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, code, expected", [
        ("poly:1000:10", 0, "stop=budget"),
        ("poly:inf:10", 2, "error: config.strategy: bad strategy 'poly:inf:10': "
                           "exponent must be positive and finite"),
    ], ids=["power-overflow", "infinite-exponent"])
    def test_steep_polynomial_schedule(self, capsys, tmp_path, strategy, code, expected):
        """A power past the float range takes the cap; an infinite exponent
        is a config error, not a traceback."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "affine-eq", "strategy": strategy,
                                    "budget": 100, "out": str(tmp_path / "runs")}))
        assert cli_main(["run", str(path)]) == code
        captured = capsys.readouterr()
        assert expected in (captured.out if code == 0 else captured.err)

    @pytest.mark.parametrize("field, value", [
        ("epoch", 0), ("epoch", "500"), ("epoch", True),
        ("out", 5), ("out", ""), ("run_id", 7), ("run_id", None),
        ("strategy", 10), ("x0", [float("nan"), 1.5]), ("seed", True),
        ("alpha0", float("inf")), ("eta_alpha", float("inf")),
        ("gamma", float("inf")), ("theta0", float("inf")), ("eta_beta", "0.5"),
    ])
    def test_bad_output_field_fails_before_the_solve(self, capsys, tmp_path,
                                                     monkeypatch, field, value):
        def no_solve(*args):
            raise AssertionError("the solver ran on an invalid config")

        # the solve's first action; the solver's own checks of x0 come before it
        monkeypatch.setattr(driver, "draw_scenarios", no_solve)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "quadratic-eq", "strategy": "fixed:10", "budget": 30000,
            "out": str(tmp_path / "runs"), field: value}))
        assert cli_main(["run", str(path)]) == 2
        # the solver's own checks name the field after "config: "
        expected = {
            "x0": "error: config: x0 lies outside the feasible set",
            "alpha0": "error: config: alpha0 must be positive and finite",
            "eta_alpha": "error: config: eta_alpha must be finite and exceed 1",
            "gamma": "error: config: gamma must be positive and finite",
            "theta0": "error: config: theta0 must be positive and finite",
        }.get(field, f"error: config.{field}: ")
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("field, value", [
        ("run_id", "sub/dir"), ("out", "file"), ("out", "file/runs"),
    ])
    def test_unwritable_output_path_fails_before_the_solve(self, capsys, tmp_path,
                                                          monkeypatch, field, value):
        """A run_id with a path separator, or an out that is or lies under a
        file, fails with exit 2 before the solve.  Accepted, the whole solve
        ran and writing the CSVs raised FileNotFoundError, FileExistsError
        or NotADirectoryError."""
        def no_solve(*args):
            raise AssertionError("the solver ran on an invalid config")

        monkeypatch.setattr(driver, "draw_scenarios", no_solve)
        (tmp_path / "file").write_text("")
        config = {"problem": "affine-eq", "strategy": "fixed:10", "budget": 200,
                  "out": str(tmp_path / "runs")}
        config[field] = value if field == "run_id" else str(tmp_path / value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli_main(["run", str(path)]) == 2
        assert f"error: config.{field}: " in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_equality_problem_runs_and_writes_csvs(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "affine-eq", "strategy": "fixed:50", "budget": 2000,
            "seed": 3, "out": str(tmp_path / "runs"), "run_id": "affine_demo",
        }))
        rc = cli_main(["run", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stop=" in out
        trace_file = tmp_path / "runs" / "affine_demo_trace.csv"
        epochs_file = tmp_path / "runs" / "affine_demo_epochs.csv"
        assert trace_file.exists() and epochs_file.exists()
        with open(trace_file, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert rows[0]["k"] == "1"
        # line-search columns are live on an equality-constrained run
        assert 0.0 < float(rows[0]["zeta"]) <= 1.0
        assert float(rows[0]["theta"]) > 0.0

    def test_max_iterations_field_caps_the_run(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "quadratic-eq", "strategy": "fixed:10", "budget": 3000,
            "max_iterations": 3, "out": str(tmp_path / "runs"), "run_id": "capped"}))
        assert cli_main(["run", str(path)]) == 0
        assert "stop=max_iterations iterations=3 oracle_calls=30 " in capsys.readouterr().out
        with open(tmp_path / "runs" / "capped_trace.csv", newline="") as fh:
            assert [row["k"] for row in csv.DictReader(fh)] == ["1", "2", "3"]

    def test_final_stationarity_is_the_last_records(self, capsys, tmp_path,
                                                    monkeypatch):
        """The fill evaluates every record, the last one included, so the
        printed final value is read off it: 300 reference evaluations for
        300 records, not a 301st at the same point."""
        from snsqp import diagnostics
        calls = []

        def counted(*args):
            calls.append(args[1])
            return aggregate(*args)

        aggregate = diagnostics.aggregate
        monkeypatch.setattr(diagnostics, "aggregate", counted)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "quadratic-eq", "strategy": "fixed:10", "budget": 3000,
            "out": str(tmp_path / "runs"), "run_id": "final"}))
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        with open(tmp_path / "runs" / "final_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 300 and len(calls) == 300
        assert f"final_stationarity={rows[-1]['stationarity']}\n" in out

    def test_run_without_records_reports_the_start_point(self, capsys, tmp_path):
        """At x0 = (0, 0) the linearized constraint x1^2 = 1 reads 0 = 1, so the
        first subproblem is infeasible and no record is made; the final
        stationarity is the reference measure at x0."""
        from snsqp.bench.synthetic import build_quadratic_equality_problem
        from snsqp.diagnostics import reference_batch, reference_stationarity
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "quadratic-eq", "strategy": "fixed:10", "budget": 3000,
            "x0": [0.0, 0.0], "out": str(tmp_path / "runs"), "run_id": "empty"}))
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        problem = build_quadratic_equality_problem()
        at_x0 = reference_stationarity(problem, np.zeros(2), reference_batch(problem))
        assert math.isfinite(at_x0) and at_x0 > 0.0
        assert (f"stop=subproblem_infeasible iterations=0 oracle_calls=10 "
                f"final_stationarity={at_x0!r}\n") in out

    def test_pps_run_with_x0_override(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "pps", "strategy": "fixed:10", "budget": 150,
            "out": str(tmp_path / "runs"), "run_id": "pps_demo",
            "x0": [2.0, 3.0],
        }))
        assert cli_main(["run", str(path)]) == 0
        with open(tmp_path / "runs" / "pps_demo_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15   # 150 calls / batches of 10
        assert rows[-1]["oracle_calls"] == "150"


class TestCurveCommand:
    def test_writes_expected_grid(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = cli_main(["curve", "--points", "40", "--batch", "64",
                       "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        prices = np.array([float(r["p"]) for r in rows])
        assert prices[0] == pytest.approx(1.0)
        assert prices[-1] == pytest.approx(10.0)
        values = np.array([float(r["value"]) for r in rows])
        derivs = np.array([float(r["derivative"]) for r in rows])
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(derivs))
        # derivative column consistent with the value column between kinks
        mid = np.argmin(np.abs(prices - 7.0))
        h = prices[mid + 1] - prices[mid]
        fd = (values[mid + 1] - values[mid - 1]) / (2 * h)
        assert fd == pytest.approx(derivs[mid], rel=0.05)

    def test_rejects_tiny_grid(self, capsys, tmp_path):
        rc = cli_main(["curve", "--points", "1",
                       "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "points" in capsys.readouterr().err
        rc = cli_main(["curve", "--batch", "0", "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "error: batch: expected positive integer" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("out", ["", "file/c.csv", "file/sub/c.csv"],
                             ids=["directory", "under-a-file", "deep-under-a-file"])
    def test_unwritable_out_fails_before_the_draw(self, capsys, tmp_path, monkeypatch,
                                                  out):
        """An --out that is a directory, or lies under a file, fails with
        exit 2 before any scenario is drawn.  Accepted, writing the curve
        raised IsADirectoryError, FileExistsError or NotADirectoryError."""
        def no_draw(*args):
            raise AssertionError("the curve drew scenarios for an unwritable --out")

        monkeypatch.setattr(cli, "draw_scenarios", no_draw)
        (tmp_path / "file").write_text("")
        assert cli_main(["curve", "--out", str(tmp_path / out)]) == 2
        assert "error: out: " in capsys.readouterr().err


class TestBenchCommand:
    def test_tiny_grid_writes_summary_and_traces(self, capsys, tmp_path):
        out = tmp_path / "bench"
        rc = cli_main(["bench-pps", "--strategy", "fixed:10", "--seeds", "2",
                       "--budget", "120", "--epoch", "50",
                       "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "fixed:10 seed 0" in stdout and "fixed:10 seed 1" in stdout
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["strategy"] == "fixed:10"
        assert {row["seed"] for row in rows} == {"0", "1"}
        for seed in (0, 1):
            rid = run_id_for("fixed:10", seed)
            assert (out / f"{rid}_trace.csv").exists()
            assert (out / f"{rid}_epochs.csv").exists()
        # epochs cover the full budget axis: 120/50 -> 3 rows minus header
        with open(out / "fixed-10_seed0_epochs.csv", newline="") as fh:
            erows = list(csv.DictReader(fh))
        assert len(erows) == 3

    def test_final_stationarity_is_the_last_records(self, tmp_path, monkeypatch):
        """The last record ends its epoch, so the epoch fill evaluated it:
        run_single reports its stationarity and the reference objective the
        fill kept on it, and evaluates the reference batch once per filled
        record, not once more for the final objective."""
        from snsqp import diagnostics
        from snsqp.bench import pps
        calls = []

        def counted(*args):
            calls.append(args[1])
            return aggregate(*args)

        aggregate = diagnostics.aggregate
        monkeypatch.setattr(diagnostics, "aggregate", counted)
        row = runner.run_single("fixed:10", 0, 120, 50, tmp_path)
        with open(tmp_path / "fixed-10_seed0_epochs.csv", newline="") as fh:
            epochs = list(csv.DictReader(fh))
        assert row["iterations"] == 12 and len(epochs) == 3
        assert len(calls) == 3
        assert row["final_stationarity"] == epochs[-1]["stationarity"]
        problem = pps.build_pps_problem()
        final_x = np.array([float(epochs[-1]["x0"]), float(epochs[-1]["x1"])])
        assert row["final_objective"] == repr(diagnostics.reference_objective(
            problem, final_x, diagnostics.reference_batch(problem)))

    def test_run_without_records_reports_the_start_point(self, tmp_path, monkeypatch):
        from snsqp.bench import pps
        from snsqp.diagnostics import (reference_batch, reference_objective,
                                       reference_stationarity)
        monkeypatch.setattr(runner, "run_algorithm1", lambda problem, config: (
            driver.IterationTrace(problem=problem, config=config,
                                  stop_reason="oracle_error")))
        row = runner.run_single("fixed:10", 0, 120, 50, tmp_path)
        problem = pps.build_pps_problem()
        at_x0 = reference_stationarity(problem, pps.X0, reference_batch(problem))
        assert math.isfinite(at_x0)
        assert row["iterations"] == 0 and row["final_stationarity"] == repr(at_x0)
        assert row["final_objective"] == repr(
            reference_objective(problem, pps.X0, reference_batch(problem)))

    def test_bad_strategy_fails_before_running(self, capsys, tmp_path):
        rc = cli_main(["bench-pps", "--strategy", "warp:9",
                       "--out", str(tmp_path / "b")])
        assert rc == 2
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("out", ["file", "file/runs"])
    def test_out_under_a_file_fails_before_running(self, capsys, tmp_path, monkeypatch,
                                                   out):
        """An --out that is or lies under a file fails with exit 2 before any
        run.  Accepted, the first run was solved and writing its CSVs raised
        FileExistsError or NotADirectoryError."""
        def no_run(problem, config):
            raise AssertionError("a run started with an unwritable --out")

        monkeypatch.setattr(runner, "run_algorithm1", no_run)
        (tmp_path / "file").write_text("")
        rc = cli_main(["bench-pps", "--strategy", "fixed:10", "--seeds", "1",
                       "--budget", "100", "--out", str(tmp_path / out)])
        assert rc == 2
        assert f"error: --out: {tmp_path / 'file'} is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["seeds", "budget", "epoch", "workers"])
    def test_bad_integer_flag_fails_before_running(self, capsys, tmp_path,
                                                   monkeypatch, flag):
        def no_run(problem, config):
            raise AssertionError("a run started with an invalid flag")

        monkeypatch.setattr(runner, "run_algorithm1", no_run)
        rc = cli_main(["bench-pps", "--strategy", "fixed:10", f"--{flag}", "0",
                       "--out", str(tmp_path / "b")])
        assert rc == 2
        assert f"error: --{flag}: expected positive integer" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


def test_console_script_wiring(tmp_path):
    """The module is runnable as an executable entry point."""
    # the child imports the package the tests import, installed or not
    src = str(Path(snsqp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "snsqp.bench.cli",
                           "curve", "--points", "5", "--batch", "16",
                           "--out", str(tmp_path / "curve.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "curve.csv").exists()


def test_runs_in_one_process_write_what_separate_processes_write(tmp_path, monkeypatch,
                                                                 capsys):
    """Each run owns its scenario generator: runs A, B, A in one process
    write, byte for byte, the CSVs and standard output that A and B write
    each in a fresh process."""
    configs = {"A": {"problem": "quadratic-eq", "strategy": "fixed:10", "budget": 400,
                     "seed": 3, "out": "."},
               "B": {"problem": "pps", "strategy": "adaptive", "budget": 600, "seed": 1,
                     "out": "."}}
    src = str(Path(snsqp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def outputs(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    fresh = {}
    for name, cfg in configs.items():
        run_dir = tmp_path / f"fresh_{name}"
        run_dir.mkdir()
        (run_dir / "run.json").write_text(json.dumps(cfg), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "snsqp.bench.cli", "run", "run.json"],
                              cwd=run_dir, env=env, capture_output=True)
        assert proc.returncode == 0
        fresh[name] = outputs(run_dir), proc.stdout

    for i, name in enumerate("ABA"):
        run_dir = tmp_path / f"in_process_{i}"
        run_dir.mkdir()
        (run_dir / "run.json").write_text(json.dumps(configs[name]), encoding="utf-8")
        monkeypatch.chdir(run_dir)
        assert cli_main(["run", "run.json"]) == 0
        files, stdout = fresh[name]
        assert capsys.readouterr().out.encode() == stdout
        assert outputs(run_dir) == files
