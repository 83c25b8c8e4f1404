"""Command line entry points: benchmark grids, single runs, curve data.

Exit codes: 0 on success, 2 on malformed input with a one-line
`error: <field>: <reason>` diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from ..diagnostics import (
    DEFAULT_EPOCH,
    REFERENCE_SEED,
    fill_stationarity,
    reference_batch,
    reference_stationarity,
    write_run_csv,
)
from ..driver import SolverConfig, run_algorithm1, run_algorithm2
from ..sampling import draw_scenarios
from . import pps, runner, synthetic


class ConfigError(Exception):
    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="snsqp",
        description="stochastic SQP benchmark and run driver")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench-pps", help="run the production-pricing benchmark grid")
    bench.add_argument("--strategy", action="append",
                       help="fixed:N, poly:EXP:CAP or adaptive; repeatable "
                            "(default: the full five-strategy set)")
    bench.add_argument("--seeds", type=int, default=5)
    bench.add_argument("--budget", type=int, default=50000)
    bench.add_argument("--epoch", type=int, default=DEFAULT_EPOCH)
    bench.add_argument("--seed-base", type=int, default=0)
    bench.add_argument("--out", type=Path, default=Path("bench_out"))
    bench.add_argument("--eta", type=float, default=1.0)
    bench.add_argument("--alpha0", type=float, default=pps.ALPHA0)
    bench.add_argument("--workers", type=int, default=1)

    run_p = sub.add_parser("run", help="single run described by a JSON config")
    run_p.add_argument("config", type=Path)

    curve = sub.add_parser(
        "curve", help="recourse value/derivative curve over the price range")
    curve.add_argument("--points", type=int, default=200)
    curve.add_argument("--batch", type=int, default=1000)
    curve.add_argument("--seed", type=int, default=REFERENCE_SEED)
    curve.add_argument("--out", type=Path, default=Path("curve.csv"))

    args = parser.parse_args(argv)
    try:
        if args.command == "bench-pps":
            return _cmd_bench(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_curve(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


def _cmd_bench(args) -> int:
    for flag in ("seeds", "budget", "epoch", "workers"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag}", "expected positive integer")
    strategies = args.strategy or list(runner.DEFAULT_STRATEGIES)
    for text in strategies:
        runner.parse_strategy(text, eta=args.eta)  # fail fast before any run
    _require_directory("--out", args.out)
    rows = runner.run_grid(strategies, args.seeds, args.budget, args.epoch,
                           args.out, seed_base=args.seed_base,
                           alpha0=args.alpha0, eta=args.eta,
                           workers=args.workers)
    for row in rows:
        print(f"{row['strategy']} seed {row['seed']}: stop={row['stop_reason']} "
              f"iterations={row['iterations']} oracle_calls={row['oracle_calls']} "
              f"final_stationarity={row['final_stationarity']}")
    print(f"summary: {Path(args.out) / 'summary.csv'}")
    return 0


_RUN_FIELDS = {"problem", "strategy", "budget", "seed", "alpha0", "epoch",
               "out", "run_id", "eta", "eta_alpha", "eta_beta", "gamma",
               "theta0", "max_iterations", "x0"}

_PROBLEM_BUILDERS = {
    "pps": (pps.build_pps_problem, pps.ALPHA0, pps.X0),
    "affine-eq": (synthetic.build_affine_equality_problem, 1.0,
                  np.array([0.0, 0.0])),
    "quadratic-eq": (synthetic.build_quadratic_equality_problem, 2.0,
                     np.array([0.5, 0.5])),
}


def _cmd_run(args) -> int:
    try:
        raw = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {args.config}: {exc.strerror}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    for key in cfg:
        if key not in _RUN_FIELDS:
            raise ConfigError(f"config.{key}", "unknown field")
    for key in ("problem", "strategy", "budget"):
        if key not in cfg:
            raise ConfigError(f"config.{key}", "required field missing")

    if cfg["problem"] not in _PROBLEM_BUILDERS:
        raise ConfigError("config.problem",
                          f"expected one of {sorted(_PROBLEM_BUILDERS)}")
    builder, default_alpha0, default_x0 = _PROBLEM_BUILDERS[cfg["problem"]]
    problem = builder()

    budget = _positive_int(cfg, "budget")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("config.seed", "expected integer")
    strategy_text = _nonempty_str(cfg, "strategy")
    try:
        strategy = runner.parse_strategy(strategy_text, eta=_as_float(cfg, "eta", 1.0))
    except ValueError as exc:
        raise ConfigError("config.strategy", str(exc))
    x0 = np.asarray(cfg.get("x0", default_x0), dtype=float)

    kwargs = {}
    for key in ("eta_alpha", "eta_beta", "gamma", "theta0"):
        if key in cfg:
            kwargs[key] = _as_float(cfg, key)
    if "max_iterations" in cfg:
        kwargs["max_iterations"] = _positive_int(cfg, "max_iterations")
    # every output setting is checked before the solve, which can take minutes
    epoch = _positive_int(cfg, "epoch", DEFAULT_EPOCH)
    out_dir = Path(_nonempty_str(cfg, "out", "run_out"))
    run_id = _nonempty_str(
        cfg, "run_id", f"{cfg['problem']}_{runner.run_id_for(strategy_text, seed)}")
    if any(sep in run_id for sep in (os.sep, os.altsep) if sep):
        raise ConfigError("config.run_id", "must not contain a path separator")
    _require_directory("config.out", out_dir)

    config = SolverConfig(x0=x0, alpha0=_as_float(cfg, "alpha0", default_alpha0),
                          strategy=strategy, budget=budget, master_seed=seed, **kwargs)
    run = run_algorithm2 if problem.eq_constraints is not None else run_algorithm1
    trace = run(problem, config)

    reference = reference_batch(problem)
    fill_stationarity(trace, reference)
    trace_path, epochs_path = write_run_csv(trace, out_dir, run_id, epoch_size=epoch)
    # the fill evaluated the last record; a run without records reports x0
    final_stat = (trace.records[-1].stationarity if trace.records
                  else reference_stationarity(problem, trace.final_x, reference))
    print(f"run {run_id}: stop={trace.stop_reason} iterations={len(trace.records)} "
          f"oracle_calls={trace.oracle_calls} final_stationarity={final_stat!r}")
    if trace.error:
        print(f"error: {trace.error}")
    print(f"trace: {trace_path}")
    print(f"epochs: {epochs_path}")
    return 0


def _require_directory(field: str, directory: Path) -> None:
    """ConfigError unless mkdir(parents=True, exist_ok=True) can make directory:
    its nearest existing ancestor, where that mkdir starts, must be a directory."""
    existing = next(path for path in (directory, *directory.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(field, f"{existing} is not a directory")


def _positive_int(cfg: dict, key: str, default: int = None) -> int:
    value = cfg.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"config.{key}", "expected positive integer")
    return value


def _nonempty_str(cfg: dict, key: str, default: str = None) -> str:
    value = cfg.get(key, default)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config.{key}", "expected non-empty string")
    return value


def _as_float(cfg: dict, key: str, default: float = None) -> float:
    value = cfg.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"config.{key}", "expected number")
    return float(value)


def _cmd_curve(args) -> int:
    if args.points < 2:
        raise ConfigError("points", "expected at least 2")
    if args.batch < 1:
        raise ConfigError("batch", "expected positive integer")
    if args.out.is_dir():
        raise ConfigError("out", f"{args.out} is a directory")
    _require_directory("out", args.out.parent)
    instance = pps.build_pps_instance()
    scenarios = draw_scenarios(pps.scenario_sampler(instance), args.seed, 0,
                               args.batch)
    p_lo, p_hi = instance.price_bounds
    grid = np.linspace(p_lo, p_hi, args.points)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("p,value,derivative\n")
        for p in grid:
            values, derivs = pps.recourse_lp(instance, float(p), scenarios)
            fh.write(f"{float(p)!r},{float(values.mean())!r},"
                     f"{float(derivs.mean())!r}\n")
    print(f"curve: {args.out} ({args.points} points, batch {args.batch})")
    return 0


if __name__ == "__main__":
    sys.exit(cli_main())
