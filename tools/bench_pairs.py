"""Benchmark this checkout against another revision in alternating pairs.

Usage: python3 tools/bench_pairs.py --base REV --label NAME [--workload W]...
                                    [--pairs N] [--seconds S] [--seed K]

Run from a clean checkout (no uncommitted changes to tracked files).  REV is
checked out in a temporary git worktree, and each pair runs
``perfbench/run.py --trace 0`` once in that tree and once in this one, with
the same --workload, --seconds and --seed; the side that goes first
alternates from pair to pair, so a drift in machine speed hits both sides
alike.  Each invocation's last output line is its JSON result, whose
end-to-end metrics are collected.  Without --workload every workload of
BENCHMARK.json runs.

The result goes to BENCH_<NAME>.json at the repository root: for each
workload and metric, the median and quartiles of each side, the pairs the
change wins (better in the direction BENCHMARK.json declares) and ties, and
every pair's (base, change) values; plus both commit SHAs, the command and
the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"


class Refused(Exception):
    """A tree or revision the pairs cannot be measured on."""


def git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)


def commit_of(root: Path, rev: str) -> str:
    """The full SHA of the commit rev names, or Refused."""
    proc = git(root, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if proc.returncode != 0:
        raise Refused(f"unknown revision: {rev}")
    return proc.stdout.strip()


def require_clean(root: Path) -> None:
    """Refused when a tracked file differs from HEAD: HEAD is what gets measured."""
    proc = git(root, "status", "--porcelain", "--untracked-files=no")
    if proc.returncode != 0:
        raise Refused(f"not a git checkout: {root}")
    if proc.stdout.strip():
        raise Refused("the working tree has uncommitted changes; commit or stash them")


def invoke(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark invocation in tree; its end-to-end metrics by name."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--trace", "0",
           "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} in {tree} failed: {proc.stderr[-2000:] or proc.stdout[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list) -> dict:
    """Median and quartiles; one value is all three."""
    if len(values) < 2:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list, declared: list) -> dict:
    """Per metric of declared (BENCHMARK.json's end_to_end list), the summary
    of pairs, a list of ({metric: base value}, {metric: change value})."""
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        values = [[base[name], change[name]] for base, change in pairs]
        base, change = spread([b for b, _ in values]), spread([c for _, c in values])
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "base": base, "change": change,
            "median_change": change["median"] / base["median"] - 1.0,
            "wins": sum(sign * (c - b) < 0.0 for b, c in values),
            "ties": sum(c == b for b, c in values),
            "pairs": values,
        }
    return summary


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        require_clean(root)
        base_sha, head_sha = commit_of(root, args.base), commit_of(root, "HEAD")
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in declared["workloads"]]

    report = {"label": args.label, "base": {"rev": args.base, "sha": base_sha},
              "change": {"sha": head_sha}, "pairs": args.pairs, "seconds": args.seconds,
              "seed": args.seed,
              "command": f"python3 {RUN} --workload W --trace 0 "
                         f"--seconds {args.seconds} --seed {args.seed}",
              "environment": environment(), "workloads": {}}
    with tempfile.TemporaryDirectory() as scratch:
        base_tree = Path(scratch) / "base"
        proc = git(root, "worktree", "add", "--detach", str(base_tree), base_sha)
        if proc.returncode != 0:
            print(f"error: git worktree add failed: {proc.stderr}", file=sys.stderr)
            return 1
        try:
            for workload in workloads:
                pairs = []
                for i in range(args.pairs):
                    trees = (base_tree, root) if i % 2 == 0 else (root, base_tree)
                    runs = {tree: invoke(tree, workload, args.seconds, args.seed)
                            for tree in trees}
                    pairs.append((runs[base_tree], runs[root]))
                    wall = [f"{side['wall_s']:.5f}" for side in pairs[-1]]
                    print(f"{workload} pair {i + 1}/{args.pairs}: wall_s base {wall[0]} "
                          f"change {wall[1]}", flush=True)
                report["workloads"][workload] = summarize(pairs, declared["end_to_end"])
        finally:
            git(root, "worktree", "remove", "--force", str(base_tree))
            git(root, "worktree", "prune")
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in report["workloads"].items():
        for name, m in metrics.items():
            print(f"{workload:<14} {name:<20} {m['base']['median']:>12.6g} -> "
                  f"{m['change']['median']:>12.6g} ({m['median_change']:+.2%}) "
                  f"wins {m['wins']}/{len(m['pairs'])} ties {m['ties']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
