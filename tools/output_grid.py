"""Write the outputs of a fixed grid of snsqp commands, stdout included.

Usage: python3 tools/output_grid.py OUT

Runs, from the ``src/`` of the checkout this file sits in:

- ``snsqp run`` on the 27 configs ``pps``, ``affine-eq``, ``quadratic-eq`` x
  ``fixed:10``, ``fixed:100``, ``adaptive`` x seeds 0-2, budget 3000;
- ``snsqp bench-pps --seeds 2 --budget 20000``;
- ``snsqp curve``.

Each command runs in its own directory under OUT, writes its files there
by relative path and leaves its standard output in ``stdout.txt``, so the
outputs of two checkouts compare with one ``diff -r OUT_A OUT_B``: a change
that keeps every number leaves that diff empty.  OUT must not exist yet.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROBLEMS = ("pps", "affine-eq", "quadratic-eq")
STRATEGIES = ("fixed:10", "fixed:100", "adaptive")
SEEDS = (0, 1, 2)
BUDGET = 3000


def commands():
    """(directory name, snsqp arguments, config to write first or None) per command."""
    for problem, strategy, seed in itertools.product(PROBLEMS, STRATEGIES, SEEDS):
        name = f"run_{problem}_{strategy.replace(':', '-')}_seed{seed}"
        config = {"problem": problem, "strategy": strategy, "budget": BUDGET,
                  "seed": seed, "out": "."}
        yield name, ["run", "run.json"], config
    yield "bench-pps", ["bench-pps", "--seeds", "2", "--budget", "20000", "--out", "."], None
    yield "curve", ["curve", "--out", "curve.csv"], None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    failed = 0
    for name, cli_args, config in commands():
        cwd = args.out / name
        cwd.mkdir()
        if config is not None:
            (cwd / "run.json").write_text(json.dumps(config), encoding="utf-8")
        with open(cwd / "stdout.txt", "w", encoding="utf-8") as stdout:
            code = subprocess.call([sys.executable, "-m", "snsqp.bench.cli", *cli_args],
                                   cwd=cwd, env=env, stdout=stdout)
        print(f"{name}: exit {code}")
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
