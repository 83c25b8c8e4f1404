"""Byte pins on the trace and epoch CSVs of three short canonical runs.

A change that claims to keep every number must leave these digests alone.
A change that alters trace bytes on purpose updates the pins here and says
why.  Like the pivot pins in test_lp.py, the digests belong to the numpy and
BLAS build they were recorded with: another build may round differently.
"""

import hashlib
import json

import pytest

from snsqp.bench.cli import cli_main
from snsqp.bench.runner import run_id_for, run_single

#: sha256 of the (trace CSV, epoch CSV) of each run
PINS = {
    "pps": ("67e179605f2f694d63e97400bc0348bd207ff01fa25a8d13fbf1cba42d672b57",
            "da6d6edbe158450dc8c2b28359cda11f51d704e81bbc17c7c7b9b8ffd64acbee"),
    "quadratic-eq": ("6c1b1099c1ef44539aaf5090bdd9335fd4fccba84b5f212a7f755b05422a573e",
                     "2a74991bcd194d2858586352f1866c4844bbad3c639cb46516e014474d024d86"),
    "affine-eq": ("15be49a7d07c14d2a5894116900f956bf67f5bcb7c8251da91b3137068a21f74",
                  "9bcebd780bde93369b817f868756b9f566a4436199cb00d04e820bfa1fbaacaa"),
}


def _digests(out_dir, run_id):
    return tuple(
        hashlib.sha256((out_dir / f"{run_id}_{kind}.csv").read_bytes()).hexdigest()
        for kind in ("trace", "epochs"))


def test_pps_fixed10_run(tmp_path):
    run_single("fixed:10", 0, 2000, 500, tmp_path)
    assert _digests(tmp_path, run_id_for("fixed:10", 0)) == PINS["pps"]


@pytest.mark.parametrize("problem", ["quadratic-eq", "affine-eq"])
def test_equality_run(tmp_path, capsys, problem):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "problem": problem, "strategy": "fixed:10", "budget": 1000, "seed": 0,
        "out": str(tmp_path), "run_id": "pinned"}))
    assert cli_main(["run", str(config)]) == 0
    assert _digests(tmp_path, "pinned") == PINS[problem]
