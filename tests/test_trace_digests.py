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
    "pps": ("bd75b738b528fc836dca63b7166e9be6e941798616ee1b78287775526721bbdc",
            "8ff7a0995250104acb74945ffc149fc9524a8473aa416f6a4c4f4eb09842c80c"),
    "quadratic-eq": ("871d64db71110430246e134b0159d5dce866fa15850a66acaab340651a0348fa",
                     "b435f3ebd9fd6c43427d0e781464509e7fb9db1b00f08b5d09adba3c2f00773a"),
    "affine-eq": ("34d65daa3c7f641f103dc94d1c4999c99a5e3255e95c687dd51541c994e77018",
                  "2c3dc5c16e29f8362615c12ccc0b05f17804334e880dac400873ff343ad07940"),
}


def _check_digests(out_dir, run_id, name):
    actual = tuple(
        hashlib.sha256((out_dir / f"{run_id}_{kind}.csv").read_bytes()).hexdigest()
        for kind in ("trace", "epochs"))
    assert actual == PINS[name], f"{name} run: expected {PINS[name]}, got {actual}"


def test_pps_fixed10_run(tmp_path):
    run_single("fixed:10", 0, 2000, 500, tmp_path)
    _check_digests(tmp_path, run_id_for("fixed:10", 0), "pps")


@pytest.mark.parametrize("problem", ["quadratic-eq", "affine-eq"])
def test_equality_run(tmp_path, capsys, problem):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "problem": problem, "strategy": "fixed:10", "budget": 1000, "seed": 0,
        "out": str(tmp_path), "run_id": "pinned"}))
    assert cli_main(["run", str(config)]) == 0
    _check_digests(tmp_path, "pinned", problem)
