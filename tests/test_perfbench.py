"""The traced benchmark wraps solver attributes by name; they must all exist.

perfbench/spans.py lists (module, attribute) pairs that a traced run
replaces with span wrappers.  Renaming or deleting one of them in the solver
would only show when the benchmark runs, so this loads the module from its
path and resolves every target, and runs the benchmark's child on each
workload with tracing on.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve_unwrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    spans.check_pristine()


BENCHMARK = json.loads((SPANS.parents[1] / "BENCHMARK.json").read_text())
#: per-layer names that run.py adds from the child's own timing
ADDED_BY_RUNNER = {"trace.wall_s", "trace.overhead_s"}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_child_reports_every_layer(workload, tmp_path):
    """A traced child run exits cleanly, passes its own output checks and
    reports every per-layer metric the benchmark declares."""
    proc = subprocess.run(
        [sys.executable, str(SPANS.parent / "child.py"), "--workload", workload,
         "--seed", "0", "--out", str(tmp_path), "--trace"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["errors"] == []
    declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert declared - ADDED_BY_RUNNER <= set(report["layers"])
