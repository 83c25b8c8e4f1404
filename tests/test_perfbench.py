"""The traced benchmark wraps solver attributes by name; they must all exist.

perfbench/spans.py lists (module, attribute) pairs that a traced run
replaces with span wrappers.  Renaming or deleting one of them in the solver
would only show when the benchmark runs, so this loads the module from its
path and resolves every target.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve_unwrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    spans.check_pristine()
