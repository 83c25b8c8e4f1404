"""The package surface: what `import snsqp` exports, the README's library
example, run as written, and how the data objects compare."""

import ast
import contextlib
import io
import re
from pathlib import Path

import numpy as np

import snsqp
from snsqp.bench.pps import build_pps_instance
from snsqp.lp import LpProblem
from snsqp.qp import QpProblem

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_library_surface():
    assert sorted(snsqp.__all__) == [
        "AdaptiveSize", "BoxPolyhedron", "ConstrainedStochasticProblem",
        "FixedSize", "IterationTrace", "OracleError", "PolynomialSize",
        "SolverConfig", "run_algorithm1", "run_algorithm2"]
    assert all(hasattr(snsqp, name) for name in snsqp.__all__)


def test_readme_library_example_runs():
    """The first python block after "## Library use" imports only exported
    names and runs to the stop it prints."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = [alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "snsqp"
                for alias in node.names]
    assert imported and set(imported) <= set(snsqp.__all__)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), namespace)
    trace = namespace["trace"]
    assert trace.stop_reason == "stall"
    np.testing.assert_array_equal(trace.final_x, [-2.0, 0.0])
    assert out.getvalue() == f"{trace.final_x} stall\n"


def test_data_objects_with_array_fields_compare_by_identity():
    """== on two equal objects with array fields is False, not numpy's
    "truth value of an array is ambiguous" error, and an object equals
    itself."""
    def box():
        return snsqp.BoxPolyhedron([0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]], [1.5])

    builders = (
        box,
        lambda: LpProblem([-1.0, -1.0], [[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0]),
        lambda: QpProblem([1.0, -1.0], 2.0, box()),
        build_pps_instance,
    )
    for build in builders:
        first, second = build(), build()
        assert first == first and not first == second and first != second
        assert len({first, first, second}) == 2
