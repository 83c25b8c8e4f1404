"""The package surface: what `import snsqp` exports, and the README's
library example, run as written."""

import ast
import contextlib
import io
import re
from pathlib import Path

import numpy as np

import snsqp

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
