"""The package surface: what `import snsqp` exports, that every public name
in src/ is read there, the README's library example, run as written, and how
the data objects compare."""

import ast
import contextlib
import io
import re
from pathlib import Path

import numpy as np

import snsqp
from snsqp.bench.pps import build_pps_instance
from snsqp.bench.synthetic import QuadraticPiece, SyntheticUc2Spec, two_piece_crossing_spec
from snsqp.lp import LpProblem
from snsqp.qp import QpProblem

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(snsqp.__file__).resolve().parent

#: public names that only tests use: gate 2 of tests/test_acceptance.py
#: imports the min-of-quadratics family from snsqp.bench.synthetic
TEST_ONLY = {"build_synthetic_uc2", "two_piece_crossing_spec"}


def test_all_is_the_library_surface():
    assert sorted(snsqp.__all__) == [
        "AdaptiveSize", "BoxPolyhedron", "ConstrainedStochasticProblem",
        "FixedSize", "IterationTrace", "OracleError", "PolynomialSize",
        "SolverConfig", "run_algorithm1", "run_algorithm2"]
    assert all(hasattr(snsqp, name) for name in snsqp.__all__)


def test_every_public_name_in_src_is_read_in_src():
    """Each public def and class of src/snsqp, methods and properties
    included, is referenced by name in src/ code (as a name or an
    attribute) or listed in an __all__; a public name that only tests call
    is dead surface.  TEST_ONLY lists the exceptions."""
    defined, read = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.setdefault(node.name, f"{path.relative_to(PACKAGE)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
    unread = {name: where for name, where in defined.items() if name not in read}
    assert unread.keys() == TEST_ONLY, unread


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
        lambda: QuadraticPiece(0.0, np.array([1.0, 0.0]), np.eye(2)),
        two_piece_crossing_spec,
    )
    for build in builders:
        first, second = build(), build()
        assert first == first and not first == second and first != second
        assert len({first, first, second}) == 2


def test_synthetic_pieces_hold_read_only_copies():
    """A later write to the caller's arrays changes neither a piece's oracle
    nor its spec's rho, and the held arrays and the pieces cannot be changed
    in place."""
    linear, curvature = np.array([1.0, 0.0]), np.diag([2.0, 1.0])
    piece = QuadraticPiece(0.5, linear, curvature)
    pieces = [piece]
    spec = SyntheticUc2Spec(pieces)
    linear[0], curvature[0, 0] = 7.0, 9.0
    pieces.append(piece)
    np.testing.assert_array_equal(piece.linear, [1.0, 0.0])
    np.testing.assert_array_equal(piece.curvature_matrix, np.diag([2.0, 1.0]))
    assert spec.pieces == (piece,) and spec.rho == 2.0
    for array in (piece.linear, piece.curvature_matrix):
        assert not array.flags.writeable
