"""Stochastic SQP methods for nonsmooth objectives built from smooth pieces.

The solver minimizes an expectation of pointwise minima of smooth functions
over a convex set, optionally subject to smooth equality constraints, using
sampled subgradients, a proximal quadratic subproblem and an l1 merit line
search.  Supporting pieces (dense QP and LP solvers, sampling strategies,
stationarity diagnostics, benchmark problems) live in their own modules.
"""

from .diagnostics import (
    StationarityReport,
    export_trace,
    reference_batch,
    reference_stationarity,
    stationarity_error,
    write_run_csv,
)
from .driver import (
    IterationTrace,
    SolverConfig,
    run_algorithm1,
    run_algorithm2,
)
from .lp import (
    LpBatchSolution,
    LpProblem,
    LpSolution,
    LpStatus,
    solve_lp,
    solve_lp_multi_rhs,
)
from .model import ConstrainedStochasticProblem, merit_value, predicted_decrease
from .qp import BoxPolyhedron, QpProblem, QpSolution, QpStatus, solve_qp
from .sampling import (
    AdaptiveSize,
    FixedSize,
    OracleError,
    PolynomialSize,
    SampleStats,
    aggregate,
    draw_scenarios,
    next_sample_size,
    variance_test,
)

__all__ = [
    "AdaptiveSize",
    "BoxPolyhedron",
    "ConstrainedStochasticProblem",
    "FixedSize",
    "IterationTrace",
    "LpBatchSolution",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "OracleError",
    "PolynomialSize",
    "QpProblem",
    "QpSolution",
    "QpStatus",
    "SampleStats",
    "SolverConfig",
    "StationarityReport",
    "aggregate",
    "draw_scenarios",
    "export_trace",
    "merit_value",
    "next_sample_size",
    "predicted_decrease",
    "reference_batch",
    "reference_stationarity",
    "run_algorithm1",
    "run_algorithm2",
    "solve_lp",
    "solve_lp_multi_rhs",
    "solve_qp",
    "stationarity_error",
    "variance_test",
    "write_run_csv",
]

__version__ = "0.1.0"
