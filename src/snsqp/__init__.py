"""Stochastic SQP methods for nonsmooth objectives built from smooth pieces.

The solver minimizes an expectation of pointwise minima of smooth functions
over a convex set, optionally subject to smooth equality constraints, using
sampled subgradients, a proximal quadratic subproblem and an l1 merit line
search.  The package exports what a run needs: the problem, its set and the
config, the sample-size schedules, the two solver loops and their trace.
Everything else is imported from the module that defines it: the QP and LP
kernels (snsqp.qp, snsqp.lp), the sampling primitives (snsqp.sampling), the
stationarity diagnostics and CSV export (snsqp.diagnostics) and the benchmark
problems (snsqp.bench).
"""

from .driver import IterationTrace, SolverConfig, run_algorithm1, run_algorithm2
from .model import ConstrainedStochasticProblem
from .qp import BoxPolyhedron
from .sampling import AdaptiveSize, FixedSize, OracleError, PolynomialSize

__all__ = [
    "AdaptiveSize",
    "BoxPolyhedron",
    "ConstrainedStochasticProblem",
    "FixedSize",
    "IterationTrace",
    "OracleError",
    "PolynomialSize",
    "SolverConfig",
    "run_algorithm1",
    "run_algorithm2",
]

__version__ = "0.1.0"
