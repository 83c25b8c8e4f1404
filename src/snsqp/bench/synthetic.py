"""Synthetic min-of-quadratics objectives with exactly known curvature.

The family r(x) = min_t [ a_t + b_t.x + (1/2) x'Q_t x ] with Q_t positive
semidefinite is nonsmooth and nonconvex, yet its linearization excess is
bounded by (rho/2)|d|^2 with rho = max_t lambda_max(Q_t), and that constant
is sharp (attained whenever one piece stays active along d).  Scenario noise
is an additive uniform shift xi on every piece's linear coefficient, which
shifts the whole min by xi.x and leaves the attaining piece unchanged, so
the true expectation and its subgradients stay in closed form.

Two equality-constrained companions are included for the line-search loop:
one with an affine constraint (constraint-gradient Lipschitz constant 0) and
one with a quadratic constraint of known constant 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import ConstrainedStochasticProblem
from ..qp import BoxPolyhedron, _frozen


@dataclass(frozen=True, eq=False)
class QuadraticPiece:
    """offset + linear.x + (1/2) x'curvature_matrix x.  The arrays are
    read-only copies, so a later write to the caller's arrays changes
    neither the oracle nor rho.  Two pieces compare by identity."""

    offset: float
    linear: np.ndarray
    curvature_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", _frozen(self.linear))
        object.__setattr__(self, "curvature_matrix", _frozen(self.curvature_matrix))
        q = self.curvature_matrix
        if q.shape != (self.linear.size, self.linear.size):
            raise ValueError("curvature matrix shape must match the linear term")
        if not np.allclose(q, q.T):
            raise ValueError("curvature matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(q)) < -1e-10:
            raise ValueError("curvature matrix must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class SyntheticUc2Spec:
    """The pieces of the family, held as a tuple.  Two specs compare by
    identity."""

    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("needs at least one piece")
        dims = {p.linear.size for p in self.pieces}
        if len(dims) != 1:
            raise ValueError("all pieces must share one dimension")

    @property
    def dimension(self) -> int:
        return self.pieces[0].linear.size

    @property
    def rho(self) -> float:
        """Sharp linearization-excess modulus: the largest piece curvature."""
        return max(float(np.max(np.linalg.eigvalsh(p.curvature_matrix)))
                   for p in self.pieces)


def piecewise_min_batch(spec: SyntheticUc2Spec, x: np.ndarray,
                        shifts: np.ndarray) -> tuple:
    """The attaining piece at one x, for every row of shifts (shape (N, n)).

    Row i adds shifts[i] to every piece's linear coefficient.  Returns
    values (N,), gradients (N, n) and attaining piece indices (N,).
    Pieces are scanned in order and a later piece takes over only when it is
    lower by more than 1e-15, so exact ties go to the lowest index.
    """
    x = np.asarray(x, dtype=float)
    best_val = np.full(len(shifts), np.inf)
    best_idx = np.full(len(shifts), -1)
    best_grad = np.zeros(np.shape(shifts))
    for t, piece in enumerate(spec.pieces):
        lin = piece.linear + shifts
        curved = piece.curvature_matrix @ x
        val = piece.offset + lin @ x + 0.5 * x @ curved
        wins = val < best_val - 1e-15
        best_val[wins] = val[wins]
        best_idx[wins] = t
        best_grad[wins] = lin[wins] + curved
    return best_val, best_grad, best_idx


def build_synthetic_uc2(spec: SyntheticUc2Spec,
                        noise_width: float) -> ConstrainedStochasticProblem:
    """Stochastic problem around the family on the box [-2, 2]^n; scenarios
    are uniform shifts.

    noise_width is the full width of the uniform box around zero that the
    shift xi is drawn from (zero width gives a deterministic problem).
    """
    if noise_width < 0:
        raise ValueError("noise_width must be nonnegative")
    n = spec.dimension
    half = 0.5 * noise_width

    def sampler(rng: np.random.Generator, count: int):
        return rng.uniform(-half, half, size=(count, n))

    def oracle(x, shifts):
        values, grads, _ = piecewise_min_batch(spec, x, shifts)
        return values, grads

    # a flat family (all pieces affine) still needs a positive modulus
    return ConstrainedStochasticProblem(
        dimension=n,
        scenario_sampler=sampler,
        oracle=oracle,
        set=BoxPolyhedron(lower=np.full(n, -2.0), upper=np.full(n, 2.0)),
        rho_estimate=max(spec.rho, 1e-12),
        lipschitz_h=0.0,
    )


def two_piece_crossing_spec() -> SyntheticUc2Spec:
    """Two convex quadratic pieces crossing at x1 = 0; rho = 4.

    The min has a downward kink on the crossing plane, so the objective is
    genuinely nonsmooth and nonconvex inside [-2, 2]^2.
    """
    return SyntheticUc2Spec(pieces=(
        QuadraticPiece(offset=0.0, linear=np.array([2.0, 0.5]),
                       curvature_matrix=np.diag([4.0, 2.0])),
        QuadraticPiece(offset=0.0, linear=np.array([-2.0, 0.5]),
                       curvature_matrix=np.diag([3.0, 2.0])),
    ))


def build_affine_equality_problem() -> ConstrainedStochasticProblem:
    """min E[-|x1 - xi|] on [-2, 2]^2 subject to x1 + x2 = 1.

    xi is uniform on [-0.2, 0.2].  The objective rewards
    pushing x1 away from the noise interval, so the constrained minimizer
    sits at the box corner (2, -1).  The constraint is affine: H = 0.
    """

    def sampler(rng: np.random.Generator, count: int):
        return rng.uniform(-0.2, 0.2, size=count)

    def oracle(x, xi):
        u = x[0] - xi
        grads = np.zeros((u.size, 2))
        # -|u| = min(u, -u); the attaining piece's gradient, zero at the tie
        grads[:, 0] = -np.sign(u)
        return -np.abs(u), grads

    def constraints(x):
        return np.array([x[0] + x[1] - 1.0]), np.array([[1.0], [1.0]])

    return ConstrainedStochasticProblem(
        dimension=2,
        scenario_sampler=sampler,
        oracle=oracle,
        set=BoxPolyhedron(lower=np.full(2, -2.0), upper=np.full(2, 2.0)),
        rho_estimate=1.0,
        lipschitz_h=0.0,
        eq_constraints=constraints,
    )


def build_quadratic_equality_problem() -> ConstrainedStochasticProblem:
    """min E[|x - xi|^2] on [-3, 3]^2 subject to x1^2 = 1.

    xi is uniform on [-0.25, 0.25]^2.  The objective is smooth with Hessian
    2I (rho = 2) and the constraint gradient (2 x1, 0) has Lipschitz
    constant exactly 2.
    """

    def sampler(rng: np.random.Generator, count: int):
        return rng.uniform(-0.25, 0.25, size=(count, 2))

    def oracle(x, xi):
        diff = x - xi
        # batched matmul gives each row exactly the value of diff[i] @ diff[i]
        return (diff[:, None, :] @ diff[:, :, None]).ravel(), 2.0 * diff

    def constraints(x):
        return np.array([x[0] * x[0] - 1.0]), np.array([[2.0 * x[0]], [0.0]])

    return ConstrainedStochasticProblem(
        dimension=2,
        scenario_sampler=sampler,
        oracle=oracle,
        set=BoxPolyhedron(lower=np.full(2, -3.0), upper=np.full(2, 3.0)),
        rho_estimate=2.0,
        lipschitz_h=2.0,
        eq_constraints=constraints,
    )
