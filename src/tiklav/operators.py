"""Discrete forward operators: Dirichlet Poisson solver and Fredholm kernels.

Both operators map GridFunctions to GridFunctions on the same grid. With
uniform quadrature weights the weighted adjoint is the plain transpose, so
the Poisson operator is exactly self-adjoint and the Fredholm adjoint is
the transposed kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, GridTooLarge, InvalidKernelParameter
from .grid import DomainGrid, GridFunction, ObservationRegion

DENSE_CAP = 4096


@dataclass(frozen=True)
class KernelSpec:
    """Built-in Lipschitz kernels for the Fredholm operator.

    kinds: 'constant' (k = value), 'separable' (k(x,x') = x.x'),
    'gaussian' (k = exp(-|x-x'|^2 / width^2)).
    """

    kind: str
    value: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "separable", "gaussian"):
            raise InvalidKernelParameter(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not self.width > 0:
            raise InvalidKernelParameter("gaussian width must be positive")
        if not np.isfinite(self.value) or not np.isfinite(self.width):
            raise InvalidKernelParameter("kernel parameters must be finite")

    def evaluate(self, x: np.ndarray, xp: np.ndarray) -> np.ndarray:
        """Kernel matrix k(x_i, xp_j) for coordinate arrays (N, d), (M, d)."""
        if self.kind == "constant":
            return np.full((x.shape[0], xp.shape[0]), self.value)
        if self.kind == "separable":
            return (x @ xp.T) * self.value
        d2 = ((x[:, None, :] - xp[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / self.width**2)


class AssembledOperator:
    """A discrete forward map S with cached adjoint and dense matrix.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, kind: str, grid: DomainGrid, matrix: np.ndarray,
                 self_adjoint: bool = False):
        self.kind = kind
        self.grid = grid
        self.matrix = matrix
        self.self_adjoint = self_adjoint
        self._gram = None

    @property
    def adjoint_matrix(self) -> np.ndarray:
        # uniform weights: weighted adjoint = transpose
        return self.matrix if self.self_adjoint else self.matrix.T

    @property
    def gram(self) -> np.ndarray:
        """S^T S, cached (used by the QP solver)."""
        if self._gram is None:
            m = self.matrix
            g = m.T @ m
            self._gram = 0.5 * (g + g.T)
        return self._gram

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    def apply_adjoint_values(self, values: np.ndarray) -> np.ndarray:
        if self.self_adjoint:
            return self.apply_values(values)
        return self.adjoint_matrix @ values


def _laplacian_1d(n: int, h: float) -> sp.csc_matrix:
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csc")


def assemble_poisson(grid: DomainGrid) -> AssembledOperator:
    """Dense inverse of the 2nd-order central-difference Dirichlet Laplacian."""
    N = grid.num_nodes
    if N > DENSE_CAP:
        raise GridTooLarge(f"poisson assembly for {N} > {DENSE_CAP} nodes")
    A1 = _laplacian_1d(grid.n, grid.h)
    if grid.d == 1:
        A = A1
    else:
        eye = sp.identity(grid.n, format="csc")
        A = sp.kron(A1, eye, format="csc") + sp.kron(eye, A1, format="csc")
    S = np.linalg.inv(A.toarray())
    S = 0.5 * (S + S.T)  # enforce exact symmetry against inversion round-off
    return AssembledOperator("poisson", grid, S, self_adjoint=True)


def assemble_fredholm(grid: DomainGrid, kernel: KernelSpec) -> AssembledOperator:
    """Quadrature discretization S_ij = w_j k(x_i, x_j)."""
    N = grid.num_nodes
    if N > DENSE_CAP:
        raise GridTooLarge(f"fredholm assembly for {N} > {DENSE_CAP} nodes")
    c = grid.coords
    S = kernel.evaluate(c, c) * grid.weight
    symmetric = bool(np.allclose(S, S.T, rtol=0, atol=1e-15))
    return AssembledOperator("fredholm", grid, S, self_adjoint=symmetric)


def apply(op: AssembledOperator, u: GridFunction) -> GridFunction:
    if u.grid != op.grid:
        raise DimensionMismatch("operator and function grids differ")
    return GridFunction(op.grid, op.apply_values(u.values))


def apply_adjoint(op: AssembledOperator, y: GridFunction) -> GridFunction:
    if y.grid != op.grid:
        raise DimensionMismatch("operator and function grids differ")
    return GridFunction(op.grid, op.apply_adjoint_values(y.values))


def restrict(y: GridFunction, region: ObservationRegion) -> np.ndarray:
    if y.grid != region.grid:
        raise DimensionMismatch("function and region grids differ")
    return y.values[region.indices]
