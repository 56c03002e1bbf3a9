"""Discrete forward operators: Dirichlet Poisson solver and Fredholm kernels.

Both operators map GridFunctions to GridFunctions on the same grid. With
uniform quadrature weights the weighted adjoint is the plain transpose, so
the Poisson operator is exactly self-adjoint and the Fredholm adjoint is
the transposed kernel.

The Poisson operator is assembled from the closed-form eigenbasis of the
Dirichlet Laplacian, the sine modes of the fast Poisson solver (Buzbee,
Golub and Nielson, SIAM J. Numer. Anal. 7 (1970) 627): no inverse is formed,
and the same basis diagonalizes S^T S and every QP Hessian 2(S^T S + alpha I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
                 self_adjoint: bool = False, gram_eig=None):
        self.kind = kind
        self.grid = grid
        self.matrix = matrix
        self.self_adjoint = self_adjoint
        self._gram = None
        self._gram_eig = gram_eig

    @property
    def adjoint_matrix(self) -> np.ndarray:
        # uniform weights: weighted adjoint = transpose
        return self.matrix if self.self_adjoint else self.matrix.T

    @property
    def gram(self) -> np.ndarray:
        """S^T S, cached (the oracle's Hessian; `gram_eig` decomposes it
        unless the operator knows its eigenbasis)."""
        if self._gram is None:
            m = self.matrix
            g = m.T @ m
            self._gram = 0.5 * (g + g.T)
        return self._gram

    @property
    def gram_eig(self):
        """(V, s2): orthonormal eigenvectors V of S^T S (columns) and its
        eigenvalues s2, so S^T S = V diag(s2) V^T; cached."""
        if self._gram_eig is None:
            s2, V = np.linalg.eigh(self.gram)
            self._gram_eig = (V, s2)
        return self._gram_eig

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    def apply_adjoint_values(self, values: np.ndarray) -> np.ndarray:
        if self.self_adjoint:
            return self.apply_values(values)
        return self.adjoint_matrix @ values


def _sine_modes(n: int):
    """Orthonormal eigenvectors V[j-1, k-1] = sqrt(2/(n+1)) sin(pi j k/(n+1))
    of the 3-point Dirichlet Laplacian on n nodes and its eigenvalues
    4/h^2 sin^2(k pi h/2), j, k = 1..n."""
    # sin(pi j k/(n+1)) takes 2(n+1) values: one table indexed by the exact
    # integer angle j k mod 2(n+1)
    k = np.arange(1, n + 1)
    jk = np.outer(k, k)
    jk %= 2 * (n + 1)
    h = 1.0 / (n + 1)
    table = np.sqrt(2.0 * h) * np.sin(np.pi * h * np.arange(2 * (n + 1)))
    return table[jk], 4.0 / h**2 * np.sin(0.5 * np.pi * h * k) ** 2


def assemble_poisson(grid: DomainGrid) -> AssembledOperator:
    """Inverse S of the 2nd-order central-difference Dirichlet Laplacian,
    S = V diag(1/lam) V^T in the sine basis (a Kronecker product in 2D)."""
    N = grid.num_nodes
    if N > DENSE_CAP:
        raise GridTooLarge(f"poisson assembly for {N} > {DENSE_CAP} nodes")
    V, lam = _sine_modes(grid.n)
    if grid.d == 2:
        V, lam = np.kron(V, V), np.add.outer(lam, lam).ravel()
    W = V / np.sqrt(lam)
    S = W @ W.T  # a product with its own transpose is exactly symmetric
    return AssembledOperator("poisson", grid, S, self_adjoint=True,
                             gram_eig=(V, lam**-2.0))


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
