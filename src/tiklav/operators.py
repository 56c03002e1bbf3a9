"""Discrete forward operators: Dirichlet Poisson solver and Fredholm kernels.

Both operators map GridFunctions to GridFunctions on the same grid. With
uniform quadrature weights the weighted adjoint is the plain transpose, and
both are symmetric, so each is held as one spectral operator
S = V diag(s) V^T with V orthonormal: S and S* apply as V (s * V^T u),
S^T S = V diag(s^2) V^T, and a row of S + shift I is V[i] diag(s + shift) V^T.

The Poisson operator uses the closed-form eigenbasis of the Dirichlet
Laplacian, the sine modes of the fast Poisson solver (Buzbee, Golub and
Nielson, SIAM J. Numer. Anal. 7 (1970) 627), with s = 1/eigenvalue: no
inverse and no dense S is formed. A Fredholm operator takes one eigh of its
quadrature matrix, which it keeps as its dense S.
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
    """A symmetric discrete forward map S = V diag(s) V^T with V orthonormal
    and s real; S u and S* u are both V (s * V^T u).

    The dense matrix S is built or kept only for the readers that need it
    (`gram`, the enumeration oracle and the tests). Immutable after
    construction apart from its caches; safe for concurrent reads.
    """

    def __init__(self, grid: DomainGrid, V: np.ndarray, s: np.ndarray,
                 matrix: np.ndarray | None = None):
        self.grid = grid
        self.V = V
        self.s = s
        self._matrix = matrix  # None: s > 0, and S = W W^T is built on read
        self._gram = None
        self.gram_eig = (V, s**2)  # S^T S = V diag(s^2) V^T, s^2 >= 0

    @property
    def matrix(self) -> np.ndarray:
        """Dense S, cached; with s > 0 it is W W^T, W = V s^(1/2), which as a
        product with its own transpose is exactly symmetric."""
        if self._matrix is None:
            W = self.V * np.sqrt(self.s)
            self._matrix = W @ W.T
        return self._matrix

    @property
    def gram(self) -> np.ndarray:
        """Dense S^T S, cached (the oracle's Hessian)."""
        if self._gram is None:
            m = self.matrix
            self._gram = m.T @ m
        return self._gram

    def eigen_rows(self, idx: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """Rows idx of S + shift I in the eigenbasis: a new array B with
        (S + shift I)[idx] = B V^T, B = V[idx] diag(s + shift)."""
        B = self.V[idx]  # fancy indexing: a copy, safe to scale in place
        B *= self.s + shift
        return B

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        return self.V @ (self.s * (self.V.T @ values))

    apply_adjoint_values = apply_values  # S* = S under uniform weights


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
    return AssembledOperator(grid, V, 1.0 / lam)


def assemble_fredholm(grid: DomainGrid, kernel: KernelSpec) -> AssembledOperator:
    """Quadrature discretization S_ij = w_j k(x_i, x_j), symmetric for the
    built-in kernels and uniform weights, split by one eigh."""
    N = grid.num_nodes
    if N > DENSE_CAP:
        raise GridTooLarge(f"fredholm assembly for {N} > {DENSE_CAP} nodes")
    c = grid.coords
    S = kernel.evaluate(c, c) * grid.weight
    s, V = np.linalg.eigh(S)
    return AssembledOperator(grid, V, s, matrix=S)


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
