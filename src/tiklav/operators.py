"""Discrete forward operators: Dirichlet Poisson solver and Fredholm kernels.

Both operators map GridFunctions to GridFunctions on the same grid. With
uniform quadrature weights the weighted adjoint is the plain transpose, and
both are symmetric, so each is held as one spectral operator
S = V diag(s) V^T with V orthonormal: S^T S = V diag(s^2) V^T, and a row
of S + shift I is V[i] diag(s + shift) V^T.

The Poisson operator uses the closed-form eigenbasis of the Dirichlet
Laplacian, the sine modes of the fast Poisson solver (Buzbee, Golub and
Nielson, SIAM J. Numer. Anal. 7 (1970) 627), with s = 1/eigenvalue: no
inverse and no dense S is formed, and each entry of V that is read is
looked up in one table of 2(n+1) sine values (`_sine_rows`). In 1D, V is a
`SineBasis`: V x is one discrete sine transform (DST-I) by numpy's FFT, so
no n x n array is formed on the solve path. S itself needs no transform
there: S f, the solution of the 3-point Dirichlet problem, is the discrete
Green's function applied by two cumulative sums (`SineBasis.green`), which
`apply_values` uses. In 2D, V is the dense Kronecker product of two 1D
tables, where a 144-node product is cheaper than a 2D transform, and S u
is V (s * V^T u). A Fredholm operator takes one eigh of its quadrature
matrix and keeps only the eigenpairs. No operator keeps a dense S, and
for every operator the state rows of S + shift I are an implicit
`EigenRows`, applied through `apply_values`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .grid import DomainGrid, GridFunction

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
            raise InvalidInput(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not self.width > 0:
            raise InvalidInput("gaussian width must be positive")
        if not np.isfinite(self.value) or not np.isfinite(self.width):
            raise InvalidInput("kernel parameters must be finite")

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
    and s real; S u and S* u are both V (s * V^T u), or, with a `SineBasis`
    V (the 1D Poisson operator, s = 1/eigenvalue), the Green's function.
    It keeps no dense S. Immutable after construction; safe for concurrent
    reads.
    """

    def __init__(self, grid: DomainGrid, V: np.ndarray | SineBasis,
                 s: np.ndarray):
        self.grid = grid
        self.V = V
        self.s = s

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """S u for u's node values: the Green's function on a `SineBasis`
        (no transform), else V (s * V^T u)."""
        if isinstance(self.V, SineBasis):
            return self.V.green(values)
        return self.V @ (self.s * (self.V.T @ values))


class SineBasis:
    """The orthonormal eigenbasis V of the 3-point Dirichlet Laplacian on n
    nodes without its n^2 entries, and its eigenvalues `lam`. V == V.T, so
    V.T is V itself, and V @ x, for a vector x, is one DST-I, computed as a
    chirp-z transform (Bluestein) on power-of-two FFTs. Rows V[i], V[idx]
    and V[:], the dense table, are looked up in the exact symmetric sine
    table (`_sine_rows`). `green(f)` applies the operator V diag(1/lam) V^T
    of `assemble_poisson` in node space, with no transform.
    """

    def __init__(self, n: int):
        self.shape = (n, n)
        self._k = np.arange(1, n + 1)
        self._j = (self._k.astype(float), (n + 1.0) - self._k)  # i, N - i
        self._table, self.lam = _sine_spectrum(n)
        # (V x)_j = sqrt(2/(n+1)) Im sum_k x_k exp(i pi j k/(n+1)), and
        # j k = (j^2 + k^2 - (j-k)^2)/2 turns the sum into
        # c_j sum_k conj(c_(j-k)) c_k x_k, a convolution with the chirp
        # c_m = exp(i pi m^2/(2(n+1))), whose angle is exact with m^2
        # reduced mod 4(n+1). It runs on FFTs of the power of two
        # L >= 2n - 1: several times faster than one FFT of length 2(n+1)
        # when n + 1 has a large prime factor (2049 = 3 * 683)
        m = np.arange(n + 1)
        c = np.exp(1j * np.pi / (2 * (n + 1)) * (m * m % (4 * (n + 1))))
        L = 1 << (2 * n - 2).bit_length()
        kernel = np.zeros(L, dtype=complex)
        kernel[:n] = c[:n].conj()                   # lags j - k = 0..n-1
        kernel[L - n + 1:] = c[n - 1:0:-1].conj()   # lags -(n-1)..-1
        self._kernel = np.fft.fft(kernel)
        self._chirp = c[1:]
        self._scale = np.sqrt(2.0 / (n + 1)) * c[1:]

    @property
    def T(self) -> "SineBasis":
        return self

    def __matmul__(self, x):
        z = np.fft.fft(self._chirp * x, n=self._kernel.size)
        z *= self._kernel
        return (self._scale * np.fft.ifft(z)[:self.shape[0]]).imag

    def green(self, f: np.ndarray) -> np.ndarray:
        """S f = L^{-1} f for the 3-point Dirichlet Laplacian L on n nodes,
        f of shape (n,), by its Green's function: with N = n + 1,
        (S f)_i = [(N - i) sum_{j<=i} j f_j + i sum_{j>i} (N - j) f_j] / N^3,
        two cumulative sums."""
        n = self.shape[0]
        j, nj = self._j
        out = nj * np.cumsum(j * f)
        out[:-1] += j[:-1] * np.cumsum((nj * f)[:0:-1])[::-1]
        return out / (n + 1)**3

    def __getitem__(self, i):
        """Rows i of V, for an int or an integer index array i."""
        return _sine_rows(self._table, self._k[i], self._k)


class EigenRows:
    """The state rows T = (S + shift I)[idx] of an operator, held as (op,
    idx, shift): in the eigenbasis T = B V^T with B = V[idx] diag(w),
    w = s + shift, and B[i] is V[idx[i]] * w. T u at u = V x needs no
    product with B: `at_values(u, x)` is ((S + shift I) u)[idx], by the
    Green's function on u in 1D Poisson and as (V (w * x))[idx] with a
    dense V, and `adjoint(eta)` is T^T eta = (S + shift I) e in node
    space. Read-only: it has no buffer and no item assignment, and B[:] is
    a new array.
    """

    def __init__(self, op: AssembledOperator, idx: np.ndarray, shift: float):
        self.op, self.V, self.shift = op, op.V, shift
        self.idx, self.w = idx.copy(), op.s + shift
        self.idx.flags.writeable = self.w.flags.writeable = False
        self.shape = (idx.size, self.V.shape[0])

    def at_values(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """T u = B x for u = V x: one product with a dense V, the Green's
        function on u with a `SineBasis`; with no rows, an empty array and
        no product."""
        if not self.idx.size:
            return np.zeros(0)
        if isinstance(self.V, SineBasis):
            return (self.V.green(u) + self.shift * u)[self.idx]
        return (self.V @ (self.w * x))[self.idx]

    def adjoint(self, eta: np.ndarray):
        """T^T eta = (S + shift I) e, e holding eta at idx; 0.0 when eta is
        0 (no row active)."""
        if not eta.any():
            return 0.0
        e = np.bincount(self.idx, eta, self.shape[1])
        return self.op.apply_values(e) + self.shift * e

    def __getitem__(self, i):
        return self.V[self.idx[i]] * self.w


def _sine_spectrum(n: int):
    """The table sqrt(2/(n+1)) sin(pi m/(n+1)) of the 2(n+1) integer angles
    m, in which V[j-1, k-1] = table[j k mod 2(n+1)] is looked up, and the
    eigenvalues 4/h^2 sin^2(k pi h/2) of the Laplacian, k = 1..n. Each
    entry is the sine of an angle in [0, pi/2], negated for m >= n+1, so
    table[n+1-m] == table[m] and table[m+n+1] == -table[m] hold exactly."""
    h = 1.0 / (n + 1)
    r = np.arange(2 * (n + 1)) % (n + 1)
    table = np.sqrt(2.0 * h) * np.sin(np.pi * h * np.minimum(r, n + 1 - r))
    table[n + 1:] *= -1.0
    k = np.arange(1, n + 1)
    return table, 4.0 / h**2 * np.sin(0.5 * np.pi * h * k) ** 2


def _sine_rows(table: np.ndarray, j, k: np.ndarray) -> np.ndarray:
    """Rows j of the sine basis at columns k (an int or integer arrays,
    from 1): V[j-1, k-1] = sqrt(2/(n+1)) sin(pi j k/(n+1)) =
    table[j k mod 2(n+1)], in the table of `_sine_spectrum`. As j k = k j,
    the dense V is exactly symmetric."""
    jk = np.multiply.outer(j, k)
    jk %= table.size
    return table[jk]


def assemble_poisson(grid: DomainGrid) -> AssembledOperator:
    """Inverse S of the 2nd-order central-difference Dirichlet Laplacian,
    S = V diag(1/lam) V^T in the sine basis: a `SineBasis` in 1D, the dense
    Kronecker product of two 1D tables in 2D."""
    N = grid.num_nodes
    if N > DENSE_CAP:
        raise InvalidInput(f"poisson assembly for {N} > {DENSE_CAP} nodes")
    if grid.d == 1:
        V = SineBasis(grid.n)
        return AssembledOperator(grid, V, 1.0 / V.lam)
    table, lam = _sine_spectrum(grid.n)
    k = np.arange(1, grid.n + 1)
    V = _sine_rows(table, k, k)
    return AssembledOperator(grid, np.kron(V, V),
                             1.0 / np.add.outer(lam, lam).ravel())


def assemble_fredholm(grid: DomainGrid, kernel: KernelSpec) -> AssembledOperator:
    """Quadrature discretization S_ij = w_j k(x_i, x_j), symmetric for the
    built-in kernels and uniform weights, split by one eigh."""
    N = grid.num_nodes
    if N > DENSE_CAP:
        raise InvalidInput(f"fredholm assembly for {N} > {DENSE_CAP} nodes")
    c = grid.coords
    S = kernel.evaluate(c, c) * grid.weight
    s, V = np.linalg.eigh(S)
    return AssembledOperator(grid, V, s)


def apply(op: AssembledOperator, u: GridFunction) -> GridFunction:
    if u.grid != op.grid:
        raise InvalidInput("operator and function grids differ")
    return GridFunction(op.grid, op.apply_values(u.values))
