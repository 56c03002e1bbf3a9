"""Uniform grids on the unit interval/square and weighted grid functions.

Only interior nodes are stored; homogeneous Dirichlet boundary values are
eliminated. The discrete L2 inner product uses uniform quadrature weights
h^d per node, so the weighted adjoint of a matrix is its plain transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class DomainGrid:
    """Interior nodes of a uniform grid on (0,1)^d with spacing h = 1/(n+1)."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes per axis, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def num_nodes(self) -> int:
        return self.n**self.d

    @property
    def coords(self) -> np.ndarray:
        """Node coordinates, shape (num_nodes, d), lexicographic order."""
        axis = self.h * np.arange(1, self.n + 1)
        if self.d == 1:
            return axis[:, None]
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weight per node (uniform, h^d)."""
        return np.full(self.num_nodes, self.h**self.d)

    @property
    def weight(self) -> float:
        """The common quadrature weight h^d."""
        return self.h**self.d


@dataclass
class GridFunction:
    """A discretized L2 element: node values on a DomainGrid."""

    grid: DomainGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.num_nodes,):
            raise DimensionMismatch(
                f"expected {self.grid.num_nodes} values, got {self.values.shape}"
            )

    def inner(self, other: "GridFunction") -> float:
        if other.grid != self.grid:
            raise DimensionMismatch("grids differ")
        return self.grid.weight * float(self.values @ other.values)

    def norm(self) -> float:
        return float(np.sqrt(self.grid.weight) * np.linalg.norm(self.values))

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


def constant(grid: DomainGrid, value: float) -> GridFunction:
    return GridFunction(grid, np.full(grid.num_nodes, float(value)))


def from_callable(grid: DomainGrid, f) -> GridFunction:
    """Sample f(x) (1D) or f(x, y) (2D) at the grid nodes."""
    c = grid.coords
    if grid.d == 1:
        vals = np.asarray([f(x) for x in c[:, 0]], dtype=float)
    else:
        vals = np.asarray([f(x, y) for x, y in c], dtype=float)
    return GridFunction(grid, vals)


def wnorm(grid: DomainGrid, values: np.ndarray) -> float:
    """Weighted L2 norm of raw node values."""
    return float(np.sqrt(grid.weight) * np.linalg.norm(values))


@dataclass(frozen=True)
class ObservationRegion:
    """A subset of grid nodes representing the observation region."""

    grid: DomainGrid
    indices: np.ndarray
    inner: bool = False

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        object.__setattr__(self, "indices", idx)
        if idx.size == 0:
            raise ValueError("observation region must be nonempty")
        if idx.min() < 0 or idx.max() >= self.grid.num_nodes:
            raise ValueError("region indices out of range")
        if self.inner:
            # no boundary-adjacent nodes: per-axis index in 2..n-1
            h = self.grid.h
            c = self.grid.coords[idx]
            lo, hi = 1.5 * h, 1.0 - 1.5 * h
            if np.any(c < lo) or np.any(c > hi):
                raise ValueError("inner region contains boundary-adjacent nodes")

    @property
    def size(self) -> int:
        return int(self.indices.size)

    @classmethod
    def from_bounds(cls, grid: DomainGrid, bounds, inner: bool = False):
        """Axis-aligned box given per-axis coordinate bounds [(lo, hi), ...]."""
        bounds = np.asarray(bounds, dtype=float)
        if bounds.shape != (grid.d, 2):
            raise ValueError(f"need {grid.d} (lo, hi) pairs, got {bounds.shape}")
        c = grid.coords
        mask = np.ones(grid.num_nodes, dtype=bool)
        for ax in range(grid.d):
            mask &= (c[:, ax] >= bounds[ax, 0]) & (c[:, ax] <= bounds[ax, 1])
        if not mask.any():
            raise ValueError("region bounds contain no grid nodes")
        return cls(grid, np.nonzero(mask)[0], inner=inner)

    @classmethod
    def all_nodes(cls, grid: DomainGrid):
        return cls(grid, np.arange(grid.num_nodes))
