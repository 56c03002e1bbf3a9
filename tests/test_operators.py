"""Forward operators against analytic solutions and adjoint identities."""

import numpy as np
import pytest

from tiklav.errors import GridTooLarge, InvalidKernelParameter
from tiklav.grid import DomainGrid, GridFunction, ObservationRegion, constant, from_callable
from tiklav.operators import (DENSE_CAP, KernelSpec, apply, apply_adjoint,
                              assemble_fredholm, assemble_poisson, restrict)


class TestPoissonAnalytic:
    def test_constant_source_gives_parabola_exactly(self):
        # -u'' = 1, u(0) = u(1) = 0  =>  u = x(1-x)/2; second-order central
        # differences are exact on quadratics
        g = DomainGrid(1, 31)
        op = assemble_poisson(g)
        u = apply(op, constant(g, 1.0))
        x = g.coords[:, 0]
        assert np.allclose(u.values, x * (1 - x) / 2, atol=1e-12)

    def test_sine_source_second_order(self):
        # -u'' = sin(pi x)  =>  u = sin(pi x)/pi^2 with O(h^2) error
        errs = []
        for n in (16, 32, 64, 128):
            g = DomainGrid(1, n)
            op = assemble_poisson(g)
            f = from_callable(g, lambda x: np.sin(np.pi * x))
            u = apply(op, f)
            exact = np.sin(np.pi * g.coords[:, 0]) / np.pi ** 2
            errs.append(np.max(np.abs(u.values - exact)))
        orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
        assert np.all(orders > 1.8) and np.all(orders < 2.2)

    def test_2d_product_sine_eigenfunction(self):
        # sin(pi x) sin(pi y) is an eigenfunction of the discrete Laplacian
        g = DomainGrid(2, 12)
        op = assemble_poisson(g)
        f = from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        u = apply(op, f)
        lam = 2 * 4 / g.h ** 2 * np.sin(np.pi * g.h / 2) ** 2
        assert np.allclose(u.values, f.values / lam, atol=1e-12)

    def test_dense_beyond_cap_rejected(self):
        g = DomainGrid(2, 70)  # 4900 > DENSE_CAP
        assert g.num_nodes > DENSE_CAP
        with pytest.raises(GridTooLarge):
            assemble_poisson(g)


def _laplacian(grid):
    """The 3-point (1D) or 5-point (2D) Dirichlet Laplacian, dense."""
    n = grid.n
    A1 = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / grid.h**2
    if grid.d == 1:
        return A1
    return np.kron(A1, np.eye(n)) + np.kron(np.eye(n), A1)


class TestSineBasis:
    """The closed-form eigenbasis behind assemble_poisson."""

    @pytest.mark.parametrize("grid", [DomainGrid(1, 64), DomainGrid(2, 12)],
                             ids=["1d", "2d"])
    def test_basis_is_orthonormal(self, grid):
        V, _ = assemble_poisson(grid).gram_eig
        assert np.max(np.abs(V.T @ V - np.eye(grid.num_nodes))) <= 1e-13

    @pytest.mark.parametrize("grid", [DomainGrid(1, 64), DomainGrid(2, 12)],
                             ids=["1d", "2d"])
    def test_operator_inverts_laplacian(self, grid):
        A = _laplacian(grid)
        S = assemble_poisson(grid).matrix
        rel = np.linalg.norm(A @ S - np.eye(grid.num_nodes)) \
            / np.sqrt(grid.num_nodes)
        assert rel <= 1e-10

    @pytest.mark.parametrize("make", [
        lambda: assemble_poisson(DomainGrid(1, 40)),
        lambda: assemble_poisson(DomainGrid(2, 7)),
        lambda: assemble_fredholm(DomainGrid(1, 30),
                                  KernelSpec("gaussian", width=0.3)),
    ], ids=["poisson-1d", "poisson-2d", "fredholm"])
    def test_gram_eig_reconstructs_gram(self, make):
        op = make()
        V, s2 = op.gram_eig
        G = op.gram
        assert np.linalg.norm((V * s2) @ V.T - G) <= 1e-12 * np.linalg.norm(G)
        assert op.gram_eig is op.gram_eig  # cached

    @pytest.mark.parametrize("make", [
        lambda: assemble_poisson(DomainGrid(1, 40)),
        lambda: assemble_poisson(DomainGrid(2, 7)),
        lambda: assemble_fredholm(DomainGrid(1, 30),
                                  KernelSpec("gaussian", width=0.3)),
        lambda: assemble_fredholm(DomainGrid(1, 30), KernelSpec("separable")),
    ], ids=["poisson-1d", "poisson-2d", "gaussian", "separable"])
    def test_spectral_form_reconstructs_matrix(self, make):
        op = make()
        S = op.matrix
        assert np.linalg.norm((op.V * op.s) @ op.V.T - S) \
            <= 1e-12 * np.linalg.norm(S)
        u = np.random.default_rng(2).standard_normal(op.grid.num_nodes)
        assert np.linalg.norm(op.apply_values(u) - S @ u) \
            <= 1e-12 * np.linalg.norm(S) * np.linalg.norm(u)
        assert op.matrix is S  # cached


class TestFredholm:
    def test_constant_kernel_integrates(self):
        # k = 1: (Su)(x) = quadrature sum of u; for u = 1 that is n*h
        g = DomainGrid(1, 24)
        op = assemble_fredholm(g, KernelSpec("constant"))
        u = apply(op, constant(g, 1.0))
        assert np.allclose(u.values, g.n * g.h)

    def test_separable_kernel_rank_one(self):
        # k(x,x') = x x': (Su)(x) = x * quad(x' u); for u = 1, quad(x') = sum w x'
        g = DomainGrid(1, 15)
        op = assemble_fredholm(g, KernelSpec("separable"))
        u = apply(op, constant(g, 1.0))
        x = g.coords[:, 0]
        assert np.allclose(u.values, x * (g.weight * x.sum()))
        assert np.linalg.matrix_rank(op.matrix) == 1

    def test_gaussian_kernel_symmetric(self):
        g = DomainGrid(1, 20)
        op = assemble_fredholm(g, KernelSpec("gaussian", width=0.25))
        assert np.allclose(op.matrix, op.matrix.T)

    def test_kernel_validation(self):
        with pytest.raises(InvalidKernelParameter):
            KernelSpec("unknown")
        with pytest.raises(InvalidKernelParameter):
            KernelSpec("gaussian", width=0.0)
        with pytest.raises(InvalidKernelParameter):
            KernelSpec("constant", value=np.inf)

    def test_beyond_cap_rejected(self):
        with pytest.raises(GridTooLarge):
            assemble_fredholm(DomainGrid(2, 70), KernelSpec("constant"))


class TestAdjoint:
    @pytest.mark.parametrize("make", [
        lambda g: assemble_poisson(g),
        lambda g: assemble_fredholm(g, KernelSpec("gaussian", width=0.3)),
        lambda g: assemble_fredholm(g, KernelSpec("separable")),
    ])
    def test_adjoint_identity(self, make):
        g = DomainGrid(1, 18)
        op = make(g)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = GridFunction(g, rng.standard_normal(g.num_nodes))
            v = GridFunction(g, rng.standard_normal(g.num_nodes))
            lhs = apply(op, u).inner(v)
            rhs = u.inner(apply_adjoint(op, v))
            assert abs(lhs - rhs) <= 1e-12 * u.norm() * v.norm()

    def test_poisson_exactly_self_adjoint(self):
        for grid in (DomainGrid(1, 25), DomainGrid(2, 9)):
            op = assemble_poisson(grid)
            assert np.array_equal(op.matrix, op.matrix.T)

    def test_gram_is_symmetric_psd(self):
        op = assemble_fredholm(DomainGrid(1, 12), KernelSpec("gaussian", width=0.4))
        G = op.gram
        assert np.array_equal(G, G.T)
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-14


def test_restrict_picks_region_values():
    g = DomainGrid(1, 9)
    r = ObservationRegion.from_bounds(g, [[0.25, 0.45]])
    f = GridFunction(g, np.arange(9, dtype=float))
    assert np.array_equal(restrict(f, r), f.values[r.indices])
