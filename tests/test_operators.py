"""Forward operators against analytic solutions and adjoint identities."""

import numpy as np
import pytest

from reference import assemble, dense_operator, from_callable, laplacian
from tiklav import solver
from tiklav.errors import InvalidInput
from tiklav.grid import DomainGrid, GridFunction, constant
from tiklav.operators import (DENSE_CAP, EigenRows, KernelSpec, SineBasis,
                              apply, assemble_fredholm, assemble_poisson)


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
        with pytest.raises(InvalidInput, match="poisson assembly for 4900 > 4096"):
            assemble_poisson(g)


def _symmetric_table(n):
    """sqrt(2/(n+1)) sin(pi m/(n+1)) for m < 2(n+1), each from the sine of
    an angle in [0, pi/2]: sin(pi r'/(n+1)), r' = min(r, n+1-r) for r = m
    mod (n+1), negated for m >= n+1."""
    h = 1.0 / (n + 1)
    r = np.arange(2 * (n + 1)) % (n + 1)
    table = np.sqrt(2.0 * h) * np.sin(np.pi * h * np.minimum(r, n + 1 - r))
    table[n + 1:] *= -1.0
    return table


def _table_basis(n):
    """The dense sine basis V[j-1, k-1] = table[j k mod 2(n+1)], looked up
    in `_symmetric_table` in one shot."""
    k = np.arange(1, n + 1)
    return _symmetric_table(n)[np.outer(k, k) % (2 * n + 2)]


def _same_bits(a, b):
    """a and b are float64 arrays of one shape with equal bit patterns
    (so also the signs of their zeros agree)."""
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape \
        and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSineBasis:
    """The closed-form eigenbasis behind assemble_poisson."""

    @pytest.mark.parametrize("grid", [DomainGrid(1, 64), DomainGrid(2, 12)],
                             ids=["1d", "2d"])
    def test_basis_is_orthonormal(self, grid):
        V = assemble_poisson(grid).V[:]
        assert np.max(np.abs(V.T @ V - np.eye(grid.num_nodes))) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 2047, 2048])
    def test_blocked_basis_is_the_one_shot_table(self, n):
        # the dense basis is the full lookup table[j k mod 2(n+1)] into the
        # symmetric table, bit for bit, also at the edges (127, 128, 129) of
        # the 128-row blocks an earlier builder looked it up in
        assert _same_bits(SineBasis(n)[:], _table_basis(n))

    @pytest.mark.parametrize("n", [3, 12, 64])
    def test_2d_basis_is_the_kron_of_the_table(self, n):
        # the 2D Poisson basis is the Kronecker product of that 1D lookup,
        # compared n rows at a time: rows i n .. i n + n - 1 are kron(D[i], D)
        D = _table_basis(n)
        V = assemble_poisson(DomainGrid(2, n)).V
        assert V.shape == (n * n, n * n)
        for i in range(n):
            assert _same_bits(V[i * n:(i + 1) * n], np.kron(D[i:i + 1], D))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12, 97, 2047, 2048])
    def test_table_and_basis_reflections_are_exact(self, n):
        table, m = _symmetric_table(n), np.arange(n + 2)
        assert np.array_equal(table[n + 1 - m], table[m])
        assert np.array_equal(table[m[:n + 1] + n + 1], -table[m[:n + 1]])
        V = SineBasis(n)[:]
        sign = np.where(np.arange(1, n + 1) % 2 == 1, 1.0, -1.0)
        assert np.array_equal(V[:, ::-1], V * sign[:, None])  # V[j, n+1-k]
        assert np.array_equal(V[::-1], V * sign)              # V[n+1-j, k]
        assert np.array_equal(V, V.T)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="longdouble is double here")
    @pytest.mark.parametrize("n", [7, 12, 97])
    def test_symmetric_table_is_no_less_accurate(self, n):
        # against sqrt(2/(n+1)) sin(pi m/(n+1)) in extended precision, the
        # basis is no further off than the one from sin(pi h m) over all m
        k = np.arange(1, n + 1)
        m = np.outer(k, k) % (2 * n + 2)
        pi = 4 * np.arctan(np.longdouble(1))
        exact = np.sqrt(np.longdouble(2) / (n + 1)) \
            * np.sin(m.astype(np.longdouble) * pi / (n + 1))
        h = 1.0 / (n + 1)
        plain = np.sqrt(2.0 * h) * np.sin(np.pi * h * np.arange(2 * (n + 1)))
        V = SineBasis(n)[:]
        assert np.max(np.abs(V - exact)) <= np.max(np.abs(plain[m] - exact))

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 97, 127, 128, 129, 2047,
                                   2048])
    def test_transform_is_the_dense_table(self, n):
        # V @ x by one DST-I against the product with the dense table, to
        # round-off; rows and the dense form equal the table's in value
        V, D = SineBasis(n), _table_basis(n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        for got, want in ((V @ x, D @ x), (V.T @ x, D.T @ x)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(x)
        idx = rng.integers(0, n, size=5)
        assert np.array_equal(V[n // 2], D[n // 2])
        assert np.array_equal(V[idx], D[idx])
        assert np.array_equal(V[:], D)
        assert V.T is V and V.shape == D.shape

    def test_transform_is_its_own_inverse(self):
        # V == V.T is orthonormal, so V (V x) = x, also on e_683, the row of
        # the n = 2048 table whose entries take only 3 values
        n = 2048
        V = SineBasis(n)
        e = np.zeros(n)
        e[683] = 1.0
        for x in (e, np.random.default_rng(5).standard_normal(n)):
            assert np.max(np.abs(V @ (V @ x) - x)) \
                <= 1e-13 * np.linalg.norm(x)

    @pytest.mark.parametrize("grid", [DomainGrid(1, 64), DomainGrid(2, 12)],
                             ids=["1d", "2d"])
    def test_operator_inverts_laplacian(self, grid):
        op, eye = assemble_poisson(grid), np.eye(grid.num_nodes)
        S = np.column_stack([op.apply_values(e) for e in eye])
        rel = np.linalg.norm(laplacian(grid) @ S - eye) / np.sqrt(grid.num_nodes)
        assert rel <= 1e-10

    @pytest.mark.parametrize("grid, kernel", [
        (DomainGrid(1, 40), None),
        (DomainGrid(2, 7), None),
        (DomainGrid(1, 30), KernelSpec("gaussian", width=0.3)),
    ], ids=["poisson-1d", "poisson-2d", "fredholm"])
    def test_gram_eig_reconstructs_gram(self, grid, kernel):
        # the eigenvalues d that `solver._quadratic` hands the QP engine,
        # with the operator's basis V, reconstruct 2(S^T S + alpha I) from
        # dense S
        (op, S), alpha = assemble(grid, kernel), 1e-3
        d, _ = solver._quadratic(op, np.zeros(op.grid.num_nodes), alpha)
        V = op.V[:]
        H = 2.0 * (S.T @ S + alpha * np.eye(S.shape[0]))
        assert np.linalg.norm((V * d) @ V.T - H) <= 1e-12 * np.linalg.norm(H)

    @pytest.mark.parametrize("grid, kernel", [
        (DomainGrid(1, 40), None),
        (DomainGrid(2, 7), None),
        (DomainGrid(1, 30), KernelSpec("gaussian", width=0.3)),
        (DomainGrid(1, 30), KernelSpec("separable")),
    ], ids=["poisson-1d", "poisson-2d", "gaussian", "separable"])
    def test_spectral_form_reconstructs_matrix(self, grid, kernel):
        # the reference S, built without the eigenbasis, is V diag(s) V^T
        # and apply_values on random vectors, to round-off
        op, S = assemble(grid, kernel)
        assert np.linalg.norm((op.V[:] * op.s) @ op.V[:].T - S) \
            <= 1e-12 * np.linalg.norm(S)
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = rng.standard_normal(op.grid.num_nodes)
            assert np.linalg.norm(op.apply_values(u) - S @ u) \
                <= 1e-12 * np.linalg.norm(S) * np.linalg.norm(u)


class TestGreensFunction:
    """S f for the 1D Poisson operator in node space, by two cumulative
    sums (`SineBasis.green`), with no transform."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 2048])
    def test_green_is_the_spectral_operator(self, n):
        # against S f = V diag(1/lam) V^T f with the dense sine table
        V = SineBasis(n)
        D = V[:]
        f = np.random.default_rng(n).standard_normal(n)
        want = D @ ((D.T @ f) / V.lam)
        got = V.green(f)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 2048])
    def test_green_inverts_the_laplacian(self, n):
        # L (S f) = f for the 3-point Dirichlet Laplacian, h = 1/(n+1), to
        # round-off times cond(L) ~ (n+1)^2
        f = np.random.default_rng(n).standard_normal(n)
        u = np.concatenate([[0.0], SineBasis(n).green(f), [0.0]])
        Lu = (2 * u[1:-1] - u[:-2] - u[2:]) * (n + 1) ** 2
        assert np.linalg.norm(Lu - f) \
            <= 1e-16 * (n + 1) ** 2 * np.linalg.norm(f)

    def test_poisson_1d_apply_makes_no_transform(self, monkeypatch):
        op = assemble_poisson(DomainGrid(1, 64))
        u = GridFunction(op.grid, np.random.default_rng(1).standard_normal(64))
        calls, inner = [], SineBasis.__matmul__

        def counting(self, x):
            calls.append(1)
            return inner(self, x)

        monkeypatch.setattr(SineBasis, "__matmul__", counting)
        su = op.apply_values(u.values)
        apply(op, u)
        assert calls == []
        assert np.linalg.norm(su - dense_operator(op.grid) @ u.values) \
            <= 1e-13 * np.linalg.norm(su)

    @pytest.mark.parametrize("shift", [0.0, 0.3, -0.05])
    def test_state_rows_at_values_are_the_product(self, shift):
        # for u = V x, the rows at u by the Green's function are B x, and
        # their adjoint at eta is B^T eta in node space, V B^T eta
        n = 97
        op = assemble_poisson(DomainGrid(1, n))
        idx = np.array([0, 5, 40, 41, 96])
        B = EigenRows(op, idx, shift)
        rng = np.random.default_rng(3)
        x, eta = rng.standard_normal(n), rng.standard_normal(idx.size)
        want = B[:] @ x
        assert np.max(np.abs(B.at_values(op.V @ x, x) - want)) \
            <= 1e-13 * np.linalg.norm(x)
        want = op.V @ (B[:].T @ eta)
        assert np.max(np.abs(B.adjoint(eta) - want)) \
            <= 1e-13 * np.linalg.norm(eta)


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
        op, S = assemble(g, KernelSpec("separable"))
        u = apply(op, constant(g, 1.0))
        x = g.coords[:, 0]
        assert np.allclose(u.values, x * (g.weight * x.sum()))
        assert np.linalg.matrix_rank(S) == 1

    def test_gaussian_kernel_symmetric(self):
        g = DomainGrid(1, 20)
        S = dense_operator(g, KernelSpec("gaussian", width=0.25))
        assert np.allclose(S, S.T)

    def test_kernel_validation(self):
        with pytest.raises(InvalidInput, match="unknown kernel kind"):
            KernelSpec("unknown")
        with pytest.raises(InvalidInput, match="width must be positive"):
            KernelSpec("gaussian", width=0.0)
        with pytest.raises(InvalidInput, match="parameters must be finite"):
            KernelSpec("constant", value=np.inf)

    def test_apply_on_another_grid_rejected(self):
        op = assemble_fredholm(DomainGrid(1, 8), KernelSpec("constant"))
        with pytest.raises(InvalidInput, match="grids differ"):
            apply(op, constant(DomainGrid(1, 9), 1.0))

    def test_beyond_cap_rejected(self):
        with pytest.raises(InvalidInput, match="fredholm assembly for 4900 > 4096"):
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
            rhs = u.inner(apply(op, v))
            assert abs(lhs - rhs) <= 1e-12 * u.norm() * v.norm()
