"""The QP engine against closed-form and enumeration ground truth."""

from dataclasses import dataclass

import numpy as np
import pytest

from tiklav import qp
from tiklav.errors import Infeasible, InvalidInput
from tiklav.grid import DomainGrid
from tiklav.operators import KernelSpec, assemble_fredholm
from tiklav.qp import QPResult, solve_box_state_qp


class DenseRows:
    """Dense state rows T (None: no rows) as the engine reads them: rows
    of B = T V in the eigenbasis V, and T u at u = V x."""

    def __init__(self, T, V):
        self.T = np.zeros((0, V.shape[0])) if T is None else T
        self.B = self.T @ V
        self.shape = self.B.shape

    def __getitem__(self, i):
        return self.B[i]

    def at_values(self, u, x):
        return self.T @ u


@dataclass
class Certified(QPResult):
    """The engine's result and its certificate by qp.certify."""
    mu_lower: np.ndarray
    mu_upper: np.ndarray
    stationarity: float
    primal: float
    complementarity: float


def solve_dense(H, g, upper, T, psi, tol, wfac, start=None, eig=None):
    """solve_box_state_qp on a dense H, g and T, turned into ((V, d), V^T g,
    T V) with one eigh of H (or with eig = (d, V)), and qp.certify on the
    node-space gradient H u + g + T^T eta and the slacks at u."""
    d, V = np.linalg.eigh(H) if eig is None else eig
    rows = DenseRows(T, V)
    psi = np.zeros(0) if T is None else psi
    res = solve_box_state_qp((V, d), V.T @ g, upper, rows, psi, tol, start)
    u, eta = res.u, res.eta
    slack = (u, upper - u, psi - rows.T @ u)
    return Certified(*vars(res).values(), *qp.certify(
        H @ u + g + rows.T.T @ eta, slack, eta, tol, wfac))


def test_unconstrained_interior_minimizer():
    # minimizer of 0.5 u'Hu + g'u strictly inside the box is the linear solve
    H = np.diag([2.0, 4.0])
    g = np.array([-1.0, -2.0])
    res = solve_dense(H, g, np.ones(2), None, None,
                      1e-10, 1.0)
    assert np.allclose(res.u, [0.5, 0.5], atol=1e-9)
    assert res.stationarity <= 1e-10


def test_box_clipping_with_multipliers():
    # minimizer would be u = 2 but b = 1: upper bound active with mu = H(2-1)
    H = np.array([[2.0]])
    g = np.array([-4.0])
    res = solve_dense(H, g, np.ones(1), None, None,
                      1e-10, 1.0)
    assert res.u[0] == pytest.approx(1.0, abs=1e-9)
    assert res.mu_upper[0] == pytest.approx(2.0, abs=1e-7)
    assert res.mu_lower[0] == pytest.approx(0.0, abs=1e-9)


def test_lower_bound_active():
    H = np.array([[2.0]])
    g = np.array([3.0])  # unconstrained minimizer -1.5 < 0
    res = solve_dense(H, g, np.ones(1), None, None,
                      1e-10, 1.0)
    assert res.u[0] == pytest.approx(0.0, abs=1e-9)
    assert res.mu_lower[0] == pytest.approx(3.0, abs=1e-7)


def test_infinite_upper_bound():
    H = np.diag([2.0, 2.0])
    g = np.array([-6.0, 2.0])
    upper = np.array([np.inf, np.inf])
    res = solve_dense(H, g, upper, None, None, 1e-10, 1.0)
    assert np.allclose(res.u, [3.0, 0.0], atol=1e-8)
    assert np.all(res.mu_upper == 0.0)


def test_single_state_constraint_projects_onto_plane():
    # min ||u - c||^2 s.t. sum(u) <= 1 with c = (1,1): u = (0.5, 0.5), eta = 1
    H = 2 * np.eye(2)
    g = -2 * np.ones(2)
    T = np.ones((1, 2))
    psi = np.array([1.0])
    res = solve_dense(H, g, np.full(2, np.inf), T, psi,
                      1e-10, 1.0)
    assert np.allclose(res.u, [0.5, 0.5], atol=1e-8)
    assert res.eta[0] == pytest.approx(1.0, abs=1e-6)
    assert res.primal <= 1e-10


def test_inactive_state_constraint_leaves_solution_alone():
    H = 2 * np.eye(2)
    g = -2 * np.array([0.2, 0.1])
    T = np.ones((1, 2))
    psi = np.array([5.0])
    res = solve_dense(H, g, np.ones(2), T, psi, 1e-10, 1.0)
    assert np.allclose(res.u, [0.2, 0.1], atol=1e-9)
    assert np.allclose(res.eta, 0.0, atol=1e-9)


def test_degenerate_redundant_rows():
    # duplicated active rows: primal solution still unique and certified
    H = 2 * np.eye(2)
    g = -2 * np.ones(2)
    T = np.ones((2, 2))
    psi = np.array([1.0, 1.0])
    res = solve_dense(H, g, np.ones(2), T, psi, 1e-9, 1.0)
    assert np.allclose(res.u, [0.5, 0.5], atol=1e-7)


def test_dependent_lower_bound_and_state_row():
    # u_1 <= 0 (state row) and u_1 >= 0 (lower bound) are the same line: the
    # engine activates one of them and ends at the projection of (1, 1)
    H = 2 * np.eye(2)
    g = -2 * np.ones(2)
    T = np.array([[1.0, 0.0]])
    psi = np.array([0.0])
    res = solve_dense(H, g, np.full(2, np.inf), T, psi,
                      1e-10, 1.0)
    assert np.allclose(res.u, [0.0, 1.0], atol=1e-12)
    assert res.eta[0] + res.mu_lower[0] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("d_min", [0.0, 1e-35, np.nan],
                         ids=["zero", "round-off", "nan"])
def test_semidefinite_hessian_rejected(d_min):
    # an exact 0 eigenvalue, one positive but <= eps * d_max, or NaN: the
    # dual active-set pass would divide by sqrt(d)
    rng = np.random.default_rng(0)
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    d = np.array([2.0, 1.0, 0.5, d_min])
    with pytest.raises(InvalidInput, match="not definite to round-off"):
        solve_box_state_qp((V, d), rng.standard_normal(4), np.ones(4),
                           DenseRows(None, V), np.zeros(0), 1e-10)


def _least_squares_batch(seed, count=100):
    """Seeded QPs min ||Au - y||^2 as (A, y, upper, T, psi) with rank(A) < n,
    ~30% infinite upper bounds and 0-3 state rows."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 9))
        A = rng.standard_normal((int(rng.integers(1, n)), n))
        y = rng.standard_normal(A.shape[0])
        upper = rng.uniform(0.2, 2.0, n)
        upper[rng.random(n) < 0.3] = np.inf
        m = int(rng.integers(0, 4))
        T = rng.standard_normal((m, n)) if m else None
        psi = rng.uniform(0.05, 1.0, m) if m else None
        yield A, y, upper, T, psi


def test_eigenpair_and_dense_hessian_agree():
    # H = 2(A^T A + alpha I) as (V, d) from the SVD of A, or from one eigh
    # of the dense H: two different eigenbases, the same certified u
    alpha = 1e-2
    for A, y, upper, T, psi in _least_squares_batch(5):
        n = A.shape[1]
        _, sigma, Wt = np.linalg.svd(A)
        s2 = np.zeros(n)
        s2[:sigma.size] = sigma**2
        g = -2 * A.T @ y
        V = Wt.T
        H = 2 * (A.T @ A + alpha * np.eye(n))
        by_eigh = solve_dense(H, g, upper, T, psi, 1e-10, 1.0)
        by_svd = solve_dense(H, g, upper, T, psi, 1e-10, 1.0,
                             eig=(2 * (s2 + alpha), V))
        assert np.max(np.abs(by_svd.u - by_eigh.u)) <= 1e-8
        assert max(by_svd.stationarity, by_svd.primal,
                   by_svd.complementarity) <= 1e-10


def test_infeasible_state_rows_raise():
    # sum(u) <= -1 impossible for u >= 0
    H = 2 * np.eye(3)
    g = np.zeros(3)
    T = np.ones((1, 3))
    psi = np.array([-1.0])
    with pytest.raises(Infeasible, match="depends on the active rows"):
        solve_dense(H, g, np.ones(3), T, psi, 1e-8, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_nonpositive_tol_rejected(tol):
    # no certificate meets tol <= 0: the pass would end in NonConvergence;
    # an infinite tol would certify any point
    with pytest.raises(InvalidInput, match="tol must be positive"):
        solve_dense(2 * np.eye(2), -np.ones(2), np.ones(2), None, None, tol,
                    1.0)


def test_nan_gradient_rejected():
    # NaN data would reach the engine's row choice and drops unchecked
    g = np.array([-1.0, np.nan, -1.0])
    with pytest.raises(InvalidInput, match="not finite"):
        solve_dense(2 * np.eye(3), g, np.ones(3), np.ones((1, 3)),
                    np.ones(1), 1e-10, 1.0)


def test_kkt_certificates_reported():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    H = A @ A.T + np.eye(6)
    g = rng.standard_normal(6)
    T = rng.standard_normal((2, 6))
    psi = np.abs(rng.standard_normal(2)) + 0.1
    res = solve_dense(H, g, np.ones(6), T, psi, 1e-9, 1.0)
    assert isinstance(res, QPResult)
    assert res.stationarity <= 1e-9
    assert res.primal <= 1e-9
    assert res.complementarity <= 1e-9
    # multipliers are dual feasible by construction
    assert np.all(res.mu_lower >= 0) and np.all(res.mu_upper >= 0)
    assert np.all(res.eta >= 0)


def test_wfac_scales_stationarity_norm():
    H = 2 * np.eye(2)
    g = -2 * np.ones(2)
    res = solve_dense(H, g, np.full(2, 2.0), None, None,
                      1e-12, 0.1)
    assert np.allclose(res.u, 1.0, atol=1e-10)


def test_warm_start_accepted():
    H = 2 * np.eye(3)
    g = -2 * np.array([0.3, 0.6, 0.9])
    res = solve_dense(H, g, np.ones(3), None, None,
                      1e-10, 1.0)
    assert np.allclose(res.u, [0.3, 0.6, 0.9], atol=1e-10)
    assert res.iterations <= 5


def test_iterations_count_active_set_changes():
    # both lower bounds are violated at the unconstrained minimizer
    # (-1, -1), so a cold solve starts with both and makes no change
    H = 2 * np.eye(2)
    g = 2 * np.ones(2)
    res = solve_dense(H, g, np.ones(2), None, None,
                      1e-10, 1.0)
    assert np.allclose(res.u, 0.0, atol=1e-15)
    assert res.iterations == 0 and res.start_drops == 0
    # at the unconstrained minimizer (-1, 0.2) only node 0's lower bound is
    # violated; with u_0 = 0 the minimizer moves to u_1 = -0.3, so the main
    # loop adds node 1's lower bound: one change, with both multipliers > 0
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    g = np.array([1.8, 0.6])
    res = solve_dense(H, g, np.ones(2), None, None, 1e-10, 1.0)
    assert np.allclose(res.u, 0.0, atol=1e-15)
    assert np.allclose(res.mu_lower, g, atol=1e-12)
    assert res.iterations == 1 and res.start_drops == 0


def _stale_starts(n, upper, m):
    """Starts of row ids (i: lower bound of node i, n + i: its upper bound,
    2n + j: state row j) naming rows that do not exist or depend on each
    other."""
    up = n + np.flatnonzero(np.isfinite(upper))
    state = 2 * n + np.arange(m)
    return {
        # node 0 has upper = 0: its lower and upper rows are +-e_0
        "dependent": np.array([0, 1, n]),
        "out_of_range": np.array([-1, -n - 2, 2, 2 * n + m, 2 * n + m + 4]),
        # the upper ids of nodes with b = inf name no row
        "every_id": np.arange(2 * n + m + 3),
        "every_id_reversed": np.arange(2 * n + m + 3)[::-1],
        "upper_and_state_ids": np.arange(n, 2 * n + m),
        "duplicates": np.array([1, 1, n, n, 2 * n, 2 * n]),
        # the repeat of row 2 ends the factored prefix before the rest
        "repeat_then_more": np.concatenate([[1, 2, 2, 3, 4], up[1:3], state]),
    }


def test_stale_starts_certify_and_match_cold():
    # any start gives the cold minimizer; the cold solve's own final set
    # restarts with no active-set change
    alpha = 1e-2
    for A, y, upper, T, psi in _least_squares_batch(9, count=40):
        n = A.shape[1]
        upper = upper.copy()
        upper[0] = 0.0
        H, g = 2 * (A.T @ A + alpha * np.eye(n)), -2 * A.T @ y
        cold = solve_dense(H, g, upper, T, psi, 1e-10, 1.0)
        m = 0 if T is None else T.shape[0]
        starts = _stale_starts(n, upper, m)
        starts["own"] = cold.active
        for name, start in starts.items():
            warm = solve_dense(H, g, upper, T, psi, 1e-10, 1.0, start)
            assert max(warm.stationarity, warm.primal,
                       warm.complementarity) <= 1e-10, name
            assert np.max(np.abs(warm.u - cold.u)) <= 1e-8, name
            assert np.array_equal(warm.active, cold.active), name
        assert warm.iterations == 0


def _grow_and_drop(W, rng):
    """Factor columns 0 and 1 of W by the constructor, add columns 2..6,
    then drop one and add one six times, checking the factorization after
    each change."""
    n = W.shape[0]
    f, cols = qp._ThinQR(W[:, :2].T), [0, 1]

    def add(j):
        y, z, _ = qp._split(f.Q, W[:, j])
        f.add(f.P @ y, z, np.linalg.norm(z))
        cols.append(j)

    def check():
        Q, P = f.Q, f.P
        assert Q.base is f._M and P.base is f._M
        assert np.allclose(Q.T @ Q, np.eye(len(cols)), atol=1e-12)
        assert np.allclose(W[:, cols] @ P, Q, atol=1e-12)

    check()
    for j in range(2, 7):  # capacity 8, as for any start of <= 8 rows
        add(j)
    check()
    assert np.array_equal(np.tril(f.P, -1), np.zeros((7, 7)))
    assert f._M.shape == (n + 8, 8)
    buf = f._M
    for k, j in ((0, 7), (4, 8), (6, 9), (2, 10), (1, 0), (1, 5)):
        w = rng.standard_normal(n)
        y, z, _ = qp._split(f.Q, w)
        r = f.P @ y
        first = np.flatnonzero(f.P[k])[0]
        Q0, P0 = f.Q[:, :first].copy(), np.delete(f.P[:, :first], k, axis=0)
        qe, pe = f.drop(k)
        del cols[k]
        check()
        assert np.array_equal(f.Q[:, :first], Q0)
        assert np.array_equal(f.P[:, :first], P0)
        g = qe @ w
        z, r = z + g * qe, np.delete(r - g * pe, k)
        y, z_new, _ = qp._split(f.Q, w)
        assert np.allclose(z, z_new, atol=1e-12)
        assert np.allclose(r, f.P @ y, atol=1e-12)
        add(j)
        check()
    assert f._M is buf


def test_thin_qr_grows_and_drops_in_place():
    # W P = Q with orthonormal Q stays true of the kept columns W, held in
    # the leading blocks of one buffer, through growth, drops and adds
    # after drops; P is upper triangular until the first drop, a drop
    # changes no column left of the first nonzero of P's row k, and it
    # returns the direction that left, which turns the split of a vector w
    # against all columns into its split against the columns left.
    # Orthogonal columns (bound rows of H = 2I) make P diagonal, so a row
    # after k can be nonzero left of row k's first nonzero
    rng = np.random.default_rng(5)
    _grow_and_drop(rng.standard_normal((12, 11)), rng)
    _grow_and_drop(np.eye(12)[:, :11] * rng.uniform(0.5, 2.0, 11), rng)


def test_thin_qr_holds_through_many_adds_and_drops():
    # no drift: 2,000 random adds and drops at n = 64, from an empty
    # factorization, keep Q orthonormal and W P = Q to 1e-10 while the
    # buffer doubles from 8 columns to n
    rng = np.random.default_rng(8)
    n = 64
    pool = rng.standard_normal((n, 2000))
    f, cols = qp._ThinQR(np.empty((0, n))), []
    assert f.q == 0 and f._M.shape == (n + 8, 8)
    for j in range(pool.shape[1]):
        if f.q < 8 or (f.q < n - 8 and rng.random() < 0.5):
            y, z, _ = qp._split(f.Q, pool[:, j])
            f.add(f.P @ y, z, np.linalg.norm(z))
            cols.append(j)
        else:
            k = int(rng.integers(f.q))
            f.drop(k)
            del cols[k]
    Q, P = f.Q, f.P
    assert f.q >= 8 and f._M.shape == (2 * n, n)
    assert np.max(np.abs(Q.T @ Q - np.eye(f.q))) <= 1e-10
    assert np.max(np.abs(Q - pool[:, cols] @ P)) <= 1e-10


PREFIX_CASES = [(12, 9, 5), (12, 16, 5), (12, 4, 4), (4, 9, 4), (6, 0, 0)]


def _prefix_rows(n, rows):
    """rows random rows of length n, row 5 dependent on rows 0 and 2."""
    rng = np.random.default_rng(n + rows)
    W = rng.standard_normal((rows, n))
    if rows > 5:
        W[5] = 2.0 * W[0] - W[2]
    return W


@pytest.mark.parametrize("n, rows, m", PREFIX_CASES)
def test_thin_qr_factor_keeps_the_independent_prefix(n, rows, m):
    # the start's P takes the rows before the first that depends on the
    # rows before it, at most n: row 5 depends on rows 0 and 2, and beyond
    # n rows every row depends on the first n. The thin QR constructed
    # from those m rows has W P = Q, Q orthonormal and P upper triangular
    W = _prefix_rows(n, rows)
    assert qp._start_p(W).shape == (m, m)
    f = qp._ThinQR(W[:m])
    assert f.q == m
    Q, P = f.Q, f.P
    assert np.allclose(Q.T @ Q, np.eye(m), atol=1e-12)
    assert np.allclose(W[:m].T @ P, Q, atol=1e-12)
    assert np.array_equal(np.tril(P, -1), np.zeros_like(P))


@pytest.mark.parametrize("n, rows, m", PREFIX_CASES)
def test_thin_qr_without_q_keeps_the_prefix_through_drops(n, rows, m):
    # the start's P = R^-1, formed with no Q, takes the same prefix: P is
    # upper triangular and P P^T is (W W^T)^-1, the K of the start's dual.
    # The rows a start keeps when its dual drops others then make a thin
    # QR, with Q, that holds every one of them
    W = _prefix_rows(n, rows)
    P = qp._start_p(W)
    assert P.shape == (m, m)
    assert np.array_equal(np.tril(P, -1), np.zeros((m, m)))
    if m:
        K = np.linalg.inv(W[:m] @ W[:m].T)
        assert np.linalg.norm(P @ P.T - K) <= 1e-10 * np.linalg.norm(K)
    keep = [j for j in range(m) if j not in (0, m // 2)]
    g = qp._ThinQR(W[keep])
    assert g.q == len(keep)
    assert np.allclose(g.Q.T @ g.Q, np.eye(len(keep)), atol=1e-12)
    assert np.allclose(W[keep].T @ g.P, g.Q, atol=1e-12)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 300])
@pytest.mark.parametrize("spread", [0.0, 12.0])
def test_blocked_triangular_inverse(m, spread):
    # R of the QR of m random rows scaled by 10^U(-spread/2, spread/2), so
    # that its diagonal spans up to 12 decades: the recursive blocked
    # inverse is exactly upper triangular and as accurate as np.linalg.inv,
    # on both sides of the 64-row leaf size and across one split
    rng = np.random.default_rng(m)
    W = rng.standard_normal((m, m + 5)) \
        * 10.0 ** rng.uniform(-spread / 2, spread / 2, (m, 1))
    R = np.linalg.qr(W.T, mode="r")
    P = np.empty((m, m), order="F")
    qp._triu_inv(R, P)
    assert np.array_equal(np.tril(P, -1), np.zeros((m, m)))
    eye = np.eye(m)
    assert np.linalg.norm(P @ R - eye) \
        <= 4 * np.linalg.norm(np.linalg.inv(R) @ R - eye)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9])
def test_split_leaves_z_orthogonal_to_q(scale):
    # w = Q a + scale e with e orthogonal to Q: one Gram-Schmidt pass
    # leaves |Q^T z| ~ eps |w|, far above ORTH_TOL |z| when |z| << |w|;
    # the correcting pass brings it under the bound
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((64, 40)))
    e = rng.standard_normal(64)
    e -= Q @ (Q.T @ e)
    e -= Q @ (Q.T @ e)
    w = Q @ rng.standard_normal(40) + scale * e / np.linalg.norm(e)
    y, z, zz = qp._split(Q, w)
    assert zz == z @ z
    assert np.max(np.abs(Q.T @ z)) <= qp.ORTH_TOL * np.sqrt(zz)
    assert np.allclose(Q @ y + z, w, rtol=0.0, atol=1e-14)


def test_split_keeps_q_orthonormal_over_correlated_adds():
    # the lower-bound rows L^{-1} a of all 300 nodes of a Gaussian Fredholm
    # operator at alpha = 1e-6, added in node order: neighbouring rows are
    # nearly parallel, so each new column's error is carried into the
    # next. A second pass skipped whenever |z| >= |w|/sqrt(2) (the
    # Daniel-Gragg-Kaufman-Stewart test) lets max |Q^T Q - I| grow to
    # about 2e-4 here; the test on |Q^T z| itself keeps it at round-off
    op = assemble_fredholm(DomainGrid(1, 300), KernelSpec("gaussian", width=0.1))
    W = -op.V / np.sqrt(2.0 * (op.s**2 + 1e-6))
    f = qp._ThinQR(np.empty((0, 300)))
    for w in W:
        y, z, zz = qp._split(f.Q, w)
        assert np.sqrt(zz) > qp.DEPENDENT_TOL * np.linalg.norm(w)
        f.add(f.P @ y, z, np.sqrt(zz))
    assert np.max(np.abs(f.Q.T @ f.Q - np.eye(300))) <= 1e-13
