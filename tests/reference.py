"""Dense references for the tests, built without the operator's eigenbasis:
grid functions sampled from callables, the dense S of an operator and the
enumeration oracle. Nothing here reads an operator's V, s or applies, nor
the QP engine (a rule of test_imports.py), so a wrong sine table or eigh
cannot pass both."""

import itertools

import numpy as np

from tiklav import qp
from tiklav.errors import InvalidInput
from tiklav.grid import GridFunction
from tiklav.operators import assemble_fredholm, assemble_poisson
from tiklav.solver import _solution

ORACLE_CAP = 10


def from_callable(grid, f):
    """Sample f(x) (1D) or f(x, y) (2D) at the grid nodes."""
    c = grid.coords
    if grid.d == 1:
        vals = np.asarray([f(x) for x in c[:, 0]], dtype=float)
    else:
        vals = np.asarray([f(x, y) for x, y in c], dtype=float)
    return GridFunction(grid, vals)


def laplacian(grid):
    """The 3-point (1D) or 5-point (2D) Dirichlet Laplacian, dense."""
    n = grid.n
    A1 = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / grid.h**2
    if grid.d == 1:
        return A1
    return np.kron(A1, np.eye(n)) + np.kron(np.eye(n), A1)


def dense_operator(grid, kernel=None):
    """Dense S on grid: the inverse of the finite-difference Laplacian
    (kernel None, Poisson), or the quadrature matrix k(x_i, x_j) w_j of a
    `KernelSpec`."""
    if kernel is None:
        return np.linalg.inv(laplacian(grid))
    return kernel.evaluate(grid.coords, grid.coords) * grid.weight


def assemble(grid, kernel=None):
    """(op, S): the library's operator on grid and its dense reference."""
    op = assemble_poisson(grid) if kernel is None \
        else assemble_fredholm(grid, kernel)
    return op, dense_operator(grid, kernel)


def oracle_solve(problem, S, tol=1e-8):
    """Ground-truth solve of `problem`, whose operator is the dense S, by
    exhaustive enumeration of activity patterns.

    Each node is lower-active, upper-active (finite b only) or free; each
    finite-psi region row is active or inactive. The first pattern whose
    equality-constrained KKT system gives a primal/dual feasible point with
    recomputed stationarity <= max(tol, 1e-9) wins. Its u, S u, the
    slacks at u and its own certificate go through the Solution builder of
    `solve`.
    """
    n = problem.op.grid.num_nodes
    if n > ORACLE_CAP:
        raise InvalidInput(f"{n} nodes exceeds the oracle cap {ORACLE_CAP}")
    aset = problem.aset
    # a dense H and T of its own: the oracle shares no basis with `solve`
    H = 2.0 * (S.T @ S) + 2.0 * problem.alpha * np.eye(n)
    g = -2.0 * (S.T @ problem.y_d.values)
    finite = np.isfinite(aset.state.psi)
    idx = aset.state.region.indices[finite]
    T = S[idx]  # fancy indexing: a copy, safe to shift
    T[np.arange(idx.size), idx] += aset.shift
    b = aset.box.upper
    # every row a_i^T u <= c_i, with the ids of `qp`: i, n + i, 2n + j
    A_all = np.vstack([-np.eye(n), np.eye(n), T])
    c_all = np.concatenate([np.zeros(n), b, aset.state.psi[finite]])
    node_states = [(0, 1, 2) if np.isfinite(b[i]) else (0, 1) for i in range(n)]

    patterns = itertools.product(
        itertools.product(*node_states),
        itertools.product((0, 1), repeat=idx.size),
    )
    feas_tol = max(tol, 1e-9)
    for box_pat, st_pat in patterns:
        rows = ([i for i, s in enumerate(box_pat) if s == 1]
                + [n + i for i, s in enumerate(box_pat) if s == 2]
                + [2 * n + j for j, s in enumerate(st_pat) if s == 1])
        K = np.zeros((n + len(rows), n + len(rows)))
        K[:n, :n] = H
        K[n:, :n] = A_all[rows]
        K[:n, n:] = K[n:, :n].T
        rhs = np.concatenate([-g, c_all[rows]])
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            if np.linalg.norm(K @ sol - rhs) > 1e-8 * (1 + np.linalg.norm(rhs)):
                continue
        u = sol[:n]
        if sol[n:].min(initial=0.0) < -feas_tol \
                or (A_all @ u - c_all).max() > feas_tol:
            continue
        mults = np.zeros(c_all.size)
        mults[rows] = sol[n:]
        mu_lower, mu_upper, eta = np.split(mults, [n, 2 * n])
        r = H @ u + g + T.T @ eta
        wfac = np.sqrt(problem.op.grid.weight)
        stat = wfac * np.linalg.norm(r - mu_lower + mu_upper)
        if stat > feas_tol:  # a near-singular pattern's inexact solve
            continue
        su = S @ u
        return _solution(problem, qp.QPResult(
            u, eta, 0, 0, np.array(rows, dtype=np.intp)), su,
            aset.slack(u, su), (mu_lower, mu_upper, stat, 0.0, 0.0))
    raise AssertionError("no activity pattern is primal/dual feasible")
