"""Box- and inequality-constrained convex QP engine.

Solves  min 0.5 u^T H u + g^T u  s.t.  0 <= u <= upper,  T u <= psi
by the dual active-set method of Goldfarb and Idnani (Math. Programming 27
(1983) 1-33). The lower bounds, the finite upper bounds and the rows of T
form one set of rows a_i^T u <= c_i. Starting at the unconstrained
minimizer, the method adds the most violated row and drops an active row
whenever its multiplier would turn negative, so the multipliers stay dual
feasible and the active rows stay linearly independent. It ends after
finitely many active-set changes at the exact minimizer, or proves the
problem infeasible when a violated row depends on the active rows and no
active multiplier can shrink.

H is given by its eigendecomposition H = V diag(d) V^T with V square
orthonormal, which the callers know in closed form, and g and the state
rows by their coefficients in that basis: g = V gx and T = B V^T. The
iterate is kept as x = V^T u. L = V diag(sqrt d), H = L L^T, takes the
place of a Cholesky factor, so a row a with b = V^T a has
L^{-1} a = d^{-1/2} * b, where b is -V[i] or V[i] for a bound and a row of
B for a state row: an entering row costs O(n). The active rows enter
through W = L^{-1} A_active, kept as a thin QR factorization W = Q R that
is extended or downdated by one column per change.

An H whose smallest eigenvalue is <= eps * its largest (positive
semidefinite only, to round-off), or a result that misses the KKT
certificate, is handled by proximal-point steps (Rockafellar, SIAM J.
Control Optim. 14 (1976) 877): each step
u_{k+1} = argmin f(u) + delta/2 ||u - u_k||^2 over the same constraints is
one dual active-set solve with H + delta I, i.e. iterated Tikhonov
regularization, and a step is accepted only through the certificate on H.

The weighted L2 structure of the grid cancels out of the optimality
system for uniform quadrature weights; norms reported to callers are
rescaled by sqrt(h^d) via the `wfac` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .errors import InfeasibleProblem, NonConvergence

DEPENDENT_TOL = 1e-10   # |projection of L^{-1} a off the active rows| / |L^{-1} a|
PROX_SCALE = 1e-6       # proximal weight delta = PROX_SCALE * max(diag H)
MAX_PROX_STEPS = 200


@dataclass
class QPResult:
    u: np.ndarray
    mu_lower: np.ndarray
    mu_upper: np.ndarray
    eta: np.ndarray
    iterations: int          # active-set changes, summed over proximal steps
    stationarity: float
    primal: float
    complementarity: float


def _kkt_residuals(V, d, gx, upper, B, psi, u, eta, wfac):
    """Multiplier split and residual norms for the original problem."""
    x = V.T @ u
    r = V @ (d * x + gx + B.T @ eta)
    finite_up = np.isfinite(upper)
    mu_lower = np.maximum(r, 0.0)
    mu_upper = np.where(finite_up, np.maximum(-r, 0.0), 0.0)
    stat_vec = r - mu_lower + mu_upper  # nonzero only where b = inf and r < 0
    stationarity = wfac * np.linalg.norm(stat_vec)
    comp = float(np.max(np.abs(mu_lower * u))) if u.size else 0.0
    if finite_up.any():
        comp = max(comp, float(np.max(np.abs(
            mu_upper[finite_up] * (upper[finite_up] - u[finite_up])))))
    gap = B @ x - psi
    primal = float(np.max(gap, initial=0.0))
    comp = max(comp, float(np.max(np.abs(eta * gap), initial=0.0)))
    return mu_lower, mu_upper, stationarity, primal, comp


def _dual_active_set(V, d, gx, upper, B, psi, feas_tol):
    """Goldfarb-Idnani iteration on H = V diag(d) V^T with every d > 0;
    returns (x, eta, active-set changes) with u = V x.

    Rows 0..n-1 are the lower bounds (-u_i <= 0), the next ones the
    finite upper bounds (u_i <= upper_i), the rest the state rows B V^T;
    `normal` gives b_i = V^T a_i. A row with violation a_i^T u - c_i <=
    feas_tol counts as satisfied. Raises InfeasibleProblem when the
    constraints admit no point. After 10 changes per row the current
    (dual-feasible, possibly primal-infeasible) iterate is returned.
    """
    n = d.size
    up = np.flatnonzero(np.isfinite(upper))
    nb = n + up.size
    c = np.concatenate([np.zeros(n), upper[up], psi])

    def normal(i):
        if i >= nb:
            return B[i - nb]
        return -V[i] if i < n else V[up[i - n]]

    rsd = 1.0 / np.sqrt(d)      # L^{-1} a = rsd * (V^T a)
    x = -gx / d
    # raw LAPACK solve with the small triangular R: solve_triangular's
    # argument checks cost more than the solve itself, once per change
    trtrs = sla.get_lapack_funcs("trtrs", (V,))
    active = []                  # row ids in the column order of Q R
    mult = np.zeros(0)           # their multipliers, kept >= 0
    Q, R = np.zeros((n, 0)), np.zeros((0, 0))
    changes, p = 0, -1
    while changes < 10 * (c.size + 1):
        if p < 0:  # pick the most violated row
            u = V @ x
            slack = np.concatenate([-u, u[up], B @ x]) - c
            slack[active] = -np.inf
            p = int(np.argmax(slack))
            if slack[p] <= feas_tol:
                break
            b = normal(p)
            w = rsd * b
            mult_p = 0.0
        # split w = Q y + z with z orthogonal to the active columns; the
        # primal step is -L^{-T} z, i.e. -rsd * z in x, and the active
        # multipliers move by -r
        y = Q.T @ w
        z = w - Q @ y
        y2 = Q.T @ z              # second Gram-Schmidt pass
        z -= Q @ y2
        y += y2
        r = trtrs(R, y)[0] if y.size else y
        zz = z @ z
        full = np.inf             # step length that makes row p active
        if np.sqrt(zz) > DEPENDENT_TOL * np.linalg.norm(w):
            full = (b @ x - c[p]) / zz
        shrink = np.flatnonzero(r > 0.0)  # step length that zeroes mult[k]
        partial, k = np.inf, -1
        if shrink.size:
            ratios = mult[shrink] / r[shrink]
            k = int(shrink[np.argmin(ratios)])
            partial = float(ratios.min())
        step = min(full, partial)
        if step == np.inf:
            raise InfeasibleProblem(
                f"constraints infeasible: a row violated by {b @ x - c[p]:.3e} "
                "depends on the active rows")
        if full < np.inf:
            x = x - step * (rsd * z)
        mult = np.maximum(mult - step * r, 0.0)
        mult_p += step
        changes += 1
        if full <= partial:  # row p becomes active
            q = y.size
            Q = np.column_stack([Q, z / np.sqrt(zz)])
            R_new = np.zeros((q + 1, q + 1))
            R_new[:q, :q] = R
            R_new[:q, q] = y
            R_new[q, q] = np.sqrt(zz)
            R = R_new
            active.append(p)
            mult = np.append(mult, mult_p)
            p = -1
        else:                # row k leaves; p is tried again
            Q, R = sla.qr_delete(Q, R, k, which="col", check_finite=False)
            Q, R = Q[:, :len(active) - 1], R[:len(active) - 1]  # thin factors
            del active[k]
            mult = np.delete(mult, k)
    eta = np.zeros(B.shape[0])
    for i, m in zip(active, mult):
        if i >= nb:
            eta[i - nb] = m
    return x, eta, changes


def _certified(V, d, gx, upper, B, psi, tol, wfac, x, eta, changes):
    """QPResult for u = V x and eta when their KKT residuals on the original
    problem are all <= tol, else None."""
    u = V @ x
    mu_lo, mu_up, stat, primal, comp = _kkt_residuals(
        V, d, gx, upper, B, psi, u, eta, wfac)
    if max(stat, primal, comp) <= tol:
        return QPResult(u, mu_lo, mu_up, eta, changes, stat, primal, comp)
    return None


def solve_box_state_qp(H, gx: np.ndarray, upper: np.ndarray,
                       B: Optional[np.ndarray], psi: Optional[np.ndarray],
                       tol: float, wfac: float) -> QPResult:
    """Solve the QP with certified KKT residuals <= tol.

    H is the pair (V, d) with H = V diag(d) V^T and V square orthonormal.
    The gradient at 0 and the state rows are given in that basis: g = V gx
    and T = B V^T. Raises InfeasibleProblem when no box point satisfies
    T u <= psi and NonConvergence when MAX_PROX_STEPS proximal steps miss
    the certificate.
    """
    V, d = H
    if B is None:
        B, psi = np.zeros((0, d.size)), np.zeros(0)
    feas_tol = 0.1 * tol
    x, changes = np.zeros(d.size), 0   # first proximal center
    if np.min(d) > np.finfo(float).eps * np.max(d):  # definite to round-off
        x, eta, changes = _dual_active_set(V, d, gx, upper, B, psi, feas_tol)
        res = _certified(V, d, gx, upper, B, psi, tol, wfac, x, eta, changes)
        if res is not None:
            return res
    delta = PROX_SCALE * (float(np.max((V**2) @ d, initial=0.0)) or 1.0)
    for _ in range(MAX_PROX_STEPS):
        x, eta, k = _dual_active_set(V, d + delta, gx - delta * x, upper, B,
                                     psi, feas_tol)
        changes += k
        res = _certified(V, d, gx, upper, B, psi, tol, wfac, x, eta, changes)
        if res is not None:
            return res
    raise NonConvergence(f"no KKT certificate after {MAX_PROX_STEPS} proximal "
                         f"steps ({changes} active-set changes)")
