"""Box- and inequality-constrained convex QP engine.

Solves  min 0.5 u^T H u + g^T u  s.t.  lower <= u <= upper,  T u <= psi
by the dual active-set method of Goldfarb and Idnani (Math. Programming 27
(1983) 1-33). The lower bounds, the finite upper bounds and the rows of T
form one set of rows a_i^T u <= c_i. Starting at the unconstrained
minimizer, the method adds the most violated row and drops an active row
whenever its multiplier would turn negative, so the multipliers stay dual
feasible and the active rows stay linearly independent. It ends after
finitely many active-set changes at the exact minimizer, or proves the
problem infeasible when a violated row depends on the active rows and no
active multiplier can shrink.

The active rows enter through W = L^{-1} A_active, with H = L L^T, kept as a
thin QR factorization W = Q R that is extended or downdated by one column per
change; L^{-1} a_i is computed only for rows that enter.

An augmented-Lagrangian loop with accelerated projected-gradient (FISTA)
inner solves remains as a warm-started fallback for an H without a Cholesky
factor (positive semidefinite only) and for a result that misses the KKT
certificate; its results carry `fallback=True`.

The weighted L2 structure of the grid cancels out of the optimality
system for uniform quadrature weights; norms reported to callers are
rescaled by sqrt(h^d) via the `wfac` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .errors import InfeasibleProblem, NonConvergence

MAX_OUTER = 80
MAX_INNER = 200_000
RHO_MAX = 1e14
DEPENDENT_TOL = 1e-10   # |projection of L^{-1} a off the active rows| / |L^{-1} a|


@dataclass
class QPResult:
    u: np.ndarray
    mu_lower: np.ndarray
    mu_upper: np.ndarray
    eta: np.ndarray
    iterations: int          # active-set changes, or FISTA iterations on fallback
    stationarity: float
    primal: float
    complementarity: float
    fallback: bool = False   # produced by the augmented-Lagrangian fallback


def spectral_norm(M: np.ndarray, iters: int = 200, tol: float = 1e-12) -> float:
    """Largest singular value by power iteration on M^T M (deterministic start)."""
    n = M.shape[1]
    v = np.ones(n) + 1e-3 * np.cos(np.arange(n))
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(iters):
        w = M.T @ (M @ v)
        s_new = np.linalg.norm(w)
        if s_new == 0.0:
            return 0.0
        v = w / s_new
        if abs(s_new - s) <= tol * s_new:
            s = s_new
            break
        s = s_new
    return float(np.sqrt(s))


def sym_spectral_bound(H: np.ndarray, iters: int = 200, tol: float = 1e-12) -> float:
    """Largest eigenvalue magnitude of symmetric H by power iteration."""
    n = H.shape[0]
    v = np.ones(n) + 1e-3 * np.cos(np.arange(n))
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = H @ v
        lam_new = np.linalg.norm(w)
        if lam_new == 0.0:
            return 0.0
        v = w / lam_new
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return float(lam)


def _box_kkt_residual(u, gu, lower, upper, wfac) -> float:
    """Worst box-KKT defect for gradient gu at u: per-node complementarity
    plus the weighted stationarity leak at nodes without a finite bound."""
    comp = float(np.max(np.maximum(gu, 0.0) * (u - lower), initial=0.0))
    finite = np.isfinite(upper)
    if finite.any():
        comp = max(comp, float(np.max(
            np.maximum(-gu[finite], 0.0) * (upper[finite] - u[finite]))))
    if not finite.all():
        leak = wfac * np.linalg.norm(np.minimum(gu[~finite], 0.0))
        comp = max(comp, float(leak))
    return comp


def _apg_box(grad: Callable[[np.ndarray], np.ndarray], L: float,
             lower: np.ndarray, upper: np.ndarray, u0: np.ndarray,
             tol_pg: float, wfac: float, max_iter: int = MAX_INNER):
    """FISTA with gradient restart; stops when the box-KKT defect of the
    smooth objective drops below tol_pg."""
    u = np.clip(u0, lower, upper)
    z = u.copy()
    t = 1.0
    step = 1.0 / L
    for k in range(max_iter):
        gz = grad(z)
        u_new = np.clip(z - step * gz, lower, upper)
        gu = grad(u_new)
        if _box_kkt_residual(u_new, gu, lower, upper, wfac) <= tol_pg:
            return u_new, k + 1, True
        if gz @ (u_new - u) > 0:  # momentum points uphill: restart
            t = 1.0
            z = u_new.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = u_new + ((t - 1.0) / t_new) * (u_new - u)
            t = t_new
        u = u_new
    return u, max_iter, False


def _kkt_residuals(H, g, lower, upper, T, psi, u, eta, wfac):
    """Multiplier split and residual norms for the original problem."""
    r = H @ u + g
    if T is not None and T.shape[0]:
        r = r + T.T @ eta
    finite_up = np.isfinite(upper)
    mu_lower = np.maximum(r, 0.0)
    mu_upper = np.where(finite_up, np.maximum(-r, 0.0), 0.0)
    stat_vec = r - mu_lower + mu_upper  # nonzero only where b = inf and r < 0
    stationarity = wfac * np.linalg.norm(stat_vec)
    comp = float(np.max(np.abs(mu_lower * u))) if u.size else 0.0
    if finite_up.any():
        comp = max(comp, float(np.max(np.abs(
            mu_upper[finite_up] * (upper[finite_up] - u[finite_up])))))
    primal = 0.0
    if T is not None and T.shape[0]:
        gap = T @ u - psi
        primal = float(np.max(np.maximum(gap, 0.0), initial=0.0))
        comp = max(comp, float(np.max(np.abs(eta * gap), initial=0.0)))
    return mu_lower, mu_upper, stationarity, primal, comp


def _dual_active_set(H, g, lower, upper, T, psi, feas_tol):
    """Goldfarb-Idnani iteration; returns (u, eta, active-set changes).

    Rows 0..n-1 are the lower bounds (-u_i <= -lower_i), the next ones the
    finite upper bounds (u_i <= upper_i), the rest the rows of T. A row with
    violation a_i^T u - c_i <= feas_tol counts as satisfied. Raises
    LinAlgError when H has no Cholesky factor and InfeasibleProblem when the
    constraints admit no point. After 10 changes per row the current
    (dual-feasible, possibly primal-infeasible) iterate is returned.
    """
    n = H.shape[0]
    up = np.flatnonzero(np.isfinite(upper))
    nb = n + up.size
    if T is None:
        T, psi = np.zeros((0, n)), np.zeros(0)
    c = np.concatenate([-lower, upper[up], psi])

    def normal(i):
        if i >= nb:
            return T[i - nb]
        a = np.zeros(n)
        if i < n:
            a[i] = -1.0
        else:
            a[up[i - n]] = 1.0
        return a

    L, _ = sla.cho_factor(H, lower=True, check_finite=False)  # upper part unused
    u = sla.cho_solve((L, True), -g, check_finite=False)
    trtrs = sla.get_lapack_funcs("trtrs", (L,))  # triangular solve, no checks
    active = []                  # row ids in the column order of Q R
    mult = np.zeros(0)           # their multipliers, kept >= 0
    Q, R = np.zeros((n, 0)), np.zeros((0, 0))
    changes, p = 0, -1
    while changes < 10 * (c.size + 1):
        if p < 0:  # pick the most violated row
            slack = np.concatenate([-u, u[up], T @ u]) - c
            slack[active] = -np.inf
            p = int(np.argmax(slack))
            if slack[p] <= feas_tol:
                break
            a = normal(p)
            w = trtrs(L, a, lower=1)[0]
            mult_p = 0.0
        # split w = Q d + z with z orthogonal to the active columns; the
        # primal step is -L^{-T} z and the active multipliers move by -r
        d = Q.T @ w
        z = w - Q @ d
        d2 = Q.T @ z              # second Gram-Schmidt pass
        z -= Q @ d2
        d += d2
        r = trtrs(R, d)[0] if d.size else d
        zz = z @ z
        full = np.inf             # step length that makes row p active
        if np.sqrt(zz) > DEPENDENT_TOL * np.linalg.norm(w):
            full = (a @ u - c[p]) / zz
        shrink = np.flatnonzero(r > 0.0)  # step length that zeroes mult[k]
        partial, k = np.inf, -1
        if shrink.size:
            ratios = mult[shrink] / r[shrink]
            k = int(shrink[np.argmin(ratios)])
            partial = float(ratios.min())
        step = min(full, partial)
        if step == np.inf:
            raise InfeasibleProblem(
                f"constraints infeasible: a row violated by {a @ u - c[p]:.3e} "
                "depends on the active rows")
        if full < np.inf:
            u = u - step * trtrs(L, z, lower=1, trans=1)[0]
        mult = np.maximum(mult - step * r, 0.0)
        mult_p += step
        changes += 1
        if full <= partial:  # row p becomes active
            q = d.size
            Q = np.column_stack([Q, z / np.sqrt(zz)])
            R_new = np.zeros((q + 1, q + 1))
            R_new[:q, :q] = R
            R_new[:q, q] = d
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
    eta = np.zeros(T.shape[0])
    for i, m in zip(active, mult):
        if i >= nb:
            eta[i - nb] = m
    return u, eta, changes


def _phase1_violation(T, psi, lower, upper, wfac, tol):
    """Minimize 0.5||max(0, Tu - psi)||^2 over the box; return residual."""
    L = max(spectral_norm(T) ** 2, 1e-30)

    def grad(u):
        return T.T @ np.maximum(T @ u - psi, 0.0)

    u0 = np.clip(np.zeros(T.shape[1]), lower, upper)
    u, _, _ = _apg_box(grad, L, lower, upper, u0, tol * 1e-2, wfac)
    return float(np.max(np.maximum(T @ u - psi, 0.0), initial=0.0)), u


def _augmented_lagrangian(H, g, lower, upper, T, psi, tol, wfac, u0, rho0):
    """Outer augmented-Lagrangian loop on the rows of T with FISTA inner
    solves on the box; the fallback engine."""
    n = H.shape[0]
    u = np.clip(u0 if u0 is not None else np.zeros(n), lower, upper)
    has_state = T is not None and T.shape[0] > 0
    m = T.shape[0] if has_state else 0
    eta = np.zeros(m)
    rho = max(rho0, 1e-12)
    L_H = sym_spectral_bound(H)
    nT2 = spectral_norm(T) ** 2 if has_state else 0.0
    inner_tol = 0.1 * tol
    viol_prev = np.inf
    total_inner = 0

    for _ in range(MAX_OUTER):
        if has_state:
            def grad(v, T=T, psi=psi, eta=eta, rho=rho):
                return H @ v + g + T.T @ np.maximum(eta + rho * (T @ v - psi), 0.0)
        else:
            def grad(v):
                return H @ v + g
        L = 1.01 * (L_H + rho * nT2) + 1e-30
        u, it, inner_ok = _apg_box(grad, L, lower, upper, u, inner_tol, wfac)
        total_inner += it
        if has_state:
            gap = T @ u - psi
            viol = float(np.max(np.maximum(gap, 0.0), initial=0.0))
            eta_new = np.maximum(eta + rho * gap, 0.0)
        else:
            viol = 0.0
            eta_new = eta
        mu_lo, mu_up, stat, primal, comp = _kkt_residuals(
            H, g, lower, upper, T, psi, u, eta_new, wfac)
        if inner_ok and primal <= tol and stat <= tol and comp <= tol:
            return QPResult(u, mu_lo, mu_up, eta_new, total_inner, stat, primal,
                            comp, fallback=True)
        if has_state:
            # escalate the penalty only while infeasible and stalling; an
            # already-feasible iterate just needs more multiplier updates
            if viol > tol and viol > 0.25 * viol_prev:
                rho *= 10.0
            eta = eta_new
            viol_prev = viol
            if rho > RHO_MAX:
                best_viol, _ = _phase1_violation(T, psi, lower, upper, wfac, tol)
                if best_viol > tol:
                    raise InfeasibleProblem(
                        f"state constraints infeasible (min violation {best_viol:.3e})")
                raise NonConvergence("penalty exhausted without KKT certification")
    raise NonConvergence(f"no convergence after {MAX_OUTER} outer iterations "
                         f"({total_inner} inner)")


def solve_box_state_qp(H: np.ndarray, g: np.ndarray, lower: np.ndarray,
                       upper: np.ndarray, T: Optional[np.ndarray],
                       psi: Optional[np.ndarray], tol: float, wfac: float,
                       u0: Optional[np.ndarray] = None,
                       rho0: float = 1.0) -> QPResult:
    """Solve the QP with certified KKT residuals <= tol.

    The dual active-set method needs no starting point; `u0` and `rho0`
    seed only the augmented-Lagrangian fallback. Raises InfeasibleProblem
    when no box point satisfies Tu <= psi and NonConvergence when the
    fallback's iteration budget runs out.
    """
    try:
        u, eta, changes = _dual_active_set(H, g, lower, upper, T, psi, 0.1 * tol)
    except np.linalg.LinAlgError:  # H is not positive definite
        pass
    else:
        mu_lo, mu_up, stat, primal, comp = _kkt_residuals(
            H, g, lower, upper, T, psi, u, eta, wfac)
        if max(stat, primal, comp) <= tol:
            return QPResult(u, mu_lo, mu_up, eta, changes, stat, primal, comp)
        u0 = u
    return _augmented_lagrangian(H, g, lower, upper, T, psi, tol, wfac, u0, rho0)
