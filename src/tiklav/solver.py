"""Solver for the regularized problem min ||Su - y_d||^2 + alpha||u||^2
over the admissible set, plus the enumeration oracle and the constrained
pseudo-inverse."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .admissible import (ACTIVE_TOL, AdmissibleSet, project_admissible)
from .errors import (AlphaNonPositive, DimensionMismatch, NoFeasiblePattern,
                     OracleTooLarge)
from .grid import GridFunction, wnorm
from .operators import AssembledOperator, apply
from . import qp

ORACLE_CAP = 10


@dataclass(frozen=True)
class RegularizedProblem:
    op: AssembledOperator
    y_d: GridFunction
    aset: AdmissibleSet
    alpha: float

    def __post_init__(self):
        if self.y_d.grid != self.op.grid or self.aset.op.grid != self.op.grid:
            raise DimensionMismatch("problem grids differ")

    def objective(self, u_values: np.ndarray) -> float:
        """Weighted objective ||Su - y_d||^2 + alpha ||u||^2."""
        r = self.op.apply_values(u_values) - self.y_d.values
        w = self.op.grid.weight
        return float(w * (r @ r) + self.alpha * w * (u_values @ u_values))


@dataclass
class Solution:
    u: GridFunction
    y: GridFunction
    objective: float
    mu_lower: np.ndarray
    mu_upper: np.ndarray
    eta: np.ndarray               # one entry per finite-psi region row
    active_lower: np.ndarray      # node indices with margin < ACTIVE_TOL
    active_upper: np.ndarray
    active_state: np.ndarray      # positions into the region index list
    iterations: int               # QP active-set changes (adds plus drops), or
                                  # inner iterations when `fallback` is set
    kkt_stationarity: float
    kkt_primal: float
    kkt_complementarity: float
    fallback: bool = False        # the QP engine's augmented-Lagrangian fallback ran


def _classify_active(u_values, aset: AdmissibleSet, eps: float = ACTIVE_TOL):
    lo = np.nonzero(u_values < eps)[0]
    finite = np.isfinite(aset.box.upper)
    up = np.nonzero(finite & (aset.box.upper - u_values < eps))[0]
    margins = aset.state.psi - aset.state_values(u_values)
    st = np.nonzero(np.isfinite(aset.state.psi) & (margins < eps))[0]
    return lo, up, st


def _build_quadratic(problem: RegularizedProblem):
    S = problem.op.matrix
    H = 2.0 * problem.op.gram + 2.0 * problem.alpha * np.eye(S.shape[0])
    g = -2.0 * (problem.op.adjoint_matrix @ problem.y_d.values)
    return H, g


def solve_unconstrained(op: AssembledOperator, y_d: GridFunction,
                        alpha: float) -> GridFunction:
    """Dense symmetric solve of (S*S + alpha I) u = S* y_d."""
    if alpha <= 0:
        raise AlphaNonPositive(f"alpha must be positive, got {alpha}")
    A = op.gram + alpha * np.eye(op.grid.num_nodes)
    rhs = op.adjoint_matrix @ y_d.values
    c, low = sla.cho_factor(A)
    u = sla.cho_solve((c, low), rhs)
    return GridFunction(op.grid, u)


def solve(problem: RegularizedProblem, tol: float = 1e-8,
          u0: Optional[GridFunction] = None) -> Solution:
    """Minimize over the admissible set with certified KKT residuals <= tol."""
    if problem.alpha <= 0:
        raise AlphaNonPositive(f"alpha must be positive, got {problem.alpha}")
    aset = problem.aset
    H, g = _build_quadratic(problem)
    T, psi = aset.constraint_matrix()
    wfac = np.sqrt(problem.op.grid.weight)
    start = None if u0 is None else np.clip(u0.values, 0.0, aset.box.upper)
    res = qp.solve_box_state_qp(H, g, np.zeros(H.shape[0]), aset.box.upper,
                                T, psi, tol, wfac, u0=start, rho0=problem.alpha)
    u = GridFunction(problem.op.grid, res.u)
    lo, up, st = _classify_active(res.u, aset)
    return Solution(
        u=u, y=apply(problem.op, u), objective=problem.objective(res.u),
        mu_lower=res.mu_lower, mu_upper=res.mu_upper, eta=res.eta,
        active_lower=lo, active_upper=up, active_state=st,
        iterations=res.iterations, kkt_stationarity=res.stationarity,
        kkt_primal=res.primal, kkt_complementarity=res.complementarity,
        fallback=res.fallback)


def projection_formula_residual(sol: Solution, problem: RegularizedProblem,
                                tol: float = 1e-8) -> float:
    """|| u - P_set( -S*(Su - y_d)/alpha ) || in the weighted norm."""
    v = -problem.op.apply_adjoint_values(sol.y.values - problem.y_d.values) \
        / problem.alpha
    p = project_admissible(GridFunction(problem.op.grid, v), problem.aset,
                          tol=0.1 * tol)
    return wnorm(problem.op.grid, sol.u.values - p.values)


@dataclass
class PseudoInverseResult:
    u: GridFunction
    residual_norm: float
    norm: float


def pseudo_inverse(op: AssembledOperator, y_d: GridFunction,
                   aset: AdmissibleSet, tol: float = 1e-8) -> PseudoInverseResult:
    """Constrained pseudo-inverse: minimal-norm minimizer of the residual.

    Stage (i) minimizes ||Su - y_d||^2 over the set; stage (ii) follows the
    Tikhonov path with decreasing alpha, which satisfies the relaxed
    constraint ||Su - y_d||^2 <= m* + tol while never exceeding the norm of
    the true minimal-norm minimizer.
    """
    H = 2.0 * op.gram
    g = -2.0 * (op.adjoint_matrix @ y_d.values)
    T, psi = aset.constraint_matrix()
    wfac = np.sqrt(op.grid.weight)
    n = op.grid.num_nodes
    res = qp.solve_box_state_qp(H, g, np.zeros(n), aset.box.upper, T, psi,
                                tol, wfac, u0=np.zeros(n), rho0=1.0)
    w = op.grid.weight
    r = op.apply_values(res.u) - y_d.values
    m_star = float(w * (r @ r))

    u = GridFunction(op.grid, res.u)
    prev = None
    alpha = 1e-2
    while alpha >= 1e-12:
        prob = RegularizedProblem(op, y_d, aset, alpha)
        u = solve(prob, tol=tol, u0=u).u
        rr = op.apply_values(u.values) - y_d.values
        res2 = float(w * (rr @ rr))
        if res2 <= m_star + 0.5 * tol:
            if prev is not None and wnorm(op.grid, u.values - prev.values) <= tol:
                break
            prev = u
        alpha *= 0.1
    rr = op.apply_values(u.values) - y_d.values
    return PseudoInverseResult(u, wnorm(op.grid, rr), u.norm())


def oracle_solve(problem: RegularizedProblem, tol: float = 1e-8) -> Solution:
    """Ground-truth solve by exhaustive enumeration of activity patterns.

    Each node is lower-active, upper-active (finite b only) or free; each
    finite-psi region row is active or inactive. The unique pattern whose
    equality-constrained KKT system gives a primal/dual feasible point wins.
    """
    n = problem.op.grid.num_nodes
    if n > ORACLE_CAP:
        raise OracleTooLarge(f"{n} nodes exceeds the oracle cap {ORACLE_CAP}")
    if problem.alpha <= 0:
        raise AlphaNonPositive(f"alpha must be positive, got {problem.alpha}")
    aset = problem.aset
    H, g = _build_quadratic(problem)
    T, psi = aset.constraint_matrix()
    m = 0 if T is None else T.shape[0]
    b = aset.box.upper
    node_states = [(0, 1, 2) if np.isfinite(b[i]) else (0, 1) for i in range(n)]

    patterns = itertools.product(
        itertools.product(*node_states),
        itertools.product((0, 1), repeat=m),
    )
    feas_tol = max(tol, 1e-9)
    for box_pat, st_pat in patterns:
        Lidx = [i for i, s in enumerate(box_pat) if s == 1]
        Uidx = [i for i, s in enumerate(box_pat) if s == 2]
        Aidx = [j for j, s in enumerate(st_pat) if s == 1]
        k = len(Lidx) + len(Uidx) + len(Aidx)
        K = np.zeros((n + k, n + k))
        rhs = np.zeros(n + k)
        K[:n, :n] = H
        rhs[:n] = -g
        col = n
        for i in Lidx:
            K[i, col] = -1.0
            K[n + (col - n), i] = 1.0
            rhs[n + (col - n)] = 0.0
            col += 1
        for i in Uidx:
            K[i, col] = 1.0
            K[n + (col - n), i] = 1.0
            rhs[n + (col - n)] = b[i]
            col += 1
        for j in Aidx:
            K[:n, col] += T[j]
            K[n + (col - n), :n] = T[j]
            rhs[n + (col - n)] = psi[j]
            col += 1
        try:
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            if np.linalg.norm(K @ sol - rhs) > 1e-8 * (1 + np.linalg.norm(rhs)):
                continue
        u = sol[:n]
        mults = sol[n:]
        if mults.size and np.min(mults) < -feas_tol:
            continue
        if np.min(u) < -feas_tol:
            continue
        finite = np.isfinite(b)
        if finite.any() and np.min(b[finite] - u[finite]) < -feas_tol:
            continue
        if m and np.max(T @ u - psi) > feas_tol:
            continue
        mu_lower = np.zeros(n)
        mu_upper = np.zeros(n)
        eta = np.zeros(m)
        pos = 0
        for i in Lidx:
            mu_lower[i] = mults[pos]
            pos += 1
        for i in Uidx:
            mu_upper[i] = mults[pos]
            pos += 1
        for j in Aidx:
            eta[j] = mults[pos]
            pos += 1
        uf = GridFunction(problem.op.grid, u)
        lo, up, st = _classify_active(u, aset)
        r = H @ u + g + (T.T @ eta if m else 0.0)
        wfac = np.sqrt(problem.op.grid.weight)
        stat = wfac * np.linalg.norm(r - mu_lower + mu_upper)
        return Solution(
            u=uf, y=apply(problem.op, uf), objective=problem.objective(u),
            mu_lower=mu_lower, mu_upper=mu_upper, eta=eta,
            active_lower=lo, active_upper=up, active_state=st,
            iterations=0, kkt_stationarity=stat, kkt_primal=0.0,
            kkt_complementarity=0.0)
    raise NoFeasiblePattern("no activity pattern is primal/dual feasible")
