"""Admissible sets: box bounds, Lavrentiev-shifted state constraints,
feasibility margins, Slater quantities and L2 projections."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, InfeasibleProblem, InfeasibleSet,
                     NotASlaterPoint)
from .grid import DomainGrid, GridFunction, ObservationRegion
from .operators import AssembledOperator
from . import qp

FEAS_TOL = 1e-9       # absolute feasibility tolerance on margins
ACTIVE_TOL = 1e-6     # margin threshold for "active" classification

PLUS = "plus"
MINUS = "minus"


@dataclass(frozen=True)
class BoxBounds:
    """Bounds 0 <= u <= b; entries of b may be +inf (bound absent)."""

    grid: DomainGrid
    upper: np.ndarray

    def __post_init__(self):
        up = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "upper", up)
        if up.shape != (self.grid.num_nodes,):
            raise DimensionMismatch("upper bound length does not match grid")
        if np.any(up < 0):
            raise ValueError("upper bound must be nonnegative")

    @classmethod
    def constant(cls, grid: DomainGrid, b: float):
        return cls(grid, np.full(grid.num_nodes, float(b)))


@dataclass(frozen=True)
class StateConstraint:
    """lam*u + Su <= psi (plus) or Su - lam*u <= psi (minus) on the region."""

    region: ObservationRegion
    psi: np.ndarray
    lam: float = 0.0
    sign: str = PLUS

    def __post_init__(self):
        p = np.asarray(self.psi, dtype=float)
        if p.ndim == 0:
            p = np.full(self.region.size, float(p))
        object.__setattr__(self, "psi", p)
        if p.shape != (self.region.size,):
            raise DimensionMismatch("psi length does not match region")
        if self.lam < 0:
            raise ValueError("lavrentiev parameter must be >= 0")
        if self.sign not in (PLUS, MINUS):
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")


@dataclass
class FeasibilityReport:
    margin_lower: float
    margin_upper: float
    margin_state: float
    feasible: bool
    tol: float = FEAS_TOL


@dataclass(frozen=True)
class AdmissibleSet:
    """Box + state constraint for a given operator; lam = 0 gives the
    unregularized set, lam > 0 its Lavrentiev variant."""

    box: BoxBounds
    state: StateConstraint
    op: AssembledOperator

    def __post_init__(self):
        if self.box.grid != self.op.grid or self.state.region.grid != self.op.grid:
            raise DimensionMismatch("box/region/operator grids differ")

    @property
    def lam(self) -> float:
        return self.state.lam

    @property
    def sign(self) -> str:
        return self.state.sign

    def with_lambda(self, lam: float, sign: Optional[str] = None) -> "AdmissibleSet":
        st = replace(self.state, lam=lam, sign=sign or self.state.sign)
        return AdmissibleSet(self.box, st, self.op)

    @property
    def shift(self) -> float:
        """The signed Lavrentiev shift: the state rows are S + shift I."""
        return self.lam if self.sign == PLUS else -self.lam

    def constraint_matrix(self):
        """(B, psi) for the region nodes with finite psi, or (None, None).
        B holds the state rows in the operator's eigenbasis: the rows of
        S + shift I are B V^T (`AssembledOperator.eigen_rows`)."""
        finite = np.isfinite(self.state.psi)
        if not finite.any():
            return None, None
        idx = self.state.region.indices[finite]
        return self.op.eigen_rows(idx, self.shift), self.state.psi[finite]

    def state_values(self, u_values: np.ndarray) -> np.ndarray:
        """lam*u + Su (or Su - lam*u) on the region nodes."""
        idx = self.state.region.indices
        su = self.op.apply_values(u_values)[idx]
        if self.lam == 0.0:
            return su
        return su + self.shift * u_values[idx]


def project_box(v: GridFunction, b: BoxBounds) -> GridFunction:
    if v.grid != b.grid:
        raise DimensionMismatch("grids differ")
    return GridFunction(v.grid, np.clip(v.values, 0.0, b.upper))


def feasibility(u: GridFunction, aset: AdmissibleSet,
                tol: float = FEAS_TOL) -> FeasibilityReport:
    if u.grid != aset.op.grid:
        raise DimensionMismatch("grids differ")
    m_lo = float(np.min(u.values))
    finite = np.isfinite(aset.box.upper)
    m_up = float(np.min(aset.box.upper[finite] - u.values[finite])) if finite.any() \
        else np.inf
    finite_psi = np.isfinite(aset.state.psi)
    if finite_psi.any():
        m_st = float(np.min((aset.state.psi - aset.state_values(u.values))[finite_psi]))
    else:
        m_st = np.inf
    ok = m_lo >= -tol and m_up >= -tol and m_st >= -tol
    return FeasibilityReport(m_lo, m_up, m_st, ok, tol)


def project_admissible(v: GridFunction, aset: AdmissibleSet,
                       tol: float = 1e-9) -> GridFunction:
    """L2-nearest point of the admissible set (identity-Hessian QP)."""
    if v.grid != aset.op.grid:
        raise DimensionMismatch("grids differ")
    B, psi = aset.constraint_matrix()
    V = aset.op.V  # 2I in the rows' basis
    H, gx = (V, np.full(v.grid.num_nodes, 2.0)), -2.0 * (V.T @ v.values)
    wfac = np.sqrt(v.grid.weight)
    try:
        res = qp.solve_box_state_qp(H, gx, aset.box.upper, B, psi, tol, wfac)
    except InfeasibleProblem as exc:
        raise InfeasibleSet(str(exc)) from exc
    return GridFunction(v.grid, res.u)


def slater(aset: AdmissibleSet, u_hat: GridFunction):
    """Slack tau = min(psi - S u_hat) on the region and the plus-sign cap
    lam_max = tau / ||u_hat||_inf(region) (inf when u_hat vanishes there)."""
    rep_box = feasibility(u_hat, aset.with_lambda(0.0))
    if min(rep_box.margin_lower, rep_box.margin_upper) < -FEAS_TOL:
        raise NotASlaterPoint("candidate violates the box constraints")
    idx = aset.state.region.indices
    su = aset.op.apply_values(u_hat.values)[idx]
    tau = float(np.min(aset.state.psi - su))
    if not tau > 0:
        raise NotASlaterPoint(f"state slack tau = {tau:.3e} is not positive")
    sup = float(np.max(np.abs(u_hat.values[idx])))
    lam_max = np.inf if sup == 0.0 else tau / sup
    return {"tau": tau, "lam_max": lam_max}
