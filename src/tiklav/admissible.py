"""Admissible sets: box bounds, Lavrentiev-shifted state constraints,
feasibility margins, Slater quantities and L2 projections."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInput
from .grid import DomainGrid, GridFunction, ObservationRegion
from .operators import AssembledOperator, EigenRows
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
            raise InvalidInput("upper bound length does not match grid")
        if not np.all(up >= 0):  # also rejects NaN
            raise InvalidInput("upper bound must be nonnegative")

    @classmethod
    def constant(cls, grid: DomainGrid, b: float):
        return cls(grid, np.full(grid.num_nodes, float(b)))


@dataclass(frozen=True)
class StateConstraint:
    """lam*u + Su <= psi (plus) or Su - lam*u <= psi (minus) at the region
    nodes with finite psi (+inf: no row), the rows of constraint_matrix()."""

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
            raise InvalidInput("psi length does not match region")
        if not np.all(p > -np.inf):  # +inf marks an absent row
            raise InvalidInput("psi must be a number or +inf")
        if not 0 <= self.lam < np.inf:  # NaN fails too
            raise InvalidInput(
                f"lavrentiev parameter must be >= 0 and finite, got {self.lam}")
        if self.sign not in (PLUS, MINUS):
            raise InvalidInput(f"sign must be 'plus' or 'minus', got {self.sign!r}")


@dataclass
class FeasibilityReport:
    margin_lower: float
    margin_upper: float
    margin_state: float
    feasible: bool

    @classmethod
    def from_slack(cls, slack) -> "FeasibilityReport":
        """The minima of the three slack arrays of `AdmissibleSet.slack`,
        feasible when none is below -FEAS_TOL."""
        m_lo, m_up, m_st = (float(np.min(x, initial=np.inf)) for x in slack)
        return cls(m_lo, m_up, m_st, m_lo >= -FEAS_TOL and m_up >= -FEAS_TOL
                   and m_st >= -FEAS_TOL)


@dataclass(frozen=True)
class AdmissibleSet:
    """Box + state constraint for a given operator; lam = 0 gives the
    unregularized set, lam > 0 its Lavrentiev variant."""

    box: BoxBounds
    state: StateConstraint
    op: AssembledOperator

    def __post_init__(self):
        if self.box.grid != self.op.grid or self.state.region.grid != self.op.grid:
            raise InvalidInput("box/region/operator grids differ")

    @property
    def lam(self) -> float:
        return self.state.lam

    @property
    def sign(self) -> str:
        return self.state.sign

    def with_lambda(self, lam: float, sign: Optional[str] = None) -> "AdmissibleSet":
        """The set with the Lavrentiev parameter lam (and sign); this set
        itself when neither changes, so its cached state rows are shared."""
        if sign is None:
            sign = self.sign
        if lam == self.lam and sign == self.sign:
            return self
        return AdmissibleSet(self.box, replace(self.state, lam=lam, sign=sign),
                             self.op)

    @property
    def shift(self) -> float:
        """The signed Lavrentiev shift: the state rows are S + shift I."""
        return self.lam if self.sign == PLUS else -self.lam

    def constraint_matrix(self):
        """(T, psi) for the region nodes with finite psi: T is the
        `EigenRows` of S + shift I at those nodes, with no rows when no psi
        is finite. Built once per set; both are read-only."""
        return self._state_rows

    @cached_property
    def _state_rows(self):
        finite = np.isfinite(self.state.psi)
        psi = self.state.psi[finite]
        psi.flags.writeable = False
        return (EigenRows(self.op, self.state.region.indices[finite],
                          self.shift), psi)

    def slack(self, u_values: np.ndarray, su: np.ndarray):
        """The slacks of the lower, upper and state constraints at u, given
        su = S u: (u, b - u, psi - T u) for (T, psi) = constraint_matrix(),
        so state slack j is that of row j; inf where b is absent."""
        T, psi = self.constraint_matrix()
        return (u_values, self.box.upper - u_values,
                psi - (su[T.idx] + self.shift * u_values[T.idx]))

    def minimize(self, d: np.ndarray, gx: np.ndarray, grad, tol: float,
                 start: Optional[np.ndarray] = None):
        """Minimize 0.5 u^T H u + g^T u over the set by the QP engine from
        `start`, H = V diag(d) V^T and g = V gx in the operator's
        eigenbasis V, and certify its u on the gradient grad(u, su) + T^T
        eta, su = S u: (the QPResult, su, the slacks at u, the certificate
        of `qp.certify`)."""
        T, psi = self.constraint_matrix()
        res = qp.solve_box_state_qp((self.op.V, d), gx, self.box.upper, T,
                                    psi, tol, start)
        su = self.op.apply_values(res.u)
        r = grad(res.u, su) + T.adjoint(res.eta)
        slack = self.slack(res.u, su)
        return res, su, slack, qp.certify(r, slack, res.eta, tol,
                                          np.sqrt(self.op.grid.weight))


def feasibility(u: GridFunction, aset: AdmissibleSet) -> FeasibilityReport:
    if u.grid != aset.op.grid:
        raise InvalidInput("grids differ")
    su = aset.op.apply_values(u.values)
    return FeasibilityReport.from_slack(aset.slack(u.values, su))


def project_admissible(v: GridFunction, aset: AdmissibleSet,
                       tol: float = 1e-9) -> GridFunction:
    """L2-nearest point of the admissible set: min |u - v|^2, H = 2I and
    g = -2 v, certified on its Lagrangian gradient 2(u - v) + T^T eta."""
    if v.grid != aset.op.grid:
        raise InvalidInput("grids differ")
    return GridFunction(v.grid, aset.minimize(
        np.full(v.values.size, 2.0), -2.0 * (aset.op.V.T @ v.values),
        lambda u, su: 2.0 * (u - v.values), tol)[0].u)


def slater(aset: AdmissibleSet, u_hat: GridFunction):
    """Slack tau = min(psi - S u_hat) over the rows of constraint_matrix()
    and the plus-sign cap lam_max = tau / max |u_hat| on those rows' nodes
    (inf when u_hat vanishes there or there is no row)."""
    rep = feasibility(u_hat, aset.with_lambda(0.0))
    if min(rep.margin_lower, rep.margin_upper) < -FEAS_TOL:
        raise InvalidInput("candidate violates the box constraints")
    tau = rep.margin_state
    if not tau > 0:
        raise InvalidInput(f"state slack tau = {tau:.3e} is not positive")
    rows = aset.constraint_matrix()[0].idx
    sup = float(np.max(np.abs(u_hat.values[rows]), initial=0.0))
    lam_max = np.inf if sup == 0.0 else tau / sup
    return {"tau": tau, "lam_max": lam_max}
