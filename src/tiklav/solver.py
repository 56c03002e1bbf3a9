"""Solver for the regularized problem min ||Su - y_d||^2 + alpha||u||^2
over the admissible set."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .admissible import (ACTIVE_TOL, AdmissibleSet, FeasibilityReport,
                         project_admissible)
from .errors import InvalidInput
from .grid import GridFunction, wnorm
from .operators import AssembledOperator
from . import qp


@dataclass(frozen=True)
class RegularizedProblem:
    y_d: GridFunction
    aset: AdmissibleSet
    alpha: float

    def __post_init__(self):
        if self.y_d.grid != self.op.grid:
            raise InvalidInput("problem grids differ")
        if not 0 < self.alpha < np.inf:  # NaN fails too
            raise InvalidInput(
                f"alpha must be positive and finite, got {self.alpha}")

    @property
    def op(self) -> AssembledOperator:
        return self.aset.op

    @cached_property
    def vty(self) -> np.ndarray:
        """V^T y_d, the data in the operator's eigenbasis: one full product
        with V per data vector, shared by the problems `at` derives."""
        return self.op.V.T @ self.y_d.values

    def at(self, alpha: Optional[float] = None,
           aset: Optional[AdmissibleSet] = None) -> "RegularizedProblem":
        """This problem at another alpha or admissible set on the same
        operator; it takes over the coefficients V^T y_d."""
        if aset is not None and aset.op is not self.op:
            raise InvalidInput("the admissible set is on another operator")
        new = replace(self, alpha=self.alpha if alpha is None else alpha,
                      aset=self.aset if aset is None else aset)
        new.__dict__["vty"] = self.vty
        return new

    def objective(self, u_values: np.ndarray) -> float:
        """Weighted objective ||Su - y_d||^2 + alpha ||u||^2."""
        return self._objective(u_values, self.op.apply_values(u_values))

    def _objective(self, u_values: np.ndarray, su: np.ndarray) -> float:
        r = su - self.y_d.values
        w = self.op.grid.weight
        return float(w * (r @ r) + self.alpha * w * (u_values @ u_values))


@dataclass
class Solution:
    u: GridFunction
    y: GridFunction
    objective: float
    margins: FeasibilityReport    # minima of the constraint slacks at u
    mu_lower: np.ndarray
    mu_upper: np.ndarray
    eta: np.ndarray               # one entry per constraint_matrix() row
    active_lower: np.ndarray      # node indices with margin < ACTIVE_TOL
    active_upper: np.ndarray
    active_state: np.ndarray      # rows j of constraint_matrix(), as eta
    iterations: int               # QP active-set changes (adds plus drops)
                                  # of the main loop
    start_drops: int              # start rows the QP dropped before its
                                  # main loop
    kkt_stationarity: float
    kkt_primal: float
    kkt_complementarity: float
    active_set: np.ndarray        # the QP's final active row ids, sorted:
                                  # i, n + i, 2n + j for node i's lower and
                                  # upper bound and constraint_matrix() row
                                  # j; a `start` for a nearby solve


def _solution(problem: RegularizedProblem, res: qp.QPResult,
              su: np.ndarray, slack, cert) -> Solution:
    """The Solution at a solved point res.u, given su = S u, the slacks
    of `AdmissibleSet.slack` at u and their certificate (mu_lower,
    mu_upper, stationarity, primal, complementarity): y, the objective,
    the margins and the rows with slack < ACTIVE_TOL all derive from that
    one S u."""
    mu_lower, mu_upper, stat, primal, comp = cert
    lo, up, st = (np.flatnonzero(x < ACTIVE_TOL) for x in slack)
    grid = problem.op.grid
    return Solution(
        u=GridFunction(grid, res.u), y=GridFunction(grid, su),
        objective=problem._objective(res.u, su),
        margins=FeasibilityReport.from_slack(slack),
        mu_lower=mu_lower, mu_upper=mu_upper, eta=res.eta,
        active_lower=lo, active_upper=up, active_state=st,
        iterations=res.iterations, start_drops=res.start_drops,
        kkt_stationarity=stat, kkt_primal=primal, kkt_complementarity=comp,
        active_set=res.active)


def _quadratic(op: AssembledOperator, vty: np.ndarray, alpha: float):
    """The eigenvalues d = 2(s^2 + alpha) of the Hessian 2(S*S + alpha I) =
    V diag(d) V^T, and the gradient at 0 in that basis, -2 s * V^T y_d,
    from vty = V^T y_d: (d, gx)."""
    return 2.0 * (op.s**2 + alpha), -2.0 * op.s * vty


def solve_unconstrained(problem: RegularizedProblem) -> GridFunction:
    """Solve (S*S + alpha I) u = S* y_d in the eigenbasis of S, from the
    problem's V^T y_d: one product V x."""
    op = problem.op
    d, gx = _quadratic(op, problem.vty, problem.alpha)
    return GridFunction(op.grid, op.V @ (-gx / d))


def solve(problem: RegularizedProblem, tol: float = 1e-8,
          start: Optional[np.ndarray] = None) -> Solution:
    """Minimize over the admissible set with certified KKT residuals <= tol,
    warm-started from `start`, the `active_set` of a nearby solve (same
    admissible region; any lambda, alpha or data); with no start, from the
    rows violated at the unconstrained minimizer."""
    op = problem.op
    # certified on the Lagrangian gradient 2(S*(S u - y_d) + alpha u) + T^T eta
    return _solution(problem, *problem.aset.minimize(
        *_quadratic(op, problem.vty, problem.alpha),
        lambda u, su: 2.0 * (op.apply_values(su - problem.y_d.values)
                             + problem.alpha * u), tol, start))


def projection_formula_residual(sol: Solution, problem: RegularizedProblem,
                                tol: float = 1e-8) -> float:
    """|| u - P_set( -S*(Su - y_d)/alpha ) || in the weighted norm."""
    if sol.u.grid != problem.op.grid:
        raise InvalidInput("problem grids differ")
    v = -problem.op.apply_values(sol.y.values - problem.y_d.values) \
        / problem.alpha
    p = project_admissible(GridFunction(problem.op.grid, v), problem.aset,
                          tol=0.1 * tol)
    return wnorm(problem.op.grid, sol.u.values - p.values)

