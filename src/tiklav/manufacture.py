"""Manufactured test instances with known exact solutions, seeded noise,
source-element recovery and the a-priori parameter choice."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .admissible import AdmissibleSet, FeasibilityReport, feasibility, project_admissible
from .errors import EmptyPath, ZeroSourceNorm
from .grid import GridFunction, wnorm
from .operators import apply, apply_adjoint

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK = (1 << 64) - 1


def _lcg_uniforms(seed: int, count: int) -> np.ndarray:
    """count uniforms in [-1, 1) from a 64-bit LCG; bit-reproducible."""
    x = seed & _MASK
    out = np.empty(count)
    for i in range(count):
        x = (_LCG_MULT * x + _LCG_INC) & _MASK
        out[i] = (x >> 11) / float(1 << 53) * 2.0 - 1.0
    return out


@dataclass
class ManufacturedInstance:
    w: GridFunction
    u_bar: GridFunction
    y_d: GridFunction
    aset: AdmissibleSet
    attainable: bool
    margins: FeasibilityReport
    w_norm: float
    residual_norm: float

    @property
    def tau(self) -> float:
        """Smallest realized margin of the exact solution."""
        return min(self.margins.margin_lower, self.margins.margin_upper,
                   self.margins.margin_state)

    @property
    def interior(self) -> bool:
        return self.tau > 0

    def to_dict(self) -> dict:
        g = self.w.grid
        return {
            "grid": {"d": g.d, "n": g.n},
            "w": self.w.values.tolist(),
            "u_bar": self.u_bar.values.tolist(),
            "y_d": self.y_d.values.tolist(),
            "attainable": self.attainable,
            "margins": {
                "lower": self.margins.margin_lower,
                "upper": self.margins.margin_upper,
                "state": self.margins.margin_state,
            },
            "w_norm": self.w_norm,
            "residual_norm": self.residual_norm,
        }


@dataclass
class NoisyData:
    y_delta: GridFunction
    delta: float
    seed: int


def manufacture(w: GridFunction, aset: AdmissibleSet, attainable: bool = True,
                residual: float = 0.0, residual_direction: str = "random",
                seed: int = 0, tol: float = 1e-10) -> ManufacturedInstance:
    """Build the exact solution u_bar = P_set(S*w) and matching data.

    Attainable instances use y_d = S u_bar exactly; otherwise a residual of
    the requested norm is added (random or constant direction).
    """
    if aset.lam != 0.0:
        raise ValueError("manufacture requires the unregularized set (lam = 0)")
    sw = apply_adjoint(aset.op, w)
    u_bar = project_admissible(sw, aset, tol=tol)
    y_d = apply(aset.op, u_bar)
    res_norm = 0.0
    if not attainable:
        if residual <= 0:
            raise ValueError("non-attainable instances need a positive residual")
        n = y_d.grid.num_nodes
        if residual_direction == "constant":
            e = np.ones(n)
        else:
            e = _lcg_uniforms(seed, n)
        e /= wnorm(y_d.grid, e)
        y_d = GridFunction(y_d.grid, y_d.values + residual * e)
        res_norm = residual
    margins = feasibility(u_bar, aset)
    return ManufacturedInstance(
        w=w, u_bar=u_bar, y_d=y_d, aset=aset, attainable=attainable,
        margins=margins, w_norm=w.norm(), residual_norm=res_norm)


def add_noise(y_d: GridFunction, delta: float, seed: int) -> NoisyData:
    """y_d + delta * e / ||e|| with e from the seeded generator; exact norm."""
    if delta < 0:
        raise ValueError("noise level must be >= 0")
    if delta == 0.0:
        return NoisyData(y_d.copy(), 0.0, seed)
    e = _lcg_uniforms(seed, y_d.grid.num_nodes)
    e /= wnorm(y_d.grid, e)
    return NoisyData(GridFunction(y_d.grid, y_d.values + delta * e), delta, seed)


def recover_source(path: Sequence[Tuple[float, "Solution"]], y_d: GridFunction,
                   aset: AdmissibleSet, tol: float = 1e-9) -> dict:
    """Extract w_est = -(S u_alpha - y_d)/alpha at the smallest alpha and
    certify it against the projection identity P_set(S* w_est) = u_alpha."""
    if not path:
        raise EmptyPath("recover_source needs at least one (alpha, solution)")
    ratios = [wnorm(y_d.grid, sol.y.values - y_d.values) / a for a, sol in path]
    alpha, sol = path[-1]
    w_est = GridFunction(y_d.grid, -(sol.y.values - y_d.values) / alpha)
    proj = project_admissible(apply_adjoint(aset.op, w_est), aset, tol=tol)
    certificate = wnorm(y_d.grid, proj.values - sol.u.values)
    return {"w_est": w_est, "certificate": certificate,
            "discrepancy_ratios": ratios}


def optimal_alpha(residual_norm: float, w_norm: float) -> dict:
    """A-priori choice alpha* = ||S u_bar - y_d|| / ||w||."""
    if not w_norm > 0:
        raise ZeroSourceNorm(f"source norm must be positive, got {w_norm}")
    if residual_norm < 0:
        raise ValueError("residual norm must be >= 0")
    if residual_norm == 0.0:
        return {"alpha_star": 0.0, "attainable": True}
    return {"alpha_star": residual_norm / w_norm, "attainable": False}
