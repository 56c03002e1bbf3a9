"""Manufactured test instances with known exact solutions, seeded noise
and the a-priori parameter choice."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admissible import AdmissibleSet, FeasibilityReport
from .errors import InvalidInput
from .grid import GridFunction, wnorm

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
    aset: AdmissibleSet           # lam = 0: manufacture rejects any other
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


def manufacture(w: GridFunction, aset: AdmissibleSet, attainable: bool = True,
                residual: float = 0.0, residual_direction: str = "random",
                seed: int = 0) -> ManufacturedInstance:
    """Build the exact solution u_bar = P_set(S*w) and matching data.

    Attainable instances use y_d = S u_bar exactly; otherwise a residual of
    the requested norm is added (random or constant direction). The
    projection is certified to KKT residuals <= 1e-10.
    """
    if aset.lam != 0.0:
        raise InvalidInput("manufacture requires the unregularized set (lam = 0)")
    if w.grid != aset.op.grid:
        raise InvalidInput("operator and function grids differ")
    # min |u - S* w|^2, its gradient at 0 by the coefficients s * V^T w (one
    # transform in 1D); the certificate's S u_bar is y_d
    op = aset.op
    sw = op.apply_values(w.values)
    res, su, slack, _ = aset.minimize(
        np.full(sw.size, 2.0), -2.0 * (op.s * (op.V.T @ w.values)),
        lambda u, su: 2.0 * (u - sw), 1e-10)
    u_bar, y_d = GridFunction(w.grid, res.u), GridFunction(w.grid, su)
    margins = FeasibilityReport.from_slack(slack)
    res_norm = 0.0
    if not attainable:
        if residual <= 0:
            raise InvalidInput("non-attainable instances need a positive residual")
        n = y_d.grid.num_nodes
        if residual_direction == "constant":
            e = np.ones(n)
        elif residual_direction == "random":
            e = _lcg_uniforms(seed, n)
        else:
            raise InvalidInput("residual_direction must be 'random' or "
                               f"'constant', got {residual_direction!r}")
        e /= wnorm(y_d.grid, e)
        y_d = GridFunction(y_d.grid, y_d.values + residual * e)
        res_norm = residual
    return ManufacturedInstance(
        w=w, u_bar=u_bar, y_d=y_d, aset=aset, attainable=attainable,
        margins=margins, w_norm=w.norm(), residual_norm=res_norm)


def add_noise(y_d: GridFunction, delta: float, seed: int) -> GridFunction:
    """y_d + delta * e / ||e|| with e from the seeded generator; exact norm."""
    if delta < 0:
        raise InvalidInput("noise level must be >= 0")
    if delta == 0.0:
        return y_d.copy()
    e = _lcg_uniforms(seed, y_d.grid.num_nodes)
    e /= wnorm(y_d.grid, e)
    return GridFunction(y_d.grid, y_d.values + delta * e)


def optimal_alpha(residual_norm: float, w_norm: float) -> dict:
    """A-priori choice alpha* = ||S u_bar - y_d|| / ||w||."""
    if not w_norm > 0:
        raise InvalidInput(f"source norm must be positive, got {w_norm}")
    if residual_norm < 0:
        raise InvalidInput("residual norm must be >= 0")
    if residual_norm == 0.0:
        return {"alpha_star": 0.0, "attainable": True}
    return {"alpha_star": residual_norm / w_norm, "attainable": False}
