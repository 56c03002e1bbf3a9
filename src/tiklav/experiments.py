"""Parameter sweeps and rate/threshold verification: Tikhonov rates,
activity thresholds, noise rules, Lavrentiev bounds, coincidence detection
and joint total-error studies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .admissible import PLUS, AdmissibleSet, FeasibilityReport, slater
from .errors import Infeasible, InvalidInput
from .grid import GridFunction, wnorm
from .manufacture import ManufacturedInstance, add_noise
from .solver import RegularizedProblem, Solution, solve

CSV_COLUMNS = ("alpha", "lambda", "delta", "err_u", "err_Su", "margin_lo",
               "margin_up", "margin_state", "n_active_lo", "n_active_up",
               "n_active_state", "iters", "seconds")

RATE_FLOOR_FACTOR = 100.0  # fit only where err_u >= 100 * tol


@dataclass
class SweepRecord:
    alpha: float
    lam: float
    delta: float
    err_u: float
    err_Su: float
    margin_lo: float
    margin_up: float
    margin_state: float
    n_active_lo: int
    n_active_up: int
    n_active_state: int
    iters: int


@dataclass
class RateFit:
    slope: float
    intercept: float
    alpha_min: float
    alpha_max: float
    fit_residual: float
    n_points: int


def _solve(inst: ManufacturedInstance, prob: RegularizedProblem, tol: float,
           delta: float = 0.0,
           start: Optional[np.ndarray] = None) -> Tuple[SweepRecord, Solution]:
    """Solve prob, warm-started from `start` (the previous solve of a path),
    and record the errors against the instance's exact solution and data."""
    g = prob.op.grid
    sol = solve(prob, tol=tol, start=start)
    rep = sol.margins
    rec = SweepRecord(
        alpha=prob.alpha, lam=prob.aset.lam, delta=delta,
        err_u=wnorm(g, sol.u.values - inst.u_bar.values),
        err_Su=wnorm(g, sol.y.values - inst.y_d.values),
        margin_lo=rep.margin_lower, margin_up=rep.margin_upper,
        margin_state=rep.margin_state,
        n_active_lo=len(sol.active_lower), n_active_up=len(sol.active_upper),
        n_active_state=len(sol.active_state),
        iters=sol.iterations)
    return rec, sol


def _apriori_bounds(rec: SweepRecord, w_norm: float, e: float,
                    tol: float) -> Tuple[bool, bool]:
    """||u - u_bar|| <= sqrt(a) ||w|| + e / sqrt(a) and
    ||S u - y_d|| <= 2 a ||w|| + e, each up to 10 tol; e bounds the data
    error (the residual norm, or the noise level delta)."""
    a = rec.alpha
    return (bool(rec.err_u <= np.sqrt(a) * w_norm + e / np.sqrt(a) + 10 * tol),
            bool(rec.err_Su <= 2 * a * w_norm + e + 10 * tol))


def fit_rate(alphas: Sequence[float], errors: Sequence[float],
             tol: float) -> Optional[RateFit]:
    """Least-squares slope of log err vs log alpha over the honest window."""
    a = np.asarray(alphas, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e >= RATE_FLOOR_FACTOR * tol
    if keep.sum() < 4:
        return None
    la, le = np.log(a[keep]), np.log(e[keep])
    # the line fit in closed form: no LAPACK call, whose first use raises
    # the resident memory of an interior verify by about 1 MB
    dx = la - la.mean()
    slope = float(dx @ (le - le.mean()) / (dx @ dx))
    intercept = float(le.mean() - slope * la.mean())
    fit_res = float(np.linalg.norm(le - (slope * la + intercept)))
    return RateFit(slope=slope, intercept=intercept,
                   alpha_min=float(a[keep].min()), alpha_max=float(a[keep].max()),
                   fit_residual=fit_res, n_points=int(keep.sum()))


def _alpha_path(alpha_list: Sequence[float]) -> List[float]:
    """alpha_list as a list if it is >= 4 positive values, descending."""
    a = list(alpha_list)
    if len(a) < 4 or min(a) <= 0 or any(x <= y for x, y in zip(a, a[1:])):
        raise InvalidInput("alpha_list must be >= 4 positive values, descending")
    return a


def sweep_alpha(inst: ManufacturedInstance, alpha_list: Sequence[float],
                tol: float = 1e-8) -> dict:
    """Tikhonov sweep at lam = 0 with per-record bound checks and a rate fit."""
    alphas = _alpha_path(alpha_list)
    prob = RegularizedProblem(inst.y_d, inst.aset, alphas[0])
    records, active = [], None
    for a in alphas:
        prob = prob.at(a)
        rec, sol = _solve(inst, prob, tol, start=active)
        records.append(rec)
        active = sol.active_set
    checks = [_apriori_bounds(r, inst.w_norm, inst.residual_norm, tol)
              for r in records]
    fit = fit_rate([r.alpha for r in records], [r.err_u for r in records], tol)
    return {"records": records, "fit": fit, "bound_checks": checks}


def _inactive(rec: SweepRecord) -> bool:
    return rec.n_active_lo == rec.n_active_up == rec.n_active_state == 0


def _last_dirty(flags: Sequence[bool]) -> Optional[int]:
    """The index of the last False flag of a path that ends True, -1 when
    every flag is True; None when the path ends False (no threshold)."""
    if not flags[-1]:
        return None
    return max((i for i, f in enumerate(flags) if not f), default=-1)


def activity_transition(inst: ManufacturedInstance, alpha_list: Sequence[float],
                        tol: float = 1e-8) -> dict:
    """Largest alpha in the (descending) list below which all solutions have
    empty active sets and margins above inst.tau/2.  Returns alpha0 = inf
    when every list element is clean and None when the smallest one is not
    (no transition)."""
    records = sweep_alpha(inst, alpha_list, tol=tol)["records"]
    flags = [_inactive(r) and min(r.margin_lo, r.margin_up, r.margin_state)
             > 0.5 * inst.tau for r in records]
    i = _last_dirty(flags)
    alpha0 = None if i is None else np.inf if i < 0 else records[i].alpha
    return {"alpha0": alpha0, "records": records, "clean": flags}


def noise_study(inst: ManufacturedInstance, delta_list: Sequence[float],
                s: float = 2.0 / 3.0, c: float = 1.0, tol: float = 1e-8,
                seed: int = 1) -> dict:
    """Solve with noisy data at alpha(delta) = c * delta^s and check the
    noisy-data error bounds; report the delta below which all constraints
    are inactive (None if never)."""
    if not 0.0 < s < 1.0:
        raise InvalidInput(f"exponent s must be in (0, 1), got {s}")
    deltas = sorted(delta_list, reverse=True)
    if not deltas:
        raise InvalidInput("delta_list must be nonempty")
    positive = [d for d in deltas if d > 0]
    alpha_floor = c * min(positive) ** s if positive else 1e-6
    records, active = [], None
    for i, d in enumerate(deltas):
        alpha = c * d**s if d > 0 else alpha_floor
        noisy = add_noise(inst.y_d, d, seed + i)
        prob = RegularizedProblem(noisy, inst.aset, alpha)
        rec, sol = _solve(inst, prob, tol, delta=d, start=active)
        records.append(rec)
        active = sol.active_set
    checks = [_apriori_bounds(r, inst.w_norm, r.delta, tol) for r in records]
    i = _last_dirty([_inactive(r) for r in records])
    delta0 = None if i is None else np.inf if i < 0 else records[i].delta
    return {"records": records, "bound_checks": checks, "delta0": delta0}


def lavrentiev_sweep(inst: ManufacturedInstance, alpha: float,
                     lam_list: Sequence[float], sign: str,
                     u_hat: GridFunction, tol: float = 1e-8) -> dict:
    """Compare u_alpha^lam against u_alpha^0 across lam; fit the constant of
    the lam/alpha error bound and detect the coincidence threshold.

    The lams are solved first, descending, the largest cold and each next
    one from the previous active set; then lam = 0, from the smallest lam's
    active set, its nearest neighbour on the path."""
    lams = sorted(lam_list, reverse=True)
    if not lams:
        raise InvalidInput("lambda_list must be nonempty")
    sl = slater(inst.aset, u_hat)
    if sign == PLUS and lams[0] > sl["lam_max"]:
        raise Infeasible(
            f"lam = {lams[0]:g} exceeds tau/||u_hat||_inf = {sl['lam_max']:g}")
    prob = RegularizedProblem(inst.y_d, inst.aset, alpha)
    rows = inst.aset.constraint_matrix()[0].idx
    records, sols, plus_feasible, minus_violation = [], [], [], []
    active = None
    for lam in lams:
        rec, sol = _solve(inst, prob.at(aset=inst.aset.with_lambda(lam, sign)),
                          tol, start=active)
        active = sol.active_set
        records.append(rec)
        sols.append(sol)
        rep0 = FeasibilityReport.from_slack(
            inst.aset.slack(sol.u.values, sol.y.values))
        if sign == PLUS:
            plus_feasible.append(bool(rep0.feasible))
        else:
            cap = lam * float(np.max(np.abs(sol.u.values[rows]), initial=0.0))
            minus_violation.append(bool(-rep0.margin_state <= cap + 10 * tol))
    base = _solve(inst, prob, tol, start=active)[1]
    g = inst.aset.op.grid
    errors = [wnorm(g, sol.u.values - base.u.values) for sol in sols]
    scaled = [e * alpha / lam for e, lam in zip(errors, lams) if lam > 0]
    c_fit = max(scaled) if scaled else 0.0
    # largest lam such that it and every smaller lam coincide with lam = 0
    i = _last_dirty([e <= 10 * tol for e in errors])
    lam_coincide = lams[i + 1] if inst.margins.margin_state > 0 \
        and i is not None else 0.0
    return {"records": records, "errors": errors, "c_fit": c_fit,
            "c_scaled": scaled, "lam_coincide": lam_coincide, "slater": sl,
            "plus_feasible": plus_feasible, "minus_violation": minus_violation}


def total_error_study(inst: ManufacturedInstance, alpha_list: Sequence[float],
                      lam_cap: float, sign: str = PLUS,
                      tol: float = 1e-8) -> dict:
    """Joint sweep with lam = min(lam_cap, alpha) per alpha; fits the total
    error order and checks the triangle split against the lam = 0 solve."""
    g = inst.aset.op.grid
    records, triangle = [], []
    active, active0 = None, None  # two paths: shifted sets and lam = 0
    for i, a in enumerate(_alpha_path(alpha_list)):  # one V^T y_d for both
        prob0 = RegularizedProblem(inst.y_d, inst.aset, a) if i == 0 \
            else prob0.at(a)
        rec, sol = _solve(
            inst, prob0.at(aset=inst.aset.with_lambda(min(lam_cap, a), sign)),
            tol, start=active)
        sol0 = _solve(inst, prob0, tol, start=active0)[1]
        active, active0 = sol.active_set, sol0.active_set
        records.append(rec)
        rhs = wnorm(g, inst.u_bar.values - sol0.u.values) \
            + wnorm(g, sol0.u.values - sol.u.values)
        triangle.append(bool(rec.err_u <= rhs + 10 * tol))
    fit = fit_rate([r.alpha for r in records], [r.err_u for r in records], tol)
    return {"records": records, "fit": fit, "triangle_checks": triangle}


def alpha_continuity_check(y_d: GridFunction, aset: AdmissibleSet,
                           pairs: Sequence[Tuple[float, float]],
                           tol: float = 1e-8) -> List[bool]:
    """Check ||u_beta - u_alpha|| <= (|alpha-beta|/beta) ||u_alpha|| + 20 tol."""
    if len(pairs) == 0:
        raise InvalidInput("pairs must be nonempty")
    out, prob = [], RegularizedProblem(y_d, aset, pairs[0][0])
    for a, b in pairs:
        prob = prob.at(a)
        sol_a = solve(prob, tol=tol)
        ua = sol_a.u
        prob = prob.at(b)
        ub = solve(prob, tol=tol, start=sol_a.active_set).u
        lhs = wnorm(y_d.grid, ub.values - ua.values)
        out.append(bool(lhs <= abs(a - b) / b * ua.norm() + 20 * tol))
    return out


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Fixed-column CSV with 17 significant digits and LF line endings.

    The `seconds` column is always 0 so repeated runs are byte-identical.
    """
    lines = [",".join(CSV_COLUMNS)]
    for r in records:  # SweepRecord's fields in order, then seconds = 0
        lines.append(",".join(map("{:.17g}".format, vars(r).values())) + ",0")
    return "\n".join(lines) + "\n"
