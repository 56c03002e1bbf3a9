"""Command-line entry point: config ingestion, dispatch and report emission.

Commands: solve, verify, manufacture. Each takes --config (path or bundled
preset name), --out, --tol, --seed. Exit codes: 0 ok, 2 config error,
3 infeasible, 4 nonconvergence, 5 verification check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, experiments
from .admissible import AdmissibleSet, BoxBounds, StateConstraint, feasibility
from .errors import (ConfigError, InfeasibleProblem, InfeasibleSet,
                     LambdaExceedsSlaterCap, NoFeasiblePattern, NonConvergence,
                     NoTransition)
from .grid import DomainGrid, GridFunction, ObservationRegion
from .manufacture import ManufacturedInstance, manufacture, optimal_alpha
from .operators import KernelSpec, assemble_fredholm, assemble_poisson
from .solver import RegularizedProblem, projection_formula_residual, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGENCE = 4
EXIT_CHECK_FAILED = 5

VERIFY_KINDS = ("sweep-alpha", "activity", "noise", "lavrentiev",
                "total-error", "continuity")


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled preset config."""
    p = resources.files("tiklav") / "presets" / f"{name}.json"
    if not p.is_file():
        raise ConfigError(f"unknown preset {name!r}")
    return Path(str(p))


def load_config(spec: str) -> dict:
    path = Path(spec)
    if not path.is_file():
        try:
            path = preset_path(spec)
        except ConfigError:
            raise ConfigError(f"config file not found: {spec}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field {where}.{key}")
    return cfg[key]


def _grid_values(grid: DomainGrid, spec, name: str) -> np.ndarray:
    """Scalar, array or 'inf' -> per-node values."""
    if spec == "inf":
        return np.full(grid.num_nodes, np.inf)
    if isinstance(spec, (int, float)):
        return np.full(grid.num_nodes, float(spec))
    if isinstance(spec, list):
        arr = np.asarray(spec, dtype=float)
        if arr.shape != (grid.num_nodes,):
            raise ConfigError(
                f"{name}: expected {grid.num_nodes} values, got {arr.shape}")
        return arr
    raise ConfigError(f"{name}: expected scalar, array or 'inf'")


def _build_w(grid: DomainGrid, spec: dict) -> GridFunction:
    kind = _require(spec, "kind", "data.manufactured.w")
    if kind == "constant":
        return GridFunction(grid, np.full(grid.num_nodes,
                                          float(_require(spec, "value", "w"))))
    if kind == "values":
        return GridFunction(grid, _grid_values(grid, _require(spec, "values", "w"),
                                               "w.values"))
    if kind == "sine-mixture":
        if grid.d != 1:
            raise ConfigError("sine-mixture source is 1D only")
        amp = float(spec.get("amplitude", 1.0))
        modes = int(spec.get("modes", grid.n))
        decay = float(spec.get("decay", 0.5))
        x = grid.coords[:, 0]
        vals = np.zeros(grid.num_nodes)
        for k in range(1, modes + 1):
            vals += amp * k**(-decay) * np.sqrt(2.0) * np.sin(k * np.pi * x)
        return GridFunction(grid, vals)
    raise ConfigError(f"unknown w kind {kind!r}")


def build_operator(cfg: dict):
    op_cfg = _require(cfg, "operator", "config")
    kind = _require(op_cfg, "kind", "operator")
    d = int(_require(op_cfg, "d", "operator"))
    n = int(_require(op_cfg, "n", "operator"))
    try:
        grid = DomainGrid(d, n)
    except ValueError as exc:
        raise ConfigError(f"operator grid: {exc}")
    if kind == "poisson":
        return assemble_poisson(grid)
    if kind == "fredholm":
        k_cfg = _require(op_cfg, "kernel", "operator")
        kspec = KernelSpec(kind=_require(k_cfg, "kind", "operator.kernel"),
                           value=float(k_cfg.get("value", 1.0)),
                           width=float(k_cfg.get("width", 1.0)))
        return assemble_fredholm(grid, kspec)
    raise ConfigError(f"unknown operator kind {kind!r}")


def build_admissible(cfg: dict, op) -> AdmissibleSet:
    a_cfg = _require(cfg, "admissible", "config")
    grid = op.grid
    b = _grid_values(grid, _require(a_cfg, "b", "admissible"), "admissible.b")
    region_spec = a_cfg.get("region", "all")
    if region_spec == "all":
        region = ObservationRegion.all_nodes(grid)
    else:
        bounds = _require(region_spec, "bounds", "admissible.region")
        try:
            region = ObservationRegion.from_bounds(
                grid, bounds, inner=bool(region_spec.get("inner", False)))
        except ValueError as exc:
            raise ConfigError(f"admissible.region: {exc}")
    psi_full = _grid_values(grid, _require(a_cfg, "psi", "admissible"),
                            "admissible.psi")
    lam = float(a_cfg.get("lambda", 0.0))
    if lam < 0:
        raise ConfigError("admissible.lambda must be >= 0")
    sign = a_cfg.get("sign", "plus")
    if sign not in ("plus", "minus"):
        raise ConfigError("admissible.sign must be 'plus' or 'minus'")
    state = StateConstraint(region, psi_full[region.indices], lam, sign)
    return AdmissibleSet(BoxBounds(grid, b), state, op)


def build_instance(cfg: dict, op, aset: AdmissibleSet,
                   seed: int) -> ManufacturedInstance:
    d_cfg = _require(cfg, "data", "config")
    m_cfg = _require(d_cfg, "manufactured", "data")
    w = _build_w(op.grid, _require(m_cfg, "w", "data.manufactured"))
    return manufacture(
        w, aset.with_lambda(0.0),
        attainable=bool(m_cfg.get("attainable", True)),
        residual=float(m_cfg.get("residual", 0.0)),
        residual_direction=m_cfg.get("residual_direction", "random"),
        seed=int(m_cfg.get("seed", seed)))


def build_data(cfg: dict, op, aset, seed: int):
    """Returns (y_d, instance-or-None)."""
    d_cfg = _require(cfg, "data", "config")
    if "values" in d_cfg:
        return GridFunction(op.grid, _grid_values(op.grid, d_cfg["values"],
                                                  "data.values")), None
    inst = build_instance(cfg, op, aset, seed)
    return inst.y_d, inst


@dataclass
class RunReport:
    command: str
    config: dict
    version: str = __version__
    summaries: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    manifest: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "report.json"
        self.manifest.append(str(path))
        _write_json(path, {
            "command": self.command, "config": self.config,
            "version": self.version, "summaries": self.summaries,
            "checks": self.checks, "manifest": self.manifest,
            "runtime_seconds": self.runtime_seconds,
        })
        return path


def _strict(obj):
    """obj with arrays and NumPy scalars as Python values and the non-finite
    floats as the strings "inf", "-inf" and "nan", so it is strict JSON."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _strict(obj.tolist())
    if isinstance(obj, float) and not np.isfinite(obj):
        return "nan" if np.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


def cmd_solve(cfg: dict, out_dir: Path, tol: float, seed: int) -> RunReport:
    t0 = time.perf_counter()
    op = build_operator(cfg)
    aset = build_admissible(cfg, op)
    y_d, _ = build_data(cfg, op, aset, seed)
    alpha = float(_require(cfg, "alpha", "config"))
    prob = RegularizedProblem(op, y_d, aset, alpha)
    sol = solve(prob, tol=tol)
    rep = feasibility(sol.u, aset)
    proj_res = projection_formula_residual(sol, prob, tol=tol)
    report = RunReport("solve", cfg)
    report.summaries = {
        "objective": sol.objective,
        "kkt": {"stationarity": sol.kkt_stationarity,
                "primal": sol.kkt_primal,
                "complementarity": sol.kkt_complementarity},
        "projection_formula_residual": proj_res,
        "margins": {"lower": rep.margin_lower, "upper": rep.margin_upper,
                    "state": rep.margin_state},
        "active_sizes": [len(sol.active_lower), len(sol.active_upper),
                         len(sol.active_state)],
        "iterations": sol.iterations,
    }
    sol_path = out_dir / "solution.json"
    _write_json(sol_path, {
        "u": sol.u.values, "y": sol.y.values,
        "mu_lower": sol.mu_lower, "mu_upper": sol.mu_upper, "eta": sol.eta,
        "active_lower": sol.active_lower, "active_upper": sol.active_upper,
        "active_state": sol.active_state,
    })
    report.manifest.append(str(sol_path))
    report.runtime_seconds = time.perf_counter() - t0
    return report


def cmd_manufacture(cfg: dict, out_dir: Path, tol: float, seed: int) -> RunReport:
    t0 = time.perf_counter()
    op = build_operator(cfg)
    aset = build_admissible(cfg, op)
    inst = build_instance(cfg, op, aset, seed)
    report = RunReport("manufacture", cfg)
    alpha_star = optimal_alpha(inst.residual_norm, inst.w_norm) \
        if inst.w_norm > 0 else {"alpha_star": None, "attainable": inst.attainable}
    report.summaries = {
        "margins": {"lower": inst.margins.margin_lower,
                    "upper": inst.margins.margin_upper,
                    "state": inst.margins.margin_state},
        "tau": inst.tau, "w_norm": inst.w_norm,
        "residual_norm": inst.residual_norm,
        "alpha_star": alpha_star,
    }
    inst_path = out_dir / "instance.json"
    _write_json(inst_path, inst.to_dict())
    report.manifest.append(str(inst_path))
    print(f"tau margins: lower={inst.margins.margin_lower:.6g} "
          f"upper={inst.margins.margin_upper:.6g} "
          f"state={inst.margins.margin_state:.6g}")
    print(f"||w|| = {inst.w_norm:.6g}, residual = {inst.residual_norm:.6g}, "
          f"alpha* = {alpha_star['alpha_star']}")
    report.runtime_seconds = time.perf_counter() - t0
    return report


def _slope_check(fit, rng) -> bool:
    return fit is not None and rng[0] <= fit.slope <= rng[1]


def cmd_verify(cfg: dict, out_dir: Path, tol: float, seed: int) -> RunReport:
    t0 = time.perf_counter()
    e_cfg = _require(cfg, "experiment", "config")
    kind = _require(e_cfg, "kind", "experiment")
    if kind not in VERIFY_KINDS:
        raise ConfigError(f"experiment.kind must be one of {VERIFY_KINDS}")
    op = build_operator(cfg)
    aset = build_admissible(cfg, op)
    report = RunReport("verify", cfg)
    slope_rng = tuple(e_cfg.get("slope_range", (0.45, 0.55)))
    records = []

    if kind == "continuity":
        y_d, _ = build_data(cfg, op, aset, seed)
        pairs = [(float(a), float(b))
                 for a, b in _require(e_cfg, "pairs", "experiment")]
        flags = experiments.alpha_continuity_check(op, y_d, aset, pairs, tol=tol)
        report.checks = {"continuity_bounds": all(flags)}
        report.summaries = {"pair_flags": flags}
    else:
        inst = build_instance(cfg, op, aset, seed)
        if kind == "sweep-alpha":
            out = experiments.sweep_alpha(
                inst, [float(a) for a in _require(e_cfg, "alpha_list", "experiment")],
                tol=tol)
            records = out["records"]
            report.checks = {
                "error_bounds": all(b1 and b2 for b1, b2 in out["bound_checks"]),
                "rate_slope": _slope_check(out["fit"], slope_rng),
            }
            report.summaries = {"fit": _fit_dict(out["fit"])}
        elif kind == "activity":
            expect = e_cfg.get("expect", "transition")
            if expect not in ("transition", "none"):
                raise ConfigError("experiment.expect must be 'transition' or 'none'")
            try:
                out = experiments.activity_transition(
                    inst,
                    [float(a) for a in _require(e_cfg, "alpha_list", "experiment")],
                    tau=inst.tau, tol=tol)
                records = out["records"]
                report.checks = {"activity_as_expected": expect == "transition"}
                report.summaries = {"alpha0": out["alpha0"], "tau": inst.tau}
            except NoTransition as exc:
                report.checks = {"activity_as_expected": expect == "none"}
                report.summaries = {"no_transition": str(exc), "tau": inst.tau}
        elif kind == "noise":
            rule = e_cfg.get("rule", {})
            out = experiments.noise_study(
                inst, [float(d) for d in _require(e_cfg, "delta_list", "experiment")],
                s=float(rule.get("s", 2.0 / 3.0)), c=float(rule.get("c", 1.0)),
                tol=tol, seed=seed)
            records = out["records"]
            checks = {"error_bounds": all(b1 and b2
                                          for b1, b2 in out["bound_checks"])}
            if inst.interior:
                checks["inactive_at_smallest_delta"] = out["delta0"] is not None
            report.checks = checks
            report.summaries = {"delta0": out["delta0"]}
        elif kind == "lavrentiev":
            uhat_spec = e_cfg.get("uhat", {"kind": "constant", "value": 0.0})
            u_hat = _build_w(op.grid, uhat_spec)
            out = experiments.lavrentiev_sweep(
                inst, float(_require(e_cfg, "alpha", "experiment")),
                [float(x) for x in _require(e_cfg, "lambda_list", "experiment")],
                e_cfg.get("sign", "plus"), u_hat, tol=tol)
            records = out["records"]
            scaled = [s for s in out["c_scaled"] if s > 0]
            stable = bool(scaled) and max(scaled) <= 10 * min(scaled)
            checks = {"c_fit_finite": bool(np.isfinite(out["c_fit"])),
                      "c_fit_stable": stable}
            if e_cfg.get("sign", "plus") == "plus":
                checks["plus_solutions_feasible"] = all(out["plus_feasible"])
            else:
                checks["minus_violation_bounded"] = all(out["minus_violation"])
            report.checks = checks
            report.summaries = {"c_fit": out["c_fit"],
                                "lam_coincide": out["lam_coincide"],
                                "slater": out["slater"]}
        elif kind == "total-error":
            out = experiments.total_error_study(
                inst, [float(a) for a in _require(e_cfg, "alpha_list", "experiment")],
                lam_cap=float(e_cfg.get("lambda_cap", 1e-2)),
                sign=e_cfg.get("sign", "plus"), tol=tol)
            records = out["records"]
            report.checks = {
                "rate_slope": _slope_check(out["fit"], slope_rng),
                "triangle_split": all(out["triangle_checks"]),
            }
            report.summaries = {"fit": _fit_dict(out["fit"])}

    if records:
        csv_path = out_dir / "sweep.csv"
        csv_path.write_text(experiments.records_to_csv(records))
        report.manifest.append(str(csv_path))
    if not report.checks:
        report.checks = {"ran": True}
    report.runtime_seconds = time.perf_counter() - t0
    return report


def _fit_dict(fit):
    if fit is None:
        return None
    return {"slope": fit.slope, "intercept": fit.intercept,
            "alpha_min": fit.alpha_min, "alpha_max": fit.alpha_max,
            "fit_residual": fit.fit_residual, "n_points": fit.n_points}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tiklav",
        description="Tikhonov-Lavrentiev regularization of constrained "
                    "linear inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "manufacture"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="config JSON path or bundled preset name")
        p.add_argument("--out", default="tiklav-out", help="output directory")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            report = cmd_solve(cfg, out_dir, args.tol, args.seed)
        elif args.command == "verify":
            report = cmd_verify(cfg, out_dir, args.tol, args.seed)
        else:
            report = cmd_manufacture(cfg, out_dir, args.tol, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleProblem, InfeasibleSet, NoFeasiblePattern,
            LambdaExceedsSlaterCap) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonConvergence as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE

    path = report.write(out_dir)
    failed = [k for k, ok in report.checks.items() if not ok]
    for k, ok in report.checks.items():
        print(f"check {k}: {'pass' if ok else 'FAIL'}")
    print(f"report: {path}")
    if args.command == "verify" and failed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
