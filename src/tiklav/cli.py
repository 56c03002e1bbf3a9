"""Command-line entry point: config ingestion, dispatch and report emission.

Commands: solve, verify, manufacture. Each takes --config (path or bundled
preset name), --out, --tol, --seed. Exit codes: 0 ok, 2 config error,
3 infeasible, 4 nonconvergence, 5 verification check failed.

`verify` looks up `experiment.kind` in `VERIFY`. Each entry takes (cfg,
experiment block, admissible set, tol, seed), runs one function of
`experiments` on the set's operator and returns (records, checks,
summaries); records, if any, are written to sweep.csv.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, experiments
from .admissible import (MINUS, PLUS, AdmissibleSet, BoxBounds,
                         StateConstraint)
from .errors import Infeasible, InvalidInput, NonConvergence
from .grid import DomainGrid, GridFunction, ObservationRegion
from .manufacture import ManufacturedInstance, manufacture, optimal_alpha
from .operators import (AssembledOperator, KernelSpec, SineBasis,
                        assemble_fredholm, assemble_poisson)
from .solver import RegularizedProblem, projection_formula_residual, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGENCE = 4
EXIT_CHECK_FAILED = 5


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled preset config."""
    p = resources.files("tiklav") / "presets" / f"{name}.json"
    if not p.is_file():
        raise InvalidInput(f"unknown preset {name!r}")
    return Path(str(p))


def load_config(spec: str) -> dict:
    path = Path(spec)
    if not path.is_file():
        try:
            path = preset_path(spec)
        except InvalidInput:
            raise InvalidInput(f"config file not found: {spec}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"invalid JSON in {path}: {exc}")


_REQUIRED = object()


def _require(cfg: dict, key: str, where: str, cast=None, default=_REQUIRED):
    """cfg[key] passed through cast, or default when the field is absent
    and a default is given. A missing field, a non-object cfg, or a value
    that cast rejects (ValueError, TypeError, wrong arity) is InvalidInput
    naming the config path where.key."""
    if not isinstance(cfg, dict):
        raise InvalidInput(f"{where} must be an object")
    if key not in cfg:
        if default is _REQUIRED:
            raise InvalidInput(f"missing field {where}.{key}")
        return default
    if cast is None:
        return cfg[key]
    try:
        return cast(cfg[key])
    except (ValueError, TypeError) as exc:
        raise InvalidInput(f"{where}.{key}: {exc}") from None


def _int(value) -> int:
    """An integral JSON number (12 or 12.0) as an int; 12.7, "12" and true
    are rejected, not truncated or parsed."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"expected an integer, got {value!r}")
    return value


def _float(value) -> float:
    """A JSON number (0.01, 1 or Infinity) as a float; "0.01", true and
    NaN are rejected, not parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value != value:  # NaN, the one number unequal to itself
        raise InvalidInput(f"expected a number, got {value!r}")
    return float(value)


def _finite(cast):
    """cast, rejecting Infinity: in data it would reach the solver as NaN."""
    def finite(value):
        if not np.isfinite(out := cast(value)).all():
            raise InvalidInput("expected finite numbers")
        return out
    return finite


def _bool(value) -> bool:
    """JSON true or false; any other value ("false", 0) is rejected."""
    if not isinstance(value, bool):
        raise InvalidInput(f"expected true or false, got {value!r}")
    return value


def _sign(value) -> str:
    """"plus" or "minus"; null, "" and any other value are rejected."""
    if value not in (PLUS, MINUS):
        raise InvalidInput(f"expected 'plus' or 'minus', got {value!r}")
    return value


def _grid_values(grid: DomainGrid, spec) -> np.ndarray:
    """A number, 'inf' or a list of them, one per node -> per-node values."""
    def value(v):
        return np.inf if v == "inf" else _float(v)

    if not isinstance(spec, list):
        return np.full(grid.num_nodes, value(spec))
    if len(spec) != grid.num_nodes:
        raise InvalidInput(f"expected {grid.num_nodes} values, got {len(spec)}")
    return np.array([value(v) for v in spec])


def _build_w(op: AssembledOperator, spec: dict, where: str) -> GridFunction:
    grid = op.grid
    kind = _require(spec, "kind", where)
    if kind == "constant":
        return GridFunction(grid, np.full(grid.num_nodes, _require(
            spec, "value", where, _finite(_float))))
    if kind == "values":
        return GridFunction(grid, _require(
            spec, "values", where, _finite(lambda v: _grid_values(grid, v))))
    if kind == "sine-mixture":
        if grid.d != 1:
            raise InvalidInput(f"{where}.kind: sine-mixture source is 1D only")
        amp = _require(spec, "amplitude", where, _finite(_float), 1.0)
        modes = _require(spec, "modes", where, _int, grid.n)
        if modes < 1:  # no mode: the source would be w = 0
            raise InvalidInput(f"{where}.modes: expected at least 1 mode, "
                               f"got {modes}")
        decay = _require(spec, "decay", where, _finite(_float), 0.5)
        # sum_k amp k^-decay sqrt(2) sin(k pi x) is one sine transform, by
        # the operator's SineBasis if it has one: sqrt(2) sin(pi j k/N) =
        # sqrt(N) V[j, k], N = n + 1. Mode k is folded exactly to m = k mod
        # 2N: m in {0, N} vanishes on the nodes, and m > N is minus the mode
        # 2N - m. A finite amplitude can still overflow, in a term
        # amp k^-decay, in the modes folded onto one coefficient or in the
        # transform: each gives inf or NaN, checked once on the source
        n = grid.n
        coef = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for k in range(1, modes + 1):
                    m = k % (2 * (n + 1))
                    if m % (n + 1):
                        j, sign = ((m, 1.0) if m <= n
                                   else (2 * (n + 1) - m, -1.0))
                        coef[j - 1] += sign * amp * k**-decay
            except OverflowError:  # k**-decay beyond the float range
                raise InvalidInput(f"{where}.decay: k^-decay overflows at "
                                   f"decay = {decay:g}") from None
            V = op.V if isinstance(op.V, SineBasis) else SineBasis(n)
            w = np.sqrt(n + 1.0) * (V @ coef)
        if not np.isfinite(w).all():
            raise InvalidInput(f"{where}.amplitude: the source overflows at "
                               f"amplitude = {amp:g}, decay = {decay:g}")
        return GridFunction(grid, w)
    raise InvalidInput(f"{where}.kind: unknown w kind {kind!r}")


def build_operator(cfg: dict):
    op_cfg = _require(cfg, "operator", "config")
    kind = _require(op_cfg, "kind", "operator")
    grid = DomainGrid(_require(op_cfg, "d", "operator", _int),
                      _require(op_cfg, "n", "operator", _int))
    if kind == "poisson":
        return assemble_poisson(grid)
    if kind == "fredholm":
        k_cfg = _require(op_cfg, "kernel", "operator")
        where = "operator.kernel"
        kspec = KernelSpec(kind=_require(k_cfg, "kind", where),
                           value=_require(k_cfg, "value", where, _float, 1.0),
                           width=_require(k_cfg, "width", where, _float, 1.0))
        return assemble_fredholm(grid, kspec)
    raise InvalidInput(f"unknown operator kind {kind!r}")


def build_admissible(cfg: dict, op) -> AdmissibleSet:
    a_cfg = _require(cfg, "admissible", "config")
    grid = op.grid
    box = _require(a_cfg, "b", "admissible",
                   lambda b: BoxBounds(grid, _grid_values(grid, b)))
    region_spec = a_cfg.get("region", "all")
    if region_spec == "all":
        region = ObservationRegion.all_nodes(grid)
    else:
        inner = _require(region_spec, "inner", "admissible.region", _bool,
                         False)
        region = _require(region_spec, "bounds", "admissible.region",
                          lambda bounds: ObservationRegion.from_bounds(
                              grid, [[_float(x) for x in pair]
                                     for pair in bounds], inner=inner))
    psi = _require(a_cfg, "psi", "admissible",
                   lambda v: _grid_values(grid, v))
    state = StateConstraint(region, psi[region.indices],
                            _require(a_cfg, "lambda", "admissible", _float, 0.0),
                            _require(a_cfg, "sign", "admissible", _sign, PLUS))
    return AdmissibleSet(box, state, op)


def build_instance(cfg: dict, aset: AdmissibleSet,
                   seed: int) -> ManufacturedInstance:
    d_cfg = _require(cfg, "data", "config")
    m_cfg = _require(d_cfg, "manufactured", "data")
    where = "data.manufactured"
    w = _build_w(aset.op, _require(m_cfg, "w", where), where + ".w")
    return manufacture(
        w, aset.with_lambda(0.0),
        attainable=_require(m_cfg, "attainable", where, _bool, True),
        residual=_require(m_cfg, "residual", where, _finite(_float), 0.0),
        residual_direction=m_cfg.get("residual_direction", "random"),
        seed=_require(m_cfg, "seed", where, _int, seed))


def build_data(cfg: dict, aset: AdmissibleSet, seed: int):
    """Returns (y_d, instance-or-None)."""
    d_cfg = _require(cfg, "data", "config")
    values = _require(d_cfg, "values", "data",
                      _finite(lambda v: _grid_values(aset.op.grid, v)), None)
    if values is not None:
        return GridFunction(aset.op.grid, values), None
    inst = build_instance(cfg, aset, seed)
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
        _write_json(path, asdict(self))
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
    aset = build_admissible(cfg, build_operator(cfg))
    y_d, _ = build_data(cfg, aset, seed)
    alpha = _require(cfg, "alpha", "config", _float)
    prob = RegularizedProblem(y_d, aset, alpha)
    sol = solve(prob, tol=tol)
    rep = sol.margins
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
        "start_drops": sol.start_drops,
    }
    sol_path = out_dir / "solution.json"
    _write_json(sol_path, {
        "u": sol.u.values, "y": sol.y.values,
        "mu_lower": sol.mu_lower, "mu_upper": sol.mu_upper, "eta": sol.eta,
        "active_lower": sol.active_lower, "active_upper": sol.active_upper,
        "active_state": sol.active_state,
    })
    report.manifest.append(str(sol_path))
    return report


def cmd_manufacture(cfg: dict, out_dir: Path, tol: float, seed: int) -> RunReport:
    aset = build_admissible(cfg, build_operator(cfg))
    inst = build_instance(cfg, aset, seed)
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
    return report


def _floats(e_cfg: dict, key: str) -> list:
    return _require(e_cfg, key, "experiment", lambda v: [_float(x) for x in v])


def _pair(value) -> tuple:
    lo, hi = value
    return _float(lo), _float(hi)


def _rate_fit(fit, e_cfg: dict):
    """(rate_slope check, fit summary) of a RateFit, or of None."""
    if fit is None:
        return False, None
    lo, hi = _require(e_cfg, "slope_range", "experiment", _pair, (0.45, 0.55))
    return lo <= fit.slope <= hi, asdict(fit)


def _verify_sweep_alpha(cfg, e_cfg, aset, tol, seed):
    inst = build_instance(cfg, aset, seed)
    out = experiments.sweep_alpha(inst, _floats(e_cfg, "alpha_list"), tol=tol)
    slope_ok, fit = _rate_fit(out["fit"], e_cfg)
    checks = {"error_bounds": all(map(all, out["bound_checks"])),
              "rate_slope": slope_ok}
    return out["records"], checks, {"fit": fit}


def _verify_activity(cfg, e_cfg, aset, tol, seed):
    inst = build_instance(cfg, aset, seed)
    expect = e_cfg.get("expect", "transition")
    if expect not in ("transition", "none"):
        raise InvalidInput("experiment.expect must be 'transition' or 'none'")
    out = experiments.activity_transition(
        inst, _floats(e_cfg, "alpha_list"), tol=tol)
    if out["alpha0"] is None:
        return ([], {"activity_as_expected": expect == "none"},
                {"no_transition": "constraints still active/tight at alpha = "
                 f"{out['records'][-1].alpha:g}", "tau": inst.tau})
    return (out["records"], {"activity_as_expected": expect == "transition"},
            {"alpha0": out["alpha0"], "tau": inst.tau})


def _verify_noise(cfg, e_cfg, aset, tol, seed):
    inst = build_instance(cfg, aset, seed)
    rule = e_cfg.get("rule", {})
    out = experiments.noise_study(
        inst, _floats(e_cfg, "delta_list"),
        s=_require(rule, "s", "experiment.rule", _float, 2.0 / 3.0),
        c=_require(rule, "c", "experiment.rule", _float, 1.0),
        tol=tol, seed=seed)
    checks = {"error_bounds": all(map(all, out["bound_checks"]))}
    if inst.interior:
        checks["inactive_at_smallest_delta"] = out["delta0"] is not None
    return out["records"], checks, {"delta0": out["delta0"]}


def _verify_lavrentiev(cfg, e_cfg, aset, tol, seed):
    sign = _require(e_cfg, "sign", "experiment", _sign, PLUS)
    inst = build_instance(cfg, aset, seed)
    uhat = e_cfg.get("uhat", {"kind": "constant", "value": 0.0})
    u_hat = _build_w(aset.op, uhat, "experiment.uhat")
    out = experiments.lavrentiev_sweep(
        inst, _require(e_cfg, "alpha", "experiment", _float),
        _floats(e_cfg, "lambda_list"), sign, u_hat, tol=tol)
    # every shifted solution equal to the lambda = 0 one (no positive scaled
    # error) meets the lambda/alpha bound with constant 0
    scaled = [s for s in out["c_scaled"] if s > 0]
    checks = {"c_fit_finite": bool(np.isfinite(out["c_fit"])),
              "c_fit_stable": not scaled or max(scaled) <= 10 * min(scaled)}
    if sign == PLUS:
        checks["plus_solutions_feasible"] = all(out["plus_feasible"])
    else:
        checks["minus_violation_bounded"] = all(out["minus_violation"])
    return out["records"], checks, {"c_fit": out["c_fit"],
                                    "lam_coincide": out["lam_coincide"],
                                    "slater": out["slater"]}


def _verify_total_error(cfg, e_cfg, aset, tol, seed):
    sign = _require(e_cfg, "sign", "experiment", _sign, PLUS)
    inst = build_instance(cfg, aset, seed)
    out = experiments.total_error_study(
        inst, _floats(e_cfg, "alpha_list"),
        lam_cap=_require(e_cfg, "lambda_cap", "experiment", _float, 1e-2),
        sign=sign, tol=tol)
    slope_ok, fit = _rate_fit(out["fit"], e_cfg)
    checks = {"rate_slope": slope_ok,
              "triangle_split": all(out["triangle_checks"])}
    return out["records"], checks, {"fit": fit}


def _verify_continuity(cfg, e_cfg, aset, tol, seed):
    y_d, _ = build_data(cfg, aset, seed)
    pairs = _require(e_cfg, "pairs", "experiment",
                     lambda v: [_pair(p) for p in v])
    flags = experiments.alpha_continuity_check(y_d, aset, pairs, tol=tol)
    return [], {"continuity_bounds": all(flags)}, {"pair_flags": flags}


VERIFY = {
    "sweep-alpha": _verify_sweep_alpha,
    "activity": _verify_activity,
    "noise": _verify_noise,
    "lavrentiev": _verify_lavrentiev,
    "total-error": _verify_total_error,
    "continuity": _verify_continuity,
}


def cmd_verify(cfg: dict, out_dir: Path, tol: float, seed: int) -> RunReport:
    e_cfg = _require(cfg, "experiment", "config")
    kind = _require(e_cfg, "kind", "experiment")
    if not isinstance(kind, str) or kind not in VERIFY:
        raise InvalidInput(f"experiment.kind must be one of {tuple(VERIFY)}")
    aset = build_admissible(cfg, build_operator(cfg))
    records, checks, summaries = VERIFY[kind](cfg, e_cfg, aset, tol, seed)
    report = RunReport("verify", cfg, summaries=summaries, checks=checks)
    if records:
        csv_path = out_dir / "sweep.csv"
        csv_path.write_text(experiments.records_to_csv(records))
        report.manifest.append(str(csv_path))
    return report


COMMANDS = {"solve": cmd_solve, "verify": cmd_verify,
            "manufacture": cmd_manufacture}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiklav",
        description="Tikhonov-Lavrentiev regularization of constrained "
                    "linear inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="config JSON path or bundled preset name")
        p.add_argument("--out", default="tiklav-out", help="output directory")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--seed", type=int, default=0)
    return parser


_PARSER = _parser()  # built once: each parse starts from a new namespace


def main(argv: Optional[list] = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise InvalidInput(f"--out {out_dir} is not a directory") from None
        t0 = time.perf_counter()
        report = COMMANDS[args.command](cfg, out_dir, args.tol, args.seed)
        report.runtime_seconds = time.perf_counter() - t0
    except InvalidInput as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as exc:
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
