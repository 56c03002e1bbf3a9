"""Command-line interface: configs, exit codes, reports and determinism."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from tiklav import cli, qp
from tiklav.errors import NonConvergence
from tiklav.grid import DomainGrid
from tiklav.operators import KernelSpec, assemble_fredholm, assemble_poisson
from tiklav.solver import RegularizedProblem, solve

INF = float("inf")


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def base_cfg():
    return {
        "operator": {"kind": "poisson", "d": 1, "n": 12},
        "admissible": {"b": 1.0, "psi": 1.0, "region": "all"},
        "data": {"manufactured": {"w": {"kind": "constant", "value": 0.5}}},
        "alpha": 0.01,
    }


class TestConfigLoading:
    def test_preset_names_resolve(self):
        for name in ("interior-attainable-poisson-1d", "clipped-fredholm-1d",
                     "binding-state-poisson-2d"):
            cfg = cli.load_config(name)
            assert "operator" in cfg and "experiment" in cfg

    def test_unknown_config_exits_2(self, tmp_path, capsys):
        rc = cli.main(["solve", "--config", "no-such-file.json",
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = cli.main(["solve", "--config", str(p), "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    def test_missing_field_names_the_path(self, tmp_path, capsys):
        cfg = base_cfg()
        del cfg["operator"]
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert "config.operator" in capsys.readouterr().err

    def test_bad_kernel_kind_exits_2(self, tmp_path):
        cfg = base_cfg()
        cfg["operator"] = {"kind": "fredholm", "d": 1, "n": 8,
                           "kernel": {"kind": "constant"}}
        cfg["operator"]["kind"] = "warp"
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG


class TestSolve:
    def test_solve_writes_solution_and_report(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, base_cfg()),
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        sol = json.loads((out / "solution.json").read_text())
        assert len(sol["u"]) == 12
        assert report["summaries"]["kkt"]["stationarity"] <= 1e-8
        assert report["summaries"]["projection_formula_residual"] <= 1e-7

    def test_solve_reports_start_drops(self, tmp_path):
        # the 2D preset's cold solve keeps only some of the rows violated at
        # the unconstrained minimizer; the rest, the start drops, are
        # reported beside the main loop's iterations
        out, name = tmp_path / "out", "binding-state-poisson-2d"
        rc = cli.main(["solve", "--config", name, "--seed", "0", "--tol",
                       "1e-8", "--out", str(out)])
        assert rc == cli.EXIT_OK
        summary = json.loads((out / "report.json").read_text())["summaries"]
        cfg = cli.load_config(name)
        aset = cli.build_admissible(cfg, cli.build_operator(cfg))
        y_d, _ = cli.build_data(cfg, aset, 0)
        sol = solve(RegularizedProblem(y_d, aset, cfg["alpha"]), tol=1e-8)
        assert summary["start_drops"] == sol.start_drops > 0
        assert summary["iterations"] == sol.iterations

    def test_infeasible_exits_3(self, tmp_path):
        cfg = base_cfg()
        cfg["operator"] = {"kind": "fredholm", "d": 1, "n": 6,
                           "kernel": {"kind": "constant"}}
        cfg["admissible"]["psi"] = -1.0  # impossible for u >= 0
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INFEASIBLE

    def test_certificate_miss_exits_4(self, tmp_path, monkeypatch, capsys):
        def miss(*args):
            raise NonConvergence("no KKT certificate")

        monkeypatch.setattr(qp, "certify", miss)
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, base_cfg()),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_NONCONVERGENCE
        assert capsys.readouterr().err.startswith("nonconvergence: ")

    def test_huge_data_round_off_is_finite(self, tmp_path, capsys):
        # a source of amplitude 1e200 makes |x_0| overflow as a plain
        # norm; the round-off bound of the nonconvergence message stays
        # finite (and pytest makes numpy's overflow warning an error)
        cfg = _with(base_cfg(), ["data", "manufactured", "w"], {
            "kind": "sine-mixture", "amplitude": 1e200, "modes": 1,
            "decay": 0})
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_NONCONVERGENCE
        err = capsys.readouterr().err
        assert "within its round-off 5.217e+185" in err

    def test_explicit_data_values(self, tmp_path):
        cfg = base_cfg()
        cfg["data"] = {"values": [0.1] * 12}
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_OK


class TestManufacture:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["manufacture", "--config",
                       write_cfg(tmp_path, base_cfg()), "--out", str(out)])
        assert rc == cli.EXIT_OK
        inst = json.loads((out / "instance.json").read_text())
        assert inst["grid"] == {"d": 1, "n": 12}
        assert "alpha*" in capsys.readouterr().out


def _experiment(cfg, **experiment):
    cfg["experiment"] = experiment
    return cfg


def _interior(**experiment):
    return _experiment(cli.load_config("interior-attainable-poisson-1d"),
                       **experiment)


def _binding_2d(sign):
    cfg = cli.load_config("binding-state-poisson-2d")
    cfg["operator"]["n"] = 8
    cfg["experiment"]["sign"] = sign
    return cfg


ALPHAS = [1e-1, 3.16e-2, 1e-2, 3.16e-3, 1e-3, 3.16e-4, 1e-4]

# id -> (config, names of the checks its report carries); every run passes
VERIFY_CASES = {
    "sweep-alpha": (_interior(kind="sweep-alpha", alpha_list=ALPHAS),
                    {"error_bounds", "rate_slope"}),
    "activity": (_interior(kind="activity",
                           alpha_list=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5]),
                 {"activity_as_expected"}),
    "noise": (_experiment(base_cfg(), kind="noise",
                          delta_list=[1e-2, 1e-3, 1e-4]),
              {"error_bounds", "inactive_at_smallest_delta"}),
    "lavrentiev-plus": (_binding_2d("plus"), {"c_fit_finite", "c_fit_stable",
                                              "plus_solutions_feasible"}),
    "lavrentiev-minus": (_binding_2d("minus"), {"c_fit_finite", "c_fit_stable",
                                                "minus_violation_bounded"}),
    "total-error-plus": (_interior(kind="total-error", alpha_list=ALPHAS,
                                   lambda_cap=1e-4, sign="plus"),
                         {"rate_slope", "triangle_split"}),
    "total-error-minus": (_interior(kind="total-error", alpha_list=ALPHAS,
                                    lambda_cap=1e-4, sign="minus"),
                          {"rate_slope", "triangle_split"}),
    "continuity": (_experiment(base_cfg(), kind="continuity",
                               pairs=[[1e-2, 2e-2], [1e-2, 5e-3]]),
                   {"continuity_bounds"}),
}


class TestVerify:
    def test_unknown_kind_exits_2(self, tmp_path):
        cfg = base_cfg()
        cfg["experiment"] = {"kind": "warp"}
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_out_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        # the output directory cannot be made where a file is: a config
        # error naming the path, not a traceback
        out = tmp_path / "report"
        out.write_text("")
        rc = cli.main(["verify", "--config", "interior-attainable-poisson-1d",
                       "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: --out {out} is not a directory\n"
        assert out.read_text() == ""

    def test_sweep_alpha_passes_on_interior_preset(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["verify", "--config", "interior-attainable-poisson-1d",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["checks"] == {"error_bounds": True, "rate_slope": True}
        assert (out / "sweep.csv").exists()

    def test_failed_check_exits_5(self, tmp_path):
        cfg = json.loads(
            (cli.preset_path("interior-attainable-poisson-1d")).read_text())
        cfg["experiment"]["slope_range"] = [0.9, 1.1]  # unattainable slope
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CHECK_FAILED

    def test_activity_expectation_mismatch_exits_5(self, tmp_path):
        cfg = json.loads((cli.preset_path("clipped-fredholm-1d")).read_text())
        cfg["experiment"]["expect"] = "transition"  # preset never deactivates
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CHECK_FAILED

    @pytest.mark.parametrize("case", VERIFY_CASES, ids=list(VERIFY_CASES))
    def test_verify_kind(self, case, tmp_path):
        cfg, checks = VERIFY_CASES[case]
        out = tmp_path / "o"
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert set(report["checks"]) == checks

    def test_lavrentiev_coincidence_passes(self, tmp_path):
        # every shifted solution equals the lambda = 0 one: the lambda/alpha
        # bound holds with constant 0, so c_fit_stable holds vacuously
        cfg = base_cfg()
        cfg["operator"]["n"] = 24
        cfg["admissible"].update(b=10.0, psi=0.05)
        cfg["experiment"] = {"kind": "lavrentiev", "sign": "minus",
                             "alpha": 1e-3,
                             "lambda_list": [1e-2, 1e-3, 1e-4]}
        out = tmp_path / "o"
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["summaries"]["c_fit"] == 0.0
        assert report["checks"]["c_fit_stable"] is True
        assert rc == cli.EXIT_OK

    def test_no_rate_fit_exits_5(self, tmp_path):
        # w = 0 gives u_bar = 0 and err_u = 0 on the whole path: no alpha
        # lies in the fit window, so there is no fit and rate_slope fails
        cfg = _experiment(
            _with(base_cfg(), ["data", "manufactured", "w", "value"], 0.0),
            kind="sweep-alpha", alpha_list=ALPHAS)
        out = tmp_path / "o"
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == cli.EXIT_CHECK_FAILED
        report = json.loads((out / "report.json").read_text())
        assert report["summaries"] == {"fit": None}
        assert report["checks"]["rate_slope"] is False

    def test_every_kind_has_a_case(self):
        kinds = {cfg["experiment"]["kind"] for cfg, _ in VERIFY_CASES.values()}
        assert kinds == set(cli.VERIFY)

    def test_repeat_runs_byte_identical_csv(self, tmp_path):
        # the 2D preset's lambda path is warm-started: a second run in the
        # same process shows no state carried over from the first
        for preset in ("interior-attainable-poisson-1d",
                       "binding-state-poisson-2d"):
            outs = []
            for name in ("a", "b"):
                out = tmp_path / preset / name
                rc = cli.main(["verify", "--config", preset,
                               "--out", str(out), "--seed", "0"])
                assert rc == cli.EXIT_OK
                outs.append((out / "sweep.csv").read_bytes())
            assert outs[0] == outs[1]


@pytest.mark.parametrize("preset", ["interior-attainable-poisson-1d",
                                    "clipped-fredholm-1d",
                                    "binding-state-poisson-2d"])
def test_preset_report_is_strict_json(preset, tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = tmp_path / "out"
    assert cli.main(["verify", "--config", preset, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["checks"] and all(report["checks"].values())


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ATOL = 1e-7  # 10 tol: the c_fit jitter across reachable active sets


def _assert_close(got, want, where):
    """Strings, booleans and integers equal; floats within GOLDEN_ATOL."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            _assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= GOLDEN_ATOL, \
            (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _csv_cell(cell):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


@pytest.mark.parametrize("preset", ["interior-attainable-poisson-1d",
                                    "clipped-fredholm-1d",
                                    "binding-state-poisson-2d",
                                    "binding-state-poisson-2d-n24"])
def test_preset_matches_golden(preset, tmp_path):
    # tests/golden/<preset> holds the checks, the summaries and the
    # sweep.csv of a reference run; a change of code that keeps the
    # results keeps these. A directory with a config.json pins that config
    # instead of a preset: binding-state-poisson-2d-n24 is the 2D preset at
    # n = 24, whose lambda path keeps 252-480 active rows
    out = tmp_path / "out"
    config = GOLDEN / preset / "config.json"
    config = str(config) if config.exists() else preset
    assert cli.main(["verify", "--config", config, "--out", str(out)]) == cli.EXIT_OK
    _assert_matches_golden(out, preset)


def _assert_matches_golden(out, preset):
    """The report and sweep.csv of a verify in `out` match
    tests/golden/<preset>."""
    golden = GOLDEN / preset
    report = json.loads((out / "report.json").read_text())
    want = json.loads((golden / "report.json").read_text())
    _assert_close({k: report[k] for k in want}, want, preset)
    assert (out / "sweep.csv").exists() == (golden / "sweep.csv").exists()
    if (golden / "sweep.csv").exists():
        got, want = ([[_csv_cell(c) for c in line.split(",")]
                      if i else line.split(",")
                      for i, line in enumerate(p.read_text().splitlines())]
                     for p in (out / "sweep.csv", golden / "sweep.csv"))
        _assert_close(got, want, f"{preset}/sweep.csv")


@pytest.mark.parametrize("n", [96, 2048])
def test_interior_verify_has_no_start_phase(n, tmp_path, monkeypatch):
    # no row is violated at any x_0 of the interior preset (96 nodes, and
    # the benchmark's 2048): every engine call returns x_0 with no start
    # rows gathered, no factorization (neither the start's P nor a thin QR)
    # and no start dual, and the preset's outputs are still the golden ones
    calls = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(qp, "_start_rows")
    counted(qp, "_start_dual")
    counted(qp, "_start_p")
    counted(qp._ThinQR, "__init__")
    preset = "interior-attainable-poisson-1d"
    cfg = cli.load_config(preset)
    cfg["operator"]["n"] = n
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    assert calls == []
    if n == 96:
        _assert_matches_golden(out, preset)


def test_main_builds_no_parser(tmp_path, monkeypatch):
    # the parser is built once, at import
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for name in ("a", "b"):
        assert cli.main(["solve", "--config", write_cfg(tmp_path, base_cfg()),
                         "--out", str(tmp_path / name)]) == cli.EXIT_OK
    assert built == []


def test_config_round_trip_in_report(tmp_path):
    cfg = base_cfg()
    out = tmp_path / "out"
    cli.main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["config"] == cfg
    assert report["version"]


def _with(cfg, path, value):
    """cfg with the entry at the key path set to value."""
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _lavrentiev_cfg(uhat=None, **experiment):
    cfg = base_cfg()
    cfg["experiment"] = {"kind": "lavrentiev", "alpha": 0.01,
                         "lambda_list": [1e-2, 1e-3],
                         "uhat": uhat or {"kind": "constant", "value": 0.0}}
    cfg["experiment"].update(experiment)
    return cfg


def _non_attainable(**manufactured):
    cfg = base_cfg()
    cfg["data"]["manufactured"].update(attainable=False, **manufactured)
    return cfg


# command (with any extra arguments), config, id and, for some, the config
# field the message names; each is rejected with exit code 2 and a
# "config error: " line
REJECTED = [
    ("solve", _with(base_cfg(), ["alpha"], 0), "alpha-zero"),
    ("solve", _with(base_cfg(), ["admissible", "b"], -1), "negative-b"),
    ("solve", _with(base_cfg(), ["admissible", "psi"], float("-inf")),
     "psi-minus-inf"),
    ("solve", _with(base_cfg(), ["operator"], {
        "kind": "fredholm", "d": 1, "n": 8,
        "kernel": {"kind": "gaussian", "width": -1}}), "negative-width"),
    ("verify", _with(cli.load_config("binding-state-poisson-2d"),
                     ["operator", "n"], 70), "grid-too-large"),
    ("verify", _lavrentiev_cfg({"kind": "constant", "value": -1.0}),
     "uhat-not-slater"),
    ("verify", _experiment(base_cfg(), kind="noise", delta_list=[1e-2],
                           rule={"s": 1.5}), "noise-rule-exponent"),
    ("verify", _experiment(base_cfg(), kind="sweep-alpha",
                           alpha_list=[1e-1, 1e-2, 1e-3]), "short-alpha-list"),
    ("verify", _experiment(base_cfg(), kind="activity",
                           alpha_list=[1e-3, 1e-2, 1e-1, 1e-4]),
     "unsorted-alpha-list"),
    ("solve", _non_attainable(), "non-attainable-without-residual"),
    ("solve", _with(base_cfg(), ["operator", "n"], "abc"), "grid-n-not-a-number"),
    ("verify", _experiment(base_cfg(), kind="sweep-alpha", alpha_list="abc"),
     "alpha-list-not-numbers"),
    ("verify", _experiment(base_cfg(), kind="noise", delta_list=[]),
     "empty-delta-list"),
    ("verify", _lavrentiev_cfg(sign="bogus"), "lavrentiev-bad-sign"),
    ("verify", _lavrentiev_cfg(lambda_list=[1e-2, -1e-3]),
     "lavrentiev-negative-lambda"),
    ("verify", _experiment(base_cfg(), kind="total-error", alpha_list=ALPHAS,
                           sign="bogus"), "total-error-bad-sign"),
    ("verify", _experiment(base_cfg(), kind="continuity", pairs=[[0.1]]),
     "continuity-pair-arity"),
    ("verify", _experiment(base_cfg(), kind="sweep-alpha", alpha_list=ALPHAS,
                           slope_range=[0.4]), "slope-range-arity"),
    ("verify", _experiment(base_cfg(), kind="sweep-alpha", alpha_list=ALPHAS,
                           slope_range="ab"), "slope-range-not-numbers"),
    ("solve --tol -1", base_cfg(), "negative-tol"),
    ("solve --tol 0", base_cfg(), "zero-tol"),
    ("solve --tol inf", base_cfg(), "infinite-tol"),
    ("verify", _lavrentiev_cfg(lambda_list=[]), "empty-lambda-list"),
    ("verify", _experiment(base_cfg(), kind="continuity", pairs=[]),
     "empty-pairs"),
    ("solve", _non_attainable(residual=0.1, residual_direction="uniform"),
     "unknown-residual-direction"),
    ("solve", _with(base_cfg(), ["operator", "n"], 12.7), "grid-n-fractional"),
    ("solve", _with(base_cfg(), ["operator", "n"], "12"), "grid-n-string"),
    ("solve", _with(base_cfg(), ["operator", "d"], True), "grid-d-boolean"),
    ("solve", _non_attainable(residual=0.1, seed=2.5), "seed-fractional"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"],
                    {"kind": "sine-mixture", "modes": 3.5}), "modes-fractional"),
    # no mode would build the source w = 0
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"],
                    {"kind": "sine-mixture", "modes": 0}), "modes-zero",
     "data.manufactured.w.modes"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"],
                    {"kind": "sine-mixture", "modes": -5}), "modes-negative",
     "data.manufactured.w.modes"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "attainable"],
                    "false"), "attainable-string"),
    ("solve", _with(base_cfg(), ["admissible", "region"],
                    {"bounds": [[0.25, 0.75]], "inner": "false"}),
     "region-inner-string"),
    ("solve", _with(base_cfg(), ["alpha"], "0.01"), "alpha-string"),
    ("solve", _with(base_cfg(), ["admissible", "b"], True), "b-boolean"),
    ("solve", _with(base_cfg(), ["admissible", "psi"], [True] * 12),
     "psi-boolean-entry"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"],
                    {"kind": "sine-mixture", "amplitude": "1.0"}),
     "amplitude-string"),
    ("verify", _lavrentiev_cfg(lambda_list=["1e-2", "1e-3"]),
     "lambda-list-string"),
    # a Gaussian Gram matrix is singular to round-off, so 2(S*S + alpha I)
    # is not definite at this alpha
    ("solve", _with(_with(base_cfg(), ["operator"], {
        "kind": "fredholm", "d": 1, "n": 24,
        "kernel": {"kind": "gaussian", "width": 0.3}}), ["alpha"], 1e-30),
     "alpha-below-round-off"),
    # JSON's NaN and Infinity: NaN is no number, and lambda must be finite
    ("solve", _with(base_cfg(), ["admissible", "lambda"], float("nan")),
     "lambda-nan"),
    ("solve", _with(base_cfg(), ["admissible", "lambda"], float("inf")),
     "lambda-infinity"),
    ("solve", _non_attainable(residual=float("nan")), "residual-nan"),
    ("verify", _lavrentiev_cfg(lambda_list=[float("nan")]), "lambda-list-nan"),
    ("verify", _lavrentiev_cfg(lambda_list=[float("inf")]),
     "lambda-list-infinity"),
    # data, sources and residuals must be finite: Infinity would reach the
    # solver's transforms as NaN
    ("solve", _with(base_cfg(), ["data"], {"values": [0.1] * 11 + [INF]}),
     "data-values-infinity", "data.values"),
    ("solve", _with(base_cfg(), ["data"], {"values": [0.1] * 11 + ["inf"]}),
     "data-values-inf-string", "data.values"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w", "value"], INF),
     "w-constant-infinity", "data.manufactured.w.value"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"], {
        "kind": "values", "values": [0.5] * 11 + [-INF]}),
     "w-values-minus-infinity", "data.manufactured.w.values"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"], {
        "kind": "sine-mixture", "amplitude": INF}),
     "w-amplitude-infinity", "data.manufactured.w.amplitude"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"], {
        "kind": "sine-mixture", "decay": -INF}),
     "w-decay-minus-infinity", "data.manufactured.w.decay"),
    # a finite decay whose mode amplitudes k^-decay overflow a float
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"], {
        "kind": "sine-mixture", "modes": 32, "decay": -300}),
     "w-decay-overflow", "data.manufactured.w.decay"),
    # a finite amplitude whose modes overflow a float: in a term amp k^-decay,
    # and, with one mode, in the sine transform
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"], {
        "kind": "sine-mixture", "amplitude": 1e300, "modes": 32,
        "decay": -10}), "w-amplitude-overflow",
     "data.manufactured.w.amplitude"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"], {
        "kind": "sine-mixture", "amplitude": 1e307, "modes": 1, "decay": 0}),
     "w-amplitude-transform-overflow", "data.manufactured.w.amplitude"),
    ("solve", _non_attainable(residual=INF), "residual-infinity",
     "data.manufactured.residual"),
    ("verify", _lavrentiev_cfg({"kind": "constant", "value": INF}),
     "uhat-infinity", "experiment.uhat.value"),
    # the rate fit needs >= 4 alphas, as in sweep-alpha
    ("verify", _experiment(base_cfg(), kind="total-error", alpha_list=[]),
     "total-error-empty-alpha-list"),
    ("verify", _experiment(base_cfg(), kind="total-error",
                           alpha_list=[1e-1, 1e-2, 1e-3]),
     "total-error-short-alpha-list"),
    # a sign is "plus" or "minus": null and "" do not fall back to the
    # admissible set's sign
    ("verify", _lavrentiev_cfg(sign=None), "lavrentiev-null-sign",
     "experiment.sign"),
    ("verify", _lavrentiev_cfg(sign=""), "lavrentiev-empty-sign",
     "experiment.sign"),
    ("verify", _experiment(base_cfg(), kind="total-error", alpha_list=ALPHAS,
                           sign=None), "total-error-null-sign",
     "experiment.sign"),
    ("solve", _with(base_cfg(), ["admissible", "sign"], None),
     "admissible-null-sign", "admissible.sign"),
    ("solve", _with(base_cfg(), ["admissible", "region"], "inner"),
     "region-not-an-object", "admissible.region"),
    ("solve", _with(base_cfg(), ["admissible", "psi"], [1.0] * 5),
     "psi-wrong-length", "admissible.psi"),
    ("solve", _with(base_cfg(), ["admissible", "region"],
                    {"bounds": [[0.25, 0.75], [0.25, 0.75]]}),
     "region-bounds-pair-count", "admissible.region.bounds"),
    ("solve", _with(_with(base_cfg(), ["operator", "d"], 2),
                    ["data", "manufactured", "w"],
                    {"kind": "sine-mixture"}),
     "sine-mixture-2d", "data.manufactured.w.kind"),
    ("solve", _with(base_cfg(), ["data", "manufactured", "w"],
                    {"kind": "warp"}), "unknown-w-kind",
     "data.manufactured.w.kind"),
    ("verify", _experiment(base_cfg(), kind="activity", alpha_list=ALPHAS,
                           expect="sometimes"), "bad-activity-expect",
     "experiment.expect"),
]


@pytest.mark.parametrize("command, cfg, field",
                         [(*case[:2], *(case[3:] or [""])) for case in REJECTED],
                         ids=[case[2] for case in REJECTED])
def test_library_errors_from_config_values_exit_2(command, cfg, field,
                                                  tmp_path, capsys):
    rc = cli.main(command.split() + ["--config", write_cfg(tmp_path, cfg),
                                     "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


def test_integral_numbers_and_json_booleans_accepted(tmp_path):
    # 12.0 is an integral JSON number; true and false are the booleans
    cfg = _with(base_cfg(), ["operator", "n"], 12.0)
    cfg["admissible"]["region"] = {"bounds": [[0.25, 0.75]], "inner": False}
    cfg["data"]["manufactured"].update(attainable=True, seed=3.0)
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    assert len(json.loads((out / "solution.json").read_text())["u"]) == 12


def test_inf_spelling_accepted(tmp_path):
    # "inf" marks an absent bound, as a scalar or as a list entry
    cfg = _with(base_cfg(), ["admissible", "b"], "inf")
    cfg["admissible"]["psi"] = [1.0] * 11 + ["inf"]
    assert cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_OK


def test_active_state_and_eta_number_the_same_rows(tmp_path):
    # psi = inf on nodes 0-2 leaves 9 state rows (row j at node j + 3), of
    # which some bind: active_state and eta both count those rows
    cfg = _non_attainable(w={"kind": "constant", "value": 2.0}, residual=0.5,
                          residual_direction="constant")
    cfg["admissible"].update(b=10.0, psi=["inf"] * 3 + [0.005] * 9)
    cfg["alpha"] = 1e-3
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    eta = np.array(sol["eta"])
    active = np.array(sol["active_state"], dtype=int)
    assert eta.size == 9 and active.size > 0 and active.max() < eta.size
    assert np.any(eta[active] > 0) and np.all(np.delete(eta, active) == 0)


def test_slater_cap_reads_only_state_rows(tmp_path):
    # u_hat is nonzero only on node 0, which has no state row (psi = inf),
    # so no lambda shifts a row: lam_max is inf and lambda = 0.1 solves
    cfg = _lavrentiev_cfg({"kind": "values", "values": [5.0] + [0.0] * 11},
                          lambda_list=[0.1, 0.01, 0.001])
    cfg["admissible"].update(b=10.0, psi=["inf"] + [0.05] * 11)
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["summaries"]["slater"]["lam_max"] == "inf"


@pytest.mark.parametrize("n", [3, 16, 97])
def test_sine_mixture_is_the_per_mode_sum(n):
    # one sine transform of the folded mode coefficients equals the sum of
    # amp k^-decay sqrt(2) sin(k pi x) over the modes, also above n, where
    # the modes fold back (m = k mod 2(n+1); 0 and n+1 vanish on the nodes)
    op = assemble_poisson(DomainGrid(1, n))
    x = op.grid.coords[:, 0]
    for modes in (1, n // 2, n, n + 1, 2 * n + 2, 3 * n + 5):
        spec = {"kind": "sine-mixture", "amplitude": 1.3, "modes": modes,
                "decay": 0.7}
        got = cli._build_w(op, spec, "w").values
        want = np.zeros(n)
        for k in range(1, modes + 1):
            want += 1.3 * k**-0.7 * np.sqrt(2.0) * np.sin(k * np.pi * x)
        assert np.max(np.abs(got - want)) \
            <= 1e-13 * max(np.max(np.abs(want)), 1.0), modes


def test_sine_mixture_from_the_operator_basis_is_a_fresh_one(tmp_path):
    # the 1D Poisson operator's own SineBasis gives the source bit for bit
    # as the fresh SineBasis(n) of a 1D Fredholm operator, whose V is an
    # eigh basis; a Fredholm verify with that source passes
    spec = {"kind": "sine-mixture", "amplitude": 5.0, "modes": 8,
            "decay": 0.7}
    kernel = KernelSpec("gaussian", width=0.2)
    for n in (16, 97, 300):
        grid = DomainGrid(1, n)
        own = cli._build_w(assemble_poisson(grid), spec, "w").values
        fresh = cli._build_w(assemble_fredholm(grid, kernel), spec, "w").values
        assert np.array_equal(own, fresh), n
    cfg = cli.load_config("clipped-fredholm-1d")
    cfg["data"]["manufactured"]["w"] = spec
    assert cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_OK
