"""Command-line interface: configs, exit codes, reports and determinism."""

import json

import pytest

from tiklav import cli


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

    def test_infeasible_exits_3(self, tmp_path):
        cfg = base_cfg()
        cfg["operator"] = {"kind": "fredholm", "d": 1, "n": 6,
                           "kernel": {"kind": "constant"}}
        cfg["admissible"]["psi"] = -1.0  # impossible for u >= 0
        rc = cli.main(["solve", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INFEASIBLE

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


class TestVerify:
    def test_unknown_kind_exits_2(self, tmp_path):
        cfg = base_cfg()
        cfg["experiment"] = {"kind": "warp"}
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

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

    def test_continuity_experiment(self, tmp_path):
        cfg = base_cfg()
        cfg["experiment"] = {"kind": "continuity",
                             "pairs": [[1e-2, 2e-2], [1e-2, 5e-3]]}
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_OK

    def test_noise_experiment(self, tmp_path):
        cfg = base_cfg()
        cfg["experiment"] = {"kind": "noise", "delta_list": [1e-2, 1e-3, 1e-4]}
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_OK

    def test_repeat_runs_byte_identical_csv(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["verify", "--config",
                           "interior-attainable-poisson-1d",
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


def test_config_round_trip_in_report(tmp_path):
    cfg = base_cfg()
    out = tmp_path / "out"
    cli.main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["config"] == cfg
    assert report["version"]
