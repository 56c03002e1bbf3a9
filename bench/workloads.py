"""The benchmark's workloads: inputs made from a seed, one run, its checks.

Importing this module imports tiklav, so the caller times it as part of
set-up, as it does each workload's constructor and `warm_up`. Every run of a
workload has the same inputs, so its operations have the same keys in every
run. The program's failures are kept in `Outcome` instead of raising.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tiklav import cli

VERIFY_TOL = 1e-8    # the `tiklav verify` default


@dataclass
class Outcome:
    """Operations of one run besides the `solver.solve` calls, which the
    caller counts from their spans: operation key -> None when it passed,
    else the failure note."""

    ops: dict = field(default_factory=dict)

    def passed(self, key) -> None:
        self.ops[key] = None

    def fail(self, key, note: str) -> None:
        self.ops[key] = note


class VerifyWorkload:
    """`tiklav verify` in process on one config: assembly, manufacture,
    sweep, checks and report I/O, as a user runs it."""

    tol = VERIFY_TOL

    def __init__(self, name: str, config: dict, warm_config: dict,
                 out_dir: Path, seed: int):
        self.name = name
        self.out = out_dir / name
        self.config_path = self._write(out_dir / f"{name}.json", config)
        self.warm_path = self._write(out_dir / f"{name}-warm.json", warm_config)
        self.seed = seed

    @staticmethod
    def _write(path: Path, config: dict) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config, indent=2, allow_nan=False) + "\n")
        return path

    def _verify(self, config_path: Path, out: Path) -> int:
        argv = ["verify", "--config", str(config_path), "--out", str(out),
                "--tol", repr(self.tol), "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self) -> None:
        """The same verify on a small grid: pays the lazy imports once."""
        self._verify(self.warm_path, self.out.parent / f"{self.name}-warm")

    def run(self) -> Outcome:
        out = Outcome()
        report_path = self.out / "report.json"
        report_path.unlink(missing_ok=True)
        try:
            code = self._verify(self.config_path, self.out)
            # not strict: the program may write Infinity into report.json
            report = json.loads(report_path.read_text())
        except Exception:
            out.fail("verify", traceback.format_exc(limit=3))
            return out
        out.passed("verify")
        checks = report.get("checks", {})
        for name, ok in checks.items():
            if ok is True:
                out.passed(("check", name))
            else:
                out.fail(("check", name), f"verify check {name} failed")
        if code not in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED) or not checks:
            out.fail("exit", f"verify exited with code {code}")
        else:
            out.passed("exit")
        return out


def _resized(config: dict, n: int) -> dict:
    config = copy.deepcopy(config)
    config["operator"]["n"] = n
    return config


def make(name: str, out_dir: Path, seed: int):
    """Build the named workload (its set-up) without running it."""
    if name == "lavrentiev-2d":
        cfg = cli.load_config("binding-state-poisson-2d")
        return VerifyWorkload(name, cfg, _resized(cfg, 4), out_dir, seed)
    if name == "sweep-1d-large":
        cfg = cli.load_config("interior-attainable-poisson-1d")
        return VerifyWorkload(name, _resized(cfg, 2048), _resized(cfg, 32),
                              out_dir, seed)
    raise ValueError(f"unknown workload {name!r}")
