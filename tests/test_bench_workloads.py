"""Smoke test of the benchmark's workloads: each one declared in
BENCHMARK.json, built by bench/workloads.py and run once in process, passes
every operation it checks (the verify call, its exit code and its checks)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _workloads(monkeypatch):
    """bench/workloads.py as a module, leaving no bytecode cache under
    bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses
    spec.loader.exec_module(module)
    return module


NAMES = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_without_a_failed_operation(name, tmp_path,
                                                  monkeypatch):
    work = _workloads(monkeypatch).make(name, tmp_path, seed=1)
    ops = work.run().ops
    assert "verify" in ops and "exit" in ops
    assert any(key[0] == "check" for key in ops if isinstance(key, tuple))
    assert {key: note for key, note in ops.items() if note is not None} == {}
