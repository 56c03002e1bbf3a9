"""Footprint of the spectral solve path: what a verify holds in memory and
builds more than once."""

import contextlib
import io
import json
import tracemalloc

from tiklav import cli
from tiklav.grid import DomainGrid
from tiklav.operators import EigenRows, KernelSpec, assemble_fredholm


def _verify(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "--config", str(path), "--seed", "0",
                       "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK


def test_state_rows_built_once_per_interior_verify(monkeypatch, tmp_path):
    # manufacture and the sweep both ask for the lambda = 0 set, which is
    # the configured set itself: one EigenRows for the whole verify
    calls = []
    inner = EigenRows.__init__

    def counting(self, op, idx, shift):
        calls.append(idx.size)
        inner(self, op, idx, shift)

    monkeypatch.setattr(EigenRows, "__init__", counting)
    _verify(cli.load_config("interior-attainable-poisson-1d"), tmp_path)
    assert len(calls) == 1


def test_interior_verify_holds_no_dense_basis_or_rows(tmp_path):
    # numpy's traced peak over a whole verify at n = 2048 stays below an
    # eighth of one dense n x n table: the 1D sine basis is applied by FFT
    # and the state rows are implicit, so neither V nor B is ever formed
    # (tracemalloc counts numpy's buffers exactly, unlike the process RSS)
    n = 2048
    cfg = cli.load_config("interior-attainable-poisson-1d")
    cfg["operator"]["n"] = n
    tracemalloc.start()
    try:
        _verify(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8 / 8, peak



def test_fredholm_operator_keeps_no_dense_matrix():
    # after assembly a Fredholm operator holds its eigenpairs, one n x n V,
    # and not the quadrature matrix S that its eigh split
    n = 512
    tracemalloc.start()
    try:
        op = assemble_fredholm(DomainGrid(1, n),
                               KernelSpec("gaussian", width=0.3))
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert op.V.shape == (n, n) and current <= 1.25 * n * n * 8, current
