"""Warm starts along alpha/lambda paths: the same certified minimizers as
cold solves, with fewer active-set changes."""

import numpy as np
import pytest

from conftest import load_preset_instance, random_problem
from tiklav import qp
from tiklav.experiments import lavrentiev_sweep
from tiklav.grid import GridFunction, wnorm
from tiklav.solver import RegularizedProblem, solve


def certificate(sol):
    return max(sol.kkt_stationarity, sol.kkt_primal, sol.kkt_complementarity)


def assert_warm_matches_cold(path, tol):
    """Solve the path once chained, each solve starting from the previous
    one's active set, and once cold: both certify and agree."""
    active = None
    for prob in path:
        warm = solve(prob, tol=tol, start=active)
        cold = solve(prob, tol=tol)
        active = warm.active_set
        assert certificate(warm) <= tol and certificate(cold) <= tol
        assert wnorm(prob.op.grid, warm.u.values - cold.u.values) <= 1e-8


def preset_path(name):
    """The problems a preset's verify solves, in its order."""
    cfg, op, aset, inst = load_preset_instance(name)
    e = cfg["experiment"]
    if e["kind"] == "lavrentiev":
        sets = [aset.with_lambda(0.0)] + [
            aset.with_lambda(lam, e["sign"])
            for lam in sorted(e["lambda_list"], reverse=True)]
        return [RegularizedProblem(inst.y_d, s, e["alpha"]) for s in sets]
    return [RegularizedProblem(inst.y_d, aset, a) for a in e["alpha_list"]]


@pytest.mark.parametrize("preset", ["interior-attainable-poisson-1d",
                                    "clipped-fredholm-1d",
                                    "binding-state-poisson-2d"])
def test_preset_paths(preset):
    # tol 1e-10: a solve may accept a row violated by up to 0.1 tol, which
    # on the 2D preset's smallest lambda moves a tol 1e-8 cold solve by
    # 6e-8 from the exact minimizer
    assert_warm_matches_cold(preset_path(preset), tol=1e-10)


def test_random_alpha_lambda_paths():
    # descending alpha and lambda together, then lambda = 0
    rng = np.random.default_rng(71)
    for _ in range(40):
        prob = random_problem(rng)
        lam0 = float(rng.uniform(1e-3, 0.1))
        steps = [(prob.alpha * 0.5**k, lam0 * 0.3**k) for k in range(4)]
        steps.append((prob.alpha / 16, 0.0))
        path = [RegularizedProblem(prob.y_d, prob.aset.with_lambda(lam), a)
                for a, lam in steps]
        assert_warm_matches_cold(path, tol=1e-10)


def test_start_from_a_distant_lambda():
    # the 2D preset's lambda = 1e-2 set as the start of the lambda = 0 and
    # lambda = 1e-5 solves, and the other way round
    path = preset_path("binding-state-poisson-2d")
    first, last = solve(path[1], tol=1e-10), solve(path[-1], tol=1e-10)
    for prob, start in [(path[0], first), (path[-1], first), (path[1], last)]:
        warm = solve(prob, tol=1e-10, start=start.active_set)
        cold = solve(prob, tol=1e-10)
        assert certificate(warm) <= 1e-10
        assert wnorm(prob.op.grid, warm.u.values - cold.u.values) <= 1e-8


def test_start_forms_q_only_for_main_loop_changes(monkeypatch):
    # the start phase keeps P = R^-1 alone; Q is formed by one factorization
    # with Q rows when the main loop first changes the active set, so a
    # start that is already optimal forms none
    full, factor = [], qp._ThinQR.factor

    def counted(self, W, tol):
        full.append(self.n)
        return factor(self, W, tol)

    monkeypatch.setattr(qp._ThinQR, "factor", counted)
    path = preset_path("binding-state-poisson-2d")
    base = solve(path[0])
    full.clear()
    first = solve(path[1], start=base.active_set)
    assert first.iterations > 0 and sum(map(bool, full)) == 1
    full.clear()
    again = solve(path[1], start=first.active_set)
    assert again.iterations == 0 and not any(full)
    assert certificate(again) <= 1e-8


def test_warm_lambda_sweep_halves_active_set_changes(binding_preset):
    # a count of active-set changes, not a time: deterministic
    cfg, op, aset, inst = binding_preset
    e = cfg["experiment"]
    out = lavrentiev_sweep(inst, e["alpha"], e["lambda_list"], e["sign"],
                           GridFunction(op.grid, np.zeros(op.grid.num_nodes)))
    warm = sum(r.iters for r in out["records"])
    cold = sum(solve(RegularizedProblem(
        inst.y_d, aset.with_lambda(lam, e["sign"]), e["alpha"])).iterations
        for lam in e["lambda_list"])
    assert warm <= cold / 2
