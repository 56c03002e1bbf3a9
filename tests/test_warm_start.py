"""Warm starts along alpha/lambda paths: the same certified minimizers as
cold solves, with fewer active-set changes."""

import numpy as np
import pytest

from conftest import load_preset_instance, random_problem
from tiklav import experiments, qp
from tiklav.experiments import lavrentiev_sweep
from tiklav.grid import GridFunction, wnorm
from tiklav.solver import RegularizedProblem, solve, solve_unconstrained


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
    if e["kind"] == "lavrentiev":  # the lams descending, then lam = 0
        sets = [aset.with_lambda(lam, e["sign"])
                for lam in sorted(e["lambda_list"], reverse=True)]
        sets.append(aset.with_lambda(0.0))
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
    first, last = solve(path[0], tol=1e-10), solve(path[-2], tol=1e-10)
    for prob, start in [(path[-1], first), (path[-2], first), (path[0], last)]:
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
    base = solve(path[-1])  # lambda = 0, then the distant lambda = 1e-2
    full.clear()
    first = solve(path[0], start=base.active_set)
    assert first.iterations > 0 and sum(map(bool, full)) == 1
    full.clear()
    again = solve(path[0], start=first.active_set)
    assert again.iterations == 0 and not any(full)
    assert certificate(again) <= 1e-8


def sweep_solutions(monkeypatch, preset):
    """lavrentiev_sweep on a preset's experiment with every Solution it
    solves captured, in its order; returns (output, solutions)."""
    cfg, op, aset, inst = preset
    e = cfg["experiment"]
    sols, inner = [], experiments.solve

    def captured(*args, **kwargs):
        sols.append(inner(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(experiments, "solve", captured)
    out = lavrentiev_sweep(inst, e["alpha"], e["lambda_list"], e["sign"],
                           GridFunction(op.grid, np.zeros(op.grid.num_nodes)))
    return out, sols


def work(sol):
    """The engine's active-set changes: main loop and start drops."""
    return sol.iterations + sol.start_drops


def test_warm_lambda_sweep_halves_active_set_changes(monkeypatch,
                                                     binding_preset):
    # a count of active-set changes, not a time: deterministic. The sweep
    # solves every lam and then lam = 0; the cold solves start from the
    # rows violated at the unconstrained minimizer, as its largest lam does
    cfg, op, aset, inst = binding_preset
    e = cfg["experiment"]
    out, sols = sweep_solutions(monkeypatch, binding_preset)
    assert len(sols) == len(out["records"]) + 1
    warm = sum(map(work, sols))
    cold = sum(work(solve(RegularizedProblem(
        inst.y_d, aset.with_lambda(lam, e["sign"]), e["alpha"])))
        for lam in e["lambda_list"])
    assert warm <= cold / 2


def test_start_drops_are_the_start_phase_drops(monkeypatch, binding_preset):
    # every drop of P alone (a _ThinQR with no Q rows) is a start drop, and
    # the Solutions count each one
    drops, inner = [], qp._ThinQR.drop

    def counted(self, k):
        drops.append(self.n == 0)
        return inner(self, k)

    monkeypatch.setattr(qp._ThinQR, "drop", counted)
    out, sols = sweep_solutions(monkeypatch, binding_preset)
    assert sum(drops) > 0
    assert sum(s.start_drops for s in sols) == sum(drops)
    assert [r.iters for r in out["records"]] == [0] * len(out["records"])


def test_cold_start_is_the_rows_violated_at_the_unconstrained_minimizer(
        monkeypatch, binding_preset):
    # a solve with no start factors the rows violated by more than 0.1 tol
    # at x_0, the point solve_unconstrained returns
    cfg, op, aset, inst = binding_preset
    e = cfg["experiment"]
    starts, inner = [], qp._start_rows

    def captured(start, *args):
        starts.append(start)
        return inner(start, *args)

    monkeypatch.setattr(qp, "_start_rows", captured)
    lam_set = aset.with_lambda(1e-2, e["sign"])
    sol = solve(RegularizedProblem(inst.y_d, lam_set, e["alpha"]), tol=1e-8)
    assert certificate(sol) <= 1e-8
    u0 = solve_unconstrained(op, inst.y_d, e["alpha"]).values
    n = u0.size
    lo, up, st = lam_set.slack(u0, op.apply_values(u0))
    violated = np.concatenate([np.flatnonzero(lo < -1e-9),
                               n + np.flatnonzero(up < -1e-9),
                               2 * n + np.flatnonzero(st < -1e-9)])
    assert starts[0] is None and violated.size
    assert np.array_equal(starts[-1], violated)
