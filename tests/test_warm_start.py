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
        prob, _ = random_problem(rng)
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
    # the start phase forms P = R^-1 alone; the thin QR, with Q, is
    # constructed once, when the main loop first changes the active set,
    # so a start that is already optimal constructs none
    built, init = [], qp._ThinQR.__init__

    def counted(self, W):
        built.append(W.shape[0])
        init(self, W)

    monkeypatch.setattr(qp._ThinQR, "__init__", counted)
    path = preset_path("binding-state-poisson-2d")
    base = solve(path[-1])  # lambda = 0, then the distant lambda = 1e-2
    built.clear()
    first = solve(path[0], start=base.active_set)
    assert first.iterations > 0 and len(built) == 1
    built.clear()
    again = solve(path[0], start=first.active_set)
    assert again.iterations == 0 and not built
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
    # each start keeps the rows its dual solve does not drop: the Solutions
    # count the dropped rows |D| as start_drops. The start phase drops
    # through its dual alone: the sweep's main loops make no change, so no
    # thin QR is built or dropped from
    dropped, qr_calls = [], []
    dual, init, drop = qp._start_dual, qp._ThinQR.__init__, qp._ThinQR.drop

    def counted_dual(P, viol):
        m, mask = dual(P, viol)
        assert m.shape == mask.shape == viol.shape
        dropped.append(int(mask.sum()))
        return m, mask

    def counted_init(self, W):
        qr_calls.append("init")
        init(self, W)

    def counted_drop(self, k):
        qr_calls.append("drop")
        return drop(self, k)

    monkeypatch.setattr(qp, "_start_dual", counted_dual)
    monkeypatch.setattr(qp._ThinQR, "__init__", counted_init)
    monkeypatch.setattr(qp._ThinQR, "drop", counted_drop)
    out, sols = sweep_solutions(monkeypatch, binding_preset)
    assert len(dropped) == len(sols) and sum(dropped) > 0
    assert sum(s.start_drops for s in sols) == sum(dropped)
    assert not qr_calls
    assert [r.iters for r in out["records"]] == [0] * len(out["records"])


def record_starts(monkeypatch):
    """Each engine call's start, appended to the list returned: the data
    d, gx, the row bounds c and feas_tol, and, when the call has a start
    phase, the start rows' ids and b_i = V^T a_i and the start dual's
    (multipliers, mask of dropped)."""
    starts = []
    engine, rows, dual = qp._dual_active_set, qp._start_rows, qp._start_dual

    def engine_(V, d, gx, upper, B, psi, feas_tol, start=None):
        starts.append({"d": d, "gx": gx, "tol": feas_tol, "c": np.concatenate(
            [np.zeros(d.size), upper, psi])})
        return engine(V, d, gx, upper, B, psi, feas_tol, start)

    def rows_(*args):
        ids, normals = rows(*args)
        starts[-1]["rows"] = ids, normals.copy()  # the engine scales them
        return ids, normals

    def dual_(P, viol):
        starts[-1]["dual"] = dual(P, viol)
        return starts[-1]["dual"]

    monkeypatch.setattr(qp, "_dual_active_set", engine_)
    monkeypatch.setattr(qp, "_start_rows", rows_)
    monkeypatch.setattr(qp, "_start_dual", dual_)
    return starts


def assert_start_is_dual_optimal(start):
    """At x = x_0 - d^-1 (m b) the kept start rows hold as equalities with
    multipliers >= 0, and every dropped one is satisfied within feas_tol.
    Returns the number of rows kept and dropped."""
    if "dual" not in start:  # x_0 violates no row: no start phase at all
        assert "rows" not in start
        return np.zeros(2, dtype=int)
    m, dropped = start["dual"]
    m = np.where(dropped, 0.0, m)  # round-off on the rows dropped
    ids, b = (a[:m.size] for a in start["rows"])
    x = -(start["gx"] + m @ b) / start["d"]
    viol = b @ x - start["c"][ids]
    assert np.all(m[~dropped] >= 0.0)
    assert np.all(np.abs(viol[~dropped]) <= start["tol"])
    assert np.all(viol[dropped] <= start["tol"])
    return np.array([np.sum(~dropped), np.sum(dropped)])


def test_start_is_the_optimum_of_its_dual(monkeypatch, binding_preset):
    # on the 2D lambda path (and manufacture's projection before it) and on
    # random alpha paths of 16-32 nodes, warm and cold: the start is the
    # minimizer over its rows, so the rows it keeps are dual feasible and
    # the rows it drops are satisfied
    starts = record_starts(monkeypatch)
    load_preset_instance("binding-state-poisson-2d")
    sweep_solutions(monkeypatch, binding_preset)
    rng = np.random.default_rng(29)
    for _ in range(20):
        (prob, _), active = random_problem(rng, (16, 24, 32),
                                           (0.3, 0.4, 0.3)), None
        for k in range(4):
            active = solve(RegularizedProblem(
                prob.y_d, prob.aset, prob.alpha * 0.3**k), tol=1e-10,
                start=active).active_set
    assert len(starts) == 9 + 80
    counts = [assert_start_is_dual_optimal(s) for s in starts]
    assert np.all(np.sum(counts[:9], axis=0) > 0)
    assert np.all(np.sum(counts[9:], axis=0) > 0)


def test_past_the_start_cap_the_empty_start_gives_the_same_set(
        monkeypatch, binding_preset):
    # with the start's dual solve capped at 0 iterations, every start falls
    # back to the empty one, the plain dual method from x_0: manufacture's
    # projection and the lambda = 1e-2 solve still certify, on the same
    # active sets as with the start kept
    cfg, op, aset, inst = binding_preset
    e = cfg["experiment"]
    prob = RegularizedProblem(inst.y_d, aset.with_lambda(1e-2, e["sign"]),
                              e["alpha"])
    results, certs = [], []
    engine, certify = qp.solve_box_state_qp, qp.certify

    def recorded(*args):
        results.append(engine(*args))
        return results[-1]

    def certified(*args):
        certs.append(certify(*args))
        return certs[-1]

    monkeypatch.setattr(qp, "solve_box_state_qp", recorded)
    monkeypatch.setattr(qp, "certify", certified)
    runs = []
    for cap in (qp.START_ITERS, 0):
        monkeypatch.setattr(qp, "START_ITERS", cap)
        load_preset_instance("binding-state-poisson-2d")
        solve(prob, tol=1e-8)
        runs.append(results[-2:])
    # the fallback's projection and solve, each with its certificate
    # (mu_lower, mu_upper, stationarity, primal, complementarity)
    for kept, fallback, cert, tol in zip(*runs, certs[-2:], (1e-10, 1e-8)):
        assert max(cert[2:]) <= tol
        assert np.array_equal(fallback.active, kept.active)
        assert kept.iterations == 0 < fallback.iterations
        assert fallback.start_drops > kept.start_drops


def test_cold_start_is_the_rows_violated_at_the_unconstrained_minimizer(
        monkeypatch, binding_preset):
    # a solve with no start factors the rows violated by more than 0.1 tol
    # at x_0, the point solve_unconstrained returns: the only rows its start
    # phase gathers
    cfg, op, aset, inst = binding_preset
    e = cfg["experiment"]
    starts, inner = [], qp._start_rows

    def captured(start, *args):
        starts.append(start)
        return inner(start, *args)

    monkeypatch.setattr(qp, "_start_rows", captured)
    lam_set = aset.with_lambda(1e-2, e["sign"])
    prob = RegularizedProblem(inst.y_d, lam_set, e["alpha"])
    sol = solve(prob, tol=1e-8)
    assert certificate(sol) <= 1e-8
    u0 = solve_unconstrained(prob).values
    n = u0.size
    lo, up, st = lam_set.slack(u0, op.apply_values(u0))
    violated = np.concatenate([np.flatnonzero(lo < -1e-9),
                               n + np.flatnonzero(up < -1e-9),
                               2 * n + np.flatnonzero(st < -1e-9)])
    assert len(starts) == 1 and violated.size
    assert np.array_equal(starts[0], violated)
