"""Regularized solver against the enumeration oracle and closed forms."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import tiklav
from conftest import random_problem
from reference import assemble, oracle_solve
from tiklav import cli, experiments
from tiklav.admissible import (AdmissibleSet, BoxBounds, StateConstraint,
                               feasibility, project_admissible)
from tiklav.errors import InvalidInput, NonConvergence
from tiklav.grid import DomainGrid, GridFunction, ObservationRegion, wnorm
from tiklav.manufacture import manufacture
from tiklav.operators import (AssembledOperator, KernelSpec, SineBasis,
                              apply, assemble_poisson)
from tiklav.solver import (RegularizedProblem, projection_formula_residual,
                           solve, solve_unconstrained)


def loose_problem(n=8, alpha=0.1, b=np.inf, psi=100.0, grid=None):
    """A problem whose constraints are all inactive at the optimum."""
    grid = grid or DomainGrid(1, n)
    op = assemble_poisson(grid)
    n = grid.num_nodes
    state = StateConstraint(ObservationRegion.all_nodes(grid), np.full(n, psi))
    aset = AdmissibleSet(BoxBounds.constant(grid, b), state, op)
    x = grid.coords
    y_d = GridFunction(grid, np.prod(x * (1 - x), axis=1))
    return RegularizedProblem(y_d, aset, alpha)


class TestSolve:
    def test_matches_unconstrained_when_interior(self):
        # with no active row the engine's exit is the closed form V(-gx/d)
        # itself, bit for bit, in 1D and 2D
        for grid in (DomainGrid(1, 8), DomainGrid(2, 5)):
            prob = loose_problem(grid=grid)
            sol = solve(prob, tol=1e-10)
            assert np.array_equal(sol.u.values,
                                  solve_unconstrained(prob).values)
            assert len(sol.active_lower) == 0
            assert len(sol.active_upper) == 0
            assert len(sol.active_state) == 0

    def test_kkt_certificates(self):
        prob = loose_problem(psi=0.001, b=1.0)
        sol = solve(prob, tol=1e-9)
        assert sol.kkt_stationarity <= 1e-9
        assert sol.kkt_primal <= 1e-9
        assert sol.kkt_complementarity <= 1e-9

    def test_objective_is_minimal_among_feasible_samples(self):
        prob = loose_problem(psi=0.002, b=0.5, alpha=0.05)
        sol = solve(prob, tol=1e-10)
        rng = np.random.default_rng(2)
        g = prob.op.grid
        for _ in range(20):
            z = project_admissible(
                GridFunction(g, rng.standard_normal(g.num_nodes)),
                prob.aset, tol=1e-10)
            assert prob.objective(sol.u.values) <= prob.objective(z.values) + 1e-9

    def test_alpha_must_be_positive(self):
        prob = loose_problem()
        with pytest.raises(InvalidInput, match="alpha must be positive"):
            solve(RegularizedProblem(prob.y_d, prob.aset, 0.0))
        for alpha in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInput, match="alpha must be positive"):
                RegularizedProblem(prob.y_d, prob.aset, alpha)

    def test_data_on_another_grid_rejected(self):
        prob = loose_problem()
        with pytest.raises(InvalidInput, match="problem grids differ"):
            RegularizedProblem(GridFunction(DomainGrid(1, 9), np.zeros(9)),
                               prob.aset, prob.alpha)
        # a 9-node y_d on an 8-node operator, and 16 nodes in 1D on a 4 x 4
        # operator in 2D; projection_formula_residual likewise rejects a
        # solution on such a grid
        for y_grid, op_grid in ((DomainGrid(1, 9), DomainGrid(1, 8)),
                                (DomainGrid(1, 16), DomainGrid(2, 4))):
            y_d = GridFunction(y_grid, np.ones(y_grid.num_nodes))
            with pytest.raises(InvalidInput, match="problem grids differ"):
                RegularizedProblem(y_d, loose_problem(grid=op_grid).aset, 0.1)
        for sol_grid, op_grid in ((DomainGrid(1, 8), DomainGrid(1, 9)),
                                  (DomainGrid(1, 16), DomainGrid(2, 4))):
            sol = solve(loose_problem(grid=sol_grid))
            with pytest.raises(InvalidInput, match="problem grids differ"):
                projection_formula_residual(sol, loose_problem(grid=op_grid))

    def test_operator_is_the_sets(self):
        # V^T y_d, which `at` carries over, belongs to the set's operator
        prob = loose_problem()
        assert prob.op is prob.aset.op
        other = assemble_poisson(prob.op.grid)
        aset = AdmissibleSet(prob.aset.box, prob.aset.state, other)
        with pytest.raises(InvalidInput, match="another operator"):
            prob.at(aset=aset)
        assert prob.at(aset=prob.aset.with_lambda(0.1)).op is prob.op

    def test_projection_formula_residual_small(self):
        prob = loose_problem(psi=0.002, b=0.5, alpha=0.05)
        sol = solve(prob, tol=1e-9)
        assert projection_formula_residual(sol, prob, tol=1e-8) <= 1e-7

    def test_perturbed_point_fails_projection_formula(self):
        prob = loose_problem(psi=0.002, b=0.5, alpha=0.05)
        sol = solve(prob, tol=1e-9)
        bad = solve(prob, tol=1e-9)
        bad.u = GridFunction(prob.op.grid, sol.u.values + 0.1)
        bad.y = apply(prob.op, bad.u)
        assert projection_formula_residual(bad, prob, tol=1e-8) >= 0.05


def _mixed_bound_problem(rng, sign):
    """A random problem with a Lavrentiev shift of the given sign and
    b = +inf on some nodes, b in [0.05, 1] on the others, and its dense S."""
    prob, S = random_problem(rng, n_choices=(4, 5, 6), n_probs=(0.4, 0.4, 0.2))
    grid = prob.op.grid
    b = rng.uniform(0.05, 1.0, grid.num_nodes)
    b[rng.random(grid.num_nodes) < 0.4] = np.inf
    b[rng.integers(grid.num_nodes)] = np.inf
    state = replace(prob.aset.state, lam=float(rng.uniform(1e-3, 0.1)),
                    sign=sign)
    aset = AdmissibleSet(BoxBounds(grid, b), state, prob.op)
    return RegularizedProblem(prob.y_d, aset, prob.alpha), S


class TestOracle:
    def test_cap_enforced(self):
        prob = loose_problem(n=16)
        with pytest.raises(InvalidInput, match="exceeds the oracle cap"):
            oracle_solve(prob, np.eye(16))

    def test_matches_solver_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            prob, S = random_problem(rng, (4, 5, 6), (0.4, 0.4, 0.2))
            s = solve(prob, tol=1e-10)
            o = oracle_solve(prob, S, tol=1e-10)
            assert wnorm(prob.op.grid, s.u.values - o.u.values) <= 1e-8
            assert np.array_equal(s.active_lower, o.active_lower)
            assert np.array_equal(s.active_upper, o.active_upper)
            assert np.array_equal(s.active_state, o.active_state)

    def test_pinned_near_degenerate_instance(self):
        # Fredholm, n=5, plus sign, lam ~ 0.091, alpha ~ 1.2e-3: an earlier
        # engine certified a point 1.03e-8 away from the oracle here
        rng = np.random.default_rng(0)
        for _ in range(121):
            prob, S = random_problem(rng)
        assert prob.op.grid.num_nodes == 5 and prob.aset.sign == "plus"
        s = solve(prob, tol=1e-10)
        o = oracle_solve(prob, S, tol=1e-10)
        assert wnorm(prob.op.grid, s.u.values - o.u.values) <= 1e-8
        assert np.array_equal(s.active_lower, o.active_lower)
        assert np.array_equal(s.active_upper, o.active_upper)
        assert np.array_equal(s.active_state, o.active_state)

    @pytest.mark.parametrize("seed, draw", [(8, 83), (10, 70)])
    def test_oracle_skips_inexact_patterns(self, seed, draw):
        # 1D Poisson, n=4: the block system of a near-singular pattern once
        # solved without error, and the oracle returned that point with
        # stationarity 10.7 (seed 8) or 0.147 (seed 10)
        rng = np.random.default_rng(seed)
        for _ in range(draw + 1):
            prob, S = random_problem(rng)
        assert prob.op.grid.num_nodes == 4
        s = solve(prob, tol=1e-10)
        o = oracle_solve(prob, S, tol=1e-10)
        assert o.kkt_stationarity <= 1e-9
        assert wnorm(prob.op.grid, s.u.values - o.u.values) <= 1e-8
        assert np.array_equal(s.active_lower, o.active_lower)
        assert np.array_equal(s.active_upper, o.active_upper)
        assert np.array_equal(s.active_state, o.active_state)

    def test_active_row_ids_match_oracle(self):
        # the solver's and the oracle's active sets are one array of row
        # ids: on strictly complementary instances (every pattern
        # multiplier and every other slack > 1e-6) with some b = +inf and
        # both Lavrentiev signs they are equal, and a solve started from
        # the oracle's set makes no active-set change
        rng = np.random.default_rng(31)
        kept, kinds = 0, set()
        for k in range(60):
            prob, S = _mixed_bound_problem(rng, ("plus", "minus")[k % 2])
            o = oracle_solve(prob, S, tol=1e-10)
            aset = prob.aset
            lo, up, st = aset.slack(o.u.values, o.y.values)
            slack = np.concatenate([lo, up, st[np.isfinite(aset.state.psi)]])
            mult = np.concatenate([o.mu_lower, o.mu_upper, o.eta])
            ids = o.active_set
            if not (np.all(mult[ids] > 1e-6)
                    and np.all(np.delete(slack, ids) > 1e-6)):
                continue
            kept += 1
            kinds.update(np.minimum(ids // prob.op.grid.num_nodes, 2))
            assert np.array_equal(solve(prob, tol=1e-10).active_set, ids)
            warm = solve(prob, tol=1e-10, start=ids)
            assert max(warm.kkt_stationarity, warm.kkt_primal,
                       warm.kkt_complementarity) <= 1e-10
            assert warm.iterations == 0
        assert kept >= 20 and kinds == {0, 1, 2}  # lower, upper, state

    def test_oracle_multipliers_dual_feasible(self):
        rng = np.random.default_rng(77)
        prob, S = random_problem(rng, n_choices=(5,), n_probs=(1.0,))
        o = oracle_solve(prob, S, tol=1e-10)
        assert np.all(o.mu_lower >= -1e-9)
        assert np.all(o.mu_upper >= -1e-9)
        assert np.all(o.eta >= -1e-9)
        assert o.kkt_stationarity <= 1e-7


def test_solution_continuity_in_alpha():
    prob = loose_problem(psi=0.002, b=0.5, alpha=1e-2)
    g = prob.op.grid
    sols = {}
    for a in (1e-2, 2e-2, 5e-3):
        sols[a] = solve(RegularizedProblem(prob.y_d, prob.aset, a),
                        tol=1e-10)
    for a, b in [(1e-2, 2e-2), (1e-2, 5e-3), (2e-2, 5e-3)]:
        lhs = wnorm(g, sols[b].u.values - sols[a].u.values)
        assert lhs <= abs(a - b) / b * sols[a].u.norm() + 1e-7


def counted_interior_preset(monkeypatch):
    """The interior preset's operator and instance with every application
    of its SineBasis counted: each is one DST, behind V @ x and V.T @ x
    (not a row lookup V[i], nor the Green's function behind S u and the
    state rows at u); returns (op, instance, list of the calls)."""
    cfg = cli.load_config("interior-attainable-poisson-1d")
    op = cli.build_operator(cfg)
    assert isinstance(op.V, SineBasis)
    calls, inner = [], SineBasis.__matmul__

    def counting(self, x):
        calls.append(1)
        return inner(self, x)

    monkeypatch.setattr(SineBasis, "__matmul__", counting)
    inst = cli.build_instance(cfg, cli.build_admissible(cfg, op), 0)
    return op, inst, calls


class TestOneEvaluation:
    """y, the objective, the margins and the active rows of a solved point
    all come from one S u, the one the certificate's gradient formed."""

    def test_one_apply_per_solve_record_and_instance(self, monkeypatch):
        # sine transforms: a problem forms V^T y_d once, and the problems a
        # path derives from it share it; an interior solve then makes 1, the
        # engine's u = V x, and a closed-form solve 1, its V x. The state
        # rows at u (B x), the certificate's gradient
        # 2(S(S u - y_d) + alpha u) and the Solution's S u are Green's
        # function applies in node space. manufacture makes 2 (V^T w for the
        # coefficients s * V^T w of S* w, and the projection's V x) and 2
        # applies of S (S* w, and the certificate's S u, its y_d)
        op, inst, calls = counted_interior_preset(monkeypatch)
        applies, apply_values = [], AssembledOperator.apply_values

        def counting(self, values):
            applies.append(1)
            return apply_values(self, values)

        monkeypatch.setattr(AssembledOperator, "apply_values", counting)
        calls.clear()
        manufacture(inst.w, inst.aset)
        assert len(calls) == 2 and len(applies) == 2
        calls.clear()
        solve(RegularizedProblem(inst.y_d, inst.aset, 1e-2))
        assert len(calls) == 1 + 1
        calls.clear()
        out = experiments.sweep_alpha(inst, [1e-1, 1e-2, 1e-3, 1e-4])
        assert len(out["records"]) == 4 and len(calls) == 1 + 4 * 1
        calls.clear()
        prob = RegularizedProblem(inst.y_d, inst.aset, 1e-1)
        for a in (1e-1, 1e-2, 1e-3, 1e-4):
            solve_unconstrained(prob.at(a))
        assert len(calls) == 1 + 4

    def test_verify_at_n_2048_makes_13_transforms(self, monkeypatch,
                                                  tmp_path):
        # the sweep-1d-large verify: the sine-mixture source (1),
        # manufacture (2), V^T y_d (1) and 9 interior solves (1 each)
        cfg = cli.load_config("interior-attainable-poisson-1d")
        cfg["operator"]["n"] = 2048
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        calls, inner = [], SineBasis.__matmul__

        def counting(self, x):
            calls.append(1)
            return inner(self, x)

        monkeypatch.setattr(SineBasis, "__matmul__", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "--config", str(path), "--seed", "0",
                           "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_OK and len(calls) == 13

    def test_margins_are_the_feasibility_report(self):
        # (the oracle's margins come from its own dense S u)
        rng = np.random.default_rng(20240817)  # criterion 3's first instances
        for _ in range(50):
            prob, _ = random_problem(rng)
            sol = solve(prob, tol=1e-10)
            assert sol.margins == feasibility(sol.u, prob.aset)


class _SwappedModes(SineBasis):
    """V P, the sine basis with its first two modes swapped: orthonormal,
    so H = (V P) diag(d) (V P)^T is a self-consistent Hessian, but not the
    eigenbasis of S, so that H is not the problem's."""

    def __init__(self, n):
        super().__init__(n)
        self.perm = np.r_[1, 0, 2:n]

    def __matmul__(self, x):
        return super().__matmul__(np.asarray(x)[self.perm])

    def __getitem__(self, i):
        return super().__getitem__(i)[..., self.perm]

    @property
    def T(self):
        return _SwappedModesT(self)


class _SwappedModesT:
    """(V P)^T = P V^T for a `_SwappedModes` V P."""

    def __init__(self, VP):
        self.VP = VP

    def __matmul__(self, x):
        return SineBasis.__matmul__(self.VP, x)[self.VP.perm]


def test_certificate_checks_the_problem_not_the_basis():
    # the engine iterates in a wrong basis and stops at the minimizer of
    # the wrong H; stationarity measured in that basis is round-off, but
    # the problem's own gradient 2(S(S u - y_d) + alpha u) is not
    grid = DomainGrid(1, 16)
    V = _SwappedModes(grid.n)
    D = V[:]
    assert np.allclose(D.T @ D, np.eye(16), atol=1e-13)
    op = assemble_poisson(grid)
    y_d = GridFunction(grid, np.random.default_rng(7).standard_normal(16))
    for basis, certified in ((op.V, True), (V, False)):
        op_b = AssembledOperator(grid, basis, op.s)
        state = StateConstraint(ObservationRegion.all_nodes(grid),
                                np.full(16, 100.0))
        aset = AdmissibleSet(BoxBounds.constant(grid, np.inf), state, op_b)
        prob = RegularizedProblem(y_d, aset, 0.1)
        if certified:
            assert solve(prob).kkt_stationarity <= 1e-8
        else:
            with pytest.raises(NonConvergence, match="no KKT certificate"):
                solve(prob)


def _box_only(op, seed):
    """Data y_d = S(1.5 sin 3 pi x) plus noise and a box-only set on op:
    0 <= u <= b, b uniform in [0.5, 1.5] and +inf on ~20% of the nodes,
    and no finite psi."""
    grid = op.grid
    rng = np.random.default_rng(seed)
    w = 1.5 * np.prod(np.sin(3 * np.pi * grid.coords), axis=1)
    y_d = op.apply_values(w) + 1e-3 * rng.standard_normal(grid.num_nodes)
    b = rng.uniform(0.5, 1.5, grid.num_nodes)
    b[rng.random(grid.num_nodes) < 0.2] = np.inf
    state = StateConstraint(ObservationRegion.all_nodes(grid), np.inf)
    return GridFunction(grid, y_d), AdmissibleSet(BoxBounds(grid, b), state,
                                                  op)


@pytest.mark.parametrize("grid, kernel", [
    (DomainGrid(1, 200), None),
    (DomainGrid(2, 24), None),
    (DomainGrid(1, 300), KernelSpec("gaussian", width=0.1)),
], ids=["poisson-1d", "poisson-2d", "fredholm"])
def test_box_only_solves_match_bvls(grid, kernel):
    # an exact active-set solver in separate code: BVLS on
    # min |[S; sqrt(alpha) I] u - [y_d; 0]|^2 over 0 <= u <= b, the same
    # problem; a cold solve, then a warm path down in alpha, with hundreds
    # of active bounds, QR buffer growth and, in 2D and Fredholm, drops
    from scipy.optimize import lsq_linear
    op, S = assemble(grid, kernel)
    y_d, aset = _box_only(op, 0)
    n = grid.num_nodes
    start = None
    for alpha in (1e-4, 1e-5, 1e-6):
        sol = solve(RegularizedProblem(y_d, aset, alpha), tol=1e-10,
                    start=start)
        start = sol.active_set
        ref = lsq_linear(np.vstack([S, np.sqrt(alpha) * np.eye(n)]),
                         np.concatenate([y_d.values, np.zeros(n)]),
                         bounds=(0.0, aset.box.upper), method="bvls",
                         tol=1e-12)
        assert ref.status > 0
        assert wnorm(op.grid, sol.u.values - ref.x) <= 1e-10, alpha
    assert sol.active_lower.size > n // 2 and sol.active_upper.size > 0


def test_box_only_solve_applies_s_once(monkeypatch):
    # with no finite psi the state rows are empty: the engine's slack
    # evaluations form no T u, and S is applied twice, S u and
    # S(S u - y_d), by the certificate's gradient, whose S u the Solution
    # reuses
    op = assemble_poisson(DomainGrid(1, 200))
    y_d, aset = _box_only(op, 1)
    prob = RegularizedProblem(y_d, aset, 1e-6)
    calls, inner = [], AssembledOperator.apply_values

    def counting(self, values):
        calls.append(1)
        return inner(self, values)

    monkeypatch.setattr(AssembledOperator, "apply_values", counting)
    sol = solve(prob, tol=1e-10)
    assert sol.active_lower.size > 100 and len(calls) == 2


def test_poisson_solve_uses_no_gram_and_no_cholesky(monkeypatch):
    # the closed-form eigenbasis stands in for S^T S and every
    # factorization, in 1D or 2D
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    for mod, name in [(np.linalg, "cholesky"), (sla, "cholesky"),
                      (sla, "cho_factor"), (sla, "cho_solve")]:
        monkeypatch.setattr(mod, name, forbidden)
    for grid in (DomainGrid(1, 8), DomainGrid(2, 5)):
        prob = loose_problem(grid=grid, psi=0.002, b=0.5, alpha=0.05)
        sol = solve(prob, tol=1e-10)
        assert len(sol.active_state) > 0
        assert projection_formula_residual(sol, prob, tol=1e-8) <= 1e-7
        solve_unconstrained(prob)


def test_solve_does_not_import_scipy_optimize(tmp_path):
    # nor scipy.sparse or scipy.fft: each costs a cold import in set-up
    code = (
        "import sys, tiklav.cli\n"
        "for preset in ('binding-state-poisson-2d',"
        " 'interior-attainable-poisson-1d'):\n"
        "    rc = tiklav.cli.main(['solve', '--config', preset,"
        f" '--out', {str(tmp_path)!r}])\n"
        "    assert rc == 0, rc\n"
        "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.fft')"
        " if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(tiklav.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"


def _modules_after(code: str, prefix: str = "scipy") -> str:
    """The modules under `prefix` a fresh interpreter has loaded after
    `code`."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules"
             f" if m.startswith({prefix!r})))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(tiklav.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _modules_after("import tiklav.cli") == "[]"


def test_cli_import_loads_no_fft():
    # numpy.fft loads on the first 1D sine transform, not on import
    assert _modules_after("import tiklav.cli", "numpy.fft") == "[]"


def test_2d_verify_builds_no_sine_basis(monkeypatch, tmp_path):
    # the 2D preset keeps the dense Kronecker basis, on which its state
    # rows are an EigenRows
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(SineBasis, "__init__", forbidden)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "--config", "binding-state-poisson-2d",
                       "--seed", "0", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK


def test_interior_verify_loads_no_scipy(tmp_path):
    # no row of the interior preset's solves ever becomes active, so the
    # engine never reaches scipy.linalg
    code = ("import contextlib, io, tiklav.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = tiklav.cli.main(['verify', '--config',"
            " 'interior-attainable-poisson-1d', '--seed', '0', '--out',"
            f" {str(tmp_path)!r}])\n"
            "assert rc == 0, rc\n")
    assert _modules_after(code) == "[]"


@pytest.mark.parametrize("preset", ["binding-state-poisson-2d",
                                    "clipped-fredholm-1d"])
def test_active_verify_loads_no_scipy(preset, tmp_path):
    # rows of these presets' solves become active and leave again: the
    # engine's adds and drops run on numpy alone
    code = ("import contextlib, io, tiklav.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = tiklav.cli.main(['verify', '--config',"
            f" {preset!r}, '--seed', '0', '--out', {str(tmp_path)!r}])\n"
            "assert rc == 0, rc\n")
    assert _modules_after(code) == "[]"


def test_presets_verify_without_scipy(tmp_path):
    # scipy is a test dependency only: with it unimportable, every preset
    # verifies and exits 0
    presets = ("interior-attainable-poisson-1d", "clipped-fredholm-1d",
               "binding-state-poisson-2d")
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import contextlib, io, tiklav.cli\n"
            f"for preset in {presets!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = tiklav.cli.main(['verify', '--config', preset,"
            f" '--seed', '0', '--out', {str(tmp_path)!r} + '/' + preset])\n"
            "    assert rc == 0, (preset, rc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(tiklav.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
