"""Regularized solver against the enumeration oracle and closed forms."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import tiklav
from conftest import random_problem
from tiklav import cli, qp
from tiklav.admissible import (AdmissibleSet, BoxBounds, StateConstraint,
                               feasibility, project_admissible)
from tiklav.errors import AlphaNonPositive, OracleTooLarge
from tiklav.grid import DomainGrid, GridFunction, ObservationRegion, constant, wnorm
from tiklav.operators import (AssembledOperator, KernelSpec, apply,
                              assemble_fredholm, assemble_poisson)
from tiklav.solver import (RegularizedProblem, oracle_solve, pseudo_inverse,
                           projection_formula_residual, solve,
                           solve_unconstrained)


def loose_problem(n=8, alpha=0.1, b=np.inf, psi=100.0, grid=None):
    """A problem whose constraints are all inactive at the optimum."""
    grid = grid or DomainGrid(1, n)
    op = assemble_poisson(grid)
    n = grid.num_nodes
    state = StateConstraint(ObservationRegion.all_nodes(grid), np.full(n, psi))
    aset = AdmissibleSet(BoxBounds.constant(grid, b), state, op)
    x = grid.coords
    y_d = GridFunction(grid, np.prod(x * (1 - x), axis=1))
    return RegularizedProblem(op, y_d, aset, alpha)


class TestSolve:
    def test_matches_unconstrained_when_interior(self):
        prob = loose_problem()
        sol = solve(prob, tol=1e-10)
        free = solve_unconstrained(prob.op, prob.y_d, prob.alpha)
        assert np.allclose(sol.u.values, free.values, atol=1e-8)
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
        with pytest.raises(AlphaNonPositive):
            solve(RegularizedProblem(prob.op, prob.y_d, prob.aset, 0.0))
        with pytest.raises(AlphaNonPositive):
            solve_unconstrained(prob.op, prob.y_d, -1.0)

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


class TestOracle:
    def test_cap_enforced(self):
        prob = loose_problem(n=16)
        with pytest.raises(OracleTooLarge):
            oracle_solve(prob)

    def test_matches_solver_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            prob = random_problem(rng, n_choices=(4, 5, 6), n_probs=(0.4, 0.4, 0.2))
            s = solve(prob, tol=1e-10)
            o = oracle_solve(prob, tol=1e-10)
            assert wnorm(prob.op.grid, s.u.values - o.u.values) <= 1e-8
            assert np.array_equal(s.active_lower, o.active_lower)
            assert np.array_equal(s.active_upper, o.active_upper)
            assert np.array_equal(s.active_state, o.active_state)

    def test_pinned_near_degenerate_instance(self):
        # Fredholm, n=5, plus sign, lam ~ 0.091, alpha ~ 1.2e-3: an earlier
        # engine certified a point 1.03e-8 away from the oracle here
        rng = np.random.default_rng(0)
        for _ in range(121):
            prob = random_problem(rng)
        assert prob.op.grid.num_nodes == 5 and prob.aset.sign == "plus"
        s = solve(prob, tol=1e-10)
        o = oracle_solve(prob, tol=1e-10)
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
            prob = random_problem(rng)
        assert prob.op.grid.num_nodes == 4
        s = solve(prob, tol=1e-10)
        o = oracle_solve(prob, tol=1e-10)
        assert o.kkt_stationarity <= 1e-9
        assert wnorm(prob.op.grid, s.u.values - o.u.values) <= 1e-8
        assert np.array_equal(s.active_lower, o.active_lower)
        assert np.array_equal(s.active_upper, o.active_upper)
        assert np.array_equal(s.active_state, o.active_state)

    def test_oracle_multipliers_dual_feasible(self):
        rng = np.random.default_rng(77)
        prob = random_problem(rng, n_choices=(5,), n_probs=(1.0,))
        o = oracle_solve(prob, tol=1e-10)
        assert np.all(o.mu_lower >= -1e-9)
        assert np.all(o.mu_upper >= -1e-9)
        assert np.all(o.eta >= -1e-9)
        assert o.kkt_stationarity <= 1e-7


class TestPseudoInverse:
    def test_rank_one_minimal_norm_closed_form(self):
        # separable kernel: S u = x * (h x.u); data y_d = x is attainable and
        # the minimal-norm preimage is the multiple of x with h x.u = 1
        g = DomainGrid(1, 9)
        op = assemble_fredholm(g, KernelSpec("separable"))
        x = g.coords[:, 0]
        state = StateConstraint(ObservationRegion.all_nodes(g), np.full(9, 100.0))
        aset = AdmissibleSet(BoxBounds.constant(g, 5.0), state, op)
        y_d = GridFunction(g, x)
        out = pseudo_inverse(op, y_d, aset, tol=1e-10)
        expected = x / (g.h * (x @ x))
        assert out.residual_norm <= 1e-6
        assert np.allclose(out.u.values, expected, atol=1e-4)
        # any other preimage z of y_d has larger norm
        rng = np.random.default_rng(8)
        for _ in range(10):
            null = rng.standard_normal(9)
            null -= (null @ x) / (x @ x) * x  # stay in the kernel of S
            z = expected + 0.5 * null
            if np.all(z >= 0) and np.all(z <= 5.0):
                assert out.norm <= wnorm(g, z) + 1e-6

    def test_attainable_data_recovers_near_zero_residual(self):
        g = DomainGrid(1, 8)
        op = assemble_poisson(g)
        state = StateConstraint(ObservationRegion.all_nodes(g), np.full(8, 100.0))
        aset = AdmissibleSet(BoxBounds.constant(g, 10.0), state, op)
        u_true = GridFunction(g, np.full(8, 0.5))
        y_d = apply(op, u_true)
        out = pseudo_inverse(op, y_d, aset, tol=1e-10)
        assert out.residual_norm <= 1e-6
        assert np.allclose(out.u.values, 0.5, atol=1e-4)

    def test_unattainable_data_residual_matches_stage_one(self):
        # y_d far above what the box allows: residual floor is positive and
        # the returned point is feasible
        g = DomainGrid(1, 6)
        op = assemble_fredholm(g, KernelSpec("constant"))
        state = StateConstraint(ObservationRegion.all_nodes(g), np.full(6, 100.0))
        aset = AdmissibleSet(BoxBounds.constant(g, 1.0), state, op)
        y_d = constant(g, 10.0)
        out = pseudo_inverse(op, y_d, aset, tol=1e-9)
        assert out.residual_norm > 1.0
        assert feasibility(out.u, aset).feasible
        # the residual floor is attained by u = b (monotone kernel)
        r_at_cap = wnorm(g, op.apply_values(np.ones(6)) - y_d.values)
        assert out.residual_norm <= r_at_cap + 1e-6


def test_solution_continuity_in_alpha():
    prob = loose_problem(psi=0.002, b=0.5, alpha=1e-2)
    g = prob.op.grid
    sols = {}
    for a in (1e-2, 2e-2, 5e-3):
        sols[a] = solve(RegularizedProblem(prob.op, prob.y_d, prob.aset, a),
                        tol=1e-10)
    for a, b in [(1e-2, 2e-2), (1e-2, 5e-3), (2e-2, 5e-3)]:
        lhs = wnorm(g, sols[b].u.values - sols[a].u.values)
        assert lhs <= abs(a - b) / b * sols[a].u.norm() + 1e-7


class TestNoFallback:
    """On a positive-definite H one dual active-set solve is certified on its
    own: the proximal route never runs."""

    @pytest.fixture
    def solve_counts(self, monkeypatch):
        """Dual active-set calls made by each solve_box_state_qp call."""
        counts = []
        engine, inner = qp.solve_box_state_qp, qp._dual_active_set

        def counting_engine(*args, **kwargs):
            counts.append(0)
            return engine(*args, **kwargs)

        def counting_inner(*args, **kwargs):
            counts[-1] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(qp, "solve_box_state_qp", counting_engine)
        monkeypatch.setattr(qp, "_dual_active_set", counting_inner)
        return counts

    def test_random_instances(self, solve_counts):
        rng = np.random.default_rng(31)
        for _ in range(200):
            solve(random_problem(rng), tol=1e-10)
        assert solve_counts == [1] * 200

    @pytest.mark.parametrize("preset", ["interior-attainable-poisson-1d",
                                        "clipped-fredholm-1d",
                                        "binding-state-poisson-2d"])
    def test_preset_verify(self, preset, tmp_path, solve_counts):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "--config", preset, "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        assert solve_counts and set(solve_counts) == {1}


def test_poisson_solve_uses_no_gram_and_no_cholesky(monkeypatch):
    # the closed-form eigenbasis stands in for S, S^T S and every
    # factorization: no dense S is read on the solve path, in 1D or 2D
    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    for name in ("gram", "matrix"):
        monkeypatch.setattr(AssembledOperator, name, property(forbidden))
    for mod, name in [(np.linalg, "cholesky"), (sla, "cholesky"),
                      (sla, "cho_factor"), (sla, "cho_solve")]:
        monkeypatch.setattr(mod, name, forbidden)
    for grid in (DomainGrid(1, 8), DomainGrid(2, 5)):
        prob = loose_problem(grid=grid, psi=0.002, b=0.5, alpha=0.05)
        sol = solve(prob, tol=1e-10)
        assert len(sol.active_state) > 0
        assert projection_formula_residual(sol, prob, tol=1e-8) <= 1e-7
        solve_unconstrained(prob.op, prob.y_d, prob.alpha)
        pseudo_inverse(prob.op, prob.y_d, prob.aset, tol=1e-9)


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
