"""The QP engine against closed-form and enumeration ground truth."""

import numpy as np
import pytest

from tiklav.errors import InfeasibleProblem
from tiklav.qp import (QPResult, solve_box_state_qp, spectral_norm,
                       sym_spectral_bound)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 5))
    assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-9)


def test_sym_spectral_bound_matches_eig():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    H = A @ A.T
    assert sym_spectral_bound(H) == pytest.approx(
        np.max(np.linalg.eigvalsh(H)), rel=1e-9)


def test_unconstrained_interior_minimizer():
    # minimizer of 0.5 u'Hu + g'u strictly inside the box is the linear solve
    H = np.diag([2.0, 4.0])
    g = np.array([-1.0, -2.0])
    res = solve_box_state_qp(H, g, np.zeros(2), np.ones(2), None, None,
                             1e-10, 1.0)
    assert np.allclose(res.u, [0.5, 0.5], atol=1e-9)
    assert res.stationarity <= 1e-10


def test_box_clipping_with_multipliers():
    # minimizer would be u = 2 but b = 1: upper bound active with mu = H(2-1)
    H = np.array([[2.0]])
    g = np.array([-4.0])
    res = solve_box_state_qp(H, g, np.zeros(1), np.ones(1), None, None,
                             1e-10, 1.0)
    assert res.u[0] == pytest.approx(1.0, abs=1e-9)
    assert res.mu_upper[0] == pytest.approx(2.0, abs=1e-7)
    assert res.mu_lower[0] == pytest.approx(0.0, abs=1e-9)


def test_lower_bound_active():
    H = np.array([[2.0]])
    g = np.array([3.0])  # unconstrained minimizer -1.5 < 0
    res = solve_box_state_qp(H, g, np.zeros(1), np.ones(1), None, None,
                             1e-10, 1.0)
    assert res.u[0] == pytest.approx(0.0, abs=1e-9)
    assert res.mu_lower[0] == pytest.approx(3.0, abs=1e-7)


def test_infinite_upper_bound():
    H = np.diag([2.0, 2.0])
    g = np.array([-6.0, 2.0])
    upper = np.array([np.inf, np.inf])
    res = solve_box_state_qp(H, g, np.zeros(2), upper, None, None, 1e-10, 1.0)
    assert np.allclose(res.u, [3.0, 0.0], atol=1e-8)
    assert np.all(res.mu_upper == 0.0)


def test_single_state_constraint_projects_onto_plane():
    # min ||u - c||^2 s.t. sum(u) <= 1 with c = (1,1): u = (0.5, 0.5), eta = 1
    H = 2 * np.eye(2)
    g = -2 * np.ones(2)
    T = np.ones((1, 2))
    psi = np.array([1.0])
    res = solve_box_state_qp(H, g, np.zeros(2), np.full(2, np.inf), T, psi,
                             1e-10, 1.0)
    assert np.allclose(res.u, [0.5, 0.5], atol=1e-8)
    assert res.eta[0] == pytest.approx(1.0, abs=1e-6)
    assert res.primal <= 1e-10


def test_inactive_state_constraint_leaves_solution_alone():
    H = 2 * np.eye(2)
    g = -2 * np.array([0.2, 0.1])
    T = np.ones((1, 2))
    psi = np.array([5.0])
    res = solve_box_state_qp(H, g, np.zeros(2), np.ones(2), T, psi, 1e-10, 1.0)
    assert np.allclose(res.u, [0.2, 0.1], atol=1e-9)
    assert np.allclose(res.eta, 0.0, atol=1e-9)


def test_degenerate_redundant_rows():
    # duplicated active rows: primal solution still unique and certified
    H = 2 * np.eye(2)
    g = -2 * np.ones(2)
    T = np.ones((2, 2))
    psi = np.array([1.0, 1.0])
    res = solve_box_state_qp(H, g, np.zeros(2), np.ones(2), T, psi, 1e-9, 1.0)
    assert np.allclose(res.u, [0.5, 0.5], atol=1e-7)


def test_dependent_lower_bound_and_state_row():
    # u_1 <= 0 (state row) and u_1 >= 0 (lower bound) are the same line: the
    # engine activates one of them and ends at the projection of (1, 1)
    H = 2 * np.eye(2)
    g = -2 * np.ones(2)
    T = np.array([[1.0, 0.0]])
    psi = np.array([0.0])
    res = solve_box_state_qp(H, g, np.zeros(2), np.full(2, np.inf), T, psi,
                             1e-10, 1.0)
    assert np.allclose(res.u, [0.0, 1.0], atol=1e-12)
    assert res.eta[0] + res.mu_lower[0] == pytest.approx(2.0, abs=1e-9)
    assert not res.fallback


def test_semidefinite_hessian_uses_fallback():
    # H has no Cholesky factor: the augmented-Lagrangian fallback solves it
    H = np.array([[2.0, 0.0], [0.0, 0.0]])
    g = np.array([-2.0, 1.0])
    res = solve_box_state_qp(H, g, np.zeros(2), np.ones(2), None, None,
                             1e-10, 1.0)
    assert res.fallback
    assert np.allclose(res.u, [1.0, 0.0], atol=1e-9)
    assert max(res.stationarity, res.complementarity) <= 1e-10


def test_infeasible_state_rows_raise():
    # sum(u) <= -1 impossible for u >= 0
    H = 2 * np.eye(3)
    g = np.zeros(3)
    T = np.ones((1, 3))
    psi = np.array([-1.0])
    with pytest.raises(InfeasibleProblem):
        solve_box_state_qp(H, g, np.zeros(3), np.ones(3), T, psi, 1e-8, 1.0)


def test_kkt_certificates_reported():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    H = A @ A.T + np.eye(6)
    g = rng.standard_normal(6)
    T = rng.standard_normal((2, 6))
    psi = np.abs(rng.standard_normal(2)) + 0.1
    res = solve_box_state_qp(H, g, np.zeros(6), np.ones(6), T, psi, 1e-9, 1.0)
    assert isinstance(res, QPResult)
    assert res.stationarity <= 1e-9
    assert res.primal <= 1e-9
    assert res.complementarity <= 1e-9
    # multipliers are dual feasible by construction
    assert np.all(res.mu_lower >= 0) and np.all(res.mu_upper >= 0)
    assert np.all(res.eta >= 0)


def test_wfac_scales_stationarity_norm():
    H = 2 * np.eye(2)
    g = -2 * np.ones(2)
    res = solve_box_state_qp(H, g, np.zeros(2), np.full(2, 2.0), None, None,
                             1e-12, 0.1)
    assert np.allclose(res.u, 1.0, atol=1e-10)


def test_warm_start_accepted():
    H = 2 * np.eye(3)
    g = -2 * np.array([0.3, 0.6, 0.9])
    res = solve_box_state_qp(H, g, np.zeros(3), np.ones(3), None, None,
                             1e-10, 1.0, u0=np.array([0.3, 0.6, 0.9]))
    assert np.allclose(res.u, [0.3, 0.6, 0.9], atol=1e-10)
    assert res.iterations <= 5
    assert not res.fallback


def test_iterations_count_active_set_changes():
    # both lower bounds enter and nothing leaves: two changes
    H = 2 * np.eye(2)
    g = 2 * np.ones(2)
    res = solve_box_state_qp(H, g, np.zeros(2), np.ones(2), None, None,
                             1e-10, 1.0)
    assert np.allclose(res.u, 0.0, atol=1e-15)
    assert res.iterations == 2
