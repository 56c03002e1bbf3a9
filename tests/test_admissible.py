"""Admissible sets, feasibility margins, projections and Slater quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiklav.admissible import (AdmissibleSet, BoxBounds, StateConstraint,
                               feasibility, project_admissible, project_box,
                               slater)
from tiklav.errors import InfeasibleSet, NotASlaterPoint
from tiklav.grid import DomainGrid, GridFunction, ObservationRegion, constant
from tiklav.operators import KernelSpec, assemble_fredholm, assemble_poisson


def small_set(n=8, b=1.0, psi=0.05, lam=0.0, sign="plus"):
    grid = DomainGrid(1, n)
    op = assemble_poisson(grid)
    region = ObservationRegion.all_nodes(grid)
    state = StateConstraint(region, np.full(n, psi), lam, sign)
    return AdmissibleSet(BoxBounds.constant(grid, b), state, op)


class TestConstruction:
    def test_negative_bound_rejected(self):
        g = DomainGrid(1, 5)
        with pytest.raises(ValueError):
            BoxBounds(g, np.full(5, -1.0))

    def test_negative_lambda_rejected(self):
        g = DomainGrid(1, 5)
        r = ObservationRegion.all_nodes(g)
        with pytest.raises(ValueError):
            StateConstraint(r, np.ones(5), lam=-0.1)

    def test_bad_sign_rejected(self):
        g = DomainGrid(1, 5)
        r = ObservationRegion.all_nodes(g)
        with pytest.raises(ValueError):
            StateConstraint(r, np.ones(5), sign="both")

    def test_scalar_psi_broadcast(self):
        g = DomainGrid(1, 5)
        r = ObservationRegion.all_nodes(g)
        st_ = StateConstraint(r, 0.3)
        assert st_.psi.shape == (5,)

    def test_with_lambda_preserves_rest(self):
        aset = small_set()
        shifted = aset.with_lambda(0.01, "minus")
        assert shifted.lam == 0.01 and shifted.sign == "minus"
        assert shifted.box is aset.box and shifted.op is aset.op

    def test_constraint_matrix_shift_sign(self):
        # the eigen rows B give the dense rows S[idx] +- lam e_idx as B V^T
        for op in (assemble_poisson(DomainGrid(1, 8)),
                   assemble_poisson(DomainGrid(2, 4)),
                   assemble_fredholm(DomainGrid(1, 8),
                                     KernelSpec("gaussian", width=0.3))):
            grid = op.grid
            idx = np.arange(1, grid.num_nodes, 2)
            for sign, shift in (("plus", 0.2), ("minus", -0.2)):
                state = StateConstraint(ObservationRegion(grid, idx), 0.05,
                                        0.2, sign)
                aset = AdmissibleSet(BoxBounds.constant(grid, 1.0), state, op)
                B, _ = aset.constraint_matrix()
                S = op.matrix
                T = S[idx]
                T[np.arange(idx.size), idx] += shift
                assert np.max(np.abs(B @ op.V.T - T)) \
                    <= 1e-12 * np.linalg.norm(S)

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_constraint_matrix_is_a_copy(self, lam):
        aset = small_set(n=5, lam=lam, sign="plus")
        V_before = aset.op.V.copy()
        psi_before = aset.state.psi.copy()
        B, psi = aset.constraint_matrix()
        B[:] = -7.0
        psi[:] = -7.0
        assert np.array_equal(aset.op.V, V_before)
        assert np.array_equal(aset.state.psi, psi_before)

    def test_infinite_psi_rows_dropped(self):
        g = DomainGrid(1, 5)
        op = assemble_poisson(g)
        psi = np.array([np.inf, 0.1, np.inf, 0.2, np.inf])
        state = StateConstraint(ObservationRegion.all_nodes(g), psi)
        aset = AdmissibleSet(BoxBounds.constant(g, 1.0), state, op)
        T, p = aset.constraint_matrix()
        assert T.shape == (2, 5) and np.allclose(p, [0.1, 0.2])

    def test_all_infinite_psi_gives_none(self):
        g = DomainGrid(1, 5)
        op = assemble_poisson(g)
        state = StateConstraint(ObservationRegion.all_nodes(g), np.full(5, np.inf))
        aset = AdmissibleSet(BoxBounds.constant(g, 1.0), state, op)
        assert aset.constraint_matrix() == (None, None)


class TestFeasibility:
    def test_zero_is_feasible_for_positive_psi(self):
        aset = small_set()
        rep = feasibility(constant(aset.op.grid, 0.0), aset)
        assert rep.feasible
        assert rep.margin_lower == 0.0
        assert rep.margin_upper == pytest.approx(1.0)
        assert rep.margin_state == pytest.approx(0.05)

    def test_violation_detected(self):
        aset = small_set(b=1.0)
        rep = feasibility(constant(aset.op.grid, 1.5), aset)
        assert not rep.feasible
        assert rep.margin_upper == pytest.approx(-0.5)

    def test_infinite_bound_margin(self):
        aset = small_set(b=np.inf)
        rep = feasibility(constant(aset.op.grid, 3.0), aset)
        assert rep.margin_upper == np.inf

    def test_lavrentiev_shift_changes_state_margin(self):
        aset0 = small_set(n=6, psi=0.5)
        u = constant(aset0.op.grid, 1.0)
        m0 = feasibility(u, aset0).margin_state
        m_plus = feasibility(u, aset0.with_lambda(0.1, "plus")).margin_state
        m_minus = feasibility(u, aset0.with_lambda(0.1, "minus")).margin_state
        assert m_plus == pytest.approx(m0 - 0.1)
        assert m_minus == pytest.approx(m0 + 0.1)


class TestProjection:
    def test_box_projection_is_clip(self):
        g = DomainGrid(1, 5)
        b = BoxBounds.constant(g, 1.0)
        v = GridFunction(g, np.array([-1.0, 0.5, 2.0, 1.0, 0.0]))
        p = project_box(v, b)
        assert np.array_equal(p.values, [0.0, 0.5, 1.0, 1.0, 0.0])

    def test_interior_point_is_fixed(self):
        aset = small_set(psi=1.0)
        v = constant(aset.op.grid, 0.5)
        p = project_admissible(v, aset, tol=1e-10)
        assert np.allclose(p.values, 0.5, atol=1e-9)

    def test_projection_idempotent(self):
        aset = small_set(psi=0.02)
        v = constant(aset.op.grid, 2.0)
        p1 = project_admissible(v, aset, tol=1e-10)
        p2 = project_admissible(p1, aset, tol=1e-10)
        assert np.allclose(p1.values, p2.values, atol=1e-8)

    def test_projection_nonexpansive(self):
        aset = small_set(psi=0.02)
        rng = np.random.default_rng(11)
        g = aset.op.grid
        for _ in range(10):
            a = GridFunction(g, rng.standard_normal(g.num_nodes))
            b = GridFunction(g, rng.standard_normal(g.num_nodes))
            pa = project_admissible(a, aset, tol=1e-10)
            pb = project_admissible(b, aset, tol=1e-10)
            d_in = GridFunction(g, a.values - b.values).norm()
            d_out = GridFunction(g, pa.values - pb.values).norm()
            assert d_out <= d_in + 1e-7

    def test_variational_inequality(self):
        # <v - Pv, z - Pv> <= 0 for admissible z
        aset = small_set(psi=0.02)
        g = aset.op.grid
        rng = np.random.default_rng(5)
        v = GridFunction(g, rng.standard_normal(g.num_nodes) * 2)
        p = project_admissible(v, aset, tol=1e-10)
        for _ in range(20):
            z = project_admissible(
                GridFunction(g, rng.standard_normal(g.num_nodes)), aset,
                tol=1e-10)
            ip = GridFunction(g, v.values - p.values).inner(
                GridFunction(g, z.values - p.values))
            assert ip <= 1e-7

    def test_plus_set_nested_in_unshifted(self):
        # for u >= 0: lam*u + Su <= psi implies Su <= psi
        aset0 = small_set(psi=0.02)
        aset_lam = aset0.with_lambda(0.05, "plus")
        g = aset0.op.grid
        rng = np.random.default_rng(9)
        for _ in range(5):
            v = GridFunction(g, rng.uniform(0, 3, g.num_nodes))
            p = project_admissible(v, aset_lam, tol=1e-10)
            assert feasibility(p, aset0).margin_state >= -1e-7

    def test_infeasible_set_detected(self):
        # psi < 0 with u >= 0 and S order-preserving: no feasible point
        g = DomainGrid(1, 5)
        op = assemble_fredholm(g, KernelSpec("constant"))
        state = StateConstraint(ObservationRegion.all_nodes(g), np.full(5, -1.0))
        aset = AdmissibleSet(BoxBounds.constant(g, 1.0), state, op)
        with pytest.raises(InfeasibleSet):
            project_admissible(constant(g, 0.5), aset, tol=1e-8)


class TestSlater:
    def test_zero_candidate_gives_infinite_cap(self):
        aset = small_set(psi=0.05)
        out = slater(aset, constant(aset.op.grid, 0.0))
        assert out["tau"] == pytest.approx(0.05)
        assert out["lam_max"] == np.inf

    def test_cap_is_tau_over_sup(self):
        # constant kernel, u_hat = 2: S u_hat = 2nh; choose psi so tau = 0.2
        g = DomainGrid(1, 9)  # n*h = 0.9
        op = assemble_fredholm(g, KernelSpec("constant"))
        psi = np.full(9, 2 * 0.9 + 0.2)
        state = StateConstraint(ObservationRegion.all_nodes(g), psi)
        aset = AdmissibleSet(BoxBounds.constant(g, 5.0), state, op)
        out = slater(aset, constant(g, 2.0))
        assert out["tau"] == pytest.approx(0.2)
        assert out["lam_max"] == pytest.approx(0.1)

    def test_no_slack_rejected(self):
        aset = small_set(psi=0.0)
        with pytest.raises(NotASlaterPoint):
            slater(aset, constant(aset.op.grid, 0.0))

    def test_box_violating_candidate_rejected(self):
        aset = small_set(b=1.0, psi=10.0)
        with pytest.raises(NotASlaterPoint):
            slater(aset, constant(aset.op.grid, 2.0))


@given(st.floats(0.0, 3.0), st.floats(0.1, 2.0))
@settings(max_examples=25, deadline=None)
def test_box_projection_within_bounds(value, b):
    g = DomainGrid(1, 6)
    p = project_box(constant(g, value), BoxBounds.constant(g, b))
    assert np.all(p.values >= 0) and np.all(p.values <= b)
    assert np.allclose(p.values, min(value, b))
