"""Admissible sets, feasibility margins, projections and Slater quantities."""

import numpy as np
import pytest

from tiklav.admissible import (AdmissibleSet, BoxBounds, StateConstraint,
                               feasibility, project_admissible, slater)
from tiklav.errors import Infeasible, InvalidInput, NonConvergence
from tiklav.grid import DomainGrid, GridFunction, ObservationRegion, constant
from tiklav.operators import KernelSpec, assemble_fredholm, assemble_poisson
from reference import assemble


def small_set(n=8, b=1.0, psi=0.05, lam=0.0, sign="plus"):
    grid = DomainGrid(1, n)
    op = assemble_poisson(grid)
    region = ObservationRegion.all_nodes(grid)
    state = StateConstraint(region, np.full(n, psi), lam, sign)
    return AdmissibleSet(BoxBounds.constant(grid, b), state, op)


class TestConstruction:
    def test_mismatched_lengths_and_grids_rejected(self):
        # a bound or psi of the wrong length, and a set, point or
        # projection target on another grid than the operator's
        aset, other = small_set(8), DomainGrid(1, 9)
        with pytest.raises(InvalidInput, match="upper bound length"):
            BoxBounds(aset.op.grid, np.ones(9))
        with pytest.raises(InvalidInput, match="psi length"):
            StateConstraint(aset.state.region, np.ones(7))
        with pytest.raises(InvalidInput, match="grids differ"):
            AdmissibleSet(BoxBounds.constant(other, 1.0), aset.state, aset.op)
        with pytest.raises(InvalidInput, match="grids differ"):
            feasibility(constant(other, 0.0), aset)
        with pytest.raises(InvalidInput, match="grids differ"):
            project_admissible(constant(other, 0.0), aset)

    def test_negative_bound_rejected(self):
        g = DomainGrid(1, 5)
        with pytest.raises(ValueError):
            BoxBounds(g, np.full(5, -1.0))

    def test_nan_bound_rejected(self):
        g = DomainGrid(1, 5)
        with pytest.raises(ValueError):
            BoxBounds(g, np.array([1.0, np.nan, 1.0, np.inf, 1.0]))

    @pytest.mark.parametrize("psi", [-np.inf, np.nan])
    def test_psi_below_every_number_rejected(self, psi):
        r = ObservationRegion.all_nodes(DomainGrid(1, 5))
        with pytest.raises(ValueError):
            StateConstraint(r, np.array([0.1, psi, 0.1, np.inf, 0.1]))

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

    def test_with_lambda_rejects_empty_sign(self):
        # only None keeps the set's sign; "" is no sign
        with pytest.raises(InvalidInput, match="sign must be"):
            small_set().with_lambda(0.01, "")

    @pytest.mark.parametrize("lam, sign", [(0.0, "plus"), (0.01, "minus")])
    def test_unchanged_lambda_is_the_same_set(self, lam, sign):
        # the same set, so the cached state rows B are built once
        aset = small_set(lam=lam, sign=sign)
        assert aset.with_lambda(aset.lam) is aset
        assert aset.with_lambda(lam, sign) is aset
        assert aset.with_lambda(lam, "plus" if sign == "minus" else "minus") \
            is not aset

    def test_constraint_matrix_shift_sign(self):
        # the eigen rows B give the dense rows S[idx] +- lam e_idx as B V^T
        for op, S in (assemble(DomainGrid(1, 8)), assemble(DomainGrid(2, 4)),
                      assemble(DomainGrid(1, 8),
                               KernelSpec("gaussian", width=0.3))):
            grid = op.grid
            idx = np.arange(1, grid.num_nodes, 2)
            for sign, shift in (("plus", 0.2), ("minus", -0.2)):
                state = StateConstraint(ObservationRegion(grid, idx), 0.05,
                                        0.2, sign)
                aset = AdmissibleSet(BoxBounds.constant(grid, 1.0), state, op)
                B, _ = aset.constraint_matrix()
                T = S[idx]
                T[np.arange(idx.size), idx] += shift
                assert np.max(np.abs(B[:] @ op.V[:].T - T)) \
                    <= 1e-12 * np.linalg.norm(S)

    def test_rows_adjoint_is_the_transposed_rows(self):
        # the state rows at u are T u = ((S + shift I) u)[rows] and
        # T^T eta = (S + shift I) e in node space, e holding eta at the
        # finite-psi region nodes; 0.0 when no state row is active
        rng = np.random.default_rng(11)
        for op, S in (assemble(DomainGrid(1, 9)), assemble(DomainGrid(2, 4)),
                      assemble(DomainGrid(1, 9),
                               KernelSpec("gaussian", width=0.3))):
            grid = op.grid
            idx = np.arange(0, grid.num_nodes, 2)
            psi = np.full(idx.size, 0.05)
            psi[1] = np.inf  # an absent row: not among the rows of T
            for sign, shift in (("plus", 0.2), ("minus", -0.2)):
                state = StateConstraint(ObservationRegion(grid, idx), psi,
                                        0.2, sign)
                aset = AdmissibleSet(BoxBounds.constant(grid, 1.0), state, op)
                rows = idx[np.isfinite(psi)]
                T = S[rows]
                T[np.arange(rows.size), rows] += shift
                B, _ = aset.constraint_matrix()
                u = rng.standard_normal(grid.num_nodes)
                assert np.max(np.abs(B.at_values(u, op.V.T @ u) - T @ u)) \
                    <= 1e-13 * np.linalg.norm(T) * np.linalg.norm(u)
                eta = rng.uniform(0.0, 1.0, rows.size)
                assert np.max(np.abs(B.adjoint(eta) - T.T @ eta)) \
                    <= 1e-13 * np.linalg.norm(T) * np.linalg.norm(eta)
                assert B.adjoint(np.zeros(rows.size)) == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_constraint_matrix_is_a_copy(self, lam):
        # built once per set and shared, so read-only: the rows are an
        # implicit EigenRows with no writable buffer (no item assignment,
        # no buffer, read-only parts, a new array from B[:]), in 1D and 2D
        # alike
        aset = small_set(n=5, lam=lam, sign="plus")
        V_before = aset.op.V[:]
        psi_before = aset.state.psi.copy()
        B, psi = aset.constraint_matrix()
        B_before = B[:]
        with pytest.raises(ValueError):
            psi[:] = -7.0
        with pytest.raises(TypeError):
            B[:] = -7.0
        with pytest.raises(TypeError):
            memoryview(B)
        for part in (B.idx, B.w):
            with pytest.raises(ValueError):
                part[:] = 0
        B[:][:] = -7.0
        assert np.array_equal(B[:], B_before)
        assert aset.constraint_matrix()[0] is B
        assert np.array_equal(aset.op.V[:], V_before)
        assert np.array_equal(aset.state.psi, psi_before)
        g = DomainGrid(2, 3)
        state = StateConstraint(ObservationRegion.all_nodes(g), 0.05, lam)
        B2, _ = AdmissibleSet(BoxBounds.constant(g, 1.0), state,
                              assemble_poisson(g)).constraint_matrix()
        with pytest.raises(TypeError):
            B2[:] = -7.0

    def test_infinite_psi_rows_dropped(self):
        g = DomainGrid(1, 5)
        op = assemble_poisson(g)
        psi = np.array([np.inf, 0.1, np.inf, 0.2, np.inf])
        state = StateConstraint(ObservationRegion.all_nodes(g), psi)
        aset = AdmissibleSet(BoxBounds.constant(g, 1.0), state, op)
        T, p = aset.constraint_matrix()
        assert T.shape == (2, 5) and np.allclose(p, [0.1, 0.2])

    def test_all_infinite_psi_gives_no_rows(self):
        g = DomainGrid(1, 5)
        op = assemble_poisson(g)
        state = StateConstraint(ObservationRegion.all_nodes(g), np.full(5, np.inf))
        aset = AdmissibleSet(BoxBounds.constant(g, 1.0), state, op)
        T, psi = aset.constraint_matrix()
        assert T.shape == (0, 5) and psi.shape == (0,)
        assert T.at_values(np.ones(5), np.ones(5)).shape == (0,)
        assert T.adjoint(np.zeros(0)) == 0.0


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

    def test_absent_bounds_have_infinite_slack(self):
        g = DomainGrid(1, 5)
        psi = np.array([np.inf, 0.1, np.inf, 0.2, np.inf])
        state = StateConstraint(ObservationRegion.all_nodes(g), psi, 0.1)
        b = np.array([1.0, np.inf, 1.0, np.inf, 1.0])
        aset = AdmissibleSet(BoxBounds(g, b), state, assemble_poisson(g))
        u = np.full(5, 0.5)
        su = aset.op.apply_values(u)
        lo, up, st = aset.slack(u, su)
        # an absent upper bound has slack inf; a node with psi = inf has no
        # state row, and state slack j is row j of constraint_matrix()
        rows = [1, 3]
        assert np.array_equal(aset.constraint_matrix()[0].idx, rows)
        assert np.array_equal(lo, u)
        assert np.array_equal(np.isinf(up), np.isinf(b))
        assert st.shape == (len(rows),)
        assert np.allclose(st, psi[rows] - su[rows] - 0.1 * u[rows])
        rep = feasibility(GridFunction(g, u), aset)
        assert (rep.margin_upper, rep.margin_state) == (0.5, st.min())

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
        # with every state row absent the L2 projection is the clip to [0, b]
        g = DomainGrid(1, 5)
        state = StateConstraint(ObservationRegion.all_nodes(g),
                                np.full(5, np.inf))
        aset = AdmissibleSet(BoxBounds.constant(g, 1.0), state,
                             assemble_poisson(g))
        v = GridFunction(g, np.array([-1.0, 0.5, 2.0, 1.0, 0.0]))
        p = project_admissible(v, aset, tol=1e-12)
        assert np.allclose(p.values, [0.0, 0.5, 1.0, 1.0, 0.0], atol=1e-12)

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

    @pytest.mark.parametrize("kernel", [None, "gaussian"])
    def test_clipped_nodes_are_exact(self, kernel):
        # an active bound is returned as exactly 0 or b, not as the round-off
        # of a change of basis
        g = DomainGrid(1, 16)
        op = assemble_poisson(g) if kernel is None else \
            assemble_fredholm(g, KernelSpec(kernel, width=0.3))
        state = StateConstraint(ObservationRegion.all_nodes(g), np.full(16, 100.0))
        aset = AdmissibleSet(BoxBounds.constant(g, 0.7), state, op)
        v = np.random.default_rng(3).uniform(-1.0, 2.0, 16)
        p = project_admissible(GridFunction(g, v), aset, tol=1e-10).values
        assert (v < 0).any() and (v > 0.7).any()
        assert np.all(p[v < 0] == 0.0) and np.all(p[v > 0.7] == 0.7)
        free = (v > 0) & (v < 0.7)
        assert np.allclose(p[free], v[free], atol=1e-12)

    def test_clipped_preset_exact_solution_touches_the_bound(self, clipped_preset):
        # u_bar = P_set(S* w) sits exactly on b = 1 where it is clipped
        inst = clipped_preset[3]
        assert inst.tau == 0.0

    def test_infeasible_set_detected(self):
        # psi < 0 with u >= 0 and S order-preserving: no feasible point
        g = DomainGrid(1, 5)
        op = assemble_fredholm(g, KernelSpec("constant"))
        state = StateConstraint(ObservationRegion.all_nodes(g), np.full(5, -1.0))
        aset = AdmissibleSet(BoxBounds.constant(g, 1.0), state, op)
        with pytest.raises(Infeasible, match="constraints infeasible"):
            project_admissible(constant(g, 0.5), aset, tol=1e-8)

    @pytest.mark.parametrize("grid, make, first", [
        (DomainGrid(1, 24), assemble_poisson, 16),
        (DomainGrid(1, 24),
         lambda g: assemble_fredholm(g, KernelSpec("gaussian", width=0.3)), 17),
        (DomainGrid(2, 6), assemble_poisson, 17),
    ], ids=["poisson-1d", "gaussian", "poisson-2d"])
    def test_huge_input_is_never_infeasible(self, grid, make, first):
        # u = 0 is admissible, so no input makes the set infeasible; at
        # max |v| >= 10^first the engine used to end on a row violated
        # within the round-off of its value and report Infeasible
        N = grid.num_nodes
        state = StateConstraint(ObservationRegion.all_nodes(grid),
                                np.full(N, 1.0))
        aset = AdmissibleSet(BoxBounds.constant(grid, 1.0), state, make(grid))
        for seed in range(3):
            v = np.random.default_rng(seed).standard_normal(N)
            v /= np.max(np.abs(v))
            for e in range(first, 21):
                try:
                    p = project_admissible(GridFunction(grid, 10.0**e * v),
                                           aset, tol=1e-9)
                except NonConvergence as exc:
                    assert "within its round-off" in str(exc)
                    continue
                rep = feasibility(p, aset)
                assert min(rep.margin_lower, rep.margin_upper,
                           rep.margin_state) >= -1e-9


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
        with pytest.raises(InvalidInput, match="state slack tau = .* is not positive"):
            slater(aset, constant(aset.op.grid, 0.0))

    def test_box_violating_candidate_rejected(self):
        aset = small_set(b=1.0, psi=10.0)
        with pytest.raises(InvalidInput, match="violates the box constraints"):
            slater(aset, constant(aset.op.grid, 2.0))
