"""Manufactured instances, seeded noise, parameter choice."""

import numpy as np
import pytest

from tiklav.admissible import AdmissibleSet, BoxBounds, StateConstraint, feasibility
from tiklav.errors import InvalidInput
from tiklav.grid import DomainGrid, GridFunction, ObservationRegion, constant, wnorm
from tiklav.manufacture import (_lcg_uniforms, add_noise, manufacture,
                                optimal_alpha)
from tiklav.operators import apply, assemble_poisson


def make_set(n=12, b=1.0, psi=0.05):
    grid = DomainGrid(1, n)
    op = assemble_poisson(grid)
    state = StateConstraint(ObservationRegion.all_nodes(grid), np.full(n, psi))
    return AdmissibleSet(BoxBounds.constant(grid, b), state, op)


def test_source_on_another_grid_rejected():
    with pytest.raises(InvalidInput, match="grids differ"):
        manufacture(constant(DomainGrid(1, 13), 1.0), make_set(12))


class TestLcg:
    def test_deterministic_and_in_range(self):
        a = _lcg_uniforms(42, 100)
        b = _lcg_uniforms(42, 100)
        assert np.array_equal(a, b)
        assert np.all(a >= -1.0) and np.all(a < 1.0)

    def test_seed_changes_stream(self):
        assert not np.array_equal(_lcg_uniforms(1, 50), _lcg_uniforms(2, 50))

    def test_roughly_centered(self):
        u = _lcg_uniforms(7, 4000)
        assert abs(u.mean()) < 0.05


class TestManufacture:
    def test_attainable_instance_consistent(self):
        aset = make_set()
        w = constant(aset.op.grid, 1.0)
        inst = manufacture(w, aset)
        # u_bar is the projection of S*w and y_d = S u_bar exactly
        sw = apply(aset.op, w)
        assert np.all(inst.u_bar.values >= -1e-9)
        assert np.all(inst.u_bar.values <= 1.0 + 1e-9)
        assert np.allclose(inst.y_d.values,
                           apply(aset.op, inst.u_bar).values, atol=1e-12)
        assert inst.attainable and inst.residual_norm == 0.0
        assert inst.w_norm == pytest.approx(w.norm())
        assert inst.margins.feasible

    def test_nonattainable_residual_norm_exact(self):
        aset = make_set()
        w = constant(aset.op.grid, 1.0)
        inst = manufacture(w, aset, attainable=False, residual=0.25, seed=3)
        diff = inst.y_d.values - apply(aset.op, inst.u_bar).values
        assert wnorm(aset.op.grid, diff) == pytest.approx(0.25, abs=1e-12)

    def test_constant_residual_direction(self):
        aset = make_set()
        w = constant(aset.op.grid, 1.0)
        inst = manufacture(w, aset, attainable=False, residual=0.1,
                           residual_direction="constant")
        diff = inst.y_d.values - apply(aset.op, inst.u_bar).values
        assert np.ptp(diff) <= 1e-14

    def test_unknown_residual_direction_rejected(self):
        aset = make_set()
        with pytest.raises(InvalidInput, match="residual_direction must be"):
            manufacture(constant(aset.op.grid, 1.0), aset, attainable=False,
                        residual=0.1, residual_direction="uniform")

    def test_nonattainable_needs_positive_residual(self):
        aset = make_set()
        with pytest.raises(ValueError):
            manufacture(constant(aset.op.grid, 1.0), aset, attainable=False)

    def test_requires_unshifted_set(self):
        aset = make_set().with_lambda(0.01)
        with pytest.raises(ValueError):
            manufacture(constant(aset.op.grid, 1.0), aset)

    def test_tau_and_interior_flag(self):
        aset = make_set(psi=1.0, b=10.0)
        w = constant(aset.op.grid, 0.1)
        inst = manufacture(w, aset)
        rep = feasibility(inst.u_bar, aset)
        assert inst.tau == pytest.approx(min(rep.margin_lower, rep.margin_upper,
                                             rep.margin_state))
        # S*w > 0 pointwise for the Poisson operator, so u_bar > 0 strictly
        assert inst.interior

    def test_to_dict_round_trips_arrays(self):
        aset = make_set()
        inst = manufacture(constant(aset.op.grid, 1.0), aset)
        d = inst.to_dict()
        assert d["grid"] == {"d": 1, "n": 12}
        assert np.allclose(d["u_bar"], inst.u_bar.values)
        assert d["attainable"] is True


class TestNoise:
    def test_exact_norm_and_determinism(self):
        g = DomainGrid(1, 20)
        y = constant(g, 1.0)
        n1 = add_noise(y, 0.01, seed=5)
        n2 = add_noise(y, 0.01, seed=5)
        assert np.array_equal(n1.values, n2.values)
        assert wnorm(g, n1.values - y.values) == pytest.approx(
            0.01, abs=1e-15)

    def test_zero_delta_copies_data(self):
        g = DomainGrid(1, 8)
        y = constant(g, 2.0)
        n = add_noise(y, 0.0, seed=1)
        assert np.array_equal(n.values, y.values)
        n.values[0] = -1
        assert y.values[0] == 2.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            add_noise(constant(DomainGrid(1, 8), 0.0), -0.1, seed=0)


class TestOptimalAlpha:
    def test_ratio(self):
        out = optimal_alpha(0.01, 2.0)
        assert out["alpha_star"] == pytest.approx(0.005)
        assert out["attainable"] is False

    def test_attainable_gives_zero(self):
        out = optimal_alpha(0.0, 1.0)
        assert out["alpha_star"] == 0.0 and out["attainable"] is True

    def test_zero_source_norm_rejected(self):
        with pytest.raises(InvalidInput, match="source norm must be positive"):
            optimal_alpha(0.1, 0.0)

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            optimal_alpha(-0.1, 1.0)

    def test_minimizes_a_priori_bound(self):
        # alpha* minimizes sqrt(a)*||w|| + res/sqrt(a) over a > 0
        res_n, w_n = 0.02, 1.7
        a_star = optimal_alpha(res_n, w_n)["alpha_star"]
        bound = lambda a: np.sqrt(a) * w_n + res_n / np.sqrt(a)
        for fac in (0.5, 0.9, 1.1, 2.0):
            assert bound(a_star) <= bound(a_star * fac) + 1e-15
