"""Grids, grid functions, weighted norms and observation regions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import from_callable
from tiklav.errors import InvalidInput
from tiklav.grid import (DomainGrid, GridFunction, ObservationRegion, constant,
                         wnorm)


class TestDomainGrid:
    def test_spacing_and_counts_1d(self):
        g = DomainGrid(1, 9)
        assert g.h == pytest.approx(0.1)
        assert g.num_nodes == 9
        assert np.allclose(g.coords[:, 0], 0.1 * np.arange(1, 10))

    def test_spacing_and_counts_2d(self):
        g = DomainGrid(2, 4)
        assert g.num_nodes == 16
        assert g.coords.shape == (16, 2)
        # lexicographic: first axis varies slowest
        assert np.allclose(g.coords[0], [0.2, 0.2])
        assert np.allclose(g.coords[1], [0.2, 0.4])
        assert np.allclose(g.coords[4], [0.4, 0.2])

    def test_weights_sum_to_interior_volume(self):
        g = DomainGrid(2, 8)
        assert g.weight * g.num_nodes == pytest.approx((8 / 9) ** 2)
        assert g.weight == pytest.approx(g.h ** 2)

    @pytest.mark.parametrize("d,n", [(0, 5), (3, 5), (1, 2)])
    def test_rejects_bad_shape(self, d, n):
        with pytest.raises(ValueError):
            DomainGrid(d, n)


class TestGridFunction:
    def test_constant_inner_product_matches_quadrature(self):
        g = DomainGrid(1, 19)
        one = constant(g, 1.0)
        # sum of weights = n*h = 0.95
        assert one.inner(one) == pytest.approx(19 / 20)
        assert one.norm() == pytest.approx(np.sqrt(19 / 20))

    def test_norm_of_sine_approximates_continuum(self):
        # ||sqrt(2) sin(pi x)||_{L2(0,1)} = 1; midpoint-type quadrature error
        g = DomainGrid(1, 200)
        f = from_callable(g, lambda x: np.sqrt(2) * np.sin(np.pi * x))
        assert f.norm() == pytest.approx(1.0, abs=1e-2)

    def test_shape_mismatch_raises(self):
        g = DomainGrid(1, 5)
        with pytest.raises(InvalidInput, match=r"expected 5 values, got \(4,\)"):
            GridFunction(g, np.zeros(4))

    def test_inner_across_grids_raises(self):
        a = constant(DomainGrid(1, 5), 1.0)
        b = constant(DomainGrid(1, 6), 1.0)
        with pytest.raises(InvalidInput, match="grids differ"):
            a.inner(b)

    def test_copy_is_independent(self):
        f = constant(DomainGrid(1, 5), 2.0)
        c = f.copy()
        c.values[0] = -1.0
        assert f.values[0] == 2.0

    @given(st.integers(3, 30), st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_inner_bilinear(self, n, a, b):
        g = DomainGrid(1, n)
        x = g.coords[:, 0]
        u = GridFunction(g, x)
        v = GridFunction(g, 1 - x)
        w = GridFunction(g, a * u.values + b * v.values)
        assert w.inner(u) == pytest.approx(a * u.inner(u) + b * v.inner(u))

    def test_wnorm_matches_gridfunction_norm(self):
        g = DomainGrid(2, 5)
        vals = np.linspace(-1, 1, g.num_nodes)
        assert wnorm(g, vals) == pytest.approx(GridFunction(g, vals).norm())


class TestObservationRegion:
    def test_from_bounds_selects_expected_nodes(self):
        g = DomainGrid(1, 9)  # nodes 0.1 .. 0.9
        r = ObservationRegion.from_bounds(g, [[0.25, 0.75]])
        assert np.allclose(g.coords[r.indices, 0],
                           [0.3, 0.4, 0.5, 0.6, 0.7])
        assert r.size == 5

    def test_all_nodes(self):
        g = DomainGrid(2, 4)
        r = ObservationRegion.all_nodes(g)
        assert r.size == g.num_nodes

    def test_inner_flag_rejects_boundary_adjacent(self):
        g = DomainGrid(1, 9)
        with pytest.raises(ValueError):
            ObservationRegion(g, np.array([0]), inner=True)
        ObservationRegion(g, np.array([1, 4, 7]), inner=True)

    def test_empty_region_rejected(self):
        g = DomainGrid(1, 5)
        with pytest.raises(ValueError):
            ObservationRegion(g, np.array([], dtype=int))
        with pytest.raises(ValueError):
            ObservationRegion.from_bounds(g, [[0.9, 0.95]])

    def test_out_of_range_indices_rejected(self):
        g = DomainGrid(1, 5)
        with pytest.raises(ValueError):
            ObservationRegion(g, np.array([5]))

    def test_from_bounds_2d(self):
        g = DomainGrid(2, 5)
        r = ObservationRegion.from_bounds(g, [[0.0, 0.5], [0.5, 1.0]])
        c = g.coords[r.indices]
        assert np.all(c[:, 0] <= 0.5) and np.all(c[:, 1] >= 0.5)
