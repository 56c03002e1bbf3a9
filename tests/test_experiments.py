"""Sweeps, threshold detection, noise rules and CSV emission."""

import numpy as np
import pytest

from tiklav import experiments
from tiklav.admissible import AdmissibleSet, BoxBounds, StateConstraint
from tiklav.errors import Infeasible, InvalidInput
from tiklav.experiments import (CSV_COLUMNS, SweepRecord, fit_rate,
                                records_to_csv)
from tiklav.grid import DomainGrid, ObservationRegion, constant
from tiklav.manufacture import manufacture
from tiklav.operators import assemble_poisson


def make_instance(n=24, b=10.0, psi=1.0, w_val=0.5):
    grid = DomainGrid(1, n)
    op = assemble_poisson(grid)
    state = StateConstraint(ObservationRegion.all_nodes(grid), np.full(n, psi))
    aset = AdmissibleSet(BoxBounds.constant(grid, b), state, op)
    return manufacture(constant(grid, w_val), aset)


ALPHAS = [1e-1, 3.16e-2, 1e-2, 3.16e-3, 1e-3, 3.16e-4, 1e-4]


class TestFitRate:
    def test_recovers_exact_power_law(self):
        a = np.logspace(-5, -1, 8)
        e = 3.0 * np.sqrt(a)
        fit = fit_rate(a, e, tol=1e-10)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert np.exp(fit.intercept) == pytest.approx(3.0)

    def test_matches_the_least_squares_reference(self):
        # the closed-form line fit against LAPACK's least squares on noisy
        # power laws: slope, intercept and residual norm
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = np.logspace(-5, -1, int(rng.integers(4, 12)))
            e = rng.uniform(0.5, 3.0) * a ** rng.uniform(0.3, 1.0) \
                * np.exp(0.1 * rng.standard_normal(a.size))
            fit = fit_rate(a, e, tol=1e-12)
            A = np.column_stack([np.log(a), np.ones(a.size)])
            coef, res, *_ = np.linalg.lstsq(A, np.log(e), rcond=None)
            assert fit.slope == pytest.approx(coef[0], rel=1e-12)
            assert fit.intercept == pytest.approx(coef[1], rel=1e-12,
                                                  abs=1e-12)
            assert fit.fit_residual == pytest.approx(np.sqrt(res[0]),
                                                     rel=1e-9, abs=1e-14)

    def test_drops_points_below_floor(self):
        a = np.logspace(-8, -1, 8)
        e = np.sqrt(a)
        fit = fit_rate(a, e, tol=1e-5)  # floor 1e-3 removes small errors
        assert fit.n_points < 8
        assert fit.alpha_min > a[0]

    def test_too_few_points_returns_none(self):
        assert fit_rate([1e-1, 1e-2, 1e-3, 1e-4],
                        [1e-9, 1e-9, 1e-9, 1e-9], tol=1e-8) is None


class TestSweepAlpha:
    def test_bounds_hold_and_errors_decrease(self):
        inst = make_instance()
        out = experiments.sweep_alpha(inst, ALPHAS, tol=1e-9)
        assert all(b1 and b2 for b1, b2 in out["bound_checks"])
        errs = [r.err_u for r in out["records"]]
        assert errs[0] > errs[-1]
        assert out["fit"] is not None

    def test_rejects_unsorted_or_short_lists(self):
        inst = make_instance()
        with pytest.raises(ValueError):
            experiments.sweep_alpha(inst, [1e-3, 1e-2, 1e-1, 1e-4])
        with pytest.raises(ValueError):
            experiments.sweep_alpha(inst, [1e-1, 1e-2, 1e-3])
        with pytest.raises(ValueError):
            experiments.sweep_alpha(inst, [1e-1, 1e-2, 1e-3, -1e-4])

    def test_records_carry_sweep_metadata(self):
        inst = make_instance()
        out = experiments.sweep_alpha(inst, ALPHAS[:4], tol=1e-9)
        for rec, a in zip(out["records"], ALPHAS):
            assert rec.alpha == a and rec.lam == 0.0 and rec.delta == 0.0
            assert rec.iters >= 0


class TestActivityTransition:
    def test_interior_instance_has_finite_threshold(self):
        # interior instance: active sets empty once alpha is small enough
        inst = make_instance(psi=1.0, b=10.0, w_val=0.5)
        out = experiments.activity_transition(inst, ALPHAS, tol=1e-9)
        assert out["alpha0"] == np.inf or out["alpha0"] in ALPHAS
        assert out["clean"][-1]

    def test_clipped_instance_has_no_transition(self):
        # tiny box bound keeps the upper constraint active at the smallest
        # alpha: no threshold, alpha0 = None
        inst = make_instance(psi=100.0, b=0.01, w_val=5.0)
        out = experiments.activity_transition(inst, ALPHAS, tol=1e-9)
        assert out["alpha0"] is None and not out["clean"][-1]


class TestNoiseStudy:
    def test_bounds_and_inactivity(self):
        inst = make_instance()
        out = experiments.noise_study(inst, [1e-2, 1e-3, 1e-4], tol=1e-9)
        assert all(b1 and b2 for b1, b2 in out["bound_checks"])
        assert out["delta0"] is not None
        deltas = [r.delta for r in out["records"]]
        assert deltas == sorted(deltas, reverse=True)

    def test_invalid_exponent_rejected(self):
        inst = make_instance()
        for s in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(InvalidInput, match=r"exponent s must be in \(0, 1\)"):
                experiments.noise_study(inst, [1e-2], s=s)

    def test_zero_delta_entry_allowed(self):
        inst = make_instance()
        out = experiments.noise_study(inst, [1e-3, 0.0], tol=1e-9)
        assert out["records"][-1].delta == 0.0


class TestLavrentievSweep:
    def test_plus_cap_enforced(self):
        inst = make_instance(psi=0.05)
        u_hat = constant(inst.aset.op.grid, 0.4)  # S u_hat < psi, finite cap
        with pytest.raises(Infeasible, match="exceeds tau/"):
            experiments.lavrentiev_sweep(inst, 1e-2, [1e3], "plus", u_hat)

    def test_coincidence_for_interior_instance(self):
        inst = make_instance(psi=1.0, b=10.0, w_val=0.5)
        u_hat = constant(inst.aset.op.grid, 0.0)
        out = experiments.lavrentiev_sweep(
            inst, 1e-3, [1e-2, 1e-3, 1e-4, 1e-5], "plus", u_hat, tol=1e-9)
        assert out["lam_coincide"] > 0
        assert all(f for f in out["plus_feasible"])
        assert np.isfinite(out["c_fit"])

    def test_minus_violation_bounded(self):
        inst = make_instance(psi=1.0, b=10.0, w_val=0.5)
        u_hat = constant(inst.aset.op.grid, 0.0)
        out = experiments.lavrentiev_sweep(
            inst, 1e-3, [1e-2, 1e-3, 1e-4], "minus", u_hat, tol=1e-9)
        assert all(out["minus_violation"])


class TestTotalError:
    def test_triangle_split_and_fit(self):
        inst = make_instance()
        out = experiments.total_error_study(inst, ALPHAS, lam_cap=1e-4,
                                            tol=1e-9)
        assert all(out["triangle_checks"])
        assert out["fit"] is not None


class TestContinuityCheck:
    def test_bound_holds_on_sampled_pairs(self):
        inst = make_instance()
        pairs = [(1e-2, 2e-2), (1e-2, 5e-3), (1e-3, 1.5e-3)]
        flags = experiments.alpha_continuity_check(
            inst.y_d, inst.aset, pairs, tol=1e-9)
        assert all(flags)


def test_empty_sweep_inputs_rejected():
    inst = make_instance()
    u_hat = constant(inst.aset.op.grid, 0.0)
    with pytest.raises(InvalidInput, match="delta_list must be nonempty"):
        experiments.noise_study(inst, [])
    with pytest.raises(InvalidInput, match="lambda_list must be nonempty"):
        experiments.lavrentiev_sweep(inst, 1e-2, [], "plus", u_hat)
    with pytest.raises(InvalidInput, match="pairs must be nonempty"):
        experiments.alpha_continuity_check(inst.y_d, inst.aset, [])


class TestCsv:
    def rec(self, **kw):
        base = dict(alpha=1e-2, lam=0.0, delta=0.0, err_u=0.1, err_Su=0.05,
                    margin_lo=0.01, margin_up=0.9, margin_state=0.04,
                    n_active_lo=0, n_active_up=2, n_active_state=1,
                    iters=42)
        base.update(kw)
        return SweepRecord(**base)

    def test_header_and_shape(self):
        text = records_to_csv([self.rec()])
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines[1].split(",")) == len(CSV_COLUMNS)
        assert text.endswith("\n") and "\r" not in text

    def test_deterministic_mode_zeroes_seconds(self):
        # the seconds column is always written as 0
        text = records_to_csv([self.rec()])
        assert text.split("\n")[1].split(",")[-1] == "0"

    def test_17_digit_round_trip(self):
        r = self.rec(err_u=1.0 / 3.0, alpha=np.pi * 1e-3)
        text = records_to_csv([r])
        vals = text.split("\n")[1].split(",")
        assert float(vals[0]) == r.alpha
        assert float(vals[3]) == r.err_u
