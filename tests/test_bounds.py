import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shared_basis
from dini.basis import build_basis, inner_product_rule
from dini.bounds import (
    Envelope,
    EnvelopeKind,
    F_nu,
    _default_trial_grams,
    _trial_function_norms,
    boundary_refined_coords,
    envelope_eval,
    envelope_reports,
    hardy_check,
    heat_long_envelope,
    heat_short_envelope,
    offdiagonal_pair_grid,
    pair_grid,
    poisson_long_envelope,
    poisson_short_envelope,
    potential_envelope,
    ratio_report,
    rellich_check,
    sandwich_check,
)
from dini.errors import DomainError, NonFiniteRatioError, SandwichViolation
from dini.specfun import Regime, SpectralParams


class TestF:
    def test_left_endpoint(self):
        for nu in (-0.9, 0.0, 1.3):
            ref = (0.25 - nu * nu) * math.pi**2 / 12.0
            assert F_nu(nu, 0.0) == pytest.approx(ref, rel=1e-12)

    def test_right_endpoint(self):
        for nu in (-0.9, 0.0, 1.3):
            ref = (0.25 - nu * nu) * (math.pi**2 / 4.0 - 1.0)
            assert F_nu(nu, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_half_orders_vanish(self):
        x = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(F_nu(0.5, x))) == 0.0
        assert np.max(np.abs(F_nu(-0.5, x))) == 0.0

    def test_series_matches_direct_at_crossover(self):
        # Straddle the branch switch at x = 0.05 so closely that the function
        # itself cannot move; any jump would be a branch inconsistency.
        for nu in (0.0, 2.0):
            lo = F_nu(nu, 0.05)
            hi = F_nu(nu, 0.05 + 1e-12)
            assert lo == pytest.approx(hi, rel=1e-11)

    @given(st.floats(-0.95, 3.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_endpoint_dominates(self, nu, x):
        assert abs(F_nu(nu, x)) <= abs(F_nu(nu, 1.0)) + 1e-12

    def test_monotone(self):
        x = np.linspace(0.0, 1.0, 200)
        for nu in (-0.9, 0.0, 0.4, 2.0):
            d = np.diff(F_nu(nu, x))
            assert np.all(d >= -1e-14) or np.all(d <= 1e-14)


class TestEnvelopeEval:
    def test_heat_short_on_diagonal_saturated(self):
        env = heat_short_envelope(0.7)
        t = 0.01
        x = 0.5
        assert envelope_eval(env, t, x, x) == pytest.approx(t**-0.5, rel=1e-14)

    def test_heat_long_neumann_constant(self):
        env = Envelope(EnvelopeKind.HEAT_LONG, -0.5, rate=0.0)
        assert envelope_eval(env, 3.0, 0.2, 0.9) == pytest.approx(1.0, rel=1e-14)

    def test_potential_log_branch_half(self):
        env = potential_envelope(0.7)
        x, y = 0.4, 0.41
        base = (x * y) ** 1.2
        bracket = envelope_eval(env, 0.5, x, y) / base
        s, r, d = x + y, 2.0 - x - y, abs(x - y)
        expected = 1.0 + math.log(2.0 / r) + math.log(s * r / d) * s ** (2 * 0.5 - 2 * 1.7)
        assert bracket == pytest.approx(expected, rel=1e-12)

    def test_potential_log_branch_nu_plus_one(self):
        env = potential_envelope(0.0)
        x, y = 0.1, 0.3
        val = envelope_eval(env, 1.0, x, y)
        s, r = x + y, 2.0 - x - y
        expected = (x * y) ** 0.5 * (1.0 + math.log(2.0 / s) + s**0.0 * r**1.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            envelope_eval(heat_short_envelope(0.0), 0.1, 0.0, 0.5)


class TestSandwich:
    GRID = pair_grid(boundary_refined_coords(10))

    @pytest.mark.parametrize("nu", [-0.75, -0.25, 0.25, 2.0])
    def test_holds_on_both_branches(self, nu):
        reports = sandwich_check(nu, [0.05, 0.5], self.GRID, n_max=250)
        for r in reports:
            assert r.min_lower_margin > -1e-12
            assert r.min_upper_margin > -1e-12

    def test_equality_collapse_at_half(self):
        reports = sandwich_check(0.5, [0.1], self.GRID, n_max=250)
        r = reports[0]
        assert r.lower_factor == 1.0 and r.upper_factor == 1.0
        assert abs(r.min_lower_margin) < 1e-10
        assert abs(r.min_upper_margin) < 1e-10

    def test_violation_detected(self, monkeypatch):
        # Falsify the generator difference (sign flip): the upper comparison
        # then genuinely fails and the check must report a witness point.
        import dini.bounds as bounds_mod

        true_f = F_nu
        monkeypatch.setattr(bounds_mod, "F_nu", lambda nu, x: -true_f(nu, x))
        with pytest.raises(SandwichViolation) as err:
            bounds_mod.sandwich_check(2.0, [0.5], self.GRID, n_max=250)
        assert err.value.point is not None


class TestRatioReport:
    def test_report_fields_and_serialization(self, tmp_path):
        pairs = [(0.2, 0.3), (0.5, 0.6)]
        rep = ratio_report([1.0, 2.0], [0.5, 4.0], pairs, "heat", {"nu": 0.0}, 0.1)
        assert rep.min_ratio == 0.5 and rep.max_ratio == 2.0
        assert rep.argmax == (0.2, 0.3)
        d = rep.to_json_dict()
        assert d["n_points"] == 2
        path = tmp_path / "points.csv"
        with open(path, "w") as fh:
            rep.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,kernel,envelope,ratio"
        assert len(lines) == 3

    def test_points_csv_is_per_point_formatting(self):
        pairs = [(0.2, 0.3), (0.5, 0.6), (0.1, 0.9)]
        kv, ev = [1 / 3, 2 / 3, 1 / 3], [0.1, 1e-300, 0.1]
        rep = ratio_report(kv, ev, pairs, "heat", {"nu": 0.0}, 0.1)
        out = io.StringIO()
        rep.write_csv(out)
        lines = ["x,y,kernel,envelope,ratio"]
        for (x, y), k, e in zip(pairs, kv, ev):
            lines.append(",".join("%.17g" % v for v in (x, y, k, e, k / e)))
        assert out.getvalue() == "\n".join(lines) + "\n"
        assert rep.argmin == (0.2, 0.3) and rep.argmax == (0.5, 0.6)

    def test_nonfinite_guard(self):
        with pytest.raises(NonFiniteRatioError):
            ratio_report([1.0, -1.0], [1.0, 1.0], [(0.1, 0.2), (0.3, 0.4)], "k", {}, 1.0)

    def test_floor_masks_unresolvable(self):
        rep = ratio_report(
            [1.0, 1e-30],
            [1.0, 1e-30],
            [(0.1, 0.2), (0.3, 0.9)],
            "k",
            {},
            1.0,
            floor=1e-6,
        )
        assert rep.n_points == 1


class TestRatioSweeps:
    def test_heat_short_spread_small(self):
        b = shared_basis(0.0, n_max=300)
        grid = pair_grid(boundary_refined_coords(12))
        reports = envelope_reports(b, grid, [1e-3, 1e-2, 0.1], heat_short_envelope(0.0), tol=1e-10)
        for r in reports:
            assert 1.0 <= r.spread < 50.0

    def test_heat_long_spread_stable(self):
        b = shared_basis(1.5, n_max=300)
        grid = pair_grid(boundary_refined_coords(12))
        env = heat_long_envelope(b)
        reports = envelope_reports(b, grid, [1.0, 3.0, 5.0], env, tol=1e-10)
        spreads = [r.spread for r in reports]
        assert max(spreads) / min(spreads) < 1.05

    def test_poisson_spread(self):
        b = shared_basis(0.0, n_max=1500)
        grid = pair_grid(boundary_refined_coords(10))
        reports = envelope_reports(
            b, grid, [0.05, 0.2], poisson_short_envelope(0.0), tol=1e-9, d=0.0
        )
        for r in reports:
            assert r.spread < 100.0


class TestPoissonLongEnvelope:
    """The large-time Poisson envelope, through envelope_reports and the
    rescaled poisson_values behind it, at the heat-long times."""

    TIMES = [1.0, 2.5, 5.0]

    def reports(self, nu, d):
        b = shared_basis(nu, n_max=300)
        grid = pair_grid(boundary_refined_coords(8))
        return envelope_reports(b, grid, self.TIMES, poisson_long_envelope(b, d), tol=1e-10, d=d)

    def test_zero_regime_ground_mode_takes_over(self):
        # At nu = -1/2, H = 1/2 the ground mode is x^0 with eigenvalue 0, so
        # at d = 0 the rescaled kernel tends to it and the spread to 1.
        spreads = [r.spread for r in self.reports(-0.5, 0.0)]
        assert spreads == pytest.approx([1.1888, 1.00155, 1.0], abs=1e-4)

    @pytest.mark.parametrize("d, first", [(0.0, 3.39), (1.0, 3.58)])
    def test_plus_regime_spread_finite(self, d, first):
        spreads = [r.spread for r in self.reports(0.5, d)]
        assert spreads == pytest.approx([first, 2.47, 2.46], abs=0.01)

    @pytest.mark.parametrize("d", [0.0, 1.0])
    def test_minus_regime_shift_too_small(self, d):
        # z_0 = 1.92 > d: the shifted bottom eigenvalue d^2 - z_0^2 is negative.
        with pytest.raises(DomainError, match="shift too small"):
            poisson_long_envelope(shared_basis(-0.75, -1.5, n_max=300), d)


class TestHeatLongEnvelope:
    @pytest.mark.parametrize("nu, regime, regime_rate", [
        (0.0, Regime.PLUS, lambda b: b.eigen[1]),
        (-0.5, Regime.ZERO, lambda b: 0.0),
        (-0.75, Regime.MINUS, lambda b: b.eigen[0]),  # -z_0^2
    ])
    def test_rate_is_the_bottom_eigenvalue(self, nu, regime, regime_rate):
        # The three-way regime branch the rate was chosen by, as the reference.
        b = shared_basis(nu, n_max=300)
        assert b.params.regime is regime
        assert heat_long_envelope(b).rate == regime_rate(b)


class TestToleranceChecks:
    def test_heat_envelope_reports_rejects_nan_tol(self):
        b = shared_basis(0.0, n_max=300)
        with pytest.raises(DomainError, match="tolerance"):
            envelope_reports(b, [(0.3, 0.6)], [0.1], heat_short_envelope(0.0), tol=math.nan)

    def test_sandwich_check_rejects_inf_tol(self):
        with pytest.raises(DomainError, match="tolerance"):
            sandwich_check(0.25, [0.1], [(0.3, 0.6)], n_max=250, tol=math.inf)


class TestWeightedInequalities:
    def test_single_mode(self):
        lhs, rhs = rellich_check(2.0, [1.0])
        assert lhs <= rhs
        assert lhs > 0.0

    def test_zero_trial(self):
        lhs, rhs = rellich_check(2.0, [0.0, 0.0])
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("nu", [1.2, 2.0, 5.0])
    def test_random_trials(self, nu, rng):
        for _ in range(20):
            coeffs = rng.standard_normal(5)
            lhs, rhs = rellich_check(nu, coeffs)
            assert lhs <= rhs * (1.0 + 1e-6)
            lhs_h, rhs_h = hardy_check(nu, coeffs)
            assert lhs_h <= rhs_h * (1.0 + 1e-6)

    def test_requires_nu_above_one(self):
        with pytest.raises(DomainError):
            rellich_check(0.9, [1.0])

    @staticmethod
    def direct_norms(nu, coeffs, quad):
        """||f/x^2||, ||f'/x||, ||Lf|| by quadrature of f itself (the
        computation the Gram forms replace)."""
        b = build_basis(SpectralParams(nu, 0.5), coeffs.size)
        full = np.concatenate([[0.0], coeffs])
        x = quad.nodes
        f = full @ b.psi_matrix(x)
        fp = full @ b.psi_prime_matrix(x)
        return (
            math.sqrt(float(np.dot(quad.weights, (f / x**2) ** 2))),
            math.sqrt(float(np.dot(quad.weights, (fp / x) ** 2))),
            math.sqrt(float(np.sum((coeffs * b.eigen[1:]) ** 2))),
        )

    @pytest.mark.parametrize("nu", [1.05, 1.2, 2.0, 5.0])
    def test_gram_forms_match_direct_quadrature(self, nu, rng):
        quad = inner_product_rule(2048, 2.0 * nu - 3.0)
        for n_terms in range(1, 9):
            coeffs = rng.standard_normal(n_terms)
            got = _trial_function_norms(nu, coeffs)
            ref = self.direct_norms(nu, coeffs, quad)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_cache_hit_equals_miss(self, rng):
        coeffs = rng.standard_normal(6)
        _default_trial_grams.cache_clear()
        miss = (rellich_check(2.5, coeffs), hardy_check(2.5, coeffs))
        assert _default_trial_grams.cache_info().misses == 1
        hit = (rellich_check(2.5, coeffs), hardy_check(2.5, coeffs))
        assert _default_trial_grams.cache_info().hits == 3
        assert miss == hit
        assert _default_trial_grams.cache_info().currsize == 1


class TestGrids:
    def test_boundary_refinement(self):
        coords = boundary_refined_coords(10)
        assert coords.min() == pytest.approx(1e-3)
        assert coords.max() == pytest.approx(1.0 - 1e-3)
        assert np.all(np.diff(coords) > 0)

    @pytest.mark.parametrize("coords, min_sep", [
        (boundary_refined_coords(8), 0.05),
        (boundary_refined_coords(20), 0.02),
        (boundary_refined_coords(7, refine=False), 0.3),
        (np.array([0.5]), 0.02),
    ])
    def test_array_grids_equal_list_grids(self, coords, min_sep):
        # The list comprehensions the grids were built with, as the reference.
        xs, ys = np.meshgrid(coords, coords)
        tensor = list(zip(xs.ravel().tolist(), ys.ravel().tolist()))
        off = [(x, y) for x in coords for y in coords if abs(x - y) >= min_sep]
        for x in coords[(coords > 0.1) & (coords < 0.9)]:
            if x + min_sep < 1.0:
                off.append((float(x), float(x + min_sep)))
        for grid, ref in ((pair_grid(coords), tensor),
                          (offdiagonal_pair_grid(coords, min_sep), off)):
            assert grid.dtype == np.float64 and grid.shape == (len(ref), 2)
            assert grid.tolist() == [list(p) for p in ref]

    def test_offdiagonal_separation(self):
        pairs = offdiagonal_pair_grid(boundary_refined_coords(8), 0.05)
        assert all(abs(x - y) >= 0.05 - 1e-12 for x, y in pairs)
