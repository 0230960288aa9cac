import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from dini.errors import DomainError, OverflowRangeError
from dini.specfun import (
    HANKEL_TERMS,
    X_MAX_J,
    JacobiParams,
    Regime,
    SpectralParams,
    bessel_i,
    bessel_ih,
    bessel_j,
    bessel_j_pair,
    bessel_jh,
    bessel_modulus,
    jacobi_poly,
    robin_and_slope,
)
from dini.specfun import _hankel_order as hankel_order
from dini.zeros import build_zero_table

# The orders of the Hankel tests: the MINUS and ZERO regimes, the closed
# forms at +-1/2, 1.5 and 2.5, and the large orders of the 3000-mode zero
# tables.
HANKEL_NUS = [-0.9, -0.75, -0.5, 0.0, 0.3, 0.5, 1.5, 2.5, 3.0, 20.0, 30.0]
# The stated targets above R(nu), in units of the envelope sqrt(2/(pi x)):
# first neglected terms at most 2^-53, absolute terms of the sums at most 2.
REMAINDER, SUM_BOUND = 2.0**-53, 2.0


class TestSpectralParams:
    def test_regimes(self):
        assert SpectralParams(0.5, 0.5).regime is Regime.PLUS
        assert SpectralParams(-0.5, 0.5).regime is Regime.ZERO
        assert SpectralParams(-0.8, 0.5).regime is Regime.MINUS

    def test_order_domain(self):
        with pytest.raises(DomainError):
            SpectralParams(-1.0, 0.5)

    def test_jacobi_domain(self):
        with pytest.raises(DomainError):
            JacobiParams(-1.2, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN fails every comparison, so without a finiteness check H = NaN
        # would be classified MINUS and reach the zero search.
        with pytest.raises(DomainError, match="H must be finite"):
            SpectralParams(0.0, bad)
        with pytest.raises(DomainError):
            SpectralParams(bad, 0.5)
        with pytest.raises(DomainError):
            JacobiParams(bad, -0.5)


class TestBesselJ:
    def test_closed_form_minus_half(self):
        # J_{-1/2}(x) = sqrt(2/(pi x)) cos x, checked at x = pi.
        assert bessel_j(-0.5, math.pi) == pytest.approx(
            -math.sqrt(2.0) / math.pi, rel=1e-13
        )

    def test_closed_form_plus_half(self):
        assert bessel_j(0.5, math.pi / 2.0) == pytest.approx(2.0 / math.pi, rel=1e-13)

    def test_closed_forms_on_range(self):
        x = np.linspace(0.01, 50.0, 3000)
        ref_m = np.sqrt(2.0 / (np.pi * x)) * np.cos(x)
        ref_p = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
        scale = np.sqrt(2.0 / (np.pi * x))
        assert np.max(np.abs(bessel_j(-0.5, x) - ref_m) / scale) < 1e-12
        assert np.max(np.abs(bessel_j(0.5, x) - ref_p) / scale) < 1e-12

    def test_small_argument_expansion(self):
        # J_0(x) = 1 - x^2/4 + O(x^4)
        assert bessel_j(0.0, 1e-6) == pytest.approx(1.0 - 2.5e-13, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(-1.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0.0, 2e5)

    def test_cap_at_x_max(self):
        assert math.isfinite(bessel_j(0.0, X_MAX_J))
        with pytest.raises(DomainError):
            bessel_j(0.0, np.array([1.0, X_MAX_J * (1.0 + 1e-15)]))

    @pytest.mark.parametrize("nu", [-0.75, 0.0, 0.3, 3.0])
    def test_agrees_with_mpmath_up_to_cap(self, nu):
        mpmath = pytest.importorskip("mpmath")
        x = np.geomspace(1.0, X_MAX_J, 120)
        ref = np.array([float(mpmath.besselj(nu, float(v))) for v in x])
        # J_nu(x) ~ sqrt(2/(pi x)) cos(...): scale by max(|J|, x^{-1/2}) so
        # that the error near a zero of J is measured on the envelope's scale.
        err = np.abs(bessel_j(nu, x) - ref) / np.maximum(np.abs(ref), x**-0.5)
        # From R(nu) (about 19 at these orders) on, the Hankel sums hold
        # their stated error; below it scipy's jv at fractional orders
        # loses up to 3.1e-14 (nu = 0.3, x ~ 14).
        above = x >= hankel_order(nu)[0]
        assert np.max(err[above]) <= 1e-14
        assert np.max(err[~above]) <= 1e-13


def hankel_coefficients(nu, count):
    """a_0..a_{count-1}(nu) of DLMF 10.17.1 at 30 digits."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        a, mu = [mp.mpf(1)], 4 * mp.mpf(nu) ** 2
        for k in range(1, count):
            a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8 * k))
    return a


class TestHankel:
    """J_nu from the Hankel expansion at x >= R(nu) (``_hankel_order``)."""

    @pytest.mark.parametrize("nu", HANKEL_NUS)
    def test_agrees_with_mpmath_above_r(self, nu):
        mp = pytest.importorskip("mpmath").mp
        r = hankel_order(nu)[0]
        x = np.concatenate([r * (1.0 + np.geomspace(1e-12, 1e-2, 12)),
                            np.geomspace(r, X_MAX_J, 60)])
        with mp.workdps(30):
            ref = np.array([float(mp.besselj(nu, mp.mpf(v))) for v in x])
        # The stated truncation bound plus the rounding of sums whose
        # absolute terms total at most SUM_BOUND, in units of the envelope.
        err = np.abs(bessel_j(nu, x) - ref) / np.sqrt(2.0 / (np.pi * x))
        assert np.max(err) <= REMAINDER + 16 * SUM_BOUND * 2.0**-53

    @pytest.mark.parametrize("nu", HANKEL_NUS)
    def test_first_neglected_terms_at_r(self, nu):
        """R(nu) meets both stated tests and is the least x >= 1 that does;
        l meets DLMF 10.17(iii)'s l >= max(|nu|/2 - 1/4, 1) and l >= |nu| -
        1/2; the coefficients are DLMF's."""
        mp = pytest.importorskip("mpmath").mp
        r, coef, _, _ = hankel_order(nu)
        ell = max(HANKEL_TERMS, math.ceil(abs(nu) - 0.5))
        assert ell >= max(abs(nu) / 2 - 0.25, 1.0) and ell >= abs(nu) - 0.5
        a = hankel_coefficients(nu, 2 * ell + 2)
        with mp.workdps(30):
            def tests(x):
                x = mp.mpf(x)
                tail = abs(a[2 * ell]) / x ** (2 * ell) + abs(a[2 * ell + 1]) / x ** (2 * ell + 1)
                total = sum(abs(a[k]) / x**k for k in range(2 * ell))
                return tail <= REMAINDER, total <= SUM_BOUND
            assert all(tests(r))
            assert r == 1.0 or not all(tests(r * (1 - 1e-8)))
        # Rows e_P, o_P, e_Q, o_Q in 1/x^4, highest power first.
        signed = [float((-1) ** (k // 2) * a[k]) for k in range(2 * ell)]
        for row, start in enumerate((0, 2, 1, 3)):
            want = signed[start : 2 * ell : 4][::-1]
            got = coef[row, coef.shape[1] - len(want) :]
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
            assert np.all(coef[row, : coef.shape[1] - len(want)] == 0.0)

    def test_large_orders_stay_on_jv(self):
        # From nu ~ 92.5 on the coefficients a_k overflow binary64, so no x
        # passes the stated tests and jv serves every x.
        assert hankel_order(100.0)[0] == math.inf
        x = np.geomspace(1.0, X_MAX_J, 50)
        assert np.array_equal(bessel_j(100.0, x), jv(100.0, x))

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 1.5, 2.5, 11.7, 30.0])
    def test_pair_equals_two_single_calls(self, nu):
        r = min(hankel_order(nu)[0], hankel_order(nu + 1.0)[0])
        x = np.concatenate([np.geomspace(1e-3, X_MAX_J, 3001),
                            np.linspace(0.5 * r, 3.0 * r, 1001)])
        j_nu, j_next = bessel_j_pair(nu, x)
        assert np.array_equal(j_nu, bessel_j(nu, x))
        assert np.array_equal(j_next, bessel_j(nu + 1.0, x))
        for v in x[::250]:
            assert bessel_j_pair(nu, float(v)) == (bessel_j(nu, float(v)),
                                                    bessel_j(nu + 1.0, float(v)))

    @pytest.mark.parametrize("nu", [-0.75, 0.0, 2.5, 20.0])
    def test_scalar_array_and_slices_same_bits(self, nu):
        """A value depends only on (nu, x): not on the size, shape, stride or
        order of the array, nor on whether x is a scalar."""
        rng = np.random.default_rng(7)
        x = np.concatenate([np.geomspace(1e-3, X_MAX_J, 20_000), rng.uniform(1.0, 40.0, 4_000)])
        full = bessel_j(nu, x)
        for part in (slice(None, None, 7), slice(3, 1000), slice(None, None, -1),
                     slice(19_990, 20_010), slice(5, 6)):
            assert np.array_equal(bessel_j(nu, x[part]), full[part])
        assert np.array_equal(bessel_j(nu, x[:24_000].reshape(120, 200)),
                              full[:24_000].reshape(120, 200))
        assert np.array_equal(bessel_j(nu, x.reshape(-1, 1)[::3]), full[::3].reshape(-1, 1))
        for i in range(0, x.size, 997):
            assert bessel_j(nu, float(x[i])) == full[i]


class TestBesselModulus:
    @pytest.mark.parametrize("nu", [-0.9, -0.75, 0.0, 0.75, 3.0])
    def test_agrees_with_mpmath(self, nu):
        mpmath = pytest.importorskip("mpmath")
        x = np.geomspace(1e-3, X_MAX_J, 40)
        ref = np.array([float(mpmath.sqrt(v * (mpmath.besselj(nu, v) ** 2
                                               + mpmath.bessely(nu, v) ** 2)))
                        for v in map(float, x)])
        assert np.max(np.abs(bessel_modulus(nu, x) / ref - 1.0)) <= 1e-14

    def test_bounds_sqrt_x_j(self):
        x = np.linspace(1e-3, 50.0, 5001)
        for nu in (-0.75, 0.0, 2.5):
            envelope = bessel_modulus(nu, x) * (1 + 1e-14)
            assert np.all(np.sqrt(x) * np.abs(bessel_j(nu, x)) <= envelope)


class TestBesselI:
    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x; power-series oracle at x=1.
        x = 1.0
        series = sum((x / 2.0) ** (2 * k + 0.5) / (math.gamma(k + 1) * math.gamma(k + 1.5))
                     for k in range(30))
        assert bessel_i(0.5, 1.0) == pytest.approx(series, rel=1e-13)
        assert bessel_i(0.5, 1.0) == pytest.approx(0.9376748882454876, rel=1e-12)

    def test_small_argument_limit(self):
        assert bessel_i(0.0, 1e-8) == pytest.approx(1.0, abs=1e-15)

    def test_large_argument_growth(self):
        # e^x/sqrt(2 pi x) with first correction bounded by c/x.
        x = 20.0
        lead = math.exp(x) / math.sqrt(2.0 * math.pi * x)
        r = bessel_i(0.3, x) / lead - 1.0
        assert abs(r) < 1.0 / x

    def test_positive(self):
        x = np.linspace(0.05, 30.0, 200)
        assert np.all(bessel_i(0.7, x) > 0.0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowRangeError):
            bessel_i(0.0, 701.0)

    def test_array_of_orders(self):
        nus = np.array([-0.75, 0.0, 2.5])
        assert np.array_equal(bessel_i(nus, 1.5), [bessel_i(nu, 1.5) for nu in nus])
        for bad in (-1.0, -1.5, math.nan):
            with pytest.raises(DomainError, match="order must exceed -1"):
                bessel_i(np.array([-0.5, bad, 0.3]), np.ones(3))


class TestArgumentGuards:
    """NaN and +-inf arguments and NaN orders raise DomainError from each
    Bessel evaluation; an empty argument array passes."""

    @pytest.mark.parametrize("f", [bessel_j, bessel_i, bessel_modulus])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument(self, f, bad):
        for x in (bad, np.array([0.5, bad, 2.0]), np.array([[bad]])):
            with pytest.raises(DomainError):
                f(0.5, x)

    @pytest.mark.parametrize("f", [bessel_j, bessel_i, bessel_modulus])
    def test_nan_order_and_empty_argument(self, f):
        for nu in (math.nan, np.float64(math.nan), np.array([0.5, math.nan])):
            with pytest.raises(DomainError, match="order must exceed -1"):
                f(nu, 1.0)
        assert f(0.5, np.array([])).shape == (0,)


class TestRobinCombinations:
    def test_cosine_zero(self):
        p = SpectralParams(-0.5, 0.5)
        assert abs(bessel_jh(p, math.pi)) < 1e-12

    def test_sine_zero(self):
        p = SpectralParams(0.5, 0.5)
        assert abs(bessel_jh(p, math.pi / 2.0)) < 1e-12

    def test_small_x_limit(self):
        p = SpectralParams(0.0, 0.5)
        assert bessel_jh(p, 1e-8) == pytest.approx(0.5, abs=1e-12)

    def test_i_combination_positive_in_plus_regime(self):
        p = SpectralParams(0.3, 0.5)
        x = np.linspace(0.01, 20.0, 500)
        assert np.all(bessel_ih(p, x) > 0.0)

    def test_i_combination_zero_in_minus_regime(self):
        p = SpectralParams(-0.8, 0.5)
        table = build_zero_table(p, 1)
        assert abs(bessel_ih(p, table.zeros[0])) < 1e-12

    def test_i_combination_neutral_case(self):
        p = SpectralParams(0.0, 0.0)
        assert bessel_ih(p, 1.0) == pytest.approx(0.565159103992485, rel=1e-12)

    def test_jh_derivative_identity(self):
        p = SpectralParams(0.7, 0.5)
        h = 1e-6
        for f, modified in ((bessel_jh, False), (bessel_ih, True)):
            for x in (0.5, 2.0, 7.3):
                fd = (f(p, x + h) - f(p, x - h)) / (2.0 * h)
                value, slope = robin_and_slope(p.nu, p.h, x, modified)
                assert value == f(p, x)
                assert slope == pytest.approx(fd, abs=2e-7)

    @given(st.floats(-0.95, 4.0), st.floats(0.1, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_recurrence_identity_property(self, nu, x):
        # d/dx [x^{-nu} J_nu(x)] = -x^{-nu} J_{nu+1}(x), by central differences.
        h = 1e-6 * max(1.0, x)
        lhs = ((x + h) ** -nu * bessel_j(nu, x + h) - (x - h) ** -nu * bessel_j(nu, x - h)) / (
            2.0 * h
        )
        rhs = -(x**-nu) * bessel_j(nu + 1.0, x)
        assert lhs == pytest.approx(rhs, abs=5e-7 * max(1.0, x**-nu))


class TestJacobiPoly:
    def test_degree_zero(self):
        assert jacobi_poly(JacobiParams(0.7, -0.3), 0, 0.4) == 1.0

    def test_legendre_normalization(self):
        assert jacobi_poly(JacobiParams(0.0, 0.0), 2, 1.0) == pytest.approx(1.0, rel=1e-14)

    def _oracle(self, a, b, k, u):
        # Hypergeometric finite sum: P_k = sum_m C(k+a, m) C(k+b, k-m)
        # ((u-1)/2)^{k-m} ((u+1)/2)^m.
        total = 0.0
        for m in range(k + 1):
            c1 = math.gamma(k + a + 1.0) / (math.gamma(m + 1.0) * math.gamma(k + a - m + 1.0))
            c2 = math.gamma(k + b + 1.0) / (
                math.gamma(k - m + 1.0) * math.gamma(b + m + 1.0)
            )
            total += c1 * c2 * ((u - 1.0) / 2.0) ** (k - m) * ((u + 1.0) / 2.0) ** m
        return total

    def test_against_finite_sum_oracle(self):
        val = jacobi_poly(JacobiParams(0.7, -0.5), 5, 0.3)
        assert val == pytest.approx(self._oracle(0.7, -0.5, 5, 0.3), rel=1e-11)

    @given(
        st.floats(-0.9, 2.0),
        st.floats(-0.9, 2.0),
        st.integers(0, 12),
        st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_matches_oracle(self, a, b, k, u):
        val = jacobi_poly(JacobiParams(a, b), k, u)
        assert val == pytest.approx(self._oracle(a, b, k, u), rel=1e-9, abs=1e-9)

    def test_derivative_rule(self):
        # d/du P_k^{a,b} = (k+a+b+1)/2 P_{k-1}^{a+1,b+1}, across parameters.
        jp = JacobiParams(0.4, 0.8)
        k, u, h = 6, 0.25, 1e-6
        fd = (jacobi_poly(jp, k, u + h) - jacobi_poly(jp, k, u - h)) / (2.0 * h)
        rule = 0.5 * (k + 0.4 + 0.8 + 1.0) * jacobi_poly(JacobiParams(1.4, 1.8), k - 1, u)
        assert rule == pytest.approx(fd, abs=1e-6)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            jacobi_poly(JacobiParams(0.0, 0.0), 100_001, 0.0)
