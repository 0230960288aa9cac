import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dini.errors import DomainError, NoSignChangeError
from dini.numerics import (
    Bracket,
    QuadratureRule,
    endpoint_graded_rule,
    gauss_legendre,
    refine_root,
)
from dini.specfun import SpectralParams, bessel_jh

# First zero of the H=1/2 Robin combination at nu=0, frozen from a plain
# 200-step bisection of 0.5*J_0(x) - x*J_1(x) on (0.1, 2.4048).
Z1_NU0_H_HALF = 0.9407705639497375


class TestBracket:
    def test_requires_sign_change(self):
        with pytest.raises(NoSignChangeError):
            Bracket(0.0, 1.0, 1, 1)

    def test_requires_ordering(self):
        with pytest.raises(NoSignChangeError):
            Bracket(2.0, 1.0, -1, 1)

    def test_from_function(self):
        br = Bracket.from_function(lambda x: x - 0.5, 0.0, 1.0)
        assert br.f_lo_sign == -1 and br.f_hi_sign == 1


class TestRefineRoot:
    def test_sqrt_two(self):
        br = Bracket.from_function(lambda x: x * x - 2.0, 1.0, 2.0)
        root, final = refine_root(lambda x: x * x - 2.0, br, 1e-12)
        assert abs(root - math.sqrt(2.0)) < 1e-12
        assert final.width <= 1e-12

    def test_cosine_half_pi(self):
        br = Bracket.from_function(math.cos, 1.0, 2.0)
        root, final = refine_root(math.cos, br, 1e-12)
        assert abs(root - math.pi / 2.0) < 1e-12
        assert final.f_lo_sign != final.f_hi_sign

    def test_robin_combination_first_zero(self):
        p = SpectralParams(0.0, 0.5)
        f = lambda x: bessel_jh(p, x)
        br = Bracket.from_function(f, 0.1, 2.4048)
        root, _ = refine_root(f, br, 1e-12)
        assert abs(root - Z1_NU0_H_HALF) < 1e-11

    def test_newton_acceleration_stays_bracketed(self):
        f = lambda x: math.tanh(10.0 * (x - 0.3))
        df = lambda x: 10.0 / math.cosh(10.0 * (x - 0.3)) ** 2
        br = Bracket.from_function(f, 0.0 + 1e-9, 1.0)
        root, _ = refine_root(f, br, 1e-13, df=df)
        assert abs(root - 0.3) < 1e-12

    def test_exact_zero_bracket_is_signed(self):
        # The first midpoint 0.5 is an exact zero, but f < 0 just above it:
        # a bracket around 0.5 would not be signed, so none is returned.
        f = lambda x: 0.0 if x == 0.5 else (1.0 if x >= 0.75 else -1.0)
        br = Bracket.from_function(f, 0.0, 1.0)
        with pytest.raises(NoSignChangeError):
            refine_root(f, br, 1e-12)
        root, final = refine_root(lambda x: x - 0.5, Bracket(0.0, 1.0, -1, 1), 1e-12)
        assert root == 0.5 and final.lo < 0.5 < final.hi
        assert (final.f_lo_sign, final.f_hi_sign) == (-1, 1)

    @pytest.mark.parametrize("tol", [1e-13, 4.0 * math.ulp(64.0)])
    def test_exact_zero_bracket_honours_tol(self, tol):
        # The first midpoint 64 is an exact zero; the bracket around it must
        # still be signed and no wider than tol (tol >= 2 ulp(64)).
        root, final = refine_root(lambda x: x - 64.0, Bracket(0.0, 128.0, -1, 1), tol)
        assert root == 64.0 and final.lo < 64.0 < final.hi
        assert final.width <= tol
        assert (final.f_lo_sign, final.f_hi_sign) == (-1, 1)

    @given(st.floats(-0.9, 0.9), st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_enclosure_property(self, shift, scale):
        f = lambda x: scale * (x - shift) ** 3 + (x - shift)
        br = Bracket.from_function(f, shift - 1.0, shift + 1.3)
        root, final = refine_root(f, br, 1e-11)
        assert final.lo <= root <= final.hi
        assert final.width <= 1e-11


class TestGaussLegendre:
    def test_midpoint_rule(self):
        rule = gauss_legendre(1)
        assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_two_point_nodes(self):
        rule = gauss_legendre(2)
        ref = 0.5 - 1.0 / (2.0 * math.sqrt(3.0))
        assert rule.nodes[0] == pytest.approx(ref, abs=1e-15)
        assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-15)

    def test_cubic_exact_with_two_points(self):
        rule = gauss_legendre(2)
        assert rule.integrate(lambda x: x**3) == pytest.approx(0.25, abs=1e-15)

    def test_range_check(self):
        with pytest.raises(DomainError):
            gauss_legendre(0)
        with pytest.raises(DomainError):
            gauss_legendre(4097)

    def test_weights_sum_to_one(self):
        for n in (3, 64, 512):
            rule = gauss_legendre(n)
            assert abs(rule.weights.sum() - 1.0) <= 1e-14

    def test_memoized_read_only(self):
        rule = gauss_legendre(64)
        assert gauss_legendre(64) is rule
        for arr in (rule.nodes, rule.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    @given(st.integers(1, 40), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_monomial_exactness(self, n, spread):
        k = max(0, 2 * n - 1 - spread)
        rule = gauss_legendre(n)
        exact = 1.0 / (k + 1.0)
        assert rule.integrate(lambda x: x**k) == pytest.approx(exact, rel=1e-13)


class TestGradedRule:
    def test_integrates_endpoint_singularity(self):
        rule = endpoint_graded_rule(256, m_left=15, m_right=1)
        # int_0^1 x^{-0.8} dx = 5
        val = rule.integrate(lambda x: x**-0.8)
        assert val == pytest.approx(5.0, rel=1e-10)

    def test_invariants(self):
        rule = endpoint_graded_rule(128, 4, 4)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-14

    def test_memoized_read_only(self):
        rule = endpoint_graded_rule(96, 3, 2)
        assert endpoint_graded_rule(96, 3, 2) is rule
        assert endpoint_graded_rule(96, 2, 3) is not rule
        for arr in (rule.nodes, rule.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5


def test_quadrature_rule_validation():
    with pytest.raises(DomainError):
        QuadratureRule(np.array([0.2, 0.1]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        QuadratureRule(np.array([0.1, 0.2]), np.array([0.5, -0.5]))
