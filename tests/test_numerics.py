import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dini.errors import DomainError
from dini.numerics import QuadratureRule, endpoint_graded_rule, gauss_legendre


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
