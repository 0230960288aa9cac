import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from dini.errors import DomainError
from dini.numerics import QuadratureRule, csv_text, endpoint_graded_rule, gauss_legendre


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
        assert np.dot(rule.weights, rule.nodes**3) == pytest.approx(0.25, abs=1e-15)

    def test_range_check(self):
        with pytest.raises(DomainError):
            gauss_legendre(0)
        with pytest.raises(DomainError):
            gauss_legendre(4097)

    def test_weights_sum_to_one(self):
        for n in (3, 64, 512):
            rule = gauss_legendre(n)
            assert abs(rule.weights.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", [1, 16, 512])
    def test_mapped_from_roots_legendre(self, n):
        # Mapped from the [-1, 1] rule that kernels' log-panel rules share,
        # bit for bit as from roots_legendre directly.
        x, w = roots_legendre(n)
        rule = gauss_legendre(n)
        assert np.array_equal(rule.nodes, 0.5 * (x + 1.0))
        assert np.array_equal(rule.weights, 0.5 * w)

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
        assert np.dot(rule.weights, rule.nodes**k) == pytest.approx(exact, rel=1e-13)


class TestGradedRule:
    def test_integrates_endpoint_singularity(self):
        rule = endpoint_graded_rule(256, m_left=15, m_right=1)
        # int_0^1 x^{-0.8} dx = 5
        val = np.dot(rule.weights, rule.nodes**-0.8)
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


def per_value_csv(columns: dict) -> str:
    """CSV as written one value at a time: "%.17g" % float(v) for a float,
    str(v) otherwise, over each column's Python scalars."""
    rows = zip(*(np.asarray(c).tolist() for c in columns.values()))
    lines = [",".join(columns)]
    lines += [",".join("%.17g" % float(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


class TestCsvText:
    """csv_text formats each distinct binary64 bit pattern once and writes
    the bytes of per-value formatting."""

    SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-310, 1.0, 1.0, 1 / 3, -1 / 3, 1 / 3, 0.1, 1e300, -0.0, 0.0]

    def test_special_values(self):
        cols = {"v": np.array(self.SPECIAL), "i": np.arange(len(self.SPECIAL)),
                "b": np.arange(len(self.SPECIAL)) % 3 == 0}
        text = csv_text(cols)
        assert text == per_value_csv(cols)
        cells = [line.split(",")[0] for line in text.splitlines()[1:]]
        assert cells[:7] == ["0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324",
                             "-4.9406564584124654e-324"]
        assert cells[-2:] == ["-0", "0"]

    def test_bool_column_reads_true_false(self):
        text = csv_text({"pass": np.array([True, False]), "x": [0.5, 0.25]})
        assert text == "pass,x\nTrue,0.5\nFalse,0.25\n"

    def test_lists_and_scalar_types(self):
        cols = {"a": [0.5, -0.0, 0.5], "n": [1, 20, 300], "f32": np.float32([0.1, 0.1, 2.5])}
        assert csv_text(cols) == per_value_csv(cols)

    def test_repeated_values_of_a_surface(self):
        rng = np.random.default_rng(7)
        pool = np.concatenate([rng.standard_normal(40), -rng.random(5) * 1e-300, [0.0, -0.0]])
        cols = {"x": rng.choice(pool, 600), "y": np.repeat(pool[:6], 100), "n": np.full(600, 17)}
        assert csv_text(cols) == per_value_csv(cols)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_floats(self, values):
        cols = {"v": values + values[::-1], "w": np.array(values * 2)[::-1]}
        assert csv_text(cols) == per_value_csv(cols)

    def test_unequal_columns_refused(self):
        with pytest.raises(ValueError):
            csv_text({"a": [1.0, 2.0], "b": [1.0]})
