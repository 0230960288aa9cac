"""Tests of the benchmark's oracles against their defining properties.

Run from the root of a checkout: python3 -m pytest -q bench/test_oracles.py
"""

import math

import numpy as np
import pytest
from scipy.special import jn_zeros

import oracles


def composite_gauss(panels: int = 64, order: int = 20):
    """Composite Gauss-Legendre rule on (0, 1), from numpy alone."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 1.0])
def test_image_sum_integrates_to_one(t):
    y, w = composite_gauss()
    for x in (0.003, 0.3, 0.5, 0.97):
        assert np.dot(w, oracles.neumann_heat(t, x, y)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1])
def test_image_sum_matches_cosine_series(t):
    x, y = np.meshgrid(np.linspace(0.01, 0.99, 9), np.linspace(0.01, 0.99, 9))
    n = np.arange(1, 4001)[:, None]
    series = 1.0 + 2.0 * np.sum(
        np.exp(-t * (math.pi * n) ** 2) * np.cos(math.pi * n * x.ravel()) * np.cos(math.pi * n * y.ravel()),
        axis=0,
    )
    assert np.max(np.abs(oracles.neumann_heat(t, x, y).ravel() - series)) < 1e-12


def test_abel_poisson_matches_sine_series():
    t = 0.3
    x, y = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 7))
    w = math.pi * (np.arange(1, 400)[:, None] - 0.5)
    series = np.sum(2.0 * np.exp(-t * w) * np.sin(w * x.ravel()) * np.sin(w * y.ravel()), axis=0)
    assert np.max(np.abs(oracles.half_sine_poisson(t, x, y).ravel() - series)) < 1e-13


def test_cosh_green_function():
    h = 1e-4
    u = oracles.neumann_green_shifted
    for y in (0.2, 0.5, 0.85):
        for x in (0.1, 0.4, 0.7, 0.95):
            if abs(x - y) > 10 * h:
                upp = (u(x + h, y) - 2.0 * u(x, y) + u(x - h, y)) / h**2
                assert -upp + u(x, y) == pytest.approx(0.0, abs=1e-6)
        eps = 1e-7
        assert (u(eps, y) - u(0.0, y)) / eps == pytest.approx(0.0, abs=1e-6)
        assert (u(1.0, y) - u(1.0 - eps, y)) / eps == pytest.approx(0.0, abs=1e-6)
        # Unit jump of -u' across the diagonal makes it the Green function.
        jump = (u(y + 2 * eps, y) - u(y + eps, y)) / eps - (u(y - eps, y) - u(y - 2 * eps, y)) / eps
        assert jump == pytest.approx(-1.0, abs=1e-5)


def test_mixed_green_matches_sine_series():
    x, y = 0.3, 0.6
    w = math.pi * (np.arange(1, 200_001) - 0.5)
    series = float(np.sum(2.0 * np.sin(w * x) * np.sin(w * y) / w**2))
    assert oracles.mixed_green(x, y) == pytest.approx(series, abs=1e-6)


def test_cosine_coefficients_match_quadrature():
    nodes, weights = composite_gauss()
    f = oracles.trial_f(nodes)
    coeffs = oracles.trial_cosine_coeffs(60)
    assert coeffs[0] == pytest.approx(np.dot(weights, f), abs=1e-15)
    for n in range(1, 61):
        quad = math.sqrt(2.0) * np.dot(weights, f * np.cos(n * math.pi * nodes))
        assert coeffs[n] == pytest.approx(quad, abs=1e-14)


def test_semigroup_trial_tends_to_f():
    x = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(oracles.neumann_semigroup_trial(1e-7, x) - oracles.trial_f(x))) < 1e-5


def test_robin_residual_vanishes_at_half_integer_order():
    # nu = H = 1/2: sqrt(x) J_{1/2} is a sine and the zeros are (n - 1/2) pi.
    z = math.pi * (np.arange(1, 50) - 0.5)
    assert np.max(oracles.robin_j_residual(0.5, 0.5, z)) < 1e-14


def test_interlacing():
    j = jn_zeros(1, 20)
    mids = np.concatenate([[0.5 * j[0]], 0.5 * (j[:-1] + j[1:])])
    assert oracles.interlaces(1, mids)
    assert not oracles.interlaces(1, mids + 0.6 * np.diff(np.concatenate([[0.0], j])))


@pytest.mark.parametrize("nu", [-0.99, -0.9, -0.75, -0.6, -0.51])
def test_x0_brackets_the_bottom_zero(nu):
    x0 = oracles.x0_closed_form(nu)
    assert 0.0 < x0 < 0.5
    assert oracles.robin_i_value(nu, 0.5, 1e-8) < 0.0 < oracles.robin_i_value(nu, 0.5, x0)


@pytest.mark.parametrize("nu", [-0.75, 0.0, 2.0])
def test_generator_difference_ends(nu):
    f0, f1 = oracles.generator_difference_ends(nu)
    c = 0.25 - nu * nu
    x = 1e-3
    near0 = c * (math.pi**2 / (4.0 * math.sin(0.5 * math.pi * x) ** 2) - 1.0 / x**2)
    assert f0 == pytest.approx(near0, rel=1e-5, abs=1e-12)
    assert f1 == pytest.approx(c * (math.pi**2 / 4.0 - 1.0), rel=1e-15, abs=1e-15)
