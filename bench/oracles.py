"""Closed forms the benchmark checks the program against.

Everything here is computed with numpy and scipy.special directly and never
imports dini, so an output that agrees with these functions was not merely
checked against the code that produced it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import iv, jn_zeros, jv


def neumann_heat(t: float, x, y):
    """Heat kernel of -d^2/dx^2 on (0,1) with Neumann ends, as an image sum.

    This is the nu = -1/2, H = 1/2 system: psi_0 = 1, psi_n = sqrt(2) cos(n pi x).
    Images are kept while exp(-(2k-2)^2 / 4t) can still reach 1e-22.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k_max = 2 + int(math.sqrt(50.0 * t))
    out = np.zeros(np.broadcast(x, y).shape)
    for k in range(-k_max, k_max + 1):
        for z in (x - y + 2.0 * k, x + y + 2.0 * k):
            out += np.exp(-z * z / (4.0 * t))
    return out / math.sqrt(4.0 * math.pi * t)


def half_sine_poisson(t: float, x, y):
    """Poisson kernel exp(-t sqrt(L)) of the nu = 1/2, H = 1/2 system.

    The modes are sqrt(2) sin((n - 1/2) pi x); the Abel-summed series is
    S(x - y) - S(x + y) with S(theta) = Re 1 / (2 sinh(pi (t - i theta) / 2)).
    """
    def s(theta):
        return (0.5 / np.sinh(0.5 * math.pi * (t - 1j * np.asarray(theta)))).real

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return s(x - y) - s(x + y)


def neumann_green_shifted(x, y):
    """Green function of -u'' + u on (0,1) with u' = 0 at both ends.

    This is the Bessel potential (1 + L)^{-1} of the nu = -1/2 system.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.cosh(np.minimum(x, y)) * np.cosh(1.0 - np.maximum(x, y)) / math.sinh(1.0)


def mixed_green(x, y):
    """Green function of -u'' with u(0) = 0, u'(1) = 0: min(x, y).

    This is the Riesz potential L^{-1} of the nu = 1/2 system.
    """
    return np.minimum(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def trial_f(x):
    """The boundary-convergence test function x (1 - x)^2."""
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x) ** 2


def trial_cosine_coeffs(n_max: int) -> np.ndarray:
    """<f, psi_n> for f = x (1 - x)^2 and the Neumann cosine basis, n = 0..n_max.

    Three integrations by parts give int_0^1 f cos(w x) dx
    = -1/w^2 + 6 (1 - (-1)^n) / w^4 at w = n pi, since f'(0) = 1,
    f'(1) = 0 and f''' = 6; the mean is 1/12.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    w = math.pi * n
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    out = np.empty(n_max + 1)
    out[0] = 1.0 / 12.0
    out[1:] = math.sqrt(2.0) * (-1.0 / w**2 + 6.0 * (1.0 - sign) / w**4)
    return out


def neumann_semigroup_trial(t: float, x):
    """exp(-t L) f for f = x (1 - x)^2 in the Neumann cosine basis.

    Modes are kept until exp(-w^2 t) is below exp(-60).
    """
    x = np.asarray(x, dtype=float)
    n_max = max(64, int(math.sqrt(60.0 / t) / math.pi) + 8)
    a = trial_cosine_coeffs(n_max)
    w = math.pi * np.arange(n_max + 1, dtype=float)
    mult = a * np.exp(-t * w * w)
    psi = math.sqrt(2.0) * np.cos(np.outer(w, x))
    psi[0] = 1.0
    return mult @ psi


def robin_j_residual(nu: float, h: float, z):
    """|x J_nu'(x) + H J_nu(x)| / (1 + x) at x = z, from scipy.special.jv."""
    z = np.asarray(z, dtype=float)
    return np.abs((h + nu) * jv(nu, z) - z * jv(nu + 1.0, z)) / (1.0 + z)


def robin_i_value(nu: float, h: float, z: float) -> float:
    """x I_nu'(x) + H I_nu(x) at x = z, from scipy.special.iv."""
    return float((h + nu) * iv(nu, z) + z * iv(nu + 1.0, z))


def interlaces(nu: int, zeros) -> bool:
    """True when z_n lies strictly between the (n-1)-th and n-th zero of J_nu.

    Holds for the nu + H > 0 regime, with the 0-th zero of J_nu taken as 0.
    """
    z = np.asarray(zeros, dtype=float)
    j = np.concatenate([[0.0], jn_zeros(nu, z.size)])
    return bool(np.all((j[:-1] < z) & (z < j[1:])))


def x0_closed_form(nu: float) -> float:
    """x_0 = (2/3) sqrt(-(6 nu^3 + 21 nu^2 + 21 nu + 6) / (2 nu + 3))."""
    poly = 6.0 * nu**3 + 21.0 * nu**2 + 21.0 * nu + 6.0
    return (2.0 / 3.0) * math.sqrt(-poly / (2.0 * nu + 3.0))


def generator_difference_ends(nu: float) -> tuple[float, float]:
    """F_nu(0) and F_nu(1) of (1/4 - nu^2) [pi^2 / (4 sin^2(pi x / 2)) - 1/x^2].

    The bracket tends to pi^2/12 as x -> 0 and equals pi^2/4 - 1 at x = 1.
    """
    c = 0.25 - nu * nu
    return c * math.pi**2 / 12.0, c * (math.pi**2 / 4.0 - 1.0)
