"""Bessel functions of real order, their Robin combinations, and Jacobi
polynomials.

Orders are restricted to (-1, inf) throughout, matching the standing
assumption of the spectral construction. J_nu, Y_nu and I_nu are delegated
to scipy.special (AMOS); the Robin combinations are always formed through the
recurrence identities, never by numerical differentiation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import hankel1 as _hankel1
from scipy.special import iv as _iv
from scipy.special import jv as _jv

from .errors import DomainError, OverflowRangeError

X_MAX_J = 1.0e5
X_MAX_I = 700.0
REGIME_TOL = 1e-14


class Regime(enum.Enum):
    """Sign regime of nu + H, which decides the presence of an n=0 mode."""

    PLUS = "plus"
    ZERO = "zero"
    MINUS = "minus"


@dataclass(frozen=True)
class SpectralParams:
    """Order/boundary parameter pair (nu, H) with nu > -1."""

    nu: float
    h: float = 0.5
    regime: Regime = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > -1.0):
            raise DomainError(f"order nu must be finite and exceed -1, got {self.nu}")
        if not math.isfinite(self.h):
            raise DomainError(f"boundary parameter H must be finite, got {self.h}")
        s = self.nu + self.h
        if abs(s) <= REGIME_TOL:
            regime = Regime.ZERO
        elif s > 0.0:
            regime = Regime.PLUS
        else:
            regime = Regime.MINUS
        object.__setattr__(self, "regime", regime)

    @property
    def n_min(self) -> int:
        """First basis index: 1 in the PLUS regime, else 0."""
        return 1 if self.regime is Regime.PLUS else 0


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi type parameters with alpha, beta > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (
            math.isfinite(self.alpha) and math.isfinite(self.beta)
            and self.alpha > -1.0 and self.beta > -1.0
        ):
            raise DomainError(
                f"Jacobi parameters must be finite and exceed -1, got ({self.alpha}, {self.beta})"
            )


def _check_args(name: str, nu, xs: np.ndarray, x_max: float, above=DomainError) -> None:
    """nu > -1 and 0 < x <= x_max at every x, an empty xs passing: NaN fails
    both comparisons of each test, and x above x_max, +inf too, raises above."""
    if not (nu > -1.0 if isinstance(nu, float) else np.all(np.asarray(nu) > -1.0)):
        raise DomainError(f"order must exceed -1, got {np.min(nu)}")
    if xs.size and not (xs.min() > 0.0 and xs.max() <= x_max):
        if xs.min() > 0.0:
            raise above(f"{name} supports x <= {x_max:g}")
        raise DomainError(f"{name} requires x > 0, got {xs.min()}")


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu on (0, 1e5]."""
    xs = np.asarray(x, dtype=float)
    _check_args("bessel_j", nu, xs, X_MAX_J)
    out = _jv(nu, xs)
    return float(out) if np.isscalar(x) else out


def bessel_i(nu, x):
    """Modified Bessel function I_nu of the first kind (nu a number or array) on (0, 700]."""
    xs = np.asarray(x, dtype=float)
    _check_args("bessel_i", nu, xs, X_MAX_I, OverflowRangeError)
    out = _iv(nu, xs)
    return float(out) if np.isscalar(x) and np.isscalar(nu) else out


def bessel_modulus(nu: float, x):
    """sqrt(x (J_nu(x)^2 + Y_nu(x)^2)) = sqrt(x) |H^(1)_nu(x)| on (0, 1e5]; it
    bounds sqrt(x) |J_nu(x)|. The modulus is even in nu (|H^(1)_{-nu}| =
    |H^(1)_nu|), and is evaluated at |nu|."""
    xs = np.asarray(x, dtype=float)
    _check_args("bessel_modulus", nu, xs, X_MAX_J)
    out = np.sqrt(xs) * np.abs(_hankel1(abs(nu), xs))
    return float(out) if np.isscalar(x) else out


def bessel_jh(p: SpectralParams, x):
    """Robin combination x*J_nu'(x) + H*J_nu(x) = (H+nu) J_nu(x) - x J_{nu+1}(x)."""
    xs = np.asarray(x, dtype=float)
    out = (p.h + p.nu) * bessel_j(p.nu, xs) - xs * bessel_j(p.nu + 1.0, xs)
    return float(out) if np.isscalar(x) else out


def robin_and_slope(nu, h: float, x, modified: bool = False):
    """(f, f') for f = J_{nu,H}, or I_{nu,H} if ``modified``, from the two
    orders nu and nu+1: with C = J, s = -1 (C = I, s = 1),
    f = (H+nu) C_nu + s x C_{nu+1} and f' = (nu (nu+H)/x + s x) C_nu + s H C_{nu+1},
    the Bessel equation with C_{nu+2} eliminated by the recurrence; nu may be
    an array of orders, broadcast against x. f is bessel_ih's value bit for bit."""
    xs = np.asarray(x, dtype=float)
    c, s = (bessel_i, 1.0) if modified else (bessel_j, -1.0)
    a, b = c(nu, xs), c(nu + 1.0, xs)
    return (h + nu) * a + s * xs * b, (nu * (nu + h) / xs + s * xs) * a + s * h * b


def bessel_ih(p: SpectralParams, x):
    """Robin combination x*I_nu'(x) + H*I_nu(x) = (H+nu) I_nu(x) + x I_{nu+1}(x)."""
    xs = np.asarray(x, dtype=float)
    out = (p.h + p.nu) * bessel_i(p.nu, xs) + xs * bessel_i(p.nu + 1.0, xs)
    return float(out) if np.isscalar(x) else out


MAX_JACOBI_DEGREE = 100_000


def jacobi_poly(jp: JacobiParams, k: int, u):
    """Jacobi polynomial P_k^{alpha,beta}(u) by the three-term recurrence."""
    if k < 0 or k > MAX_JACOBI_DEGREE:
        raise DomainError(f"degree k must be in [0, {MAX_JACOBI_DEGREE}], got {k}")
    us = np.asarray(u, dtype=float)
    if np.any(np.abs(us) > 1.0 + 1e-12):
        raise DomainError("jacobi_poly requires u in [-1, 1]")
    out = jacobi_poly_all(jp, k, np.atleast_1d(us))[k]
    return float(out[0]) if np.isscalar(u) else out.reshape(us.shape)


def jacobi_poly_all(jp: JacobiParams, k_max: int, u: np.ndarray) -> np.ndarray:
    """All P_k^{alpha,beta}(u) for k = 0..k_max; rows indexed by degree."""
    a, b = jp.alpha, jp.beta
    u = np.asarray(u, dtype=float)
    out = np.empty((k_max + 1, u.size))
    out[0] = 1.0
    if k_max == 0:
        return out
    out[1] = (a + 1.0) + (a + b + 2.0) * (u - 1.0) / 2.0
    for k in range(2, k_max + 1):
        c = 2.0 * k + a + b
        a_k = 2.0 * k * (k + a + b) * (c - 2.0)
        b_k = (c - 1.0) * (c * (c - 2.0) * u + a * a - b * b)
        c_k = 2.0 * (k + a - 1.0) * (k + b - 1.0) * c
        out[k] = (b_k * out[k - 1] - c_k * out[k - 2]) / a_k
    return out
