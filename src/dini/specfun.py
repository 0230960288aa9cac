"""Bessel functions of real order, their Robin combinations, and Jacobi
polynomials.

Orders are restricted to (-1, inf) throughout, matching the standing
assumption of the spectral construction. J_nu at x >= R(nu) comes from the
Hankel expansion with a stated remainder (``_hankel_order``), and below R(nu)
from scipy.special's ``jv`` (AMOS), as do Y_nu and I_nu everywhere; the
Robin combinations are always formed through the recurrence identities, never
by numerical differentiation.
"""

from __future__ import annotations

import enum
import functools
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
# Terms l of each Hankel sum at |nu| <= l + 1/2; l = ceil(|nu| - 1/2) above.
HANKEL_TERMS = 12
# Above R(nu) the first neglected Hankel terms are at most this fraction of
# the envelope sqrt(2/(pi x)), and the absolute terms of the sums total at
# most HANKEL_SUM_BOUND, so their rounding stays a few ulps of it.
HANKEL_REMAINDER = 2.0**-53
HANKEL_SUM_BOUND = 2.0
# Points per array operation of the Hankel sums, which bounds their
# temporaries (a few arrays of this size) whatever the size of x.
HANKEL_CHUNK = 8192


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


def _cos_sin_pi(m: float) -> tuple[float, float]:
    """(cos pi m, sin pi m), with m reduced exactly to f in [-1/4, 1/4] and
    a quarter turn count q, so each value is cos or sin of pi f, exact at
    multiples of 1/2."""
    r = m - 2.0 * round(0.5 * m)
    q = round(2.0 * r)
    f = r - 0.5 * q
    c, s = math.cos(math.pi * f), math.sin(math.pi * f)
    for _ in range(q % 4):
        c, s = -s, c
    return c, s


def _hankel_order(nu: float):
    """(R(nu), the Horner coefficients of P and Q, cos phi, sin phi) of the
    Hankel expansion of J_nu (DLMF 10.17.3) cut at l terms per sum,

        J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w),  w = x - phi,
        P = sum_{k<l} (-1)^k a_2k / x^2k,  Q = sum_{k<l} (-1)^k a_2k+1 / x^2k+1,

    a_k = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k), phi = (nu/2 + 1/4)
    pi reduced exactly mod 2 pi (``_cos_sin_pi``); with cos w = cos x cos
    phi + sin x sin phi and sin w = sin x cos phi - cos x sin phi, the phase
    is never rounded at the size of x. For real nu and x > 0 each sum's
    remainder is at most its first neglected term once l >= max(nu/2 - 1/4,
    1) (DLMF 10.17(iii); P and Q depend on nu^2 only, so |nu| serves for nu
    < 0); l = max(HANKEL_TERMS, ceil(|nu| - 1/2)) meets it. R(nu) is the
    least x >= 1 (to bisection accuracy, rounded up; x >= 1 keeps 1/x^4
    finite) at which the first neglected terms |a_2l| / x^2l + |a_2l+1| /
    x^2l+1 are at most HANKEL_REMAINDER and sum_{k<2l} |a_k| / x^k is at
    most HANKEL_SUM_BOUND; both fall with x. At half-integer nu the sums
    terminate and only the second test binds. R(nu) is inf where no x <=
    X_MAX_J passes (large nu), and then jv serves every x. The coefficients
    are those of P and of x Q as polynomials in t = 1/x^2, each split into
    its even and odd powers (p(t) = e(t^2) + t o(t^2)): rows e_P, o_P, e_Q,
    o_Q in u = 1/x^4, highest power first, a shorter row padded in front
    with a zero."""
    ell = max(HANKEL_TERMS, math.ceil(abs(nu) - 0.5))
    a = np.ones(2 * ell + 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, a.size):
            a[k] = a[k - 1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
    mag = np.abs(a)

    def passes(x: float) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = mag / np.float64(x) ** np.arange(mag.size)
        return bool(terms[-2] + terms[-1] <= HANKEL_REMAINDER
                    and np.sum(terms[:-2]) <= HANKEL_SUM_BOUND)

    lo = r = 1.0
    if not passes(r):
        r = X_MAX_J if passes(X_MAX_J) else math.inf
        while r < math.inf and r - lo > 1e-9 * r:
            mid = 0.5 * (lo + r)
            lo, r = (lo, mid) if passes(mid) else (mid, r)
    sign = (-1.0) ** np.arange(ell)
    coef = np.zeros((4, (ell + 1) // 2))
    for row, c in enumerate((sign * a[0 : 2 * ell : 2], sign * a[1 : 2 * ell : 2])):
        coef[2 * row, coef.shape[1] - c[0::2].size :] = c[0::2][::-1]
        coef[2 * row + 1, coef.shape[1] - c[1::2].size :] = c[1::2][::-1]
    return (r, coef, *_cos_sin_pi(0.5 * nu + 0.25))


@functools.lru_cache(maxsize=256)
def _hankel(orders: tuple):
    """(R, coef, cos phi, sin phi) of ``_hankel_order`` for each order: R
    as a tuple, the two trig factors as arrays of shape (k, 1), and the
    coefficients times sqrt(2/pi), of shape (4k, L, 1), each order's rows
    padded in front with zeros to the longest order's L >= 2 terms (a padded
    Horner step gives 0 * u + 0 = 0, so it leaves the sum's bits
    unchanged)."""
    data = [_hankel_order(nu) for nu in orders]
    width = max(d[1].shape[1] for d in data)
    coef = np.concatenate([np.pad(d[1], ((0, 0), (width - d[1].shape[1], 0))) for d in data])
    coef *= math.sqrt(2.0 / math.pi)
    cos_phi, sin_phi = (np.array([[d[i]] for d in data]) for i in (2, 3))
    return tuple(d[0] for d in data), coef[:, :, None], cos_phi, sin_phi


def _bessel_js(orders: tuple, xs: np.ndarray) -> np.ndarray:
    """J at each of the orders at the points xs, as an array of shape
    (len(orders), *xs.shape): the Hankel sums (``_hankel_order``) at x >=
    R(order), jv below. All orders share cos x, sin x and the powers of 1/x,
    formed HANKEL_CHUNK points at a time at the points above the least R.
    Each value is formed elementwise by the same operations, so it depends
    only on (order, x): not on the other orders, the shape of xs or the
    chunk."""
    r, coef, cos_phi, sin_phi = _hankel(orders)
    flat, r_min = xs.ravel(), min(r)
    out = np.empty((len(orders), flat.size))
    for lo in range(0, flat.size, HANKEL_CHUNK):
        x, seg, far = flat[lo : lo + HANKEL_CHUNK], out[:, lo : lo + HANKEL_CHUNK], slice(None)
        if x.min() < r_min:
            far = x >= r_min
            if not far.any():
                continue
            x = x[far]
        w = 1.0 / x
        t = w * w
        u = t * t
        eo = coef[:, 0] * u
        eo += coef[:, 1]
        for c in coef[:, 2:].transpose(1, 0, 2):
            eo *= u
            eo += c
        pq = eo[1::2] * t
        pq += eo[0::2]
        p, q = pq[0::2], pq[1::2]
        q *= w
        val = np.cos(x) * (p * cos_phi + q * sin_phi)
        val += np.sin(x) * (p * sin_phi - q * cos_phi)
        val *= np.sqrt(w)
        seg[:, far] = val
    if flat.size and flat.min() < max(r):
        for i, (nu, r_nu) in enumerate(zip(orders, r)):
            near = flat < r_nu
            if near.any():
                out[i, near] = _jv(nu, flat[near])
    return out.reshape(len(orders), *xs.shape)


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu on (0, 1e5] (nu a number):
    the Hankel expansion at x >= R(nu), with a remainder of at most
    2^-53 sqrt(2/(pi x)) (``_hankel_order``), and scipy's jv below R(nu)."""
    xs = np.asarray(x, dtype=float)
    _check_args("bessel_j", nu, xs, X_MAX_J)
    out = _bessel_js((float(nu),), xs)[0]
    return float(out) if np.isscalar(x) else out


def bessel_j_pair(nu: float, x):
    """(J_nu(x), J_{nu+1}(x)), each bit for bit as ``bessel_j`` gives it;
    the two orders share the work of the points."""
    xs = np.asarray(x, dtype=float)
    _check_args("bessel_j_pair", nu, xs, X_MAX_J)
    a, b = _bessel_js((float(nu), nu + 1.0), xs)
    return (float(a), float(b)) if np.isscalar(x) else (a, b)


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
    j_nu, j_next = bessel_j_pair(p.nu, xs)
    out = (p.h + p.nu) * j_nu - xs * j_next
    return float(out) if np.isscalar(x) else out


def robin_and_slope(nu, h: float, x, modified: bool = False):
    """(f, f') for f = J_{nu,H}, or I_{nu,H} if ``modified``, from the two
    orders nu and nu+1: with C = J, s = -1 (C = I, s = 1),
    f = (H+nu) C_nu + s x C_{nu+1} and f' = (nu (nu+H)/x + s x) C_nu + s H C_{nu+1},
    the Bessel equation with C_{nu+2} eliminated by the recurrence; nu may be
    an array of orders (``modified`` only), broadcast against x. f is
    bessel_ih's (bessel_jh's) value bit for bit."""
    xs = np.asarray(x, dtype=float)
    if modified:
        a, b, s = bessel_i(nu, xs), bessel_i(nu + 1.0, xs), 1.0
    else:
        (a, b), s = bessel_j_pair(nu, xs), -1.0
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
