"""Orthonormal spectral bases on (0,1).

The Bessel-based system psi_n(x) = c_n sqrt(x) J_nu(z_n x) (with an I_nu or
monomial n=0 mode when nu + H <= 0) and the Jacobi-based system
Phi_k(x) = C_k (sin pi x/2)^{a+1/2} (cos pi x/2)^{b+1/2} P_k^{a,b}(cos pi x),
together with coefficient analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .errors import (
    ConsistencyError,
    DomainError,
    RegimeMismatchError,
)
from .numerics import QuadratureRule, endpoint_graded_rule, gauss_legendre
from .specfun import (
    JacobiParams,
    Regime,
    SpectralParams,
    bessel_i,
    bessel_j,
    bessel_modulus,
    jacobi_poly_all,
)
from .zeros import PSI_BLOCK_MODES, ZeroTable, build_zero_table


def _cached(cache: dict, key, build, limit: int):
    """cache[key], built on a miss; at limit entries the oldest is dropped
    first."""
    hit = cache.get(key)
    if hit is None:
        hit = build()
        if len(cache) >= limit:
            del cache[next(iter(cache))]
        cache[key] = hit
    return hit


def _grading_power(endpoint_exponent: float) -> int:
    """Power m for the x = u**m endpoint map, given integrand ~ x**p.

    Chosen so the transformed integrand behaves at least like u**1; integer
    p >= 0 needs no grading.
    """
    p = endpoint_exponent
    if p >= 0.0 and abs(p - round(p)) < 1e-12:
        return 1
    if p >= 3.0:
        return 1
    return min(16, max(1, math.ceil(2.0 / (p + 1.0))))


def inner_product_rule(n: int, left_exponent: float, right_exponent: float = 0.0) -> QuadratureRule:
    """Quadrature on (0,1) for integrands ~ x**left_exponent near 0 and
    ~ (1-x)**right_exponent near 1."""
    m_l = _grading_power(left_exponent)
    m_r = _grading_power(right_exponent)
    if m_l == 1 and m_r == 1:
        return gauss_legendre(n)
    return endpoint_graded_rule(n, m_l, m_r)


# Row stores kept per basis (psi_rows), the oldest dropped first.
PSI_STORES_PER_BASIS = 4
# Relative allowance on the closed-form sup bounds for the rounding of the
# values they bound and of their own evaluation.
SUP_ROUNDING = 1e-12


def _check_open(x: np.ndarray) -> None:
    if np.any(~((x > 0.0) & (x < 1.0))):  # NaN fails both comparisons
        raise DomainError("evaluation points must lie in the open interval (0,1)")


class RowStore:
    """Rows of a basis at fixed points x (checked here), formed once each by
    row_fn(x, lo, hi) (rows lo..hi-1): ``rows`` holds those formed so far,
    read-only; upto(hi) grows it to exactly min(hi, n_rows) rows, the most
    any call asked for, whatever order the calls came in."""

    def __init__(self, row_fn: Callable, n_rows: int, x: np.ndarray):
        _check_open(x)
        self._row_fn = row_fn
        self.x = x
        self.n_rows = n_rows
        self.rows = np.empty((0, x.size))

    def upto(self, hi: int) -> np.ndarray:
        have, top = self.rows.shape[0], min(hi, self.n_rows)
        if top > have:
            rows = np.concatenate([self.rows, self._row_fn(self.x, have, top)])
            rows.flags.writeable = False
            self.rows = rows
        return self.rows


@dataclass
class _Basis:
    """What kernels.PairEngine reads of either basis, spectrum(), sup(xs) and
    the row stores of psi_rows, kept on the basis with its engines. _rows(x,
    lo, hi), set at construction with end_exponents (p, q), mode^2 ~ x^p near
    0 and (1 - x)^q near 1, is bound to the basis arrays, not the basis, so a
    basis and the engines on it are freed by refcounting."""

    # Row stores per point set, keyed by the points' bytes (psi_rows).
    _stores: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    # PairEngines on this basis, per pair tuple (kernels.engine_for).
    _engines: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def psi_rows(self, x) -> RowStore:
        """The RowStore at x kept on the basis, keyed by the points' values (a
        1-D float64 copy's bytes: an array changed in place finds its own
        rows); at most PSI_STORES_PER_BASIS, the oldest dropped first."""
        x = np.array(x, dtype=float).ravel()
        store = lambda: RowStore(self._rows, self.spectrum()[2] + 1, x)
        return _cached(self._stores, x.tobytes(), store, PSI_STORES_PER_BASIS)


def _bessel_rows(table: ZeroTable, x, lo: int, hi: int) -> np.ndarray:
    """psi_lo..psi_{hi-1} at x from a zero table (its constants c and zeros),
    grown to mode hi - 1 first, PSI_BLOCK_MODES Bessel rows at a time so
    that no temporary is larger than the result. Every entry is formed
    elementwise, so a row does not depend on lo or hi."""
    _check_open(x)
    params, c, zeros = table.params, table.upto(hi - 1).c, table.zeros
    sq = np.sqrt(x)
    out = np.zeros((hi - lo, x.size))
    for a in range(max(lo, 1), hi, PSI_BLOCK_MODES):
        b = min(a + PSI_BLOCK_MODES, hi)
        out[a - lo : b - lo] = c[a:b, None] * sq[None, :] * bessel_j(
            params.nu, zeros[a:b, None] * x[None, :]
        )
    if lo == 0 and params.regime is not Regime.PLUS:
        out[0] = _psi0(params, c[0], zeros[0], x)
    return out


def _psi0(params: SpectralParams, c0: float, z0: float, x: np.ndarray) -> np.ndarray:
    """The n=0 mode at x: c_0 sqrt(x) I_nu(z_0 x) (MINUS) or c_0 x^{nu+1/2}
    (ZERO)."""
    if params.regime is Regime.MINUS:
        return c0 * np.sqrt(x) * bessel_i(params.nu, z0 * x)
    return c0 * x ** (params.nu + 0.5)


def _jacobi_rows(jp: JacobiParams, C: np.ndarray, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Phi_lo..Phi_{hi-1} at x from the constants C of a JacobiBasisSpec. The
    recurrence runs from degree 0 and a degree-k row depends only on the
    lower ones, so a row does not depend on lo or hi."""
    _check_open(x)
    s = np.sin(0.5 * math.pi * x) ** (jp.alpha + 0.5)
    c = np.cos(0.5 * math.pi * x) ** (jp.beta + 0.5)
    P = jacobi_poly_all(jp, hi - 1, np.cos(math.pi * x))
    return C[lo:hi, None] * (s * c)[None, :] * P[lo:]


@dataclass
class BasisSpec(_Basis):
    """The psi system on a zero table, up to mode n_max: evaluation, and the
    table's normalizing constants c and eigenvalues (ZeroTable).

    The table grows as modes are asked for: the rows of psi to the highest
    mode asked, c and eigen (full arrays, n = 0..n_max) to n_max. In the
    PLUS regime the n=0 slots are unused and evaluation starts at n_min = 1.
    """

    params: SpectralParams
    table: ZeroTable
    n_max: int

    def __post_init__(self):
        if self.n_max > self.table.n_max:
            raise DomainError(f"basis n_max {self.n_max} exceeds table n_max {self.table.n_max}")
        self._rows = partial(_bessel_rows, self.table)
        self.end_exponents = (2.0 * self.params.nu + 1.0, 0.0)

    @property
    def c(self) -> np.ndarray:
        return self.table.upto(self.n_max).c[: self.n_max + 1]

    @property
    def eigen(self) -> np.ndarray:
        return self.table.upto(self.n_max).eigen[: self.n_max + 1]

    @property
    def n_min(self) -> int:
        return self.params.n_min

    def psi_matrix(self, x: np.ndarray, n_upper: Optional[int] = None) -> np.ndarray:
        """Matrix [psi_n(x_i)]_{n,i} of shape (n_upper+1, len(x)).

        The unused n=0 row in the PLUS regime is identically zero.
        """
        n_upper = self.n_max if n_upper is None else min(n_upper, self.n_max)
        return self._rows(np.asarray(x, dtype=float), 0, n_upper + 1)

    def spectrum(self) -> tuple:
        """(params, n_min, n_max, eigen, c_off), what a PairEngine reads:
        eigen(top) is the eigenvalues, grown to the modes below top."""
        table = self.table
        return (self.params, self.n_min, self.n_max, lambda top: table.upto(top - 1).eigen,
                table.freq_offset)

    @cached_property
    def split_constant(self) -> float:
        """_split_constant(nu) (nu > 1/2), computed on first use, then kept."""
        return _split_constant(self.params.nu)

    def sup(self, xs: np.ndarray) -> float:
        """certified_sup for the psi system, before SUP_ROUNDING: the max over
        all modes n >= n_min and points of xs of a bound on |psi_n(x)|. For
        n >= 1, psi_n(x) = a_n sqrt(r) J_nu(r), a_n = c_n / sqrt(z_n), r = z_n x,
        and sqrt(r) |J_nu(r)| <= G:
          - |nu| <= 1/2: r (J_nu^2 + Y_nu^2) <= 2/pi (Watson §13.74), G = sqrt(2/pi);
          - nu > 1/2: G = _split_constant(nu), kept on the basis;
          - -1 < nu < -1/2: the modulus does not increase in r (Watson §13.74),
            so G = modulus(z_n min(xs)).
        The modes n <= K = min(n_max, PSI_BLOCK_MODES) use their own a_n
        and z_n; modes n > K use _tail_amplitude and, for nu < -1/2, the
        modulus at z_K min(xs), so M is the same at every n_max >=
        PSI_BLOCK_MODES. The n=0 mode (MINUS, ZERO) is a sum of powers x^p
        with positive coefficients, convex in log x, so its maximum over xs
        is at min(xs) or max(xs) and is taken there exactly.
        """
        nu, k, table = self.params.nu, min(self.n_max, PSI_BLOCK_MODES), self.table
        z = table.upto(k).zeros[1 : k + 1]
        amp = table.c[1 : k + 1] / np.sqrt(z)
        x_lo, x_hi = float(xs.min()), float(xs.max())
        if abs(nu) <= 0.5:
            g = g_tail = math.sqrt(2.0 / math.pi)
        elif nu > 0.5:
            g = g_tail = self.split_constant
        else:
            g = bessel_modulus(nu, z * x_lo)
            g_tail = bessel_modulus(nu, z[-1] * x_lo)
        m = max(float(np.max(amp * g, initial=0.0)), _tail_amplitude(self) * g_tail)
        if self.params.regime is not Regime.PLUS:
            m = max(m, float(np.max(np.abs(_psi0(self.params, table.c[0], table.zeros[0],
                                                     np.array([x_lo, x_hi]))))))
        return m

    def psi_prime_matrix(self, x: np.ndarray) -> np.ndarray:
        """Derivatives psi_n'(x) through the Bessel recurrence identities, for
        x in (0, 1]: the Robin check evaluates them at the boundary."""
        p = self.params
        x = np.asarray(x, dtype=float)
        _check_open(x[x != 1.0])
        c, z = self.c, self.table.zeros[1 : self.n_max + 1]
        sq = np.sqrt(x)
        zx = z[:, None] * x[None, :]
        out = np.zeros((self.n_max + 1, x.size))
        out[1:] = c[1:, None] * sq[None, :] * (
            ((p.nu + 0.5) / x)[None, :] * bessel_j(p.nu, zx)
            - z[:, None] * bessel_j(p.nu + 1.0, zx)
        )
        if p.regime is Regime.MINUS:
            z0 = self.table.zeros[0]
            out[0] = c[0] * sq * (
                ((p.nu + 0.5) / x) * bessel_i(p.nu, z0 * x)
                + z0 * bessel_i(p.nu + 1.0, z0 * x)
            )
        elif p.regime is Regime.ZERO:
            out[0] = c[0] * (p.nu + 0.5) * x ** (p.nu - 0.5)
        return out


def build_basis(
    params: SpectralParams,
    n_max: int,
    table: Optional[ZeroTable] = None,
    tol: float = 1e-13,
) -> BasisSpec:
    if table is None:
        table = build_zero_table(params, n_max, tol)
    return BasisSpec(params, table, n_max)


def eval_psi(b: BasisSpec, n: int, x):
    """psi_n at points x in (0,1): row n of psi_matrix."""
    if n == 0 and b.params.regime is Regime.PLUS:
        raise RegimeMismatchError("no n=0 eigenfunction exists when nu + H > 0")
    if n < b.n_min or n > b.n_max:
        raise IndexError(f"basis index {n} outside [{b.n_min}, {b.n_max}]")
    xs = np.asarray(x, dtype=float)
    out = b.psi_matrix(xs.ravel(), n_upper=n)[n].reshape(xs.shape)
    return float(out) if np.isscalar(x) else out


@dataclass
class JacobiBasisSpec(_Basis):
    """Constants C_k, eigenvalues Lambda_k, evaluation and sup for the Phi system."""

    jp: JacobiParams
    k_max: int
    C: np.ndarray = field(init=False)
    Lambda: np.ndarray = field(init=False)

    def __post_init__(self):
        a, b = self.jp.alpha, self.jp.beta
        k = np.arange(self.k_max + 1, dtype=float)
        # (2k+a+b+1) Gamma(k+a+b+1); for k = 0 this equals Gamma(a+b+2),
        # which is also the required replacement when a+b = -1.
        log_num = np.empty(self.k_max + 1)
        log_num[0] = gammaln(a + b + 2.0)
        if self.k_max >= 1:
            log_num[1:] = np.log(2.0 * k[1:] + a + b + 1.0) + gammaln(k[1:] + a + b + 1.0)
        log_c2 = (math.log(math.pi) + log_num + gammaln(k + 1.0) - gammaln(k + a + 1.0)
                  - gammaln(k + b + 1.0))
        self.C = np.exp(0.5 * log_c2)
        self._rows = partial(_jacobi_rows, self.jp, self.C)
        self.end_exponents = (2.0 * a + 1.0, 2.0 * b + 1.0)
        self.Lambda = math.pi**2 * (k + (a + b + 1.0) / 2.0) ** 2
        self.Lambda.flags.writeable = False
        if np.any(np.diff(self.Lambda) < 0.0):
            raise ConsistencyError("Jacobi eigenvalues are not nondecreasing")

    @property
    def c_off(self) -> float:
        """sqrt(Lambda_k) = pi |k + q| >= pi (k - c_off), q = (a+b+1)/2, every k."""
        return max(0.0, -(self.jp.alpha + self.jp.beta + 1.0) / 2.0)

    def spectrum(self) -> tuple:
        """(jp, 0, k_max, eigen, c_off) as BasisSpec.spectrum; eigen(top) is Lambda."""
        return self.jp, 0, self.k_max, lambda top, lam=self.Lambda: lam, self.c_off

    def phi_matrix(self, x: np.ndarray, k_upper: Optional[int] = None) -> np.ndarray:
        """Matrix [Phi_k(x_i)]_{k,i} of shape (k_upper+1, len(x))."""
        k_upper = self.k_max if k_upper is None else min(k_upper, self.k_max)
        return self._rows(np.asarray(x, dtype=float), 0, k_upper + 1)

    def sup(self, xs: np.ndarray) -> float:
        """certified_sup for the Phi system, before SUP_ROUNDING. At (a, b) =
        (alpha, beta), u = cos(pi x) and p_k orthonormal for the weight
        (1 - u)^a (1 + u)^b, Phi_k(x)^2 = pi (1 - u)^{a+1/2} (1 + u)^{b+1/2}
        p_k(u)^2, for every k at most
          - a, b >= -1/2: 2 pi e (2 + sqrt(a^2 + b^2)), implied by Erdelyi,
            Magnus and Nevai (SIAM J. Math. Anal. 25 (1994) 602-614);
          - a < -1/2 = b: A_k^2 sin(pi x/2)^{2a+1}, A_k = C_k binom(k - 1/2, k)
            = C_k max |P_k^{a,b}| (Szego, Orthogonal Polynomials, Thm 7.32.1),
            the falling endpoint factor taken at min(xs) as for the Bessel
            system at nu < -1/2, sup_k A_k from _szego_amplitude; b < -1/2 = a
            mirrors it (x -> 1 - x, cos(pi x/2)^{b+1/2} at max(xs)).
        Other (a, b) have no stated bound here (DomainError)."""
        a, b = self.jp.alpha, self.jp.beta
        if min(a, b) >= -0.5:
            return math.sqrt(2.0 * math.pi * math.e * (2.0 + math.hypot(a, b)))
        if max(a, b) != -0.5:
            raise DomainError(f"no stated sup bound for the Jacobi system at (alpha, beta) = "
                              f"({a:g}, {b:g}): one exists for alpha, beta >= -1/2 and for "
                              "min(alpha, beta) < -1/2 = max(alpha, beta)")
        if a < b:
            return _szego_amplitude(a) * math.sin(0.5 * math.pi * float(xs.min())) ** (a + 0.5)
        return _szego_amplitude(b) * math.cos(0.5 * math.pi * float(xs.max())) ** (b + 0.5)


def _szego_amplitude(a: float) -> float:
    """sup_k A_k, A_k = C_k binom(k - 1/2, k) at (alpha, beta) = (a, -1/2),
    -1 < a < -1/2. With q = a + 1/2, A_k^2 = (2k + q)/(k + q) Gamma(k + q + 1)
    Gamma(k + 1/2) / (Gamma(k + q + 1/2) Gamma(k + 1)), in closed form for
    k < K = 16. Wendel's x/sqrt(x + 1/2) <= Gamma(x + 1/2)/Gamma(x) <=
    sqrt(x), x > 0 (Amer. Math. Monthly 55 (1948) 563-564), at x = k + q +
    1/2 and k + 1/2, and sqrt(uv) <= (u + v)/2 give A_k^2 <= (2k + q)/(k + q)
    (2k + q + 3/2)/(2k + 1), two positive factors falling in k (q < 0 < q +
    1/2): its value at K bounds every later A_k^2 (A_k -> sqrt(2))."""
    q, k = a + 0.5, np.arange(17, dtype=float)  # k < K in closed form, then the bound at K
    a2 = (2.0 * k + q) / (k + q) * np.exp(gammaln(k + q + 1.0) - gammaln(k + q + 0.5)
                                          + gammaln(k + 0.5) - gammaln(k + 1.0))
    a2[-1] = (2.0 * k[-1] + q) / (k[-1] + q) * (2.0 * k[-1] + q + 1.5) / (2.0 * k[-1] + 1.0)
    return math.sqrt(float(np.max(a2)))


def build_jacobi_basis(jp: JacobiParams, k_max: int) -> JacobiBasisSpec:
    return JacobiBasisSpec(jp, k_max)


def default_coefficient_rule(b: BasisSpec, n: int = 512) -> QuadratureRule:
    """Quadrature suited to f * psi_n integrands (f bounded near 0)."""
    return inner_product_rule(n, b.params.nu + 0.5)


def dini_coefficients(
    b: BasisSpec, f: Callable[[np.ndarray], np.ndarray], quad: QuadratureRule
) -> np.ndarray:
    """Coefficients a_n = <f, psi_n> for n = 0..n_max (0 slot zero in PLUS).

    psi at the rule's nodes comes from the basis's row store for them, so a
    repeated call with the same rule costs f(nodes) and one mat-vec.
    """
    return b.psi_rows(quad.nodes).upto(b.n_max + 1) @ (quad.weights * _node_values(f, quad))


def _node_values(f: Callable[[np.ndarray], np.ndarray], quad: QuadratureRule) -> np.ndarray:
    """f at the rule's nodes, checked to be finite and of the nodes' shape."""
    fx = np.asarray(f(quad.nodes), dtype=float)
    if fx.shape != quad.nodes.shape:
        raise DomainError("f must map the node array to an equal-shape array")
    if not np.all(np.isfinite(fx)):
        raise DomainError("f must be finite at the quadrature nodes")
    return fx


def _split_constant(nu: float) -> float:
    """sup_r sqrt(r) |J_nu(r)| <= G for nu > 1/2, with G the smallest over
    split points r1 of max(sqrt(r1) (r1/2)^nu / Gamma(nu+1), modulus(r1)).

    Below r1, |J_nu(r)| <= (r/2)^nu / Gamma(nu+1) (Watson §3.31), and that
    bound times sqrt(r) increases with r. Above r1, sqrt(r) |J_nu(r)| is at
    most the modulus sqrt(r (J_nu^2 + Y_nu^2)), which does not increase in r
    for |nu| >= 1/2 (Watson §13.74). Every r1 gives a bound; the smallest
    over a fixed grid of r1 is taken (an overflowing modulus counts as inf).
    """
    r1 = np.geomspace(1e-2, 4.0 * nu + 8.0, 512)
    with np.errstate(over="ignore", invalid="ignore"):
        small = np.exp(0.5 * np.log(r1) + nu * np.log(0.5 * r1) - gammaln(nu + 1.0))
        mod = bessel_modulus(nu, r1)
    return float(np.min(np.maximum(small, np.where(np.isfinite(mod), mod, np.inf))))


def _tail_amplitude(b: BasisSpec) -> float:
    """Bound on a_n = c_n / sqrt(z_n) for every n > K = min(n_max,
    PSI_BLOCK_MODES), the modes of the first block.

    With u(z) = sqrt(z) J_nu(z) and q(z) = 1 - (nu^2 - 1/4)/z^2, u'' = -q u,
    so W = u^2 + u'^2/q has W' = -u'^2 q'/q^2 wherever q > 0, and W -> 2/pi
    as z -> inf. At a Robin zero z J_nu' + H J_nu = 0, so u' = (1/2 - H) u/z,
    and c_n = sqrt(2) z / (|J_nu(z)| sqrt(z^2 - nu^2 + H^2)) gives
        a_n^2 = 2 / (W(z_n) R(z_n)),
        R(z) = (1 - A/z^2)(1 - B/z^2) / (1 - C/z^2),
    with A = nu^2 - H^2, B = nu^2 - 1/4 and C = A + H - 1/2. Every n > K
    has z_n > Z = z_K. For |nu| < 1/2, q' < 0 and W does not decrease,
    so W(z_n) >= W(Z); for |nu| >= 1/2, W does not increase on q > 0, so
    W(z_n) >= 2/pi once Z^2 > B. For z >= Z, R(z) >= (1 - max(A,0)/Z^2)
    (1 - max(B,0)/Z^2) / (1 + max(-C,0)/Z^2). The argument holds from any
    K, so the bound, taken at the first block, does not depend on n_max.
    """
    p = b.params
    if b.n_max < 1:
        raise DomainError("the sup bound needs a basis with n_max >= 1")
    k = min(b.n_max, PSI_BLOCK_MODES)
    z = float(b.table.upto(k).zeros[k])
    s = z * z
    A, B = p.nu * p.nu - p.h * p.h, p.nu * p.nu - 0.25
    C = A + p.h - 0.5
    if B < 0.0:
        u = math.sqrt(z) * bessel_j(p.nu, z)
        du = math.sqrt(z) * ((p.nu + 0.5) / z * bessel_j(p.nu, z) - bessel_j(p.nu + 1.0, z))
        w = u * u + du * du / (1.0 - B / s)
    elif s > B:
        w = 2.0 / math.pi
    else:
        raise DomainError(
            f"the sup bound for nu = {p.nu:g} needs z_K^2 > nu^2 - 1/4 at K = "
            f"min(n_max, {PSI_BLOCK_MODES}); raise n_max"
        )
    r = (1.0 - max(A, 0.0) / s) * (1.0 - max(B, 0.0) / s) / (1.0 + max(-C, 0.0) / s)
    if not r > 0.0:
        raise DomainError(f"the sup bound for (nu, H) = ({p.nu:g}, {p.h:g}) needs a larger n_max")
    return math.sqrt(2.0 / (w * r))


def certified_sup(basis, xs: np.ndarray) -> float:
    """Uniform bound M >= |basis_n(x)| for every mode n, those beyond n_max
    too (series truncation certificates bound each term they leave out by M^2,
    or M times a coefficient bound), and every point x in xs (checked to lie
    in (0,1); M = 0 for none): the stated bound of the basis (BasisSpec.sup,
    JacobiBasisSpec.sup), which reads only the extreme points of xs, enlarged
    by SUP_ROUNDING for floating-point rounding."""
    xs = np.asarray(xs, dtype=float)
    _check_open(xs)
    return (1.0 + SUP_ROUNDING) * basis.sup(xs) if xs.size else 0.0


def gram_matrix(basis, n_points: int = 512) -> np.ndarray:
    """Gram matrix of the modes n_min..n_max under a rule graded to end_exponents."""
    rule = inner_product_rule(n_points, *basis.end_exponents)
    _, n_min, n_max, *_ = basis.spectrum()
    mat = basis._rows(rule.nodes, n_min, n_max + 1)
    return (mat * rule.weights[None, :]) @ mat.T
