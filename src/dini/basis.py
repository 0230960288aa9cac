"""Orthonormal spectral bases on (0,1).

The Bessel-based system psi_n(x) = c_n sqrt(x) J_nu(z_n x) (with an I_nu or
monomial n=0 mode when nu + H <= 0) and the Jacobi-based system
Phi_k(x) = C_k (sin pi x/2)^{a+1/2} (cos pi x/2)^{b+1/2} P_k^{a,b}(cos pi x),
together with coefficient analysis and spectral application of the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .errors import (
    ConsistencyError,
    DomainError,
    RegimeMismatchError,
    SpectrumNotPositiveError,
)
from .numerics import QuadratureRule, endpoint_graded_rule, gauss_legendre
from .specfun import (
    JacobiParams,
    Regime,
    SpectralParams,
    bessel_i,
    bessel_j,
    jacobi_poly_all,
)
from .zeros import ZeroTable, build_zero_table


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


SUP_PROBE_MODES = 48
SUP_SAFETY = 1.5
PSI_BLOCK_MODES = 128
PSI_RULES_PER_BASIS = 4


class _SupProbe:
    """Per-basis cache of the probe-grid part of ``certified_sup``."""

    @cached_property
    def probe_sup(self) -> float:
        """max |basis_n| over the fixed 10^4-point probe grid, computed on first
        use (never at construction) and then kept on the basis."""
        return _mode_abs_max(self, np.linspace(1e-4, 1.0 - 1e-4, 10_000))


@dataclass
class BasisSpec(_SupProbe):
    """Normalizing constants, eigenvalues and evaluation for the psi system.

    Arrays are indexed by n = 0..n_max; in the PLUS regime the n=0 slots are
    unused (c[0] = 0, eigen[0] = 0) and evaluation starts at n_min = 1.
    ``eigen[n]`` holds the signed eigenvalue (-1)^{n==0} z_n^2.
    """

    params: SpectralParams
    table: ZeroTable
    n_max: int
    c: np.ndarray = field(init=False)
    eigen: np.ndarray = field(init=False)
    _psi_by_rule: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n_max > self.table.n_max:
            raise DomainError(
                f"basis n_max {self.n_max} exceeds table n_max {self.table.n_max}"
            )
        p = self.params
        z = self.table.zeros[: self.n_max + 1]
        c = np.zeros(self.n_max + 1)
        eigen = np.zeros(self.n_max + 1)
        zn = z[1:]
        rad = zn * zn - p.nu * p.nu + p.h * p.h
        if np.any(rad <= 0.0):
            raise ConsistencyError(
                "normalization radicand z_n^2 - nu^2 + H^2 is not positive"
            )
        c[1:] = math.sqrt(2.0) / np.abs(bessel_j(p.nu, zn)) * zn / np.sqrt(rad)
        eigen[1:] = zn * zn
        if p.regime is Regime.MINUS:
            z0 = z[0]
            rad0 = z0 * z0 + p.nu * p.nu - p.h * p.h
            if rad0 <= 0.0:
                raise ConsistencyError(
                    "normalization radicand z_0^2 + nu^2 - H^2 is not positive"
                )
            c[0] = math.sqrt(2.0) / bessel_i(p.nu, z0) * z0 / math.sqrt(rad0)
            eigen[0] = -z0 * z0
        elif p.regime is Regime.ZERO:
            c[0] = math.sqrt(2.0 * (p.nu + 1.0))
            eigen[0] = 0.0
        self.c = c
        self.eigen = eigen
        if np.any(np.diff(eigen[self.n_min :]) <= 0.0):
            raise ConsistencyError("eigenvalues are not strictly increasing")

    @property
    def n_min(self) -> int:
        return self.params.n_min

    def psi_matrix(self, x: np.ndarray, n_upper: Optional[int] = None) -> np.ndarray:
        """Matrix [psi_n(x_i)]_{n,i} of shape (n_upper+1, len(x)).

        The unused n=0 row in the PLUS regime is identically zero.
        """
        n_upper = self.n_max if n_upper is None else min(n_upper, self.n_max)
        return self._psi_rows(np.asarray(x, dtype=float), n_upper, n_upper)

    def _psi_rows(self, x: np.ndarray, n_upper: int, block: int) -> np.ndarray:
        """psi_0..psi_{n_upper} at x, evaluating ``block`` Bessel rows at a time
        so that no temporary is larger than the result."""
        p = self.params
        if np.any((x <= 0.0) | (x >= 1.0)):
            raise DomainError("evaluation points must lie in the open interval (0,1)")
        sq = np.sqrt(x)
        out = np.zeros((n_upper + 1, x.size))
        for lo in range(1, n_upper + 1, max(block, 1)):
            hi = min(lo + block, n_upper + 1)
            out[lo:hi] = self.c[lo:hi, None] * sq[None, :] * bessel_j(
                p.nu, self.table.zeros[lo:hi, None] * x[None, :]
            )
        if p.regime is Regime.MINUS:
            out[0] = self.c[0] * sq * bessel_i(p.nu, self.table.zeros[0] * x)
        elif p.regime is Regime.ZERO:
            out[0] = self.c[0] * x ** (p.nu + 0.5)
        return out

    def _rule_psi(self, quad: QuadratureRule) -> np.ndarray:
        """Read-only psi_matrix(quad.nodes), kept on the basis per rule.

        Filled on first use for each rule (never at construction), in blocks
        of PSI_BLOCK_MODES modes; at most PSI_RULES_PER_BASIS rules are kept,
        the oldest being dropped first. Entries hold their rule, so a key
        (the rule's id) cannot be reused by another rule while cached.
        """
        hit = self._psi_by_rule.get(id(quad))
        if hit is not None:
            return hit[1]
        mat = self._psi_rows(quad.nodes, self.n_max, PSI_BLOCK_MODES)
        mat.flags.writeable = False
        if len(self._psi_by_rule) >= PSI_RULES_PER_BASIS:
            del self._psi_by_rule[next(iter(self._psi_by_rule))]
        self._psi_by_rule[id(quad)] = (quad, mat)
        return mat

    def psi_prime_matrix(self, x: np.ndarray) -> np.ndarray:
        """Derivatives psi_n'(x) through the Bessel recurrence identities."""
        p = self.params
        x = np.asarray(x, dtype=float)
        z = self.table.zeros[1 : self.n_max + 1]
        sq = np.sqrt(x)
        zx = z[:, None] * x[None, :]
        out = np.zeros((self.n_max + 1, x.size))
        out[1:] = self.c[1:, None] * sq[None, :] * (
            ((p.nu + 0.5) / x)[None, :] * bessel_j(p.nu, zx)
            - z[:, None] * bessel_j(p.nu + 1.0, zx)
        )
        if p.regime is Regime.MINUS:
            z0 = self.table.zeros[0]
            out[0] = self.c[0] * sq * (
                ((p.nu + 0.5) / x) * bessel_i(p.nu, z0 * x)
                + z0 * bessel_i(p.nu + 1.0, z0 * x)
            )
        elif p.regime is Regime.ZERO:
            out[0] = self.c[0] * (p.nu + 0.5) * x ** (p.nu - 0.5)
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
    """psi_n at points x in (0,1); dispatches the n=0 mode on the regime."""
    if n == 0 and b.params.regime is Regime.PLUS:
        raise RegimeMismatchError("no n=0 eigenfunction exists when nu + H > 0")
    if n < b.n_min or n > b.n_max:
        raise IndexError(f"basis index {n} outside [{b.n_min}, {b.n_max}]")
    p = b.params
    xs = np.asarray(x, dtype=float)
    if np.any((xs <= 0.0) | (xs >= 1.0)):
        raise DomainError("evaluation points must lie in the open interval (0,1)")
    if n >= 1:
        out = b.c[n] * np.sqrt(xs) * bessel_j(p.nu, b.table.zeros[n] * xs)
    elif p.regime is Regime.MINUS:
        out = b.c[0] * np.sqrt(xs) * bessel_i(p.nu, b.table.zeros[0] * xs)
    else:
        out = b.c[0] * xs ** (p.nu + 0.5)
    return float(out) if np.isscalar(x) else out


@dataclass
class JacobiBasisSpec(_SupProbe):
    """Constants C_k, eigenvalues Lambda_k and evaluation for the Phi system."""

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
        log_c2 = (
            math.log(math.pi)
            + log_num
            + gammaln(k + 1.0)
            - gammaln(k + a + 1.0)
            - gammaln(k + b + 1.0)
        )
        self.C = np.exp(0.5 * log_c2)
        self.Lambda = math.pi**2 * (k + (a + b + 1.0) / 2.0) ** 2
        if np.any(np.diff(self.Lambda) < 0.0):
            raise ConsistencyError("Jacobi eigenvalues are not nondecreasing")

    @property
    def n_min(self) -> int:
        return 0

    def phi_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix [Phi_k(x_i)]_{k,i} of shape (k_max+1, len(x))."""
        a, b = self.jp.alpha, self.jp.beta
        x = np.asarray(x, dtype=float)
        if np.any((x <= 0.0) | (x >= 1.0)):
            raise DomainError("evaluation points must lie in the open interval (0,1)")
        s = np.sin(0.5 * math.pi * x) ** (a + 0.5)
        c = np.cos(0.5 * math.pi * x) ** (b + 0.5)
        P = jacobi_poly_all(self.jp, self.k_max, np.cos(math.pi * x))
        return self.C[:, None] * (s * c)[None, :] * P


def build_jacobi_basis(jp: JacobiParams, k_max: int) -> JacobiBasisSpec:
    return JacobiBasisSpec(jp, k_max)


def eval_phi(jb: JacobiBasisSpec, k: int, x):
    """Phi_k at points x in (0,1)."""
    if k < 0 or k > jb.k_max:
        raise IndexError(f"basis index {k} outside [0, {jb.k_max}]")
    a, b = jb.jp.alpha, jb.jp.beta
    xs = np.asarray(x, dtype=float)
    if np.any((xs <= 0.0) | (xs >= 1.0)):
        raise DomainError("evaluation points must lie in the open interval (0,1)")
    s = np.sin(0.5 * math.pi * xs) ** (a + 0.5)
    c = np.cos(0.5 * math.pi * xs) ** (b + 0.5)
    P = jacobi_poly_all(jb.jp, k, np.atleast_1d(np.cos(math.pi * xs)))[k]
    out = jb.C[k] * s * c * P.reshape(xs.shape)
    return float(out) if np.isscalar(x) else out


def default_coefficient_rule(b: BasisSpec, n: int = 512) -> QuadratureRule:
    """Quadrature suited to f * psi_n integrands (f bounded near 0)."""
    return inner_product_rule(n, b.params.nu + 0.5)


def dini_coefficients(
    b: BasisSpec, f: Callable[[np.ndarray], np.ndarray], quad: QuadratureRule
) -> np.ndarray:
    """Coefficients a_n = <f, psi_n> for n = 0..n_max (0 slot zero in PLUS).

    psi at the rule's nodes comes from the basis's per-rule cache, so a
    repeated call with the same rule costs f(nodes) and one mat-vec.
    """
    fx = np.asarray(f(quad.nodes), dtype=float)
    if fx.shape != quad.nodes.shape:
        raise DomainError("f must map the node array to an equal-shape array")
    return b._rule_psi(quad) @ (quad.weights * fx)


def apply_operator(
    b: BasisSpec, coeffs: np.ndarray, power: float, shift: float = 0.0
) -> np.ndarray:
    """Coefficient-wise application of (shift + operator)^power.

    The operator acts as multiplication by eigen[n]; negative or fractional
    powers require shift + eigen[n] > 0 for every active mode.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (b.n_max + 1,):
        raise DomainError(f"coeffs must have shape ({b.n_max + 1},)")
    if power == 0.0:
        return coeffs.copy()
    lam = shift + b.eigen[b.n_min :]
    fractional = power != round(power)
    if (power < 0.0 or fractional) and np.any(lam <= 0.0):
        raise SpectrumNotPositiveError(
            "shifted spectrum has a non-positive eigenvalue; negative or "
            "fractional powers are not defined"
        )
    out = np.zeros_like(coeffs)
    if fractional or power < 0.0:
        out[b.n_min :] = coeffs[b.n_min :] * lam**power
    else:
        out[b.n_min :] = coeffs[b.n_min :] * lam ** int(round(power))
    return out


def _mode_abs_max(basis, xs: np.ndarray) -> float:
    """max |basis_n(x)| over the first SUP_PROBE_MODES + 1 modes and the points xs."""
    if isinstance(basis, JacobiBasisSpec):
        vals = basis.phi_matrix(xs)[: min(SUP_PROBE_MODES, basis.k_max) + 1]
    else:
        vals = basis.psi_matrix(xs, n_upper=min(SUP_PROBE_MODES, basis.n_max))
    return float(np.max(np.abs(vals)))


def certified_sup(basis, xs: np.ndarray) -> float:
    """Empirical uniform bound M >= sup_n sup_x |basis_n(x)| over the probe.

    The first 48 modes are evaluated on a 10^4-point grid (cached on the
    basis) and on the requested points xs; M is 1.5 times the larger of the
    two maxima, which equals the maximum over the union of both point sets.
    Used by series truncation certificates; works for both basis flavors.
    """
    xs = np.asarray(xs, dtype=float)
    coord = _mode_abs_max(basis, xs) if xs.size else 0.0
    return SUP_SAFETY * max(basis.probe_sup, coord)


def gram_matrix(basis, n_points: int = 512) -> np.ndarray:
    """Gram matrix of the basis under a graded quadrature rule."""
    if isinstance(basis, JacobiBasisSpec):
        left = 2.0 * basis.jp.alpha + 1.0
        right = 2.0 * basis.jp.beta + 1.0
        rule = inner_product_rule(n_points, left, right)
        mat = basis.phi_matrix(rule.nodes)
    else:
        rule = inner_product_rule(n_points, 2.0 * basis.params.nu + 1.0)
        mat = basis.psi_matrix(rule.nodes)[basis.n_min :]
    return (mat * rule.weights[None, :]) @ mat.T
