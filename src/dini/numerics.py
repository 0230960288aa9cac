"""Shared numerical primitives.

Root bracketing/refinement and Gauss-Legendre quadrature mapped to (0,1),
plain or graded toward the endpoints. All arithmetic is binary64; no
multiprecision dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError, MaxIterationsError, NoSignChangeError

MAX_ROOT_ITERATIONS = 200


def _sign(v: float) -> int:
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def _fmt(x: float) -> str:
    """Binary64 round-trip text (17 significant digits) for CSV artifacts."""
    return "%.17g" % float(x)


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] with certified opposite signs at the endpoints."""

    lo: float
    hi: float
    f_lo_sign: int
    f_hi_sign: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise NoSignChangeError(f"bracket endpoints not ordered: [{self.lo}, {self.hi}]")
        if self.f_lo_sign * self.f_hi_sign >= 0:
            raise NoSignChangeError(
                f"no certified sign change on [{self.lo}, {self.hi}]: "
                f"signs ({self.f_lo_sign}, {self.f_hi_sign})"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        return cls(lo, hi, _sign(f(lo)), _sign(f(hi)))


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature rule on (0,1) with positive weights summing to 1.

    ``exact_degree`` is the polynomial exactness degree (2n-1 for a plain
    Gauss-Legendre rule, None for graded/substituted rules).
    """

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if np.any(self.weights <= 0.0):
            raise DomainError("quadrature weights must be strictly positive")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise DomainError("quadrature nodes must be strictly increasing")
        if abs(float(self.weights.sum()) - 1.0) > 1e-14:
            raise DomainError("quadrature weights must sum to 1 within 1e-14")

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def refine_root(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: float,
    df: Optional[Callable[[float], float]] = None,
) -> tuple[float, Bracket]:
    """Refine a certified bracket to width <= tol.

    Bisection guarantees convergence; Newton steps (when ``df`` is supplied)
    are accepted only while they stay inside the current bracket.
    Returns the root estimate together with its final enclosing bracket.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    lo, hi = bracket.lo, bracket.hi
    s_lo = bracket.f_lo_sign
    x = 0.5 * (lo + hi)
    for _ in range(MAX_ROOT_ITERATIONS):
        if hi - lo <= tol:
            root = 0.5 * (lo + hi)
            if df is not None:
                # Newton polish keeps the estimate inside the enclosure.
                for _ in range(3):
                    d = df(root)
                    if d == 0.0:
                        break
                    step = f(root) / d
                    cand = root - step
                    if lo <= cand <= hi:
                        root = cand
                    else:
                        break
            final = Bracket(lo, hi, s_lo, -s_lo)
            return root, final
        took_newton = False
        if df is not None:
            d = df(x)
            if d != 0.0 and math.isfinite(d):
                cand = x - f(x) / d
                if lo < cand < hi:
                    x_new = cand
                    took_newton = True
        if not took_newton:
            x_new = 0.5 * (lo + hi)
        fx = f(x_new)
        s = _sign(fx)
        if s == 0:
            # Exact zero hit: shrink to a certified interval around it, of
            # width <= tol whenever tol >= 2 ulp(x_new).
            eps = max(tol / 4.0, math.ulp(x_new))
            lo2, hi2 = max(lo, x_new - eps), min(hi, x_new + eps)
            return x_new, Bracket.from_function(f, lo2, hi2)
        if s == s_lo:
            lo = x_new
        else:
            hi = x_new
        x = 0.5 * (lo + hi)
    raise MaxIterationsError(
        f"bracket width {hi - lo:.3e} did not reach tol={tol:.3e} "
        f"in {MAX_ROOT_ITERATIONS} iterations"
    )


_GL_RULES: dict[int, QuadratureRule] = {}


def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule mapped to (0,1); exact up to degree 2n-1.

    Rules are memoized per n; their node and weight arrays are read-only,
    so the shared rule cannot be altered by a caller.
    """
    rule = _GL_RULES.get(n)
    if rule is None:
        if not (1 <= n <= 4096):
            raise DomainError(f"gauss_legendre order must be in [1, 4096], got {n}")
        x, w = roots_legendre(n)
        nodes, weights = 0.5 * (x + 1.0), 0.5 * w
        nodes.flags.writeable = False
        weights.flags.writeable = False
        rule = _GL_RULES[n] = QuadratureRule(nodes, weights, exact_degree=2 * n - 1)
    return rule


_GRADED_RULES: dict[tuple[int, int, int], QuadratureRule] = {}


def endpoint_graded_rule(n: int, m_left: int = 1, m_right: int = 1) -> QuadratureRule:
    """Composite rule on (0,1) graded toward the endpoints.

    Applies x = u**m_left on (0, 1/2) and x = 1 - u**m_right on (1/2, 1),
    which restores fast quadrature convergence for integrands with algebraic
    endpoint behavior (basis functions behave like x**(nu+1/2) near 0).
    Rules are memoized per (n, m_left, m_right) with read-only arrays, like
    ``gauss_legendre``, so caches keyed by the rule see one object per key.
    """
    key = (n, m_left, m_right)
    rule = _GRADED_RULES.get(key)
    if rule is not None:
        return rule
    if m_left < 1 or m_right < 1:
        raise DomainError("grading powers must be >= 1")
    base = gauss_legendre(n)
    half = 0.5 ** (1.0 / m_left)
    u = base.nodes * half
    x_l = u**m_left
    w_l = base.weights * half * m_left * u ** (m_left - 1)
    half_r = 0.5 ** (1.0 / m_right)
    v = base.nodes * half_r
    x_r = 1.0 - v**m_right
    w_r = base.weights * half_r * m_right * v ** (m_right - 1)
    nodes = np.concatenate([x_l, x_r[::-1]])
    weights = np.concatenate([w_l, w_r[::-1]])
    # Endpoint maps are exact changes of variables, so the weight sum is 1 up
    # to rounding; renormalize the last few ulps to honor the type invariant.
    weights = weights / weights.sum()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    rule = _GRADED_RULES[key] = QuadratureRule(nodes, weights, exact_degree=None)
    return rule
