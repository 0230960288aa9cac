"""Shared numerical primitives.

Gauss-Legendre quadrature mapped to (0,1), plain or graded toward the
endpoints, and the binary64 text format and column writer of CSV artifacts.
All arithmetic is binary64; no multiprecision dependency.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError


def _fmt(x: float) -> str:
    """Binary64 round-trip text (17 significant digits) for CSV artifacts."""
    return "%.17g" % float(x)


def csv_text(columns: dict) -> str:
    """Named columns of equal length as CSV text: a header line of the names,
    then one line per row, "\n" line ends. A float column is written by
    _fmt, formatting each distinct binary64 bit pattern once (keyed on the
    bits, so -0.0 stays apart from 0.0); any other column by str of its
    tolist() scalars (so a bool column reads True, not np.True_)."""
    cells = []
    for col in map(np.asarray, columns.values()):
        if col.dtype.kind == "f":
            bits, inverse = np.unique(np.ascontiguousarray(col, dtype=float).view(np.uint64),
                                      return_inverse=True)
            texts = np.array([_fmt(v) for v in bits.view(float).tolist()], dtype=object)
            cells.append(texts[inverse].tolist())
        else:
            cells.append([str(v) for v in col.tolist()])
    return "\n".join([",".join(columns), *map(",".join, zip(*cells, strict=True))]) + "\n"


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature rule on (0,1) with positive weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if np.any(self.weights <= 0.0):
            raise DomainError("quadrature weights must be strictly positive")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise DomainError("quadrature nodes must be strictly increasing")
        if abs(float(self.weights.sum()) - 1.0) > 1e-14:
            raise DomainError("quadrature weights must sum to 1 within 1e-14")


@functools.lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], per order."""
    xg, wg = roots_legendre(order)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


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
        x, w = _legendre(n)
        nodes, weights = 0.5 * (x + 1.0), 0.5 * w
        nodes.flags.writeable = False
        weights.flags.writeable = False
        rule = _GL_RULES[n] = QuadratureRule(nodes, weights)
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
    rule = _GRADED_RULES[key] = QuadratureRule(nodes, weights)
    return rule
