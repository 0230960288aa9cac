"""Closed-form envelopes, two-sided comparisons, and ratio reports.

The sharp kernel estimates are all of the form kernel(x,y) comparable to an
explicit envelope, with constants that are never stated; the numerical
witness for each claim is the min/max of kernel/envelope over a grid
(a RatioReport), plus the exact exponential sandwich between the Bessel-type
and Jacobi-type heat kernels with the bounded generator difference F.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .basis import BasisSpec, build_basis, build_jacobi_basis, inner_product_rule
from .errors import (
    DomainError,
    InequalityViolation,
    NonFiniteRatioError,
    SandwichViolation,
    TailBoundFailure,
)
from .kernels import engine_for
from .numerics import csv_text
from .specfun import JacobiParams, SpectralParams

INDICATOR_TOL = 1e-12
SANDWICH_SLACK = 1e-7


def F_nu(nu: float, x):
    """Generator difference (1/4 - nu^2) [pi^2/(4 sin^2(pi x/2)) - 1/x^2].

    Continuous and monotone on [0,1]; x = 0 is taken in the limiting sense.
    """
    if not nu > -1.0:
        raise DomainError("order must exceed -1")
    xs = np.asarray(x, dtype=float)
    if np.any((xs < 0.0) | (xs > 1.0)):
        raise DomainError("F_nu is defined on [0, 1]")
    coef = 0.25 - nu * nu
    out = np.empty_like(xs, dtype=float)
    small = xs <= 0.05
    u = 0.5 * math.pi * xs[small]
    u2 = u * u
    # 1/sin^2 u - 1/u^2 = 1/3 + u^2/15 + 2u^4/189 + u^6/675 + 2u^8/10395 + ...
    # The direct formula loses ~1/x^2 digits of cancellation near 0.
    out[small] = coef * (math.pi**2 / 4.0) * (
        1.0 / 3.0
        + u2 * (1.0 / 15.0 + u2 * (2.0 / 189.0 + u2 * (1.0 / 675.0 + u2 * 2.0 / 10395.0)))
    )
    big = ~small
    xb = xs[big]
    out[big] = coef * (
        math.pi**2 / (4.0 * np.sin(0.5 * math.pi * xb) ** 2) - 1.0 / (xb * xb)
    )
    return float(out) if np.isscalar(x) else out


class EnvelopeKind(enum.Enum):
    HEAT_SHORT = "heat-short"
    HEAT_LONG = "heat-long"
    POISSON_SHORT = "poisson-short"
    POISSON_LONG = "poisson-long"
    POT_BESSEL = "potential-bessel"
    POT_RIESZ = "potential-riesz"


@dataclass(frozen=True)
class Envelope:
    """Closed-form comparison function for one kernel kind.

    ``rate`` is the signed large-time exponential rate (the envelope carries
    exp(-rate * t); negative rate means growth, as for the MINUS regime).
    """

    kind: EnvelopeKind
    nu: float
    rate: float = 0.0

    def __post_init__(self):
        if not self.nu > -1.0:
            raise DomainError("envelope order must exceed -1")


def heat_short_envelope(nu: float) -> Envelope:
    return Envelope(EnvelopeKind.HEAT_SHORT, nu)


def heat_long_envelope(basis: BasisSpec) -> Envelope:
    """Large-time envelope (xy)^{nu+1/2} exp(-rate t) from the bottom mode:
    rate is its eigenvalue (0 in the ZERO regime, -z_0^2 in MINUS, where the
    kernel grows like exp(z_0^2 t))."""
    return Envelope(EnvelopeKind.HEAT_LONG, basis.params.nu, rate=basis.table.eigen[basis.n_min])


def poisson_short_envelope(nu: float) -> Envelope:
    return Envelope(EnvelopeKind.POISSON_SHORT, nu)


def poisson_long_envelope(basis: BasisSpec, d: float) -> Envelope:
    p = basis.params
    lam0 = d * d + basis.table.eigen[basis.n_min]
    if lam0 < 0.0:
        raise DomainError("shift too small for a Poisson large-time rate")
    return Envelope(EnvelopeKind.POISSON_LONG, p.nu, rate=math.sqrt(lam0))


def potential_envelope(nu: float, riesz: bool = False) -> Envelope:
    if riesz and nu <= -0.5:
        raise DomainError("Riesz potential envelope requires nu > -1/2")
    kind = EnvelopeKind.POT_RIESZ if riesz else EnvelopeKind.POT_BESSEL
    return Envelope(kind, nu)


def envelope_eval(e: Envelope, t_or_sigma: float, x, y):
    """Evaluate the closed-form envelope at (x, y) for time t (or power sigma)."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if np.any((xs <= 0.0) | (xs >= 1.0) | (ys <= 0.0) | (ys >= 1.0)):
        raise DomainError("envelope arguments must lie in (0,1)")
    t = t_or_sigma
    if t <= 0.0:
        raise DomainError("time (or sigma) must be positive")
    nu = e.nu
    if e.kind is EnvelopeKind.HEAT_SHORT:
        out = (
            np.minimum(xs * ys / t, 1.0) ** (nu + 0.5)
            / math.sqrt(t)
            * np.exp(-((xs - ys) ** 2) / (4.0 * t))
        )
    elif e.kind is EnvelopeKind.HEAT_LONG:
        out = (xs * ys) ** (nu + 0.5) * math.exp(-e.rate * t)
    elif e.kind is EnvelopeKind.POISSON_SHORT:
        out = (np.sqrt(xs * ys) / (t + xs + ys)) ** (2.0 * nu + 1.0) * t / (
            t * t + (xs - ys) ** 2
        )
    elif e.kind is EnvelopeKind.POISSON_LONG:
        out = (xs * ys) ** (nu + 0.5) * math.exp(-e.rate * t)
    elif e.kind in (EnvelopeKind.POT_BESSEL, EnvelopeKind.POT_RIESZ):
        out = (xs * ys) ** (nu + 0.5) * _potential_bracket(nu, t, xs, ys)
    else:  # pragma: no cover
        raise DomainError(f"unknown envelope kind {e.kind}")
    return float(out) if np.isscalar(x) and np.isscalar(y) else out


def _potential_bracket(nu: float, sigma: float, xs: np.ndarray, ys: np.ndarray):
    s = xs + ys
    r = 2.0 - s
    diff = np.abs(xs - ys)
    out = np.ones_like(s)
    if abs(sigma - (nu + 1.0)) <= INDICATOR_TOL:
        out = out + np.log(2.0 / s)
    if abs(sigma - 0.5) <= INDICATOR_TOL:
        out = out + np.log(2.0 / r)
    power = s ** (2.0 * sigma - 2.0 * (nu + 1.0))
    if sigma > 0.5 + INDICATOR_TOL:
        branch = r ** (2.0 * sigma - 1.0)
    elif sigma >= 0.5 - INDICATOR_TOL:
        with np.errstate(divide="raise"):
            branch = np.log(s * r / diff)
    else:
        branch = (s / diff) ** (1.0 - 2.0 * sigma)
    return out + power * branch


@dataclass
class RatioReport:
    """Min/max of kernel/envelope over a grid: the numerical witness of a
    two-sided comparability claim."""

    kind: str
    params: dict
    t_or_sigma: float
    n_points: int
    min_ratio: float
    max_ratio: float
    argmin: tuple
    argmax: tuple
    points: Optional[np.ndarray] = field(default=None, repr=False)  # (n, 5) rows, see write_csv

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "t": self.t_or_sigma,
            "n_points": self.n_points,
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "argmin": list(self.argmin),
            "argmax": list(self.argmax),
        }

    def write_csv(self, fh) -> None:
        """Per-point long-format dump: x,y,kernel,envelope,ratio."""
        if self.points is None:
            raise DomainError("report was built without per-point rows")
        fh.write(csv_text(dict(zip(("x", "y", "kernel", "envelope", "ratio"), self.points.T))))


def ratio_report(
    kernel_values: Sequence[float],
    envelope_values: Sequence[float],
    pairs: Sequence[tuple],
    kind: str,
    params: dict,
    t_or_sigma: float,
    keep_points: bool = True,
    floor: float = 0.0,
) -> RatioReport:
    """Build the kernel/envelope ratio witness from matched value arrays.

    Points where the envelope falls below ``floor`` are excluded: there the
    kernel value (certified only to an absolute tolerance) cannot resolve the
    ratio. With the default floor of 0 every point is kept.
    """
    kv = np.asarray(kernel_values, dtype=float)
    ev = np.asarray(envelope_values, dtype=float)
    xy = np.asarray(pairs, dtype=float)
    if kv.shape != ev.shape or len(xy) != kv.size:
        raise DomainError("kernel, envelope and pair arrays must align")
    keep = ev >= max(floor, 0.0)
    if floor > 0.0 and not np.all(keep):
        kv, ev, xy = kv[keep], ev[keep], xy[keep]
    if kv.size == 0:
        raise DomainError("no grid points remain above the resolvability floor")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = kv / ev
    if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0.0):
        bad = int(np.argmin(np.where(np.isfinite(ratios), ratios, -np.inf)))
        raise NonFiniteRatioError(
            f"non-finite or non-positive ratio at point {tuple(xy[bad].tolist())}: "
            f"kernel={kv[bad]:.6g}, envelope={ev[bad]:.6g}"
        )
    imin = int(np.argmin(ratios))
    imax = int(np.argmax(ratios))
    points = np.column_stack([xy, kv, ev, ratios]) if keep_points else None
    return RatioReport(
        kind=kind,
        params=params,
        t_or_sigma=t_or_sigma,
        n_points=kv.size,
        min_ratio=float(ratios[imin]),
        max_ratio=float(ratios[imax]),
        argmin=tuple(xy[imin].tolist()),
        argmax=tuple(xy[imax].tolist()),
        points=points,
    )


@dataclass
class SandwichReport:
    nu: float
    t: float
    branch: str
    n_points: int
    lower_factor: float
    upper_factor: float
    min_lower_margin: float
    min_upper_margin: float
    argmin_lower: tuple
    argmin_upper: tuple

    def to_json_dict(self) -> dict:
        d = self.__dict__.copy()
        d["argmin_lower"] = list(self.argmin_lower)
        d["argmin_upper"] = list(self.argmin_upper)
        return d


def sandwich_check(
    nu: float,
    t_grid: Sequence[float],
    xy_grid: Sequence[tuple],
    n_max: int = 400,
    tol: float = 1e-10,
) -> list[SandwichReport]:
    """Pointwise exponential sandwich between the Bessel-type heat kernel
    (H = 1/2) and the Jacobi-type heat kernel (beta = -1/2) at alpha = nu.

    Raises SandwichViolation if either one-sided comparison fails by more
    than the relative slack at any grid point.
    """
    eng_g = engine_for(build_basis(SpectralParams(nu, 0.5), n_max), xy_grid)
    eng_k = engine_for(build_jacobi_basis(JacobiParams(nu, -0.5), n_max), xy_grid)
    point = lambda i: tuple(eng_g.pairs[i].tolist())
    f0 = float(F_nu(nu, 0.0))
    f1 = float(F_nu(nu, 1.0))
    branch = "inner" if -0.5 <= nu <= 0.5 else "outer"
    reports = []
    for t in t_grid:
        g, _, _ = eng_g.heat_values(t, tol)
        k, _, _ = eng_k.heat_values(t, tol)
        lower = math.exp(-t * max(f0, f1))
        upper = math.exp(-t * min(f0, f1))
        scale = np.maximum(g, upper * k)
        m_lo = g - lower * k
        m_up = upper * k - g
        # Absolute floor: values are only certified to the evaluation tol.
        slack = SANDWICH_SLACK * scale + 4.0 * tol
        bad_lo = m_lo < -slack
        bad_up = m_up < -slack
        if np.any(bad_lo | bad_up):
            i = int(np.argmin(np.where(bad_lo, m_lo, np.where(bad_up, m_up, np.inf))))
            raise SandwichViolation(
                f"sandwich fails at nu={nu}, t={t}, point {point(i)}: "
                f"lower margin {m_lo[i]:.3e}, upper margin {m_up[i]:.3e}",
                point=point(i),
            )
        i_lo = int(np.argmin(m_lo))
        i_up = int(np.argmin(m_up))
        reports.append(
            SandwichReport(
                nu=nu,
                t=float(t),
                branch=branch,
                n_points=eng_g.n_pairs,
                lower_factor=lower,
                upper_factor=upper,
                min_lower_margin=float(m_lo[i_lo]),
                min_upper_margin=float(m_up[i_up]),
                argmin_lower=point(i_lo),
                argmin_upper=point(i_up),
            )
        )
    return reports


@functools.lru_cache(maxsize=32)
def _default_trial_grams(nu: float, n_terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram matrices of psi_n/x^2 and psi_n'/x (n = 1..n_terms), with the
    eigenvalues z_n^2, for the basis (nu, H = 1/2), under the 2048-point
    rule graded for the x^{2 nu - 3} endpoint behavior; kept per (nu, n_terms)."""
    b = build_basis(SpectralParams(nu, 0.5), n_terms)
    quad = inner_product_rule(2048, 2.0 * nu - 3.0)
    x = quad.nodes
    a = b.psi_matrix(x)[1:] / x**2
    d = b.psi_prime_matrix(x)[1:] / x
    grams = ((a * quad.weights) @ a.T, (d * quad.weights) @ d.T, b.eigen[1:])
    for arr in grams:
        arr.flags.writeable = False
    return grams


def _trial_function_norms(nu: float, trial_coeffs: Sequence[float]) -> tuple[float, float, float]:
    """(||f/x^2||, ||f'/x||, ||Lf||) for f = sum_n coeffs[n-1] psi_n (n >= 1).

    The two weighted norms are the quadratic forms a^T G a in the
    coefficients, with G the Gram matrices of psi_n/x^2 and psi_n'/x from
    ``_default_trial_grams``, built once per (nu, n_terms), so rellich_check
    and hardy_check share them across trials; ||Lf|| is |(z_n^2 a_n)| by
    orthonormality.
    """
    coeffs = np.asarray(trial_coeffs, dtype=float)
    g_lhs, g_hardy, eigen = _default_trial_grams(float(nu), coeffs.size)
    lhs = math.sqrt(max(float(coeffs @ g_lhs @ coeffs), 0.0))
    hardy = math.sqrt(max(float(coeffs @ g_hardy @ coeffs), 0.0))
    op_norm = math.sqrt(float(np.sum((coeffs * eigen) ** 2)))
    return lhs, hardy, op_norm


def rellich_check(nu: float, trial_coeffs: Sequence[float]) -> tuple[float, float]:
    """||f/x^2|| <= (nu^2-1)^{-1} ||L f|| for finite combinations, nu > 1."""
    if not nu > 1.0:
        raise DomainError("the second-order weighted inequality requires nu > 1")
    lhs, _, op_norm = _trial_function_norms(nu, trial_coeffs)
    rhs = op_norm / (nu * nu - 1.0)
    if lhs > rhs * (1.0 + 1e-6):
        raise InequalityViolation(
            f"weighted-norm inequality violated: lhs={lhs:.12e} > rhs={rhs:.12e}"
        )
    return lhs, rhs


def hardy_check(nu: float, trial_coeffs: Sequence[float]) -> tuple[float, float]:
    """||f/x^2|| <= (2/3) ||f'/x|| for the same trial functions."""
    if not nu > 1.0:
        raise DomainError("trial functions require nu > 1 for finite norms")
    lhs, hardy, _ = _trial_function_norms(nu, trial_coeffs)
    rhs = (2.0 / 3.0) * hardy
    if lhs > rhs * (1.0 + 1e-6):
        raise InequalityViolation(
            f"first-order weighted inequality violated: lhs={lhs:.12e} > rhs={rhs:.12e}"
        )
    return lhs, rhs


# --------------------------------------------------------------------------
# Ratio sweeps
# --------------------------------------------------------------------------

RESOLVABILITY_FACTOR = 1e4


def envelope_reports(
    basis,
    pairs: Sequence[tuple],
    values: Sequence[float],
    envelope: Envelope,
    *,
    tol: float,
    d: float = 0.0,
    keep_points: bool = False,
) -> list[RatioReport]:
    """Kernel/envelope ratio reports at several times (or powers sigma).

    ``envelope.kind`` picks the kernel: the heat kernel (the Jacobi heat
    kernel on a Jacobi basis) for HEAT_*, the Poisson kernel with shift d for
    POISSON_*, and the potential series for POT_* (d0 = 0 for POT_RIESZ, 1
    for POT_BESSEL). The *_LONG kinds rescale both sides by the envelope's
    rate, which is exact, so that the ratio survives where the raw kernel
    underflows; the others exclude points whose envelope is below
    RESOLVABILITY_FACTOR * tol. A kept value at or below 0 but within its
    tail bound of 0 has no resolved sign, so its ratio is not a failed
    inequality: TailBoundFailure (exit 2), not NonFiniteRatioError (exit 1).
    """
    eng = engine_for(basis, pairs)
    xs, ys, p = eng.xs, eng.ys, eng.params
    kind = envelope.kind
    if kind in (EnvelopeKind.HEAT_SHORT, EnvelopeKind.HEAT_LONG):
        jacobi = isinstance(p, JacobiParams)
        label = "jacobi-heat" if jacobi else "heat"
        params = {"alpha": p.alpha, "beta": p.beta} if jacobi else {"nu": p.nu, "H": p.h}
        kernel = lambda v, rescale: eng.heat_values(v, tol, rescale)
    elif kind in (EnvelopeKind.POISSON_SHORT, EnvelopeKind.POISSON_LONG):
        label, params = "poisson", {"nu": p.nu, "H": p.h, "d": d}
        kernel = lambda v, rescale: eng.poisson_values(v, d, tol, rescale)
    else:
        riesz = kind is EnvelopeKind.POT_RIESZ
        label, params = ("riesz-potential" if riesz else "bessel-potential"), {"nu": p.nu}
        kernel = lambda v, _: eng.potential_series(v, 0.0 if riesz else 1.0, tol)
    long_time = kind in (EnvelopeKind.HEAT_LONG, EnvelopeKind.POISSON_LONG)
    arg = "sigma" if kind in (EnvelopeKind.POT_BESSEL, EnvelopeKind.POT_RIESZ) else "t"
    out = []
    for v in values:
        if long_time:
            vals, _, bound = kernel(v, envelope.rate)
            ev = (xs * ys) ** (envelope.nu + 0.5)
            floor = 0.0
        else:
            vals, _, bound = kernel(v, 0.0)
            ev = envelope_eval(envelope, v, xs, ys)
            floor = RESOLVABILITY_FACTOR * tol
        unresolved = np.flatnonzero((vals <= 0.0) & (vals >= -bound) & (ev >= floor))
        if unresolved.size:
            i = int(unresolved[0])
            raise TailBoundFailure(
                f"{kind.value} kernel at {tuple(eng.pairs[i].tolist())}, {arg}={v:g}: "
                f"value {vals[i]:.6g} is within its tail bound {bound:.2e} of 0, so its ratio "
                f"to the envelope is unresolved"
            )
        out.append(
            ratio_report(
                vals, ev, eng.pairs, label, params, v,
                keep_points=keep_points, floor=floor,
            )
        )
    return out


# --------------------------------------------------------------------------
# Grid construction for verification sweeps
# --------------------------------------------------------------------------


def boundary_refined_coords(n: int, refine: bool = True) -> np.ndarray:
    """Coordinates in (0,1): uniform midpoints plus geometric refinement
    toward both endpoints (where the envelope regimes live)."""
    base = (np.arange(n) + 0.5) / n
    if not refine:
        return base
    lead = np.array([1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2])
    return np.unique(np.concatenate([lead, base, 1.0 - lead]))


def pair_grid(coords: np.ndarray) -> np.ndarray:
    """Every pair (x, y) of coordinates, x varying fastest, as an (n, 2) array."""
    xs, ys = np.meshgrid(coords, coords)
    return np.column_stack([xs.ravel(), ys.ravel()])


def offdiagonal_pair_grid(coords: np.ndarray, min_sep: float = 0.02) -> np.ndarray:
    """Tensor pairs with |x - y| >= min_sep (y varying fastest), plus
    near-diagonal probes (x, x + min_sep) for x in (0.1, 0.9) to exercise the
    diagonal-singular branches, as an (n, 2) array."""
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    keep = np.abs(xs - ys) >= min_sep
    probes = coords[(coords > 0.1) & (coords < 0.9)]
    probes = probes[probes + min_sep < 1.0]
    return np.concatenate([np.column_stack([xs[keep], ys[keep]]),
                           np.column_stack([probes, probes + min_sep])])
