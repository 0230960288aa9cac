"""Zeros of the Robin combinations J_{nu,H} and I_{nu,H}.

For n >= 1 the zeros z_n of J_{nu,H} are bracketed by interlacing: between
consecutive zeros of J_nu there is exactly one zero of J_{nu,H}, and the sign
of J_{nu,H} at the zeros of J_nu alternates. The J_nu zeros come from McMahon
brackets with a dense-scan fallback. When nu + H < 0 the single positive zero
z_0 of I_{nu,H} is bracketed on a doubling grid; when nu + H = 0, z_0 = 0.
Every zero is refined by ``_refine``: bracketed Newton, then a sign certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BracketScanFailure, ConsistencyError, DomainError
from .numerics import Bracket, _fmt, refine_root
from .specfun import Regime, SpectralParams, bessel_ih, bessel_j, bessel_jh, robin_and_slope

RESIDUAL_SCALE = 1e-10
Z0_SEARCH_CAP = 512.0  # I_nu overflows beyond 700
NEWTON_STEPS = 60


def _scan_first_sign_change(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int = 8192
) -> tuple[float, float, int, int]:
    grid = np.linspace(lo, hi, n)
    signs = np.sign(f(grid))
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if flips.size == 0:
        raise BracketScanFailure(
            f"no sign change found on ({lo:.6g}, {hi:.6g}) at resolution "
            f"{(hi - lo) / (n - 1):.3g}",
            scan_step=(hi - lo) / (n - 1),
        )
    i = int(flips[0])
    return float(grid[i]), float(grid[i + 1]), int(signs[i]), int(signs[i + 1])


def _newton(fdf, x, lo, hi, s_lo, tol):
    """Newton on arrays, safeguarded by the brackets [lo, hi] (signs s_lo,
    -s_lo), which every evaluation shrinks; a step leaving its bracket is
    replaced by the bracket midpoint. An entry is frozen once its step is at
    most max(tol/4, 4 ulp(x)). Returns the iterates and shrunk brackets."""
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    live = np.arange(x.size)
    for _ in range(NEWTON_STEPS):
        if live.size == 0:
            break
        xa, sa = x[live], s_lo[live]
        f, df = fdf(xa)
        s = np.sign(f)
        la = lo[live] = np.where(s == sa, xa, lo[live])
        ha = hi[live] = np.where(s == -sa, xa, hi[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(s == 0, 0.0, f / df)
        cand = xa - step
        small = np.abs(step) <= np.maximum(0.25 * tol, 4.0 * np.spacing(xa))
        inside = (cand > la) & (cand < ha)
        x[live] = np.where(small, np.clip(cand, la, ha), np.where(inside, cand, 0.5 * (la + ha)))
        live = live[~small]
    return x, lo, hi


def _refine(f, fdf, x0, lo, hi, s_lo, tol):
    """Certified zeros of f, one in each cell [lo, hi] with f signs s_lo,
    -s_lo at its ends, from the starting points x0 (the midpoint where x0
    is outside). Newton (``_newton``) gives x; the certificate evaluates f at
    x -/+ d, d = max(0.45 tol, 2 ulp(x)) in whole ulps, and accepts
    [x - d, x + d] when it has the signs s_lo, -s_lo, lies in the cell and
    has width <= max(tol, 4 ulp). Failing entries are bisected
    (``refine_root``) from their Newton bracket to width max(tol, 4 ulp),
    which raises if it cannot. Returns the zeros and the certified ends."""
    x0 = np.where((x0 > lo) & (x0 < hi), x0, 0.5 * (lo + hi))
    x, n_lo, n_hi = _newton(fdf, x0, lo, hi, s_lo, tol)
    u = np.spacing(np.abs(x))
    d = np.maximum(np.floor(0.45 * tol / u), 2.0) * u
    a, b = x - d, x + d
    sab = np.sign(f(np.concatenate([a, b])))
    ok = (sab[: x.size] == s_lo) & (sab[x.size :] == -s_lo) & (a >= lo) & (b <= hi)
    bad = ~ok | (b - a > np.maximum(tol, 4.0 * np.spacing(b)))
    for i in np.flatnonzero(bad):
        br = Bracket(float(n_lo[i]), float(n_hi[i]), int(s_lo[i]), -int(s_lo[i]))
        x[i], br = refine_root(f, br, max(tol, 4.0 * np.spacing(br.hi)))
        a[i], b[i] = br.lo, br.hi
    return x, a, b


def bessel_j_zeros(nu: float, count: int, tol: float = 1e-13) -> np.ndarray:
    """First ``count`` positive zeros of J_nu, certified by ``_refine``.

    The McMahon brackets [g - 0.6, g + 0.6] are sign-tested as arrays; they
    are disjoint, since the guesses g are more than 2.7 apart. A bracket
    without a sign change is replaced, in order, by a dense scan above the
    previous bracket (small k at large nu)."""
    if count < 1:
        raise DomainError("count must be >= 1")
    f = lambda x: bessel_j(nu, x)

    def fdf(x):
        a = bessel_j(nu, x)
        return a, (nu / x) * a - bessel_j(nu + 1.0, x)

    beta = (np.arange(1, count + 1) + 0.5 * nu - 0.25) * math.pi
    g = np.where(beta <= 1.0, beta, beta - (4.0 * nu * nu - 1.0) / (8.0 * beta))
    lo, hi = np.maximum(g - 0.6, 1e-9), g + 0.6
    s_lo, s_hi = np.sign(f(lo)), np.sign(f(hi))
    for k in np.flatnonzero(s_lo * s_hi >= 0):
        prev = hi[k - 1] if k else 0.0
        start = prev + max(1e-9, 1e-6 * prev) if prev > 0 else 1e-8
        lo[k], hi[k], s_lo[k], _ = _scan_first_sign_change(f, start, g[k] + 2.5)
    if np.any(lo[1:] <= hi[:-1]):
        raise BracketScanFailure("J_nu zero brackets overlap")
    return _refine(f, fdf, g, lo, hi, s_lo, tol)[0]


@dataclass
class ZeroTable:
    """Zeros z_n of J_{nu,H} (and of I_{nu,H} for n=0), with certificates.

    ``zeros[n]`` holds z_n for n in [n_min, n_max]; in the PLUS regime the
    n=0 slot is NaN. z_n, n >= 1, is certified in two steps: its interlacing
    cell, between consecutive certified zeros of J_nu (``j_zeros``; 0+
    below the first) where J_{nu,H} has opposite computed signs; then
    ``brackets[n]`` = [x - d, x + d] around the refined x, d = max(0.45 tol,
    2 ulp), inside the cell and with the cell's signs computed at its ends
    (or a bisected bracket where that test fails). Every bracket is signed,
    in its cell and of width <= max(tol, 4 ulp); z_0 has the same kind of
    bracket for I_{nu,H}. The residual |J_{nu,H}(z_n)| / (1 + z_n) and the
    order z_1 < z_2 < ... are checked. ``pi_offset_sup`` = sup_n |z_n - pi*n|
    and ``freq_offset`` is the lower offset with z_n >= pi*(n - freq_offset)
    for all stored n >= 1, used by series tail bounds.
    """

    params: SpectralParams
    n_max: int
    tol: float
    zeros: np.ndarray
    brackets: list
    pi_offset_sup: float = field(init=False)
    freq_offset: float = field(init=False)
    max_residual: float = field(init=False)
    j_zeros: Optional[np.ndarray] = None

    def __post_init__(self):
        z = self.zeros[1:]
        n = np.arange(1, self.n_max + 1, dtype=float)
        self.pi_offset_sup = float(np.max(np.abs(z - math.pi * n)))
        self.freq_offset = float(max(0.0, np.max(n - z / math.pi)))
        res = np.abs(bessel_jh(self.params, z)) / (1.0 + z)
        self.max_residual = float(np.max(res))
        if self.max_residual > RESIDUAL_SCALE:
            raise ConsistencyError(
                f"zero residual {self.max_residual:.3e} exceeds {RESIDUAL_SCALE:.1e}"
            )
        # Only the J_{nu,H} zeros are ordered: z_0 of I_{nu,H} may exceed z_1
        # (nu = -0.75, H = -1.5 gives z_0 = 1.92 > z_1 = 1.81), while the
        # eigenvalues -z_0^2 < z_1^2 stay ordered whatever z_0 is.
        if np.any(np.diff(self.zeros[1:]) <= 0.0):
            raise ConsistencyError("zeros are not strictly increasing")

    @property
    def n_min(self) -> int:
        return self.params.n_min

    def to_csv(self, out) -> None:
        """Write the table as CSV (nu,H,n,zero,bracket_lo,bracket_hi,tol, one
        row per stored zero, "\n" line ends) to a path or a text stream."""
        p = self.params
        lines = ["nu,H,n,zero,bracket_lo,bracket_hi,tol"]
        for n in range(self.n_min, self.n_max + 1):
            br = self.brackets[n]
            lo, hi = (br.lo, br.hi) if br is not None else (0.0, 0.0)
            cells = (_fmt(p.nu), _fmt(p.h), str(n), _fmt(self.zeros[n]), _fmt(lo), _fmt(hi),
                     _fmt(self.tol))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w", newline="") as fh:
                fh.write(text)


def build_zero_table(p: SpectralParams, n_max: int, tol: float = 1e-13) -> ZeroTable:
    """Compute z_n for n = n_min..n_max with the certificate of ``ZeroTable``.

    The cells are the intervals between 0+ and the zeros of J_nu where
    J_{nu,H} changes sign; whether (0+, j_1) is one must match the regime.
    ``_refine`` starts at the cell midpoint m shifted by (H - 1/2)/m, the
    large-x offset of the zero. z_0 is refined in the first sign change of
    I_{nu,H} on 0+, 1, 2, 4, ..., from its small-x value sqrt(-2(nu+1)(nu+H)).
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not (math.isfinite(tol) and tol >= 1e-13):
        raise DomainError(f"tol must be finite and >= 1e-13, got {tol}")

    need_j = n_max if p.regime is Regime.PLUS else n_max + 1
    j = bessel_j_zeros(p.nu, need_j, tol)
    f = lambda x: bessel_jh(p, x)

    eps0 = min(1e-3 * j[0], 0.05)
    if p.regime is Regime.PLUS:
        # Near the ZERO regime the first zero collapses like
        # sqrt(2 (nu+1)(nu+H)); probe below it so the sign at 0+ is seen.
        eps0 = min(eps0, 0.3 * math.sqrt(2.0 * (p.nu + 1.0) * (p.nu + p.h)))
    nodes = np.concatenate([[eps0], j])
    signs = np.sign(f(nodes))
    if signs[0] == 0:
        raise BracketScanFailure("sign of J_{nu,H} indeterminate near 0")
    flip = signs[:-1] * signs[1:] < 0

    first_cell_has_zero = bool(flip[0])
    if first_cell_has_zero != (p.regime is Regime.PLUS):
        raise ConsistencyError(
            "interlacing pattern inconsistent with the sign regime of nu + H"
        )
    cells = np.nonzero(flip)[0]
    if cells.size < n_max:
        raise BracketScanFailure(
            f"found {cells.size} interlacing cells, need {n_max}"
        )
    cells = cells[:n_max]

    lo, hi, s_lo = nodes[cells], nodes[cells + 1], signs[cells]
    mid = 0.5 * (lo + hi)
    x0 = mid + (p.h - 0.5) / mid
    zeros, brackets = np.full(n_max + 1, np.nan), [None] * (n_max + 1)
    zeros[1:], a, b = _refine(f, lambda x: robin_and_slope(p, x), x0, lo, hi, s_lo, tol)
    brackets[1:] = [Bracket(float(u), float(v), int(s), -int(s)) for u, v, s in zip(a, b, s_lo)]

    if p.regime is Regime.MINUS:
        f0 = lambda x: bessel_ih(p, x)
        xs = np.concatenate([[1e-8], 2.0 ** np.arange(1 + int(math.log2(Z0_SEARCH_CAP)))])
        s = np.sign(f0(xs))
        up = np.flatnonzero((s[:-1] < 0) & (s[1:] > 0))[:1]
        if s[0] >= 0 or up.size == 0:
            raise BracketScanFailure(f"no sign change of I_{{nu,H}} on (0, {Z0_SEARCH_CAP:g}]")
        x0 = np.array([math.sqrt(-2.0 * (p.nu + 1.0) * (p.nu + p.h))])
        fdf0 = lambda x: robin_and_slope(p, x, modified=True)
        z0, a0, b0 = _refine(f0, fdf0, x0, xs[up], xs[up + 1], s[up], tol)
        zeros[0] = z0[0]
        brackets[0] = Bracket(float(a0[0]), float(b0[0]), -1, 1)
    elif p.regime is Regime.ZERO:
        zeros[0] = 0.0

    return ZeroTable(p, n_max, tol, zeros, brackets, j_zeros=j)


def x0_bound(nu: float) -> float:
    """Closed-form upper bound for z_0^{nu,1/2} on nu in (-1, -1/2).

    x_0 = (2/3) * sqrt(-(6 nu^3 + 21 nu^2 + 21 nu + 6) / (2 nu + 3)); satisfies
    z_0^{nu,1/2} < x_0 < 1/2 on the whole interval.
    """
    if not (-1.0 < nu < -0.5):
        raise DomainError(f"x0_bound requires nu in (-1, -1/2), got {nu}")
    poly = 6.0 * nu**3 + 21.0 * nu**2 + 21.0 * nu + 6.0
    return (2.0 / 3.0) * math.sqrt(-poly / (2.0 * nu + 3.0))
