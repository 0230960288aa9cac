"""Zeros of the Robin combinations J_{nu,H} and I_{nu,H}.

For n >= 1 the zeros z_n of J_{nu,H} are bracketed by interlacing: between
consecutive zeros of J_nu there is exactly one zero of J_{nu,H}, and the sign
of J_{nu,H} at the zeros of J_nu alternates. The J_nu zeros come from McMahon
brackets with a dense-scan fallback. When nu + H < 0 the single positive zero
z_0 of I_{nu,H} is bracketed on a doubling grid, for many nu at once; when
nu + H = 0, z_0 = 0. Every zero is refined by ``_refine``, the package's only
root refiner: bracketed Newton, a sign certificate, an array bisection of the
failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BracketScanFailure, ConsistencyError, DomainError
from .numerics import csv_text
from .specfun import Regime, SpectralParams, bessel_j, bessel_jh, robin_and_slope

RESIDUAL_SCALE = 1e-10
Z0_SEARCH_CAP = 512.0  # I_nu overflows beyond 700
NEWTON_STEPS = 60
BISECTION_STEPS = 200


def _scan_first_sign_change(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, what: str, n: int = 8192
) -> tuple[float, float, int]:
    """First sign-change cell of f on an n-point grid over [lo, hi], sign at its low end."""
    grid = np.linspace(lo, hi, n)
    signs = np.sign(f(grid))
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if flips.size == 0:
        step = (hi - lo) / (n - 1)
        raise BracketScanFailure(
            f"{what}: no sign change found on ({lo:.6g}, {hi:.6g}) at resolution {step:.3g}",
            scan_step=step,
        )
    i = int(flips[0])
    return float(grid[i]), float(grid[i + 1]), int(signs[i])


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
        f, df = fdf(xa, live)
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


def _bisect(f, lo, hi, s_lo, tol):
    """Bisection on arrays of cells [lo, hi] with f signs s_lo, -s_lo at
    their ends, at midpoints 0.5 (lo + hi), each to width w = max(tol,
    4 ulp(lo)). A midpoint x where f is exactly 0 is kept, with the bracket
    x -/+ max(w/4, ulp(x)) clipped to its cell, which must have the signs
    s_lo, -s_lo. Returns the zeros (the last midpoints) and their brackets;
    raises ConsistencyError where a bracket cannot be made."""
    lo, hi = lo.copy(), hi.copy()
    width = np.maximum(tol, 4.0 * np.spacing(lo))
    x, exact, live = 0.5 * (lo + hi), np.zeros(lo.size, bool), np.arange(lo.size)
    for _ in range(BISECTION_STEPS):
        x[live] = 0.5 * (lo[live] + hi[live])
        live = live[hi[live] - lo[live] > width[live]]
        if live.size == 0:
            break
        s, xa = np.sign(f(x[live], live)), x[live]
        lo[live] = np.where(s == s_lo[live], xa, lo[live])
        hi[live] = np.where((s != s_lo[live]) & (s != 0), xa, hi[live])
        exact[live] = s == 0
        live = live[s != 0]
    if live.size:
        raise ConsistencyError(f"zero bisection: {live.size} bracket(s) wider than max(tol, "
                               f"4 ulp) after {BISECTION_STEPS} steps")
    z = np.flatnonzero(exact)
    if z.size:
        eps = np.maximum(0.25 * width[z], np.spacing(np.abs(x[z])))
        a, b = np.maximum(lo[z], x[z] - eps), np.minimum(hi[z], x[z] + eps)
        sab = np.sign(f(np.concatenate([a, b]), np.tile(z, 2)))
        signed = (sab[: z.size] == s_lo[z]) & (sab[z.size :] == -s_lo[z])
        if not np.all(signed):
            raise ConsistencyError(f"zero bisection: exact zero x = {float(x[z][~signed][0])!r} "
                                   "has no bracket x -/+ eps with the cell's signs")
        lo[z], hi[z] = a, b
    return x, lo, hi


def _refine(f, fdf, x0, lo, hi, s_lo, tol):
    """Certified zeros of f, one in each cell [lo, hi] with f signs s_lo,
    -s_lo at its ends, from the starting points x0 (the midpoint where x0
    is outside). Newton (``_newton``) gives x; the certificate evaluates f at
    x -/+ d, d = max(0.45 tol, 2 ulp(x)) in whole ulps, and accepts
    [x - d, x + d] when it has the signs s_lo, -s_lo, lies in the cell and
    has width <= max(tol, 4 ulp). The entries that fail it are bisected
    together (``_bisect``) from their Newton brackets [l, h] to width
    max(tol, 4 ulp(l)) <= max(tol, 4 ulp(b)). Returns the zeros and the
    certified ends. f(x, i) and fdf(x, i) = (f, f') take the points x of the
    entries at positions i of the input arrays."""
    x0 = np.where((x0 > lo) & (x0 < hi), x0, 0.5 * (lo + hi))
    x, n_lo, n_hi = _newton(fdf, x0, lo, hi, s_lo, tol)
    u = np.spacing(np.abs(x))
    d = np.maximum(np.floor(0.45 * tol / u), 2.0) * u
    a, b = x - d, x + d
    sab = np.sign(f(np.concatenate([a, b]), np.tile(np.arange(x.size), 2)))
    ok = (sab[: x.size] == s_lo) & (sab[x.size :] == -s_lo) & (a >= lo) & (b <= hi)
    bad = np.flatnonzero(~ok | (b - a > np.maximum(tol, 4.0 * np.spacing(b))))
    f_bad = lambda xs, i: f(xs, bad[i])
    x[bad], a[bad], b[bad] = _bisect(f_bad, n_lo[bad], n_hi[bad], s_lo[bad], tol)
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

    def fdf(x, _):
        a = bessel_j(nu, x)
        return a, (nu / x) * a - bessel_j(nu + 1.0, x)

    beta = (np.arange(1, count + 1) + 0.5 * nu - 0.25) * math.pi
    g = np.where(beta <= 1.0, beta, beta - (4.0 * nu * nu - 1.0) / (8.0 * beta))
    lo, hi = np.maximum(g - 0.6, 1e-9), g + 0.6
    s_lo, s_hi = np.sign(f(lo)), np.sign(f(hi))
    for k in np.flatnonzero(s_lo * s_hi >= 0):
        prev = hi[k - 1] if k else 0.0
        start = prev + max(1e-9, 1e-6 * prev) if prev > 0 else 1e-8
        what = f"J_nu zeros at nu = {nu:g}: zero k = {k + 1} not bracketed"
        lo[k], hi[k], s_lo[k] = _scan_first_sign_change(f, start, g[k] + 2.5, what)
    if np.any(lo[1:] <= hi[:-1]):
        raise BracketScanFailure("J_nu zero brackets overlap")
    return _refine(lambda x, _: f(x), fdf, g, lo, hi, s_lo, tol)[0]


@dataclass
class ZeroTable:
    """Zeros z_n of J_{nu,H} (and of I_{nu,H} for n=0), with certificates.

    ``zeros[n]`` holds z_n for n in [n_min, n_max] (NaN at n=0 in the PLUS
    regime). Slot n of ``lo``, ``hi``, ``sign`` holds the bracket [lo, hi] of
    z_n and the computed sign at lo (-sign at hi), or 0, 0, 0 where there is
    no bracket (n=0 unless MINUS; z_0 = 0 in the ZERO regime). A bracket is
    x -/+ d around the refined x, d = max(0.45 tol, 2 ulp), in the cell of x
    and signed as at its ends, or bisected where that test fails; J_{nu,H}
    cells lie between zeros of J_nu (``j_zeros``; 0 below the first).
    Construction raises ``ConsistencyError`` unless |J_{nu,H}(z_n)| / (1 +
    z_n) <= RESIDUAL_SCALE, every bracket has sign +-1, lo < z < hi and
    hi - lo <= max(tol, 4 ulp(hi)), and bracket n >= 1 lies in cell n of
    [0, j_zeros] (n + 1 unless PLUS), below bracket n + 1: z_1 < z_2 < ...
    (z_0 may exceed z_1, e.g. 1.92 > 1.81 at nu = -0.75, H = -1.5, while
    -z_0^2 < z_1^2). ``pi_offset_sup`` = sup_n |z_n - pi*n|; ``freq_offset``,
    the least c >= 0 with z_n >= pi*(n - c) for n >= 1, serves tail bounds.
    """

    params: SpectralParams
    n_max: int
    tol: float
    zeros: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sign: np.ndarray
    j_zeros: np.ndarray
    pi_offset_sup: float = field(init=False)
    freq_offset: float = field(init=False)
    max_residual: float = field(init=False)

    def __post_init__(self):
        z, lo, hi, n = self.zeros, self.lo, self.hi, np.arange(self.n_max + 1)
        self.pi_offset_sup = float(np.max(np.abs(z[1:] - math.pi * n[1:])))
        self.freq_offset = float(max(0.0, np.max(n[1:] - z[1:] / math.pi)))
        res = np.append(0.0, np.abs(bessel_jh(self.params, z[1:])) / (1.0 + z[1:]))
        self.max_residual = float(np.max(res))
        j, has = n >= 1, (n >= 1) | (self.params.regime is Regime.MINUS)
        cells = np.concatenate([[0.0], self.j_zeros])
        cell = n + (self.params.regime is not Regime.PLUS)  # [cells[cell - 1], cells[cell]]
        own = (np.searchsorted(cells, lo, "right") == cell) & (np.searchsorted(cells, hi) == cell)
        for what, ok in (
            (f"residual {self.max_residual:.3e} > {RESIDUAL_SCALE:.1e}", res <= RESIDUAL_SCALE),
            ("sign +-1 where bracketed, else 0", np.abs(self.sign) == has),
            ("bracket below the next one", np.append(~j[:-1] | (hi[:-1] < lo[1:]), True)),
            ("bracket in its own interlacing cell", ~j | (own & (cell < cells.size))),
            ("lo < z < hi", ~has | ((lo < z) & (z < hi))),
            ("width <= max(tol, 4 ulp)", ~has | (hi - lo <= np.fmax(self.tol, 4 * np.spacing(hi)))),
        ):
            if not np.all(ok):
                raise ConsistencyError(f"zero certificate fails at n = {np.argmin(ok)}: {what}")

    @property
    def n_min(self) -> int:
        return self.params.n_min

    def to_csv(self, out) -> None:
        """Write the table as CSV (nu,H,n,zero,bracket_lo,bracket_hi,tol, one
        row per stored zero, "\n" line ends) to a path or a text stream."""
        n = np.arange(self.n_min, self.n_max + 1)
        const = lambda v: np.full(n.size, v, dtype=float)
        text = csv_text({
            "nu": const(self.params.nu), "H": const(self.params.h), "n": n, "zero": self.zeros[n],
            "bracket_lo": self.lo[n], "bracket_hi": self.hi[n], "tol": const(self.tol),
        })
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w", newline="") as fh:
                fh.write(text)


def build_zero_table(p: SpectralParams, n_max: int, tol: float = 1e-13) -> ZeroTable:
    """Compute z_n for n = n_min..n_max with the certificate of ``ZeroTable``.

    The cells are the intervals between 0+ and the zeros of J_nu where
    J_{nu,H} changes sign (the table's certificate checks that they are
    consecutive and that (0+, j_1) is one exactly in the PLUS regime).
    ``_refine`` starts at the cell midpoint m shifted by (H - 1/2)/m, the
    large-x offset of the zero. z_0 comes from ``i_zeros``.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not (math.isfinite(tol) and tol >= 1e-13):
        raise DomainError(f"tol must be finite and >= 1e-13, got {tol}")

    j = bessel_j_zeros(p.nu, n_max + (p.regime is not Regime.PLUS), tol)
    f = lambda x: bessel_jh(p, x)

    eps0 = min(1e-3 * j[0], 0.05)
    if p.regime is Regime.PLUS:
        # Near the ZERO regime the first zero collapses like
        # sqrt(2 (nu+1)(nu+H)); probe below it so the sign at 0+ is seen.
        eps0 = min(eps0, 0.3 * math.sqrt(2.0 * (p.nu + 1.0) * (p.nu + p.h)))
    nodes = np.concatenate([[eps0], j])
    signs = np.sign(f(nodes))
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if cells.size < n_max:
        raise BracketScanFailure(f"found {cells.size} interlacing cells, need {n_max}")
    cells = cells[:n_max]

    lo, hi, s_lo = nodes[cells], nodes[cells + 1], signs[cells]
    mid = 0.5 * (lo + hi)
    x0 = mid + (p.h - 0.5) / mid
    zeros, a, b, sign = np.zeros((4, n_max + 1))
    fdf = lambda x, _: robin_and_slope(p.nu, p.h, x)
    zeros[1:], a[1:], b[1:] = _refine(lambda x, _: f(x), fdf, x0, lo, hi, s_lo, tol)
    sign[1:] = s_lo

    if p.regime is Regime.MINUS:
        zeros[:1], a[:1], b[:1] = i_zeros(np.array([p.nu]), p.h, tol)
        sign[0] = -1
    elif p.regime is Regime.PLUS:
        zeros[0] = np.nan

    return ZeroTable(p, n_max, tol, zeros, a, b, sign, j)


def i_zeros(nus: np.ndarray, h: float, tol: float = 1e-13):
    """Arrays (z0, lo, hi): the zeros z_0 of I_{nu,H} (nu + H < 0) for the
    orders nus and their brackets (signs -1, +1), from one ``_refine`` in the
    first cell of 0+, 1, 2, 4, ..., Z0_SEARCH_CAP where I_{nu,H} goes from -
    to +, starting at the small-x value sqrt(-2(nu+1)(nu+H))."""
    fdf = lambda x, i: robin_and_slope(nus[i], h, x, modified=True)
    xs = np.concatenate([[1e-8], 2.0 ** np.arange(1 + int(math.log2(Z0_SEARCH_CAP)))])
    s = np.sign(fdf(xs, np.arange(nus.size)[:, None])[0])
    up = (s[:, :-1] < 0) & (s[:, 1:] > 0)
    missed = (s[:, 0] >= 0) | ~up.any(axis=1)
    if np.any(missed):
        raise BracketScanFailure(f"no sign change of I_{{nu,H}} on (0, {Z0_SEARCH_CAP:g}] "
                                 f"at nu = {float(nus[missed][0])!r}, H = {h!r}")
    k, x0 = np.argmax(up, axis=1), np.sqrt(-2.0 * (nus + 1.0) * (nus + h))
    return _refine(lambda x, i: fdf(x, i)[0], fdf, x0, xs[k], xs[k + 1], -np.ones(nus.size), tol)


def x0_bound(nu: float) -> float:
    """Closed-form upper bound for z_0^{nu,1/2} on nu in (-1, -1/2).

    x_0 = (2/3) * sqrt(-(6 nu^3 + 21 nu^2 + 21 nu + 6) / (2 nu + 3)); satisfies
    z_0^{nu,1/2} < x_0 < 1/2 on the whole interval.
    """
    if not (-1.0 < nu < -0.5):
        raise DomainError(f"x0_bound requires nu in (-1, -1/2), got {nu}")
    poly = 6.0 * nu**3 + 21.0 * nu**2 + 21.0 * nu + 6.0
    return (2.0 / 3.0) * math.sqrt(-poly / (2.0 * nu + 3.0))
