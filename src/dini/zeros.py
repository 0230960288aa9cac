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
from .specfun import Regime, SpectralParams, bessel_i, bessel_j, bessel_jh, robin_and_slope

RESIDUAL_SCALE = 1e-10
Z0_SEARCH_CAP = 512.0  # I_nu overflows beyond 700
NEWTON_STEPS = 60
BISECTION_STEPS = 200
# Modes per block where psi is formed for many points at once (the Bessel
# rows of basis.RowStore, the pair products of kernels.PairEngine.potential_series),
# which bounds those temporaries at PSI_BLOCK_MODES x points; also the modes
# of a zero table's first block, from which its freq_offset is stated.
PSI_BLOCK_MODES = 128


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


def bessel_j_zeros(nu: float, count: int, tol: float = 1e-13, start=0, after=0.0) -> np.ndarray:
    """The ``count`` positive zeros of J_nu after the first ``start`` ones
    (the last of which is ``after``), certified by ``_refine``.

    The McMahon brackets [g - 0.6, g + 0.6] are sign-tested as arrays; they
    are disjoint, since the guesses g are more than 2.7 apart, and lie above
    ``after``. A bracket without a sign change is replaced, in order, by a
    dense scan above the previous bracket or ``after`` (small k at large
    nu). Each zero is refined on its own."""
    if count < 1:
        raise DomainError("count must be >= 1")
    f = lambda x: bessel_j(nu, x)

    def fdf(x, _):
        a = bessel_j(nu, x)
        return a, (nu / x) * a - bessel_j(nu + 1.0, x)

    beta = (np.arange(start + 1, start + count + 1) + 0.5 * nu - 0.25) * math.pi
    g = np.where(beta <= 1.0, beta, beta - (4.0 * nu * nu - 1.0) / (8.0 * beta))
    lo, hi = np.maximum(g - 0.6, 1e-9), g + 0.6
    s_lo, s_hi = np.sign(f(lo)), np.sign(f(hi))
    for k in np.flatnonzero(s_lo * s_hi >= 0):
        prev = hi[k - 1] if k else after
        first = prev + max(1e-9, 1e-6 * prev) if prev > 0 else 1e-8
        what = f"J_nu zeros at nu = {nu:g}: zero k = {start + k + 1} not bracketed"
        lo[k], hi[k], s_lo[k] = _scan_first_sign_change(f, first, g[k] + 2.5, what)
    if np.any(lo[1:] <= hi[:-1]) or lo[0] <= after:
        raise BracketScanFailure("J_nu zero brackets overlap")
    return _refine(lambda x, _: f(x), fdf, g, lo, hi, s_lo, tol)[0]


def _robin_zeros(p: SpectralParams, nodes: np.ndarray, count: int, tol: float):
    """(zeros, lo, hi, sign at lo) of J_{nu,H} in the first ``count`` cells
    of the ascending ``nodes`` (0+, zeros of J_nu) where it changes sign,
    refined from the midpoint m shifted by (H - 1/2)/m, the zero's offset."""
    f = lambda x: bessel_jh(p, x)
    signs = np.sign(f(nodes))
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if cells.size < count:
        raise BracketScanFailure(f"found {cells.size} interlacing cells above {nodes[0]:.6g}, "
                                 f"need {count}")
    cells = cells[:count]
    lo, hi, s_lo = nodes[cells], nodes[cells + 1], signs[cells]
    mid = 0.5 * (lo + hi)
    fdf = lambda x, _: robin_and_slope(p.nu, p.h, x)
    return (*_refine(lambda x, _: f(x), fdf, mid + (p.h - 0.5) / mid, lo, hi, s_lo, tol), s_lo)


@dataclass
class ZeroTable:
    """Zeros z_n of J_{nu,H} (and of I_{nu,H} for n=0), with certificates,
    and the psi system's normalizing constants ``c`` and eigenvalues.

    It holds modes 0..``size`` <= ``n_max``: those it is built with (the
    first block), and upto(n) grows it to exactly min(n, n_max), each entry
    refined on its own, bit for bit as in one block. ``zeros[n]`` is z_n
    (NaN at n=0 in the PLUS regime). Slot n of ``lo``, ``hi``, ``sign`` is
    the bracket [lo, hi] of z_n and the sign at lo (-sign at hi), or 0, 0, 0
    without a bracket (n=0 unless MINUS). A bracket is x -/+ d around the
    refined x, d = max(0.45 tol, 2 ulp), in the cell of x and signed as at
    its ends, or bisected where that test fails; J_{nu,H} cells lie between
    zeros of J_nu (``j_zeros``; 0 below the first). Construction and growth
    raise ``ConsistencyError``, keeping nothing new, unless each new slot
    has |J_{nu,H}(z_n)| / (1 + z_n) <= RESIDUAL_SCALE, sign +-1, lo < z <
    hi, hi - lo <= max(tol, 4 ulp(hi)), and bracket n >= 1 lies in cell n
    of [0, j_zeros] (n + 1 unless PLUS), below bracket n + 1 (z_0 may exceed
    z_1: 1.92 > 1.81 at nu = -0.75, H = -1.5). ``c[n]`` = sqrt(2) z_n /
    (|J_nu(z_n)| sqrt(z_n^2 - nu^2 + H^2)) and ``eigen[n]`` = (-1)^{n==0}
    z_n^2 rise strictly from n_min (c[0] = sqrt(2 (nu + 1)) at ZERO; slot 0
    is 0 at PLUS); the arrays are read-only. ``pi_offset_sup`` = max |z_n -
    pi*n| over the stored n; ``freq_offset`` (``_offset_bound``, from the
    first block) is a c >= 0 with z_n >= pi*(n - c) for every n >= 1.
    """

    params: SpectralParams
    n_max: int
    tol: float
    zeros: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sign: np.ndarray
    j_zeros: np.ndarray
    c: np.ndarray = field(init=False)
    eigen: np.ndarray = field(init=False)
    freq_offset: float = field(init=False)
    max_residual: float = field(init=False)
    pi_offset_sup: float = field(init=False)

    def __post_init__(self):
        self.c = self.eigen = np.zeros(0)
        self.max_residual = self.pi_offset_sup = 0.0
        self._keep(0, self.zeros, self.lo, self.hi, self.sign, self.j_zeros)
        self.freq_offset = _offset_bound(self.params, self.zeros)

    @property
    def n_min(self) -> int:
        return self.params.n_min

    @property
    def size(self) -> int:
        """The highest mode stored."""
        return self.zeros.size - 1

    def upto(self, n: int) -> "ZeroTable":
        """The table grown to mode min(n, n_max), never shrunk; returns it.
        The J_nu zeros and the cells continue from the last ones stored."""
        top, size = min(n, self.n_max), self.size
        if top > size:
            p, c0 = self.params, int(self.params.regime is not Regime.PLUS)
            j = self.j_zeros
            if j.size < top + c0:
                more = bessel_j_zeros(p.nu, top + c0 - j.size, self.tol, j.size, float(j[-1]))
                j = np.concatenate([j, more])
            new = _robin_zeros(p, j[size + c0 - 1 :], top - size, self.tol)
            old = (self.zeros, self.lo, self.hi, self.sign)
            self._keep(size + 1, *map(np.concatenate, zip(old, new)), j)
        return self

    def _keep(self, a: int, zeros, lo, hi, sign, j_zeros) -> None:
        """Check the certificate of slots a.. of the arrays, form their c and
        eigen, and keep the arrays, read-only."""
        p, n, k = self.params, np.arange(a, zeros.size), max(a, 1)
        zn, j_nu = zeros[k:], bessel_j(p.nu, zeros[k:])  # for the residual (bessel_jh) and c
        robin = (p.h + p.nu) * j_nu - zn * bessel_j(p.nu + 1.0, zn)
        res = np.append(np.zeros(k - a), np.abs(robin) / (1.0 + zn))
        max_residual = max(self.max_residual, float(np.max(res)))
        j, has = n >= 1, (n >= 1) | (p.regime is Regime.MINUS)
        z, l, h, below = zeros[a:], lo[a:], hi[a:], np.arange(max(a - 1, 1), zeros.size - 1)
        cells = np.concatenate([[0.0], j_zeros])
        cell = n + (p.regime is not Regime.PLUS)  # [cells[cell - 1], cells[cell]]
        own = (np.searchsorted(cells, l, "right") == cell) & (np.searchsorted(cells, h) == cell)
        for what, at, ok in (
            (f"residual {max_residual:.3e} > {RESIDUAL_SCALE:.1e}", n, res <= RESIDUAL_SCALE),
            ("sign +-1 where bracketed, else 0", n, np.abs(sign[a:]) == has),
            ("bracket below the next one", below, hi[below] < lo[below + 1]),
            ("bracket in its own interlacing cell", n, ~j | (own & (cell < cells.size))),
            ("lo < z < hi", n, ~has | ((l < z) & (z < h))),
            ("width <= max(tol, 4 ulp)", n, ~has | (h - l <= np.fmax(self.tol, 4 * np.spacing(h)))),
        ):
            if not np.all(ok):
                raise ConsistencyError(f"zero certificate fails at n = {at[np.argmin(ok)]}: {what}")
        c, eigen = np.zeros((2, zeros.size - a))
        rad = zn * zn - p.nu * p.nu + p.h * p.h
        if np.any(rad <= 0.0):
            raise ConsistencyError("normalization radicand z_n^2 - nu^2 + H^2 is not positive")
        c[k - a :] = math.sqrt(2.0) / np.abs(j_nu) * zn / np.sqrt(rad)
        eigen[k - a :] = zn * zn
        if a == 0 and p.regime is Regime.MINUS:
            z0, rad0 = zeros[0], zeros[0] * zeros[0] + p.nu * p.nu - p.h * p.h
            if rad0 <= 0.0:
                raise ConsistencyError("normalization radicand z_0^2 + nu^2 - H^2 is not positive")
            c[0], eigen[0] = math.sqrt(2.0) / bessel_i(p.nu, z0) * z0 / math.sqrt(rad0), -z0 * z0
        elif a == 0 and p.regime is Regime.ZERO:
            c[0] = math.sqrt(2.0 * (p.nu + 1.0))
        c, eigen = np.concatenate([self.c, c]), np.concatenate([self.eigen, eigen])
        if np.any(np.diff(eigen[max(self.n_min, a - 1) :]) <= 0.0):
            raise ConsistencyError("eigenvalues are not strictly increasing")
        offset = np.abs(zeros[k:] - math.pi * np.arange(k, zeros.size))
        self.pi_offset_sup = max(self.pi_offset_sup, float(np.max(offset)))
        arrays = (zeros, lo, hi, sign, j_zeros, c, eigen)
        for v in arrays:
            v.flags.writeable = False
        self.zeros, self.lo, self.hi, self.sign, self.j_zeros, self.c, self.eigen = arrays
        self.max_residual = max_residual

    def to_csv(self, out) -> None:
        """Write the table as CSV (nu,H,n,zero,bracket_lo,bracket_hi,tol, one
        row per stored zero, "\n" line ends) to a path or a text stream."""
        n = np.arange(self.n_min, self.size + 1)
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


def _offset_bound(p: SpectralParams, z: np.ndarray) -> float:
    """A c_off >= 0 with n - z_n/pi <= c_off for every n >= 1, from the first
    block's zeros z_1..z_K (z[1:]). u = sqrt(x) J_nu(x) solves u'' + q u = 0,
    q = 1 - (nu^2 - 1/4)/x^2; with the Pruefer angle u = r sin(theta), u' =
    r cos(theta), theta(j_{nu,m}) = m pi, phi = theta - x has phi' = (q - 1)
    sin^2(theta) (Sturm comparison, Watson §15.8): phi rises for |nu| < 1/2,
    does not rise for |nu| >= 1/2, and tends to (1/4 - nu/2) pi by
    McMahon's j_{nu,m} - (m + nu/2 - 1/4) pi -> 0 (DLMF 10.21.19). At a
    Robin zero u'/u = (1/2 - H)/x, so z_n = (m_n - 1) pi + alpha(z_n) -
    phi(z_n), alpha(x) = pi/2 - arctan((1/2 - H)/x), m_n the interlacing
    cell (n if PLUS, else n + 1). For n > K, phi(z_n) <= Phi = (1/4 - nu/2)
    pi if |nu| < 1/2, else phi(z_K), and alpha(z_n) >= A = alpha(z_K) if H
    <= 1/2 (alpha rises), else pi/2: n - z_n/pi <= n - m_n + 1 - (A -
    Phi)/pi. c_off is the largest of 0, that and n - z_n/pi over n <= K."""
    k, c0, zk = z.size - 1, int(p.regime is not Regime.PLUS), float(z[-1])
    alpha = 0.5 * math.pi - math.atan((0.5 - p.h) / zk)
    big_a = alpha if p.h <= 0.5 else 0.5 * math.pi
    phi = (0.25 - 0.5 * p.nu) * math.pi if abs(p.nu) < 0.5 else (k + c0 - 1) * math.pi + alpha - zk
    tail = 1 - c0 - (big_a - phi) / math.pi
    return float(max(0.0, np.max(np.arange(1, k + 1) - z[1:] / math.pi), tail))


def build_zero_table(p: SpectralParams, n_max: int, tol: float = 1e-13) -> ZeroTable:
    """The zero table of p capped at n_max, holding its first block: z_n for
    n = n_min..min(n_max, PSI_BLOCK_MODES); ``ZeroTable.upto`` grows it.

    The cells are the intervals between 0+ and the zeros of J_nu where
    J_{nu,H} changes sign (the table's certificate checks that they are
    consecutive and that (0+, j_1) is one exactly in the PLUS regime).
    z_0 comes from ``i_zeros``.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not (math.isfinite(tol) and tol >= 1e-13):
        raise DomainError(f"tol must be finite and >= 1e-13, got {tol}")
    k = min(n_max, PSI_BLOCK_MODES)
    j = bessel_j_zeros(p.nu, k + (p.regime is not Regime.PLUS), tol)
    eps0 = min(1e-3 * j[0], 0.05)
    if p.regime is Regime.PLUS:
        # Near the ZERO regime the first zero collapses like
        # sqrt(2 (nu+1)(nu+H)); probe below it so the sign at 0+ is seen.
        eps0 = min(eps0, 0.3 * math.sqrt(2.0 * (p.nu + 1.0) * (p.nu + p.h)))
    zeros, a, b, sign = np.zeros((4, k + 1))
    zeros[1:], a[1:], b[1:], sign[1:] = _robin_zeros(p, np.concatenate([[eps0], j]), k, tol)
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
