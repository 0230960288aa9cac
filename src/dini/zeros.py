"""Zeros of the Robin combinations J_{nu,H} and I_{nu,H}.

For n >= 1 the zeros z_n of J_{nu,H} are bracketed by interlacing: between
consecutive zeros of J_nu there is exactly one zero of J_{nu,H}. The zeros
of J_nu are not refined, only bracketed (``_j_brackets``): McMahon's
brackets where a stated argument shows that each holds its own zero, and a
scan in steps of pi from max(nu, 0) where they do not (the first zeros at
large nu). One ``bessel_j_pair`` call at the bracket ends gives the signs of
J_nu and of J_{nu,H}; z_n is refined in the gap between two J_nu brackets,
and a J_nu zero only where z_n lies in its bracket. A table grows while its
brackets lie below X_MAX_J, the range of ``bessel_j`` (about 31,800 modes),
and refuses a mode above with DomainError. When nu + H < 0 the single
positive zero z_0 of I_{nu,H} is bracketed on a doubling grid, for many nu
at once; when nu + H = 0, z_0 = 0. Every zero is refined by ``_refine``, the
package's only root refiner: bracketed Newton, a sign certificate, an array
bisection of the failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketScanFailure, ConsistencyError, DomainError
from .numerics import csv_text
from .specfun import (
    X_MAX_J,
    Regime,
    SpectralParams,
    bessel_i,
    bessel_j,
    bessel_j_pair,
    bessel_jh,
    robin_and_slope,
)

RESIDUAL_SCALE = 1e-10
Z0_SEARCH_CAP = 512.0  # I_nu overflows beyond 700
NEWTON_STEPS = 60
BISECTION_STEPS = 200
# Modes per block where psi is formed for many points at once (the Bessel
# rows of basis.RowStore, the pair products of kernels.PairEngine.potential_series),
# which bounds those temporaries at PSI_BLOCK_MODES x points; also the modes
# of a zero table's first block, from which its freq_offset is stated.
PSI_BLOCK_MODES = 128


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


def _mcmahon(nu: float, k: np.ndarray) -> np.ndarray:
    """McMahon's guesses g_k = beta - (4 nu^2 - 1)/(8 beta), beta = (k + nu/2
    - 1/4) pi, for the zeros j_k of J_nu (DLMF 10.21.19); beta where beta <= 1."""
    beta = (k + 0.5 * nu - 0.25) * math.pi
    return np.where(beta <= 1.0, beta, beta - (4.0 * nu * nu - 1.0) / (8.0 * beta))


def _refine_j(nu: float, x0, lo, hi, s_lo, tol):
    """``_refine`` on J_nu, with J_nu' = (nu/x) J_nu - J_{nu+1}."""

    def fdf(x, _):
        a, b = bessel_j_pair(nu, x)
        return a, (nu / x) * a - b

    return _refine(lambda x, _: bessel_j(nu, x), fdf, x0, lo, hi, s_lo, tol)


def _scan(nu: float, x0: float, end: float):
    """(lo, hi, sign of J_nu at lo) of the cells of the grid x0 + i pi, cut
    at ``end``, where J_nu changes sign. For |nu| >= 1/2 consecutive zeros
    lie at least pi apart (``_j_brackets``), so a cell holds one zero if its
    ends differ in sign and none otherwise (a zero at a grid point raises)."""
    x = np.append(x0 + math.pi * np.arange(max(1, math.ceil((end - x0) / math.pi))), end)
    s = np.sign(bessel_j(nu, x))
    if np.any(s == 0):
        raise BracketScanFailure(f"J_nu zeros at nu = {nu:g}: J_nu(x) = 0 at the scan point "
                                 f"x = {float(x[s == 0][0])!r}", scan_step=math.pi)
    cells = np.flatnonzero(s[:-1] != s[1:])
    return x[cells], x[cells + 1], s[cells]


def _j_brackets(nu: float, start: int, count: int, tol: float, after: float = 0.0):
    """(lo, hi, sign, v): signed brackets of the zeros j_k of J_nu, k = start
    + 1..start + count, each holding j_k and no other zero, above ``after``
    (the top of j_start's bracket; 0 if start = 0). J_nu > 0 on (0, j_1) and
    changes sign at each zero, so ``sign`` = (-1)^(k-1) at lo and the
    opposite at hi. v = (J_nu, J_{nu+1}) at the points lo, hi and (if after >
    0) after, from one ``bessel_j_pair`` call (two if a bracket needs a scan).

    The McMahon brackets [g - 0.6, g + 0.6] (g - 0.6 >= pi/4 - 0.6 > 0) are
    kept where they have those signs and can hold no zero but j_k. With u =
    sqrt(x) J_nu and the Pruefer angle theta(j_m) = m pi of
    ``_offset_bound``, phi = theta - x rises from phi(0+) = 0 to (1/4 -
    nu/2) pi for |nu| < 1/2, so j_m lies in [(m + nu/2 - 1/4) pi, m pi], and
    a bracket above (k - 1) pi and below (k + 3/4 + nu/2) pi can hold only
    j_k. For |nu| >= 1/2, phi does not rise, so consecutive zeros are at
    least pi apart: a bracket (1.2 wide) holds one zero, and the interval
    from the previous bracket's top to lo holds none when it is less than
    pi wide and has the same sign at both ends; for k = 1 it starts
    at max(nu, 1e-9), below j_1 (j_1 > nu for nu >= 0, and j_1^2 > 4 (nu +
    1) >= 4.4e-16 by Rayleigh's sum of j_k^-2 = 1/(4 (nu + 1)), Watson
    §15.51). Where a bracket fails (the first zeros at large nu, where
    McMahon's series has not converged), for |nu| >= 1/2 the zeros from the
    top of the last kept bracket below it up to the next run of kept
    brackets (or, after the last bracket, past j_{start+count}: phi >= (1/4
    - nu/2) pi gives j_k <= (k + nu/2 - 1/4) pi) are taken from ``_scan``
    and refined (``_refine_j``); the kept brackets above take their index
    from that count. A failure at |nu| < 1/2 raises BracketScanFailure."""
    k = np.arange(start + 1, start + count + 1)
    g = _mcmahon(nu, k)
    lo, hi = g - 0.6, g + 0.6
    tail = [after] if after > 0 else []
    v = np.stack(bessel_j_pair(nu, np.concatenate([lo, hi, tail])))
    sign = np.where(k % 2, 1.0, -1.0)
    floor = max(after, nu, 1e-9)
    s, prev = np.sign(v[0]), np.append(floor, hi[:-1])
    ok = (s[:count] == sign) & (s[count : 2 * count] == -sign) & (lo > np.maximum(prev, floor))
    if abs(nu) < 0.5:
        ok &= (lo > (k - 1) * math.pi) & (hi < (k + 0.75 + 0.5 * nu) * math.pi)
    else:
        ok &= lo - prev < math.pi
    bad = np.flatnonzero(~ok)
    if bad.size == 0:
        return lo, hi, sign, v
    if abs(nu) < 0.5:
        raise BracketScanFailure(f"J_nu zeros at nu = {nu:g}: zero k = {start + bad[0] + 1} "
                                 "not bracketed")
    f0, f1 = int(bad[0]), int(bad[-1]) + 1  # the McMahon brackets f0..f1 - 1 are replaced
    # Up to the next kept bracket, or past j_{start+count} <= (start + count + nu/2 - 1/4) pi.
    end = lo[f1] if f1 < count else (start + count + 0.5 * nu + 0.75) * math.pi
    a, b, sa = _scan(nu, float(prev[f0]), end)
    m = a.size
    if np.any(sa != np.where((start + f0 + np.arange(m)) % 2, -1.0, 1.0)) or (
            f1 < count and (f1 - f0 - m) % 2) or (f1 == count and m < f1 - f0):
        raise ConsistencyError(f"J_nu zeros at nu = {nu:g}: the signs of the scan above "
                               f"x = {float(prev[f0])!r} do not alternate")
    _, a, b = _refine_j(nu, 0.5 * (a + b), a, b, sa, tol)
    lo, hi = (np.concatenate([x[:f0], y, x[f1:]])[:count] for x, y in ((lo, a), (hi, b)))
    if lo.size < count:  # the scan found fewer zeros than it replaced brackets
        more = _j_brackets(nu, start + lo.size, count - lo.size, tol, float(hi[-1]))
        lo, hi = np.concatenate([lo, more[0]]), np.concatenate([hi, more[1]])
    return lo, hi, sign, np.stack(bessel_j_pair(nu, np.concatenate([lo, hi, tail])))


def bessel_j_zeros(nu: float, count: int, tol: float = 1e-13) -> np.ndarray:
    """The first ``count`` positive zeros of J_nu, each refined by
    ``_refine_j`` in its bracket from ``_j_brackets``, from McMahon's guess."""
    if count < 1:
        raise DomainError("count must be >= 1")
    lo, hi, sign, _ = _j_brackets(nu, 0, count, tol)
    return _refine_j(nu, _mcmahon(nu, np.arange(1, count + 1)), lo, hi, sign, tol)[0]


def _mode_cap(p: SpectralParams) -> int:
    """The highest mode n whose cell's upper J_nu bracket (McMahon's, for
    the zero j_{n+1} unless PLUS) lies below X_MAX_J, the top of ``bessel_j``:
    g_k + 0.6 <= X_MAX_J, solved for beta (g rises with beta)."""
    y, c = X_MAX_J - 0.6, 4.0 * p.nu * p.nu - 1.0
    k = math.floor(0.5 * (y + math.sqrt(y * y + 0.5 * c)) / math.pi - 0.5 * p.nu + 0.25) + 1
    while k > 0 and _mcmahon(p.nu, k) + 0.6 > X_MAX_J:
        k -= 1
    return max(k - int(p.regime is not Regime.PLUS), 0)


def _robin_zeros(p: SpectralParams, tol: float, size: int, top: int, j_lo, j_hi, j_sign):
    """(zeros, lo, hi, sign at lo) of J_{nu,H} for the modes size + 1..top,
    and the J_nu brackets (j_lo, j_hi, j_sign) extended to the cell of top.

    z_n lies in cell m = n (n + 1 unless PLUS) between the J_nu zeros j_{m-1}
    and j_m (j_0 = 0), the only zero there (interlacing). Its gap [top of
    bracket m - 1, bottom of bracket m] holds it when J_{nu,H} changes sign
    there: the signs come from the J_nu, J_{nu+1} values of
    ``_j_brackets``, and at 0+ J_{nu,H} has the sign of nu + H. Where a gap
    has no sign change, z_n lies in a neighbouring bracket: the J_nu zeros
    of both are refined (``_refine_j``), which narrows the brackets to
    x -/+ d, and the gap is tested again. z_n is refined in its gap from
    the midpoint mid shifted by (H - 1/2)/mid, the zero's offset."""
    c0 = int(p.regime is not Regime.PLUS)
    cap = _mode_cap(p)
    if top > cap:
        raise DomainError(f"zero table at nu = {p.nu:g}, H = {p.h:g}: mode {top} needs J_nu "
                          f"above x = {X_MAX_J:g}, the range of bessel_j; the largest usable "
                          f"--n-max is {cap}")
    have, count = j_lo.size, top + c0 - j_lo.size
    after = float(j_hi[-1]) if have else 0.0
    lo, hi, sign, v = _j_brackets(p.nu, have, count, tol, after)
    j_lo, j_hi, j_sign = (np.concatenate(t) for t in ((j_lo, lo), (j_hi, hi), (j_sign, sign)))
    x = np.concatenate([lo, hi, [after] if have else []])
    r = (p.h + p.nu) * v[0] - x * v[1]  # J_{nu,H}, as bessel_jh forms it
    # J_{nu,H} at the bottom and the top of J bracket i at slot i; slot 0 is 0+.
    f_lo = np.concatenate([np.full(have + 1, np.nan), r[:count]])
    f_hi = np.concatenate([[np.sign(p.nu + p.h)], np.full(have, np.nan), r[count : 2 * count]])
    if have:
        f_hi[have] = r[-1]
    m = np.arange(size + c0 + 1, top + c0 + 1)
    flat = np.sign(f_hi[m - 1]) * np.sign(f_lo[m]) >= 0
    if np.any(flat):
        ks = np.unique(np.concatenate([m[flat] - 1, m[flat]]))
        ks = ks[ks >= 1]
        i = ks - 1
        _, a, b = _refine_j(p.nu, 0.5 * (j_lo[i] + j_hi[i]), j_lo[i], j_hi[i], j_sign[i], tol)
        x = np.concatenate([a, b])
        va = np.stack(bessel_j_pair(p.nu, x))
        r = (p.h + p.nu) * va[0] - x * va[1]
        j_lo[i], j_hi[i], f_lo[ks], f_hi[ks] = a, b, r[: ks.size], r[ks.size :]
        flat = np.sign(f_hi[m - 1]) * np.sign(f_lo[m]) >= 0
        if np.any(flat):
            raise BracketScanFailure(f"J_{{nu,H}} at nu = {p.nu:g}, H = {p.h:g} does not change "
                                     f"sign in cell {int(m[flat][0])} outside its J_nu zeros")
    g_lo, g_hi, s_lo = np.concatenate([[0.0], j_hi])[m - 1], j_lo[m - 1], np.sign(f_hi[m - 1])
    mid = 0.5 * (g_lo + g_hi)
    fdf = lambda x, _: robin_and_slope(p.nu, p.h, x)
    z, a, b = _refine(lambda x, _: bessel_jh(p, x), fdf, mid + (p.h - 0.5) / mid, g_lo, g_hi,
                      s_lo, tol)
    return z, a, b, s_lo, j_lo, j_hi, j_sign


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
    its ends, or bisected where that test fails. The J_{nu,H} cells lie
    between signed brackets of the zeros of J_nu (``_j_brackets``): entry
    m - 1 of ``j_lo``, ``j_hi``, ``j_sign`` is [lo, hi] of j_m and the sign
    of J_nu at lo (-j_sign at hi), McMahon's [g - 0.6, g + 0.6] or a refined
    x -/+ d. Construction and growth raise ``ConsistencyError``, keeping
    nothing new, unless each new slot has |J_{nu,H}(z_n)| / (1 + z_n) <=
    RESIDUAL_SCALE, sign +-1, lo < z < hi, hi - lo <= max(tol, 4 ulp(hi)),
    and bracket n >= 1 lies in its cell m = n (n + 1 unless PLUS), j_hi[m -
    2] <= lo and hi <= j_lo[m - 1] (above 0 for m = 1), below bracket n + 1
    (z_0 may exceed z_1: 1.92 > 1.81 at nu = -0.75, H = -1.5); and unless
    the J brackets ascend without overlap, each with j_sign = (-1)^(m-1)
    (J_nu > 0 below j_1). ``c[n]`` = sqrt(2) z_n / (|J_nu(z_n)| sqrt(z_n^2 -
    nu^2 + H^2)) and ``eigen[n]`` = (-1)^{n==0} z_n^2 rise strictly from
    n_min (c[0] = sqrt(2 (nu + 1)) at ZERO; slot 0 is 0 at PLUS); the
    arrays are read-only. ``pi_offset_sup`` = max |z_n - pi*n| over the
    stored n; ``freq_offset`` (``_offset_bound``, from the first block) is a
    c >= 0 with z_n >= pi*(n - c) for every n >= 1.
    """

    params: SpectralParams
    n_max: int
    tol: float
    zeros: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sign: np.ndarray
    j_lo: np.ndarray
    j_hi: np.ndarray
    j_sign: np.ndarray
    c: np.ndarray = field(init=False)
    eigen: np.ndarray = field(init=False)
    freq_offset: float = field(init=False)
    max_residual: float = field(init=False)
    pi_offset_sup: float = field(init=False)

    def __post_init__(self):
        self.c = self.eigen = np.zeros(0)
        self.max_residual = self.pi_offset_sup = 0.0
        self._keep(0, self.zeros, self.lo, self.hi, self.sign, self.j_lo, self.j_hi, self.j_sign)
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
        The J_nu brackets and the cells continue from the last ones stored."""
        top, size = min(n, self.n_max), self.size
        if top > size:
            new = _robin_zeros(self.params, self.tol, size, top, self.j_lo, self.j_hi, self.j_sign)
            old = (self.zeros, self.lo, self.hi, self.sign)
            self._keep(size + 1, *map(np.concatenate, zip(old, new[:4])), *new[4:])
        return self

    def _keep(self, a: int, zeros, lo, hi, sign, j_lo, j_hi, j_sign) -> None:
        """Check the certificate of slots a.. of the arrays and of the J_nu
        brackets, form their c and eigen, and keep the arrays, read-only."""
        p, n, k = self.params, np.arange(a, zeros.size), max(a, 1)
        zn = zeros[k:]
        j_nu, j_next = bessel_j_pair(p.nu, zn)  # for the residual (bessel_jh) and c
        robin = (p.h + p.nu) * j_nu - zn * j_next
        res = np.append(np.zeros(k - a), np.abs(robin) / (1.0 + zn))
        max_residual = max(self.max_residual, float(np.max(res)))
        j, has = n >= 1, (n >= 1) | (p.regime is Regime.MINUS)
        z, l, h, below = zeros[a:], lo[a:], hi[a:], np.arange(max(a - 1, 1), zeros.size - 1)
        m = np.arange(1, j_lo.size + 1)
        cell = n + (p.regime is not Regime.PLUS)  # between J_nu brackets cell - 1 and cell
        i = np.clip(cell, 1, m.size) - 1
        own = (cell <= m.size) & (np.concatenate([[0.0], j_hi])[i] <= l) & (h <= j_lo[i])
        for what, (name, at), ok in (
            (f"residual {max_residual:.3e} > {RESIDUAL_SCALE:.1e}", ("n", n),
             res <= RESIDUAL_SCALE),
            ("sign +-1 where bracketed, else 0", ("n", n), np.abs(sign[a:]) == has),
            ("bracket below the next one", ("n", below), hi[below] < lo[below + 1]),
            ("bracket in its own interlacing cell", ("n", n), ~j | own),
            ("lo < z < hi", ("n", n), ~has | ((l < z) & (z < h))),
            ("width <= max(tol, 4 ulp)", ("n", n),
             ~has | (h - l <= np.fmax(self.tol, 4 * np.spacing(h)))),
            ("J_nu bracket of j_m signed (-1)^(m-1) at its bottom", ("m", m),
             j_sign == np.where(m % 2, 1.0, -1.0)),
            ("J_nu brackets ascending, apart", ("m", m),
             (j_lo < j_hi) & (j_lo > np.append(0.0, j_hi[:-1]))),
        ):
            if not np.all(ok):
                raise ConsistencyError(f"zero certificate fails at {name} = "
                                       f"{at[np.argmin(ok)]}: {what}")
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
        arrays = (zeros, lo, hi, sign, j_lo, j_hi, j_sign, c, eigen)
        for v in arrays:
            v.flags.writeable = False
        (self.zeros, self.lo, self.hi, self.sign, self.j_lo, self.j_hi, self.j_sign, self.c,
         self.eigen) = arrays
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

    z_n (n >= 1) comes from ``_robin_zeros`` in its interlacing cell, and
    z_0 from ``i_zeros``.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not (math.isfinite(tol) and tol >= 1e-13):
        raise DomainError(f"tol must be finite and >= 1e-13, got {tol}")
    k, none = min(n_max, PSI_BLOCK_MODES), np.zeros(0)
    zeros, a, b, sign = np.zeros((4, k + 1))
    zeros[1:], a[1:], b[1:], sign[1:], *j = _robin_zeros(p, tol, 0, k, none, none, none)
    if p.regime is Regime.MINUS:
        zeros[:1], a[:1], b[:1] = i_zeros(np.array([p.nu]), p.h, tol)
        sign[0] = -1
    elif p.regime is Regime.PLUS:
        zeros[0] = np.nan
    return ZeroTable(p, n_max, tol, zeros, a, b, sign, *j)


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
