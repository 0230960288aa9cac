"""Zeros of the Robin combinations J_{nu,H} and I_{nu,H}.

For n >= 1 the zeros z_n of J_{nu,H} are bracketed by interlacing: between
consecutive zeros of J_nu there is exactly one zero of J_{nu,H}, and the sign
of J_{nu,H} at the zeros of J_nu alternates. The J_nu zeros themselves come
from McMahon initial guesses with a dense-scan fallback. When nu + H < 0 the
single positive zero z_0 of I_{nu,H} is bracketed by doubling the search
interval; when nu + H = 0, z_0 = 0 exactly.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import (
    BracketScanFailure,
    ConsistencyError,
    DomainError,
)
from .numerics import Bracket, _fmt, _sign, refine_root
from .specfun import (
    Regime,
    SpectralParams,
    bessel_ih,
    bessel_ih_prime,
    bessel_j,
    bessel_jh,
    bessel_jh_prime,
)

RESIDUAL_SCALE = 1e-10
Z0_SEARCH_CAP = 1024.0
CACHE_ENV_VAR = "DINI_CACHE_DIR"


def _mcmahon_guess(nu: float, k: int) -> float:
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    if beta <= 1.0:
        return beta
    return beta - (mu - 1.0) / (8.0 * beta)


def _scan_first_sign_change(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int = 8192
) -> tuple[float, float, int, int]:
    grid = np.linspace(lo, hi, n)
    vals = f(grid)
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size == 0:
        raise BracketScanFailure(
            f"no sign change found on ({lo:.6g}, {hi:.6g}) at resolution "
            f"{(hi - lo) / (n - 1):.3g}",
            scan_step=(hi - lo) / (n - 1),
        )
    i = int(flips[0])
    return float(grid[i]), float(grid[i + 1]), int(signs[i]), int(signs[i + 1])


def _vector_refine(
    f: Callable[[np.ndarray], np.ndarray],
    fp: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    s_lo: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisection on arrays of certified brackets, then clipped Newton polish."""
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(64):
        width = hi - lo
        limit = np.maximum(tol, 4.0 * np.spacing(np.abs(hi)))
        if np.all(width <= limit):
            break
        mid = 0.5 * (lo + hi)
        stuck = (mid <= lo) | (mid >= hi)
        sm = np.sign(f(mid))
        go_up = sm == s_lo
        lo = np.where(go_up & ~stuck, mid, lo)
        hi = np.where(~go_up & ~stuck, mid, hi)
    x = 0.5 * (lo + hi)
    for _ in range(3):
        d = fp(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x - f(x) / d
        ok = np.isfinite(cand) & (cand > lo) & (cand < hi)
        x = np.where(ok, cand, x)
    return x, lo, hi


def bessel_j_zeros(nu: float, count: int, tol: float = 1e-13) -> np.ndarray:
    """First ``count`` positive zeros of J_nu, certified by bracketing."""
    if count < 1:
        raise DomainError("count must be >= 1")
    f = lambda x: bessel_j(nu, x)
    fp = lambda x: (nu / x) * bessel_j(nu, x) - bessel_j(nu + 1.0, x)

    los, his, slos = [], [], []
    prev_hi = 0.0
    for k in range(1, count + 1):
        g = _mcmahon_guess(nu, k)
        lo = max(g - 0.6, prev_hi + 1e-9 * (1.0 + prev_hi))
        hi = max(g + 0.6, lo + 0.1)
        s_lo, s_hi = _sign(f(lo)), _sign(f(hi))
        if s_lo * s_hi >= 0:
            start = prev_hi + max(1e-9, 1e-6 * prev_hi) if prev_hi > 0 else 1e-8
            lo, hi, s_lo, s_hi = _scan_first_sign_change(f, start, g + 2.5)
        los.append(lo)
        his.append(hi)
        slos.append(s_lo)
        prev_hi = hi
    roots, _, _ = _vector_refine(
        f, fp, np.array(los), np.array(his), np.array(slos), tol
    )
    return roots


@dataclass
class ZeroTable:
    """Refined zeros of J_{nu,H} (and I_{nu,H} for n=0), with certificates.

    ``zeros[n]`` holds z_n for n in [n_min, n_max]; in the PLUS regime the
    n=0 slot is NaN. Bracket widths meet max(tol, 4 ulp). ``pi_offset_sup`` is the
    empirical constant sup_n |z_n - pi*n| and ``freq_offset`` the lower offset with
    z_n >= pi*(n - freq_offset) for all stored n >= 1, used by series tail bounds.
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

    @classmethod
    def from_csv(cls, path) -> "ZeroTable":
        rows = []
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r)
            if header[:4] != ["nu", "H", "n", "zero"]:
                raise DomainError(f"unrecognized zero-table header: {header}")
            for row in r:
                rows.append(row)
        if not rows:
            raise DomainError("empty zero table file")
        nu, h = float(rows[0][0]), float(rows[0][1])
        tol = float(rows[0][6])
        params = SpectralParams(nu, h)
        n_max = max(int(row[2]) for row in rows)
        zeros = np.full(n_max + 1, np.nan)
        brackets: list = [None] * (n_max + 1)
        # Re-certify bracket signs from the function itself on load.
        for row in rows:
            n = int(row[2])
            zeros[n] = float(row[3])
            lo, hi = float(row[4]), float(row[5])
            if hi > lo:
                fn = bessel_ih if n == 0 else bessel_jh
                brackets[n] = Bracket.from_function(lambda x: fn(params, x), lo, hi)
        return cls(params, n_max, tol, zeros, brackets)


def _z0_bracket(p: SpectralParams) -> Bracket:
    f = lambda x: bessel_ih(p, x)
    eps = 1e-8
    if _sign(f(eps)) >= 0:
        raise ConsistencyError("I_{nu,H} unexpectedly non-negative near 0")
    x_hi = 1.0
    while _sign(f(x_hi)) <= 0:
        x_hi *= 2.0
        if x_hi > Z0_SEARCH_CAP:
            raise BracketScanFailure(
                f"no sign change of I_{{nu,H}} up to X = {Z0_SEARCH_CAP:g}"
            )
    return Bracket(eps, x_hi, -1, 1)


def build_zero_table(p: SpectralParams, n_max: int, tol: float = 1e-13) -> ZeroTable:
    """Compute z_n for n = n_min..n_max, certified by interlacing brackets."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not (math.isfinite(tol) and tol >= 1e-13):
        raise DomainError(f"tol must be finite and >= 1e-13, got {tol}")

    need_j = n_max if p.regime is Regime.PLUS else n_max + 1
    j = bessel_j_zeros(p.nu, need_j, tol)
    f = lambda x: bessel_jh(p, x)
    fp = lambda x: bessel_jh_prime(p, x)

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

    lo = nodes[cells]
    hi = nodes[cells + 1]
    s_lo = signs[cells]
    roots, lo_f, hi_f = _vector_refine(f, fp, lo, hi, s_lo, tol)

    zeros = np.full(n_max + 1, np.nan)
    brackets: list = [None] * (n_max + 1)
    zeros[1 : n_max + 1] = roots
    for i in range(n_max):
        brackets[i + 1] = Bracket(
            float(lo_f[i]), float(hi_f[i]), int(s_lo[i]), -int(s_lo[i])
        )

    if p.regime is Regime.MINUS:
        br0 = _z0_bracket(p)
        z0, br0_final = refine_root(
            lambda x: bessel_ih(p, x), br0, tol, df=lambda x: bessel_ih_prime(p, x)
        )
        zeros[0] = z0
        brackets[0] = br0_final
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


def _cache_path(cache_dir: str, p: SpectralParams, n_max: int) -> Path:
    name = f"zeros_nu{_fmt(p.nu)}_h{_fmt(p.h)}_n{n_max}.csv"
    return Path(cache_dir) / name


def cached_zero_table(
    p: SpectralParams,
    n_max: int,
    tol: float = 1e-13,
    cache_dir: Optional[str] = None,
) -> ZeroTable:
    """Zero table with optional CSV caching via DINI_CACHE_DIR."""
    cache_dir = cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV_VAR)
    if cache_dir:
        path = _cache_path(cache_dir, p, n_max)
        if path.exists():
            table = ZeroTable.from_csv(path)
            if table.n_max >= n_max and table.tol <= tol:
                return table
    table = build_zero_table(p, n_max, tol)
    if cache_dir:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        table.to_csv(_cache_path(cache_dir, p, n_max))
    return table
