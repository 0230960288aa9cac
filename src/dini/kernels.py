"""Spectral kernels with certified truncation.

Heat kernels (Bessel-based and Jacobi-based), Poisson kernels of the
square-root semigroup (with optional spectral shift), potential kernels as
negative powers (computed both as a spectral series and as a time integral
of the Poisson kernel), and semigroup application to functions.

Truncation strategy: M = certified_sup(basis, coordinates) bounds |psi_n|
at the evaluation points for every mode, the ones beyond n_max included, a
stated bound of each basis (Watson §3.31 and §13.74 and an energy argument
for the Bessel system, Erdelyi-Magnus-Nevai or Szego's endpoint maximum for
the Jacobi system; see basis.certified_sup). An engine fixes M at
construction and never changes it; a pair product above M^2 is a broken
invariant and raises ConsistencyError in PairEngine._pair_products, which
forms the products of every sum. The series cutoff N is chosen so that M^2
times a closed-form tail comparison (Gaussian tail for heat multipliers,
geometric for Poisson, incomplete-gamma for potentials) is below the
requested tolerance.

For times too small for the available mode budget, the Poisson kernel is
evaluated by exact subordination, H_t = int_0^inf m_t(u) e^{-d^2 u} G_u du
with m_t the stable-1/2 density: one weight vector m_t(u) w per time on the
rows of the engine's heat grid for (d, tol), the grid the potential time
integral reads. A mode whose shifted eigenvalue is 0 (ZERO at d = 0, MINUS
at d = z_0) is kept off the grid and summed in closed form. One engine
method, PairEngine._subordinated, owns the certificate: the grid's stated
rule bound, tol/4 for the heat tails of its rows, the kernel leak below
u_floor (a bound kept once per engine, infinite for pairs closer than
min_usable_dist, refused before any grid is built), the measure's mass
above u_max, the 4 tol acceptance test and the failure message.

A PairEngine keeps the basis on the unique coordinates of its pairs, not
the products psi_n(x) psi_n(y) of every pair and mode: each evaluation forms
the pair products of the modes it sums (up to its cutoff, or
PSI_BLOCK_MODES modes at a time for the full-length potential series). Its
rows of psi are the basis's row store on those coordinates (psi_rows, which
semigroup_apply and every engine on the basis over the same points share),
formed on demand up to exactly the largest cutoff asked for, so memory is
(rows grown) * n_coords, not n_max * n_pairs.

An engine is a pure function of its basis and its pairs (M is a stated
bound fixed at construction), so engines are shared: engine_for(basis, pairs)
keeps up to CACHE_ENTRIES engines on the basis, keyed by the bytes of the
(n, 2) pair array and dropped oldest first, and every kernel function and
ratio report that is given a basis takes its engine from there. A shared
engine's arrays are read-only. Each engine holds its row store, (rows
grown) x n_coords doubles, and keeps up to CACHE_ENTRIES heat grids (about
250 x n_pairs doubles each, at n_max = 3000), keyed by the exact (d, tol).
The engine does not refer back to its basis, so a basis and its engines are
freed by refcounting.

Every heat and Poisson value ends in the same mode sum,
sum_n e^{-t omega_n} psi_n(x) psi_n(y) for one or more times t, and one
function evaluates it (_exp_rows): TIME_BLOCK times per array operation,
each time with its own cutoff (its multipliers beyond it are zero, so each
row is the per-time truncated sum up to rounding). A single time is the
one-row case: every block sums from mode 0 to a multiple of SUM_ALIGN, so a
one-time row is, to the last bit on the OpenBLAS gemv kernels tested, the
sum over all n_max + 1 modes with zero multipliers outside the cutoff.

The time-integral route of the potentials splits [0, inf) at t_split, twice
the time from which the direct Poisson series fits n_max modes: above it
each mode's t-integral is closed form (one incomplete-gamma weight per
mode, one vector-matrix product), summed up to the least mode N whose
closed-form bound on the modes beyond it is at most tol/16; below it the t-
and u-integrals are exchanged (one regularized incomplete gamma P per node
of the engine's heat grid for (d, tol), with the grid's stated rule bound),
and the grid's sub-floor kernel leak covers the shortest times too. The
potential series needs no heat rows: from its near-time floor t_f on, each
mode's t-integral is one incomplete-gamma weight, evaluated up to its first
exact 0.0 (_falling_terms), and below t_f an envelope bound per pair
(_heat_skip_bound) is the only other part.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.special import erfc as _erfc
from scipy.special import gammainc as _gammainc
from scipy.special import gammaincc as _gammaincc

from .basis import (
    PSI_BLOCK_MODES,
    BasisSpec,
    JacobiBasisSpec,
    _cached,
    _node_values,
    build_basis,
    certified_sup,
    default_coefficient_rule,
)
from .errors import (
    ConsistencyError,
    DiagonalSlowConvergence,
    DomainError,
    ShiftTooSmallError,
    SpectrumNotPositiveError,
    TailBoundFailure,
)
from .numerics import _legendre
from .specfun import X_MAX_J, JacobiParams, SpectralParams

# Engineering constant for envelope-based skip bounds below the resolvable
# time scale; validated end-to-end against closed-form oracles in the tests.
ENVELOPE_SAFETY = 16.0
DIAGONAL_EXCLUSION = 1e-4
LOG45 = 45.0
# Times evaluated per array operation by _exp_rows; bounds the multiplier
# buffer at TIME_BLOCK x n_max.
TIME_BLOCK = 48
# Each block of _exp_rows sums from mode 0 to a multiple of SUM_ALIGN modes,
# so that BLAS groups a single time's terms as in a sum over all n_max + 1
# modes; pair products of the modes 0..N + SUM_ALIGN - 1 (at most n_max)
# cover every block whose cutoffs are at most N.
SUM_ALIGN = 4
# The potential powers sigma accepted (KernelRequest, the engine, the CLI's
# --sigma). The Gamma factors of the time integral overflow from sigma ~ 85.
# Off the diagonal the kernels are O(sigma) as sigma -> 0, so below SIGMA_MIN
# they approach the tolerances.
SIGMA_MIN, SIGMA_MAX = 1e-6, 50.0
# Entries kept by each bounded cache: engines per basis (engine_for), and
# heat grids per engine.
CACHE_ENTRIES = 4
# The u-rule of every heat grid (_build_heat_grid): Gauss-Legendre of order
# U_ORDER on U_PANELS_PER_DECADE panels per decade of u, equal in s = log u.
# Its error bound takes the integrand on the strip |Im s| <= U_STRIP < pi/2.
U_PANELS_PER_DECADE, U_ORDER, U_STRIP = 2, 16, 1.0


class KernelKind(enum.Enum):
    HEAT = "heat"
    JACOBI_HEAT = "jacobi-heat"
    POISSON = "poisson"
    POISSON_SHIFTED = "poisson-shifted"
    RIESZ_POT = "riesz-potential"
    BESSEL_POT = "bessel-potential"


@dataclass(frozen=True)
class KernelRequest:
    """Evaluation request for one kernel kind on (x, y) pairs in (0,1)^2. The
    grid, any (n, 2) sequence of pairs, is kept as a read-only (n, 2) float
    array; a ragged, empty or non-finite grid, or one not of width 2, is a
    DomainError."""

    kind: KernelKind
    params: Union[SpectralParams, JacobiParams]
    time_or_sigma: float
    grid: np.ndarray
    d_nu: float = 1.0
    tol: float = 1e-10
    n_max: Optional[int] = None
    cross_check: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 1e-12):
            raise DomainError(f"kernel tolerance must be finite and >= 1e-12, got {self.tol}")
        if not (math.isfinite(self.time_or_sigma) and self.time_or_sigma > 0.0):
            raise DomainError(
                f"time (or sigma) must be finite and positive, got {self.time_or_sigma}"
            )
        if not math.isfinite(self.d_nu):
            raise DomainError(f"shift d must be finite, got {self.d_nu}")
        if self.kind in (KernelKind.RIESZ_POT, KernelKind.BESSEL_POT):
            _check_sigma(self.time_or_sigma)
        grid = _pair_array(self.grid, "kernel request")
        object.__setattr__(self, "grid", grid)
        if self.kind is KernelKind.JACOBI_HEAT:
            if not isinstance(self.params, JacobiParams):
                raise DomainError("JACOBI_HEAT requires JacobiParams")
        elif not isinstance(self.params, SpectralParams):
            raise DomainError(f"{self.kind} requires SpectralParams")
        if self.kind is KernelKind.RIESZ_POT and self.params.nu <= -0.5:
            raise SpectrumNotPositiveError(
                "Riesz potential requires nu > -1/2 (strictly positive spectrum)"
            )
        if self.kind is KernelKind.POISSON and self.params.nu < -0.5:
            raise DomainError("unshifted Poisson kernel requires nu >= -1/2")
        if not np.all((grid > 0.0) & (grid < 1.0)):  # NaN fails both comparisons
            raise DomainError("grid points must lie in (0,1)^2")


@dataclass
class KernelValue:
    value: float
    n_terms: int
    tail_bound: float
    cross_check: Optional[float] = None


def _pair_array(pairs, who: str) -> np.ndarray:
    """pairs as a fresh read-only (n, 2) float array, n >= 1; otherwise a
    DomainError naming who needs them. The values are checked by the caller
    (NaN and inf lie outside (0,1))."""
    try:
        xy = np.array(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{who} needs (x, y) pairs of numbers: {exc}") from None
    if xy.size == 0:
        raise DomainError(f"{who} needs at least one (x, y) pair")
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise DomainError(f"{who} needs (x, y) pairs, an (n, 2) array, got shape {xy.shape}")
    _read_only(xy)
    return xy


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be finite and positive, got {tol}")


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"time must be finite and positive, got {t}")


def _check_sigma(sigma: float) -> None:
    if not (SIGMA_MIN <= sigma <= SIGMA_MAX):  # NaN fails the comparison
        raise DomainError(
            f"potential power sigma must lie in [{SIGMA_MIN:g}, {SIGMA_MAX:g}], got {sigma}")


def _gauss_cuts(n, ts, scale, c_off, tol, n_max, what) -> tuple[np.ndarray, np.ndarray]:
    """Cutoffs N and tail bounds for an array of times ts: from the start
    indices n, each N grows by max(1, N//16) until scale times the Gaussian
    tail bound for sum_{m>N} e^{-t pi^2 (m - c_off)^2} is at most tol. Raises
    TailBoundFailure (naming ``what``) for the first time whose N passes
    n_max."""
    n = np.array(n, dtype=np.int64)
    a = ts * math.pi**2
    half, root = 0.5 * np.sqrt(math.pi / a), np.sqrt(a)
    while True:
        bound = scale * np.where(n > c_off, half * _erfc(root * (n - c_off)), math.inf)
        step = ~(bound <= tol) & (n <= n_max)
        if not step.any():
            break
        n = np.where(step, n + np.maximum(1, n // 16), n)
    failed = np.flatnonzero(n > n_max)
    if failed.size:
        raise TailBoundFailure(
            f"{what} tail cannot reach tol={tol:.2e} at t={ts[failed[0]]:.3e} with "
            f"{n_max} modes"
        )
    return n, bound


def _gauss_start(ts, scale, c_off, tol, n_min, n_max) -> np.ndarray:
    """Closed-form start for _gauss_cuts, c_off + sqrt(log(max(scale, 1)/tol)/t)/pi
    (where scale e^{-t pi^2 (N - c_off)^2} reaches tol), clamped to [n_min, n_max]."""
    guess = c_off + np.sqrt(max(math.log(max(scale, 1.0) / tol), 1.0) / ts) / math.pi
    return np.maximum(n_min, np.minimum(guess, n_max).astype(np.int64))


def _poisson_need(t: float, tol: float, m2: float, c_off: float, rescale: float = 0.0) -> float:
    """Mode index N from which M^2 e^{rescale t} times the geometric Poisson
    tail sum_{n>N} e^{-t pi (n - c_off)} is below tol: with max(M^2, 1) for
    M^2, the tail bound at N - 1 is exactly tol. Formed in logs, so that
    M^2 e^{rescale t} / tol cannot overflow."""
    log_ratio = math.log(max(m2, 1.0)) + min(t * rescale, 700.0) - math.log(tol)
    return c_off + (log_ratio - math.log1p(-math.exp(-t * math.pi))) / (t * math.pi)


def _direct_time(m2: float, c_off: float, n_max: int, tol: float) -> float:
    """Time above which the direct Poisson series reaches tol with n_max
    modes: twice the root of _poisson_need(t) = n_max - 1, clamped to
    [1e-8, 10]. With u = t pi, the root solves
    h(u) = (n_max - 1 - c_off) u + log(1 - e^{-u}) - log(max(M^2, 1)/tol) = 0;
    h increases and is concave, so Newton's method from a point where h < 0
    rises monotonically to the root."""
    b = n_max - 1.0 - c_off
    a = math.log(max(m2, 1.0)) - math.log(tol)
    h = lambda u: b * u + math.log1p(-math.exp(-u)) - a
    if not (b > 0.0 and h(10.0 * math.pi) >= 0.0):
        return 20.0
    u = max(1e-8 * math.pi, a / b)  # h(a/b) = log(1 - e^{-a/b}) < 0
    if h(u) >= 0.0:
        return 2e-8
    for _ in range(60):  # quadratic convergence; stop at rounding level
        step = h(u) / (b + 1.0 / math.expm1(u))
        u -= step
        if abs(step) <= 1e-15 * u:
            break
    return 2.0 * u / math.pi


def _read_only(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


def _exp_tail(t: float, n_cut: float, c_off: float) -> float:
    """Upper bound for sum_{n>n_cut} exp(-t pi (n-c_off))."""
    r = math.exp(-t * math.pi)
    if r >= 1.0:
        return math.inf
    return math.exp(-t * math.pi * (n_cut + 1.0 - c_off)) / (1.0 - r)


def _falling_terms(term, x) -> np.ndarray:
    """term(x) for an ascending array x on which the terms fall to exactly
    0.0, as a full-length array: evaluated PSI_BLOCK_MODES entries at a time
    up to the first block that ends in 0.0, the later entries left 0.0. If
    the term at the last entry is not 0.0, every entry is evaluated. The
    later terms being 0.0, sums of the result equal sums of term(x) to the
    last bit."""
    out = np.zeros(x.size)
    for lo in range(0, x.size, PSI_BLOCK_MODES):
        hi = min(lo + PSI_BLOCK_MODES, x.size)
        out[lo:hi] = term(x[lo:hi])
        if out[hi - 1] == 0.0:
            return out if hi == x.size or term(x[-1:])[0] == 0.0 else term(x)
    return out


def _exp_rows(ts, omega, lo, cuts, prods) -> np.ndarray:
    """Rows sum_{lo <= n <= cuts[i]} e^{-ts[i] omega[n]} prods[n], one per time.

    TIME_BLOCK times are evaluated per array operation, all in one multiplier
    buffer: a fresh block-sized temporary per block is, under glibc's malloc,
    a fresh mapping whose pages fault in again. Each block sums the modes
    0..top - 1, top the first multiple of SUM_ALIGN past its largest cutoff
    (at most omega.size; prods needs top rows), with zero multipliers outside
    [lo, cuts[i]]: on the OpenBLAS gemv kernels tested, a one-time row is the
    sum over all omega.size modes to the last bit.
    """
    aligned = lambda n: min(omega.size, -(-(n + 1) // SUM_ALIGN) * SUM_ALIGN)
    rows = np.empty((ts.size, prods.shape[1]))
    buf = np.empty(min(TIME_BLOCK, ts.size) * aligned(int(cuts.max(initial=lo))))
    for i in range(0, ts.size, TIME_BLOCK):
        blk = slice(i, i + TIME_BLOCK)
        n = cuts[blk]
        low, high = int(n.min()), int(n.max())
        top = aligned(high)
        # One contiguous block, so that numpy runs each ufunc as one flat
        # loop; the multipliers outside [lo, cuts[i]] are zeroed after.
        mult = buf[: n.size * top].reshape(n.size, top)
        np.exp(np.multiply.outer(-ts[blk], omega[:top], out=mult), out=mult)
        mult[:, :lo] = 0.0
        if low == high:
            mult[:, high + 1 :] = 0.0
        else:
            for j, n_j in enumerate(n.tolist()):
                mult[j, n_j + 1 :] = 0.0
        np.matmul(mult, prods[:top], out=rows[blk])
    return rows


class PairEngine:
    """Kernel series over a fixed pair set.

    The engine keeps its pairs, the (n, 2) array pairs and its columns xs
    and ys; psi, the basis functions (phi for a Jacobi basis) on the unique
    coordinates of the pairs, one row per mode; and the index arrays ix and
    iy of each pair's x and y into them. Every kernel multiplier reduces to a
    weighted sum over modes of the pair products psi_n(x_p) psi_n(y_p), which
    each call forms only for the modes it sums (_pair_products). psi is the
    rows formed so far by the basis's row store on the coordinates
    (basis.psi_rows, which checks them).

    Engines are shared across requests (engine_for), so pairs, xs, ys, psi,
    lam, ix, iy and dist are read-only. Of the basis, which holds its
    engines, the engine keeps only basis.spectrum() (params, n_min, n_max,
    the eigenvalue function _eigen and c_off) and the row store; a sum reads
    the eigenvalues of its modes once its pair products have grown to them.
    """

    def __init__(self, basis: Union[BasisSpec, JacobiBasisSpec], pairs):
        self.pairs = _pair_array(pairs, "a PairEngine")
        xs, ys = self.xs, self.ys = self.pairs.T
        coords = np.unique(np.concatenate([xs, ys]))
        self._psi = basis.psi_rows(coords)
        self.params, self.n_min, self.n_max, self._eigen, self.c_off = basis.spectrum()
        self.ix = np.searchsorted(coords, xs)
        self.iy = np.searchsorted(coords, ys)
        self.M = certified_sup(basis, coords)
        self.dist = np.abs(xs - ys)
        _read_only(self.ix, self.iy, self.dist)
        # The heat grids sample heat times from u_floor up; below it only
        # pairs at least min_usable_dist apart have a kernel bound.
        self.u_floor = LOG45 / (math.pi * max(1.0, self.n_max - self.c_off)) ** 2
        self.min_usable_dist = math.sqrt(200.0 * self.u_floor)
        self._heat_grids = {}  # per exact (d, tol)

    @property
    def n_pairs(self) -> int:
        return self.xs.size

    @property
    def lam(self) -> np.ndarray:
        """The n_max + 1 eigenvalues (read-only), the basis grown to n_max."""
        return self._eigen(self.n_max + 1)[: self.n_max + 1]

    @property
    def psi(self) -> np.ndarray:
        """The psi rows formed so far on the coordinates (read-only)."""
        return self._psi.rows

    def _pair_products(self, lo: int, hi: int) -> np.ndarray:
        """psi_n(x_p) psi_n(y_p) for the modes lo <= n < hi, one row per mode.

        Every sum takes its products from here, so the sup invariant is
        checked here: M is a stated bound fixed at construction, so a product
        above M^2 is a broken invariant (ConsistencyError), not a reason to
        change M."""
        psi = self._psi.upto(hi)
        prods = psi[lo:hi, self.ix]
        prods *= psi[lo:hi, self.iy]
        peak = max(float(prods.max(initial=0.0)), -float(prods.min(initial=0.0)))
        if peak > self.M * self.M:
            raise ConsistencyError(
                f"pair product {peak:.6e} exceeds the sup bound M^2 = {self.M * self.M:.6e}"
            )
        return prods

    # ----- heat ---------------------------------------------------------

    def heat_values(
        self, t: float, tol: float, rescale: float = 0.0
    ) -> tuple[np.ndarray, int, float]:
        """Values of exp(rescale*t) * kernel, computed by an exact spectral
        shift (rescale=0 gives the plain kernel; a positive rescale keeps
        large-time evaluation on an O(1) scale without overflow)."""
        _check_time(t)
        _check_tol(tol)
        rows, (n_cut,), (bound,) = self._heat_rows(np.array([t], dtype=float), tol, rescale)
        return rows[0], int(n_cut) - self.n_min + 1, float(bound)

    def _heat_rows(self, ts, tol, rescale=0.0, lo=None):
        """Rows [e^{rescale t} G_t(pair)] for an array of times, with each
        time's cutoff N and tail bound: _gauss_cuts with scale
        M^2 e^{rescale t}, started at _gauss_start for scale M^2, and the
        truncated sums from _exp_rows over the modes lo (default n_min)
        to N, as (rows, cuts, bounds)."""
        m2 = self.M * self.M
        start = _gauss_start(ts, m2, self.c_off, tol, self.n_min, self.n_max)
        scale = m2 * np.exp(np.minimum(ts * rescale, 700.0))
        cuts, bounds = _gauss_cuts(start, ts, scale, self.c_off, tol, self.n_max, "heat")
        top = min(self.n_max + 1, int(cuts.max(initial=self.n_min)) + SUM_ALIGN)
        prods = self._pair_products(0, top)
        lo = self.n_min if lo is None else lo
        return _exp_rows(ts, self._eigen(top)[:top] - rescale, lo, cuts, prods), cuts, bounds

    # ----- poisson ------------------------------------------------------

    def _shifted(self, d: float, top: int) -> np.ndarray:
        """d^2 + lam over the modes below top, grown to them."""
        if not math.isfinite(d):
            raise DomainError(f"shift d must be finite, got {d}")
        lam = d * d + self._eigen(top)[:top]
        if np.any(lam[self.n_min :] < 0.0):
            raise ShiftTooSmallError(
                f"shift d={d:g} leaves a negative eigenvalue; need d >= z_0"
            )
        return lam

    def _poisson_cut(self, t: float, tol: float, rescale: float = 0.0):
        """Smallest direct-series cutoff N with certified geometric tail below
        tol, as (N, bound); None when it exceeds the mode budget. The bound
        falls with N and is tol at need - 1, so N = int(need) >= need - 1
        meets it."""
        m2 = self.M * self.M
        need = _poisson_need(t, tol, m2, self.c_off, rescale)
        if not need <= self.n_max - 1:
            return None
        n = max(self.n_min, int(need))
        return n, m2 * math.exp(min(t * rescale, 700.0)) * _exp_tail(t, n, self.c_off)

    def poisson_values(
        self, t: float, d: float, tol: float, rescale: float = 0.0
    ) -> tuple[np.ndarray, int, float]:
        """Values of exp(rescale*t) * Poisson kernel (see heat_values)."""
        _check_time(t)
        _check_tol(tol)
        self._shifted(d, self.n_min + 1)  # the lowest mode's is the least
        cut = self._poisson_cut(t, tol, rescale)
        if cut is not None:
            n, bound = cut
            top = min(self.n_max + 1, n + SUM_ALIGN)
            prods = self._pair_products(0, top)
            rows = _exp_rows(np.array([t], dtype=float), np.sqrt(self._shifted(d, top)) - rescale,
                             self.n_min, np.array([n]), prods)
            return rows[0], n - self.n_min + 1, bound
        if rescale != 0.0:
            raise TailBoundFailure(
                "rescaled Poisson evaluation requires the direct-series regime"
            )
        vals, bound = self._subordinated(t, d, tol)
        return vals, self.n_max - self.n_min + 1, bound

    def _heat_grid(self, d: float, tol: float) -> _HeatGrid:
        """The heat grid of (d, tol) (_build_heat_grid), kept per exact (d,
        tol): a grid built for another tol would give another certificate."""
        return _cached(self._heat_grids, (d, tol), lambda: _build_heat_grid(self, d, tol),
                       CACHE_ENTRIES)

    @functools.cached_property
    def leak_scale(self) -> float:
        """Bound on |G_u| below u_floor, largest over the pairs: ENVELOPE_SAFETY
        times the short-time envelope u_floor^{-1/2} e^{-dist^2/4 u_floor}, and
        inf if a pair is closer than min_usable_dist."""
        expo = np.minimum(self.dist**2 / (4.0 * self.u_floor), 700.0)
        g_bound = ENVELOPE_SAFETY * self.u_floor**-0.5 * np.exp(-expo)
        return float(np.max(np.where(self.dist >= self.min_usable_dist, g_bound, math.inf)))

    def _subordinated(self, t, d, tol) -> tuple[np.ndarray, float]:
        """Poisson values [H_t(pair)] at a time t below the direct-series
        threshold and their certificate: H_t = int_0^inf m_t(u) e^{-d^2 u} G_u
        du, m_t(u) = (t / 2 sqrt(pi)) u^{-3/2} e^{-t^2/4u} of mass erfc(t / 2
        sqrt(u)) below u. From u_floor on, the heat grid of (d, tol) is one
        weight vector m_t(u) w on its rows, and its modes below grid.lo
        (shifted eigenvalue 0) are psi psi erf(t / 2 sqrt(u_floor)). The
        certificate adds the grid's rule bound (_density_max), tol/4 for its
        rows' heat tails, leak_scale times the mass below u_floor and s_max
        times the mass above u_max. Above 4 tol it raises, and an infinite
        one (a pair closer than min_usable_dist) before the grid is built."""
        below = math.erfc(t / (2.0 * math.sqrt(self.u_floor)))
        if below > 0.0 and math.isinf(self.leak_scale):
            raise self._subordination_failure(math.inf, t, tol)
        grid = self._heat_grid(d, tol)
        density = t / (2.0 * math.sqrt(math.pi)) * grid.u**-1.5 * np.exp(-0.25 * t * t / grid.u)
        vals = (density * grid.w) @ grid.rows
        vals += (1.0 - below) * self._pair_products(self.n_min, grid.lo).sum(axis=0)
        leak = self.leak_scale * below if below else 0.0
        bound = (grid.rule_bound(_density_max(t, grid.r_lo, grid.r_hi)) + 0.25 * tol + leak
                 + grid.s_max * math.erf(t / (2.0 * math.sqrt(grid.u_max))))
        if not bound <= 4.0 * tol:
            raise self._subordination_failure(bound, t, tol)
        return vals, bound

    def _subordination_failure(self, bound, t, tol) -> TailBoundFailure:
        """A failed subordinated certificate at t, naming the closest pair and the
        --n-max the direct series would need (_poisson_need) against the Bessel cap."""
        cap = int(X_MAX_J / math.pi)
        need = math.ceil(_poisson_need(t, tol, self.M * self.M, self.c_off)) + 1
        return TailBoundFailure(
            f"subordinated Poisson certificate {bound:.2e} too large at t={t:.3e}: the closest "
            f"pair is {float(np.min(self.dist)):.3e} apart, and pairs closer than "
            f"min_usable_dist = {self.min_usable_dist:.3e} have no bound below the resolvable "
            f"time scale; the direct series would need --n-max >= {need} at this t, "
            f"{'above' if need > cap else 'within'} the Bessel cap of about {cap} modes"
        )

    # ----- potentials ---------------------------------------------------

    def _potential_spectrum(self, d0: float) -> np.ndarray:
        lam = self._shifted(d0, self.n_max + 1)
        if np.any(lam[self.n_min :] <= 0.0):
            raise SpectrumNotPositiveError("potential requires strictly positive shifted spectrum")
        return lam

    def potential_series(
        self, sigma: float, d0: float, tol: float
    ) -> tuple[np.ndarray, int, float]:
        """Spectral series of (d0^2 + L)^{-sigma} from the near-time floor t_f.

        (d0^2 + L)^{-sigma} = (1/Gamma(sigma)) int_0^inf t^{sigma-1}
        e^{-d0^2 t} G_t dt. From t_f on, each mode's part is closed form:
        with lam' = d0^2 + lam, g(lam') = (1/Gamma(sigma)) int_t_f^inf
        t^{sigma-1} e^{-lam' t} dt = lam'^{-sigma} Q(sigma, t_f lam') (DLMF
        8.2.2, 8.2.4; _mode_weight at sigma/2), summed over every stored mode
        whose weight is not 0.0 (_falling_terms), PSI_BLOCK_MODES modes at a
        time. Below t_f, _heat_skip_bound bounds each pair's part. g falls as
        lam' grows, and g(lam' + D) <= e^{-t_f D} g(lam') because t >= t_f;
        the lower frequencies pi^2 (n - c_off)^2 of the modes beyond n_max
        are at least 2 pi^2 (n_max + 1 - c_off) apart, so those modes add at
        most M^2 g(pi^2 (n_max + 1 - c_off)^2 + d0^2) / (1 - e^{-2 pi^2 t_f
        (n_max + 1 - c_off)}), as in potential_time_integral. The certificate is
        the largest skip over the pairs plus that tail; n_terms is the number
        of modes summed.

        t_f = max(min(min_p max(d_p^2/240, u_floor), delta/2), u_floor), with
        delta = max(1e-3, LOG45 / (pi (n_max + 1 - c_off))^2): the closest
        pair sets it. Once u_floor is at most d_min^2/240 (_usable_from),
        t_f = min(d_min^2/240, delta/2) and the closest pair's skip carries a
        factor e^{-d_min^2/8 t_f} <= e^{-30}.
        """
        _check_sigma(sigma)
        _check_tol(tol)
        lam = self._potential_spectrum(d0)
        k = max(1.0, self.n_max + 1 - self.c_off)
        delta = max(1e-3, LOG45 / (math.pi * k) ** 2)
        t_f = max(min(max(float(np.min(self.dist)) ** 2 / 240.0, self.u_floor), 0.5 * delta),
                  self.u_floor)
        term = lambda lam: _mode_weight(0.5 * sigma, lam, t_f)
        mult = np.zeros(self.n_max + 1)
        mult[self.n_min :] = _falling_terms(term, lam[self.n_min :])
        # Blocks past the last nonzero multiplier add exactly 0.0: skip them,
        # and the psi rows they would need.
        top = int(np.flatnonzero(mult)[-1]) + 1 if mult.any() else self.n_min
        blocks = [(lo, min(lo + PSI_BLOCK_MODES, self.n_max + 1))
                  for lo in range(self.n_min, top, PSI_BLOCK_MODES)]
        self._psi.upto(blocks[-1][1] if blocks else 0)  # one growth for every block
        total = np.zeros(self.n_pairs)
        for lo, hi in blocks:
            total += mult[lo:hi] @ self._pair_products(lo, hi)
        lowest = (math.pi * k) ** 2 + d0 * d0  # the first lower frequency beyond n_max
        tail = self.M * self.M * float(term(lowest)) / -math.expm1(-2.0 * math.pi**2 * t_f * k)
        skip = float(np.max(self._heat_skip_bound(sigma, t_f))) / math.gamma(sigma)
        bound = skip + tail
        if not bound <= tol:
            usable = self._usable_from(240.0)
            if usable.endswith(" on"):  # t_f no longer moves: bound rounded up is the least tol
                least = next(v for v in (f"{bound:.2e}", f"{1.01 * bound:.2e}")
                             if float(v) >= bound)
                usable += (f", so it no longer falls with --n-max: the least --tol that passes at "
                           f"--n-max {self.n_max} is this certificate, {least}")
            raise TailBoundFailure(
                f"potential series certificate {bound:.2e} exceeds tol {tol:.2e} (skip below "
                f"t_f = {t_f:.3e}: {skip:.2e}, modes > {self.n_max}: {tail:.2e}); the closest "
                f"pair is {float(np.min(self.dist)):.3e} apart, and its skip is e^-30-small "
                f"{usable}"
            )
        return total, top - self.n_min, bound

    def _usable_from(self, ratio: float) -> str:
        """The --n-max from which u_floor = LOG45 / (pi (n_max - c_off))^2 is
        at most d_min^2 / ratio: n_max = c_off + sqrt(ratio LOG45) / (pi
        d_min), "at no --n-max" for a pair on the diagonal, and "from --n-max
        N on" when N is at most the engine's n_max."""
        d_min = float(np.min(self.dist))
        if d_min == 0.0:
            return "at no --n-max"
        need = math.ceil(self.c_off + math.sqrt(ratio * LOG45) / (math.pi * d_min))
        return f"from --n-max {need}" + (" on" if need <= self.n_max else "")

    def _heat_skip_bound(self, sigma, T) -> np.ndarray:
        """Envelope bound for int_0^T t^{sigma-1} G_t dt, per pair."""
        out = []
        for a in (self.dist**2 / 4.0).tolist():
            z = a / T
            if a == 0.0:
                val = T ** (sigma - 0.5) / (sigma - 0.5) if sigma > 0.5 else math.inf
            elif z > 700.0:
                val = 0.0
            elif sigma < 0.5:
                val = math.exp(-0.5 * z) * (0.5 * a) ** (sigma - 0.5) * math.gamma(0.5 - sigma)
            else:
                val = T ** (sigma - 0.5) * math.exp(-z)
            out.append(ENVELOPE_SAFETY * val)
        return np.array(out)

    def potential_time_integral(self, sigma, d: float, tol: float) -> np.ndarray:
        """(1/Gamma(2 sigma)) * int_0^inf t^{2 sigma - 1} H_t dt, per pair.

        From t_split on, each mode's part is closed form: with omega =
        sqrt(d^2 + lam), f(omega) = (1/Gamma(2 sigma)) int_t_split^inf
        tau^{2 sigma-1} e^{-omega tau} dtau (_mode_weight). f falls as omega
        grows, and f(omega + pi) <= e^{-pi t_split} f(omega) because
        tau >= t_split; with omega_n >= pi (n - c_off), the modes beyond N add
        at most M^2 f(pi (N + 1 - c_off)) / (1 - e^{-pi t_split}). N is the
        least n >= n_min at which that bound is at most tol/16 (_mode_cut; or
        n_max), and the modes up to N cost one weight vector and one
        vector-matrix product. t_split is twice the time at which the direct
        Poisson series fits n_max modes at tol/8 (_direct_time), so N is
        about half of n_max or less. On [0, t_split) the order is exchanged:
        H_t = int_0^inf m_t(u) e^{-d^2 u} G_u du (subordination), and with
        s = t^2/4u and Legendre's duplication sqrt(pi) Gamma(2 sigma) =
        2^{2 sigma-1} Gamma(sigma) Gamma(sigma+1/2) (DLMF 5.5.5),
        (1/Gamma(2 sigma)) int_0^t_split t^{2 sigma-1} m_t(u) dt is I_sigma(u)
        (_time_weight), of mass t_split^{2 sigma} / Gamma(2 sigma + 1), summed
        on the heat grid of (d, tol) (_build_heat_grid). The certificate adds
        four parts: the u-rule's stated bound (_time_weight_max) plus its mass
        times tol/4, the mass times leak_scale (u < u_floor; refused before
        any grid is built if infinite, _leak_refusal), the mass times s_max =
        M^2 S(u_max) (u > u_max) and the modes beyond N.
        """
        _check_sigma(sigma)
        _check_tol(tol)
        lam = self._potential_spectrum(d)
        if math.isinf(self.leak_scale):
            raise self._leak_refusal()
        s2, m2 = 2.0 * sigma, self.M * self.M
        t_split = _direct_time(m2, self.c_off, self.n_max, 0.125 * tol)
        scale = m2 / -math.expm1(-math.pi * t_split)
        n_cut, modes = _mode_cut(sigma, t_split, self.c_off, self.n_min, self.n_max, scale,
                                 tol / 16.0)
        weights = _mode_weight(sigma, np.sqrt(lam[self.n_min : n_cut + 1]), t_split)
        total = weights @ self._pair_products(self.n_min, n_cut + 1)
        grid = self._heat_grid(d, tol)
        part = (_time_weight(sigma, grid.u, t_split) * grid.w) @ grid.rows
        mass = t_split**s2 / math.gamma(s2 + 1.0)
        rule = grid.rule_bound(_time_weight_max(sigma, t_split, grid.r_lo, grid.r_hi))
        u_err = rule + 0.25 * tol * mass
        below, beyond = self.leak_scale * mass, grid.s_max * mass
        bound = u_err + below + beyond + modes
        if not bound <= tol:
            raise TailBoundFailure(
                f"potential time-integral certificate {bound:.2e} exceeds tol {tol:.2e} "
                f"(u-rule {u_err:.2e}, u < {self.u_floor:.1e}: {below:.2e}, u > u_max: "
                f"{beyond:.2e}, modes > {n_cut}: {modes:.2e})"
            )
        return total + part

    def _leak_refusal(self) -> TailBoundFailure:
        """The refusal of a pair closer than min_usable_dist = sqrt(200
        u_floor), naming the --n-max from which the closest pair is usable."""
        return TailBoundFailure(
            f"potential time integral: the closest pair is {float(np.min(self.dist)):.3e} apart, "
            f"closer than min_usable_dist = {self.min_usable_dist:.3e}, and has no kernel bound "
            f"below the resolvable time scale; it becomes usable {self._usable_from(200.0)}"
        )


def _log_panel_rule(lo: float, hi: float, per_decade: int, order: int):
    """Composite Gauss-Legendre rule in s = log u on [lo, hi], 0 < lo < hi:
    ceil(per_decade log10(hi/lo)) panels of equal width in s, order nodes
    each. Returns the nodes u, their weights in u (the weights in s times u)
    and the panel edges in s."""
    n_panels = max(1, int(math.ceil(per_decade * math.log10(hi / lo))))
    edges = np.linspace(math.log(lo), math.log(hi), n_panels + 1)
    xg, wg = _legendre(order)
    half = 0.5 * (edges[1] - edges[0])
    u = np.exp(0.5 * (edges[:-1] + edges[1:])[:, None] + half * xg)
    return u.ravel(), (half * wg * u).ravel(), edges


def _time_weight(sigma, u, b) -> np.ndarray:
    """I_sigma(u) = u^{sigma-1} P(sigma+1/2, b^2/4u) / Gamma(sigma) at u (P of
    DLMF 8.2; see potential_time_integral): one regularized incomplete gamma
    per node, with no difference to cancel."""
    return u ** (sigma - 1.0) / math.gamma(sigma) * _gammainc(sigma + 0.5, b * b / (4.0 * u))


def _mode_weight(sigma, omega, t):
    """(1/Gamma(2 sigma)) int_t^inf tau^{2 sigma-1} e^{-omega tau} dtau
    = omega^{-2 sigma} Q(2 sigma, t omega) (DLMF 8.2.2, 8.2.4), per omega > 0."""
    return omega ** (-2.0 * sigma) * _gammaincc(2.0 * sigma, t * omega)


def _mode_cut(sigma, t, c_off, n_min, n_max, scale, tol) -> tuple[int, float]:
    """The least N in [n_min, n_max] whose bound scale f(pi (N + 1 - c_off))
    (f = _mode_weight at t) is at most tol, and that bound; n_max and its
    bound if none is. f falls as omega grows, so N is bisected."""
    bound = lambda n: scale * float(_mode_weight(sigma, math.pi * (n + 1.0 - c_off), t))
    lo, hi = n_min - 1, n_max  # bound(hi) <= tol and, unless lo < n_min, bound(lo) > tol
    if bound(hi) <= tol:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if bound(mid) <= tol else (mid, hi)
    return hi, bound(hi)


def _time_weight_max(sigma, t, r_lo, r_hi) -> np.ndarray:
    """The largest |u I_sigma(u)| (I_sigma = _time_weight at t) where r_lo <=
    |u| <= r_hi and |arg u| <= U_STRIP, per panel. With a = sigma + 1/2 and z
    = t^2/4u, the ray integral to z gives |gamma(a, z)| <= (cos arg z)^{-a}
    gamma(a, |z| cos arg z) and <= |z|^a / a, so |u I_sigma(u)| Gamma(sigma)
    is at most both cos(U_STRIP)^{-a} r_hi^sigma P(a, t^2 cos(U_STRIP) / 4
    r_lo) and (t^2/4)^a r_lo^{-1/2} / Gamma(a + 1); fmin, as inf times P =
    0.0 is NaN."""
    a, c = sigma + 0.5, math.cos(U_STRIP)
    ray = c**-a * r_hi**sigma * _gammainc(a, 0.25 * t * t * c / r_lo)
    power = (0.25 * t * t) ** a / math.gamma(a + 1.0) / np.sqrt(r_lo)
    return np.fmin(ray, power) / math.gamma(sigma)


def _density_max(t, r_lo, r_hi) -> np.ndarray:
    """The largest |u m_t(u)| (m_t the stable-1/2 density of
    PairEngine._subordinated) where r_lo <= |u| <= r_hi and |arg u| <=
    U_STRIP, per panel: Re(1/u) >= cos(U_STRIP) / |u|, so |u m_t(u)| <=
    (t / 2 sqrt(pi)) r^{-1/2} e^{-c/r}, c = t^2 cos(U_STRIP) / 4, which
    rises up to r = 2c and falls after."""
    c = 0.25 * t * t * math.cos(U_STRIP)
    r = np.clip(2.0 * c, r_lo, r_hi)
    return t / (2.0 * math.sqrt(math.pi)) * np.exp(-c / r) / np.sqrt(r)


class _HeatGrid(NamedTuple):
    """The heat grid of one (d, tol) (_build_heat_grid), read-only."""

    u: np.ndarray  # the nodes of the u-rule
    w: np.ndarray  # their weights in u
    rows: np.ndarray  # e^{-d^2 u} G_u over the modes lo..n_max, one row per node
    lo: int  # the first mode on the grid
    u_max: float
    s_max: float  # M^2 S(u_max)
    r_lo: np.ndarray  # per panel, the least and largest |u| on its ellipse
    r_hi: np.ndarray
    heat: np.ndarray  # per panel, the Gauss constant times M^2 S(r_lo cos U_STRIP)

    def rule_bound(self, weight_max) -> float:
        """The u-rule's error bound for a weight W whose |u W(u)| is at most
        weight_max[p] on the ellipse of panel p."""
        return float(self.heat @ weight_max)


def _build_heat_grid(eng: PairEngine, d: float, tol: float) -> _HeatGrid:
    """The heat grid of (d, tol): rows e^{-d^2 u} G_u (_heat_rows at tol/4,
    rescale = -d^2, which a negative unshifted eigenvalue cannot overflow)
    at the nodes of one composite Gauss-Legendre rule in s = log u on
    [u_floor, u_max] (_log_panel_rule). The rows skip the modes below lo,
    whose shifted eigenvalue lam' = d^2 + lam is 0; the callers sum those in
    closed form. S(u) = sum_{n >= lo} e^{-lam'_n u} (Gaussian tail beyond
    n_max) bounds the rows / M^2 wherever Re u >= u, and falls at least at
    the rate lam'_lo, so u_max = u0 + log(16 M^2 S(u0) / tol) / lam'_lo
    makes s_max = M^2 S(u_max) at most tol/16.

    The rule's error is bounded, not estimated. On the strip |Im s| <=
    U_STRIP < pi/2, Re u >= |u| cos(U_STRIP) > 0: the integrand u W(u) times
    the rows is analytic there for the weights W used, and the rows are at
    most M^2 S(Re u). A panel of half-width h in s is an affine image of
    [-1, 1] whose Bernstein ellipse E_rho, rho = (U_STRIP + reach) / h,
    reach = sqrt(U_STRIP^2 + h^2), reaches |Im s| = U_STRIP and |Re s - mid|
    = reach, where r_lo <= |u| <= r_hi. By Trefethen, "Is Gauss quadrature
    better than Clenshaw-Curtis?", SIAM Review 50 (2008), Theorem 4.5, the
    n-point Gauss rule errs on the panel by at most (64/15) h rho^{-2n} /
    (rho^2 - 1) times the integrand's largest modulus on E_rho, which is at
    most M^2 S(r_lo cos U_STRIP) (kept per panel in heat, with the first
    factor) times the largest |u W(u)| (_time_weight_max, _density_max)."""
    lam = eng._shifted(d, eng.n_max + 1)[eng.n_min :]
    zeros = int(np.count_nonzero(lam == 0.0))  # lam' >= 0 ascends: the zeros lead
    lam, m2 = lam[zeros:], eng.M * eng.M

    def beyond(us):  # M^2 S(u) per u, one u at a time (no len(us) x n_max temporary)
        a = us * math.pi**2
        gauss = 0.5 * np.sqrt(math.pi / a) * _erfc(np.sqrt(a) * (eng.n_max - eng.c_off))
        return m2 * (np.array([np.sum(np.exp(-u * lam)) for u in us.tolist()]) + gauss)

    lam0 = float(lam[0])
    u0 = max(1.0 / lam0, 2.0 * eng.u_floor)
    u_max = u0 + max(0.0, math.log(16.0 * float(beyond(np.array([u0]))[0]) / tol)) / lam0
    u, w, edges = _log_panel_rule(eng.u_floor, u_max, U_PANELS_PER_DECADE, U_ORDER)
    rows, _, _ = eng._heat_rows(u, 0.25 * tol, rescale=-d * d, lo=eng.n_min + zeros)
    half = 0.5 * (edges[1] - edges[0])
    reach = math.hypot(U_STRIP, half)
    rho = (U_STRIP + reach) / half
    mid = 0.5 * (edges[:-1] + edges[1:])
    r_lo, r_hi = np.exp(mid - reach), np.exp(mid + reach)
    gauss = 64.0 / 15.0 * half * rho ** (-2.0 * U_ORDER) / (rho * rho - 1.0)
    heat = gauss * beyond(r_lo * math.cos(U_STRIP))
    _read_only(u, w, rows, r_lo, r_hi, heat)
    return _HeatGrid(u, w, rows, eng.n_min + zeros, u_max, float(beyond(np.array([u_max]))[0]),
                     r_lo, r_hi, heat)


# --------------------------------------------------------------------------
# Public operations
# --------------------------------------------------------------------------


def engine_for(basis: Union[BasisSpec, JacobiBasisSpec], pairs) -> PairEngine:
    """The PairEngine of basis on pairs, built on first use and kept on the
    basis, keyed by the bytes of the (n, 2) pair array (up to CACHE_ENTRIES
    engines per basis, the oldest dropped first)."""
    xy = _pair_array(pairs, "a PairEngine")
    return _cached(basis._engines, xy.tobytes(), lambda: PairEngine(basis, xy), CACHE_ENTRIES)


def kernel_arrays(
    req: KernelRequest, basis: Union[BasisSpec, JacobiBasisSpec, None] = None
) -> tuple[np.ndarray, int, float, Optional[np.ndarray]]:
    """The values of req on its grid as one array, with the number of terms
    and the tail bound they share, and |series - time integral| per pair for
    a potential request with cross_check (else None): the one evaluation
    behind heat_kernel, poisson_kernel and potential_kernel. Without a basis,
    one with req.n_max (default 512) is built."""
    t, potential = req.time_or_sigma, req.kind in (KernelKind.RIESZ_POT, KernelKind.BESSEL_POT)
    if potential and t <= 0.5:
        near = np.abs(req.grid[:, 0] - req.grid[:, 1]) < DIAGONAL_EXCLUSION
        if near.any():
            x, y = req.grid[np.argmax(near)]
            raise DiagonalSlowConvergence(f"sigma={t:g} <= 1/2 diverges on the diagonal; point "
                                          f"({x:g},{y:g}) is inside |x-y| < {DIAGONAL_EXCLUSION:g}")
    if basis is None:
        build = JacobiBasisSpec if req.kind is KernelKind.JACOBI_HEAT else build_basis
        basis = build(req.params, req.n_max or 512)
    eng = engine_for(basis, req.grid)
    if req.kind in (KernelKind.HEAT, KernelKind.JACOBI_HEAT):
        return (*eng.heat_values(t, req.tol), None)
    if not potential:
        d = 0.0 if req.kind is KernelKind.POISSON else req.d_nu
        vals, n_terms, bound = eng.poisson_values(t, d, req.tol)
        return np.atleast_1d(vals), n_terms, bound, None
    d0 = 0.0 if req.kind is KernelKind.RIESZ_POT else 1.0
    vals, n_terms, bound = eng.potential_series(t, d0, req.tol)
    checks = np.abs(eng.potential_time_integral(t, d0, req.tol) - vals) if req.cross_check else None
    return vals, n_terms, bound, checks


def _kernel_values(req: KernelRequest, basis, name: str, *kinds) -> list[KernelValue]:
    if req.kind not in kinds:
        raise DomainError(f"{name} requires a {' or '.join(k.name for k in kinds)} request")
    vals, n_terms, bound, checks = kernel_arrays(req, basis)
    checks = [None] * vals.size if checks is None else checks.tolist()
    return [KernelValue(v, n_terms, bound, c) for v, c in zip(vals.tolist(), checks)]


def heat_kernel(
    req: KernelRequest, basis: Union[BasisSpec, JacobiBasisSpec, None] = None
) -> list[KernelValue]:
    """Heat kernel values G_t(x,y) (HEAT) or Jacobi heat kernel values
    K_t(x,y) (JACOBI_HEAT) with certified truncation."""
    return _kernel_values(req, basis, "heat_kernel", KernelKind.HEAT, KernelKind.JACOBI_HEAT)


def poisson_kernel(req: KernelRequest, basis: Optional[BasisSpec] = None) -> list[KernelValue]:
    """Poisson kernel of the (optionally shifted) square-root semigroup."""
    return _kernel_values(req, basis, "poisson_kernel", KernelKind.POISSON,
                          KernelKind.POISSON_SHIFTED)


def potential_kernel(req: KernelRequest, basis: Optional[BasisSpec] = None) -> list[KernelValue]:
    """Potential kernel from the spectral series, cross-checked against the
    Poisson-kernel time integral when requested."""
    return _kernel_values(req, basis, "potential_kernel", KernelKind.RIESZ_POT,
                          KernelKind.BESSEL_POT)


def semigroup_apply(
    b: BasisSpec,
    f,
    t: float,
    x_grid,
    quad=None,
    tol: float = 1e-10,
) -> np.ndarray:
    """Apply the heat semigroup to f spectrally and evaluate on x_grid.

    The series sum_n e^{-t lambda_n} a_n psi_n(x) is cut at the first N
    whose tail bound S * (Gaussian tail from N), S = ||f||_2 * M, is <= tol,
    on the _gauss_cuts ladder (steps of max(1, N//16)) from the closed-form
    _gauss_start: a certified cutoff, not the smallest one, since the start
    and the last step may overshoot. |a_n| <= ||f||_2 for every n, computed
    or not (Bessel's inequality), with ||f||_2 from the same rule, and
    M = certified_sup on x_grid; at t = 0, N = n_max. The certificate covers
    truncation only, not the quadrature error of the a_n and of ||f||_2, but
    a_n (n <= N) whose squares add up to more than (1 + 1e-6) ||f||_2^2,
    aliased by a rule too coarse for them, raise ConsistencyError. An x_grid
    that is not a non-empty 1-D array of points in (0,1), or an f not finite
    at the nodes, raises DomainError.

    The a_n = <f, psi_n> use ``quad`` (default: the 1024-point coefficient
    rule) and its rows of psi up to N + 1 rounded up to a multiple of
    SUM_ALIGN, which gives the full product's a_n to the last bit. psi on
    the nodes and on x_grid comes from the basis's row stores
    (BasisSpec.psi_rows), which form each row once: a call whose N was
    reached before costs f at the nodes, the sup bound and two mat-vecs.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be finite and >= 0, got {t}")
    _check_tol(tol)
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError(f"x_grid must be a non-empty 1-D array, got shape {xs.shape}")
    grid = b.psi_rows(xs)
    quad = quad or default_coefficient_rule(b, 1024)
    fx = _node_values(f, quad)
    norm2 = float(quad.weights @ (fx * fx))
    n = b.n_max
    if t > 0.0:
        scale = math.sqrt(norm2) * certified_sup(b, xs)
        ts, c_off = np.array([t]), b.table.freq_offset
        start = _gauss_start(ts, scale, c_off, tol, b.n_min, b.n_max)
        n = int(_gauss_cuts(start, ts, scale, c_off, tol, b.n_max, "semigroup")[0][0])
    k = min(b.n_max + 1, -(-(n + 1) // SUM_ALIGN) * SUM_ALIGN)
    coeffs = b.psi_rows(quad.nodes).upto(k)[:k] @ (quad.weights * fx)
    sl = slice(b.n_min, n + 1)
    summed = float(coeffs[sl] @ coeffs[sl])
    if not summed <= (1.0 + 1e-6) * norm2:
        raise ConsistencyError(
            f"coefficients up to N = {n} break Bessel's inequality (sum a_n^2 = {summed:.3e} > "
            f"||f||_2^2 = {norm2:.3e}): the {quad.nodes.size}-node rule cannot resolve them")
    damped = np.zeros(n + 1)
    damped[sl] = coeffs[sl] * np.exp(-t * b.table.eigen[sl])
    return damped @ grid.upto(n + 1)[: n + 1]
