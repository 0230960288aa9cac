import cmath
import functools
import gc
import itertools
import math
import re
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad
from scipy.special import erfc, gammaincc, roots_legendre
from hypothesis import strategies as st

from conftest import shared_basis
from dini import kernels
from dini.basis import (
    BasisSpec,
    RowStore,
    build_basis,
    build_jacobi_basis,
    certified_sup,
    default_coefficient_rule,
    eval_psi,
)
from dini.errors import (
    ConsistencyError,
    DiagonalSlowConvergence,
    DomainError,
    ShiftTooSmallError,
    SpectrumNotPositiveError,
    TailBoundFailure,
)
from dini.bounds import (
    boundary_refined_coords,
    envelope_reports,
    heat_short_envelope,
    pair_grid,
    potential_envelope,
    sandwich_check,
)
from dini.kernels import (
    CACHE_ENTRIES,
    LOG45,
    PSI_BLOCK_MODES,
    SIGMA_MAX,
    SIGMA_MIN,
    SUM_ALIGN,
    TIME_BLOCK,
    U_ORDER,
    U_PANELS_PER_DECADE,
    KernelKind,
    KernelRequest,
    PairEngine,
    _build_heat_grid,
    _density_max,
    _direct_time,
    _exp_rows,
    _falling_terms,
    _gauss_cuts,
    _gauss_start,
    _legendre,
    _log_panel_rule,
    _mode_weight,
    _poisson_need,
    _time_weight,
    _time_weight_max,
    engine_for,
    heat_kernel,
    kernel_arrays,
    poisson_kernel,
    potential_kernel,
    semigroup_apply,
)
from dini.numerics import endpoint_graded_rule, gauss_legendre
from dini.specfun import X_MAX_J, JacobiParams, Regime, SpectralParams

PAIRS = [(0.3, 0.6), (0.45, 0.5), (0.1, 0.9), (0.05, 0.08), (0.7, 0.75)]


def neumann_green(x, y):
    """Green function of -u'' + u with u' = 0 at both ends."""
    return math.cosh(min(x, y)) * math.cosh(1.0 - max(x, y)) / math.sinh(1.0)


def heat_cosine_oracle(t, x, y, n_terms=4000):
    n = np.arange(1, n_terms + 1)
    return 1.0 + 2.0 * float(
        np.sum(np.exp(-t * np.pi**2 * n**2) * np.cos(np.pi * n * x) * np.cos(np.pi * n * y))
    )


def poisson_sine_oracle(t, x, y):
    # Abel-summed closed form of the half-integer sine series.
    S = lambda th: (1.0 / (2.0 * cmath.sinh(math.pi * (t - 1j * th) / 2.0))).real
    return S(x - y) - S(x + y)


class TestHeatKernel:
    def test_cosine_oracle(self):
        b = shared_basis(-0.5, n_max=300)
        eng = PairEngine(b, PAIRS)
        for t in (0.1, 0.01, 1e-3):
            vals, _, bound = eng.heat_values(t, 1e-10)
            oracle = np.array([heat_cosine_oracle(t, x, y) for x, y in PAIRS])
            assert np.max(np.abs(vals - oracle)) < 1e-10 + bound

    def test_symmetry(self):
        b = shared_basis(0.7, n_max=300)
        fwd = PairEngine(b, [(x, y) for x, y in PAIRS])
        rev = PairEngine(b, [(y, x) for x, y in PAIRS])
        v1, _, _ = fwd.heat_values(0.05, 1e-11)
        v2, _, _ = rev.heat_values(0.05, 1e-11)
        assert np.max(np.abs(v1 - v2)) < 1e-12

    def test_positivity(self):
        for nu in (-0.9, 0.0, 2.0):
            b = shared_basis(nu, n_max=300)
            eng = PairEngine(b, PAIRS)
            for t in (0.01, 0.5, 3.0):
                vals, _, _ = eng.heat_values(t, 1e-11)
                assert np.all(vals > 0.0)

    def test_large_time_mode_ratio(self):
        # At large t a single mode dominates: kernel ~ e^{-t lam} psi psi.
        b = shared_basis(0.5, n_max=300)
        eng = PairEngine(b, [(0.5, 0.5)])
        vals, _, _ = eng.heat_values(4.0, 1e-13)
        lead = math.exp(-4.0 * b.eigen[1]) * eval_psi(b, 1, 0.5) ** 2
        assert vals[0] == pytest.approx(lead, rel=1e-4)

    def test_request_api(self):
        req = KernelRequest(
            kind=KernelKind.HEAT,
            params=SpectralParams(0.0, 0.5),
            time_or_sigma=0.1,
            grid=PAIRS,
            n_max=200,
        )
        out = heat_kernel(req)
        assert len(out) == len(PAIRS)
        assert all(v.tail_bound <= req.tol for v in out)

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            KernelRequest(
                kind=KernelKind.HEAT,
                params=SpectralParams(0.0, 0.5),
                time_or_sigma=0.1,
                grid=PAIRS,
                tol=1e-13,
            )

    @pytest.mark.parametrize("field", ["time_or_sigma", "tol", "d_nu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_request_rejected(self, field, bad):
        args = dict(kind=KernelKind.HEAT, params=SpectralParams(0.0, 0.5),
                    time_or_sigma=0.1, grid=PAIRS)
        args[field] = bad
        with pytest.raises(DomainError, match="finite"):
            KernelRequest(**args)


class TestJacobiHeatKernel:
    def test_cosine_case(self):
        jb = build_jacobi_basis(JacobiParams(-0.5, -0.5), 300)
        eng = PairEngine(jb, PAIRS)
        vals, _, _ = eng.heat_values(0.1, 1e-11)
        oracle = np.array([heat_cosine_oracle(0.1, x, y) for x, y in PAIRS])
        assert np.max(np.abs(vals - oracle)) < 1e-10

    def test_positivity(self):
        jb = build_jacobi_basis(JacobiParams(0.7, -0.5), 300)
        eng = PairEngine(jb, PAIRS)
        for t in (0.01, 0.5, 3.0):
            vals, _, _ = eng.heat_values(t, 1e-11)
            assert np.all(vals > 0.0)

    @pytest.mark.parametrize("nu", [-0.5, 0.5])
    def test_matches_bessel_kernel_at_half_orders(self, nu):
        b = shared_basis(nu, n_max=300)
        jb = build_jacobi_basis(JacobiParams(nu, -0.5), 300)
        eng_g = PairEngine(b, PAIRS)
        eng_k = PairEngine(jb, PAIRS)
        for t in (0.01, 0.1, 1.0):
            g, _, _ = eng_g.heat_values(t, 1e-12)
            k, _, _ = eng_k.heat_values(t, 1e-12)
            scale = np.maximum(np.abs(g), 1e-2)
            assert np.max(np.abs(g - k) / scale) < 1e-10

    def test_one_function_for_both_heat_kinds(self):
        req = KernelRequest(
            kind=KernelKind.JACOBI_HEAT,
            params=JacobiParams(0.7, -0.5),
            time_or_sigma=0.05,
            grid=PAIRS,
            n_max=200,
        )
        eng = PairEngine(build_jacobi_basis(JacobiParams(0.7, -0.5), 200), PAIRS)
        assert [v.value for v in heat_kernel(req)] == list(eng.heat_values(0.05, 1e-10)[0])
        poisson = KernelRequest(
            kind=KernelKind.POISSON, params=SpectralParams(0.5), time_or_sigma=0.1, grid=PAIRS
        )
        with pytest.raises(DomainError, match="HEAT or JACOBI_HEAT"):
            heat_kernel(poisson)

    def test_symmetry(self):
        jb = build_jacobi_basis(JacobiParams(0.7, -0.5), 200)
        fwd = PairEngine(jb, PAIRS)
        rev = PairEngine(jb, [(y, x) for x, y in PAIRS])
        v1, _, _ = fwd.heat_values(0.05, 1e-11)
        v2, _, _ = rev.heat_values(0.05, 1e-11)
        assert np.max(np.abs(v1 - v2)) < 1e-12


class TestPoissonKernel:
    def test_sine_oracle_direct_regime(self):
        b = shared_basis(0.5, n_max=2000)
        eng = PairEngine(b, PAIRS)
        for t in (0.5, 0.05):
            vals, _, _ = eng.poisson_values(t, 0.0, 1e-9)
            oracle = np.array([poisson_sine_oracle(t, x, y) for x, y in PAIRS])
            assert np.max(np.abs(vals - oracle)) < 3e-9

    def test_sine_oracle_subordinated_regime(self):
        b = shared_basis(0.5, n_max=2000)
        pairs = [p for p in PAIRS if abs(p[0] - p[1]) >= 0.03]
        eng = PairEngine(b, pairs)
        for t in (1e-3, 1e-4, 1e-5):
            vals, _, _ = eng.poisson_values(t, 0.0, 1e-9)
            oracle = np.array([poisson_sine_oracle(t, x, y) for x, y in pairs])
            rel = np.abs(vals - oracle) / np.abs(oracle)
            assert np.max(rel) < 1e-7

    def test_positivity_shifted_minus_regime(self):
        b = shared_basis(-0.75, n_max=2000)
        eng = PairEngine(b, PAIRS)
        for t in (0.05, 0.5, 2.0):
            vals, _, _ = eng.poisson_values(t, 1.0, 1e-9)
            assert np.all(vals > 0.0)

    def test_symmetry(self):
        b = shared_basis(0.0, n_max=1500)
        fwd = PairEngine(b, PAIRS)
        rev = PairEngine(b, [(y, x) for x, y in PAIRS])
        v1, _, _ = fwd.poisson_values(0.05, 0.0, 1e-10)
        v2, _, _ = rev.poisson_values(0.05, 0.0, 1e-10)
        assert np.max(np.abs(v1 - v2)) < 1e-12

    def test_large_time_rate_neumann(self):
        # nu = -1/2 with shift d: kernel decays exactly like e^{-t d}.
        b = shared_basis(-0.5, n_max=300)
        eng = PairEngine(b, [(0.4, 0.6)])
        v1, _, _ = eng.poisson_values(6.0, 1.0, 1e-12)
        v2, _, _ = eng.poisson_values(7.0, 1.0, 1e-12)
        assert v2[0] / v1[0] == pytest.approx(math.exp(-1.0), rel=1e-3)

    def test_shift_too_small(self):
        b = shared_basis(-0.75, n_max=300)
        eng = PairEngine(b, PAIRS)
        with pytest.raises(ShiftTooSmallError):
            eng.poisson_values(0.1, 0.1, 1e-9)

    def test_unshifted_requires_nonneg_spectrum(self):
        with pytest.raises(DomainError):
            KernelRequest(
                kind=KernelKind.POISSON,
                params=SpectralParams(-0.75, 0.5),
                time_or_sigma=0.1,
                grid=PAIRS,
            )

    def test_semigroup_property(self):
        # Applying the kernel twice in time equals the kernel at the sum.
        b = shared_basis(0.0, n_max=800)
        rule = gauss_legendre(512)
        x0, y0 = 0.3, 0.7
        s, t = 0.1, 0.25
        eng1 = PairEngine(b, [(x0, z) for z in rule.nodes])
        eng2 = PairEngine(b, [(z, y0) for z in rule.nodes])
        hs, _, _ = eng1.poisson_values(s, 0.0, 1e-10)
        ht, _, _ = eng2.poisson_values(t, 0.0, 1e-10)
        conv = float(np.dot(rule.weights, hs * ht))
        direct, _, _ = PairEngine(b, [(x0, y0)]).poisson_values(s + t, 0.0, 1e-10)
        assert conv == pytest.approx(direct[0], rel=1e-7)

    def test_request_api_shifted(self):
        req = KernelRequest(
            kind=KernelKind.POISSON_SHIFTED,
            params=SpectralParams(-0.75, 0.5),
            time_or_sigma=0.3,
            grid=PAIRS,
            d_nu=1.0,
            tol=1e-9,
            n_max=400,
        )
        out = poisson_kernel(req)
        assert all(v.value > 0.0 for v in out)


def series_oracle(basis, coords, modes=50):
    """(eigenvalues, rows of psi_n at coords) of the first ``modes`` modes
    of basis, at 30 digits from the formulas alone: zeros of z J_nu'(z) + H
    J_nu(z) (I_nu for the MINUS n = 0 mode) refined by mpmath.findroot from
    the float table, c_n = sqrt(2) z / (|J_nu(z)| sqrt(z^2 - nu^2 + H^2)),
    the ZERO mode sqrt(2 (nu + 1)) x^{nu + 1/2}, and the Jacobi C_k, Phi_k
    and pi^2 (k + (a+b+1)/2)^2 of basis.py with mpmath.jacobi."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        xs = [mp.mpf(float(x)) for x in coords]
        lam, rows = [], []
        if isinstance(basis, BasisSpec):
            p = basis.params
            nu, h = mp.mpf(p.nu), mp.mpf(p.h)
            for n in range(basis.n_min, basis.n_min + modes):
                if n == 0 and p.regime is Regime.ZERO:
                    lam.append(mp.zero)
                    rows.append([mp.sqrt(2 * (nu + 1)) * x ** (nu + 0.5) for x in xs])
                    continue
                bessel, sign = (mp.besseli, -1) if n == 0 else (mp.besselj, 1)
                z = mp.findroot(lambda z: z * bessel(nu, z, 1) + h * bessel(nu, z),
                                mp.mpf(float(basis.table.zeros[n])))
                c = mp.sqrt(2) * z / (abs(bessel(nu, z)) * mp.sqrt(z * z - sign * (nu * nu - h * h)))
                lam.append(sign * z * z)
                rows.append([c * mp.sqrt(x) * bessel(nu, z * x) for x in xs])
        else:
            a, b = mp.mpf(basis.jp.alpha), mp.mpf(basis.jp.beta)
            for k in range(modes):
                c = mp.sqrt(mp.pi * (2 * k + a + b + 1) * mp.gamma(k + a + b + 1) * mp.factorial(k)
                            / (mp.gamma(k + a + 1) * mp.gamma(k + b + 1)))
                lam.append((mp.pi * (k + (a + b + 1) / 2)) ** 2)
                rows.append([c * mp.sin(mp.pi * x / 2) ** (a + 0.5) * mp.cos(mp.pi * x / 2) ** (b + 0.5)
                             * mp.jacobi(k, a, b, mp.cos(mp.pi * x)) for x in xs])
    return lam, rows


class TestSeriesOracle:
    """Heat and direct Poisson values at tol 1e-12 on the blocked_bases()
    engines against the series to 50 modes at 30 digits (series_oracle; the modes
    beyond add below e^-70 at these times): within the tail bound, plus the
    binary64 rounding of the N-term sum, gamma_N M^2 sum_n |w_n| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, §3.1 and
    §4.2), plus the error of the float terms w_n psi_n(x) psi_n(y) themselves,
    which no certificate counts yet (ROADMAP item 8): measured against the
    30-digit terms, and held to 1e-13 M^2 sum_n |w_n|, the J_nu accuracy
    test_specfun asserts."""

    @pytest.mark.parametrize("case", range(5), ids=["PLUS", "ZERO", "MINUS", "nu=3/2", "Jacobi"])
    def test_within_tail_bound_and_rounding(self, case):
        basis, d = blocked_bases()[case], (1.0, 1.0, 2.0, 1.0, 1.0)[case]
        eng = PairEngine(basis, PAIRS + [(0.5, 0.5)])
        lam, rows = series_oracle(basis, np.unique(np.concatenate([eng.xs, eng.ys])))
        mp = pytest.importorskip("mpmath").mp
        lo, m2 = eng.n_min, eng.M * eng.M
        heat = (eng.heat_values, eng.lam, lam)
        poisson = (lambda t, tol: eng.poisson_values(t, d, tol),
                   np.sqrt(eng._shifted(d, eng.n_max + 1)), [mp.sqrt(d * d + v) for v in lam])
        for t, (call, omega, exact_omega) in [(3e-3, heat), (1e-2, heat), (0.1, heat),
                                              (1.0, heat), (0.5, poisson), (1.0, poisson)]:
            vals, n, bound = call(t, 1e-12)
            weights = np.exp(-t * omega)[lo : lo + n].tolist()
            prods = eng._pair_products(lo, lo + n).T.tolist()
            gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
            scale = m2 * sum(abs(w) for w in weights)
            with mp.workdps(30):
                exact_weights = [mp.exp(-t * v) for v in exact_omega]
                for val, p, i, j in zip(vals.tolist(), prods, eng.ix, eng.iy):
                    terms = [w * r[i] * r[j] for w, r in zip(exact_weights, rows)]
                    inputs = mp.fsum(abs(mp.mpf(w) * mp.mpf(q) - e)
                                     for w, q, e in zip(weights, p, terms))
                    assert inputs <= 1e-13 * scale, (t, i, j)
                    err = abs(val - mp.fsum(terms))
                    assert err <= bound + gamma * scale + inputs, (t, i, j, float(err), bound)


def series_floor(eng):
    """The near-time floor t_f of potential_series, from its docstring."""
    k = max(1.0, eng.n_max + 1 - eng.c_off)
    delta = max(1e-3, LOG45 / (math.pi * k) ** 2)
    closest = max(float(np.min(eng.dist)) ** 2 / 240.0, eng.u_floor)
    return max(min(closest, 0.5 * delta), eng.u_floor)


# sigma = 1: both potential routes are the Green function, closed form for
# the cosine (nu = -1/2 or Jacobi (-1/2, -1/2), d0 = 1) and half-sine
# (nu = 1/2, d0 = 0) systems.
GREEN_CASES = [
    (lambda: shared_basis(-0.5, n_max=2500), 1.0, neumann_green),
    (lambda: build_jacobi_basis(JacobiParams(-0.5, -0.5), 2500), 1.0, neumann_green),
    (lambda: shared_basis(0.5, n_max=2500), 0.0, lambda x, y: min(x, y)),
]


class TestPotentialKernels:
    def test_green_function_oracle(self):
        # The series is within its tail bound plus the rounding of its N-term
        # sum, gamma_N M^2 sum_n g_n (Higham, 2nd ed., §3.1 and §4.2).
        for make, d0, oracle in GREEN_CASES:
            eng = PairEngine(make(), PAIRS)
            vals, n_terms, bound = eng.potential_series(1.0, d0, 1e-9)
            lam = eng._potential_spectrum(d0)[eng.n_min : eng.n_min + n_terms]
            weights = _mode_weight(0.5, lam, series_floor(eng))
            assert np.count_nonzero(weights) == n_terms
            gamma = n_terms * 2.0**-53 / (1.0 - n_terms * 2.0**-53)
            rounding = gamma * eng.M**2 * float(np.sum(weights))
            ref = np.array([oracle(x, y) for x, y in PAIRS])
            assert np.max(np.abs(vals - ref)) <= bound + rounding, d0

    @pytest.mark.parametrize("n_max", [300, 3000])
    @pytest.mark.parametrize("sigma", [0.3, 1.6])
    @pytest.mark.parametrize("pair,floor", [((0.5, 0.505), "u_floor"), ((0.1, 0.9), 5e-4)])
    def test_tail_bound_covers_explicit_sum(self, n_max, sigma, pair, floor, monkeypatch):
        """With the skip set to 0, the certificate is the bound on the modes
        beyond n_max, at least M^2 times the sum of the next 10^5 weights at
        the analytic lower frequencies pi (n - c_off)."""
        monkeypatch.setattr(PairEngine, "_heat_skip_bound",
                            lambda self, sigma, T: np.zeros(self.n_pairs))
        eng = PairEngine(shared_basis(0.0, n_max=n_max), [pair])
        t_f = series_floor(eng)
        assert t_f == (eng.u_floor if floor == "u_floor" else floor)
        ns = np.arange(n_max + 1, n_max + 100_001, dtype=float)
        for d0 in (0.0, 1.0):
            _, _, tail = eng.potential_series(sigma, d0, 1e-9)
            freqs = (math.pi * (ns - eng.c_off)) ** 2 + d0 * d0
            assert tail >= eng.M**2 * float(np.sum(_mode_weight(0.5 * sigma, freqs, t_f)))

    def test_green_function_against_partial_sum(self):
        # Direct 10^6-term summation oracle at one off-diagonal point.
        n = np.arange(1, 1_000_001)
        w = math.pi * (n - 0.5)
        s = float(np.sum(2.0 * np.sin(w * 0.3) * np.sin(w * 0.6) / w**2))
        b = shared_basis(0.5, n_max=2500)
        vals, _, _ = PairEngine(b, [(0.3, 0.6)]).potential_series(1.0, 0.0, 1e-9)
        assert vals[0] == pytest.approx(s, abs=1e-8)

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 1.6])
    def test_series_vs_time_integral(self, sigma):
        b = shared_basis(0.0, n_max=2500)
        pairs = [(0.3, 0.6), (0.2, 0.5), (0.15, 0.85)]
        eng = PairEngine(b, pairs)
        v1, _, _ = eng.potential_series(sigma, 1.0, 1e-9)
        v2 = eng.potential_time_integral(sigma, 1.0, 1e-9)
        assert np.max(np.abs(v1 - v2) / np.abs(v1)) < 1e-6
        assert np.all(v1 > 0.0)

    def test_time_integral_counts_mode_tail(self, monkeypatch):
        """The bound on the modes beyond n_max is part of the time-integral
        certificate: with t_split forced down to 1e-4, where the closed-form
        part leaves a large share of the kernel to those modes, it fails the
        certificate and the message names it."""
        eng = PairEngine(shared_basis(0.0, n_max=2500), [(0.3, 0.6), (0.2, 0.5)])
        eng.potential_time_integral(0.3, 1.0, 1e-9)
        monkeypatch.setattr(kernels, "_direct_time", lambda m2, c_off, n_max, tol: 1e-4)
        with pytest.raises(TailBoundFailure, match=r"modes > 2500: ") as failed:
            eng.potential_time_integral(0.3, 1.0, 1e-9)
        modes = float(re.search(r"modes > 2500: (\S+)\)", str(failed.value)).group(1))
        assert modes > 1e-9

    @pytest.mark.parametrize("make,d0,oracle", GREEN_CASES)
    def test_time_integral_green_function_oracle(self, make, d0, oracle):
        pairs = [(0.3, 0.6), (0.1, 0.9), (0.45, 0.5), (0.05, 0.2), (0.7, 0.95)]
        vals = PairEngine(make(), pairs).potential_time_integral(1.0, d0, 1e-9)
        ref = np.array([oracle(x, y) for x, y in pairs])
        assert np.max(np.abs(vals - ref)) < 1e-8

    def test_positivity_across_regimes(self):
        pairs = [(0.3, 0.6), (0.1, 0.85), (0.45, 0.5)]
        for nu, d0 in ((-0.75, 1.0), (0.7, 1.0), (0.7, 0.0)):
            b = shared_basis(nu, n_max=2500)
            eng = PairEngine(b, pairs)
            for sigma in (0.3, 1.0):
                vals, _, _ = eng.potential_series(sigma, d0, 1e-9)
                assert np.all(vals > 0.0), (nu, d0, sigma)

    ROUNDING_GAP = pytest.mark.xfail(strict=True, raises=AssertionError,
                                     reason="tail bounds count no rounding (ROADMAP item 8)")

    @pytest.mark.parametrize("sigma", [1.0, pytest.param(20.0, marks=ROUNDING_GAP),
                                       pytest.param(50.0, marks=ROUNDING_GAP)])
    def test_series_bound_covers_time_integral(self, sigma):
        """Both routes certify tol 1e-9 on the MINUS engine at d = 2, so they
        agree within the series bound plus tol; at sigma = 20 (50) the series
        bound is 3.3e-121 (9.4e-288) against a gap of 1.4e-4 (1.2e12)."""
        eng = PairEngine(shared_basis(-0.75, -1.5, n_max=300), AGREEMENT_PAIRS)
        series, _, bound = eng.potential_series(sigma, 2.0, 1e-9)
        timed = eng.potential_time_integral(sigma, 2.0, 1e-9)
        assert np.max(np.abs(series - timed)) <= bound + 1e-9

    def test_riesz_dominates_bessel(self):
        b = shared_basis(0.7, n_max=2500)
        eng = PairEngine(b, [(0.3, 0.6), (0.2, 0.7)])
        for sigma in (0.75, 1.5):
            riesz, _, _ = eng.potential_series(sigma, 0.0, 1e-10)
            bessel, _, _ = eng.potential_series(sigma, 1.0, 1e-10)
            assert np.all(riesz >= bessel - 1e-12)

    def test_diagonal_guard_small_sigma(self):
        req = KernelRequest(
            kind=KernelKind.BESSEL_POT,
            params=SpectralParams(0.0, 0.5),
            time_or_sigma=0.4,
            grid=[(0.5, 0.5 + 5e-5)],
            tol=1e-9,
        )
        with pytest.raises(DiagonalSlowConvergence):
            potential_kernel(req)

    def test_riesz_regime_guard(self):
        with pytest.raises(SpectrumNotPositiveError):
            KernelRequest(
                kind=KernelKind.RIESZ_POT,
                params=SpectralParams(-0.75, 0.5),
                time_or_sigma=1.0,
                grid=PAIRS,
            )

    def test_falling_terms_sum_to_the_full_sum(self):
        x = np.geomspace(1.0, 1e4, 3000)
        term = lambda x: x**-0.6 * gammaincc(0.6, x)
        full = term(x)
        assert full[-1] == 0.0 and full[PSI_BLOCK_MODES] > 0.0
        out = _falling_terms(term, x)
        assert np.array_equal(out, full) and np.sum(out) == np.sum(full)
        # A last term that is not 0.0 evaluates every entry.
        bumpy = lambda x: np.where(x > 5e3, 1.0, term(x))
        assert np.array_equal(_falling_terms(bumpy, x), bumpy(x))

    def test_request_api_cross_check(self):
        req = KernelRequest(
            kind=KernelKind.BESSEL_POT,
            params=SpectralParams(0.0, 0.5),
            time_or_sigma=1.0,
            grid=[(0.3, 0.6)],
            tol=1e-8,
            n_max=2000,
        )
        out = potential_kernel(req)
        assert out[0].cross_check is not None
        assert out[0].cross_check < 1e-6 * abs(out[0].value)


def gauss_tail(t, n_cut, c_off):
    """The stated bound of _gauss_cuts on sum_{n>n_cut} exp(-t pi^2 (n-c_off)^2),
    the integral of the summand from n_cut - c_off on, one time at a time."""
    a = t * math.pi**2
    if n_cut <= c_off:
        return math.inf
    return 0.5 * math.sqrt(math.pi / a) * float(erfc(math.sqrt(a) * (n_cut - c_off)))


AGREEMENT_PAIRS = [(0.3, 0.6), (0.15, 0.45), (0.1, 0.9), (0.55, 0.8), (0.05, 0.2), (0.65, 0.95)]


def blocked_bases():
    """PLUS, ZERO, MINUS and nu = 3/2 Bessel bases and a Jacobi basis."""
    return [
        shared_basis(0.0, 0.5, n_max=300),
        shared_basis(0.0, 0.0, n_max=300),
        shared_basis(-0.75, -1.5, n_max=300),
        shared_basis(1.5, 0.5, n_max=300),
        build_jacobi_basis(JacobiParams(0.3, -0.5), 300),
    ]


def basis_psi(basis, eng):
    """psi (phi for a Jacobi basis) at every mode on the engine's coordinates,
    from the basis's psi_matrix (phi_matrix), not from the engine's rows."""
    coords = np.unique(np.concatenate([eng.xs, eng.ys]))
    full = basis.psi_matrix if isinstance(basis, BasisSpec) else basis.phi_matrix
    return full(coords)


def unshared(basis):
    """The same basis, with no rows or engines kept on it yet."""
    if isinstance(basis, BasisSpec):
        return BasisSpec(basis.params, basis.table, basis.n_max)
    return build_jacobi_basis(basis.jp, basis.k_max)


def blocked_engines():
    """Engines of the blocked_bases() on PAIRS and a diagonal pair."""
    return [PairEngine(b, PAIRS + [(0.5, 0.5)]) for b in blocked_bases()]


# The unpatched method, for the stand-ins of a monkeypatched _heat_rows.
HEAT_ROWS = PairEngine._heat_rows


def recorded_cuts(monkeypatch):
    """Every _gauss_cuts call from here on, as (args, result), the result the
    TailBoundFailure raised where it raised."""
    calls = []

    def record(*args):
        try:
            calls.append((args, _gauss_cuts(*args)))
        except TailBoundFailure as exc:
            calls.append((args, exc))
            raise
        return calls[-1][1]

    monkeypatch.setattr(kernels, "_gauss_cuts", record)
    return calls


def assert_gauss_cuts(args, result):
    """One _gauss_cuts call against its stated bound, per time: the cutoff N
    is the first rung of the ladder from its start (rung n is followed by n +
    max(1, n // 16)) whose bound scale * gauss_tail meets tol, and that bound
    is at least scale times the explicit tail sum; a failure names the first
    time none of whose rungs up to n_max meets tol."""
    start, ts, scale, c_off, tol, n_max, what = args
    scales = np.broadcast_to(scale, ts.shape)
    for i, (t, s, first) in enumerate(zip(ts.tolist(), scales.tolist(), start.tolist())):
        while first <= n_max and s * gauss_tail(t, first, c_off) > tol:
            first += max(1, first // 16)
        if isinstance(result, TailBoundFailure):
            if first > n_max:
                assert str(result) == (f"{what} tail cannot reach tol={tol:.2e} at t={t:.3e} "
                                       f"with {n_max} modes")
                return
            continue
        n, bound = int(result[0][i]), float(result[1][i])
        assert n == first and bound == s * gauss_tail(t, n, c_off) <= tol, (what, t, tol)
        a = t * math.pi**2
        m = np.arange(n + 1, n + 2 + int(math.sqrt(60.0 / a)), dtype=float)
        assert s * float(np.sum(np.exp(-a * (m - c_off) ** 2))) <= bound, (what, t, tol)
    assert not isinstance(result, TailBoundFailure), "a failure names a time whose ladder met tol"


def sequential_heat_rows(eng, ts, tol, rescale=0.0, lo=None):
    """One single-time heat evaluation per time (the path of heat_values),
    in the layout of PairEngine._heat_rows."""
    out = [HEAT_ROWS(eng, np.array([t]), tol, rescale, lo) for t in ts]
    rows = np.concatenate([o[0] for o in out]).reshape(len(ts), eng.n_pairs)
    cuts = np.concatenate([o[1] for o in out])
    return rows, cuts, np.concatenate([o[2] for o in out])


def assert_rows_close(rows, ref, rel=1e-14, scale=None):
    # Relative to each row's largest value: entries far below it (a heat
    # kernel far from the diagonal at small t) carry only rounding noise.
    scale = np.max(np.abs(ref if scale is None else scale), axis=1, keepdims=True)
    assert np.all(np.abs(rows - ref) <= rel * scale)


class TestBlockedHeat:
    TIMES = np.geomspace(1e-6, 10.0, 400)

    def test_heat_cuts_meet_their_bound(self, monkeypatch):
        """Every heat cutoff and failure, in a batch and one time at a time,
        plain and rescaled, meets the stated Gaussian bound (assert_gauss_cuts)
        with scale M^2 e^{rescale t}."""
        calls = recorded_cuts(monkeypatch)
        for eng in blocked_engines():
            for tol, rescale in itertools.product((1e-6, 1e-9, 1e-11, 1e-12), (0.0, 10.0)):
                for ts in [self.TIMES[::-1]] + [np.array([t]) for t in self.TIMES[::3]]:
                    try:
                        eng._heat_rows(ts, tol, rescale)
                    except TailBoundFailure:
                        pass
                assert isinstance(calls[0][1], TailBoundFailure)
                assert {type(result) for _, result in calls} == {tuple, TailBoundFailure}
                for args, result in calls:
                    scale = eng.M * eng.M * np.exp(np.minimum(args[1] * rescale, 700.0))
                    assert np.array_equal(args[2], scale)
                    assert_gauss_cuts(args, result)
                calls.clear()

    def test_rows_match_heat_values(self):
        ts = np.geomspace(1e-4, 5.0, 150)
        for eng in blocked_engines():
            rows, cuts, bounds = eng._heat_rows(ts, 1e-10)
            ref, ref_cuts, ref_bounds = sequential_heat_rows(eng, ts, 1e-10)
            assert np.array_equal(cuts, ref_cuts)
            assert np.array_equal(bounds, ref_bounds)
            assert_rows_close(rows, ref)

    def test_grid_rows_match_per_time_loop(self):
        """The heat grid's rows are e^{-d^2 u} G_u from one heat evaluation
        (rescaled by -d^2) per node, over the modes from grid.lo (past the
        lam' = 0 mode of ZERO at d = 0)."""
        for eng, d in zip(blocked_engines(), (0.0, 0.0, 2.0, 1.0, 1.0)):
            grid = _build_heat_grid(eng, d, 1e-9)
            lam = eng._shifted(d, eng.n_max + 1)
            zero = lam[eng.n_min :] == 0.0
            assert grid.lo == eng.n_min + int(np.count_nonzero(zero)) and zero.sum() <= zero[0]
            heat = np.empty_like(grid.rows)
            ref = np.empty_like(grid.rows)
            for j, u in enumerate(grid.u):
                heat[j], _, _ = eng.heat_values(u, 0.25e-9, rescale=-d * d)
                head = slice(eng.n_min, grid.lo)
                ref[j] = heat[j] - np.exp(-u * lam[head]) @ eng._pair_products(head.start,
                                                                              head.stop)
            # Compared on the scale of the heat values the rows are a part of.
            assert_rows_close(grid.rows, ref, scale=heat)

    def test_sup_raise_matches_sequential(self):
        """With M lowered by hand, the sup invariant raises on both paths and
        M stays as it was set."""
        ts = np.geomspace(1e-4, 1.0, 60)
        for blocked, sequential in zip(blocked_engines(), blocked_engines()):
            low = 0.1 * blocked.M
            blocked.M = sequential.M = low
            with pytest.raises(ConsistencyError, match="exceeds the sup bound"):
                blocked._heat_rows(ts, 1e-10)
            with pytest.raises(ConsistencyError, match="exceeds the sup bound"):
                sequential_heat_rows(sequential, ts, 1e-10)
            assert blocked.M == sequential.M == low

    def test_potentials_match_sequential_rows(self, monkeypatch):
        """The time integral on sequential heat rows equals it on blocked ones;
        the series forms no heat rows (it runs with _heat_rows unavailable)."""
        for d0, nu in [(1.0, -0.75), (1.0, 0.0), (1.0, 1.5), (0.0, 0.0), (0.0, 1.5)]:
            timed = PairEngine(shared_basis(nu, n_max=3000),
                               AGREEMENT_PAIRS).potential_time_integral(0.3, d0, 1e-9)
            eng = PairEngine(shared_basis(nu, n_max=3000), AGREEMENT_PAIRS)
            with monkeypatch.context() as m:
                m.setattr(PairEngine, "_heat_rows", None)  # any heat row call fails
                for s in (0.3, 1.6):
                    eng.potential_series(s, d0, 1e-9)
                m.setattr(PairEngine, "_heat_rows", sequential_heat_rows)
                ref = eng.potential_time_integral(0.3, d0, 1e-9)
            assert np.max(np.abs(timed - ref) / np.abs(ref)) <= 1e-12

    def test_leak_failure_before_grid(self, monkeypatch):
        """poisson_values refuses a pair closer than min_usable_dist below the
        resolvable time scale before building a heat grid, naming the closest
        pair and the least --n-max at which the direct series fits this t."""
        eng = PairEngine(shared_basis(0.0, n_max=300), PAIRS + [(0.5, 0.5)])
        assert eng.leak_scale == math.inf
        monkeypatch.setattr(PairEngine, "_heat_rows", None)  # any grid build fails
        with pytest.raises(TailBoundFailure) as early:
            eng.poisson_values(1e-3, 0.0, 1e-10)
        message = str(early.value)
        assert message.startswith("subordinated Poisson certificate inf too large at t=1.000e-03: "
                                  "the closest pair is 0.000e+00 apart")
        assert f"min_usable_dist = {eng.min_usable_dist:.3e} have no bound" in message
        need = int(re.search(r"would need --n-max >= (\d+) at this t", message).group(1))
        cap = int(X_MAX_J / math.pi)
        assert message.endswith(f"{'above' if need > cap else 'within'} the Bessel cap of about "
                                f"{cap} modes")
        fits = lambda n_max: PairEngine._poisson_cut(
            SimpleNamespace(M=eng.M, c_off=eng.c_off, n_min=eng.n_min, n_max=n_max), 1e-3, 1e-10)
        assert fits(need) is not None and fits(need - 1) is None
        assert eng._heat_grids == {}

    def test_time_integral_leak_failure_before_heat_grid(self, monkeypatch):
        """potential_time_integral refuses a pair closer than min_usable_dist
        before any heat grid is built, naming the closest pair and
        min_usable_dist; a diagonal pair becomes usable at no --n-max."""
        eng = PairEngine(shared_basis(0.0, n_max=300), [(0.5, 0.5), (0.3, 0.6)])
        monkeypatch.setattr(PairEngine, "_heat_rows", None)  # any grid build fails
        for sigma in (0.3, 1.0):
            with pytest.raises(TailBoundFailure) as timed:
                eng.potential_time_integral(sigma, 1.0, 1e-9)
            assert eng._heat_grids == {}
            assert str(timed.value) == (
                "potential time integral: the closest pair is 0.000e+00 apart, closer than "
                f"min_usable_dist = {eng.min_usable_dist:.3e}, and has no kernel bound below the "
                "resolvable time scale; it becomes usable at no --n-max")

    def test_time_integral_leak_failure_names_usable_n_max(self):
        """The refusal names the --n-max from which the closest pair is
        usable, c_off + sqrt(200 LOG45) / (pi d_min); one mode fewer is
        refused, and at that n_max the time integral certifies and agrees
        with the series."""
        pairs = [(0.3, 0.6), (0.5, 0.55)]
        eng = PairEngine(build_basis(SpectralParams(0.0, 0.5), 300), pairs)
        with pytest.raises(TailBoundFailure, match="closest pair is 5.000e-02 apart") as refused:
            eng.potential_time_integral(1.0, 1.0, 1e-9)
        need = int(re.search(r"usable from --n-max (\d+)$", str(refused.value)).group(1))
        d_min = float(np.min(eng.dist))
        assert need == math.ceil(eng.c_off + math.sqrt(200.0 * LOG45) / (math.pi * d_min))
        short = PairEngine(build_basis(SpectralParams(0.0, 0.5), need - 1), pairs)
        with pytest.raises(TailBoundFailure, match=f"usable from --n-max {need}$"):
            short.potential_time_integral(1.0, 1.0, 1e-9)
        usable = PairEngine(build_basis(SpectralParams(0.0, 0.5), need), pairs)
        assert usable.min_usable_dist <= d_min
        for sigma in (0.6, 1.0):
            timed = usable.potential_time_integral(sigma, 1.0, 1e-9)
            series, _, _ = usable.potential_series(sigma, 1.0, 1e-9)
            assert np.max(np.abs(timed - series)) <= 2e-9

    def test_heat_grids_share_one_leak_scale(self, monkeypatch):
        """The leak scale is the engine's: formed once, on first use, for the
        subordinated values on the heat grid of every (d, tol); the heat grids
        hold no certificate inputs beyond their own rule and range."""
        calls, original = [], PairEngine.leak_scale.func

        def leak_scale(eng):
            calls.append(eng)
            return original(eng)

        prop = functools.cached_property(leak_scale)
        prop.__set_name__(PairEngine, "leak_scale")
        monkeypatch.setattr(PairEngine, "leak_scale", prop)
        eng = PairEngine(shared_basis(0.0, n_max=300), [(0.2, 0.5), (0.3, 0.7)])
        assert calls == []
        eng.poisson_values(1e-3, 0.0, 1e-9)
        eng.poisson_values(1e-3, 1.0, 1e-10)
        assert calls == [eng] and list(eng._heat_grids) == [(0.0, 1e-9), (1.0, 1e-10)]
        for grid in eng._heat_grids.values():
            for name in ("leak_scale", "min_usable_dist", "u_floor", "tol"):
                assert not hasattr(grid, name)

    def test_engine_freed_without_cycle_collection(self):
        eng = PairEngine(shared_basis(0.0, n_max=300), PAIRS)
        eng._heat_grid(1.0, 1e-9)
        ref = weakref.ref(eng)
        gc.disable()
        try:
            del eng
            assert ref() is None
        finally:
            gc.enable()


def cosine_poisson_oracle(t, x, y):
    """The Neumann cosine Poisson kernel (nu = -1/2, the ZERO regime) at d =
    0, 1 + 2 sum_n r^n cos(n pi x) cos(n pi y) with r = e^{-pi t}, Abel-summed:
    sum_{n >= 0} r^n cos(n theta) = (1 - r cos theta) / (1 - 2 r cos theta + r^2)."""
    r = math.exp(-math.pi * t)
    c = lambda th: (1.0 - r * math.cos(th)) / (1.0 - 2.0 * r * math.cos(th) + r * r)
    return c(math.pi * (x - y)) + c(math.pi * (x + y)) - 1.0


def subordinated_times(eng, tol, lo=1 / 50):
    """Six times from lo t_direct to 0.9 t_direct, t_direct the time below
    which poisson_values subordinates."""
    t_direct = 0.5 * _direct_time(eng.M * eng.M, eng.c_off, eng.n_max, tol)
    ts = np.geomspace(lo * t_direct, 0.9 * t_direct, 6)
    assert all(eng._poisson_cut(t, tol) is None for t in ts)
    return ts


class TestSubordinatedOracle:
    """Subordinated Poisson values against closed forms and against the direct
    series of a larger basis, within their certificates."""

    # The half-sine (nu = 1/2) and cosine (nu = -1/2, whose lam_0 = 0 is
    # summed off the grid) kernels at d = 0.
    ORACLES = [(0.5, poisson_sine_oracle), (-0.5, cosine_poisson_oracle)]

    @pytest.mark.parametrize("n_max", [300, 2000])
    @pytest.mark.parametrize("nu,oracle", ORACLES)
    def test_closed_form(self, nu, oracle, n_max):
        eng = PairEngine(shared_basis(nu, n_max=n_max), AGREEMENT_PAIRS)
        for tol in (1e-9, 1e-12):
            for t in subordinated_times(eng, tol):
                vals, n_terms, bound = eng.poisson_values(t, 0.0, tol)
                ref = np.array([oracle(t, x, y) for x, y in AGREEMENT_PAIRS])
                assert n_terms == eng.n_max - eng.n_min + 1 and bound <= 4.0 * tol
                assert np.max(np.abs(vals - ref)) <= bound, (t, tol)

    def test_larger_basis_direct_series(self):
        """PLUS, ZERO, MINUS (at d = 2 and at d = z_0, where lam'_0 = 0) and nu
        = 3/2: subordinated values at n_max 300 against the direct series at
        n_max 3000, whose direct range reaches these times, within the sum of
        both certificates."""
        cases = [((0.0, 0.5), 0.0), ((0.0, 0.0), 0.0), ((-0.75, -1.5), 2.0),
                 ((-0.75, -1.5), None), ((1.5, 0.5), 1.0)]
        for (nu, h), d in cases:
            small = PairEngine(shared_basis(nu, h, n_max=300), AGREEMENT_PAIRS)
            large = PairEngine(shared_basis(nu, h, n_max=3000), AGREEMENT_PAIRS)
            d = math.sqrt(-small.lam[0]) if d is None else d
            for t in subordinated_times(small, 1e-9, lo=1 / 8):
                vals, _, bound = small.poisson_values(t, d, 1e-9)
                assert large._poisson_cut(t, 1e-9) is not None
                ref, _, ref_bound = large.poisson_values(t, d, 1e-9)
                assert np.max(np.abs(vals - ref)) <= bound + ref_bound, (nu, h, d, t)
            zero = small._shifted(d, small.n_max + 1)[small.n_min] == 0.0
            assert small._heat_grids[d, 1e-9].lo == small.n_min + zero


def full_rows(eng, u, d, lo):
    """e^{-d^2 u} G_u over every stored mode from lo, one row per u: the
    n_max-mode kernel, analytic in u and bounded like the grid's rows."""
    prods = eng._pair_products(0, eng.n_max + 1)
    return _exp_rows(u, eng._shifted(d, eng.n_max + 1), lo, np.full(u.size, eng.n_max), prods)


class TestHeatGridRule:
    """The u-rule's stated bound (_HeatGrid.rule_bound) covers its error
    against a rule with 4x the panels at order 32, for the potential weight
    and the Poisson density, on the five engines of blocked_bases(). At the
    coarse rule (1 panel per decade, order 8) the errors are 1e-9 to 1e-8 of
    the sums, far above rounding, and the bound is 1e4 to 5e5 times the
    error; at the grid's own rule the errors are at the level of the
    weights' evaluation error and rounding."""

    @pytest.mark.parametrize("per_decade,order", [(1, 8), (U_PANELS_PER_DECADE, U_ORDER)])
    def test_bound_covers_finer_rule(self, per_decade, order, monkeypatch):
        monkeypatch.setattr(kernels, "U_PANELS_PER_DECADE", per_decade)
        monkeypatch.setattr(kernels, "U_ORDER", order)
        density = lambda t, u: t / (2.0 * math.sqrt(math.pi)) * u**-1.5 * np.exp(-t * t / (4.0 * u))
        # The potential's d, and the Poisson's (ZERO at d = 0 has lam'_0 = 0).
        for basis, d_pot, d_poisson in zip(blocked_bases(), (1.0, 1.0, 2.0, 1.0, 1.0),
                                           (1.0, 0.0, 2.0, 1.0, 1.0)):
            eng = PairEngine(basis, AGREEMENT_PAIRS)
            t_split = mode_cut_args(eng, 1.0, 1e-9)[1]
            for d, weights in (
                (d_pot, [(lambda u, s=s: _time_weight(s, u, t_split),
                          lambda g, s=s: _time_weight_max(s, t_split, g.r_lo, g.r_hi))
                         for s in (SIGMA_MIN, 0.3, 1.0, 1.6, 20.0, SIGMA_MAX)]),
                (d_poisson, [(lambda u, t=t: density(t, u),
                              lambda g, t=t: _density_max(t, g.r_lo, g.r_hi))
                             for t in subordinated_times(eng, 1e-9)]),
            ):
                grid = _build_heat_grid(eng, d, 1e-9)
                fine_u, fine_w, _ = _log_panel_rule(eng.u_floor, grid.u_max, 4 * per_decade, 32)
                rows, fine_rows = full_rows(eng, grid.u, d, grid.lo), full_rows(eng, fine_u, d,
                                                                                  grid.lo)
                for weight, weight_max in weights:
                    terms = weight(grid.u) * grid.w
                    err = np.max(np.abs(terms @ rows - (weight(fine_u) * fine_w) @ fine_rows))
                    # The evaluation error of the weights and the rounding of
                    # both sums: scipy's gammainc at a = 50.5 moves the sums by
                    # about 1e-12 of the sum of |terms| from rule to rule.
                    rounding = 1e-11 * np.max(np.abs(terms) @ np.abs(rows))
                    assert err <= grid.rule_bound(weight_max(grid)) + rounding, (basis, d)

    def test_bound_far_below_tol(self):
        """At the grid's rule the stated bound is below 1e-15 on the bench bases
        at n_max 3000, for both weights: far below any tol >= 1e-12."""
        for nu in (-0.75, -0.5, 0.0, 1.5, 0.5):
            eng = PairEngine(shared_basis(nu, n_max=3000), POTENTIAL_PAIRS)
            t_split = mode_cut_args(eng, 1.0, 1e-12)[1]
            grid = eng._heat_grid(1.0, 1e-12)
            bounds = [grid.rule_bound(_time_weight_max(s, t_split, grid.r_lo, grid.r_hi))
                      for s in (SIGMA_MIN, 0.3, 1.0, 1.6, 20.0, SIGMA_MAX)]
            bounds += [grid.rule_bound(_density_max(t, grid.r_lo, grid.r_hi))
                       for t in subordinated_times(eng, 1e-12)]
            assert max(bounds) <= 1e-15, nu


class TestCoordinateProducts:
    """Engines keep psi on their coordinates, not a table of pair products,
    and form the products of the basis's own psi_matrix (phi_matrix)."""

    def test_no_pair_table_stored(self):
        coords = boundary_refined_coords(60)
        eng = PairEngine(shared_basis(0.5, n_max=3000), pair_grid(coords))
        assert eng.n_pairs == 5184
        _, n_terms, _ = eng.heat_values(1e-3, 1e-10)
        assert eng.psi.shape[0] <= 2 * (n_terms + SUM_ALIGN)
        arrays = [eng.psi] + [v for v in vars(eng).values() if isinstance(v, np.ndarray)]
        for a in arrays:
            assert not (a.ndim == 2 and a.shape[1] == eng.n_pairs and a.shape[0] > PSI_BLOCK_MODES)
        assert sum(a.nbytes for a in arrays) <= 2 * 3001 * 72 * 8

    def test_pair_products(self):
        for basis in blocked_bases():
            eng = PairEngine(basis, PAIRS + [(0.5, 0.5)])
            psi = basis_psi(basis, eng)
            table = psi[:, eng.ix] * psi[:, eng.iy]
            assert np.array_equal(eng._pair_products(0, eng.n_max + 1), table)
            assert np.array_equal(eng._pair_products(eng.n_min, 17), table[eng.n_min : 17])


def time_weight_by_quad(sigma, u, a, b):
    """(1/Gamma(2 sigma)) int_a^b t^{2 sigma - 1} m_t(u) dt by adaptive quadrature."""
    density = lambda t: (t ** (2.0 * sigma) / math.gamma(2.0 * sigma) / (2.0 * math.sqrt(math.pi))
                         * u**-1.5 * math.exp(-t * t / (4.0 * u)))
    peak = math.sqrt(4.0 * sigma * u)  # where t^{2 sigma} e^{-t^2/4u} is largest
    points = [peak] if a < peak < b else None
    val, _ = quad(density, a, b, points=points, epsabs=0.0, epsrel=1e-13, limit=500)
    return val


class TestExchangedOrder:
    """Below t_split, potential_time_integral integrates the heat grid of
    (d, tol) against the closed-form weights I_sigma(u), with no Poisson
    values."""

    def test_builds_one_heat_grid(self, monkeypatch):
        """No Poisson value is subordinated per node: the powers share the one
        heat grid of (d, tol), read-only."""

        def fail(*args):
            raise AssertionError("the time integral must not subordinate per node")

        monkeypatch.setattr(PairEngine, "_subordinated", fail)
        eng = PairEngine(shared_basis(0.0, n_max=3000), AGREEMENT_PAIRS)
        for sigma in (0.3, 1.6):
            eng.potential_time_integral(sigma, 1.0, 1e-9)
        assert list(eng._heat_grids) == [(1.0, 1e-9)]
        grid = eng._heat_grids[1.0, 1e-9]
        assert grid.s_max <= 1e-9 / 16 and grid.lo == eng.n_min
        assert grid.u.size == grid.r_lo.size * U_ORDER
        for a in (grid.u, grid.w, grid.rows, grid.r_lo, grid.r_hi, grid.heat):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize("sigma,u,a,b", [
        (0.3, 2.0, 1e-6, 6e-3),  # b^2/4u far below sigma + 1/2
        (1.6, 2.0, 1e-3, 8e-3),
        (1.0, 1e-5, 1.6e-5, 7e-3),
        (0.5, 1e-7, 3.5e-3, 6e-3),  # a^2/4u above sigma + 1/2
        (0.3, 4e-8, 3e-8, 6.4e-3),
        (1.6, 3e-6, 1e-3, 8e-3),  # a^2/4u below and b^2/4u above sigma + 1/2
        (0.3, 2.0, 0.0, 6e-3),  # the weights of [0, b) that potential_time_integral uses
        (1.0, 1e-5, 0.0, 7e-3),
        (0.5, 1e-7, 0.0, 6e-3),
        (1.6, 3e-6, 0.0, 8e-3),
        (0.6, 5e-7, 0.0, 1.5e-3),  # b^2/4u near sigma + 1/2
    ])
    def test_time_weight_matches_quad(self, sigma, u, a, b):
        """The weight of [0, b) is the quadrature over [0, b) to 1e-12; for
        a > 0, the weight of [0, b) less that of [0, a) is the quadrature over
        [a, b) to 1e-12 of the weight of [0, b) (the difference cancels where
        both P are near 1)."""
        whole = _time_weight(sigma, np.array([u]), b)[0]
        assert whole == pytest.approx(time_weight_by_quad(sigma, u, 0.0, b), rel=1e-12, abs=0.0)
        if a > 0.0:
            ref = time_weight_by_quad(sigma, u, a, b)
            got = whole - _time_weight(sigma, np.array([u]), a)[0]
            assert got == pytest.approx(ref, rel=0.0, abs=1e-12 * whole)

    def test_time_weight_total_mass(self):
        """int_0^inf I_sigma(u) du = b^{2 sigma} / Gamma(2 sigma + 1) for the
        weight of [0, b), and the difference of two such masses for [a, b)."""
        lo = 1e-16
        nodes, weights, _ = _log_panel_rule(lo, 1e12, per_decade=8, order=24)
        for sigma, a, b in ((0.3, 1e-6, 6e-3), (1.0, 1e-4, 7e-3), (1.6, 1e-3, 8e-3),
                            (0.3, 0.0, 6e-3), (0.6, 0.0, 2e-3), (1.6, 0.0, 8e-3)):
            mass = (b ** (2 * sigma) - a ** (2 * sigma)) / math.gamma(2 * sigma + 1)
            total = float(weights @ _time_weight(sigma, nodes, b))
            if a > 0.0:
                total -= float(weights @ _time_weight(sigma, nodes, a))
            else:
                # Below lo, b^2/4u > 1e10 and P = 1: I_sigma = u^{sigma-1} / Gamma(sigma).
                total += lo**sigma / math.gamma(sigma + 1.0)
            # I_sigma falls like u^{-3/2}: the part beyond u = 1e12 is below
            # 3e-9 of the mass here.
            assert total == pytest.approx(mass, rel=1e-8), (sigma, a, b)

    def test_negative_eigenvalue_grid_finite(self):
        """At nu = -0.75, H = 1/2 the lowest unshifted eigenvalue is negative,
        so G_u grows with u; the grid holds e^{-d^2 u} G_u from the shifted
        spectrum (rescale = -d^2): finite, and the route agrees with the
        series."""
        eng = PairEngine(shared_basis(-0.75, n_max=3000), AGREEMENT_PAIRS)
        assert eng.lam[eng.n_min] < 0.0
        series, _, _ = eng.potential_series(1.0, 1.0, 1e-9)
        timed = eng.potential_time_integral(1.0, 1.0, 1e-9)
        assert np.max(np.abs(timed - series)) <= 2e-9
        grid = eng._heat_grids[1.0, 1e-9]
        assert np.all(np.isfinite(grid.rows))
        vals, _, _ = eng.heat_values(float(grid.u[-1]), 0.25e-9, rescale=-1.0)
        assert np.array_equal(grid.rows[-1], vals)

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 1.6])
    def test_failure_names_every_part(self, sigma, monkeypatch):
        """A failed certificate (here forced by a modes part of 2 tol) names
        its four parts, the modes part with its cut N; the other three parts
        stay below tol/4."""
        eng = PairEngine(shared_basis(0.0, n_max=2500), [(0.3, 0.6), (0.2, 0.5), (0.15, 0.85)])
        cut = kernels._mode_cut
        monkeypatch.setattr(kernels, "_mode_cut", lambda *args: (cut(*args)[0], 2e-9))
        with pytest.raises(TailBoundFailure) as failed:
            eng.potential_time_integral(sigma, 1.0, 1e-9)
        items = str(failed.value).split("(", 1)[1].rstrip(")").split(", ")
        names = [re.sub(r":? \S+$", "", item) for item in items]
        values = [float(item.rsplit(" ", 1)[1]) for item in items]
        assert names[:3] == ["u-rule", f"u < {eng.u_floor:.1e}", "u > u_max"] and len(names) == 4
        n_cut = cut(*mode_cut_args(eng, sigma, 1e-9))[0]
        assert names[3] == f"modes > {n_cut}" and n_cut < 2500
        assert values[3] == 2e-9 and sum(values[:3]) <= 1e-9 / 4

    def test_route_gap(self):
        """On the five engines of blocked_bases() (the Bessel ones at n_max
        3000), at four sigma, the two routes differ by at most 5e-12 at tol
        1e-9 (7.1e-12 when the time integral started at the t_lo of a
        short-time envelope bound and summed every stored mode)."""
        bases = [shared_basis(0.0, 0.5, n_max=3000), shared_basis(0.0, 0.0, n_max=3000),
                 shared_basis(-0.75, -1.5, n_max=3000), shared_basis(1.5, 0.5, n_max=3000),
                 build_jacobi_basis(JacobiParams(0.3, -0.5), 300)]
        gap = 0.0
        for basis, d in zip(bases, (1.0, 1.0, 2.0, 1.0, 1.0)):
            eng = PairEngine(basis, AGREEMENT_PAIRS)
            for sigma in (0.3, 0.6, 1.0, 1.6):
                series, _, _ = eng.potential_series(sigma, d, 1e-9)
                timed = eng.potential_time_integral(sigma, d, 1e-9)
                gap = max(gap, float(np.max(np.abs(timed - series))))
        assert gap <= 5e-12


def mode_cut_args(eng, sigma, tol):
    """The arguments potential_time_integral passes to _mode_cut."""
    t_split = _direct_time(eng.M * eng.M, eng.c_off, eng.n_max, 0.125 * tol)
    scale = eng.M * eng.M / -math.expm1(-math.pi * t_split)
    return sigma, t_split, eng.c_off, eng.n_min, eng.n_max, scale, tol / 16.0


class TestClosedFormTail:
    """Above t_split, potential_time_integral sums one closed-form weight per
    stored mode, f(omega) = omega^{-2 sigma} Q(2 sigma, t_split omega), and
    bounds the modes beyond n_max by M^2 f(w) / (1 - e^{-pi t_split})."""

    @pytest.mark.parametrize("sigma", [1e-3, 0.15, 0.3, 0.6, 1.0, 1.6, 7.5, SIGMA_MAX])
    def test_mode_weight_matches_mpmath(self, sigma):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.mp.workdps(30):
            s2 = 2 * mpmath.mpf(sigma)
            for t in (1e-4, 5e-3, 0.1, 2.0):
                for omega in (0.4, 1.0, 3.0, 100.0, 3e3, 9.4e3):
                    x = mpmath.mpf(t) * mpmath.mpf(omega)
                    ref = float(mpmath.mpf(omega) ** -s2 * mpmath.gammainc(s2, x, mpmath.inf,
                                                                           regularized=True))
                    got = float(_mode_weight(sigma, omega, t))
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-300), (sigma, t, omega)

    def test_mode_weight_falls_geometrically(self):
        """f falls as omega grows, and f(omega + pi) <= e^{-pi t} f(omega):
        the two facts behind the bound on the modes beyond n_max."""
        omega = np.geomspace(0.05, 3e4, 600)
        for sigma in (1e-3, 0.3, 0.5, 1.0, 1.6, 5.0, SIGMA_MAX):
            for t in (1e-5, 1e-3, 5e-3, 0.05, 1.0, 10.0):
                f = _mode_weight(sigma, omega, t)
                step = _mode_weight(sigma, omega + math.pi, t)
                assert np.all(np.diff(f) <= 0.0), (sigma, t)
                assert np.all(step <= math.exp(-math.pi * t) * f), (sigma, t)

    @pytest.mark.parametrize("nu,h", [(0.0, 0.5), (0.0, 0.0), (-0.75, -1.5), (1.5, 0.5)])
    def test_beyond_bound_covers_larger_table(self, nu, h):
        """The bound f(w) / (1 - e^{-pi t}) of a 300-mode table, w = pi (301 -
        c_off), covers the modes 301..3000 of a 3000-mode table at the same
        (nu, H), with the shift d = 1."""
        small = build_basis(SpectralParams(nu, h), 300)
        c_off = PairEngine(small, AGREEMENT_PAIRS).c_off
        large = shared_basis(nu, h, n_max=3000)
        omega = np.sqrt(1.0 + large.eigen[301:])
        w = math.pi * (301 - c_off)
        for sigma in (0.3, 1.0, 1.6):
            for t in (1e-3, 1e-2, 0.1):
                bound = _mode_weight(sigma, w, t) / -math.expm1(-math.pi * t)
                assert float(np.sum(_mode_weight(sigma, omega, t))) <= bound

    def test_mode_tail_far_below_tol(self):
        """At t_split the modes beyond n_max take under 1e-20 on the
        benchmark's bases (n_max = 3000, tol = 1e-9)."""
        tails = []
        for nu in (-0.75, -0.5, 0.0, 1.5, 0.5):
            eng = PairEngine(shared_basis(nu, n_max=3000), POTENTIAL_PAIRS)
            t_split = _direct_time(eng.M * eng.M, eng.c_off, eng.n_max, 0.125e-9)
            w = math.pi * (eng.n_max + 1 - eng.c_off)
            for sigma in POTENTIAL_SIGMAS:
                tails.append(eng.M**2 * _mode_weight(sigma, w, t_split)
                             / -math.expm1(-math.pi * t_split))
        assert max(tails) <= 1e-20


class TestModeCut:
    """Above t_split the closed-form modes stop at N, the least n >= n_min
    whose bound M^2 f(pi (n + 1 - c_off)) / (1 - e^{-pi t_split}) on the
    modes beyond n is at most tol/16 (kernels._mode_cut)."""

    ENGINES = ((0.0, 0.5, 1.0), (-0.75, -1.5, 2.0), (1.5, 0.5, 1.0))

    @pytest.mark.parametrize("sigma", [0.3, 0.6, 1.0, 1.6])
    def test_least_certified_n(self, sigma):
        engines = [PairEngine(shared_basis(nu, h, n_max=3000), AGREEMENT_PAIRS)
                   for nu, h, _ in self.ENGINES]
        engines.append(PairEngine(build_jacobi_basis(JacobiParams(0.3, -0.5), 300),
                                  AGREEMENT_PAIRS))
        for eng in engines:
            args = mode_cut_args(eng, sigma, 1e-9)
            _, t_split, c_off, n_min, n_max, scale, tol = args
            bound = lambda n: scale * float(_mode_weight(sigma, math.pi * (n + 1 - c_off),
                                                         t_split))
            n_cut, modes = kernels._mode_cut(*args)
            assert n_min < n_cut <= n_max // 2
            assert modes == bound(n_cut) <= tol < bound(n_cut - 1)

    def test_prototype_cuts(self):
        """At nu = 0, H = 1/2, n_max 3000 on AGREEMENT_PAIRS (tol 1e-9)."""
        eng = PairEngine(shared_basis(0.0, 0.5, n_max=3000), AGREEMENT_PAIRS)
        cuts = [kernels._mode_cut(*mode_cut_args(eng, s, 1e-9))[0] for s in (0.3, 0.6, 1.0, 1.6)]
        assert cuts == [1150, 1021, 813, 477]

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 1.6])
    def test_all_modes_within_modes_part(self, sigma, monkeypatch):
        """Summing every stored mode instead of the modes up to N moves the
        value by no more than the modes part of the certificate."""
        for nu, h, d in self.ENGINES:
            eng = PairEngine(shared_basis(nu, h, n_max=3000), AGREEMENT_PAIRS)
            cut = eng.potential_time_integral(sigma, d, 1e-9)
            _, modes = kernels._mode_cut(*mode_cut_args(eng, sigma, 1e-9))
            with monkeypatch.context() as m:
                m.setattr(kernels, "_mode_cut", lambda *args: (args[4], 0.0))
                every = eng.potential_time_integral(sigma, d, 1e-9)
            assert 0.0 < np.max(np.abs(every - cut)) <= modes, (nu, sigma)


class TestLazyRows:
    """An engine forms psi rows on demand, up to exactly the largest cutoff
    asked for so far, and a grown row is the basis's row to the last bit
    whatever order the calls come in."""

    def test_rows_bounded_by_the_cutoff(self):
        # The grid-60 pairs at least 0.05 apart (all 72 coordinates), where
        # the potential series is certified.
        grid = [(x, y) for x, y in pair_grid(boundary_refined_coords(60)) if abs(x - y) >= 0.05]
        eng = PairEngine(fresh_basis(0.5), grid)
        assert eng.psi.shape == (0, 72)
        # The heat sum reads the modes up to its cutoff N plus SUM_ALIGN.
        _, n_terms, _ = eng.heat_values(0.0605, 1e-10)
        assert eng.psi.shape[0] == eng.n_min + n_terms - 1 + SUM_ALIGN
        # The series reads the rows of its nonzero multipliers, the modes
        # n_min..top - 1, in blocks of PSI_BLOCK_MODES: up to the end of the
        # last block.
        _, n_terms, _ = eng.potential_series(0.6, 1.0, 1e-9)
        top = eng.n_min + n_terms
        assert 3 * PSI_BLOCK_MODES < top < 3000
        blocks = -(-n_terms // PSI_BLOCK_MODES)
        assert eng.psi.shape[0] == eng.n_min + blocks * PSI_BLOCK_MODES

    def test_series_grows_rows_once(self, monkeypatch):
        """The potential series asks for the rows of all its blocks at once."""
        grows = []
        original = RowStore.upto
        monkeypatch.setattr(RowStore, "upto", lambda store, hi: grows.append(
            store.rows.shape[0] < min(hi, store.n_rows)) or original(store, hi))
        eng = PairEngine(fresh_basis(0.5), [(0.2, 0.5), (0.3, 0.9)])
        _, n_terms, _ = eng.potential_series(0.6, 1.0, 1e-9)
        assert n_terms > 3 * PSI_BLOCK_MODES and grows.count(True) == 1

    def test_engines_share_the_basis_rows(self):
        """Engines on one basis over the same coordinates, and semigroup_apply
        on them, read one row store, kept on the basis."""
        b = fresh_basis(0.0, n_max=300)
        first = PairEngine(b, [(0.2, 0.5), (0.3, 0.7)])
        second = PairEngine(b, [(0.7, 0.2), (0.5, 0.3), (0.2, 0.3)])
        assert first._psi is second._psi is b.psi_rows([0.2, 0.3, 0.5, 0.7])
        first.heat_values(0.01, 1e-10)
        rows = first.psi.shape[0]
        assert rows > 0 and second.psi is first.psi
        semigroup_apply(b, lambda x: x * (1.0 - x), 1e-4, np.array([0.2, 0.3, 0.5, 0.7]))
        assert first.psi.shape[0] > rows and second.psi is first.psi
        assert PairEngine(b, [(0.2, 0.6)])._psi is not first._psi

    def test_jacobi_offset_is_the_basis_offset(self):
        """The Jacobi c_off is the basis's, and sqrt(Lambda_k) >= pi (k - c_off)
        for every k; at (alpha, beta) = (-0.75, -0.5) it is 1/8 > 0."""
        jb = build_jacobi_basis(JacobiParams(-0.75, -0.5), 400)
        eng = PairEngine(jb, [(0.2, 0.5)])
        assert eng.c_off == jb.c_off == 0.125
        k = np.arange(jb.k_max + 1)
        # Equality for k >= 1 here (q = -1/8), up to the rounding of Lambda.
        assert np.all(np.sqrt(jb.Lambda) >= math.pi * (k - jb.c_off) * (1.0 - 1e-15))
        assert np.sqrt(jb.Lambda[1:]) == pytest.approx(math.pi * (k[1:] - jb.c_off), rel=1e-15)

    @pytest.mark.parametrize("order", ["small t first", "large t first", "potential first"])
    def test_grown_rows_equal_basis_rows(self, order):
        calls = {
            "small": lambda eng, d: eng.heat_values(1e-4, 1e-10),
            "large": lambda eng, d: eng.heat_values(0.5, 1e-10),
            "poisson": lambda eng, d: eng.poisson_values(0.3, d, 1e-10),
            "potential": lambda eng, d: eng.potential_series(0.6, d, 1e-9),
        }
        sequence = {
            "small t first": ("small", "large", "poisson", "potential"),
            "large t first": ("large", "poisson", "small", "potential"),
            "potential first": ("potential", "large", "small", "poisson"),
        }[order]
        # PLUS, ZERO, MINUS and nu = 3/2 Bessel bases and a Jacobi basis.
        for basis, d in zip(blocked_bases(), (1.0, 1.0, 2.0, 1.0, 1.0)):
            eng = PairEngine(unshared(basis), AGREEMENT_PAIRS)
            ref = basis_psi(basis, eng)
            fresh = {}
            for name in sequence:
                vals = calls[name](eng, d)[0]
                assert np.array_equal(eng.psi, ref[: eng.psi.shape[0]])
                fresh[name] = calls[name](PairEngine(unshared(basis), AGREEMENT_PAIRS), d)[0]
                assert np.array_equal(vals, fresh[name])
            assert eng.psi.shape[0] == eng.n_max + 1

    @pytest.mark.parametrize("nu, h", [(0.0, 0.5), (-0.75, -1.5), (1.5, 0.5)])
    def test_call_order_moves_nothing(self, nu, h):
        """On a new basis (its table at the first block), M, c_off, cutoffs,
        values and bounds do not depend on whether small-t or large-t calls
        come first, nor on a table grown to n_max beforehand; each call grows
        the table to the largest mode it reads, and no further."""
        p, d = SpectralParams(nu, h), (2.0 if h < 0.0 else 0.0)
        calls = {"heat 1e-4": lambda eng: eng.heat_values(1e-4, 1e-12),
                 "heat 0.5": lambda eng: eng.heat_values(0.5, 1e-12),
                 "poisson 0.5": lambda eng: eng.poisson_values(0.5, d, 1e-12)}
        runs = []
        for names, full in ((list(calls), False), (list(calls)[::-1], False), (list(calls), True)):
            b = build_basis(p, 3000)
            assert b.table.size == PSI_BLOCK_MODES
            if full:
                b.eigen  # grows the table to n_max
            eng = PairEngine(b, AGREEMENT_PAIRS)
            out = {}
            for name in names:
                out[name] = calls[name](eng)
                if not full:
                    assert b.table.size == max(PSI_BLOCK_MODES, eng.psi.shape[0] - 1)
            runs.append((eng.M, eng.c_off, out))
        (m, c_off, ref), *others = runs
        for other_m, other_c_off, out in others:
            assert (other_m, other_c_off) == (m, c_off)
            for name, (vals, n_terms, bound) in ref.items():
                assert np.array_equal(out[name][0], vals) and out[name][1:] == (n_terms, bound)

    def test_cutoff_above_n_max_still_fails(self):
        """A cutoff the table cannot reach fails as before, growing nothing."""
        b = build_basis(SpectralParams(0.0, 0.5), 300)
        eng = PairEngine(b, AGREEMENT_PAIRS)
        with pytest.raises(TailBoundFailure, match=r"heat tail cannot reach tol=1\.00e-12 at "
                                                    r"t=1\.000e-06 with 300 modes"):
            eng.heat_values(1e-6, 1e-12)
        assert b.table.size == PSI_BLOCK_MODES and eng.psi.shape[0] == 0

    def test_coordinates_checked_at_construction(self):
        for basis in blocked_bases():
            with pytest.raises(DomainError, match="open interval"):
                PairEngine(basis, [(0.3, 0.6), (0.5, 1.0)])

    def test_nan_coordinate_rejected(self):
        for basis in blocked_bases():
            with pytest.raises(DomainError, match="open interval"):
                PairEngine(basis, [(0.3, 0.6), (0.5, math.nan)])


class TestExpRows:
    """_exp_rows is every heat and Poisson mode sum: a one-time sum is a
    zero-padded sum over the modes up to a multiple of SUM_ALIGN to the last
    bit, a blocked sum is the per-time sums up to rounding, and every sum
    checks the sup invariant."""

    def test_one_time_sums_bit_identical(self):
        """A one-time heat or direct Poisson row is, to the last bit, the
        multipliers of the modes n_min..N in a zero vector over the modes
        0..top - 1, top the multiple of SUM_ALIGN past N (at most n_max + 1),
        times the pair products of those modes."""
        cases = list(zip(blocked_engines(), (0.0, 0.0, 2.0, 1.0, 1.0)))
        grid = pair_grid(boundary_refined_coords(60))
        cases += [(PairEngine(shared_basis(nu, n_max=3000), grid), 0.0) for nu in (-0.5, 0.5)]
        for eng, d in cases:
            lo = eng.n_min
            sq = np.sqrt(eng._shifted(d, eng.n_max + 1))
            sums = []  # (row, multipliers of the modes n_min..N)
            for t in np.geomspace(1e-4, 1.0, 9):
                for rescale in (0.0, 3.0):
                    vals, n, _ = eng.heat_values(t, 1e-10, rescale)
                    sums.append((vals, np.exp(-t * (eng.lam[lo : lo + n] - rescale))))
                    if eng._poisson_cut(t, 1e-10, rescale) is not None:
                        vals, n, _ = eng.poisson_values(t, d, 1e-10, rescale)
                        sums.append((vals, np.exp(-t * (sq[lo : lo + n] - rescale))))
            aligned = lambda mult: min(eng.n_max + 1,
                                       -(-(lo + mult.size) // SUM_ALIGN) * SUM_ALIGN)
            prods = eng._pair_products(0, max(aligned(mult) for _, mult in sums))
            for vals, mult in sums:
                padded = np.zeros(aligned(mult))
                padded[lo : lo + mult.size] = mult
                assert np.array_equal(vals, padded @ prods[: padded.size])

    def test_blocks_match_per_time_sums(self):
        ts = np.geomspace(1e-4, 5.0, 3 * TIME_BLOCK + 7)
        shuffle = np.random.default_rng(3).permutation(ts.size)
        for eng in blocked_engines():
            _, cuts, _ = eng._heat_rows(ts, 1e-10)
            prods = eng._pair_products(0, eng.n_max + 1)
            # Heat cutoffs (falling with t), the same shuffled, and one cutoff.
            for t, n in ((ts, cuts), (ts[shuffle], cuts[shuffle]), (ts, np.full(ts.size, cuts[60]))):
                rows = _exp_rows(t, eng.lam, eng.n_min, n, prods)
                ref = np.array([
                    np.exp(-ti * eng.lam[eng.n_min : ni + 1]) @ prods[eng.n_min : ni + 1]
                    for ti, ni in zip(t, n)
                ])
                assert_rows_close(rows, ref)

    def test_sup_invariant_on_every_sum(self):
        """With M lowered by hand, every sum refuses a pair product above M^2:
        the direct Poisson series, the potential series and a heat grid's
        rows as well as the heat sums."""
        for basis, d in zip(blocked_bases(), (1.0, 1.0, 2.0, 1.0, 1.0)):
            eng = PairEngine(basis, AGREEMENT_PAIRS)
            eng.M *= 0.1
            for call in (lambda: eng.heat_values(0.1, 1e-10),
                         lambda: eng.poisson_values(0.3, d, 1e-10),
                         lambda: eng.potential_series(1.0, d, 1e-9),
                         lambda: _build_heat_grid(eng, d, 1e-9)):
                with pytest.raises(ConsistencyError, match="exceeds the sup bound"):
                    call()


class TestPoissonCut:
    """The closed-form Poisson cutoff and the root-solved direct-series time
    against the geometric tail bound they solve for."""

    def test_cut_meets_its_bound(self):
        """The bound at N, M^2 e^{rescale t} e^{-t pi (N + 1 - c_off)} / (1 - e^{-t
        pi}), is at most tol, and N is at most one above the least N whose
        bound meets tol (the least, where M^2 e^{rescale t} / tol overflows);
        no cut means that the least is above n_max - 2. From t = 0.05 on the
        bound covers the explicit tail sum, up to rounding (u/(t pi) in the
        closed form's 1 - e^{-t pi})."""
        cuts = overflowed = 0
        for m2, c_off, n_min, n_max in itertools.product(
            (1.0, 2.0, 50.0, 700.0), (0.0, 0.3, 0.99), (0, 1), (300, 3000)
        ):
            eng = SimpleNamespace(M=math.sqrt(m2), c_off=c_off, n_min=n_min, n_max=n_max)
            for t, tol, rescale in itertools.product(
                np.geomspace(1e-6, 50.0, 30).tolist(), (1e-12, 1e-9, 1e-6, 1e-3), (0.0, 3.0, 40.0)
            ):
                grow = math.exp(min(t * rescale, 700.0))
                bound_at = lambda n: (eng.M**2 * grow * math.exp(-t * math.pi * (n + 1.0 - c_off))
                                      / -math.expm1(-t * math.pi))
                cut = PairEngine._poisson_cut(eng, t, tol, rescale)
                case = (m2, c_off, n_min, n_max, t, tol, rescale)
                if cut is None:
                    assert bound_at(n_max - 2) > tol, case
                    continue
                n, bound = cut
                cuts += 1
                assert n_min <= n <= n_max - 1 and bound <= tol, case
                assert bound == pytest.approx(bound_at(n), rel=1e-12), case
                if not math.isfinite(m2 * grow / tol):
                    overflowed += 1
                    assert n == n_min or bound_at(n - 1) > tol, case
                else:
                    assert n - 2 < n_min or bound_at(n - 2) > tol, case
                if t >= 0.05:
                    m = np.arange(n + 1, n + 2 + int(60.0 / (t * math.pi)), dtype=float)
                    tail = float(np.sum(np.exp(-t * math.pi * (m - c_off))))
                    assert eng.M**2 * grow * tail <= (1.0 + 1e-12) * bound, case
        assert cuts > 8_000 and overflowed > 100

    def test_direct_time_solves_the_need(self):
        """Half the direct-series time is within 1e-12 relative of the root of
        _poisson_need = n_max - 1, or a clamp: 10 where even t = 10 needs more
        than n_max - 1 modes, 1e-8 where t = 1e-8 needs at most that many."""
        cases = [(eng.M * eng.M, eng.c_off, eng.n_max) for eng in blocked_engines()]
        cases += itertools.product((1.0, 2.0, 700.0), (0.0, 0.5),
                                   (2, 3, 50, 3000, 30_000, 10**10))
        halves = set()
        for (m2, c_off, n_max), tol in itertools.product(cases, (1e-12, 1e-9, 1e-6, 1e-3)):
            t = 0.5 * _direct_time(m2, c_off, n_max, tol)
            need = lambda t: _poisson_need(t, tol, m2, c_off)
            if t == 10.0:
                assert need(10.0) > n_max - 1
            elif t == 1e-8:
                assert need(1e-8) <= n_max - 1
            else:
                assert need(t * (1.0 - 1e-12)) >= n_max - 1 >= need(t * (1.0 + 1e-12)), (m2, n_max)
            halves.add(t)
        assert {10.0, 1e-8} <= halves


class TestToleranceChecks:
    CALLS = {
        "heat_values": lambda e, tol: e.heat_values(0.1, tol),
        "poisson_values": lambda e, tol: e.poisson_values(0.1, 0.0, tol),
        "potential_series": lambda e, tol: e.potential_series(1.0, 1.0, tol),
        "potential_time_integral": lambda e, tol: e.potential_time_integral(1.0, 1.0, tol),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_rejected(self, call, tol):
        eng = PairEngine(shared_basis(0.0, n_max=300), PAIRS)
        with pytest.raises(DomainError, match="tolerance"):
            self.CALLS[call](eng, tol)


class TestTimeAndShiftChecks:
    """A time that is not finite and positive, or a non-finite shift d, is a
    DomainError (exit 2), also where no KernelRequest checked it."""

    TIMES = {
        "heat": lambda e, t: e.heat_values(t, 1e-10),
        "heat-long": lambda e, t: e.heat_values(t, 1e-10, 1.0),
        "poisson": lambda e, t: e.poisson_values(t, 1.0, 1e-10),
    }
    SHIFTS = {
        "poisson": lambda e, d: e.poisson_values(0.1, d, 1e-10),
        "potential_series": lambda e, d: e.potential_series(1.0, d, 1e-9),
        "potential_time_integral": lambda e, d: e.potential_time_integral(1.0, d, 1e-9),
    }

    @pytest.mark.parametrize("call", sorted(TIMES))
    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_time_rejected(self, call, t):
        eng = PairEngine(shared_basis(0.0, n_max=300), PAIRS)
        with pytest.raises(DomainError, match="time must be finite and positive"):
            self.TIMES[call](eng, t)

    @pytest.mark.parametrize("call", sorted(SHIFTS))
    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_shift_rejected(self, call, d):
        eng = PairEngine(shared_basis(0.0, n_max=300), PAIRS)
        with pytest.raises(DomainError, match="shift d must be finite"):
            self.SHIFTS[call](eng, d)


class TestSigmaChecks:
    """A potential power sigma outside [SIGMA_MIN, SIGMA_MAX] (NaN and inf
    included) is a DomainError naming the range, from the engine and from
    KernelRequest; at both ends of the range the two routes, each certified
    at tol, agree within 2 tol."""

    CALLS = {
        "potential_series": lambda e, s: e.potential_series(s, 1.0, 1e-9),
        "potential_time_integral": lambda e, s: e.potential_time_integral(s, 1.0, 1e-9),
    }
    BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0, math.nextafter(SIGMA_MIN, 0.0),
           math.nextafter(SIGMA_MAX, math.inf), 100.0, 200.0]

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("sigma", BAD)
    def test_engine_rejects(self, call, sigma):
        eng = PairEngine(shared_basis(0.0, n_max=300), AGREEMENT_PAIRS)
        with pytest.raises(DomainError, match=re.escape(f"[{SIGMA_MIN:g}, {SIGMA_MAX:g}]")):
            self.CALLS[call](eng, sigma)

    @pytest.mark.parametrize("kind", [KernelKind.RIESZ_POT, KernelKind.BESSEL_POT])
    @pytest.mark.parametrize("sigma", [math.nextafter(SIGMA_MIN, 0.0), 60.0])
    def test_request_rejects(self, kind, sigma):
        with pytest.raises(DomainError, match=re.escape(f"[{SIGMA_MIN:g}, {SIGMA_MAX:g}]")):
            KernelRequest(kind, SpectralParams(0.5, 0.5), sigma, AGREEMENT_PAIRS)
        # A time is not a power: the range does not apply to the other kinds.
        KernelRequest(KernelKind.HEAT, SpectralParams(0.5, 0.5), sigma, AGREEMENT_PAIRS)

    @pytest.mark.parametrize("sigma", [SIGMA_MIN, SIGMA_MAX])
    def test_routes_agree_at_range_ends(self, sigma):
        for nu in (-0.75, 0.0, 1.5):
            eng = PairEngine(shared_basis(nu, n_max=300), AGREEMENT_PAIRS)
            series, _, _ = eng.potential_series(sigma, 1.0, 1e-9)
            timed = eng.potential_time_integral(sigma, 1.0, 1e-9)
            assert np.all(np.isfinite(series)) and np.all(series > 0.0)
            assert np.max(np.abs(timed - series)) <= 2e-9, (nu, sigma)


# The potential benchmark's requests: five bases, four sigmas, one pair per
# separation band.
POTENTIAL_CASES = ((KernelKind.BESSEL_POT, -0.75), (KernelKind.BESSEL_POT, -0.5),
                   (KernelKind.BESSEL_POT, 0.0), (KernelKind.BESSEL_POT, 1.5),
                   (KernelKind.RIESZ_POT, 0.5))
POTENTIAL_SIGMAS = (0.3, 0.5, 1.0, 1.6)
POTENTIAL_PAIRS = [(0.62, 0.8), (0.2, 0.55), (0.1, 0.75)]


def fresh_basis(nu, n_max=3000):
    """A new basis on the session's zero table: no engines cached yet."""
    return unshared(shared_basis(nu, n_max=n_max))


def potential_request(kind, nu, sigma):
    return KernelRequest(kind, SpectralParams(nu, 0.5), sigma, POTENTIAL_PAIRS,
                         tol=1e-9, n_max=3000)


def kernel_bytes(values):
    return [(v.value.hex(), v.n_terms, v.tail_bound.hex(), float(v.cross_check).hex())
            for v in values]


class TestSharedEngines:
    """engine_for keeps one engine per (basis, pairs), so each psi row, M and
    the heat grids are built once across requests; results do not depend on
    which requests came first."""

    def test_same_engine(self):
        b = fresh_basis(0.0, n_max=300)
        eng = engine_for(b, PAIRS)
        assert engine_for(b, PAIRS) is eng
        assert engine_for(b, tuple(np.array(PAIRS))) is eng
        assert engine_for(b, PAIRS[:-1]) is not eng
        assert engine_for(fresh_basis(0.0, n_max=300), PAIRS) is not eng

    def test_oldest_engine_dropped_at_bound(self):
        b = fresh_basis(0.0, n_max=300)
        sets = [[(0.3, 0.6 + 0.01 * k)] for k in range(CACHE_ENTRIES + 1)]
        engines = [engine_for(b, p) for p in sets[:CACHE_ENTRIES]]
        assert all(engine_for(b, p) is e for p, e in zip(sets, engines))
        engine_for(b, sets[-1])
        assert len(b._engines) == CACHE_ENTRIES
        assert all(engine_for(b, p) is e for p, e in zip(sets[1:], engines[1:]))
        assert engine_for(b, sets[0]) is not engines[0]

    def test_jacobi_engines_shared(self):
        jb = build_jacobi_basis(JacobiParams(0.3, -0.5), 100)
        assert engine_for(jb, PAIRS) is engine_for(jb, PAIRS)

    def test_one_build_per_basis(self, monkeypatch):
        """One engine and one heat grid across the requests, and each psi row
        is formed once: the row growths add up to the rows the engine holds."""
        counts = {"engine": 0, "rows": 0, "grid": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        original = RowStore.upto

        def upto(store, hi):
            have = store.rows.shape[0]
            rows = original(store, hi)
            counts["rows"] += rows.shape[0] - have
            return rows

        monkeypatch.setattr(PairEngine, "__init__", counted("engine", PairEngine.__init__))
        monkeypatch.setattr(RowStore, "upto", upto)
        monkeypatch.setattr(kernels, "_build_heat_grid", counted("grid", _build_heat_grid))
        b = fresh_basis(0.0)
        for sigma in POTENTIAL_SIGMAS:
            potential_kernel(potential_request(KernelKind.BESSEL_POT, 0.0, sigma), b)
        rows = engine_for(b, POTENTIAL_PAIRS).psi.shape[0]
        assert counts == {"engine": 1, "rows": rows, "grid": 1}
        assert rows <= b.n_max + 1

    def test_rows_do_not_depend_on_request_order(self):
        """The rows held are the most any request asked for, so the four
        requests leave as many rows in either order."""
        rows = []
        for sigmas in (POTENTIAL_SIGMAS, POTENTIAL_SIGMAS[::-1]):
            b = fresh_basis(0.0)
            for sigma in sigmas:
                potential_kernel(potential_request(KernelKind.BESSEL_POT, 0.0, sigma), b)
            rows.append(engine_for(b, POTENTIAL_PAIRS).psi.shape[0])
        assert rows[0] == rows[1] < b.n_max + 1

    def test_request_order_does_not_matter(self):
        requests = [(kind, nu, sigma) for kind, nu in POTENTIAL_CASES for sigma in POTENTIAL_SIGMAS]
        alone = {r: kernel_bytes(potential_kernel(potential_request(*r), fresh_basis(r[1])))
                 for r in requests}
        for seed in (1, 2):
            bases = {nu: fresh_basis(nu) for _, nu in POTENTIAL_CASES}
            order = list(requests)
            np.random.default_rng(seed).shuffle(order)
            for r in order:
                assert kernel_bytes(potential_kernel(potential_request(*r), bases[r[1]])) == alone[r]

    def test_ratio_reports_share_engines(self, monkeypatch):
        b = fresh_basis(0.0, n_max=300)
        grid = pair_grid(boundary_refined_coords(6))
        envelope_reports(b, grid, [0.01], heat_short_envelope(0.0), tol=1e-10)
        eng = engine_for(b, grid)
        monkeypatch.setattr(PairEngine, "__init__", None)  # any further build fails
        envelope_reports(b, grid, [0.1], heat_short_envelope(0.0), tol=1e-10)
        assert engine_for(b, grid) is eng

    def test_heat_grid_keyed_by_exact_tol(self):
        """A heat grid built for another tol gives another certificate: the
        bound at tol must not depend on the tols asked for before."""
        pairs = [(0.2, 0.5), (0.3, 0.7)]
        tol = 1.000001e-9
        alone = PairEngine(fresh_basis(0.0), pairs).poisson_values(1e-3, 0.0, tol)
        eng = PairEngine(fresh_basis(0.0), pairs)
        eng.poisson_values(1e-3, 0.0, 1e-9)
        after = eng.poisson_values(1e-3, 0.0, tol)
        assert after[2] == alone[2]
        assert np.array_equal(after[0], alone[0])

    def test_shared_arrays_read_only(self):
        eng = engine_for(fresh_basis(0.0), [(0.2, 0.5), (0.3, 0.7)])
        eng.poisson_values(1e-3, 0.0, 1e-9)
        (grid,) = eng._heat_grids.values()
        arrays = [eng.psi, eng.lam, eng.ix, eng.iy, eng.dist, grid.u, grid.w, grid.rows, grid.r_lo,
                  grid.r_hi, grid.heat]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_basis_and_engines_freed_without_cycle_collection(self):
        b = fresh_basis(0.0, n_max=300)
        engine_for(b, PAIRS)._heat_grid(1.0, 1e-9)
        refs = [weakref.ref(b), weakref.ref(engine_for(b, PAIRS))]
        gc.disable()
        try:
            del b
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestEmptyPairList:
    """An empty pair list is a usage error (DomainError, exit 2) at every
    entry point, not a failure inside the numerics."""

    @pytest.mark.parametrize("kind, value", [(KernelKind.HEAT, 0.1), (KernelKind.POISSON, 0.1),
                                             (KernelKind.BESSEL_POT, 1.0)])
    def test_request(self, kind, value):
        with pytest.raises(DomainError, match="at least one"):
            KernelRequest(kind, SpectralParams(0.0, 0.5), value, [], n_max=50)

    def test_jacobi_request(self):
        with pytest.raises(DomainError, match="at least one"):
            KernelRequest(KernelKind.JACOBI_HEAT, JacobiParams(0.3, -0.5), 0.1, [], n_max=50)

    @pytest.mark.parametrize("build", [PairEngine, engine_for])
    def test_engine(self, build):
        with pytest.raises(DomainError, match="at least one"):
            build(shared_basis(0.0, n_max=300), [])

    def test_reports(self):
        b = shared_basis(0.0, n_max=300)
        with pytest.raises(DomainError, match="at least one"):
            envelope_reports(b, [], [0.1], heat_short_envelope(0.0), tol=1e-10)
        with pytest.raises(DomainError, match="at least one"):
            envelope_reports(b, [], [1.0], potential_envelope(0.0), tol=1e-9)
        with pytest.raises(DomainError, match="at least one"):
            sandwich_check(0.25, [0.1], [], n_max=50)


class TestPairArrays:
    """Requests and engines keep their pairs as arrays; a grid that is not an
    (n, 2) array of points in (0,1)^2 is a DomainError (exit 2)."""

    BAD_GRIDS = {
        "ragged": [(0.3, 0.6), (0.5,)],
        "width 3": [(0.3, 0.6, 0.7), (0.5, 0.5, 0.5)],
        "flat": [0.3, 0.6],
        "nested too deep": [[(0.3, 0.6)], [(0.5, 0.5)]],
        "not numbers": [("a", "b")],
        "nan": [(0.3, 0.6), (math.nan, 0.5)],
        "inf": [(0.3, math.inf)],
        "-inf": [(-math.inf, 0.5)],
        "outside": [(0.3, 1.0)],
    }

    @pytest.mark.parametrize("name", BAD_GRIDS)
    def test_request_refuses_bad_grid(self, name):
        with pytest.raises(DomainError, match="pairs|grid points"):
            KernelRequest(KernelKind.HEAT, SpectralParams(0.0, 0.5), 0.1, self.BAD_GRIDS[name])

    @pytest.mark.parametrize("name", ["ragged", "width 3", "flat", "nested too deep",
                                      "not numbers"])
    @pytest.mark.parametrize("build", [PairEngine, engine_for])
    def test_engine_refuses_bad_shape(self, name, build):
        with pytest.raises(DomainError, match="PairEngine needs"):
            build(shared_basis(0.0, n_max=300), self.BAD_GRIDS[name])

    def test_cli_exit_code(self, monkeypatch, capsys):
        from dini import cli

        ragged = cli.KERNEL_KINDS["heat"]._replace(pairs=lambda coords: [(0.3, 0.6), (0.5,)])
        monkeypatch.setitem(cli.KERNEL_KINDS, "heat", ragged)
        assert cli.main(["kernel", "--nu", "0", "--grid", "3", "--n-max", "50"]) == 2
        assert "error: kernel request needs (x, y) pairs" in capsys.readouterr().err

    def test_request_grid_is_a_read_only_copy(self):
        pairs = np.array(PAIRS)
        req = KernelRequest(KernelKind.HEAT, SpectralParams(0.0, 0.5), 0.1, pairs, n_max=200)
        assert req.grid.shape == (len(PAIRS), 2) and not req.grid.flags.writeable
        assert np.array_equal(req.grid, pairs) and req.grid is not pairs
        assert pairs.flags.writeable

    def test_engine_coordinates(self):
        eng = PairEngine(shared_basis(0.0, n_max=300), PAIRS)
        assert eng.xs.tolist() == [x for x, _ in PAIRS]
        assert eng.ys.tolist() == [y for _, y in PAIRS]
        assert eng.n_pairs == len(PAIRS)
        assert not (eng.xs.flags.writeable or eng.ys.flags.writeable)

    def test_engine_key_is_the_pair_bytes(self):
        b = fresh_basis(0.0, n_max=300)
        eng = engine_for(b, PAIRS)
        assert list(b._engines) == [np.array(PAIRS).tobytes()]
        assert engine_for(b, np.array(PAIRS, dtype=np.float32).astype(float)) is not eng
        assert engine_for(b, [list(p) for p in PAIRS]) is eng

    @pytest.mark.parametrize("kind, value", [(KernelKind.HEAT, 0.1), (KernelKind.POISSON, 0.1),
                                             (KernelKind.POISSON_SHIFTED, 0.1),
                                             (KernelKind.BESSEL_POT, 0.6)])
    def test_arrays_are_the_values(self, kind, value):
        """kernel_arrays is the evaluation the KernelValue functions wrap."""
        b = shared_basis(0.0, n_max=600)
        req = KernelRequest(kind, SpectralParams(0.0, 0.5), value, POTENTIAL_PAIRS, n_max=600,
                            tol=1e-9)
        wrap = {KernelKind.HEAT: heat_kernel, KernelKind.BESSEL_POT: potential_kernel}
        values = wrap.get(kind, poisson_kernel)(req, b)
        vals, n_terms, bound, checks = kernel_arrays(req, b)
        assert [v.value for v in values] == vals.tolist()
        assert {(v.n_terms, v.tail_bound) for v in values} == {(n_terms, bound)}
        if kind is KernelKind.BESSEL_POT:
            assert [v.cross_check for v in values] == checks.tolist()
        else:
            assert checks is None and all(v.cross_check is None for v in values)


class TestLogPanelRule:
    @pytest.mark.parametrize("lo, hi, per_decade, order",
                             [(1e-9, 3.0, 4, 16), (2e-3, 5e-3, 12, 24), (0.5, 0.7, 1, 5)])
    def test_nodes_match_per_panel_loop(self, lo, hi, per_decade, order):
        """Gauss-Legendre in s = log u on panels of equal width in s; the
        weights in u are those in s times u."""
        nodes, weights, edges = _log_panel_rule(lo, hi, per_decade=per_decade, order=order)
        n_panels = max(1, int(math.ceil(per_decade * math.log10(hi / lo))))
        assert np.array_equal(edges, np.linspace(math.log(lo), math.log(hi), n_panels + 1))
        xg, wg = roots_legendre(order)
        ref_nodes, ref_weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            s = 0.5 * (a + b) + 0.5 * (b - a) * xg
            ref_nodes.append(np.exp(s))
            ref_weights.append(0.5 * (b - a) * wg * np.exp(s))
        assert_rows_close(nodes[None], np.concatenate(ref_nodes)[None])
        assert_rows_close(weights[None], np.concatenate(ref_weights)[None])
        assert float(weights @ nodes**-1) == pytest.approx(math.log(hi / lo), rel=1e-14)

    def test_legendre_kept_read_only(self):
        xg, wg = _legendre(16)
        assert _legendre(16)[0] is xg
        assert not (xg.flags.writeable or wg.flags.writeable)


class TestSemigroupApply:
    def test_cuts_meet_their_bound(self, monkeypatch):
        """Every cutoff and failure of semigroup_apply meets the stated
        Gaussian bound (assert_gauss_cuts) with scale S = ||f||_2 M, ||f||_2
        from the coefficient rule and M = certified_sup on the grid."""
        calls = recorded_cuts(monkeypatch)
        xs = np.linspace(0.01, 0.99, 41)
        for b in blocked_bases()[:4]:  # the Bessel bases
            quad = default_coefficient_rule(b, 384)
            sup = certified_sup(b, xs)
            for c in (1.0, 40.0):
                f = lambda x, c=c: c * x * (1.0 - x) ** 2
                scale = math.sqrt(float(quad.weights @ f(quad.nodes) ** 2)) * sup
                for t, tol in itertools.product(np.geomspace(1e-6, 10.0, 20), (1e-12, 1e-9)):
                    try:
                        semigroup_apply(b, f, t, xs, quad, tol)
                    except TailBoundFailure:
                        pass
                    ((args, result),) = calls
                    calls.clear()
                    assert args[2] == scale
                    assert_gauss_cuts(args, result)

    @pytest.mark.parametrize("nu", [0.7, -0.5, -0.75])  # PLUS, ZERO, MINUS
    def test_order_independent(self, nu):
        """On one basis, a mixed list of times gives each time's values, bit
        for bit, as the first call on a fresh basis does."""
        b = unshared(shared_basis(nu))
        quad = default_coefficient_rule(b, 256)
        f = lambda x: x * (1.0 - x) ** 2
        xs = np.linspace(0.01, 0.99, 41)
        descending = (1e-1, 1e-2, 1e-3, 1e-4)
        times = descending + descending[::-1] + (1e-3, 0.0, 1e-1, 1e-4, 0.0, 1e-2)
        first = {t: semigroup_apply(unshared(b), f, t, xs, quad, tol=1e-9) for t in set(times)}
        for t in times:
            assert np.array_equal(semigroup_apply(b, f, t, xs, quad, tol=1e-9), first[t]), t

    def test_eigenfunction_decay(self, monkeypatch):
        """f = psi_n goes to e^{-t lam_n} psi_n in PLUS, ZERO and MINUS (where
        psi_0 grows), within tol plus what the errors of the rule's
        coefficients a_m of psi_n carry, M sum_{m <= N} |a_m - delta_mn|
        e^{-t lam_m}: the certificate covers truncation only."""
        xs = np.linspace(0.05, 0.95, 11)
        calls = recorded_cuts(monkeypatch)
        for (nu, n), t in itertools.product(
            [(0.7, 1), (0.7, 4), (-0.5, 0), (-0.5, 3), (-0.75, 0), (-0.75, 2)], (1e-3, 0.3, 2.0)
        ):
            b = shared_basis(nu)
            f = lambda x: eval_psi(b, n, x)
            quad = default_coefficient_rule(b, 1024)
            out = semigroup_apply(b, f, t, xs, tol=1e-10)
            cut = int(calls[-1][1][0][0])
            coeffs = b.psi_matrix(quad.nodes, n_upper=cut) @ (quad.weights * f(quad.nodes))
            if n <= cut:  # else e^{-t lam_n} psi_n is in the truncated tail
                coeffs[n] -= 1.0
            sl = slice(b.n_min, cut + 1)
            carried = certified_sup(b, xs) * float(np.abs(coeffs[sl]) @ np.exp(-t * b.eigen[sl]))
            ref = math.exp(-t * b.eigen[n]) * f(xs)
            assert np.max(np.abs(out - ref)) <= 1e-10 + carried, (nu, n, t)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_cosine_closed_form(self, tol):
        """At nu = -1/2 (psi_0 = 1, psi_n = sqrt(2) cos(n pi x)) the semigroup
        of f = x (1 - x)^2 is within tol of the cosine series of int_0^1 f =
        1/12 and int_0^1 f cos(a x) = -1/a^2 - 6 ((-1)^n - 1)/a^4, a = n pi,
        whose terms beyond 2000 are below e^-3900 here; the 1024-node Gauss
        rule integrates these smooth coefficients to rounding."""
        b = shared_basis(-0.5)
        xs = np.linspace(0.01, 0.99, 41)
        a = math.pi * np.arange(1, 2001)
        coef = 2.0 * (-1.0 / a**2 - 6.0 * (np.cos(a) - 1.0) / a**4)
        for t in (1e-4, 1e-3, 1e-2, 0.3):
            out = semigroup_apply(b, lambda x: x * (1.0 - x) ** 2, t, xs, tol=tol)
            ref = 1.0 / 12.0 + (np.exp(-t * a * a) * coef) @ np.cos(np.outer(a, xs))
            assert np.max(np.abs(out - ref)) <= tol, t

    def test_rows_bounded_by_the_cutoff(self, monkeypatch):
        """A call forms psi on the rule and on the grid only up to about its
        cutoff, not all n_max + 1 rows."""
        calls = recorded_cuts(monkeypatch)
        b = build_basis(SpectralParams(0.7, 0.5), 1500, table=shared_basis(0.7, n_max=1500).table)
        f = lambda x: x * (1.0 - x) ** 2
        xs = np.linspace(0.01, 0.99, 200)
        quad = default_coefficient_rule(b, 1024)
        semigroup_apply(b, f, 0.1, xs, tol=1e-9)
        n = int(calls[-1][1][0][0])
        assert n < 100 and len(b._stores) == 2
        for points in (quad.nodes, xs):
            assert n < b.psi_rows(points).rows.shape[0] <= 2 * (n + SUM_ALIGN)

    def test_stores_keyed_by_value(self):
        """A grid changed in place between calls gets its own rows, as on a
        fresh basis, never the rows of its old values."""
        table = shared_basis(0.7).table
        b = build_basis(SpectralParams(0.7, 0.5), 300, table=table)
        f = lambda x: x * (1.0 - x) ** 2
        xs = np.linspace(0.05, 0.95, 19)
        first = semigroup_apply(b, f, 1e-3, xs)
        xs[:] = np.linspace(0.1, 0.6, 19)
        second = semigroup_apply(b, f, 1e-3, xs)
        fresh = build_basis(SpectralParams(0.7, 0.5), 300, table=table)
        assert np.array_equal(second, semigroup_apply(fresh, f, 1e-3, xs.copy()))
        assert not np.array_equal(first, second)

    def test_refuses_aliased_coefficients(self):
        """At t = 0 all 1500 modes are summed, and the 1024-node rule aliases
        the coefficients above n ~ 1000: their squares add up to more than
        ||f||_2^2, against Bessel's inequality."""
        b = shared_basis(0.7, n_max=1500)
        f = lambda x: x * (1.0 - x) ** 2
        xs = np.linspace(0.01, 0.99, 200)
        with pytest.raises(ConsistencyError, match="N = 1500.*1024-node rule"):
            semigroup_apply(b, f, 0.0, xs)
        assert np.all(np.isfinite(semigroup_apply(b, f, 0.1, xs)))

    @pytest.mark.parametrize("grid", [[0.5, math.nan], np.full((2, 3), 0.5), []])
    def test_rejects_bad_grid(self, grid):
        b = shared_basis(0.7, n_max=60)
        with pytest.raises(DomainError):
            semigroup_apply(b, lambda x: x, 0.1, grid)

    def test_rejects_nonfinite_function(self):
        b = shared_basis(0.7, n_max=60)
        f = lambda x: np.where(x < 0.5, x, math.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                semigroup_apply(b, f, 0.1, np.array([0.5]))

    def test_explicit_rule_honoured(self, monkeypatch):
        calls = recorded_cuts(monkeypatch)
        b = shared_basis(0.7, n_max=200)
        f = lambda x: x**1.2 * (1.0 - x) ** 2
        xs = np.linspace(0.05, 0.95, 19)
        graded = endpoint_graded_rule(300, 4, 1)
        out = semigroup_apply(b, f, 1e-3, xs, quad=graded)
        n = int(calls[-1][1][0][0])
        coeffs = b.psi_matrix(graded.nodes, n_upper=n) @ (graded.weights * f(graded.nodes))
        damped = coeffs[b.n_min :] * np.exp(-1e-3 * b.eigen[b.n_min : n + 1])
        ref = damped @ b.psi_matrix(xs, n_upper=n)[b.n_min :]
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert graded.nodes.tobytes() in b._stores

    def test_tail_bound_covers_uncomputed_coefficients(self):
        """f = psi_200 of a larger basis has coefficients ~0 on the 40 stored
        modes, but its semigroup image e^{-t lambda_200} psi_200 is ~1e-3 at
        this t: the tail bound, through ||f||_2 = 1, must refuse it."""
        big = shared_basis(0.7, n_max=300)
        b = build_basis(big.params, 40, table=big.table)
        f = lambda x: eval_psi(big, 200, x)
        t = 7.0 / big.eigen[200]
        with pytest.raises(TailBoundFailure):
            semigroup_apply(b, f, t, np.linspace(0.1, 0.9, 9), tol=1e-6)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1e-3])
    def test_rejects_bad_time(self, t):
        b = shared_basis(0.7, n_max=60)
        with pytest.raises(DomainError):
            semigroup_apply(b, lambda x: x, t, np.array([0.5]))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_rejects_bad_tolerance(self, tol):
        b = shared_basis(0.7, n_max=60)
        with pytest.raises(DomainError):
            semigroup_apply(b, lambda x: x, 0.1, np.array([0.5]), tol=tol)

    def test_identity_at_zero_time(self):
        # t = 0 must reproduce the expansion itself; for a function in the
        # span that equals the function to quadrature accuracy.
        b = shared_basis(0.7, n_max=200)
        f = lambda x: 0.3 * eval_psi(b, 1, x) + 0.2 * eval_psi(b, 5, x)
        xs = np.linspace(0.1, 0.9, 9)
        out = semigroup_apply(b, f, 0.0, xs)
        assert np.max(np.abs(out - f(xs))) < 1e-9
        # Boundary-compatible smooth f: truncation tail is the only gap.
        g = lambda x: x**1.2 * (1.0 - x) ** 2
        out_g = semigroup_apply(b, g, 0.0, xs)
        assert np.max(np.abs(out_g - g(xs))) < 2e-5


class TestChapmanKolmogorov:
    @pytest.mark.parametrize("nu", [-0.5, 0.7])
    def test_composition(self, nu):
        b = shared_basis(nu, n_max=400)
        rule = gauss_legendre(512)
        x0, y0 = 0.3, 0.7
        for s, t in ((0.05, 0.05), (0.05, 0.2), (0.2, 0.2)):
            eng1 = PairEngine(b, [(x0, z) for z in rule.nodes])
            eng2 = PairEngine(b, [(z, y0) for z in rule.nodes])
            gs, _, _ = eng1.heat_values(s, 1e-11)
            gt, _, _ = eng2.heat_values(t, 1e-11)
            conv = float(np.dot(rule.weights, gs * gt))
            direct, _, _ = PairEngine(b, [(x0, y0)]).heat_values(s + t, 1e-11)
            assert conv == pytest.approx(direct[0], rel=1e-7)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.01, 1.0))
@settings(max_examples=30, deadline=None)
def test_heat_symmetry_property(x, y, t):
    b = shared_basis(1.5, n_max=300)
    eng = PairEngine(b, [(x, y), (y, x)])
    vals, _, _ = eng.heat_values(t, 1e-11)
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)
