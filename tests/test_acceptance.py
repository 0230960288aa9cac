"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from conftest import shared_basis
from dini.basis import BasisSpec, build_basis, build_jacobi_basis, gram_matrix
from dini.bounds import (
    boundary_refined_coords,
    envelope_reports,
    hardy_check,
    heat_long_envelope,
    heat_short_envelope,
    pair_grid,
    potential_envelope,
    rellich_check,
    sandwich_check,
)
from dini.kernels import PairEngine, semigroup_apply
from dini.numerics import gauss_legendre
from dini.specfun import JacobiParams, SpectralParams, bessel_ih
from dini.zeros import build_zero_table, x0_bound

DEFAULT_NU_GRID = (-0.9, -0.75, -0.5, 0.0, 0.5, 1.5, 3.0)


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} PASS: {detail}")


def test_criterion_01_closed_form_regression():
    t0 = time.monotonic()
    n = np.arange(1, 201)
    x = np.linspace(1e-3, 1.0 - 1e-3, 1000)

    table_m = build_zero_table(SpectralParams(-0.5, 0.5), 200).upto(200)
    dev_zero_m = float(np.max(np.abs(table_m.zeros[1:] - math.pi * n)))
    table_p = build_zero_table(SpectralParams(0.5, 0.5), 200).upto(200)
    dev_zero_p = float(np.max(np.abs(table_p.zeros[1:] - math.pi * (n - 0.5))))
    assert dev_zero_m <= 1e-12
    assert dev_zero_p <= 1e-12

    bm = BasisSpec(SpectralParams(-0.5, 0.5), table_m, 200)
    bp = BasisSpec(SpectralParams(0.5, 0.5), table_p, 200)
    ns = np.arange(201)[:, None]
    ref_m = np.where(ns == 0, 1.0, math.sqrt(2.0) * np.cos(math.pi * ns * x[None, :]))
    # The normalization constants force the amplitude sqrt(2) on the sine
    # system as well (otherwise the Gram matrix of criterion 2 could not be
    # the identity).
    ref_p = math.sqrt(2.0) * np.sin(math.pi * (ns - 0.5) * x[None, :])
    dev_psi_m = float(np.max(np.abs(bm.psi_matrix(x) - ref_m)))
    dev_psi_p = float(np.max(np.abs(bp.psi_matrix(x)[1:] - ref_p[1:])))
    assert dev_psi_m <= 1e-12
    assert dev_psi_p <= 1e-12

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(
        1,
        f"zero dev {max(dev_zero_m, dev_zero_p):.2e}, basis dev "
        f"{max(dev_psi_m, dev_psi_p):.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_orthonormality():
    t0 = time.monotonic()
    worst = 0.0
    for nu in DEFAULT_NU_GRID:
        for h in (-1.0, 0.0, 0.5, 2.0):
            b = build_basis(SpectralParams(nu, h), 40)
            dev = None
            for n_pts in (512, 1024, 2048):
                gram = gram_matrix(b, n_pts)
                dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
                if dev <= 1e-8:
                    break
            assert dev <= 1e-8, f"Gram deviation {dev:.2e} at nu={nu}, H={h}"
            worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(2, f"28 parameter sets, worst Gram deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_kernel_identity():
    # |G - K| <= 1e-10 * max(|G|,|K|) + tol_abs, with tol_abs = 1e-12 the
    # certified evaluation tolerance (corner values ~1e-9 are below any
    # binary64-resolvable relative comparison).
    coords = (np.arange(20) + 0.5) / 20.0
    grid = pair_grid(coords)
    worst = 0.0
    for nu in (-0.5, 0.5):
        b = shared_basis(nu, n_max=300)
        jb = build_jacobi_basis(JacobiParams(nu, -0.5), 300)
        eng_g = PairEngine(b, grid)
        eng_k = PairEngine(jb, grid)
        for t in (0.01, 0.1, 1.0):
            g, _, _ = eng_g.heat_values(t, 1e-12)
            k, _, _ = eng_k.heat_values(t, 1e-12)
            gap = np.abs(g - k) - 1e-10 * np.maximum(np.abs(g), np.abs(k))
            assert np.all(gap <= 1e-12)
            worst = max(worst, float(np.max(gap)))
    _report(3, f"20x20x3 grid, worst excess over relative band {worst:.2e}")


def test_criterion_04_sandwich():
    t0 = time.monotonic()
    coords = (np.arange(30) + 0.5) / 30.0
    grid = pair_grid(coords)
    worst = math.inf
    for nu in (-0.75, -0.25, 0.25, 2.0):
        reports = sandwich_check(nu, [0.01, 0.1, 0.5, 1.0], grid, n_max=300, tol=1e-10)
        for r in reports:
            worst = min(worst, r.min_lower_margin, r.min_upper_margin)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(4, f"4 nu x 4 t x 900 points, worst margin {worst:.3e}, {elapsed:.1f} s")


def test_criterion_05_heat_envelope_witness():
    short_t = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    long_t = (1.0, 2.5, 5.0)
    grid30 = pair_grid(boundary_refined_coords(30))
    grid60 = pair_grid(boundary_refined_coords(60))
    worst_spread = 0.0
    worst_stab = 0.0
    for nu in DEFAULT_NU_GRID:
        b = shared_basis(nu, n_max=300)
        env_s = heat_short_envelope(nu)
        env_l = heat_long_envelope(b)
        for env, ts in ((env_s, short_t), (env_l, long_t)):
            r30 = envelope_reports(b, grid30, ts, env, tol=1e-10)
            r60 = envelope_reports(b, grid60, ts, env, tol=1e-10)
            for a, c in zip(r30, r60):
                assert a.spread <= 1e3 and c.spread <= 1e3
                stab = abs(c.spread - a.spread) / a.spread
                assert stab < 0.25
                worst_spread = max(worst_spread, a.spread, c.spread)
                worst_stab = max(worst_stab, stab)
    _report(
        5,
        f"7 nu, short+long envelopes: max spread {worst_spread:.1f}, "
        f"max grid-refinement change {worst_stab:.1%}",
    )


def test_criterion_06_chapman_kolmogorov():
    rule = gauss_legendre(512)
    x0, y0 = 0.3, 0.7
    worst = 0.0
    for nu in (-0.5, 0.7):
        b = shared_basis(nu, n_max=300)
        eng1 = PairEngine(b, [(x0, z) for z in rule.nodes])
        eng2 = PairEngine(b, [(z, y0) for z in rule.nodes])
        engd = PairEngine(b, [(x0, y0)])
        for s in (0.05, 0.2):
            for t in (0.05, 0.2):
                gs, _, _ = eng1.heat_values(s, 1e-11)
                gt, _, _ = eng2.heat_values(t, 1e-11)
                conv = float(np.dot(rule.weights, gs * gt))
                direct, _, _ = engd.heat_values(s + t, 1e-11)
                rel = abs(conv - direct[0]) / direct[0]
                assert rel <= 1e-7
                worst = max(worst, rel)
    _report(6, f"(s,t) in {{0.05,0.2}}^2, nu in {{-0.5,0.7}}, worst rel err {worst:.2e}")


def test_criterion_07_zero_bound():
    worst_res = 0.0
    min_gap = math.inf
    for nu in np.linspace(-1.0 + 1e-3, -0.5 - 1e-3, 64):
        p = SpectralParams(float(nu), 0.5)
        table = build_zero_table(p, 1, tol=1e-13)
        z0 = float(table.zeros[0])
        x0 = x0_bound(float(nu))
        res = abs(float(bessel_ih(p, z0)))
        assert res <= 1e-10
        assert z0 < x0 < 0.5
        worst_res = max(worst_res, res)
        min_gap = min(min_gap, x0 - z0)
    _report(7, f"64-point nu grid: z0 < x0 < 1/2, min gap {min_gap:.2e}, "
               f"worst residual {worst_res:.2e}")


AGREEMENT_PAIRS = [(0.3, 0.6), (0.15, 0.45), (0.1, 0.9), (0.55, 0.8), (0.05, 0.2), (0.65, 0.95)]


def test_criterion_08_potential_kernels():
    sigmas = (0.3, 0.5, 1.0, 1.6)
    worst_agree = 0.0
    # Dual-route agreement on off-diagonal pairs.
    for riesz, nus in ((False, (-0.75, 0.0, 1.5)), (True, (0.0, 1.5))):
        d0 = 0.0 if riesz else 1.0
        for nu in nus:
            b = shared_basis(nu, n_max=3000)
            eng = PairEngine(b, AGREEMENT_PAIRS)
            for sigma in sigmas:
                v1, _, _ = eng.potential_series(sigma, d0, 1e-9)
                v2 = eng.potential_time_integral(sigma, d0, 1e-9)
                rel = float(np.max(np.abs(v1 - v2) / np.abs(v1)))
                assert rel <= 1e-6, (riesz, nu, sigma, rel)
                worst_agree = max(worst_agree, rel)
    # Envelope witness with both logarithmic branches exercised:
    # sigma = 1/2 for every nu, and sigma = nu + 1 at nu = 0 (sigma = 1).
    offgrid = [
        p for p in pair_grid(boundary_refined_coords(10)) if abs(p[0] - p[1]) >= 0.02
    ]
    worst_spread = 0.0
    for nu in (-0.75, 0.0, 1.5):
        b = shared_basis(nu, n_max=3000)
        reports = envelope_reports(b, offgrid, sigmas, potential_envelope(nu), tol=1e-9)
        for r in reports:
            assert math.isfinite(r.spread) and r.spread <= 1e3
            worst_spread = max(worst_spread, r.spread)
    for nu in (0.0, 1.5):
        b = shared_basis(nu, n_max=3000)
        env = potential_envelope(nu, riesz=True)
        reports = envelope_reports(b, offgrid, (0.5, 1.0, 1.6), env, tol=1e-9)
        for r in reports:
            assert math.isfinite(r.spread) and r.spread <= 1e3
            worst_spread = max(worst_spread, r.spread)
    _report(
        8,
        f"series vs time integral worst rel {worst_agree:.2e}; "
        f"envelope spreads finite (max {worst_spread:.1f})",
    )


def test_criterion_09_weighted_inequalities(rng):
    worst = 0.0
    for nu in (1.2, 2.0, 5.0):
        for _ in range(100):
            coeffs = rng.standard_normal(5)
            lhs, rhs = rellich_check(nu, coeffs)
            assert lhs <= rhs * (1.0 + 1e-6)
            lh, rh = hardy_check(nu, coeffs)
            assert lh <= rh * (1.0 + 1e-6)
            if rhs > 0:
                worst = max(worst, lhs / rhs, lh / rh)
    _report(9, f"300 random 5-term trials, zero violations, worst lhs/rhs {worst:.4f}")


def test_criterion_10_boundary_convergence():
    # Fixed interior 200-point grid: pointwise (a.e.) convergence is an
    # interior statement; the shrinking O(sqrt(t)) layer at x = 0 is excluded
    # by construction, not by tuning.
    f = lambda x: x * (1.0 - x) ** 2
    xs = np.linspace(0.01, 0.99, 200)
    finals = {}
    for nu in (-0.5, 1.0):
        b = shared_basis(nu, n_max=1500)
        sups = []
        for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            vals = semigroup_apply(b, f, t, xs, tol=1e-9)
            sups.append(float(np.max(np.abs(vals - f(xs)))))
        assert all(a > c for a, c in zip(sups, sups[1:])), sups
        assert sups[-1] < 1e-3, sups
        finals[nu] = sups[-1]
    _report(
        10,
        "monotone decay over t = 1e-1..1e-5; final sup errors "
        + ", ".join(f"nu={k}: {v:.2e}" for k, v in finals.items()),
    )
