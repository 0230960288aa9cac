import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dini.zeros as zeros_mod
from dini.errors import BracketScanFailure, ConsistencyError, DomainError
from dini.specfun import X_MAX_J, Regime, SpectralParams, bessel_ih, bessel_j, bessel_jh
from dini.zeros import (
    ZeroTable,
    bessel_j_zeros,
    build_zero_table,
    i_zeros,
    x0_bound,
)

# First zero of the H=1/2 Robin combination at nu=0, frozen from a plain
# 200-step bisection of 0.5*J_0(x) - x*J_1(x) on (0.1, 2.4048).
Z1_NU0_H_HALF = 0.9407705639497375


class TestBesselJZeros:
    def test_against_reference_integer_orders(self):
        import scipy.special as sp

        for order in (0, 1, 5):
            ours = bessel_j_zeros(float(order), 6)
            ref = sp.jn_zeros(order, 6)
            assert np.max(np.abs(ours - ref)) < 1e-11

    def test_near_minus_one(self):
        z = bessel_j_zeros(-0.999, 3)
        assert 0.0 < z[0] < 0.1
        assert np.all(np.abs(bessel_j(-0.999, z)) < 1e-10)

    def test_large_order_mcmahon_fallback(self):
        z = bessel_j_zeros(10.0, 3)
        assert z[0] == pytest.approx(14.47550068655454, rel=1e-10)


class TestBuildZeroTable:
    def test_neumann_case_closed_form(self):
        table = build_zero_table(SpectralParams(-0.5, 0.5), 25)
        ref = math.pi * np.arange(1, 26)
        assert np.max(np.abs(table.zeros[1:] - ref)) < 1e-12
        assert table.zeros[0] == 0.0

    def test_dirichlet_case_closed_form(self):
        table = build_zero_table(SpectralParams(0.5, 0.5), 25)
        ref = math.pi * (np.arange(1, 26) - 0.5)
        assert np.max(np.abs(table.zeros[1:] - ref)) < 1e-12

    def test_first_zero_golden(self):
        table = build_zero_table(SpectralParams(0.0, 0.5), 1)
        assert table.zeros[1] == pytest.approx(Z1_NU0_H_HALF, abs=1e-12)

    def test_interlacing(self):
        p = SpectralParams(0.7, 0.5)
        table = build_zero_table(p, 30)
        assert_j_brackets_interlace(table, 30)

    def test_residuals(self):
        for nu, h in ((-0.9, 0.5), (0.0, 2.0), (3.0, -1.0)):
            table = build_zero_table(SpectralParams(nu, h), 40)
            z = table.zeros[1:]
            res = np.abs(bessel_jh(table.params, z))
            assert np.all(res <= 1e-10 * (1.0 + z))

    def test_asymptotic_offset_stabilizes(self):
        table = build_zero_table(SpectralParams(1.3, 0.5), 100)
        dev = np.abs(table.zeros[1:] - math.pi * np.arange(1, 101))
        tail = dev[-20:]
        # The last 20% of offsets drift monotonically toward the limit.
        diffs = np.diff(tail)
        assert np.all(diffs <= 1e-6) or np.all(diffs >= -1e-6)
        assert table.pi_offset_sup < 4.0

    def test_minus_regime_has_z0(self):
        p = SpectralParams(-0.8, 0.5)
        table = build_zero_table(p, 3)
        assert 0.0 < table.zeros[0] < 0.5
        assert table.lo[0] <= table.zeros[0] <= table.hi[0]
        assert table.sign[0] == -1

    def test_plus_regime_rejects_z0(self):
        table = build_zero_table(SpectralParams(0.5, 0.5), 3)
        assert table.n_min == 1
        assert np.isnan(table.zeros[0])

    def test_brackets_certify(self):
        p = SpectralParams(0.2, 0.5)
        table = build_zero_table(p, 10)
        for n in range(1, 11):
            lo, hi = table.lo[n], table.hi[n]
            assert lo < table.zeros[n] < hi
            assert hi - lo <= max(table.tol, 4.0 * np.spacing(hi))

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            build_zero_table(SpectralParams(0.0, 0.5), 5, tol=1e-14)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(DomainError):
            build_zero_table(SpectralParams(0.0, 0.5), 5, tol=tol)

    def test_i_zero_may_exceed_first_j_zero(self):
        # z_0 (a zero of I_{nu,H}) and z_1 (of J_{nu,H}) are unrelated, so
        # only z_1 < z_2 < ... is required; the eigenvalues stay ordered.
        table = build_zero_table(SpectralParams(-0.75, -1.5), 8)
        assert table.zeros[0] > table.zeros[1]
        assert np.all(np.diff(table.zeros[1:]) > 0.0)

    @given(st.floats(-0.95, 3.0), st.floats(-1.5, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_interlacing_property(self, nu, h):
        p = SpectralParams(nu, h)
        table = build_zero_table(p, 8)
        assert_j_brackets_interlace(table, 8)


def assert_j_brackets_interlace(table, count):
    """Exactly one J_nu bracket lies strictly between z_n and z_{n+1} for n
    < count; J_nu has the stored signs at its ends, and on a grid of step
    0.01 (zeros lie more than 1.5 apart) it changes sign once in each
    bracket and nowhere else."""
    lo, hi, nu = table.j_lo, table.j_hi, table.params.nu
    for n in range(1, count):
        inside = np.sum((lo > table.zeros[n]) & (hi < table.zeros[n + 1]))
        assert inside == 1
    assert np.array_equal(np.sign(bessel_j(nu, lo)), table.j_sign)
    assert np.array_equal(np.sign(bessel_j(nu, hi)), -table.j_sign)
    x = np.sort(np.concatenate([np.arange(1e-3, hi[-1], 0.01), lo, hi]))
    s = np.sign(bessel_j(nu, x))
    flips = x[1:][s[1:] != s[:-1]]
    assert flips.size == lo.size and np.all((lo < flips) & (flips <= hi))


class TestIZeros:
    def test_equals_per_order_tables(self):
        # One array refine over the grid gives each order's table z_0 and
        # bracket bit for bit.
        nus = np.linspace(-1.0 + 1e-3, -0.5 - 1e-3, 64)
        z0, lo, hi = i_zeros(nus, 0.5)
        for i, nu in enumerate(nus.tolist()):
            table = build_zero_table(SpectralParams(nu, 0.5), 1)
            assert (z0[i], lo[i], hi[i]) == (table.zeros[0], table.lo[0], table.hi[0])

    def test_scan_failure_names_the_order(self):
        with pytest.raises(BracketScanFailure, match=r"at nu = 0\.2, H = 0\.5"):
            i_zeros(np.array([-0.8, 0.2, -0.7]), 0.5)


def assert_certified(table):
    """Every stored bracket encloses its zero, has width <= max(tol, 4 ulp),
    lies in its interlacing cell and carries the signs the function has at
    its ends; so does every J_nu bracket, which alternate in sign from +
    (J_nu > 0 below j_1) and ascend without overlap."""
    p = table.params
    j_lo, j_hi, j_sign = table.j_lo, table.j_hi, table.j_sign
    assert np.array_equal(np.sign(bessel_j(p.nu, j_lo)), j_sign)
    assert np.array_equal(np.sign(bessel_j(p.nu, j_hi)), -j_sign)
    assert np.array_equal(j_sign, (-1.0) ** np.arange(j_lo.size))
    assert np.all(j_lo < j_hi) and np.all(j_hi[:-1] < j_lo[1:])
    for n in range(table.n_min, table.n_max + 1):
        lo, hi, sign, z = table.lo[n], table.hi[n], table.sign[n], table.zeros[n]
        if n == 0 and p.regime is Regime.ZERO:
            assert sign == 0 and lo == hi == 0.0 and z == 0.0
            continue
        assert lo < z < hi
        assert hi - lo <= max(table.tol, 4.0 * np.spacing(hi))
        f = bessel_ih if n == 0 else bessel_jh
        assert (np.sign(f(p, lo)), np.sign(f(p, hi))) == (sign, -sign)
        assert sign in (-1, 1)
    # Cell m of z_n (m = n, n + 1 unless PLUS): above the m - 1 J_nu brackets
    # below it and below bracket m, so exactly one J_nu zero between neighbours.
    lo, hi = table.lo[1:], table.hi[1:]
    below = np.searchsorted(j_hi, lo, "right")
    assert np.all(hi <= j_lo[below])
    assert np.array_equal(below, np.arange(lo.size) + (p.regime is not Regime.PLUS))


class TestNewtonCertificate:
    """The vectorized Newton refiner and its sign certificate."""

    @pytest.mark.parametrize("nu, shift", [(-0.5, 0.0), (0.5, 0.5)])
    def test_closed_form_zeros_to_rounding(self, nu, shift):
        # H = 1/2: J_{-1/2,1/2} zeros are n pi, J_{1/2,1/2} zeros (n - 1/2) pi.
        table = build_zero_table(SpectralParams(nu, 0.5), 3000).upto(3000)
        ref = math.pi * (np.arange(1, 3001) - shift)
        assert np.max(np.abs(table.zeros[1:] - ref) / ref) <= 1e-15

    @pytest.mark.parametrize("nu", [-0.9, 0.0, 3.0])
    def test_every_bracket_certified(self, nu):
        assert_certified(build_zero_table(SpectralParams(nu, 0.5), 3000).upto(3000))

    @pytest.mark.parametrize("nu, h", [(-0.75, -1.5), (-0.5, 0.5), (0.2, -1.0)])
    def test_n0_and_regimes_certified(self, nu, h):
        assert_certified(build_zero_table(SpectralParams(nu, h), 200).upto(200))

    def test_sequential_scan_fallback(self, monkeypatch):
        import scipy.special as sp

        scans = []
        original = zeros_mod._scan
        monkeypatch.setattr(
            zeros_mod, "_scan",
            lambda nu, x0, end: scans.append(x0) or original(nu, x0, end),
        )
        ours = bessel_j_zeros(10.0, 200)
        assert scans == [10.0]  # the McMahon bracket of j_1 misses it at nu = 10
        ref = sp.jn_zeros(10, 200)
        assert np.max(np.abs(ours - ref) / ref) <= 1e-14

    def test_forced_certificate_failure_bisects(self, monkeypatch):
        p = SpectralParams(0.3, 0.5)
        reference = build_zero_table(p, 300).upto(300)
        nus = np.linspace(-0.95, -0.55, 9)
        z0_reference = i_zeros(nus, 0.5)[0]
        newton = zeros_mod._newton
        fallbacks = []
        bisect = zeros_mod._bisect

        def off_by_a_little(fdf, x, lo, hi, s_lo, tol):
            # Every third entry ends outside x -/+ d, so that its certificate
            # fails, and keeps its whole cell, so that bisection evaluates f.
            xn, lo_n, hi_n = newton(fdf, x, lo, hi, s_lo, tol)
            xn[::3], lo_n[::3], hi_n[::3] = xn[::3] + 1e-9, lo[::3], hi[::3]
            return xn, lo_n, hi_n

        def spy(f, lo, *args):
            fallbacks.append(lo.size)
            return bisect(f, lo, *args)

        monkeypatch.setattr(zeros_mod, "_newton", off_by_a_little)
        monkeypatch.setattr(zeros_mod, "_bisect", spy)
        table = build_zero_table(p, 300).upto(300)
        # Every third J_{nu,H} zero: one call for the first block of 128 and
        # one for the 172 modes it grows by (no J_nu zero is refined here).
        assert fallbacks == [43, 58]
        assert_certified(table)
        ref = reference.zeros[1:]
        assert np.all(np.abs(table.zeros[1:] - ref) <= np.maximum(1e-13, 4.0 * np.spacing(ref)))

        # The batched z_0: entries 0, 3 and 6 of nine orders, bisected
        # together, each with its own order's I_{nu,H}, as when alone.
        fallbacks.clear()
        z0, lo, hi = i_zeros(nus, 0.5)
        assert fallbacks == [3]
        for i in range(nus.size):
            if i % 3:
                assert z0[i] == z0_reference[i]
            else:
                alone = i_zeros(nus[i : i + 1], 0.5)  # its one entry is forced to bisect
                assert (z0[i], lo[i], hi[i]) == tuple(v[0] for v in alone)
                assert abs(z0[i] - z0_reference[i]) <= 1e-13
        assert fallbacks == [3, 1, 1, 1]

    def test_bisected_width_across_a_binade(self, monkeypatch):
        # The Newton bracket [255.5, 256.5] spans 256, where ulp doubles; the
        # bisected bracket below 256 must still meet max(tol, 4 ulp(hi)).
        monkeypatch.setattr(zeros_mod, "_newton", lambda fdf, x, lo, hi, s_lo, tol: (x, lo, hi))
        f = lambda x, _: x - 255.9
        one = lambda v: np.array([v])
        _, a, b = zeros_mod._refine(f, None, one(255.6), one(255.5), one(256.5), one(-1.0), 1e-13)
        assert a[0] < 255.9 < b[0] < 256.0
        assert b[0] - a[0] <= max(1e-13, 4.0 * np.spacing(b[0]))

    @pytest.mark.parametrize("nu", [-0.75, 0.0, 0.3, 3.0])
    def test_mpmath_near_bessel_cap(self, nu):
        """z_n near n = 31,800, where z_n approaches the 1e5 cap of bessel_j."""
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 30
        table = build_zero_table(SpectralParams(nu, 0.5), 31800).upto(31800)
        nu_, h_ = mp.mpf(nu), mp.mpf(0.5)
        robin = lambda x: x * mp.besselj(nu_, x, 1) + h_ * mp.besselj(nu_, x)
        for n in (31790, 31799, 31800):
            z = float(table.zeros[n])
            zr = float(mp.findroot(robin, mp.mpf(z)))
            assert abs(z - zr) <= 1e-15 * zr


class TestBisection:
    """The bisection ``_refine`` falls back on, reached with ``_newton`` off
    and a start x0 far from the zero, so that the certificate fails and the
    whole cell is bisected."""

    @staticmethod
    def refine(f, x0, lo, hi, s_lo, tol):
        one = lambda v: np.array([float(v)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeros_mod, "_newton", lambda fdf, x, lo, hi, s_lo, tol: (x, lo, hi))
            x, a, b = zeros_mod._refine(lambda x, _: f(x), None, one(x0), one(lo), one(hi),
                                        one(s_lo), tol)
        return x[0], a[0], b[0]

    ROOTS = {
        "sqrt_two": (lambda x: x * x - 2.0, 1.0, 2.0, math.sqrt(2.0)),
        "cosine_half_pi": (np.cos, 1.0, 2.0, math.pi / 2.0),
        "robin_first_zero": (lambda x: bessel_jh(SpectralParams(0.0, 0.5), x), 0.1, 2.4048,
                             Z1_NU0_H_HALF),
    }

    @pytest.mark.parametrize("name", sorted(ROOTS))
    def test_bisects_to_tol(self, name):
        f, lo, hi, root = self.ROOTS[name]
        s_lo = np.sign(f(np.array([lo])))[0]
        x, a, b = self.refine(f, hi - 0.01, lo, hi, s_lo, 1e-12)
        assert a < x < b and b - a <= 1e-12
        assert abs(x - root) < 1e-12
        assert np.array_equal(np.sign(f(np.array([a, b]))), [s_lo, -s_lo])

    def test_exact_zero_bracket_is_signed(self):
        # The first midpoint 0.5 is an exact zero, but f < 0 just above it:
        # a bracket around 0.5 would not be signed, so none is returned.
        f = lambda x: np.where(x == 0.5, 0.0, np.where(x >= 0.75, 1.0, -1.0))
        with pytest.raises(ConsistencyError, match="zero bisection: exact zero x = 0.5"):
            self.refine(f, 0.9, 0.0, 1.0, -1.0, 1e-12)
        x, a, b = self.refine(lambda x: x - 0.5, 0.9, 0.0, 1.0, -1.0, 1e-12)
        assert x == 0.5 and a < 0.5 < b

    @pytest.mark.parametrize("tol", [1e-13, 4.0 * math.ulp(64.0)])
    def test_exact_zero_bracket_honours_tol(self, tol):
        # The first midpoint 64 is an exact zero; the bracket around it must
        # still be signed and no wider than tol (tol >= 2 ulp(64)).
        x, a, b = self.refine(lambda x: x - 64.0, 100.0, 0.0, 128.0, -1.0, tol)
        assert x == 64.0 and a < 64.0 < b and b - a <= tol

    def test_step_cap_is_a_consistency_error(self):
        # 200 halvings of [0, 2e300] leave a bracket far wider than tol.
        with pytest.raises(ConsistencyError, match="zero bisection: 1 bracket"):
            self.refine(lambda x: x - 1.0, 1e300, 0.0, 2e300, -1.0, 1e-13)

    @given(st.floats(-0.9, 0.9), st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_enclosure_property(self, shift, scale):
        f = lambda x: scale * (x - shift) ** 3 + (x - shift)
        x, a, b = self.refine(f, shift + 1.2, shift - 1.0, shift + 1.3, -1.0, 1e-11)
        assert a <= x <= b and a <= shift <= b
        assert b - a <= 1e-11


# (nu, H) in the PLUS, ZERO and MINUS regimes, at |nu| <, = and > 1/2 and at
# H <, = and > 1/2.
OFFSET_CASES = [(0.0, 0.5), (0.3, -0.1), (0.25, 2.0), (-0.25, 0.5), (0.5, 0.5), (0.7, 0.5),
                (1.5, 0.5), (1.5, 2.0), (3.0, 0.5), (-0.5, 0.5), (-0.75, 0.75), (-0.9, 0.5),
                (-0.75, -1.5), (0.4, -1.0)]


class TestZeroTable:
    """ZeroTable checks its own certificate when it is constructed."""

    @staticmethod
    def rebuild(table, **changes):
        fields = dict(zeros=table.zeros, lo=table.lo, hi=table.hi, sign=table.sign,
                      j_lo=table.j_lo, j_hi=table.j_hi, j_sign=table.j_sign)
        fields = {k: v.copy() for k, v in fields.items()}
        for name, (n, value) in changes.items():
            fields[name][n] = value
        return ZeroTable(table.params, table.n_max, table.tol, **fields)

    @pytest.mark.parametrize("nu, h", [(0.0, 0.5), (-0.8, 0.5), (-0.75, 0.75)])
    def test_rejects_broken_certificate(self, nu, h):
        table = build_zero_table(SpectralParams(nu, h), 20)
        self.rebuild(table)  # an unchanged copy passes
        lo, hi, z = table.lo, table.hi, table.zeros
        # z_5 lies between J brackets cell - 1 and cell.
        cell = 5 + (table.params.regime is not Regime.PLUS)
        broken = [
            ("residual", dict(zeros=(5, z[5] + 1e-3))),
            ("lo < z < hi", dict(zeros=(5, hi[5]))),
            ("below the next one", dict(lo=(6, hi[5] - 0.5 * (hi[5] - lo[5])))),
            ("width", dict(lo=(5, z[5] - 2.0 * table.tol))),
            ("interlacing cell", dict(j_lo=(cell - 1, lo[5]))),  # J bracket cell reaches z_5
            ("interlacing cell", dict(j_hi=(cell - 2, hi[5]))),
            ("J_nu bracket of j_m signed", dict(j_sign=(3, -table.j_sign[3]))),
            ("J_nu brackets ascending", dict(j_hi=(3, table.j_lo[3]))),
            ("sign", dict(sign=(7, 0))),
            ("sign", dict(sign=(0, 1.0 - abs(table.sign[0])))),  # slot 0: bracketed iff MINUS
        ]
        for what, change in broken:
            with pytest.raises(ConsistencyError, match=what):
                self.rebuild(table, **change)

        # The same checks on a block past the first, at its seam too: a
        # rejected block leaves the table as it was.
        grown, k = build_zero_table(SpectralParams(nu, h), 300), zeros_mod.PSI_BLOCK_MODES
        seam = grown.hi[k] - 0.5 * (grown.hi[k] - grown.lo[k])
        in_block = [  # (what, the part of (zeros, lo, hi, sign) changed, its entry, new value)
            ("residual", 0, 5, lambda z, lo, hi: z[5] + 1e-3),
            ("lo < z < hi", 0, 5, lambda z, lo, hi: hi[5]),
            ("below the next one", 1, 0, lambda z, lo, hi: seam),
            ("width", 1, 5, lambda z, lo, hi: z[5] - 2.0 * grown.tol),
            ("sign", 3, 7, lambda z, lo, hi: 0.0),
        ]
        robin_zeros = zeros_mod._robin_zeros
        for what, part, i, value in in_block:
            def broken(*args):
                out = [v.copy() for v in robin_zeros(*args)]
                out[part][i] = value(*out[:3])
                return tuple(out)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(zeros_mod, "_robin_zeros", broken)
                with pytest.raises(ConsistencyError, match=what):
                    grown.upto(300)
            assert grown.size == k and grown.c.size == grown.eigen.size == k + 1
        assert grown.upto(300).size == 300


    @pytest.mark.parametrize("nu, h", OFFSET_CASES)
    def test_freq_offset_bounds_every_n(self, nu, h):
        # Every tail sum takes z_n >= pi (n - c_off) for all n > n_max. c_off
        # is stated from the first block, so it is the same at every n_max,
        # and it bounds n - z_n/pi up to n = 6000 (at nu = 0, H = 1/2 that
        # rises toward 3/4: 0.7499979 at n = 6000).
        params = SpectralParams(nu, h)
        offsets = {build_zero_table(params, n).freq_offset for n in (300, 800, 3000)}
        assert len(offsets) == 1
        z = build_zero_table(params, 6000).upto(6000).zeros[1:]
        assert np.all(np.arange(1, z.size + 1) - z / math.pi <= offsets.pop())


class TestLargeOrder:
    """Orders where McMahon's series has not converged for the first zeros:
    those zeros come from the step-pi scan, and every J_nu bracket is
    certified to hold its own zero."""

    def test_bessel_j_zeros_at_nu_40(self):
        import scipy.special as sp

        ours, ref = bessel_j_zeros(40.0, 50), sp.jn_zeros(40, 50)
        assert np.max(np.abs(ours - ref) / ref) <= 1e-14

    def test_kept_brackets_take_their_index_from_the_scan(self, monkeypatch):
        # Guesses g_k = j_{k-2} (k >= 3): brackets 1 and 2 fail, the scan
        # below bracket 3 finds no zero, so bracket k holds j_{k-2}, and the
        # last two zeros come from a second scan above the last bracket.
        import scipy.special as sp

        ref = sp.jn_zeros(10, 40)
        monkeypatch.setattr(zeros_mod, "_mcmahon",
                            lambda nu, k: np.where(k >= 3, ref[np.maximum(k, 3) - 3], 10.5))
        ours = bessel_j_zeros(10.0, 40)
        assert np.max(np.abs(ours - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("nu, n_max", [(40.0, 50), (100.0, 3000)])
    def test_tables_against_neighbouring_orders(self, nu, n_max):
        # x J_nu' + nu J_nu = x J_{nu-1} and x J_nu' - nu J_nu = -x J_{nu+1}:
        # at H = nu, z_n = j_{nu-1,n}; at H = -nu (the ZERO regime), j_{nu+1,n}.
        import scipy.special as sp

        for h, order in ((nu, int(nu) - 1), (-nu, int(nu) + 1)):
            table = build_zero_table(SpectralParams(nu, h), n_max).upto(n_max)
            ref = sp.jn_zeros(order, n_max)
            assert np.max(np.abs(table.zeros[1:] - ref) / ref) <= 1e-14
            assert_certified(table)

    def test_mcmahon_bracket_holding_a_later_zero_is_not_kept(self):
        # At nu = 100 McMahon's bracket 7 holds j_9, with the signs of j_7;
        # brackets 1-69 are replaced by the scan from nu, which counts them.
        import scipy.special as sp

        table = build_zero_table(SpectralParams(100.0, 0.5), 200)
        ref = sp.jn_zeros(100, table.j_lo.size)
        g7 = float(zeros_mod._mcmahon(100.0, 7))
        assert g7 - 0.6 < ref[8] < g7 + 0.6
        assert np.all((table.j_lo <= ref * (1 + 1e-14)) & (ref * (1 - 1e-14) <= table.j_hi))


class TestModeCap:
    """A table grows only while its J_nu brackets lie below X_MAX_J."""

    @pytest.mark.parametrize("nu, h", [(0.0, 0.5), (-0.75, -1.5)])
    def test_cap_is_the_last_mode_below_x_max(self, nu, h):
        p = SpectralParams(nu, h)
        cap = zeros_mod._mode_cap(p)
        table = build_zero_table(p, cap + 1).upto(cap)
        assert table.size == cap and table.j_hi[-1] <= X_MAX_J
        assert zeros_mod._mcmahon(nu, table.j_hi.size + 1) + 0.6 > X_MAX_J
        with pytest.raises(DomainError, match=rf"mode {cap + 1} needs J_nu above x = 100000.*"
                                              rf"largest usable --n-max is {cap}$"):
            table.upto(cap + 1)
        assert table.size == cap


class TestBesselWork:
    """The zero stage costs few Bessel points per zero: two at the ends of
    each McMahon bracket (which give the J_nu and the J_{nu,H} signs), the
    Newton steps and certificate of the J_{nu,H} zero, and the residual."""

    @pytest.mark.parametrize("nu", [-0.75, 0.0, 3.0, 20.0])
    def test_points_and_calls_per_table(self, nu, monkeypatch):
        import dini.specfun as specfun

        calls, original = [], specfun._bessel_js
        monkeypatch.setattr(specfun, "_bessel_js",
                            lambda orders, xs: calls.append(xs.size) or original(orders, xs))
        build_zero_table(SpectralParams(nu, 0.5), 3000).upto(3000)
        # 6.5 to 7.1 points per zero and 12 to 24 calls at this change; 10.8
        # to 25.8 points and 24 to 62 calls when each J_nu zero was refined.
        assert sum(calls) / 3000 <= 7.5
        assert len(calls) <= 25


class TestX0Bound:
    def test_value(self):
        nu = -0.75
        ref = (2.0 / 3.0) * math.sqrt(
            -(6 * nu**3 + 21 * nu**2 + 21 * nu + 6) / (2 * nu + 3)
        )
        assert x0_bound(nu) == pytest.approx(ref, rel=1e-15)
        assert x0_bound(nu) == pytest.approx(0.37267799624996495, rel=1e-13)

    def test_endpoint_continuity(self):
        assert x0_bound(-0.5 - 1e-6) < 0.01

    def test_below_half(self):
        for nu in np.linspace(-0.999, -0.501, 64):
            assert x0_bound(float(nu)) < 0.5

    def test_dominates_z0(self):
        for nu in (-0.9, -0.75, -0.6):
            table = build_zero_table(SpectralParams(nu, 0.5), 1)
            assert table.zeros[0] < x0_bound(nu) < 0.5

    def test_domain(self):
        for bad in (-0.5, -1.0, 0.2):
            with pytest.raises(DomainError):
                x0_bound(bad)


class TestSerialization:
    @pytest.mark.parametrize("nu, h", [(0.0, 0.5), (-0.8, 0.5), (-0.75, 0.75), (-0.75, -1.5),
                                       (3.0, 1.0)])
    def test_csv_is_per_row_formatting(self, nu, h):
        """The column-wise CSV has the bytes of formatting row by row."""
        table = build_zero_table(SpectralParams(nu, h), 60)
        fmt = lambda v: "%.17g" % float(v)
        lines = ["nu,H,n,zero,bracket_lo,bracket_hi,tol"]
        for n in range(table.n_min, table.n_max + 1):
            lines.append(",".join([fmt(nu), fmt(h), str(n), fmt(table.zeros[n]),
                                   fmt(table.lo[n]), fmt(table.hi[n]), fmt(table.tol)]))
        out = io.StringIO()
        table.to_csv(out)
        assert out.getvalue() == "\n".join(lines) + "\n"

    def test_csv_round_trip(self, tmp_path):
        """to_csv writes every zero and bracket end in a binary64 round-trip
        format, one row per stored zero; a slot without a bracket (z_0 = 0
        at nu + H = 0) prints 0,0."""
        for nu, h in ((-0.8, 0.5), (-0.75, 0.75)):
            table = build_zero_table(SpectralParams(nu, h), 12)
            path = tmp_path / "zeros.csv"
            table.to_csv(path)
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            assert header == ["nu", "H", "n", "zero", "bracket_lo", "bracket_hi", "tol"]
            assert [int(row[2]) for row in rows] == list(range(table.n_min, table.n_max + 1))
            for row in rows:
                n = int(row[2])
                assert float(row[3]) == table.zeros[n]
                assert float(row[4]) == table.lo[n]
                assert float(row[5]) == table.hi[n]
        assert rows[0][3:6] == ["0", "0", "0"] and table.sign[0] == 0
