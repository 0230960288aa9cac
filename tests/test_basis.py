import math

import numpy as np
import pytest

from conftest import shared_basis
from dini import basis as basis_module
from dini import zeros as zeros_module
from dini.basis import (
    PSI_BLOCK_MODES,
    PSI_STORES_PER_BASIS,
    BasisSpec,
    JacobiBasisSpec,
    build_basis,
    build_jacobi_basis,
    certified_sup,
    default_coefficient_rule,
    dini_coefficients,
    eval_psi,
    gram_matrix,
)
from dini.errors import DomainError, RegimeMismatchError
from dini.kernels import PairEngine
from dini.numerics import QuadratureRule, endpoint_graded_rule, gauss_legendre
from dini.specfun import JacobiParams, Regime, SpectralParams
from dini.zeros import build_zero_table


class TestSharedBasis:
    def test_small_n_max_has_its_own_table(self):
        # The session cache builds one zero table per (nu, H, n_max), as the
        # CLI does: its cap is the basis's n_max. c_off and M are stated from
        # the first block, so they are the same at every n_max.
        big = shared_basis(0.0, 0.5, 3000)
        small = shared_basis(0.0, 0.5, 300)
        ref = build_basis(SpectralParams(0.0, 0.5), 300)
        assert (big.table.n_max, small.table.n_max) == (3000, 300)
        assert small.table.freq_offset == ref.table.freq_offset == big.table.freq_offset


class TestGrowth:
    """A basis starts with the first block of its table and grows to the
    modes asked for; growth in steps gives a one-shot table's arrays."""

    @pytest.mark.parametrize("nu, h", [(0.0, 0.5), (-0.75, -1.5), (-0.5, 0.5), (3.0, 0.5),
                                       (0.3, 2.0)])
    def test_grown_in_steps_equals_one_shot(self, nu, h, monkeypatch):
        p, n_max = SpectralParams(nu, h), 700
        x = np.linspace(0.01, 0.99, 37)
        b = build_basis(p, n_max)
        for n in (7, 183, 396, n_max):
            b.psi_rows(x).upto(n + 1)  # the rows of modes 0..n
            assert b.table.size == max(n, PSI_BLOCK_MODES)
        monkeypatch.setattr(zeros_module, "PSI_BLOCK_MODES", n_max)
        one = build_basis(p, n_max)
        assert one.table.size == n_max
        for name in ("zeros", "lo", "hi", "sign", "j_lo", "j_hi", "j_sign", "c", "eigen"):
            assert np.array_equal(getattr(b.table, name), getattr(one.table, name), equal_nan=True)
        assert b.table.max_residual == one.table.max_residual
        assert np.array_equal(b.psi_rows(x).rows, one.psi_matrix(x))

    def test_full_length_reads_grow_to_n_max(self):
        b = build_basis(SpectralParams(0.0, 0.5), 300)
        assert b.table.size == PSI_BLOCK_MODES
        assert b.c.size == b.eigen.size == 301 and b.table.size == 300


class TestPsiClosedForms:
    def test_neumann_constant_mode(self):
        b = shared_basis(-0.5)
        x = np.linspace(0.01, 0.99, 101)
        assert np.max(np.abs(eval_psi(b, 0, x) - 1.0)) < 1e-13

    def test_neumann_cosines(self):
        b = shared_basis(-0.5)
        x = np.linspace(0.01, 0.99, 101)
        ref = math.sqrt(2.0) * np.cos(3.0 * math.pi * x)
        assert np.max(np.abs(eval_psi(b, 3, x) - ref)) < 1e-12

    def test_dirichlet_sines(self):
        # The normalization constants force sqrt(2) sin(pi(n-1/2)x); the bare
        # sine has L2 norm 1/sqrt(2) and could not be part of an orthonormal
        # system.
        b = shared_basis(0.5)
        x = np.linspace(0.01, 0.99, 101)
        ref = math.sqrt(2.0) * np.sin(1.5 * math.pi * x)
        assert np.max(np.abs(eval_psi(b, 2, x) - ref)) < 1e-12
        assert eval_psi(b, 2, 0.5) == pytest.approx(math.sqrt(2.0) * math.sin(0.75 * math.pi))

    def test_zero_regime_monomial_mode(self):
        b = shared_basis(0.0, h=0.0, n_max=10)
        x = np.linspace(0.01, 0.99, 50)
        ref = math.sqrt(2.0) * np.sqrt(x)
        assert np.max(np.abs(eval_psi(b, 0, x) - ref)) < 1e-13

    def test_plus_regime_has_no_zero_mode(self):
        b = shared_basis(0.5)
        with pytest.raises(RegimeMismatchError):
            eval_psi(b, 0, 0.5)


class TestOrthonormality:
    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 1.5, 3.0])
    def test_gram_identity_default_h(self, nu):
        b = shared_basis(nu, n_max=40)
        gram = gram_matrix(b, 512)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    @pytest.mark.parametrize("h", [-1.0, 0.0, 2.0])
    def test_gram_identity_h_sweep(self, h):
        b = build_basis(SpectralParams(0.5, h), 25)
        gram = gram_matrix(b, 512)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    def test_jacobi_gram_identity(self):
        for a, bta in ((-0.5, -0.5), (0.7, -0.5), (1.2, 0.3), (-0.9, -0.2)):
            jb = build_jacobi_basis(JacobiParams(a, bta), 30)
            gram = gram_matrix(jb, 1024)
            assert np.max(np.abs(gram - np.eye(31))) < 1e-9


class TestPhi:
    def test_chebyshev_case_constant(self):
        jb = build_jacobi_basis(JacobiParams(-0.5, -0.5), 5)
        x = np.linspace(0.01, 0.99, 40)
        assert np.max(np.abs(jb.phi_matrix(x)[0] - 1.0)) < 1e-14

    def test_half_order_normalization(self):
        # For k=0 the quadrature normalization fixes C_0; cross-check the
        # closed-form value against an explicit norm integral.
        jb = build_jacobi_basis(JacobiParams(0.5, -0.5), 3)
        rule = gauss_legendre(512)
        sq = float(np.dot(rule.weights, jb.phi_matrix(rule.nodes)[0] ** 2))
        assert sq == pytest.approx(1.0, abs=1e-12)
        assert jb.phi_matrix([0.5])[0, 0] == pytest.approx(
            jb.C[0] * math.sin(math.pi / 4.0), rel=1e-14
        )

    def test_eigenvalues(self):
        jb = build_jacobi_basis(JacobiParams(0.7, -0.5), 4)
        k = np.arange(5)
        ref = math.pi**2 * (k + (0.7 - 0.5 + 1.0) / 2.0) ** 2
        assert np.allclose(jb.Lambda, ref, rtol=1e-15)


class TestCoefficients:
    def test_reproduces_basis_delta(self):
        b = shared_basis(0.7, n_max=30)
        quad = default_coefficient_rule(b, 512)
        coeffs = dini_coefficients(b, lambda x: eval_psi(b, 2, x), quad)
        ref = np.zeros(31)
        ref[2] = 1.0
        assert np.max(np.abs(coeffs - ref)) < 1e-9

    def test_zero_function(self):
        b = shared_basis(0.7, n_max=10)
        quad = default_coefficient_rule(b, 256)
        coeffs = dini_coefficients(b, lambda x: 0.0 * x, quad)
        assert np.all(coeffs == 0.0)

    def test_constant_function_neumann(self):
        b = shared_basis(-0.5, n_max=20)
        quad = default_coefficient_rule(b, 512)
        coeffs = dini_coefficients(b, lambda x: np.ones_like(x), quad)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(coeffs[1:])) < 1e-9

    def test_rejects_nonfinite_function(self):
        b = shared_basis(0.7, n_max=10)
        quad = default_coefficient_rule(b, 256)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                dini_coefficients(b, lambda x: np.where(x < 0.5, x, bad), quad)

    def test_parseval(self):
        b = shared_basis(0.7, n_max=200)
        quad = default_coefficient_rule(b, 1024)
        f = lambda x: np.exp(-1.0 / np.clip(x * (1.0 - x), 1e-12, None)) * 50.0
        coeffs = dini_coefficients(b, f, quad)
        norm_sq = float(np.dot(quad.weights, f(quad.nodes) ** 2))
        assert abs(np.sum(coeffs**2) - norm_sq) < 1e-6


class TestEigenRelation:
    @pytest.mark.parametrize("nu,h", [(-0.75, 0.5), (0.5, 0.5), (1.5, 0.5)])
    def test_differential_residual(self, nu, h):
        # -psi'' - (1/4-nu^2)/x^2 psi = sign * z^2 psi by centered differences.
        b = shared_basis(nu, h=h, n_max=5)
        x = np.linspace(0.2, 0.8, 31)
        step = 1e-4
        for n in range(b.n_min, 5):
            lam = b.eigen[n]
            psi = lambda xs: eval_psi(b, n, xs)
            second = (psi(x + step) - 2.0 * psi(x) + psi(x - step)) / step**2
            lhs = -second - (0.25 - nu * nu) / x**2 * psi(x)
            # Relative to the mode scale: eigenfunctions oscillate through 0,
            # so pointwise-relative is floored at a twentieth of |lam|.
            scale = np.maximum(np.abs(lam * psi(x)), 0.05 * max(abs(lam), 1.0))
            assert np.max(np.abs(lhs - lam * psi(x)) / scale) < 1e-5

    def test_robin_boundary_condition(self):
        # (H - 1/2) psi_n(1) + psi_n'(1) = 0, derivative via the recurrences.
        for nu, h in ((-0.8, 0.5), (0.3, 2.0), (1.5, -1.0)):
            b = build_basis(SpectralParams(nu, h), 12)
            x1 = np.array([1.0 - 1e-14])
            vals = (h - 0.5) * b.psi_matrix(x1) + b.psi_prime_matrix(x1)
            assert np.max(np.abs(vals[b.n_min :])) < 1e-8

    def test_derivative_points_checked(self):
        # psi' is defined on (0, 1]: x = 1 is the boundary the Robin check uses.
        b = build_basis(SpectralParams(0.7, 0.5), 10)
        assert np.all(np.isfinite(b.psi_prime_matrix(np.array([0.5, 1.0]))))
        for xs in ([0.5, math.nan], [1.5], [0.0], [-0.2, 0.5]):
            with pytest.raises(DomainError):
                b.psi_prime_matrix(np.array(xs))


class TestNormalizationConstants:
    def test_positive(self):
        for nu, h in ((-0.9, 0.5), (0.0, -0.3), (2.0, 1.0)):
            b = build_basis(SpectralParams(nu, h), 15)
            assert np.all(b.c[b.n_min :] > 0.0)

    def test_eigenvalue_sign_per_regime(self):
        assert build_basis(SpectralParams(-0.75, 0.5), 5).eigen[0] < 0.0
        assert build_basis(SpectralParams(-0.5, 0.5), 5).eigen[0] == 0.0
        b = build_basis(SpectralParams(0.5, 0.5), 5)
        assert np.all(np.diff(b.eigen[b.n_min :]) > 0.0)


SUP_COORDS = (
    np.array([0.3, 0.6]),
    np.array([1e-7, 3e-6, 5e-5, 0.5]),
    np.array([0.2, 1.0 - 5e-5, 1.0 - 1e-7]),
    np.concatenate([np.geomspace(1e-8, 1e-4, 7), np.linspace(0.1, 0.9, 9),
                    1.0 - np.geomspace(1e-8, 1e-4, 7)]),
)

# PLUS, ZERO, MINUS (nu = 0, H = -1), nu = 3 and nu = -0.9 (MINUS).
ORACLE_BASES = [(0.0, 0.5), (-0.5, 0.5), (0.0, -1.0), (3.0, 0.5), (-0.9, 0.5)]
# Both routes of the Jacobi bound: (alpha, -1/2) and its mirror image with
# alpha < -1/2 (Szego), and alpha, beta >= -1/2 (Erdelyi-Magnus-Nevai).
JACOBI_SUP_PARAMS = ([(a, -0.5) for a in (-0.95, -0.75, -0.6)]
                     + [(-0.5, b) for b in (-0.95, -0.75, -0.6)]
                     + [(a, b) for a in (-0.5, 0.0, 0.7, 2.0, 5.0)
                        for b in (-0.5, 0.0, 0.7, 2.0, 5.0)])


class TestCertifiedSup:
    @pytest.mark.parametrize("a, b", JACOBI_SUP_PARAMS)
    def test_jacobi_bound_holds(self, a, b):
        """The stated M of a 60-mode Jacobi basis bounds Phi_k for k <= 400 on
        a 2e4-point grid and for k <= 3000 at each of SUP_COORDS."""
        jp = JacobiParams(a, b)
        small = build_jacobi_basis(jp, 60)
        grid = np.linspace(1e-4, 1.0 - 1e-4, 20_000)
        assert np.max(np.abs(build_jacobi_basis(jp, 400).phi_matrix(grid))) <= certified_sup(
            small, grid)
        big = build_jacobi_basis(jp, 3000)
        for xs in SUP_COORDS:
            assert float(np.max(np.abs(big.phi_matrix(xs)))) <= certified_sup(small, xs)

    @pytest.mark.parametrize("a, b", [(-0.75, -0.5), (-0.5, -0.75)])
    def test_jacobi_endpoint_bound_is_sharp(self, a, b):
        """Below alpha = -1/2 the bound is attained at the far end: with
        every point near it, M is A_1 = C_1 binom(1/2, 1) up to the rounding
        allowance, and Phi_1 there is within 1e-12 of it."""
        q = min(a, b) + 0.5
        a1 = math.sqrt((2.0 + q) * math.gamma(1.0 + q) * math.gamma(1.5) / math.gamma(1.5 + q))
        xs = np.array([1.0 - 1e-7]) if a < b else np.array([1e-7])
        jb = build_jacobi_basis(JacobiParams(a, b), 60)
        m = certified_sup(jb, xs)
        assert a1 <= m <= a1 * (1.0 + 1e-11)
        assert abs(jb.phi_matrix(xs)[1, 0]) == pytest.approx(a1, rel=1e-12)

    def test_jacobi_values_of_the_stated_bounds(self):
        """alpha, beta >= -1/2: M^2 = 2 pi e (2 + sqrt(alpha^2 + beta^2)) at
        any points."""
        xs = np.linspace(0.01, 0.99, 20)
        for a, b in ((-0.5, -0.5), (0.7, -0.5), (2.0, 5.0)):
            m = math.sqrt(2.0 * math.pi * math.e * (2.0 + math.hypot(a, b)))
            jb = build_jacobi_basis(JacobiParams(a, b), 30)
            assert certified_sup(jb, xs) == certified_sup(jb, xs[5:9]) == pytest.approx(m, 1e-11)

    @pytest.mark.parametrize("a, b", [(-0.75, 0.3), (0.3, -0.75), (-0.75, -0.75), (-0.9, -0.6)])
    def test_jacobi_without_stated_bound_refused(self, a, b):
        jb = build_jacobi_basis(JacobiParams(a, b), 30)
        with pytest.raises(DomainError, match=r"alpha, beta >= -1/2 and for min\(alpha, beta\)"):
            certified_sup(jb, np.array([0.3, 0.6]))
        with pytest.raises(DomainError, match="no stated sup bound"):
            PairEngine(jb, [(0.3, 0.6)])

    @pytest.mark.parametrize("nu,h", ORACLE_BASES)
    def test_bound_holds_on_dense_grid(self, nu, h):
        """Closed-form M >= max |psi_n| over every stored mode on a 2e4-point
        grid united with coordinates down to 1e-8 from either end."""
        b = shared_basis(nu, h, n_max=100)
        grid = np.linspace(1e-4, 1.0 - 1e-4, 20_000)
        rows = basis_module._bessel_rows(b.table, grid, 0, b.n_max + 1)
        grid_max = float(np.max(np.abs(rows)))
        for xs in SUP_COORDS:
            peak = max(grid_max, float(np.max(np.abs(b.psi_matrix(xs)))))
            m = certified_sup(b, np.union1d(grid, xs))
            assert peak <= m
            assert certified_sup(b, xs) >= float(np.max(np.abs(b.psi_matrix(xs))))

    @pytest.mark.parametrize("nu,h", ORACLE_BASES + [(0.3, 3.0), (-0.75, -1.5), (10.0, -4.0)])
    def test_bound_covers_modes_beyond_n_max(self, nu, h):
        """M of a 60-mode basis bounds psi_n at its points for n up to 3000."""
        table = build_zero_table(SpectralParams(nu, h), 3000)
        big = BasisSpec(SpectralParams(nu, h), table, 3000)
        small = BasisSpec(SpectralParams(nu, h), table, 60)
        for xs in SUP_COORDS:
            assert float(np.max(np.abs(big.psi_matrix(xs)))) <= certified_sup(small, xs)

    @pytest.mark.parametrize("nu, h", [(0.0, 0.5), (0.3, -0.1), (-0.25, 0.5), (0.5, 0.5),
                                       (1.5, 2.0), (3.0, 0.5), (-0.75, -1.5), (-0.9, 0.5)])
    def test_same_at_every_n_max(self, nu, h):
        """M is stated from the first block, so n_max does not move it."""
        xs = np.linspace(0.01, 0.99, 20)
        sups = {certified_sup(build_basis(SpectralParams(nu, h), n), xs) for n in (300, 800, 3000)}
        assert len(sups) == 1

    def test_half_order_bound_is_sharp(self):
        """At nu = H = 1/2, psi_n(x) = sqrt(2) sin((n - 1/2) pi x): M is sqrt(2)
        up to the rounding allowance."""
        m = certified_sup(shared_basis(0.5, n_max=300), np.array([0.3, 0.6]))
        assert math.sqrt(2.0) <= m <= math.sqrt(2.0) * (1.0 + 1e-11)

    def test_values_of_the_stated_bounds(self):
        xs = np.linspace(0.01, 0.99, 20)
        for nu, expected in ((0.0, math.sqrt(2.0)), (0.5, math.sqrt(2.0)), (1.5, 1.766),
                             (3.0, 2.2335), (-0.75, 2.919), (-0.9, 5.1784)):
            assert certified_sup(shared_basis(nu, n_max=300), xs) == pytest.approx(
                expected, abs=0.001)

    def test_points_outside_interval_rejected(self):
        b = shared_basis(0.0, n_max=60)
        for xs in ([0.0, 0.5], [0.5, 1.0]):
            with pytest.raises(DomainError):
                certified_sup(b, np.array(xs))

    def test_nan_points_rejected(self):
        b = shared_basis(0.0, n_max=60)
        jb = build_jacobi_basis(JacobiParams(0.7, -0.5), 10)
        xs = np.array([0.5, math.nan])
        for evaluate in (lambda: certified_sup(b, xs), lambda: b.psi_matrix(xs),
                         lambda: eval_psi(b, 1, math.nan), lambda: b.psi_rows(xs),
                         lambda: jb.phi_matrix(xs), lambda: jb.psi_rows(xs)):
            with pytest.raises(DomainError, match="open interval"):
                evaluate()

    def test_split_constant_kept_on_basis(self, monkeypatch):
        """For nu > 1/2 the split constant is computed once per basis, and M
        is the value computed afresh."""
        xs = np.linspace(0.01, 0.99, 20)
        fresh = {nu: certified_sup(build_basis(SpectralParams(nu, 0.5), 60), xs)
                 for nu in (0.7, 3.0)}
        calls = []
        original = basis_module._split_constant
        monkeypatch.setattr(basis_module, "_split_constant",
                            lambda nu: calls.append(nu) or original(nu))
        for nu, m in fresh.items():
            b = build_basis(SpectralParams(nu, 0.5), 60)
            assert calls.count(nu) == 0
            assert [certified_sup(b, xs), certified_sup(b, xs[3:])] == [m, m]
            PairEngine(b, [(0.3, 0.6)])
            assert calls.count(nu) == 1
        certified_sup(build_basis(SpectralParams(0.3, 0.5), 60), xs)
        assert calls == [0.7, 3.0]

    @staticmethod
    def _count_probe_evaluations(monkeypatch):
        sizes = []
        for cls, name in ((BasisSpec, "psi_matrix"), (JacobiBasisSpec, "phi_matrix")):
            original = getattr(cls, name)

            def spy(self, x, *args, _original=original):
                sizes.append(np.size(x))
                return _original(self, x, *args)

            monkeypatch.setattr(cls, name, spy)
        return lambda: sum(n >= 10_000 for n in sizes)

    def test_build_evaluates_no_probe(self, monkeypatch):
        probes = self._count_probe_evaluations(monkeypatch)
        build_basis(SpectralParams(0.7, 0.5), 60)
        build_jacobi_basis(JacobiParams(0.7, -0.5), 60)
        assert probes() == 0

    def test_engines_evaluate_no_probe(self, monkeypatch):
        """An engine's sup bound evaluates no probe grid, on the Bessel basis
        and on both routes of the Jacobi bound."""
        b = build_basis(SpectralParams(0.7, 0.5), 60)
        jb = build_jacobi_basis(JacobiParams(0.7, -0.5), 60)
        jb_low = build_jacobi_basis(JacobiParams(-0.75, -0.5), 60)
        probes = self._count_probe_evaluations(monkeypatch)
        for basis in (b, jb, jb_low):
            PairEngine(basis, [(0.3, 0.6)])
            PairEngine(basis, [(0.1, 0.2), (0.4, 0.9)])
        assert probes() == 0


class TestMpmathConstants:
    """z_n and c_n against mpmath at 30 digits."""

    @pytest.mark.parametrize("h", [0.5, -1.0])
    @pytest.mark.parametrize("nu", [-0.75, 0.0, 0.3, 3.0])
    def test_zeros_and_constants(self, nu, h):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 30
        b = shared_basis(nu, h, n_max=300)
        nu_, h_ = mp.mpf(nu), mp.mpf(h)
        for n in (b.n_min, 1, 2, 10, 100, 300):
            z = float(b.table.zeros[n])
            if n == 0:
                if b.params.regime is not Regime.MINUS:
                    continue
                robin = lambda x: x * mp.besseli(nu_, x, 1) + h_ * mp.besseli(nu_, x)
                zr = mp.findroot(robin, z)
                c = mp.sqrt(2) * zr / (mp.besseli(nu_, zr) * mp.sqrt(zr**2 + nu_**2 - h_**2))
            else:
                robin = lambda x: x * mp.besselj(nu_, x, 1) + h_ * mp.besselj(nu_, x)
                zr = mp.findroot(robin, z)
                c = mp.sqrt(2) * zr / (abs(mp.besselj(nu_, zr)) * mp.sqrt(zr**2 - nu_**2 + h_**2))
            assert abs(z - float(zr)) <= 1e-13 * max(1.0, float(zr))
            assert abs(b.c[n] - float(c)) <= 1e-12 * float(c)


class TestRulePsiCache:
    """psi at a coefficient rule's nodes is kept on the basis in a row store,
    keyed by the nodes' values, and each of its rows is formed once."""

    @staticmethod
    def _count_rule_rows(monkeypatch, n_nodes):
        formed = []
        original = basis_module._bessel_rows

        def spy(table, x, lo, hi):
            if np.size(x) == n_nodes:
                formed.append(hi - lo)
            return original(table, x, lo, hi)

        monkeypatch.setattr(basis_module, "_bessel_rows", spy)
        return lambda: sum(formed)

    def test_filled_once_per_rule_never_at_build(self, monkeypatch):
        formed = self._count_rule_rows(monkeypatch, 256)
        b = build_basis(SpectralParams(0.7, 0.5), 40)
        assert b._stores == {} and formed() == 0
        rule = gauss_legendre(256)
        f = lambda x: x * (1.0 - x)
        first = dini_coefficients(b, f, rule)
        second = dini_coefficients(b, lambda x: np.cos(x), rule)
        assert formed() == b.n_max + 1
        assert np.array_equal(dini_coefficients(b, f, rule), first)
        assert not np.array_equal(first, second)
        # Keyed by value: a copy of the rule finds the same rows.
        copy = QuadratureRule(rule.nodes.copy(), rule.weights.copy())
        assert np.array_equal(dini_coefficients(b, f, copy), first)
        assert formed() == b.n_max + 1
        other = build_basis(SpectralParams(0.7, 0.5), 40, table=b.table)
        dini_coefficients(other, f, rule)
        assert formed() == 2 * (b.n_max + 1)

    def test_read_only_and_bounded(self):
        b = build_basis(SpectralParams(0.7, 0.5), 20)
        rules = [gauss_legendre(n) for n in (64, 65, 66, 67, 68)]
        store = b.psi_rows(rules[0].nodes)
        assert b.psi_rows(rules[0].nodes) is store
        mat = store.upto(b.n_max + 1)
        with pytest.raises(ValueError):
            mat[1, 0] = 0.0
        for rule in rules[1:]:
            b.psi_rows(rule.nodes)
        assert len(b._stores) == PSI_STORES_PER_BASIS
        assert b.psi_rows(rules[0].nodes) is not store  # the oldest store was dropped

    @pytest.mark.parametrize("nu", [0.7, -0.5, -0.75])  # PLUS, ZERO, MINUS
    def test_blocks_bit_identical_to_psi_matrix(self, nu):
        shared = shared_basis(nu, n_max=2 * PSI_BLOCK_MODES + 37)
        b = BasisSpec(shared.params, shared.table, shared.n_max)  # no rows formed yet
        for rule in (default_coefficient_rule(b, 300), endpoint_graded_rule(200, 3, 1)):
            ref = b.psi_matrix(rule.nodes)
            store = b.psi_rows(rule.nodes)
            held = 0
            for hi in (1, 5, 7, PSI_BLOCK_MODES + 3, 2, b.n_max + 1, b.n_max + 9):
                # Exactly the most rows asked for so far, at most n_max + 1.
                held = max(held, min(hi, b.n_max + 1))
                rows = store.upto(hi)
                assert rows.shape[0] == held
                assert np.array_equal(rows, ref[:held])
            assert np.array_equal(b.psi_rows(rule.nodes).upto(b.n_max + 1), ref)
            f = lambda x: x**1.5 * (1.0 - x)
            fx = rule.weights * f(rule.nodes)
            assert np.array_equal(dini_coefficients(b, f, rule), ref @ fx)
