"""The three benchmark workloads and the checks on their outputs.

A workload's ``setup(seed)`` builds what the workload keeps across
operations and returns one round: a list of operations, each a timed call
into dini and an untimed check of what it returned. Every run repeats whole
rounds of the same operations. The seed decides the inputs; dini receives
only the generated values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles


class WrongOutput(Exception):
    """An output disagrees with an oracle or breaks a required property."""


def expect(ok, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _g(x: float) -> str:
    """A CLI argument that round-trips the value."""
    return repr(float(x))


# --------------------------------------------------------------------------
# sweep: cold verification calls through dini.cli.main
# --------------------------------------------------------------------------

NU_GRID = (-0.9, -0.75, -0.5, 0.0, 0.5, 1.5, 3.0)
SANDWICH_NUS = (-0.75, -0.25, 0.25, 2.0)
SANDWICH_T = (0.01, 0.1, 0.5, 1.0)
HEAT_T = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
HEAT_LONG_T = (1.0, 2.5, 5.0)
# Poisson times at which n_max = 800 reaches tol directly, with no
# subordination (diagonal pairs of the default grid cannot be subordinated).
POISSON_T = (2e-2, 1e-1, 1.0)
POISSON_NUS = (-0.5, 0.5, 1.5)
SURFACE_NUS = (-0.5, 0.5, 3.0)
# Values are certified to tol = 1e-10; the oracles are good to ~1e-15.
VALUE_ATOL = 1e-9
# sandwich_check's own slack is 1e-7 * kernel + 4 tol; the kernels at
# t >= 0.01 on the grid stay below 10.
SANDWICH_SLACK = 1e-6


def _cli(argv):
    from dini.cli import main

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([*argv, "--out", "-"])
        return rc, out.getvalue()

    return run


def _cli_op(argv, check_text):
    def check(result):
        rc, text = result
        expect(rc == 0, f"exit code {rc}")
        check_text(text)

    return Op(" ".join(argv), _cli(argv), check)


def _passed(text) -> dict:
    obj = json.loads(text)
    expect(obj.get("pass", True) is True, "artifact reports pass = false")
    return obj


def _check_zero_bound(text):
    rows = _passed(text)["rows"]
    expect(len(rows) == 32, f"{len(rows)} rows")
    for r in rows:
        nu, z0, x0 = r["nu"], r["z0"], r["x0"]
        expect(z0 < x0 < 0.5, f"z0 < x0 < 1/2 fails at nu={nu}")
        expect(abs(x0 - oracles.x0_closed_form(nu)) <= 1e-14 * x0, f"x0 at nu={nu}")
        expect(abs(oracles.robin_i_value(nu, 0.5, z0)) <= 1e-10, f"z0 residual at nu={nu}")


def _check_sandwich(nu):
    f0, f1 = oracles.generator_difference_ends(nu)

    def check(text):
        checks = _passed(text)["checks"]
        expect([c["t"] for c in checks] == list(SANDWICH_T), "sandwich times")
        for c in checks:
            t = c["t"]
            expect(c["min_lower_margin"] >= -SANDWICH_SLACK, f"lower margin at t={t}")
            expect(c["min_upper_margin"] >= -SANDWICH_SLACK, f"upper margin at t={t}")
            lo, up = math.exp(-t * max(f0, f1)), math.exp(-t * min(f0, f1))
            expect(abs(c["lower_factor"] - lo) <= 1e-12 * lo, f"lower factor at t={t}")
            expect(abs(c["upper_factor"] - up) <= 1e-12 * up, f"upper factor at t={t}")

    return check


def _check_envelopes(times):
    def check(text):
        reports = _passed(text)["reports"]
        expect([r["t"] for r in reports] == list(times), "report times")
        for r in reports:
            spread = r["max_ratio"] / r["min_ratio"]
            expect(r["min_ratio"] > 0.0, f"ratio not positive at t={r['t']}")
            expect(math.isfinite(spread) and spread <= 1e3, f"spread {spread} at t={r['t']}")

    return check


def _check_zeros(nu, count):
    def check(text):
        d = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        z = d[:, 3]
        expect(z.size == count and np.array_equal(d[:, 2], np.arange(1, count + 1)), "zero rows")
        res = float(np.max(oracles.robin_j_residual(nu, 0.5, z)))
        expect(res <= 1e-10, f"Robin residual {res:.2e}")
        expect(oracles.interlaces(nu, z), "zeros do not interlace with J_nu zeros")

    return check


def _check_basis(text):
    obj = _passed(text)
    expect(obj["gram_deviation"] <= 1e-8, "Gram deviation")
    expect(obj["boundary_residual"] <= 1e-8, "boundary residual")


def _surface(text):
    """(x, y, value) of a tensor-grid kernel CSV, as n x n matrices."""
    d = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    n = math.isqrt(d.shape[0])
    expect(n * n == d.shape[0], "surface is not a tensor grid")
    x, y, v = (d[:, k].reshape(n, n) for k in range(3))
    expect(np.array_equal(x, x[:1].repeat(n, 0)) and np.array_equal(y, x.T), "surface grid")
    return x, y, v


def _check_surface(oracle):
    def check(text):
        x, y, v = _surface(text)
        expect(np.all(np.isfinite(v)) and np.all(v > 0.0), "surface not positive")
        asym = float(np.max(np.abs(v - v.T)))
        expect(asym <= 1e-12 * float(np.max(v)), f"surface asymmetry {asym:.2e}")
        if oracle is not None:
            err = float(np.max(np.abs(v - oracle(x, y))))
            expect(err <= VALUE_ATOL, f"oracle error {err:.2e}")

    return check


def sweep(seed: int):
    """No prebuilt state: every call builds its own zeros, basis and engine."""
    rng = np.random.default_rng(seed)
    t_heat = float(10.0 ** rng.uniform(-2.0, -1.0))
    t_poisson = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(0.5)))
    nu_zeros = int(rng.integers(0, 3))
    ops = [
        _cli_op(["verify-zero-bound", "--nu-grid", "32", "--format", "json"], _check_zero_bound)
    ]
    for nu in SANDWICH_NUS:
        ops.append(_cli_op(
            ["verify-sandwich", "--nu", _g(nu), "--t", ",".join(map(_g, SANDWICH_T)),
             "--grid", "20", "--n-max", "300"],
            _check_sandwich(nu)))
    for kind, times in (("heat", HEAT_T), ("heat-long", HEAT_LONG_T)):
        for nu in NU_GRID:
            ops.append(_cli_op(
                ["verify-envelopes", "--kind", kind, "--nu", _g(nu),
                 "--t", ",".join(map(_g, times)), "--grid", "20", "--n-max", "300"],
                _check_envelopes(times)))
    for nu in POISSON_NUS:
        ops.append(_cli_op(
            ["verify-envelopes", "--kind", "poisson", "--nu", _g(nu), "--d-nu", "0",
             "--t", ",".join(map(_g, POISSON_T)), "--grid", "20", "--n-max", "800"],
            _check_envelopes(POISSON_T)))
    ops.append(_cli_op(["zeros", "--nu", str(nu_zeros), "--n-max", "3000"],
                       _check_zeros(nu_zeros, 3000)))
    ops.append(_cli_op(["basis-check", "--nu", "0.7", "--n-max", "40"], _check_basis))
    ops.append(_cli_op(
        ["kernel", "--kind", "poisson", "--nu", "0.5", "--t", _g(t_poisson),
         "--grid", "20", "--n-max", "1000"],
        _check_surface(lambda x, y: oracles.half_sine_poisson(t_poisson, x, y))))
    for nu in SURFACE_NUS:
        oracle = (lambda x, y: oracles.neumann_heat(t_heat, x, y)) if nu == -0.5 else None
        ops.append(_cli_op(
            ["kernel", "--kind", "heat", "--nu", _g(nu), "--t", _g(t_heat),
             "--grid", "60", "--n-max", "3000"],
            _check_surface(oracle)))
    return ops


# --------------------------------------------------------------------------
# potential: dual-route potential kernels on prebuilt zero tables
# --------------------------------------------------------------------------

POTENTIAL_CASES = (("bessel", -0.75), ("bessel", -0.5), ("bessel", 0.0), ("bessel", 1.5),
                   ("riesz", 0.5))
SIGMAS = (0.3, 0.5, 1.0, 1.6)
POTENTIAL_N_MAX = 3000
POTENTIAL_TOL = 1e-9
# One pair per separation band keeps the per-pair integration cost, which
# grows as pairs approach the diagonal, alike from seed to seed.
SEPARATION_BANDS = ((0.1, 0.25), (0.25, 0.5), (0.5, 0.8))


def potential_pairs(rng) -> list[tuple]:
    pairs = []
    for lo, hi in SEPARATION_BANDS:
        sep = rng.uniform(lo, hi)
        x = rng.uniform(0.02, 0.98 - sep)
        pairs.append((float(x), float(x + sep)))
    return pairs


def _check_potential(kind, nu, sigma, pairs):
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    oracle = None
    if sigma == 1.0 and (kind, nu) == ("bessel", -0.5):
        oracle = oracles.neumann_green_shifted(x, y)
    elif sigma == 1.0 and (kind, nu) == ("riesz", 0.5):
        oracle = oracles.mixed_green(x, y)

    def check(values):
        v = np.array([kv.value for kv in values])
        expect(v.size == len(pairs), "value count")
        expect(np.all(np.isfinite(v)) and np.all(v > 0.0), "potential not positive")
        rel = max(kv.cross_check / abs(kv.value) for kv in values)
        expect(rel <= 1e-6, f"routes disagree by {rel:.2e}")
        if oracle is not None:
            err = float(np.max(np.abs(v - oracle)))
            expect(err <= 10.0 * POTENTIAL_TOL, f"oracle error {err:.2e}")

    return check


def potential(seed: int):
    from dini.basis import build_basis
    from dini.kernels import KernelKind, KernelRequest, potential_kernel
    from dini.specfun import SpectralParams

    pairs = potential_pairs(np.random.default_rng(seed))
    kinds = {"bessel": KernelKind.BESSEL_POT, "riesz": KernelKind.RIESZ_POT}
    ops = []
    for kind, nu in POTENTIAL_CASES:
        params = SpectralParams(nu, 0.5)
        basis = build_basis(params, POTENTIAL_N_MAX)
        for sigma in SIGMAS:
            req = KernelRequest(kind=kinds[kind], params=params, time_or_sigma=sigma,
                                grid=pairs, tol=POTENTIAL_TOL, n_max=POTENTIAL_N_MAX,
                                cross_check=True)
            ops.append(Op(f"{kind} nu={nu} sigma={sigma}",
                          lambda req=req, basis=basis: potential_kernel(req, basis),
                          _check_potential(kind, nu, sigma, pairs)))
    return ops


# --------------------------------------------------------------------------
# functionals: weighted inequalities and semigroup time sweeps
# --------------------------------------------------------------------------

RELLICH_NUS = (1.2, 2.0, 5.0)
TRIALS_PER_NU = 4
TRIAL_TERMS = 5
SEMIGROUP_NUS = (-0.5, 1.0)
SEMIGROUP_T = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
SEMIGROUP_N_MAX = 1500
SEMIGROUP_TOL = 1e-9
SEMIGROUP_X = np.linspace(0.01, 0.99, 200)


def _check_trial(values):
    (r_lhs, r_rhs), (h_lhs, h_rhs) = values
    expect(r_lhs <= r_rhs * (1.0 + 1e-6), "second-order inequality fails")
    expect(h_lhs <= h_rhs * (1.0 + 1e-6), "first-order inequality fails")
    expect(r_lhs > 0.0 and abs(r_lhs - h_lhs) <= 1e-12 * r_lhs, "||f/x^2|| differs between checks")


def _semigroup_checks(nu):
    """Per-time checks; the last time also checks the whole sweep."""
    sups = []
    fx = oracles.trial_f(SEMIGROUP_X)

    def make(t):
        def check(values):
            if t == SEMIGROUP_T[0]:
                sups.clear()
            expect(values.shape == SEMIGROUP_X.shape and np.all(np.isfinite(values)), "values")
            sups.append(float(np.max(np.abs(values - fx))))
            if nu == -0.5:
                err = float(np.max(np.abs(values - oracles.neumann_semigroup_trial(t, SEMIGROUP_X))))
                expect(err <= 10.0 * SEMIGROUP_TOL, f"cosine oracle error {err:.2e} at t={t}")
            if t == SEMIGROUP_T[-1]:
                expect(len(sups) == len(SEMIGROUP_T), "incomplete time sweep")
                expect(all(a > b for a, b in zip(sups, sups[1:])), f"sup errors {sups}")
                expect(sups[-1] < 1e-3, f"sup error {sups[-1]:.2e} at t={t}")

        return check

    return make


def functionals(seed: int):
    from dini.basis import build_basis
    from dini.bounds import hardy_check, rellich_check
    from dini.kernels import semigroup_apply
    from dini.specfun import SpectralParams

    rng = np.random.default_rng(seed)
    ops = []
    for nu in RELLICH_NUS:
        for k in range(TRIALS_PER_NU):
            c = rng.standard_normal(TRIAL_TERMS)
            ops.append(Op(f"trial nu={nu} #{k}",
                          lambda nu=nu, c=c: (rellich_check(nu, c), hardy_check(nu, c)),
                          _check_trial))
    for nu in SEMIGROUP_NUS:
        b = build_basis(SpectralParams(nu, 0.5), SEMIGROUP_N_MAX)
        make = _semigroup_checks(nu)
        for t in SEMIGROUP_T:
            ops.append(Op(f"semigroup nu={nu} t={t:g}",
                          lambda b=b, t=t: semigroup_apply(b, oracles.trial_f, t, SEMIGROUP_X,
                                                           tol=SEMIGROUP_TOL),
                          make(t)))
    return ops


WORKLOADS = {"sweep": sweep, "potential": potential, "functionals": functionals}
