"""Command-line front end.

Deterministic verification sweeps and kernel-surface emission; identical
configurations produce byte-identical CSV/JSON artifacts. Exit codes:
0 = all checks passed, 1 = a verification failed, 2 = usage or numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from typing import Optional, Sequence

import numpy as np

from . import bounds as bnd
from .basis import build_basis, gram_matrix
from .errors import DiniError, InequalityViolation, NonFiniteRatioError
from .kernels import (
    KernelKind,
    KernelRequest,
    heat_kernel,
    poisson_kernel,
    potential_kernel,
    semigroup_apply,
)
from .numerics import _fmt
from .specfun import JacobiParams, SpectralParams, bessel_ih
from .zeros import build_zero_table, x0_bound

# kernel --kind NAME: the kernel kind and the function that evaluates it.
KERNELS = {
    "heat": (KernelKind.HEAT, heat_kernel),
    "jacobi-heat": (KernelKind.JACOBI_HEAT, heat_kernel),
    "poisson": (KernelKind.POISSON, poisson_kernel),
    "poisson-shifted": (KernelKind.POISSON_SHIFTED, poisson_kernel),
    "riesz": (KernelKind.RIESZ_POT, potential_kernel),
    "bessel": (KernelKind.BESSEL_POT, potential_kernel),
}


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, default=float) + "\n"


def emit_plot_data(rows: Sequence[dict], columns: Sequence[str], out: Optional[str]) -> None:
    """Long-format CSV emission with binary64 round-trip formatting."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(
            ",".join(
                _fmt(row[c]) if isinstance(row[c], float) else str(row[c])
                for c in columns
            )
        )
    _emit("\n".join(lines) + "\n", out)


# ----------------------------- commands -----------------------------------


def _cmd_zeros(cfg: argparse.Namespace) -> int:
    p = SpectralParams(cfg.nu, cfg.h)
    table = build_zero_table(p, cfg.n_max, cfg.tol)
    if cfg.fmt == "json":
        obj = {
            "nu": p.nu,
            "H": p.h,
            "regime": p.regime.name,
            "n_min": table.n_min,
            "n_max": table.n_max,
            "pi_offset_sup": table.pi_offset_sup,
            "max_residual": table.max_residual,
            "zeros": {str(n): table.zeros[n] for n in range(table.n_min, table.n_max + 1)},
        }
        _emit(_json_text(obj), cfg.out)
    else:
        table.to_csv(sys.stdout if cfg.out in (None, "-") else cfg.out)
    return 0


def _cmd_basis_check(cfg: argparse.Namespace) -> int:
    b = build_basis(SpectralParams(cfg.nu, cfg.h), cfg.n_max)
    for n_pts in (512, 1024, 2048):
        gram = gram_matrix(b, n_pts)
        dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        if dev <= 1e-8:
            break
    x1 = 1.0 - 1e-13
    robin = (cfg.h - 0.5) * b.psi_matrix(np.array([x1])) + b.psi_prime_matrix(np.array([x1]))
    robin_dev = float(np.max(np.abs(robin[b.n_min :])))
    ok = dev <= 1e-8 and robin_dev <= 1e-8
    obj = {
        "nu": cfg.nu,
        "H": cfg.h,
        "n_max": cfg.n_max,
        "gram_deviation": dev,
        "quad_points": n_pts,
        "boundary_residual": robin_dev,
        "pass": bool(ok),
    }
    _emit(_json_text(obj), cfg.out)
    return 0 if ok else 1


def _build_pairs(cfg: argparse.Namespace, offdiag: bool = False):
    coords = bnd.boundary_refined_coords(cfg.grid_n, cfg.refine)
    if offdiag:
        return bnd.offdiagonal_pair_grid(coords)
    return bnd.pair_grid(coords)


def _cmd_kernel(cfg: argparse.Namespace) -> int:
    kind, evaluate = KERNELS[cfg.kind]
    offdiag = kind in (KernelKind.RIESZ_POT, KernelKind.BESSEL_POT)
    pairs = _build_pairs(cfg, offdiag=offdiag)
    t_or_sigma = cfg.sigma_values[0] if offdiag else cfg.t_values[0]
    params = (
        JacobiParams(cfg.alpha if cfg.alpha is not None else cfg.nu, cfg.beta)
        if kind is KernelKind.JACOBI_HEAT
        else SpectralParams(cfg.nu, cfg.h)
    )
    req = KernelRequest(
        kind=kind,
        params=params,
        time_or_sigma=t_or_sigma,
        grid=pairs,
        d_nu=cfg.d_nu,
        tol=cfg.tol,
        n_max=cfg.n_max,
        cross_check=False,
    )
    values = evaluate(req)
    rows = [
        {
            "x": p[0],
            "y": p[1],
            "value": v.value,
            "n_terms": v.n_terms,
            "tail_bound": v.tail_bound,
        }
        for p, v in zip(pairs, values)
    ]
    if cfg.fmt == "json":
        _emit(_json_text({"kind": cfg.kind, "t_or_sigma": t_or_sigma, "rows": rows}), cfg.out)
    else:
        emit_plot_data(rows, ["x", "y", "value", "n_terms", "tail_bound"], cfg.out)
    return 0


def _cmd_verify_sandwich(cfg: argparse.Namespace) -> int:
    pairs = _build_pairs(cfg)
    reports = bnd.sandwich_check(cfg.nu, list(cfg.t_values), pairs, n_max=cfg.n_max, tol=cfg.tol)
    obj = {
        "nu": cfg.nu,
        "checks": [r.to_json_dict() for r in reports],
        "pass": True,
    }
    _emit(_json_text(obj), cfg.out)
    return 0


def _cmd_verify_envelopes(cfg: argparse.Namespace) -> int:
    b = build_basis(SpectralParams(cfg.nu, cfg.h), cfg.n_max)
    potential = cfg.kind in ("bessel", "riesz")
    if cfg.kind == "heat":
        env = bnd.heat_short_envelope(cfg.nu)
    elif cfg.kind == "heat-long":
        env = bnd.heat_long_envelope(b)
    elif cfg.kind == "poisson":
        env = bnd.poisson_short_envelope(cfg.nu)
    elif potential:
        env = bnd.potential_envelope(cfg.nu, riesz=(cfg.kind == "riesz"))
    else:
        raise DiniError(f"unknown envelope verification kind: {cfg.kind}")
    reports = bnd.envelope_reports(
        b, _build_pairs(cfg, offdiag=potential),
        list(cfg.sigma_values if potential else cfg.t_values), env,
        tol=cfg.tol if cfg.kind.startswith("heat") else max(cfg.tol, 1e-9), d=cfg.d_nu,
    )
    failures = [r.to_json_dict() for r in reports if not (r.spread <= cfg.max_spread)]
    obj = {
        "kind": cfg.kind,
        "nu": cfg.nu,
        "max_spread_allowed": cfg.max_spread,
        "reports": [r.to_json_dict() | {"spread": r.spread} for r in reports],
        "failures": failures,
        "pass": not failures,
    }
    _emit(_json_text(obj), cfg.out)
    if failures:
        for f in failures:
            sys.stderr.write(
                f"envelope spread violation: kind={cfg.kind} t={f['t']} "
                f"min={f['min_ratio']:.6g} at {f['argmin']}, "
                f"max={f['max_ratio']:.6g} at {f['argmax']}\n"
            )
        return 1
    return 0


def _cmd_verify_rellich(cfg: argparse.Namespace) -> int:
    rng = np.random.default_rng(cfg.seed)
    worst = {"rellich": 0.0, "hardy": 0.0}
    for _ in range(cfg.trials):
        coeffs = rng.standard_normal(cfg.terms)
        lhs, rhs = bnd.rellich_check(cfg.nu, coeffs)
        worst["rellich"] = max(worst["rellich"], lhs / rhs)
        lhs, rhs = bnd.hardy_check(cfg.nu, coeffs)
        worst["hardy"] = max(worst["hardy"], lhs / rhs)
    obj = {
        "nu": cfg.nu,
        "trials": cfg.trials,
        "terms": cfg.terms,
        "seed": cfg.seed,
        "worst_ratio": worst,
        "pass": True,
    }
    _emit(_json_text(obj), cfg.out)
    return 0


def _cmd_verify_zero_bound(cfg: argparse.Namespace) -> int:
    nus = np.linspace(-1.0 + 1e-3, -0.5 - 1e-3, cfg.nu_grid_n)
    rows = []
    ok = True
    for nu in nus:
        p = SpectralParams(float(nu), 0.5)
        table = build_zero_table(p, 1, tol=1e-13)
        z0 = table.zeros[0]
        x0 = x0_bound(float(nu))
        residual = abs(float(bessel_ih(p, z0)))
        good = z0 < x0 < 0.5 and residual <= 1e-10
        ok = ok and good
        rows.append(
            {
                "nu": float(nu),
                "z0": float(z0),
                "x0": float(x0),
                "residual": residual,
                "pass": good,
            }
        )
    if cfg.fmt == "json":
        _emit(_json_text({"rows": rows, "pass": bool(ok)}), cfg.out)
    else:
        emit_plot_data(rows, ["nu", "z0", "x0", "residual", "pass"], cfg.out)
    if not ok:
        sys.stderr.write("zero bound violated on the nu grid\n")
        return 1
    return 0


def _cmd_convergence(cfg: argparse.Namespace) -> int:
    b = build_basis(SpectralParams(cfg.nu, cfg.h), cfg.n_max)
    f = lambda x: x * (1.0 - x) ** 2
    # Fixed interior grid: pointwise boundary convergence is an interior
    # statement; the shrinking layer near x=0 is not part of the witness.
    xs = np.linspace(0.01, 0.99, cfg.grid_n)
    fx = f(xs)
    rows = []
    sups = []
    for t in cfg.t_values:
        vals = semigroup_apply(b, f, float(t), xs, tol=cfg.tol)
        sup = float(np.max(np.abs(vals - fx)))
        sups.append(sup)
        rows.append({"t": float(t), "sup_error": sup})
    monotone = all(a >= b for a, b in zip(sups, sups[1:]))
    if cfg.fmt == "json":
        _emit(_json_text({"nu": cfg.nu, "rows": rows, "monotone": monotone}), cfg.out)
    else:
        emit_plot_data(rows, ["t", "sup_error"], cfg.out)
    return 0 if monotone else 1


# ----------------------------- argument parsing ---------------------------


def _parse_floats(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(",") if v)
    if not values or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(
            f"must be a non-empty comma-separated list of finite numbers, got {text!r}")
    return values


def _one_float(text: str) -> tuple:
    values = _parse_floats(text)
    if len(values) > 1:
        raise argparse.ArgumentTypeError(f"must be a single finite number, got {text!r}")
    return values


def _positive_float(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {v}")
    return v


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _half_only(text: str) -> float:
    h = float(text)
    if h != 0.5:
        raise argparse.ArgumentTypeError(
            f"the sandwich compares heat kernels at H = 1/2 only, got {h}"
        )
    return h


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: its defaults are
    immutable and parse_args returns a fresh Namespace on every call."""
    ap = argparse.ArgumentParser(
        prog="dini",
        description="Spectral system on (0,1) from Bessel-type boundary problems: "
        "zeros, bases, heat/Poisson/potential kernels, and envelope verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, nu_required=True, h_type=float):
        p.add_argument("--nu", type=float, required=nu_required, help="order nu > -1")
        p.add_argument("--h", type=h_type, default=0.5, help="boundary parameter H")
        p.add_argument("--n-max", type=int, default=200)
        p.add_argument("--tol", type=_positive_float, default=1e-10)
        p.add_argument("--out", type=str, default=None, help="output path ('-' = stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p = sub.add_parser("zeros", help="emit the zero table as CSV/JSON")
    common(p)

    p = sub.add_parser("basis-check", help="orthonormality and boundary-condition residuals")
    common(p)
    p.set_defaults(n_max=40)

    p = sub.add_parser("kernel", help="evaluate a kernel surface on a grid")
    common(p)
    p.add_argument("--kind", choices=sorted(KERNELS), default="heat")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=-0.5)
    p.add_argument("--t", dest="t_values", type=_one_float, default=(0.1,))
    p.add_argument("--sigma", dest="sigma_values", type=_one_float, default=(1.0,))
    p.add_argument("--d-nu", type=float, default=1.0)
    p.add_argument("--grid", dest="grid_n", type=_positive_int, default=20)
    p.add_argument("--no-refine", dest="refine", action="store_false")

    p = sub.add_parser("verify-sandwich", help="two-sided heat-kernel comparison")
    common(p, h_type=_half_only)
    p.add_argument("--t", dest="t_values", type=_parse_floats, default=(0.01, 0.1, 0.5, 1.0))
    p.add_argument("--grid", dest="grid_n", type=_positive_int, default=20)
    p.add_argument("--no-refine", dest="refine", action="store_false")
    p.set_defaults(n_max=400, fmt="json")

    p = sub.add_parser("verify-envelopes", help="kernel/envelope ratio sweeps")
    common(p)
    p.add_argument("--kind", choices=("heat", "heat-long", "poisson", "bessel", "riesz"), default="heat")
    p.add_argument("--t", dest="t_values", type=_parse_floats, default=(1e-4, 1e-3, 1e-2, 1e-1, 1.0))
    p.add_argument("--sigma", dest="sigma_values", type=_parse_floats, default=(0.5, 1.0, 1.6))
    p.add_argument("--d-nu", type=float, default=1.0)
    p.add_argument("--grid", dest="grid_n", type=_positive_int, default=20)
    p.add_argument("--no-refine", dest="refine", action="store_false")
    p.add_argument("--max-spread", type=_positive_float, default=1e3)
    p.set_defaults(n_max=400, fmt="json")

    p = sub.add_parser("verify-rellich", help="weighted-norm inequality trials")
    common(p)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--terms", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=12345)
    p.set_defaults(fmt="json")

    p = sub.add_parser("verify-zero-bound", help="z0 < x0 < 1/2 on a nu grid")
    common(p, nu_required=False)
    p.add_argument("--nu-grid", dest="nu_grid_n", type=_positive_int, default=32)
    p.set_defaults(nu=-0.75, fmt="json")

    p = sub.add_parser("convergence", help="sup-norm decay of T_t f - f as t -> 0")
    common(p)
    p.add_argument("--t", dest="t_values", type=_parse_floats,
                   default=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5))
    p.add_argument("--grid", dest="grid_n", type=_positive_int, default=200)
    p.set_defaults(n_max=1200)
    return ap


DISPATCH = {
    "zeros": _cmd_zeros,
    "basis-check": _cmd_basis_check,
    "kernel": _cmd_kernel,
    "verify-sandwich": _cmd_verify_sandwich,
    "verify-envelopes": _cmd_verify_envelopes,
    "verify-rellich": _cmd_verify_rellich,
    "verify-zero-bound": _cmd_verify_zero_bound,
    "convergence": _cmd_convergence,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return DISPATCH[ns.command](ns)
    except (InequalityViolation, NonFiniteRatioError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except DiniError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception:
        # Exit code 1 means only that an inequality failed; anything
        # unforeseen is reported with its traceback as a numerical error.
        sys.stderr.write("error: unexpected failure\n" + traceback.format_exc())
        return 2


if __name__ == "__main__":
    sys.exit(main())
