"""Command-line front end.

Deterministic verification sweeps and kernel-surface emission; identical
configurations produce byte-identical CSV/JSON artifacts. Exit codes:
0 = all checks passed, 1 = a verification failed, 2 = usage or numerical error.
Each command declares in COMMANDS the options that it reads, and each --kind
in KERNEL_KINDS or ENVELOPE_KINDS the ones that it reads beyond those; any
other option is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import bounds as bnd
from .basis import build_basis, gram_matrix
from .errors import DiniError, InequalityViolation, NonFiniteRatioError
from .kernels import (SIGMA_MAX, SIGMA_MIN, KernelKind, KernelRequest, kernel_arrays,
                      semigroup_apply)
from .numerics import csv_text
from .specfun import JacobiParams, SpectralParams, robin_and_slope
from .zeros import build_zero_table, i_zeros, x0_bound


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, default=float) + "\n"


def _emit_rows(cfg: argparse.Namespace, columns: dict, **fields) -> None:
    """Named columns of equal length as long-format CSV (numerics.csv_text),
    or as JSON rows next to fields, by --format."""
    if cfg.format == "json":
        values = [np.asarray(c).tolist() for c in columns.values()]
        rows = [dict(zip(columns, row)) for row in zip(*values)]
        _emit(_json_text({**fields, "rows": rows}), cfg.out)
    else:
        _emit(csv_text(columns), cfg.out)


# ----------------------------- commands -----------------------------------


def _cmd_zeros(cfg: argparse.Namespace) -> int:
    p = SpectralParams(cfg.nu, cfg.h)
    table = build_zero_table(p, cfg.n_max, cfg.tol).upto(cfg.n_max)
    if cfg.format == "json":
        obj = {"nu": p.nu, "H": p.h, "regime": p.regime.name, "n_min": table.n_min,
               "n_max": table.n_max, "pi_offset_sup": table.pi_offset_sup,
               "max_residual": table.max_residual,
               "zeros": {str(n): table.zeros[n] for n in range(table.n_min, table.n_max + 1)}}
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


def _build_pairs(cfg: argparse.Namespace, pair_grid=bnd.pair_grid):
    return pair_grid(bnd.boundary_refined_coords(cfg.grid, not cfg.no_refine))


def _cmd_kernel(cfg: argparse.Namespace) -> int:
    kind = KERNEL_KINDS[cfg.kind]
    p = kind.params(cfg)
    t_or_sigma = getattr(cfg, _dest(kind.over))[0]
    req = KernelRequest(kind.make, p, t_or_sigma, _build_pairs(cfg, kind.pairs), d_nu=cfg.d_nu,
                        tol=cfg.tol, n_max=cfg.n_max, cross_check=False)
    values, n_terms, bound, _ = kernel_arrays(req)
    n = values.size
    columns = {"x": req.grid[:, 0], "y": req.grid[:, 1], "value": values,
               "n_terms": np.full(n, n_terms), "tail_bound": np.full(n, bound)}
    # What the kind read, as the envelope reports state theirs.
    jacobi = isinstance(p, JacobiParams)
    params = {"alpha": p.alpha, "beta": p.beta} if jacobi else {"nu": p.nu, "H": p.h}
    if "--d-nu" in kind.reads:
        params["d_nu"] = cfg.d_nu
    params |= dict(tol=cfg.tol, n_max=cfg.n_max, grid=cfg.grid, no_refine=bool(cfg.no_refine))
    _emit_rows(cfg, columns, kind=cfg.kind, t_or_sigma=t_or_sigma, params=params)
    return 0


def _cmd_verify_sandwich(cfg: argparse.Namespace) -> int:
    pairs = _build_pairs(cfg)
    reports = bnd.sandwich_check(cfg.nu, list(cfg.t), pairs, n_max=cfg.n_max, tol=cfg.tol)
    obj = {
        "nu": cfg.nu,
        "checks": [r.to_json_dict() for r in reports],
        "pass": True,
    }
    _emit(_json_text(obj), cfg.out)
    return 0


def _cmd_verify_envelopes(cfg: argparse.Namespace) -> int:
    kind = ENVELOPE_KINDS[cfg.kind]
    b = build_basis(kind.params(cfg), cfg.n_max)
    env = kind.make(b)
    reports = bnd.envelope_reports(
        b, _build_pairs(cfg, kind.pairs), list(getattr(cfg, _dest(kind.over))), env,
        tol=cfg.tol, d=cfg.d_nu,
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
    for f in failures:
        sys.stderr.write(
            f"envelope spread violation: kind={cfg.kind} t={f['t']} "
            f"min={f['min_ratio']:.6g} at {f['argmin']}, "
            f"max={f['max_ratio']:.6g} at {f['argmax']}\n"
        )
    return 1 if failures else 0


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
    nus = np.linspace(-1.0 + 1e-3, -0.5 - 1e-3, cfg.nu_grid)
    z0 = i_zeros(nus, 0.5, tol=1e-13)[0]
    x0 = np.array([x0_bound(nu) for nu in nus.tolist()])
    residual = np.abs(robin_and_slope(nus, 0.5, z0, modified=True)[0])
    good = (z0 < x0) & (x0 < 0.5) & (residual <= 1e-10)
    ok = bool(good.all())
    _emit_rows(cfg, {"nu": nus, "z0": z0, "x0": x0, "residual": residual, "pass": good},
               **{"pass": ok})
    if not ok:
        sys.stderr.write("zero bound violated on the nu grid\n")
        return 1
    return 0


def _cmd_convergence(cfg: argparse.Namespace) -> int:
    b = build_basis(SpectralParams(cfg.nu, cfg.h), cfg.n_max)
    f = lambda x: x * (1.0 - x) ** 2
    # Fixed interior grid: pointwise boundary convergence is an interior
    # statement; the shrinking layer near x=0 is not part of the witness.
    xs = np.linspace(0.01, 0.99, cfg.grid)
    fx = f(xs)
    sups = [float(np.max(np.abs(semigroup_apply(b, f, t, xs, tol=cfg.tol) - fx))) for t in cfg.t]
    monotone = all(a >= b for a, b in zip(sups, sups[1:]))
    _emit_rows(cfg, {"t": cfg.t, "sup_error": sups}, nu=cfg.nu, monotone=monotone)
    return 0 if monotone else 1


# ----------------------------- option table -------------------------------


def _parse_floats(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(",") if v)
    if not values or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(
            f"must be a non-empty comma-separated list of finite numbers, got {text!r}")
    return values


def _checked(convert, ok, what: str):
    """A parse type: convert the text, then refuse a value that is not ok."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    parse.__name__ = convert.__name__
    return parse


_one_float = _checked(_parse_floats, lambda v: len(v) == 1, "a single finite number")
_sigmas = _checked(_parse_floats, lambda v: all(SIGMA_MIN <= s <= SIGMA_MAX for s in v),
                   f"potential powers sigma in [{SIGMA_MIN:g}, {SIGMA_MAX:g}]")
_one_sigma = _checked(_sigmas, lambda v: len(v) == 1, "a single power sigma")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "finite and positive")
_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


# Every option of the CLI, with its parse type and help.
OPTIONS = {
    "--kind": dict(help="what to evaluate"),
    "--nu": dict(type=float, required=True, help="order nu > -1 (jacobi-heat: alpha = nu)"),
    "--h": dict(type=float, help="boundary parameter H"),
    "--beta": dict(type=float, help="Jacobi beta"),
    "--n-max": dict(type=int, help="highest mode index"),
    "--tol": dict(type=_positive_float, help="certified truncation tolerance"),
    "--t": dict(type=_parse_floats, help="comma-separated times t"),
    "--sigma": dict(type=_sigmas, help="comma-separated potential powers sigma"),
    "--d-nu": dict(type=_checked(float, math.isfinite, "finite"),
                   help="shift d of the Poisson kernel"),
    "--grid": dict(type=_positive_int, help="grid points per axis"),
    "--no-refine": dict(action="store_true", help="no geometric refinement toward 0 and 1"),
    "--max-spread": dict(type=_positive_float, help="largest max/min ratio that passes"),
    "--trials": dict(type=_positive_int, help="random trial functions"),
    "--terms": dict(type=_positive_int, help="modes per trial function"),
    "--seed": dict(type=int, help="seed of the trial functions"),
    "--nu-grid": dict(type=_positive_int, help="orders nu in (-1, -1/2)"),
    "--format": dict(choices=("csv", "json"), help="artifact format"),
    "--out": dict(help="output path ('-' = stdout)"),
}
# The options that a --kind may not read; each command reads the others.
KIND_OPTIONS = ("--t", "--sigma", "--h", "--d-nu", "--beta")


class Kind(NamedTuple):
    """A --kind of `kernel` or `verify-envelopes`."""

    make: Any  # KernelKind, or basis -> Envelope
    over: str = "--t"  # its times (--t) or potential powers (--sigma)
    pairs: Callable = bnd.pair_grid  # pair grid over the boundary-refined coordinates
    reads: tuple = ("--h",)  # which of --h, --d-nu and --beta it reads
    params: Callable = lambda cfg: SpectralParams(cfg.nu, cfg.h)
    tol_floor: Optional[float] = None  # its --tol default and least --tol, if any
    defaults: dict = {}  # its own defaults of the command's options, if any


# The potential series certifies the default grids (pairs 0.02 apart) from
# n_max 1655, where u_floor <= d_min^2 / 240.
_POTENTIAL = dict(over="--sigma", pairs=bnd.offdiagonal_pair_grid, defaults={"--n-max": 1655})
KERNEL_KINDS = {
    "heat": Kind(KernelKind.HEAT),
    # alpha = nu, the pairing of verify-sandwich
    "jacobi-heat": Kind(KernelKind.JACOBI_HEAT, reads=("--beta",),
                        params=lambda cfg: JacobiParams(cfg.nu, cfg.beta)),
    "poisson": Kind(KernelKind.POISSON),
    "poisson-shifted": Kind(KernelKind.POISSON_SHIFTED, reads=("--h", "--d-nu")),
    "riesz": Kind(KernelKind.RIESZ_POT, **_POTENTIAL),
    "bessel": Kind(KernelKind.BESSEL_POT, **_POTENTIAL),
}
# The Poisson and potential sweeps run at tol >= 1e-9.
ENVELOPE_KINDS = {
    "heat": Kind(lambda b: bnd.heat_short_envelope(b.params.nu)),
    # The suite's times, in the envelope's long-time regime (t = 1e-2 is not).
    "heat-long": Kind(bnd.heat_long_envelope, defaults={"--t": (1.0, 2.5, 5.0)}),
    "poisson": Kind(lambda b: bnd.poisson_short_envelope(b.params.nu),
                    reads=("--h", "--d-nu"), tol_floor=1e-9),
    "bessel": Kind(lambda b: bnd.potential_envelope(b.params.nu), tol_floor=1e-9, **_POTENTIAL),
    "riesz": Kind(lambda b: bnd.potential_envelope(b.params.nu, riesz=True),
                  tol_floor=1e-9, **_POTENTIAL),
}


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    options: str  # the options that run reads, as --option=default, or bare for None
    kinds: dict = {}  # --kind name -> Kind
    changes: dict = {}  # option -> its add_argument keywords that differ from OPTIONS


COMMANDS = {
    "zeros": Command(_cmd_zeros, "emit the zero table as CSV/JSON",
                     "--nu --h=0.5 --n-max=200 --tol=1e-10 --format=csv --out"),
    "basis-check": Command(_cmd_basis_check, "orthonormality and boundary-condition residuals",
                           "--nu --h=0.5 --n-max=40 --out"),
    "kernel": Command(_cmd_kernel, "evaluate a kernel surface on a grid",
                      "--kind=heat --nu --h=0.5 --beta=-0.5 --n-max=200 --tol=1e-10 "
                      "--t=0.1 --sigma=1 --d-nu=1 --grid=20 --no-refine --format=csv --out",
                      KERNEL_KINDS,
                      {"--t": dict(type=_one_float), "--sigma": dict(type=_one_sigma)}),
    "verify-sandwich": Command(_cmd_verify_sandwich, "two-sided heat-kernel comparison",
                               "--nu --n-max=400 --tol=1e-10 --t=0.01,0.1,0.5,1 --grid=20 "
                               "--no-refine --out"),
    "verify-envelopes": Command(_cmd_verify_envelopes, "kernel/envelope ratio sweeps",
                                "--kind=heat --nu --h=0.5 --n-max=400 --tol=1e-10 "
                                "--t=1e-4,1e-3,1e-2,1e-1,1 --sigma=0.5,1,1.6 --d-nu=1 --grid=20 "
                                "--no-refine --max-spread=1e3 --out", ENVELOPE_KINDS),
    "verify-rellich": Command(_cmd_verify_rellich, "weighted-norm inequality trials",
                              "--nu --trials=100 --terms=5 --seed=12345 --out"),
    "verify-zero-bound": Command(_cmd_verify_zero_bound, "z0 < x0 < 1/2 on a nu grid",
                                 "--nu-grid=32 --format=json --out"),
    "convergence": Command(_cmd_convergence, "sup-norm decay of T_t f - f as t -> 0",
                           "--nu --h=0.5 --n-max=1200 --tol=1e-10 --t=1e-1,1e-2,1e-3,1e-4,1e-5 "
                           "--grid=200 --format=csv --out"),
}
DISPATCH = {name: command.run for name, command in COMMANDS.items()}


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command. Its options default to absent, so that it
    sees which were given: it refuses those that the chosen --kind does not
    read and a --tol below the kind's floor, then fills in the kind's own
    defaults and the command's, each parsed by its option's type."""

    def __init__(self, command: Command, **kw):
        super().__init__(allow_abbrev=False, argument_default=argparse.SUPPRESS, **kw)
        self.command, self.defaults = command, {}
        for word in command.options.split():
            option, _, default = word.partition("=")
            spec = {**OPTIONS[option], **command.changes.get(option, {})}
            if option == "--kind":
                spec["choices"] = command.kinds
            self.defaults[_dest(option)] = spec.get("type", str)(default) if default else None
            self.add_argument(option, **spec)

    def parse_known_args(self, args=None, namespace=None):
        ns, rest = super().parse_known_args(args, namespace)
        command, given = self.command, vars(ns)
        if command.kinds:
            name = given.get("kind", self.defaults["kind"])
            kind = command.kinds[name]
            unread = [o for o in KIND_OPTIONS
                      if _dest(o) in given and o not in (kind.over, *kind.reads)]
            if unread:
                self.error(f"--kind {name} does not read {', '.join(unread)}")
            for option, default in kind.defaults.items():
                given.setdefault(_dest(option), default)
            floor = kind.tol_floor
            if floor is not None and given.setdefault("tol", floor) < floor:
                self.error(f"argument --tol: --kind {name} runs at tol >= {floor:g}, "
                           f"got {given['tol']:g}".replace("e-0", "e-"))
        for dest, default in self.defaults.items():
            given.setdefault(dest, default)
        return ns, rest


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: its defaults are
    immutable and parse_args returns a fresh Namespace on every call."""
    ap = argparse.ArgumentParser(
        prog="dini",
        allow_abbrev=False,
        description="Spectral system on (0,1) from Bessel-type boundary problems: "
        "zeros, bases, heat/Poisson/potential kernels, and envelope verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command in COMMANDS.items():
        sub.add_parser(name, help=command.help, command=command)
    return ap


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
