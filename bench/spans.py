"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function and public method of each
``dini`` module (for ``cli`` only ``main``, so that its self time is the
parsing and emission that no library span covers) and patches each wrapper
in wherever a caller looks the name up: ``dini.basis.bessel_j`` as well as
``dini.specfun.bessel_j``. Spans are aggregated in memory by name; a span's
self time is its duration minus the durations of the spans it encloses.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "zeros", "numerics", "basis", "kernels", "bounds", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _basis_key(basis):
    if hasattr(basis, "jp"):
        return ("jacobi", basis.jp.alpha, basis.jp.beta, basis.k_max)
    return ("bessel", basis.params.nu, basis.params.h, basis.n_max)


def _engine_bytes(engine) -> int:
    return sum(v.nbytes for v in vars(engine).values() if isinstance(v, np.ndarray))


class Tracer:
    """Aggregated spans and counters for the wrapped dini names."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self.bytes_max = 0
        self._stack = []
        self._undo = []

    # Counters taken at the boundary of the span that does the work.
    def _bessel_j(self, args, kwargs, result):
        self.counts["bessel_j.points"] += np.size(_arg(args, kwargs, 1, "x"))

    def _build_zero_table(self, args, kwargs, result):
        self.counts["build_zero_table.modes"] += _arg(args, kwargs, 1, "n_max")

    def _gauss_legendre(self, args, kwargs, result):
        self.distinct["gauss_legendre.n"].add(_arg(args, kwargs, 0, "n"))

    def _certified_sup(self, args, kwargs, result):
        self.distinct["certified_sup.basis"].add(_basis_key(_arg(args, kwargs, 0, "basis")))

    def _psi_matrix(self, args, kwargs, result):
        self.counts["psi_matrix.cells"] += result.size

    def _engine_init(self, args, kwargs, result):
        self.bytes_max = max(self.bytes_max, _engine_bytes(args[0]))

    def _heat_values(self, args, kwargs, result):
        engine = args[0]
        self.counts["heat_values.modes_used"] += result[1]
        self.counts["heat_values.modes_stored"] += engine.n_max - engine.n_min + 1

    _HOOKS = {
        "specfun.bessel_j": _bessel_j,
        "zeros.build_zero_table": _build_zero_table,
        "numerics.gauss_legendre": _gauss_legendre,
        "basis.certified_sup": _certified_sup,
        "basis.BasisSpec.psi_matrix": _psi_matrix,
        "kernels.PairEngine.__init__": _engine_init,
        "kernels.PairEngine.heat_values": _heat_values,
    }

    def _wrap(self, name, fn):
        tracer = self
        hook = self._HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += span
                tracer.calls[name] += 1
                tracer.total_s[name] += span
                tracer.self_s[name] += span - frame[0]
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public names of every layer and patch them in everywhere."""
        modules = {layer: importlib.import_module(f"dini.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (layer != "cli" or attr == "main"):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and layer != "cli" and not issubclass(obj, enum.Enum):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_") or meth == "__init__"):
                            self._undo.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        import dini

        for mod in [dini, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Per-name totals so far, for splitting set-up from the timed rounds."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def _scaled(setup: dict, end: dict, reps: int, rounds: int) -> dict:
    """One set-up plus one round: set-up totals / reps + round totals / rounds."""
    out = {}
    for key in ("calls", "total_s", "self_s", "counts"):
        names = set(setup[key]) | set(end[key])
        out[key] = {
            n: setup[key].get(n, 0) / reps + (end[key].get(n, 0) - setup[key].get(n, 0)) / rounds
            for n in names
        }
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup: dict, reps: int, rounds: int) -> tuple[dict, dict]:
    """The named per-layer metrics as {name: (value, unit)}, and the scaled
    per-span table they were taken from, both for one set-up plus one round."""
    s = _scaled(setup, tracer.snapshot(), reps, rounds)
    calls, self_s, counts = s["calls"], s["self_s"], s["counts"]

    def c(name):
        return calls.get(name, 0.0)

    def t(name):
        return self_s.get(name, 0.0)

    n_gl = len(tracer.distinct["gauss_legendre.n"])
    n_basis = len(tracer.distinct["certified_sup.basis"])
    m = {
        "specfun.bessel_j.calls": (c("specfun.bessel_j"), "count"),
        "specfun.bessel_j.points": (counts.get("bessel_j.points", 0.0), "count"),
        "specfun.bessel_j.self_s": (t("specfun.bessel_j"), "s"),
        "zeros.build_zero_table.calls": (c("zeros.build_zero_table"), "count"),
        "zeros.build_zero_table.modes": (counts.get("build_zero_table.modes", 0.0), "count"),
        "zeros.build_zero_table.self_s": (t("zeros.build_zero_table"), "s"),
        "numerics.gauss_legendre.calls": (c("numerics.gauss_legendre"), "count"),
        "numerics.gauss_legendre.calls_per_n": (
            _ratio(c("numerics.gauss_legendre"), n_gl), "ratio"),
        "numerics.gauss_legendre.self_s": (t("numerics.gauss_legendre"), "s"),
        "numerics.integrate_halfline.calls": (c("numerics.integrate_halfline"), "count"),
        "numerics.integrate_halfline.self_s": (t("numerics.integrate_halfline"), "s"),
        "basis.certified_sup.calls": (c("basis.certified_sup"), "count"),
        "basis.certified_sup.calls_per_basis": (
            _ratio(c("basis.certified_sup"), n_basis), "ratio"),
        "basis.certified_sup.self_s": (t("basis.certified_sup"), "s"),
        "basis.psi_matrix.calls": (c("basis.BasisSpec.psi_matrix"), "count"),
        "basis.psi_matrix.cells": (counts.get("psi_matrix.cells", 0.0), "count"),
        "basis.psi_matrix.self_s": (t("basis.BasisSpec.psi_matrix"), "s"),
        "basis.dini_coefficients.calls": (c("basis.dini_coefficients"), "count"),
        "basis.dini_coefficients.self_s": (t("basis.dini_coefficients"), "s"),
        "kernels.PairEngine.builds": (c("kernels.PairEngine.__init__"), "count"),
        "kernels.PairEngine.build_self_s": (t("kernels.PairEngine.__init__"), "s"),
        "kernels.PairEngine.bytes_max": (float(tracer.bytes_max), "bytes"),
        "kernels.heat_values.calls": (c("kernels.PairEngine.heat_values"), "count"),
        "kernels.heat_values.self_s": (t("kernels.PairEngine.heat_values"), "s"),
        "kernels.heat_values.modes_used_ratio": (
            _ratio(counts.get("heat_values.modes_used", 0.0),
                   counts.get("heat_values.modes_stored", 0.0)), "ratio"),
        "kernels.poisson_values.calls": (c("kernels.PairEngine.poisson_values"), "count"),
        "kernels.poisson_values.self_s": (t("kernels.PairEngine.poisson_values"), "s"),
        "kernels.potential_series.self_s": (t("kernels.PairEngine.potential_series"), "s"),
        "kernels.potential_time_integral.calls": (
            c("kernels.PairEngine.potential_time_integral"), "count"),
        "kernels.potential_time_integral.self_s": (
            t("kernels.PairEngine.potential_time_integral"), "s"),
        "kernels.semigroup_apply.calls": (c("kernels.semigroup_apply"), "count"),
        "kernels.semigroup_apply.self_s": (t("kernels.semigroup_apply"), "s"),
        "bounds.ratio_report.calls": (c("bounds.ratio_report"), "count"),
        "bounds.ratio_report.self_s": (t("bounds.ratio_report"), "s"),
        "bounds.sandwich_check.self_s": (t("bounds.sandwich_check"), "s"),
        "bounds.rellich_check.self_s": (t("bounds.rellich_check"), "s"),
        "bounds.hardy_check.self_s": (t("bounds.hardy_check"), "s"),
        "cli.main.calls": (c("cli.main"), "count"),
        "cli.main.self_s": (t("cli.main"), "s"),
    }
    return m, s
