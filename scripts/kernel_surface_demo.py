#!/usr/bin/env python3
"""Dump a heat-kernel surface and its envelope ratios for external plotting.

Writes two long-format CSVs (kernel surface, per-point ratio dump) for one
parameter set. Usage:

    python scripts/kernel_surface_demo.py [-h] [nu] [t] [outdir]

nu defaults to 0.5, t to 0.05 and outdir to surface_out.
"""

import sys
from pathlib import Path

import numpy as np

from dini.basis import build_basis
from dini.bounds import (
    boundary_refined_coords,
    envelope_reports,
    heat_short_envelope,
    pair_grid,
)
from dini.kernels import PairEngine
from dini.numerics import csv_text
from dini.specfun import SpectralParams


def run(nu: float, t: float, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    basis = build_basis(SpectralParams(nu, 0.5), 400)
    coords = np.linspace(0.02, 0.98, 50)
    pairs = pair_grid(coords)
    eng = PairEngine(basis, pairs)
    vals, n_terms, bound = eng.heat_values(t, 1e-10)

    surface = outdir / f"heat_surface_nu{nu:g}_t{t:g}.csv"
    with open(surface, "w") as fh:
        fh.write(csv_text({"x": eng.xs, "y": eng.ys, "value": vals}))

    report = envelope_reports(
        basis, pair_grid(boundary_refined_coords(30)), [t],
        heat_short_envelope(nu), tol=1e-10, keep_points=True,
    )[0]
    ratios = outdir / f"heat_ratio_nu{nu:g}_t{t:g}.csv"
    with open(ratios, "w") as fh:
        report.write_csv(fh)
    print(f"surface ({len(pairs)} rows, {n_terms} modes, tail {bound:.1e}) -> {surface}")
    print(
        f"ratio dump -> {ratios}; spread {report.spread:.3f} "
        f"(min {report.min_ratio:.4g} at {report.argmin}, "
        f"max {report.max_ratio:.4g} at {report.argmax})"
    )


if __name__ == "__main__":
    if {"-h", "--help"} & set(sys.argv[1:]):
        print(__doc__.strip())
        sys.exit(0)
    nu = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    t = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05
    out = Path(sys.argv[3]) if len(sys.argv) > 3 else Path("surface_out")
    run(nu, t, out)
