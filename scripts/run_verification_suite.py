#!/usr/bin/env python3
"""Full desk-scale verification sweep.

Drives the CLI across the default order grid and writes one artifact per
check into the output directory. Each status line carries the step's wall
time, and the last line the total and the process's peak resident set size.
Exits nonzero if any verification fails.

Usage: python scripts/run_verification_suite.py [-h] [outdir]

outdir defaults to verification_out and may not start with '-'.
"""

import resource
import sys
import time
from pathlib import Path

from dini.cli import main

NU_GRID = ("-0.9", "-0.75", "-0.5", "0", "0.5", "1.5", "3")
SANDWICH_NUS = ("-0.75", "-0.25", "0.25", "2")


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def run(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    failures = []
    start = time.perf_counter()

    def step(name, args):
        t0 = time.perf_counter()
        code = main(args)
        status = "ok" if code == 0 else f"FAIL({code})"
        print(f"[{status}] {name} ({time.perf_counter() - t0:.2f} s)")
        if code != 0:
            failures.append(name)

    step("zero-bound", ["verify-zero-bound", "--nu-grid", "32",
                        "--out", str(outdir / "zero_bound.json")])
    # Large order: the first J_nu brackets come from the step-pi scan; at
    # H = nu the zeros are those of J_{nu-1}.
    step("zeros nu=100 H=100", ["zeros", "--nu", "100", "--h", "100", "--n-max", "3000",
                                "--out", str(outdir / "zeros_nu100_h100.csv")])
    for nu in SANDWICH_NUS:
        step(f"sandwich nu={nu}",
             ["verify-sandwich", "--nu", nu, "--t", "0.01,0.1,0.5,1",
              "--grid", "20", "--n-max", "300",
              "--out", str(outdir / f"sandwich_nu{nu}.json")])
    for nu in NU_GRID:
        step(f"heat envelopes nu={nu}",
             ["verify-envelopes", "--kind", "heat", "--nu", nu,
              "--t", "1e-4,1e-3,1e-2,1e-1,1", "--grid", "20", "--n-max", "300",
              "--out", str(outdir / f"env_heat_nu{nu}.json")])
        step(f"long-time envelopes nu={nu}",
             ["verify-envelopes", "--kind", "heat-long", "--nu", nu,
              "--t", "1,2.5,5", "--grid", "20", "--n-max", "300",
              "--out", str(outdir / f"env_heat_long_nu{nu}.json")])
    for nu in ("-0.75", "0", "1.5"):
        step(f"potential envelopes nu={nu}",
             ["verify-envelopes", "--kind", "bessel", "--nu", nu,
              "--sigma", "0.3,0.5,1,1.6", "--grid", "8", "--n-max", "2500",
              "--out", str(outdir / f"env_pot_nu{nu}.json")])
    # The potential kinds at their own defaults (--sigma, --grid, --n-max 1655)
    # at the other orders of the grid that each kind accepts.
    for kind, nus in (("bessel", ("-0.9", "-0.5", "0.5", "3")),
                      ("riesz", ("0", "0.5", "1.5", "3"))):
        for nu in nus:
            step(f"{kind} potential envelopes nu={nu} (defaults)",
                 ["verify-envelopes", "--kind", kind, "--nu", nu,
                  "--out", str(outdir / f"env_{kind}_default_nu{nu}.json")])
    step("shifted Poisson envelopes nu=-0.75 d=1",
         ["verify-envelopes", "--kind", "poisson", "--nu", "-0.75", "--d-nu", "1",
          "--t", "0.02,0.1,1", "--grid", "20", "--n-max", "800",
          "--out", str(outdir / "env_poisson_shifted_nu-0.75.json")])
    for nu in ("1.2", "2", "5"):
        step(f"weighted inequalities nu={nu}",
             ["verify-rellich", "--nu", nu, "--trials", "100",
              "--out", str(outdir / f"rellich_nu{nu}.json")])
    for nu in ("-0.5", "1"):
        step(f"boundary convergence nu={nu}",
             ["convergence", "--nu", nu, "--t", "1e-1,1e-2,1e-3,1e-4,1e-5",
              "--grid", "200", "--n-max", "1500",
              "--out", str(outdir / f"convergence_nu{nu}.csv")])

    total = f"{time.perf_counter() - start:.2f} s (peak RSS {peak_rss_mb():.1f} MB)"
    if failures:
        print(f"\n{len(failures)} verification(s) failed in {total}: {failures}")
        return 1
    print(f"\nall verifications passed in {total}; artifacts in {outdir}")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if {"-h", "--help"} & set(args):
        print(__doc__.strip())
        sys.exit(0)
    out = args[0] if args else "verification_out"
    if out.startswith("-"):
        sys.stderr.write(f"run_verification_suite.py: error: output directory {out!r} "
                         "starts with '-' (see --help)\n")
        sys.exit(2)
    sys.exit(run(Path(out)))
