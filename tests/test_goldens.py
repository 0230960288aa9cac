"""Recorded comparability constants.

The two-sided estimates come without explicit constants, so the ratio
spreads observed on fixed grids are frozen here as golden values; re-runs
must reproduce them within +-20%. A drift beyond that indicates a change in
kernel evaluation, truncation certificates, or grid construction.
"""

import pytest

from conftest import shared_basis
from dini.bounds import (
    boundary_refined_coords,
    envelope_reports,
    heat_long_envelope,
    heat_short_envelope,
    pair_grid,
    poisson_short_envelope,
    potential_envelope,
)

GRID = pair_grid(boundary_refined_coords(20))
OFFGRID = [p for p in GRID if abs(p[0] - p[1]) >= 0.02]

# (nu, kind) -> spread on the standard grid at the standard t (or sigma):
# heat-short at t=0.01, heat-long at t=2.5, poisson-short at t=0.05
# (shifted by d=1 when nu < -1/2), bessel potential at sigma=0.5.
GOLDEN_SPREADS = {
    (-0.75, "heat-short"): 2.24306,
    (-0.75, "heat-long"): 1.3004,
    (-0.75, "poisson-short"): 2.25168,
    (-0.75, "bessel-pot"): 4.04503,
    (-0.5, "heat-short"): 1.9999,
    (-0.5, "heat-long"): 1.0,
    (-0.5, "poisson-short"): 4.87711,
    (-0.5, "bessel-pot"): 1.90127,
    (0.0, "heat-short"): 1.99471,
    (0.0, "heat-long"): 1.59795,
    (0.0, "poisson-short"): 3.11178,
    (0.0, "bessel-pot"): 3.8176,
    (1.5, "heat-short"): 18.4555,
    (1.5, "heat-long"): 5.54908,
    (1.5, "poisson-short"): 5.21947,
    (1.5, "bessel-pot"): 8.8318,
}

# Cosine-kernel case from the remark: spread stays below 20 at short time.
NEUMANN_SHORT_TIME_SPREAD_CAP = 20.0


@pytest.mark.parametrize("nu", sorted({k[0] for k in GOLDEN_SPREADS}))
def test_golden_spreads(nu):
    b = shared_basis(nu, n_max=2000)
    hs = envelope_reports(b, GRID, [0.01], heat_short_envelope(nu), tol=1e-10)[0]
    hl = envelope_reports(b, GRID, [2.5], heat_long_envelope(b), tol=1e-10)[0]
    d = 1.0 if nu < -0.5 else 0.0
    ps = envelope_reports(b, GRID, [0.05], poisson_short_envelope(nu), tol=1e-9, d=d)[0]
    pb = envelope_reports(b, OFFGRID, [0.5], potential_envelope(nu), tol=1e-9)[0]
    observed = {
        "heat-short": hs.spread,
        "heat-long": hl.spread,
        "poisson-short": ps.spread,
        "bessel-pot": pb.spread,
    }
    for kind, value in observed.items():
        golden = GOLDEN_SPREADS[(nu, kind)]
        assert value == pytest.approx(golden, rel=0.20), (nu, kind, value, golden)


def test_neumann_short_time_cap():
    b = shared_basis(-0.5, n_max=400)
    coords = (0.5 + __import__("numpy").arange(50)) / 50.0
    grid = pair_grid(coords)
    rep = envelope_reports(b, grid, [0.01], heat_short_envelope(-0.5), tol=1e-10)[0]
    assert rep.spread < NEUMANN_SHORT_TIME_SPREAD_CAP
