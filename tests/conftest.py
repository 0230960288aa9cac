import numpy as np
import pytest

from dini.basis import BasisSpec
from dini.specfun import SpectralParams
from dini.zeros import build_zero_table

_TABLE_CACHE = {}
_BASIS_CACHE = {}


def shared_basis(nu: float, h: float = 0.5, n_max: int = 300) -> BasisSpec:
    """Session-wide basis cache: one BasisSpec per (nu, h, n_max), so zero
    tables and each basis's sup probe are built once per session."""
    key = (nu, h, n_max)
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        table = _TABLE_CACHE.get((nu, h))
        if table is None or table.n_max < n_max:
            table = build_zero_table(SpectralParams(nu, h), n_max)
            _TABLE_CACHE[(nu, h)] = table
        basis = _BASIS_CACHE[key] = BasisSpec(SpectralParams(nu, h), table, n_max)
    return basis


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
