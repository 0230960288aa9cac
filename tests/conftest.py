import numpy as np
import pytest

from dini.basis import BasisSpec, build_basis
from dini.specfun import SpectralParams

_BASIS_CACHE = {}


def shared_basis(nu: float, h: float = 0.5, n_max: int = 300) -> BasisSpec:
    """Session-wide basis cache: one BasisSpec per (nu, h, n_max), on its own
    zero table capped at n_max as the CLI builds it, so that what a test
    reads of the table is what the CLI's basis holds. Its freq_offset and M
    are stated from the first block and do not depend on n_max."""
    key = (nu, h, n_max)
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        basis = _BASIS_CACHE[key] = build_basis(SpectralParams(nu, h), n_max)
    return basis


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
