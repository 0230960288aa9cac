import numpy as np
import pytest

from dini.basis import BasisSpec, build_basis
from dini.specfun import SpectralParams

_BASIS_CACHE = {}


def shared_basis(nu: float, h: float = 0.5, n_max: int = 300) -> BasisSpec:
    """Session-wide basis cache: one BasisSpec per (nu, h, n_max), on its own
    zero table of n_max modes as the CLI builds it, so that its freq_offset
    (and every cutoff) does not depend on which tests ran before."""
    key = (nu, h, n_max)
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        basis = _BASIS_CACHE[key] = build_basis(SpectralParams(nu, h), n_max)
    return basis


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
