"""Spectral system on (0,1) built from Bessel-type Robin boundary problems.

Construction of the orthonormal eigenfunction systems, certified evaluation
of the associated heat, Poisson and potential kernels, and numerical
verification of their two-sided closed-form envelopes.
"""

__version__ = "0.1.0"

from .basis import (
    BasisSpec,
    JacobiBasisSpec,
    build_basis,
    build_jacobi_basis,
    dini_coefficients,
    eval_psi,
    gram_matrix,
    inner_product_rule,
)
from .bounds import (
    Envelope,
    EnvelopeKind,
    F_nu,
    RatioReport,
    SandwichReport,
    boundary_refined_coords,
    envelope_eval,
    hardy_check,
    envelope_reports,
    heat_long_envelope,
    heat_short_envelope,
    offdiagonal_pair_grid,
    pair_grid,
    poisson_long_envelope,
    poisson_short_envelope,
    potential_envelope,
    ratio_report,
    rellich_check,
    sandwich_check,
)
from .kernels import (
    KernelKind,
    KernelRequest,
    KernelValue,
    PairEngine,
    engine_for,
    heat_kernel,
    poisson_kernel,
    potential_kernel,
    semigroup_apply,
)
from .numerics import (
    QuadratureRule,
    endpoint_graded_rule,
    gauss_legendre,
)
from .specfun import (
    JacobiParams,
    Regime,
    SpectralParams,
    bessel_i,
    bessel_ih,
    bessel_j,
    bessel_jh,
    jacobi_poly,
)
from .zeros import (
    ZeroTable,
    bessel_j_zeros,
    build_zero_table,
    x0_bound,
)
