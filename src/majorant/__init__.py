"""Certified numerics for comparing L^p norms of three-term exponential sums.

For the pair of squares |1 + e(x) +- e(7x)|^2 this package proves, with a
proven bound on every quadrature and Taylor truncation error, that the minus
variant has the strictly larger L^p norm for every p between 10 and 12.  The
rounding of the floating-point evaluation itself is not yet bounded.  The
building blocks (certified midpoint quadrature, closed-form envelope maxima,
Taylor certificates with budgeted coefficient errors, and two endpoint-based
sign mechanisms) are exposed for reuse; ``prove_k5`` runs the whole argument.
"""

from .certify import (
    BudgetError,
    SignCertificate,
    TaylorCertificate,
    build_certificate,
    check_sign_chain,
    check_sign_variation,
    eval_cert_poly,
)
from .envelope import envelope_max
from .integrand import IntegrandSpec, h4_term_bounds
from .pipeline import DEFAULT_CONFIG, ProofReport, StageResult, emit_report, prove_k5
from .quadrature import CertifiedValue, gap_derivative
from .spectral import (
    endpoint_difference_zero,
    fourier_coeffs_pow,
    torus_integral_upper,
    torus_power_integral,
)
from .trigpoly import (
    SIGN_PAIR as SignVariant,
    TrigSquare,
    parse_sign,
    sup_norm_bound,
    variation_bound_power,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    """reproduce_table and second_deriv_L2 from majorant.tables, bound here on first use: import majorant skips the tables."""
    if name not in ("reproduce_table", "second_deriv_L2"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tables

    value = globals()[name] = getattr(tables, name)
    return value
