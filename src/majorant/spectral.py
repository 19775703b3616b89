"""Exact frequency-side arithmetic for powers of the three-term sum.

For F(x) = 1 + e(x) + s*e((k+2)x) the coefficients of F^rho live on
frequencies mu*(k+2) + lambda with 0 <= lambda <= rho - mu.  As long as
rho <= k+1 those blocks cannot overlap, so every coefficient is a product of
two binomials and the mean of G^rho = |F^rho|^2 is an exact integer by
Parseval.  That integer arithmetic pins the endpoint values of the norm
comparison and seeds the upper bounds used for non-integer powers.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import comb

from .trigpoly import SignVariant


def fourier_coeffs_pow(sign: SignVariant, rho: int, k: int = 5) -> tuple[int, ...]:
    """Integer coefficients of F^rho on frequencies 0 .. rho*(k+2), by double binomial expansion.

    The coefficient at frequency nu = mu*(k+2) + lambda is
    sign^mu * C(rho, mu) * C(rho - mu, lambda).  Blocks for distinct mu are
    disjoint only while rho <= k+1; beyond that the expansion would need to
    merge overlapping frequencies, which this closed form does not do.
    """
    if rho < 0:
        raise ValueError(f"exponent must be nonnegative, got {rho}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if rho > k + 1:
        warnings.warn(
            f"coefficient blocks overlap for exponent {rho} > k+1 = {k + 1}; "
            "the closed form is no longer a valid expansion",
            stacklevel=2,
        )
    width = k + 2
    s = -1 if sign is SignVariant.MINUS else 1
    coeffs = []
    for nu in range(rho * width + 1):
        mu, lam = divmod(nu, width)
        if mu > rho or lam > rho - mu:
            coeffs.append(0)
            continue
        coeffs.append((s**mu) * comb(rho, mu) * comb(rho - mu, lam))
    return tuple(coeffs)


@lru_cache(maxsize=None)
def torus_power_integral(rho: int, k: int = 5) -> int:
    """Exact mean of G^rho over one period, as an integer (rho <= k+1).

    Parseval: the mean of |F^rho|^2 is the sum of squared coefficients, and
    squaring erases the sign variant.
    """
    if not 0 <= rho <= k + 1:
        raise ValueError(f"exact power integrals need 0 <= rho <= k+1, got {rho}")
    return sum(c * c for c in fourier_coeffs_pow(SignVariant.PLUS, rho, k))


def parseval_integral(rho: int, k: int = 5) -> Fraction:
    """Exact integral of G^rho over the half period [0, 1/2], as a fraction."""
    return Fraction(torus_power_integral(rho, k), 2)


def power_integral_bound(tau: float, rho: int, k: int = 5) -> float:
    """Upper bound for the integral of G^tau over [0, 1/2] from the exact rho-th moment.

    For tau >= rho, G^tau <= 9^(tau-rho) * G^rho pointwise since G <= 9.  For
    tau <= rho, Jensen's inequality on the unit-mass period gives
    mean(G^tau) <= mean(G^rho)^(tau/rho).  Both reduce to the exact integer
    moment A(rho); the half-period bound is half the full-period one.
    """
    if tau <= 0.0:
        raise ValueError(f"power must be positive, got {tau}")
    if not 1 <= rho <= k + 1:
        raise ValueError(f"anchor exponent must satisfy 1 <= rho <= k+1, got {rho}")
    a = float(torus_power_integral(rho, k))
    if tau >= rho:
        return 0.5 * 9.0 ** (tau - rho) * a
    return 0.5 * a ** (tau / rho)


def torus_integral_upper(t: float, k: int = 5) -> float:
    """Upper bound for the mean of G^t over one period, exact at integer t <= k+1.

    Non-integer (or large) powers take the best of the anchored bounds over
    all admissible integer moments.
    """
    if t <= 0.0:
        raise ValueError(f"power must be positive, got {t}")
    if float(t).is_integer() and t <= k + 1:
        return float(torus_power_integral(int(t), k))
    return min(2.0 * power_integral_bound(t, rho, k) for rho in range(1, k + 2))


def endpoint_difference_zero(k: int = 5) -> bool:
    """Whether the two sign variants have equal k-th and (k+1)-th power integrals.

    Exact integer comparison of the Parseval sums: the coefficient vectors of
    the two variants differ only by signs, so their squared sums coincide and
    the norm-comparison gap vanishes at both integer endpoints.
    """
    for rho in (k, k + 1):
        plus = fourier_coeffs_pow(SignVariant.PLUS, rho, k)
        minus = fourier_coeffs_pow(SignVariant.MINUS, rho, k)
        if sum(c * c for c in plus) != sum(c * c for c in minus):
            return False
    return True
