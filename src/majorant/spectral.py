"""Exact frequency-side arithmetic for powers of the three-term sum.

For F(x) = 1 + e(x) + s*e(7x) (the case k = 5, frequencies 1, 6 and 7 in
G = |F|^2) the coefficients of F^rho live on frequencies 7*mu + lambda with
0 <= lambda <= rho - mu.  For rho <= 6 those blocks cannot overlap, so every
coefficient is a product of two binomials and the mean of G^rho = |F^rho|^2
is an exact integer by Parseval; larger rho is rejected.  That integer
arithmetic pins the endpoint values of the norm comparison (rho = 5 and 6)
and seeds the upper bounds used for non-integer powers.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .trigpoly import F2, F3, G_MAX, K, SignVariant, check_int, overflow_to_inf, parse_sign

_MAX_RHO = F2  # the blocks of F^rho stay disjoint while rho < F3


def fourier_coeffs_pow(sign: SignVariant | str, rho: int) -> tuple[int, ...]:
    """Integer coefficients of F^rho on frequencies 0 .. 7*rho, by double binomial expansion.

    The coefficient at frequency nu = 7*mu + lambda is
    sign^mu * C(rho, mu) * C(rho - mu, lambda).  Blocks for distinct mu are
    disjoint only while rho <= 6; beyond that the expansion would need to
    merge overlapping frequencies, which this closed form does not do.
    ``sign`` is a SignVariant or its label, as parse_sign takes it.
    """
    check_int("rho", rho, 0, _MAX_RHO)
    s = -1 if parse_sign(sign) is SignVariant.MINUS else 1
    coeffs = []
    for nu in range(rho * F3 + 1):
        mu, lam = divmod(nu, F3)
        if mu > rho or lam > rho - mu:
            coeffs.append(0)
            continue
        coeffs.append((s**mu) * comb(rho, mu) * comb(rho - mu, lam))
    return tuple(coeffs)


def torus_power_integral(rho: int) -> int:
    """Exact mean of G^rho over one period, as an integer (rho <= 6).

    Parseval: the mean of |F^rho|^2 is the sum of squared coefficients, and
    squaring erases the sign variant.  fourier_coeffs_pow rejects rho > 6.
    """
    return sum(c * c for c in fourier_coeffs_pow(SignVariant.PLUS, rho))


_MOMENTS = tuple(float(torus_power_integral(rho)) for rho in range(1, _MAX_RHO + 1))  # A(rho), rho = 1..6


def torus_integral_upper(t: float) -> float:
    """Upper bound for the mean of G^t over one period, exact at integer t <= 6.

    Any other power takes the least of six bounds, one anchored at each exact
    integer moment A(rho), rho = 1..6.  For t >= rho, G^t <= G_MAX^(t-rho) G^rho
    pointwise, so the mean is at most G_MAX^(t-rho) A(rho); for t < rho,
    Jensen's inequality on the unit-mass period gives A(rho)^(t/rho).
    """
    if not t > 0.0:  # also refuses nan
        raise ValueError(f"power must be positive, got {t}")
    if float(t).is_integer() and t <= _MAX_RHO:
        return _MOMENTS[int(t) - 1]
    return min(overflow_to_inf(pow, G_MAX, t - rho) * a if t >= rho else a ** (t / rho) for rho, a in enumerate(_MOMENTS, 1))


@lru_cache(maxsize=None)
def endpoint_difference_zero() -> bool:
    """Whether the two sign variants have equal 5th and 6th power integrals.

    Exact integer comparison of the Parseval sums: the coefficient vectors of
    the two variants differ only by signs, so their squared sums coincide and
    the norm-comparison gap vanishes at both integer endpoints.
    """
    for rho in (K, K + 1):
        plus = fourier_coeffs_pow(SignVariant.PLUS, rho)
        minus = fourier_coeffs_pow(SignVariant.MINUS, rho)
        if sum(c * c for c in plus) != sum(c * c for c in minus):
            return False
    return True
