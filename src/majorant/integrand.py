"""Bounds for |H''''|, the fourth derivative of the integrand ``H(x) = G(x)^t * log(G(x))^j``.

Fractional-power norms are differentiated under the integral sign, which turns
every integrand into a power-times-log combination of G.  The quadrature module
sums H at its nodes; its error bound needs a bound for |H''''|, built here from
the derivative bounds of G by Faa di Bruno's formula (W. P. Johnson, Amer.
Math. Monthly 109, 2002): each partition of 4 into k parts m, c_m of each size,
gives a group 4!/prod(m! c_m!) * prod G^(m) * phi^(k)(G), phi(v) = v^t log^j v,
its constant taking WORK_M of every part but one of size 1, whose |G'| it
keeps.  With x^(k) = x(x-1)...(x-k+1), j t-derivatives of d^k/dv^k v^t =
t^(k) v^(t-k) give

    phi^(k)(v) = v^(t-k) sum_{i=0..k} ((1/i!) d^i/dt^i t^(k)) j^(i) log^(j-i) v.

One rule rounds every coefficient: t^(k) is its running product; any other
polynomial in t is its integer content times its primitive part, that summed
left to right in descending powers (c * pow(t, e) from e = 3, c * t * t,
c * t, c); j^(k) is an exact int, then a float; a middle coefficient is
multiplied by j, j-1, ... left to right.  ``h4_bounds`` gives each order j
its (coefficient, group, p) terms in one loop over the groups and their brace
orders i = min(k, j)..0 (a log order j - i < 0 is no term), ``term_kinds``
what each group stands for, and the quadrature module bounds each term, by
its sup or by its integral; ``h4_term_bounds`` gives one order's terms.
WORK_M bounds both signs.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import NamedTuple

from .trigpoly import G_MAX, SignVariant, check_int, overflow_to_inf, parse_sign, sup_norm_bound

# Rounded working bounds for sup|G^(m)|, m = 0..4 (k = 5).  Rounding keeps the
# group constants below exact integers while staying valid upper bounds.
WORK_M = (G_MAX, 176.0, 6800.0, 280000.0, 11600000.0)
_R = len(WORK_M) - 1  # the order of the derivative bounded

for _m, _w in enumerate(WORK_M):
    if _w < sup_norm_bound(_m):
        raise RuntimeError(f"working bound {_w} below true sup at order {_m}")


def _faa_di_bruno(r: int) -> list[tuple[int, tuple[int, ...]]]:
    """(count, parts) of each partition of r, most parts first: H^(r) / phi^(k)(G) sums count * prod G^(part), k parts."""
    return [
        (math.factorial(r) // math.prod(map(math.factorial, parts)) // math.prod(math.factorial(parts.count(m)) for m in set(parts)), parts)
        for k in range(r, 0, -1) for parts in combinations_with_replacement(range(r, 0, -1), k) if sum(parts) == r
    ]


def _falling_rows(k: int) -> list[list[int]]:
    """Integer coefficients, highest power of t first, of (1/i!) d^i/dt^i t^(k) for i = 0..k: the t-polynomials of brace k."""
    falling = [1]
    for f in range(k):  # times (t - f)
        falling = [a - f * b for a, b in zip(falling + [0], [0] + falling)]
    return [[math.comb(k - n, i) * a for n, a in enumerate(falling[: k + 1 - i])] for i in range(k + 1)]


# Groups (constant, power offset -k, |G'| factor) of the fourth-derivative expansion, one per partition of 4 into
# k parts, brace k.  A group keeps one |G'| so the quadrature can integrate it exactly, or bound it by WORK_M[1].
_GROUPS = tuple(
    (count * math.prod(WORK_M[m] for m in (parts[:-1] if parts[-1] == 1 else parts)), -len(parts), parts[-1] == 1) for count, parts in _faa_di_bruno(_R)
)

# The middle braces (k, i), 0 < i < k: each polynomial as (content, (coefficient, power) of its primitive part).
_MIDDLE_POLYNOMIALS = {
    (k, i): (float(content), [(float(c // content), len(row) - 1 - n) for n, c in enumerate(row)])
    for k in range(1, _R + 1) for i, row in enumerate(_falling_rows(k)[1:k], 1) for content in [math.gcd(*row)]
}


# A functional NamedTuple base, as for TrigSquare, so that __new__ can check t and j.
class IntegrandSpec(NamedTuple("IntegrandSpec", [("t", float), ("j", int), ("sign", SignVariant)])):
    """Parameters of H = G^t log^j G for one sign variant of the k = 5 square.

    There is no k: the working bounds WORK_M and the quadrature's variation
    constants are proven for k = 5 alone.  ``sign`` is a SignVariant or its
    label, as parse_sign takes it.
    """

    __slots__ = ()

    def __new__(cls, t: float, j: int, sign: SignVariant | str):
        _check_power_and_order(t, j)
        return super().__new__(cls, t, j, parse_sign(sign))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so a replaced field is checked too
        return cls(*fields)


def _check_power_and_order(t: float, j: int) -> None:
    if not t >= 1.0:  # also refuses nan
        raise ValueError(f"power t must be >= 1, got {t}")
    check_int("log exponent j", j, 0)


def _brace_rows(t: float) -> dict[tuple[int, int], float]:
    """{(k, i): value} of the j-free braces at t: each middle polynomial, and t^(k) at i = 0; a t where one is not finite is refused."""
    powers = [overflow_to_inf(pow, t, e) for e in range(_R)]  # t^3 is inf from t ~ 5.6e102, t^(4) from t ~ 1.2e77 already
    braces = {}
    for key, (content, terms) in _MIDDLE_POLYNOMIALS.items():
        total = 0.0  # 0.0 plus the leading term, positive, is that term
        for c, e in terms:
            total += c * t * t if e == 2 else c * powers[e]
        braces[key] = content * total
    product = 1.0
    for k in range(1, _R + 1):  # t^(k) as its running product
        product *= t - (k - 1)
        braces[k, 0] = product
    if not all(map(math.isfinite, braces.values())):  # t = inf too, where the bound would be nan
        raise ValueError(f"power t = {t!r} is too large to evaluate: the fourth-derivative bound overflows a float")
    return braces


def h4_bounds(t: float, orders) -> list[tuple[tuple[float, int, int], ...]]:
    """The |H''''| bound of each j in orders at one t: a tuple of sign-free (coefficient, group, p) terms.

    A term stands for coefficient * G^t_r |log G|^p, times |G'| if has_gprime,
    where (has_gprime, t_r) is term_kinds(t)[group].  t_r >= t - 4 is bounded
    on [0, 9] for t > 4 with logs, t >= 4 without.  The brace polynomials in t
    are taken once, and each order is checked, in turn, before its terms.
    """
    braces = None
    bounds = []
    for j in orders:
        _check_power_and_order(t, j)
        if t < 4.0 or (t == 4.0 and j > 0):
            raise ValueError(f"fourth-derivative bound needs t > 4 with logs (t >= 4 without), got t={t}, j={j}")
        if braces is None:  # the first order: the t-polynomials
            braces = _brace_rows(t)
        terms = []  # a tuple from a list: tuple() of a generator resizes, and fragments memory measurably
        try:  # brace orders i from min(k, j) down: a term of log order j - i < 0 is none
            for group, (const, offset, _) in enumerate(_GROUPS):
                k = -offset
                for i in range(min(k, j), -1, -1):
                    if i == k:  # the top j^(k): an exact int, then a float
                        value = float(math.perm(j, k))
                    else:  # positive at t >= 4, so no zero term or abs
                        value = braces[k, i]
                        for f in range(i):
                            value *= j - f
                    terms.append((const * value, group, j - i))
        except OverflowError:  # from j ~ 1.2e77; the message gives log10(j), as str(j) refuses past 4300 digits
            raise ValueError(f"log exponent j ~ 10^{math.log10(j):.1f} is too large to evaluate: the fourth-derivative bound overflows a float") from None
        bounds.append(tuple(terms))
    return bounds


def term_kinds(t: float) -> list[tuple[bool, float]]:
    """(has_gprime, t + offset) of each group, by group index: what a term of h4_bounds at t stands for."""
    return [(has_gprime, t + offset) for _, offset, has_gprime in _GROUPS]


def refined_kinds(t: float) -> list[tuple[bool, float]]:
    """term_kinds(t) for the refined bound, which integrates each kind's G^t_r and needs t_r >= 1: refused below t = 5."""
    if not t >= 5.0:
        raise ValueError(f"term-form fourth-derivative bound needs t >= 5, got {t}")
    return term_kinds(t)


def h4_term_bounds(spec: IntegrandSpec) -> tuple[list[tuple[bool, float]], tuple[tuple[float, int, int], ...]]:
    """|H''''| bound as (refined_kinds(t), (coefficient, group, p) terms), as refined_error_bound takes it: h4_bounds of one order."""
    (terms,) = h4_bounds(spec.t, [spec.j])
    return refined_kinds(spec.t), terms
