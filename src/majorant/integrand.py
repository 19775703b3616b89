"""Bounds for |H''''|, the fourth derivative of the integrand ``H(x) = G(x)^t * log(G(x))^j``.

Fractional-power norms are differentiated under the integral sign, which turns
every integrand into a power-times-log combination of G.  The quadrature module
sums H at its nodes; its error bound needs a bound for |H''''|, assembled here
by the chain rule from the derivative bounds of G.  Expanding four derivatives
of G^t log^j G and collecting by which G-derivatives appear yields five groups

    constant * G^(t-i) * (|G'| or 1) * brace(t, j; log G)

where each of four braces is a polynomial in log G whose coefficients are
polynomials in t times falling factorials of j.  ``h4_bounds`` takes the
polynomials once per t and, in one mode per call, gives each order j a scalar
envelope, |G'| bounded by its sup, or (coefficient, group, p) terms keeping
|G'|, each naming one integral over the period that the refined error bound
weighs: of G^(t+offset) |log G|^p for the group's offset, times |G'| if it
keeps one.  ``refined_kinds`` lists (has_gprime, t + offset) by group, and
``h4_term_bounds`` returns it beside one order's terms.  No bound depends on
the sign: WORK_M bounds both.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .envelope import envelope_max
from .trigpoly import G_MAX, SignVariant, check_int, overflow_to_inf, parse_sign, sup_norm_bound

# Rounded working bounds for sup|G^(m)|, m = 0..4 (k = 5).  Rounding keeps the
# group constants below exact integers while staying valid upper bounds.
WORK_M = (G_MAX, 176.0, 6800.0, 280000.0, 11600000.0)

for _m, _w in enumerate(WORK_M):
    if _w < sup_norm_bound(_m):
        raise RuntimeError(f"working bound {_w} below true sup at order {_m}")

# Groups (constant, power offset, brace kind, |G'| factor) of the fourth-derivative expansion.
# The refined groups keep |G'| so the quadrature can integrate it exactly; the scalar groups
# bound it by WORK_M[1] and add up each kind's constants (exact: all are integers < 2^53).
_REFINED_GROUPS = (
    (WORK_M[1] ** 3, -4, "quartic", True),
    (6.0 * WORK_M[1] * WORK_M[2], -3, "cubic", True),
    (4.0 * WORK_M[3], -2, "quadratic", True),
    (3.0 * WORK_M[2] ** 2, -2, "quadratic", False),
    (WORK_M[4], -1, "linear", False),
)
_SCALAR_GROUPS = tuple(
    (sum(c * (WORK_M[1] if g else 1.0) for c, _, k, g in _REFINED_GROUPS if k == kind), offset, kind)
    for offset, kind in dict.fromkeys((offset, kind) for _, offset, kind, _ in _REFINED_GROUPS)
)


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


def _brace_rows(t: float) -> tuple[tuple[float, ...], ...]:
    """The t-polynomials of the quartic, cubic, quadratic and linear braces; a t where one is not finite is refused."""
    cube = overflow_to_inf(pow, t, 3)  # inf from t ~ 5.6e102; t(t-1)(t-2)(t-3) is inf from t ~ 1.2e77 already
    falling2 = t * (t - 1.0)
    falling3 = falling2 * (t - 2.0)
    rows = (
        (4.0 * t - 6.0, 6.0 * t * t - 18.0 * t + 11.0, 2.0 * cube - 9.0 * t * t + 11.0 * t - 3.0, falling3 * (t - 3.0)),
        (3.0 * (t - 1.0), 3.0 * t * t - 6.0 * t + 2.0, falling3),
        (2.0 * t - 1.0, falling2),
        (t,),
    )
    if not all(math.isfinite(c) for row in rows for c in row):  # t = inf too, where the bound would be nan
        raise ValueError(f"power t = {t!r} is too large to evaluate: the fourth-derivative bound overflows a float")
    return rows


def h4_bounds(t: float, orders, refined: bool) -> list:
    """The |H''''| bound of each j in orders at one t: a tuple of terms if refined, else one scalar.

    A term (coefficient, group, p) stands for coefficient * G^t_r |log G|^p,
    times |G'| if has_gprime, where (has_gprime, t_r) is refined_kinds(t)[group];
    terms need t >= 5, so that each t_r is at least 1.  The scalar holds
    over the whole period, each scalar group's term bounded by the envelope of
    G^(t+offset) |log G|^p on [0, G_MAX]; it needs t > 4 with logs (at t = 4
    the G^0 log^j G envelope is unbounded at 0), t >= 4 without.  Neither
    depends on the sign.  The brace polynomials in t are taken once, and each
    order is checked, in turn, before its bound is built.
    """
    rows = None
    bounds = []
    for j in orders:
        _check_power_and_order(t, j)
        if refined and t < 5.0:
            raise ValueError(f"term-form fourth-derivative bound needs t >= 5, got {t}")
        if not refined and (t < 4.0 or (t == 4.0 and j > 0)):
            raise ValueError(f"fourth-derivative bound needs t > 4 with logs (t >= 4 plain), got t={t}, j={j}")
        if rows is None:  # the first order: the t-polynomials
            rows = _brace_rows(t)
            (a1, a2, a3, a4), (b1, b2, b3), (c1, c2), (d1,) = rows
        try:  # the largest integer any brace converts, and every bound takes the quartic brace
            falling = float(j * (j - 1) * (j - 2) * (j - 3))
        except OverflowError:  # from j ~ 1.2e77; the message gives log10(j), as str(j) refuses past 4300 digits
            raise ValueError(f"log exponent j ~ 10^{math.log10(j):.1f} is too large to evaluate: the fourth-derivative bound overflows a float") from None
        braces = {  # polynomial times falling factors of j, left to right; positive at t >= 4, so no zero term or abs
            "quartic": ((falling, j - 4), (a1 * j * (j - 1) * (j - 2), j - 3), (a2 * j * (j - 1), j - 2), (a3 * 2.0 * j, j - 1), (a4, j)),
            "cubic": ((float(j * (j - 1) * (j - 2)), j - 3), (b1 * j * (j - 1), j - 2), (b2 * j, j - 1), (b3, j)),
            "quadratic": ((float(j * (j - 1)), j - 2), (c1 * j, j - 1), (c2, j)),
            "linear": ((float(j), j - 1), (d1, j)),
        }  # a term of log order p < 0 is none: each bound below skips it
        if refined:  # a tuple from a list: tuple() of a generator resizes, and fragments memory measurably
            bounds.append(tuple([(const * c, group, p) for group, (const, _, kind, _) in enumerate(_REFINED_GROUPS) for c, p in braces[kind] if p >= 0]))
        else:  # one envelope call per order, over the scalar groups' powers at every log order a brace reaches
            env = envelope_max([t + offset for _, offset, _ in _SCALAR_GROUPS], range(max(j - 4, 0), j + 1), G_MAX)
            pieces = [const * c * env[p][group] for group, (const, _, kind) in enumerate(_SCALAR_GROUPS) for c, p in braces[kind] if p >= 0]
            bounds.append(overflow_to_inf(math.fsum, pieces))
    return bounds


def refined_kinds(t: float) -> list[tuple[bool, float]]:
    """(has_gprime, t + offset) of each refined group, by group index: what a term of h4_bounds at t integrates."""
    return [(has_gprime, t + offset) for _, offset, _, has_gprime in _REFINED_GROUPS]


def h4_term_bounds(spec: IntegrandSpec) -> tuple[list[tuple[bool, float]], tuple[tuple[float, int, int], ...]]:
    """|H''''| bound as (refined_kinds(t), (coefficient, group, p) terms), as refined_error_bound takes it: h4_bounds of one refined order."""
    (terms,) = h4_bounds(spec.t, [spec.j], True)
    return refined_kinds(spec.t), terms
