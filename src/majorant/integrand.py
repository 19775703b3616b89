"""Bounds for |H''''|, the fourth derivative of the integrand ``H(x) = G(x)^t * log(G(x))^j``.

Fractional-power norms are differentiated under the integral sign, which turns
every integrand into a power-times-log combination of G.  The quadrature module
sums H at its nodes; its error bound needs a bound for |H''''|, assembled here
by the chain rule from the derivative bounds of G.
Expanding four derivatives of G^t log^j G and collecting by which
G-derivatives appear yields a short list of groups, each of the form

    constant * G^(t-i) * (|G'| or 1) * brace(t, j; log G)

where the brace is a fixed polynomial in log G with coefficients polynomial in
t and falling factorials of j.  Replacing |G'| by its sup bound gives a single
scalar envelope (``h4_sup_bound``); keeping |G'| as a factor gives the term
list (``h4_term_bounds``) whose integrals over the period the refined error
bound adds up.  Neither bound depends on the sign variant: WORK_M bounds both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .envelope import envelope_max
from .trigpoly import G_MAX, SignVariant, sup_norm_bound

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


@dataclass(frozen=True)
class IntegrandSpec:
    """Parameters of H = G^t log^j G for one sign variant of the k = 5 square.

    There is no k: the working bounds WORK_M and the quadrature's variation
    constants are proven for k = 5 alone.
    """

    t: float
    j: int
    sign: SignVariant

    def __post_init__(self):
        if not self.t >= 1.0:  # also refuses nan
            raise ValueError(f"power t must be >= 1, got {self.t}")
        if self.j < 0 or int(self.j) != self.j:
            raise ValueError(f"log exponent j must be a nonnegative integer, got {self.j}")


class BoundTerm(NamedTuple):
    """One bound term ``coefficient * G^t_r * |log G|^j_r * (|G'| if has_gprime)``."""

    coefficient: float
    t_r: float
    j_r: int
    has_gprime: bool


def _brace_terms(kind: str, t: float, j: int) -> list[tuple[float, int]]:
    """(coefficient, log-power) pairs of one brace polynomial, zero terms omitted."""
    if kind == "quartic":
        try:
            cube = t**3
        except OverflowError:  # from t ~ 5.6e102, where G^t at the nodes has long overflowed
            raise ValueError(f"power t = {t!r} is too large to evaluate: the fourth-derivative bound overflows a float") from None
        raw = (
            (float(j * (j - 1) * (j - 2) * (j - 3)), j - 4),
            ((4.0 * t - 6.0) * j * (j - 1) * (j - 2), j - 3),
            ((6.0 * t * t - 18.0 * t + 11.0) * j * (j - 1), j - 2),
            ((2.0 * cube - 9.0 * t * t + 11.0 * t - 3.0) * 2.0 * j, j - 1),
            (t * (t - 1.0) * (t - 2.0) * (t - 3.0), j),
        )
    elif kind == "cubic":
        raw = (
            (float(j * (j - 1) * (j - 2)), j - 3),
            (3.0 * (t - 1.0) * j * (j - 1), j - 2),
            ((3.0 * t * t - 6.0 * t + 2.0) * j, j - 1),
            (t * (t - 1.0) * (t - 2.0), j),
        )
    elif kind == "quadratic":
        raw = (
            (float(j * (j - 1)), j - 2),
            ((2.0 * t - 1.0) * j, j - 1),
            (t * (t - 1.0), j),
        )
    else:  # linear
        raw = ((float(j), j - 1), (t, j))
    return [(c, p) for c, p in raw if p >= 0 and c != 0.0]


def h4_sup_bound(spec: IntegrandSpec) -> float:
    """Scalar sup-norm bound for H'''' over the whole period.

    Every group becomes constant * max of G^(t+offset) |log G|^p over [0, G_MAX]
    via the closed-form envelope.  Needs t > 4 when logs are present (at
    t = 4 the envelope of the G^0 log^j G term is unbounded at 0), t >= 4 otherwise.
    """
    t, j = spec.t, spec.j
    if t < 4.0 or (t == 4.0 and j > 0):
        raise ValueError(f"fourth-derivative bound needs t > 4 with logs (t >= 4 plain), got t={t}, j={j}")
    pieces = []
    for const, offset, kind in _SCALAR_GROUPS:
        for c, p in _brace_terms(kind, t, j):
            pieces.append(const * abs(c) * envelope_max(t + offset, p, 0.0, G_MAX))
    try:
        return math.fsum(pieces)
    except OverflowError:  # a sum beyond the float range: infinite, still an upper bound
        return math.inf


def h4_term_bounds(spec: IntegrandSpec) -> tuple[BoundTerm, ...]:
    """|H''''| bound as a sum of explicit terms, keeping a |G'| factor where one arises.

    The terms depend on t and j alone, not on the sign.  Needs t >= 5 so
    that every retained power of G is at least 1.
    """
    t, j = spec.t, spec.j
    if t < 5.0:
        raise ValueError(f"term-form fourth-derivative bound needs t >= 5, got {t}")
    return tuple([  # from a list: tuple() of a generator resizes, and fragments memory measurably
        BoundTerm(const * abs(c), t + offset, p, has_gprime)
        for const, offset, kind, has_gprime in _REFINED_GROUPS
        for c, p in _brace_terms(kind, t, j)
    ])
