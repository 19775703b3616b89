"""The quadrature integrand ``H(x) = G(x)^t * log(G(x))^j`` and its derivative bounds.

Fractional-power norms are differentiated under the integral sign, which turns
every integrand into a power-times-log combination of G.  The quadrature rule
needs H and H'' at its nodes, built here from one power row per node chunk,
and a bound for |H''''|, assembled by the chain rule from the derivative
bounds of G.  Expanding four derivatives of G^t log^j G and collecting by
which G-derivatives appear yields a short list of groups, each of the form

    constant * G^(t-i) * (|G'| or 1) * brace(t, j; log G)

where the brace is a fixed polynomial in log G with coefficients polynomial in
t and falling factorials of j.  Replacing |G'| by its sup bound gives a single
scalar envelope (``h4_sup_bound``); keeping |G'| as a factor gives the term
list (``h4_term_bounds``) that the variation-aware error bound integrates
exactly.  Neither bound depends on the sign variant: WORK_M bounds both.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

from .envelope import envelope_max
from .trigpoly import SignVariant, sup_norm_bound

# Rounded working bounds for sup|G^(m)|, m = 0..4 (k = 5).  Rounding keeps the
# group constants below exact integers while staying valid upper bounds.
WORK_M = (9.0, 176.0, 6800.0, 280000.0, 11600000.0)

for _m, _w in enumerate(WORK_M):
    if _w < sup_norm_bound(_m):
        raise RuntimeError(f"working bound {_w} below true sup at order {_m}")

# Group constants of the fourth-derivative expansion.  Scalar groups bound
# |G'| by WORK_M[1]; the refined groups keep a first-derivative factor so the
# quadrature can integrate |G'| exactly.
_SCALAR_GROUPS = (
    (WORK_M[1] ** 4, -4, "quartic"),
    (6.0 * WORK_M[1] ** 2 * WORK_M[2], -3, "cubic"),
    (3.0 * WORK_M[2] ** 2 + 4.0 * WORK_M[1] * WORK_M[3], -2, "quadratic"),
    (WORK_M[4], -1, "linear"),
)
_REFINED_GROUPS = (
    (WORK_M[1] ** 3, -4, "quartic", True),
    (6.0 * WORK_M[1] * WORK_M[2], -3, "cubic", True),
    (4.0 * WORK_M[3], -2, "quadratic", True),
    (3.0 * WORK_M[2] ** 2, -2, "quadratic", False),
    (WORK_M[4], -1, "linear", False),
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
        if self.t < 1.0:
            raise ValueError(f"power t must be >= 1, got {self.t}")
        if self.j < 0 or int(self.j) != self.j:
            raise ValueError(f"log exponent j must be a nonnegative integer, got {self.j}")


@dataclass(frozen=True)
class BoundTerm:
    """One bound term ``coefficient * G^t_r * |log G|^j_r * (|G'| if has_gprime)``."""

    coefficient: float
    t_r: float
    j_r: int
    has_gprime: bool


class NodeColumns(NamedTuple):
    """G, G', G'' and log G over a run of nodes: everything about them that is free of t and j."""

    g: tuple[float, ...]
    g1: tuple[float, ...]
    g2: tuple[float, ...]
    ell: tuple[float, ...]


class PowerRow(NamedTuple):
    """Columns over the nodes: G^t, G'' G^(t-1), G'^2 G^(t-2) and (log G)^p by p."""

    t: float
    gt: list[float]
    a: list[float]
    b: list[float]
    logs: dict[int, list[float]]


def power_row(nodes: NodeColumns, t: float, orders: Sequence[int]) -> PowerRow:
    """The power row of G^t at the nodes, with the log powers H'' of ``orders`` needs.

    A log power beyond the float range is refused with a ValueError naming the order.
    """
    t1, t2 = t - 1.0, t - 2.0
    gt = [g**t for g in nodes.g]
    a = [g2 * g**t1 for g, g2 in zip(nodes.g, nodes.g2)]
    b = [g1 * g1 * g**t2 for g, g1 in zip(nodes.g, nodes.g1)]
    powers = {p for j in orders for p in range(max(j - 2, 0), j + 1)}
    try:
        logs = {p: [v**p for v in nodes.ell] for p in powers}
    except OverflowError:  # at a node with |log G| > 1, so the largest order overflows as well
        raise ValueError(f"log order {max(orders)} is too large to evaluate: a power of log G overflows a float") from None
    return PowerRow(t, gt, a, b, logs)


def h_values(row: PowerRow, j: int) -> list[float]:
    """H = G^t (log G)^j at the row's nodes."""
    return list(map(mul, row.gt, row.logs[j]))


def h_second_values(row: PowerRow, j: int) -> list[float]:
    """H'' at the row's nodes by the chain rule: with L = log G,

        H'' = G'' G^(t-1) (t L^j + j L^(j-1))
            + G'^2 G^(t-2) (t(t-1) L^j + j(2t-1) L^(j-1) + j(j-1) L^(j-2)),

    where terms with a vanishing falling factorial of j are absent rather than
    evaluated.
    """
    t, lj = row.t, row.logs[j]
    c2 = t * (t - 1.0)
    if j == 0:
        return [a * (t * p) + b * (c2 * p) for a, b, p in zip(row.a, row.b, lj)]
    c1 = j * (2.0 * t - 1.0)
    if j == 1:
        nodes = zip(row.a, row.b, lj, row.logs[0])
        return [a * (t * p + j * q) + b * (c2 * p + c1 * q) for a, b, p, q in nodes]
    c0 = j * (j - 1)
    return [
        a * (t * p + j * q) + b * (c2 * p + c1 * q + c0 * r)
        for a, b, p, q, r in zip(row.a, row.b, lj, row.logs[j - 1], row.logs[j - 2])
    ]


def _brace_terms(kind: str, t: float, j: int) -> list[tuple[float, int]]:
    """(coefficient, log-power) pairs of one brace polynomial, zero terms omitted."""
    if kind == "quartic":
        raw = (
            (float(j * (j - 1) * (j - 2) * (j - 3)), j - 4),
            ((4.0 * t - 6.0) * j * (j - 1) * (j - 2), j - 3),
            ((6.0 * t * t - 18.0 * t + 11.0) * j * (j - 1), j - 2),
            ((2.0 * t**3 - 9.0 * t * t + 11.0 * t - 3.0) * 2.0 * j, j - 1),
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

    Every group becomes constant * max of G^(t+offset) |log G|^p over [0, 9]
    via the closed-form envelope.  Needs t > 4 when logs are present (at
    t = 4 the envelope of the G^0 log^j G term is unbounded at 0), t >= 4 otherwise.
    """
    t, j = spec.t, spec.j
    if t < 4.0 or (t == 4.0 and j > 0):
        raise ValueError(f"fourth-derivative bound needs t > 4 with logs (t >= 4 plain), got t={t}, j={j}")
    pieces = []
    for const, offset, kind in _SCALAR_GROUPS:
        for c, p in _brace_terms(kind, t, j):
            pieces.append(const * abs(c) * envelope_max(t + offset, p, 0.0, 9.0))
    return math.fsum(pieces)


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
