"""Corrected midpoint quadrature with certified error bounds.

The composite midpoint rule on [0, 1/2] with a second-derivative correction,

    sum_n  f(x_n)/(2N) + f''(x_n)/(192 N^3),   x_n = (2n-1)/(4N),

integrates exactly through third order on each subinterval, leaving an error
at most  sup|f''''| / (60 * 2^10 * N^4).  Two interchangeable error bounds are
provided: the plain one takes a scalar sup bound for f'''', while the refined
one integrates a term-form bound (powers of G, logs, and |G'| factors) using
exact moments and total-variation bounds, gaining one extra power of N.

Integrands H = G^t log^j G of one t and step count differ only in j, so they
share one node pass: G, G', G'' and the powers of G once per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

from .envelope import envelope_max
from .integrand import BoundTermSum, IntegrandSpec, h4_sup_bound, h4_term_bounds
from .integrand import h_second_values, h_values, power_row
from .spectral import torus_integral_upper
from .trigpoly import LocalMaxTable, SignVariant, TrigSquare, default_max_table, second_deriv_L2
from .trigpoly import sup_norm_bound, variation_bound_power

MAX_STEPS = 1_000_000
MODES = ("plain", "refined")
_CHUNK = 256
_ERR_DENOM = 60.0 * 2**10  # 61440, exact

# Working constants for the variation-aware bound: half the sup bound of G'
# and half a rounded upper bound for the L^2 norm of G''.
_HALF_SUP_G1 = 88.0
_HALF_L2_G2 = 1700.0
if 2.0 * _HALF_SUP_G1 < sup_norm_bound(1) or 2.0 * _HALF_L2_G2 < second_deriv_L2(TrigSquare()):
    raise RuntimeError("_HALF_SUP_G1 or _HALF_L2_G2 is below half the bound it stands for")

LOG9 = math.log(9.0)


@dataclass(frozen=True)
class CertifiedValue:
    """A numeric estimate together with a proven absolute error bound."""

    estimate: float
    error_bound: float
    steps: int
    method: str


def _node_chunks(n_steps: int):
    """The midpoint nodes x_n = (2n-1)/(4N), n = 1..N, in fixed chunks of _CHUNK."""
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"step count must be in 1..{MAX_STEPS}, got {n_steps}")
    denom = 4.0 * n_steps
    return (
        [(2 * n - 1) / denom for n in range(lo, min(lo + _CHUNK, n_steps + 1))]
        for lo in range(1, n_steps + 1, _CHUNK)
    )


def _node_sums(parts) -> tuple[float, float]:
    """Exactly-rounded totals of the per-chunk (fsum of f, fsum of f'') pairs, in node order.

    The fixed 256-node chunking keeps the report bytes and the frozen values:
    one fsum over all nodes is as accurate but may move the last bit.
    """
    return fsum(p[0] for p in parts), fsum(p[1] for p in parts)


def _estimate(sf: float, sf2: float, n_steps: int) -> float:
    n = float(n_steps)
    return sf / (2.0 * n) + sf2 / (192.0 * n**3)


def _plain_error(sup4: float, n_steps: int) -> float:
    return sup4 / (_ERR_DENOM * float(n_steps) ** 4)


def midpoint4_integrate(f, f2, n_steps: int, sup4: float) -> CertifiedValue:
    """Corrected midpoint estimate of the integral of f over [0, 1/2].

    ``f2`` must be the second derivative of f and ``sup4`` a bound for
    sup|f''''| (0 for integrands of degree at most 3, making the rule exact).
    """
    chunks = _node_chunks(n_steps)
    if sup4 < 0.0:
        raise ValueError(f"fourth-derivative bound must be nonnegative, got {sup4}")
    sf, sf2 = _node_sums([(fsum(map(f, xs)), fsum(map(f2, xs))) for xs in chunks])
    return CertifiedValue(_estimate(sf, sf2, n_steps), _plain_error(sup4, n_steps), n_steps, "plain")


def _check_node_sum_args(t: float, j: int, n_steps: int) -> None:
    if t < 1.0:
        raise ValueError(f"power must be >= 1, got {t}")
    if j < 0:
        raise ValueError(f"log exponent must be nonnegative, got {j}")
    if n_steps < 0:
        raise ValueError(f"step count must be nonnegative, got {n_steps}")


def q_plain(spec: TrigSquare, t: float, j: int, n_steps: int, table: LocalMaxTable) -> float:
    """Bound for the node sum of G^t |log G|^j without a derivative factor.

    Splits the range of G at 1/9: small values are covered by the envelope
    maximum on [0, 1/9] at every node, large values by log(9)^j times the node
    sum of G^t, which a midpoint sum bounds through the exact mean and half
    the total variation of G^t.
    """
    _check_node_sum_args(t, j, n_steps)
    small = envelope_max(t, j, 0.0, 1.0 / 9.0) * n_steps if j != 0 else 0.0
    mean = torus_integral_upper(t)
    var = variation_bound_power(spec, t, table)
    return small + LOG9**j * (n_steps * mean + 0.5 * var)


def q_star(spec: TrigSquare, t: float, j: int, n_steps: int, table: LocalMaxTable) -> float:
    """Bound for the node sum of G^t |log G|^j |G'|.

    The |G'| factor is absorbed two ways: on the small range [0, 1/9] it costs
    a node-count term plus a boundary term; on the large range, node sums of
    G^t |G'| telescope into the variation of G^(t+1)/(t+1) plus correction
    terms controlled by the variation of G^t and the L^2 norm of G''.
    """
    _check_node_sum_args(t, j, n_steps)
    small = 0.0
    if j != 0:
        small = envelope_max(t, j, 0.0, 1.0 / 9.0) * (14.0 * n_steps / 9.0 + _HALF_L2_G2)
    var_up = variation_bound_power(spec, t + 1.0, table)
    var_t = variation_bound_power(spec, t, table)
    tail = _HALF_L2_G2 * math.sqrt(torus_integral_upper(2.0 * t))
    return small + LOG9**j * (n_steps / (t + 1.0) * var_up + _HALF_SUP_G1 * var_t + tail)


def refined_error_bound(
    bound_sum: BoundTermSum, spec: TrigSquare, n_steps: int, table: LocalMaxTable
) -> float:
    """Variation-aware quadrature error bound, one power of N sharper than plain.

    Each term of the |H''''| bound is summed over the nodes via q_star (terms
    carrying |G'|) or q_plain (terms without), then scaled like the plain
    bound with one extra 1/N.
    """
    if bound_sum.spec.trig != spec:
        raise ValueError("term bound and square disagree on sign variant")
    if n_steps < 1:
        raise ValueError(f"step count must be positive, got {n_steps}")
    w = fsum(
        term.coefficient
        * (q_star if term.has_gprime else q_plain)(spec, term.t_r, term.j_r, n_steps, table)
        for term in bound_sum.terms
    )
    return w / (_ERR_DENOM * float(n_steps) ** 5)


def _h_node_sums(trig: TrigSquare, t: float, orders, n_steps: int) -> dict[int, tuple[float, float]]:
    """Node sums of H = G^t log^j G and of H'' for each j in orders, from one node pass."""
    parts = {j: [] for j in orders}
    for xs in _node_chunks(n_steps):
        row = power_row(trig, t, xs, orders)
        for j in orders:
            parts[j].append((fsum(h_values(row, j)), fsum(h_second_values(row, j))))
    return {j: _node_sums(p) for j, p in parts.items()}


def _integrate_orders(sign: SignVariant, t: float, n_steps: int, jobs) -> list[CertifiedValue]:
    """Certified integrals of G^t log^j G over [0, 1/2], one per (j, mode) in jobs."""
    specs = [IntegrandSpec(t, j, sign) for j, _ in jobs]
    for _, mode in jobs:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    trig = TrigSquare(5, sign)
    sums = _h_node_sums(trig, t, sorted({spec.j for spec in specs}), n_steps)
    values = []
    for spec, (_, mode) in zip(specs, jobs):
        if mode == "plain":
            err = _plain_error(h4_sup_bound(spec), n_steps)
        else:
            err = refined_error_bound(h4_term_bounds(spec), trig, n_steps, default_max_table(trig))
        values.append(CertifiedValue(_estimate(*sums[spec.j], n_steps), err, n_steps, mode))
    return values


def integrate_H(spec: IntegrandSpec, n_steps: int, mode: str = "plain") -> CertifiedValue:
    """Certified integral of H = G^t log^j G over [0, 1/2]."""
    return _integrate_orders(spec.sign, spec.t, n_steps, [(spec.j, mode)])[0]


def gap_derivatives(t: float, n_steps: int, jobs) -> list[CertifiedValue]:
    """Certified gap derivatives at t, one per (order, mode) in jobs.

    Differentiating the mean of G^t in t brings down log^order G, so the
    derivative of the gap is the difference of the two sign variants'
    integrals of H = G^t log^order G over the half period (both variants are
    even, so the half-period integral is half the mean).  The estimate is
    minus-variant minus plus-variant; error bounds add.
    """
    minus = _integrate_orders(SignVariant.MINUS, t, n_steps, jobs)
    plus = _integrate_orders(SignVariant.PLUS, t, n_steps, jobs)
    return [
        CertifiedValue(m.estimate - p.estimate, m.error_bound + p.error_bound, n_steps, mode)
        for m, p, (_, mode) in zip(minus, plus, jobs)
    ]


def gap_derivative(order: int, t: float, n_steps: int, mode: str = "refined") -> CertifiedValue:
    """Certified value of the order-th derivative of the gap at t (see gap_derivatives)."""
    return gap_derivatives(t, n_steps, [(order, mode)])[0]
