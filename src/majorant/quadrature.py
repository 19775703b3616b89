"""Corrected midpoint quadrature with certified error bounds.

The composite midpoint rule on [0, 1/2] with a second-derivative correction,

    sum_n  f(x_n)/(2N) + f''(x_n)/(192 N^3),   x_n = (2n-1)/(4N),

integrates exactly through third order on each subinterval, leaving an error
at most  sup|f''''| / (60 * 2^10 * N^4).  Two interchangeable error bounds are
provided: the plain one takes a scalar sup bound for f'''', while the refined
one integrates a term-form bound (powers of G, logs, and |G'| factors) using
exact moments and total-variation bounds, gaining one extra power of N.

Integrands H = G^t log^j G of one t and step count differ only in j, so they
share one power row per node chunk: G^t and three j-free columns whose
moments against powers of log G give H'' of every order j.  The node table
under it (G, G', G'' and log G per chunk) depends on neither t nor j and
outlives the call: it is cached per (square, step count), at most four tables
(both signs of the two latest step counts).  Each chunk of a table also keeps
the powers (log G)^p once asked for, so they live and die with the table.
The |H''''| bounds depend on t and j alone and are built once for both signs;
the refined bounds of a batch compute each j-free base and each (t, j) term once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from operator import mul

from .envelope import envelope_max
from .integrand import BoundTerm, IntegrandSpec, NodeColumns, h4_sup_bound, h4_term_bounds
from .integrand import power_row
from .spectral import torus_integral_upper
from .trigpoly import MAX_STEPS, LocalMaxTable, SignVariant, TrigSquare, default_max_table
from .trigpoly import eval_G_jet, second_deriv_L2, sup_norm_bound, variation_bound_power

MODES = ("plain", "refined")
_CHUNK = 256
_ERR_DENOM = 60.0 * 2**10  # 61440, exact

# Working constants for the variation-aware bound: half the sup bound of G'
# and half a rounded upper bound for the L^2 norm of G''.
_HALF_SUP_G1 = 88.0
_HALF_L2_G2 = 1700.0
if 2.0 * _HALF_SUP_G1 < sup_norm_bound(1) or 2.0 * _HALF_L2_G2 < second_deriv_L2():
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


def _check_node_sum_args(t: float, j: int, n_steps: int) -> None:
    if t < 1.0:
        raise ValueError(f"power must be >= 1, got {t}")
    if j < 0:
        raise ValueError(f"log exponent must be nonnegative, got {j}")
    if n_steps < 0:
        raise ValueError(f"step count must be nonnegative, got {n_steps}")


def _plain_base(spec: TrigSquare, t: float, n_steps: int, table: LocalMaxTable) -> float:
    """The j-free large-range part of q_plain: N times the mean of G^t plus half its variation."""
    return n_steps * torus_integral_upper(t) + 0.5 * variation_bound_power(spec, t, table)


def _star_base(spec: TrigSquare, t: float, n_steps: int, table: LocalMaxTable) -> float:
    """The j-free large-range part of q_star (see there)."""
    var_up = variation_bound_power(spec, t + 1.0, table)
    var_t = variation_bound_power(spec, t, table)
    tail = _HALF_L2_G2 * math.sqrt(torus_integral_upper(2.0 * t))
    return n_steps / (t + 1.0) * var_up + _HALF_SUP_G1 * var_t + tail


def _q_value(has_gprime: bool, t: float, j: int, n_steps: int, base: float) -> float:
    """q_star (has_gprime) or q_plain from its base: the small-range part plus log(9)^j times base."""
    small = 0.0
    if j != 0:
        weight = 14.0 * n_steps / 9.0 + _HALF_L2_G2 if has_gprime else n_steps
        small = envelope_max(t, j, 0.0, 1.0 / 9.0) * weight
    try:
        return small + LOG9**j * base
    except OverflowError:  # log(9)^j beyond the float range: infinite, still an upper bound
        return math.inf


def q_plain(spec: TrigSquare, t: float, j: int, n_steps: int, table: LocalMaxTable) -> float:
    """Bound for the node sum of G^t |log G|^j without a derivative factor.

    Splits the range of G at 1/9: small values are covered by the envelope
    maximum on [0, 1/9] at every node, large values by log(9)^j times the node
    sum of G^t, which a midpoint sum bounds through the exact mean and half
    the total variation of G^t.
    """
    _check_node_sum_args(t, j, n_steps)
    return _q_value(False, t, j, n_steps, _plain_base(spec, t, n_steps, table))


def q_star(spec: TrigSquare, t: float, j: int, n_steps: int, table: LocalMaxTable) -> float:
    """Bound for the node sum of G^t |log G|^j |G'|.

    The |G'| factor is absorbed two ways: on the small range [0, 1/9] it costs
    a node-count term plus a boundary term; on the large range, node sums of
    G^t |G'| telescope into the variation of G^(t+1)/(t+1) plus correction
    terms controlled by the variation of G^t and the L^2 norm of G''.
    """
    _check_node_sum_args(t, j, n_steps)
    return _q_value(True, t, j, n_steps, _star_base(spec, t, n_steps, table))


def refined_error_bounds(
    term_lists: list[tuple[BoundTerm, ...]], spec: TrigSquare, n_steps: int, table: LocalMaxTable
) -> list[float]:
    """Variation-aware quadrature error bounds, one power of N sharper than plain.

    Each term of an |H''''| bound is summed over the nodes via q_star (terms
    carrying |G'|) or q_plain (terms without), then scaled like the plain
    bound with one extra 1/N.  The term lists of a batch share their terms'
    (kind, t_r) bases and (kind, t_r, j_r) values, so each is computed once.
    A term list is sign-free; the square ``spec`` picks the sign.
    """
    if n_steps < 1:
        raise ValueError(f"step count must be positive, got {n_steps}")
    bases, q = {}, {}
    for term in (term for terms in term_lists for term in terms):
        key = (term.has_gprime, term.t_r, term.j_r)
        if key not in q:
            _check_node_sum_args(term.t_r, term.j_r, n_steps)
            if key[:2] not in bases:
                bases[key[:2]] = (_star_base if term.has_gprime else _plain_base)(spec, term.t_r, n_steps, table)
            q[key] = _q_value(*key, n_steps, bases[key[:2]])
    scale = _ERR_DENOM * float(n_steps) ** 5
    bounds = []
    for terms in term_lists:
        try:
            bounds.append(fsum(term.coefficient * q[term.has_gprime, term.t_r, term.j_r] for term in terms) / scale)
        except OverflowError:  # a sum beyond the float range: infinite, still an upper bound
            bounds.append(math.inf)
    return bounds


def refined_error_bound(terms: tuple[BoundTerm, ...], spec: TrigSquare, n_steps: int, table: LocalMaxTable) -> float:
    """Variation-aware error bound for one |H''''| bound: refined_error_bounds of one."""
    return refined_error_bounds([terms], spec, n_steps, table)[0]


@lru_cache(maxsize=4, typed=True)  # typed: a float step count misses and is refused by _node_chunks
def _node_table(trig: TrigSquare, n_steps: int) -> tuple[NodeColumns, ...]:
    """G, G', G'' (one eval_G_jet pass) and log G for each chunk of _CHUNK midpoint nodes.

    Free of t and j, so every batch at this step count shares it, and so do
    the log powers each chunk keeps once asked for.  The four entries hold
    both signs of two step counts: gap_derivatives asks for the signs in
    turn, and the default proof uses two step counts.
    """
    jets = (zip(*eval_G_jet(trig, xs)) for xs in _node_chunks(n_steps))
    return tuple(NodeColumns(g, g1, g2, tuple(map(math.log, g)), {}) for g, g1, g2 in jets)


def _h_node_sums(trig: TrigSquare, t: float, orders, n_steps: int) -> dict[int, tuple[float, float]]:
    """Node sums of H = G^t log^j G and of H'' for each j in orders, from one node pass.

    Per chunk, the H sum of order j is fsum(G^t L^j), and the H'' sum combines
    three moment sums of the power row's j-free columns (see PowerRow):
    fsum(u L^j), j fsum(v L^(j-1)) and j(j-1) fsum(b L^(j-2)).
    """
    parts = {j: [] for j in orders}
    for nodes in _node_table(trig, n_steps):
        row = power_row(nodes, t)
        try:
            logs = {p: nodes.log_power(p) for j in orders for p in range(max(j - 2, 0), j + 1)}
        except OverflowError:  # at a node with |log G| > 1, so the largest order overflows as well
            raise ValueError(f"log order {max(orders)} is too large to evaluate: a power of log G overflows a float") from None
        try:
            for j in orders:
                moments = [fsum(map(mul, row.u, logs[j]))]
                if j >= 1:
                    moments.append(j * fsum(map(mul, row.v, logs[j - 1])))
                if j >= 2:
                    moments.append(j * (j - 1) * fsum(map(mul, row.b, logs[j - 2])))
                parts[j].append((fsum(map(mul, row.gt, logs[j])), fsum(moments)))
        except (OverflowError, ValueError):  # fsum met a sum beyond the float range, or inf - inf
            raise ValueError(f"log order {j} at power t = {t!r} is too large to evaluate: its node sums overflow a float") from None
    return {j: _node_sums(p) for j, p in parts.items()}


def _h4_bounds(t: float, jobs) -> list:
    """The |H''''| bound of each (j, mode) in jobs: h4_sup_bound if plain, h4_term_bounds if refined.

    Both depend on t and j alone (the spec's sign is not read), so the two
    signs of a gap derivative share them.
    """
    for _, mode in jobs:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    bound = {"plain": h4_sup_bound, "refined": h4_term_bounds}
    return [bound[mode](IntegrandSpec(t, j, SignVariant.PLUS)) for j, mode in jobs]


def _integrate_orders(sign: SignVariant, t: float, n_steps: int, jobs, h4_bounds) -> list[CertifiedValue]:
    """Certified integrals of G^t log^j G over [0, 1/2], one per (j, mode) in jobs, given their _h4_bounds."""
    trig = TrigSquare(5, sign)
    sums = _h_node_sums(trig, t, sorted({j for j, _ in jobs}), n_steps)
    for j, node_sums in sums.items():
        if not all(map(math.isfinite, node_sums)):  # an H or H'' product overflowed to inf
            raise ValueError(f"log order {j} at power t = {t!r} is too large to evaluate: its node sums are not finite")
    refined = [terms for terms, (_, mode) in zip(h4_bounds, jobs) if mode == "refined"]
    refined_errors = iter(refined_error_bounds(refined, trig, n_steps, default_max_table(trig)))
    values = []
    for bound, (j, mode) in zip(h4_bounds, jobs):
        err = _plain_error(bound, n_steps) if mode == "plain" else next(refined_errors)
        values.append(CertifiedValue(_estimate(*sums[j], n_steps), err, n_steps, mode))
    return values


def gap_derivatives(t: float, n_steps: int, jobs) -> list[CertifiedValue]:
    """Certified gap derivatives at t, one per (order, mode) in jobs.

    Differentiating the mean of G^t in t brings down log^order G, so the
    derivative of the gap is the difference of the two sign variants'
    integrals of H = G^t log^order G over the half period (both variants are
    even, so the half-period integral is half the mean).  The estimate is
    minus-variant minus plus-variant; error bounds add.
    """
    h4_bounds = _h4_bounds(t, jobs)
    minus = _integrate_orders(SignVariant.MINUS, t, n_steps, jobs, h4_bounds)
    plus = _integrate_orders(SignVariant.PLUS, t, n_steps, jobs, h4_bounds)
    return [
        CertifiedValue(m.estimate - p.estimate, m.error_bound + p.error_bound, n_steps, mode)
        for m, p, (_, mode) in zip(minus, plus, jobs)
    ]


def gap_derivative(order: int, t: float, n_steps: int, mode: str = "refined") -> CertifiedValue:
    """Certified value of the order-th derivative of the gap at t (see gap_derivatives)."""
    return gap_derivatives(t, n_steps, [(order, mode)])[0]
