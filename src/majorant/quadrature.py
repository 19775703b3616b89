"""Corrected midpoint quadrature with certified error bounds.

The composite midpoint rule on [0, 1/2] with a second-derivative correction,

    sum_n  f(x_n)/(2N) + f''(x_n)/(192 N^3),   x_n = (2n-1)/(4N),

integrates exactly through third order on each subinterval, leaving an error
at most  sup|f''''| / (60 * 2^10 * N^4).  Two interchangeable error bounds are
provided: the plain one takes a scalar sup bound for f'''', while the refined
one integrates a term-form bound (powers of G, logs, and |G'| factors) using
exact moments and total-variation bounds, gaining one extra power of N.

Integrands H = G^t log^j G of one t and step count differ only in j, so they
share one power row per node chunk: G^t and the two j-free columns
a = G'' G^(t-1) and b = G'^2 G^(t-2).  One moment sum of a and one of b per
power of log G give H'' of every order j, and consecutive orders share them.
The node table under it (G, G', G'' and log G per chunk) depends on neither
t nor j and outlives the call: it is cached per (square, step count), at most
four tables (both signs of the two latest step counts).  Each chunk of a
table also keeps the powers (log G)^p once asked for, so they live and die
with the table.  The |H''''| bounds depend on t and j alone and are built
once for both signs.  Every node-sum bound (q_star, q_plain, the refined
error bounds, the Q tables) comes from one q pass, q_values, over a batch of
keys and squares: the small-range term and log(9)^j once per key, the torus
mean once per power, the variation once per (square, power), each j-free
base once per square.  One pass per gap derivative serves both signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from operator import mul

from .envelope import envelope_max
from .integrand import WORK_M, BoundTerm, IntegrandSpec, NodeColumns, h4_sup_bound, h4_term_bounds
from .integrand import power_row
from .spectral import torus_integral_upper
from .trigpoly import G_MAX, MAX_STEPS, LocalMaxTable, SignVariant, TrigSquare, default_max_table
from .trigpoly import eval_G_jet, second_deriv_L2, variation_bound_power

MODES = ("plain", "refined")
_CHUNK = 256
_ERR_DENOM = 60.0 * 2**10  # 61440, exact

# Working constants for the variation-aware bound: half the working sup bound
# of G' (88, exact) and half a rounded upper bound for the L^2 norm of G''.
_HALF_SUP_G1 = WORK_M[1] / 2
_HALF_L2_G2 = 1700.0
if 2.0 * _HALF_L2_G2 < second_deriv_L2():
    raise RuntimeError("_HALF_L2_G2 is below half the bound it stands for")

LOG9 = math.log(G_MAX)


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


def _sign_free_part(has_gprime: bool, t: float, j: int, n_steps: int) -> tuple[float, float]:
    """What q_star (has_gprime) or q_plain takes from no sign: the small-range part and log(9)^j."""
    if not t >= 1.0:  # the argument checks are phrased "not <valid>" so that a NaN fails them
        raise ValueError(f"power must be >= 1, got {t}")
    if not j >= 0:
        raise ValueError(f"log exponent must be nonnegative, got {j}")
    if not n_steps >= 0:
        raise ValueError(f"step count must be nonnegative, got {n_steps}")
    small = 0.0
    if j != 0:
        weight = 14.0 * n_steps / G_MAX + _HALF_L2_G2 if has_gprime else n_steps
        small = envelope_max(t, j, 0.0, 1.0 / G_MAX) * weight
    try:
        return small, LOG9**j
    except OverflowError:  # log(9)^j beyond the float range: infinite, still an upper bound
        return small, math.inf


def q_values(keys, squares: list[tuple[TrigSquare, LocalMaxTable]], n_steps: int) -> list[dict]:
    """The q pass: q_star (has_gprime) or q_plain of every (has_gprime, t, j) key, per square.

    squares holds (square, maxima table) pairs, and one {key: value} dict is
    returned per square.  Each value is small + log(9)^j * base, and each
    ingredient is computed once, at the granularity it depends on: the
    small-range envelope term and log(9)^j once per key, torus_integral_upper
    once per power, variation_bound_power once per (square, power), and the
    j-free base of each (has_gprime, t) once per square.
    """
    sign_free = {key: _sign_free_part(*key, n_steps) for key in dict.fromkeys(keys)}
    kinds = dict.fromkeys(key[:2] for key in sign_free)  # the (has_gprime, t) of each j-free base
    means = {p: torus_integral_upper(p) for p in {2.0 * t if star else t for star, t in kinds}}
    powers = {p for star, t in kinds for p in ((t + 1.0, t) if star else (t,))}
    per_square = []
    for spec, table in squares:
        variation = {p: variation_bound_power(spec, p, table) for p in powers}
        bases = {}
        for star, t in kinds:
            if star:  # see q_star
                tail = _HALF_L2_G2 * math.sqrt(means[2.0 * t])
                bases[star, t] = n_steps / (t + 1.0) * variation[t + 1.0] + _HALF_SUP_G1 * variation[t] + tail
            else:  # N times the mean of G^t plus half its variation
                bases[star, t] = n_steps * means[t] + 0.5 * variation[t]
        per_square.append({key: small + log9_power * bases[key[:2]] for key, (small, log9_power) in sign_free.items()})
    return per_square


def q_plain(spec: TrigSquare, t: float, j: int, n_steps: int, table: LocalMaxTable) -> float:
    """Bound for the node sum of G^t |log G|^j without a derivative factor: the q pass of one key.

    Splits the range of G at 1/9: small values are covered by the envelope
    maximum on [0, 1/9] at every node, large values by log(9)^j times the node
    sum of G^t, which a midpoint sum bounds through the exact mean and half
    the total variation of G^t.
    """
    return q_values([(False, t, j)], [(spec, table)], n_steps)[0][False, t, j]


def q_star(spec: TrigSquare, t: float, j: int, n_steps: int, table: LocalMaxTable) -> float:
    """Bound for the node sum of G^t |log G|^j |G'|: the q pass of one key.

    The |G'| factor is absorbed two ways: on the small range [0, 1/9] it costs
    a node-count term plus a boundary term; on the large range, node sums of
    G^t |G'| telescope into the variation of G^(t+1)/(t+1) plus correction
    terms controlled by the variation of G^t and the L^2 norm of G''.
    """
    return q_values([(True, t, j)], [(spec, table)], n_steps)[0][True, t, j]


def refined_error_bounds(
    term_lists: list[tuple[BoundTerm, ...]], squares: list[tuple[TrigSquare, LocalMaxTable]], n_steps: int
) -> list[list[float]]:
    """Variation-aware quadrature error bounds, one power of N sharper than plain.

    Each term of an |H''''| bound is summed over the nodes via q_star (terms
    carrying |G'|) or q_plain (terms without), then scaled like the plain
    bound with one extra 1/N.  Term lists are sign-free, so one q pass over
    the batch's (has_gprime, t_r, j_r) keys serves every (square, maxima
    table) in squares, and one list of bounds is returned per square.
    """
    if not n_steps >= 1:
        raise ValueError(f"step count must be positive, got {n_steps}")
    keys = ((term.has_gprime, term.t_r, term.j_r) for terms in term_lists for term in terms)
    scale = _ERR_DENOM * float(n_steps) ** 5
    per_square = []
    for q in q_values(keys, squares, n_steps):
        bounds = []
        for terms in term_lists:
            try:
                bounds.append(fsum(term.coefficient * q[term.has_gprime, term.t_r, term.j_r] for term in terms) / scale)
            except OverflowError:  # a sum beyond the float range: infinite, still an upper bound
                bounds.append(math.inf)
        per_square.append(bounds)
    return per_square


def refined_error_bound(terms: tuple[BoundTerm, ...], spec: TrigSquare, n_steps: int, table: LocalMaxTable) -> float:
    """Variation-aware error bound for one |H''''| bound on one square: refined_error_bounds of one."""
    return refined_error_bounds([terms], [(spec, table)], n_steps)[0][0]


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
    """Node sums of H = G^t log^j G and of H'' for each j in the sorted orders, from one node pass.

    Per chunk, the H sum of order j is fsum(G^t L^j).  The H'' sums combine
    the moment sums M_a(p) = fsum(a L^p) and M_b(p) = fsum(b L^p) of the power
    row's two j-free columns (see PowerRow), taken once per chunk for each
    log power p that some order needs, so consecutive orders share them:

        H''_j = t M_a(j) + t(t-1) M_b(j) + j M_a(j-1) + j(2t-1) M_b(j-1) + j(j-1) M_b(j-2),

    leaving out the terms whose factor of j vanishes.
    """
    a_powers = sorted({p for j in orders for p in range(max(j - 1, 0), j + 1)})
    b_powers = sorted({p for j in orders for p in range(max(j - 2, 0), j + 1)})
    c2, c1 = t * (t - 1.0), 2.0 * t - 1.0
    parts = {j: [] for j in orders}
    for nodes in _node_table(trig, n_steps):
        row = power_row(nodes, t)
        try:
            logs = {p: nodes.log_power(p) for p in b_powers}
        except OverflowError:  # at a node with |log G| > 1, so the largest order overflows as well
            raise ValueError(f"log order {orders[-1]} is too large to evaluate: a power of log G overflows a float") from None
        j = orders[-1]  # named if a moment sum fails
        try:
            m_a = {p: fsum(map(mul, row.a, logs[p])) for p in a_powers}
            m_b = {p: fsum(map(mul, row.b, logs[p])) for p in b_powers}
            for j in orders:
                moments = [t * m_a[j], c2 * m_b[j]]
                if j >= 1:
                    moments += [j * m_a[j - 1], j * c1 * m_b[j - 1]]
                if j >= 2:
                    moments.append(j * (j - 1) * m_b[j - 2])
                parts[j].append((fsum(map(mul, row.gt, logs[j])), fsum(moments)))
        except (OverflowError, ValueError):  # fsum met a sum beyond the float range, or inf - inf
            raise ValueError(f"log order {j} at power t = {t!r} is too large to evaluate: its node sums overflow a float") from None
    sums = {j: _node_sums(p) for j, p in parts.items()}
    for j, node_sums in sums.items():
        if not all(map(math.isfinite, node_sums)):  # an H or H'' product overflowed to inf
            raise ValueError(f"log order {j} at power t = {t!r} is too large to evaluate: its node sums are not finite")
    return sums


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


def _integrate_orders(signs, t: float, n_steps: int, jobs) -> list[list[CertifiedValue]]:
    """Certified integrals of G^t log^j G over [0, 1/2]: per sign in signs, one per (j, mode) in jobs.

    The signs share the jobs' _h4_bounds and one refined_error_bounds pass.
    """
    h4_bounds = _h4_bounds(t, jobs)
    squares = [TrigSquare(5, sign) for sign in signs]
    orders = sorted({j for j, _ in jobs})
    sums = [_h_node_sums(trig, t, orders, n_steps) for trig in squares]
    refined = [terms for terms, (_, mode) in zip(h4_bounds, jobs) if mode == "refined"]
    refined_errors = refined_error_bounds(refined, [(trig, default_max_table(trig)) for trig in squares], n_steps)
    values = []
    for square_sums, errors in zip(sums, map(iter, refined_errors)):
        row = []
        for bound, (j, mode) in zip(h4_bounds, jobs):
            err = _plain_error(bound, n_steps) if mode == "plain" else next(errors)
            row.append(CertifiedValue(_estimate(*square_sums[j], n_steps), err, n_steps, mode))
        values.append(row)
    return values


def gap_derivatives(t: float, n_steps: int, jobs) -> list[CertifiedValue]:
    """Certified gap derivatives at t, one per (order, mode) in jobs.

    Differentiating the mean of G^t in t brings down log^order G, so the
    derivative of the gap is the difference of the two sign variants'
    integrals of H = G^t log^order G over the half period (both variants are
    even, so the half-period integral is half the mean).  The estimate is
    minus-variant minus plus-variant; error bounds add.
    """
    minus, plus = _integrate_orders((SignVariant.MINUS, SignVariant.PLUS), t, n_steps, jobs)
    return [
        CertifiedValue(m.estimate - p.estimate, m.error_bound + p.error_bound, n_steps, mode)
        for m, p, (_, mode) in zip(minus, plus, jobs)
    ]


def gap_derivative(order: int, t: float, n_steps: int, mode: str = "refined") -> CertifiedValue:
    """Certified value of the order-th derivative of the gap at t (see gap_derivatives)."""
    return gap_derivatives(t, n_steps, [(order, mode)])[0]
