"""Midpoint quadrature with certified error bounds from Fourier decay.

The composite midpoint rule on [0, 1/2],

    sum_n  f(x_n) / (2N),   x_n = (2n-1)/(4N),

is, for an even 1-periodic f, half of the 2N-node midpoint rule over a whole
period.  By Poisson summation that rule errs by the sum over m != 0 of
(-1)^m times the Fourier coefficient of f at 2Nm, and each such coefficient is
at most ||f''''||_1 / (4 pi N m)^4, with the L^1 norm over one period.  So
the half-period rule errs by at most ||f''''||_1 zeta(4) / (4 pi N)^4, that
is ||f''''||_1 / (23040 N^4) (Trefethen and Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 56, 2014).  Two interchangeable
bounds for ||H''''||_1 are provided.  The plain one is the sup bound
h4_sup_bound, the period having length 1.  The refined one integrates each
term of h4_term_bounds over the period, splitting the range of G at 1/9:

  * below 1/9 a term is at most envelope_max(t, j, 0, 1/9), on a set of
    measure at most 1; with a |G'| factor it integrates to at most that
    maximum times 14/9, because G has 14 monotone pieces per period and each
    crosses [0, 1/9] once;
  * above 1/9, |log G| <= log 9, the integral of G^t is at most
    torus_integral_upper(t), and the integral of G^t |G'| is exactly
    Var(G^(t+1)) / (t+1), bounded by variation_bound_power.

The node layer lives here too.  Integrands H = G^t log^j G of one t and step
count differ only in j, so they share one power row G^t (power_row) per node
chunk.  Under it, the node table holds NodeColumns per chunk and sign: G, log
G and the powers (log G)^p once asked for, free of t and j, both signs from one
cosine pass, for the latest step count only.  The |H''''| bounds depend on t
and j alone, so both signs share them and one term_integrals pass.  The q pass
q_values gives the node-sum bounds of the Q tables, each ingredient once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from operator import mul
from typing import NamedTuple

from .envelope import envelope_max
from .integrand import WORK_M, BoundTerm, IntegrandSpec, h4_sup_bound, h4_term_bounds
from .spectral import torus_integral_upper
from .trigpoly import G_MAX, MAX_STEPS, LocalMaxTable, SignVariant, TrigSquare, default_max_table
from .trigpoly import eval_G_pair, second_deriv_L2, variation_bound_power

MODES = ("plain", "refined")
_CHUNK = 256
_ERR_DENOM = 23040.0  # (4 pi)^4 / zeta(4) = 256 * 90, exact

# Working constants of the node-sum bounds of q_values: half the working sup
# bound of G' (88, exact) and half a rounded upper bound for the L^2 norm of G''.
_HALF_SUP_G1 = WORK_M[1] / 2
_HALF_L2_G2 = 1700.0
if 2.0 * _HALF_L2_G2 < second_deriv_L2():
    raise RuntimeError("_HALF_L2_G2 is below half the bound it stands for")

LOG9 = math.log(G_MAX)
_NODE_TABLE: dict[int, dict[SignVariant, tuple[NodeColumns, ...]]] = {}  # see _node_table


@dataclass(frozen=True)
class CertifiedValue:
    """A numeric estimate together with a proven absolute error bound."""

    estimate: float
    error_bound: float
    steps: int
    method: str


def _check_steps(n_steps: int) -> None:
    """The one step-count rule of the node pass and both bound passes: an int in 1..MAX_STEPS."""
    if type(n_steps) is not int or not 1 <= n_steps <= MAX_STEPS:  # refuses True (== 1) and 100.0 too
        raise ValueError(f"step count must be an integer in 1..{MAX_STEPS}, got {n_steps!r}")


def _plain_error(sup4: float, n_steps: int) -> float:
    return sup4 / (_ERR_DENOM * float(n_steps) ** 4)


def _sign_free_part(t: float, j: int, weight: float) -> tuple[float, float]:
    """What a bound of one (t, j) key takes from no sign: envelope_max(t, j, 0, 1/9) * weight and log(9)^j.

    The small-range part is 0 when j = 0, where no log factor needs the split.
    """
    if not t >= 1.0:  # the argument checks are phrased "not <valid>" so that a NaN fails them
        raise ValueError(f"power must be >= 1, got {t}")
    if not j >= 0:
        raise ValueError(f"log exponent must be nonnegative, got {j}")
    small = 0.0
    if j != 0:
        small = envelope_max(t, j, 0.0, 1.0 / G_MAX) * weight
    try:
        return small, LOG9**j
    except OverflowError:  # log(9)^j beyond the float range: infinite, still an upper bound
        return small, math.inf


def q_values(keys, squares: list[tuple[TrigSquare, LocalMaxTable]], n_steps: int) -> list[dict]:
    """The q pass: bounds for the N-node midpoint sum of G^t |log G|^j, times |G'| if has_gprime, per key and square.

    squares holds (square, maxima table) pairs, and one {(has_gprime, t, j):
    bound} dict is returned per square.  Each bound splits the range of G at
    1/9 and is small + log(9)^j * base:

      * without |G'|, small values are covered by the envelope maximum on
        [0, 1/9] at every node, large values by log(9)^j times the node sum
        of G^t, which a midpoint sum bounds through the exact mean and half
        the total variation of G^t;
      * with |G'|, the factor is absorbed two ways: on the small range it
        costs a node-count term plus a boundary term; on the large range,
        node sums of G^t |G'| telescope into the variation of G^(t+1)/(t+1)
        plus correction terms controlled by the variation of G^t and the L^2
        norm of G''.

    Each ingredient is computed once, at the granularity it depends on: the
    small-range envelope term and log(9)^j once per key,
    torus_integral_upper once per power, variation_bound_power once per
    (square, power), and the j-free base of each (has_gprime, t) once per
    square.
    """
    _check_steps(n_steps)
    star_weight = 14.0 * n_steps / G_MAX + _HALF_L2_G2
    sign_free = {(star, t, j): _sign_free_part(t, j, star_weight if star else n_steps) for star, t, j in dict.fromkeys(keys)}
    kinds = dict.fromkeys(key[:2] for key in sign_free)  # the (has_gprime, t) of each j-free base
    means = {p: torus_integral_upper(p) for p in {2.0 * t if star else t for star, t in kinds}}
    powers = {p for star, t in kinds for p in ((t + 1.0, t) if star else (t,))}
    per_square = []
    for spec, table in squares:
        variation = {p: variation_bound_power(spec, p, table) for p in powers}
        bases = {}
        for star, t in kinds:
            if star:
                tail = _HALF_L2_G2 * math.sqrt(means[2.0 * t])
                bases[star, t] = n_steps / (t + 1.0) * variation[t + 1.0] + _HALF_SUP_G1 * variation[t] + tail
            else:  # N times the mean of G^t plus half its variation
                bases[star, t] = n_steps * means[t] + 0.5 * variation[t]
        per_square.append({key: small + log9_power * bases[key[:2]] for key, (small, log9_power) in sign_free.items()})
    return per_square


def term_integrals(keys, squares: list[tuple[TrigSquare, LocalMaxTable]]) -> list[dict]:
    """Bounds for the integral over one period of G^t |log G|^j, times |G'| if has_gprime, per key and square.

    One {(has_gprime, t, j): bound} dict is returned per (square, maxima
    table) in squares.  Each bound is small + log(9)^j * base, split at G = 1/9
    as the module docstring derives: small is envelope_max(t, j, 0, 1/9),
    times 14/9 with |G'|, and base is the mean bound torus_integral_upper(t),
    or with |G'| the variation bound of G^(t+1) over t+1.  The sign-free parts
    are computed once per key, the means once per power, the variations once
    per (square, power).
    """
    sign_free = {(star, t, j): _sign_free_part(t, j, 14.0 / G_MAX if star else 1.0) for star, t, j in dict.fromkeys(keys)}
    kinds = dict.fromkeys(key[:2] for key in sign_free)  # the (has_gprime, t) of each j-free base
    means = {t: torus_integral_upper(t) for star, t in kinds if not star}
    per_square = []
    for spec, table in squares:
        bases = {
            (star, t): variation_bound_power(spec, t + 1.0, table) / (t + 1.0) if star else means[t]
            for star, t in kinds
        }
        per_square.append({key: small + log9_power * bases[key[:2]] for key, (small, log9_power) in sign_free.items()})
    return per_square


def refined_error_bounds(
    term_lists: list[tuple[BoundTerm, ...]], squares: list[tuple[TrigSquare, LocalMaxTable]], n_steps: int
) -> list[list[float]]:
    """Error bounds from term-form |H''''| bounds: the terms' integrals, summed, over 23040 N^4.

    The sum bounds ||H''''||_1 term by term through term_integrals.  Term
    lists are sign-free, so one term_integrals pass over the batch's
    (has_gprime, t_r, j_r) keys serves every (square, maxima table) in
    squares, and one list of bounds is returned per square.
    """
    _check_steps(n_steps)
    keys = ((term.has_gprime, term.t_r, term.j_r) for terms in term_lists for term in terms)
    scale = _ERR_DENOM * float(n_steps) ** 4
    per_square = []
    for integrals in term_integrals(keys, squares):
        bounds = []
        for terms in term_lists:
            try:
                bounds.append(fsum(term.coefficient * integrals[term.has_gprime, term.t_r, term.j_r] for term in terms) / scale)
            except OverflowError:  # a sum beyond the float range: infinite, still an upper bound
                bounds.append(math.inf)
        per_square.append(bounds)
    return per_square


def refined_error_bound(terms: tuple[BoundTerm, ...], spec: TrigSquare, n_steps: int, table: LocalMaxTable) -> float:
    """refined_error_bounds of one |H''''| term list on one square; it stays because bench/workloads.py calls it."""
    return refined_error_bounds([terms], [(spec, table)], n_steps)[0][0]


def _node_chunks(n_steps: int):
    """The midpoint nodes x_n = (2n-1)/(4N), n = 1..N, in fixed chunks of _CHUNK."""
    _check_steps(n_steps)
    denom = 4.0 * n_steps
    return (
        [(2 * n - 1) / denom for n in range(lo, min(lo + _CHUNK, n_steps + 1))]
        for lo in range(1, n_steps + 1, _CHUNK)
    )


class NodeColumns(NamedTuple):
    """G and log G over one chunk of nodes: everything about them that is free of t and j.

    ``logs`` holds the powers (log G)^p already asked for, by p; they are free
    of t too, so they are kept with the columns and share their lifetime.
    """

    g: list[float]
    ell: tuple[float, ...]
    logs: dict[int, list[float]]

    def log_power(self, p: int) -> list[float]:
        """(log G)^p at the nodes, computed on first request.  May raise OverflowError."""
        column = self.logs.get(p)
        if column is None:
            column = self.logs[p] = [v**p for v in self.ell]
        return column


def _node_table(n_steps: int) -> dict[SignVariant, tuple[NodeColumns, ...]]:
    """G and log G for each chunk of _CHUNK midpoint nodes, by sign, from one eval_G_pair pass per chunk.

    Free of t and j, so every batch at this step count shares it, and so do the
    log powers each chunk keeps once asked for.  Only the latest step count's
    table is held (a proof uses one), and it is dropped before another is built.
    Both signs' columns of a chunk are built before the next chunk's cosines,
    which measured a lower peak RSS than evaluating every chunk first.
    """
    _check_steps(n_steps)  # before the lookup, where 100.0 and True would find the table of 100 or of 1
    if n_steps not in _NODE_TABLE:
        _NODE_TABLE.clear()
        chunks = [tuple(NodeColumns(g, tuple(map(math.log, g)), {}) for g in eval_G_pair(xs)) for xs in _node_chunks(n_steps)]
        _NODE_TABLE[n_steps] = dict(zip((SignVariant.MINUS, SignVariant.PLUS), zip(*chunks)))  # (minus, plus) per chunk
    return _NODE_TABLE[n_steps]


def power_row(nodes: NodeColumns, t: float) -> list[float]:
    """G^t at the nodes: the one factor of H = G^t log^j G that depends on t but not on j.

    g**t raises OverflowError rather than return inf, so an entry beyond the
    float range is refused here, naming t; a row whose sum overflows is
    refused by _h_node_sums.
    """
    try:
        return [g**t for g in nodes.g]
    except OverflowError:
        raise ValueError(f"power t = {t!r} is too large to evaluate: G^t at the nodes overflows a float") from None


def _h_node_sums(trig: TrigSquare, t: float, orders, n_steps: int) -> dict[int, float]:
    """Node sums of H = G^t log^j G for each j in orders, from one node pass.

    Per chunk, the sum of order j is fsum(G^t L^j) with L = log G, exactly
    rounded; one more fsum adds the chunk sums in node order.  So a total
    carries up to ceil(N/256) + 1 roundings, where one fsum over all nodes
    would carry one: in the default proof 16 of the 76 per-sign sums are 1 ulp
    from the exact sum of the rounded products, which a single fsum hits in
    all 16.  The chunks stay because they are mostly faster (per sum, 54-60
    against 58-64 us at N = 640, 154-211 against 190-267 us at N = 3000;
    CPython 3.11, 2-CPU x86-64) and because the report's estimates, the
    T1-T6 tables and the frozen test values are taken from them.
    """

    def node_sum(j, terms):
        try:
            total = fsum(terms)
        except (OverflowError, ValueError):  # fsum met a sum beyond the float range, or inf - inf
            total = math.nan
        if not math.isfinite(total):  # nan from above, or inf from an H product that overflowed
            raise ValueError(f"log order {j} at power t = {t!r} is too large to evaluate: its node sum overflows a float")
        return total

    parts = {j: [] for j in orders}
    for nodes in _node_table(n_steps)[trig.sign]:
        gt = power_row(nodes, t)
        for j in orders:
            try:
                logs = nodes.log_power(j)
            except OverflowError:  # at a node with |log G| > 1
                raise ValueError(f"log order {j} is too large to evaluate: a power of log G overflows a float") from None
            parts[j].append(node_sum(j, map(mul, gt, logs)))
    return {j: node_sum(j, p) for j, p in parts.items()}


def _integrate_orders(signs, t: float, n_steps: int, jobs) -> list[list[CertifiedValue]]:
    """Certified integrals of G^t log^j G over [0, 1/2]: per sign in signs, one per (j, mode) in jobs.

    The |H''''| bound of each job, h4_sup_bound if plain and h4_term_bounds if
    refined, depends on t and j alone, so the signs share it and one
    refined_error_bounds pass.
    """
    for _, mode in jobs:  # before any node work
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    h4_bounds = [(h4_term_bounds if mode == "refined" else h4_sup_bound)(IntegrandSpec(t, j, SignVariant.PLUS)) for j, mode in jobs]
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
            row.append(CertifiedValue(square_sums[j] / (2.0 * n_steps), err, n_steps, mode))
        values.append(row)
    return values


def gap_derivatives(t: float, n_steps: int, jobs) -> list[CertifiedValue]:
    """Certified gap derivatives at t, one per (order, mode) in jobs; no jobs give no values.

    Differentiating the mean of G^t in t brings down log^order G, so the
    derivative of the gap is the difference of the two sign variants'
    integrals of H = G^t log^order G over the half period (both variants are
    even, so the half-period integral is half the mean).  The estimate is
    minus-variant minus plus-variant; error bounds add.
    """
    if not jobs:
        return []
    minus, plus = _integrate_orders((SignVariant.MINUS, SignVariant.PLUS), t, n_steps, jobs)
    return [
        CertifiedValue(m.estimate - p.estimate, m.error_bound + p.error_bound, n_steps, mode)
        for m, p, (_, mode) in zip(minus, plus, jobs)
    ]


def gap_derivative(order: int, t: float, n_steps: int, mode: str = "refined") -> CertifiedValue:
    """Certified value of the order-th derivative of the gap at t (see gap_derivatives)."""
    return gap_derivatives(t, n_steps, [(order, mode)])[0]
