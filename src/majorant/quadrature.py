"""Midpoint quadrature with certified error bounds from Fourier decay.

The composite midpoint rule on [0, 1/2],

    sum_n  f(x_n) / (2N),   x_n = (2n-1)/(4N),

is, for an even 1-periodic f, half of the 2N-node midpoint rule over a whole
period.  By Poisson summation that rule errs by the sum over m != 0 of
(-1)^m times the Fourier coefficient of f at 2Nm, and each such coefficient is
at most ||f''''||_1 / (4 pi N m)^4, with the L^1 norm over one period.  So
the half-period rule errs by at most ||f''''||_1 zeta(4) / (4 pi N)^4, that
is ||f''''||_1 / (23040 N^4) (Trefethen and Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 56, 2014).  Both bounds for
||H''''||_1 bound each (coefficient, group, p) term of h4_bounds: the plain
one by its sup over a period of length 1, envelope_max of G^t_r |log G|^p on
[0, 9], times WORK_M[1] with |G'|; the refined one by its integral over the
period, splitting the range of G at 1/9:

  * below 1/9 a term is at most its envelope_max on [0, 1/9], on a set of
    measure at most 1; with a |G'| factor it integrates to at most that
    maximum times 14/9, because G has 14 monotone pieces per period and each
    crosses [0, 1/9] once;
  * above 1/9, |log G| <= log 9, the integral of G^t is at most
    torus_integral_upper(t), and the integral of G^t |G'| is exactly
    Var(G^(t+1)) / (t+1), bounded by variation_bound_power.

The node layer lives here too: per sign, one row G^t over all N nodes serves
every j (_h_node_sums), on a node table of G and the powers (log G)^p, p = 1
built with it, both signs from one cosine pass (see _node_table).  gap_derivatives
assembles each certified gap value from both signs' node sums, in one mode
per batch, from one h4_bounds call and a cell table, the bound of
each of the five groups at each log order p the batch's terms use: one per
sign, refined, or one for both, plain.  Each error bound is one fsum over its
terms' cells (_error_bounds), the one bound driver, which refined_error_bound
calls too.  A cell table takes its maxima from one envelope_max call: on
[0, 9] (_sup_cells), or its small-range terms on [0, 1/9] (_cells), as the q
pass of majorant.tables does; only the variation bounds depend on the sign.
The latest 8 whole batches are memoized (_gap_batch): a repeated
(t, N, mode, orders), as in every proof after the first, takes no pass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from math import fsum
from operator import add, mul

from .envelope import envelope_max
from .integrand import WORK_M, h4_bounds, term_kinds
from .spectral import torus_integral_upper
from .trigpoly import G_MAX, MAX_STEPS, MAX_TABLES, MONOTONE_PIECES, SIGN_PAIR, TrigSquare
from .trigpoly import check_int, eval_G_pair, overflow_to_inf, variation_bound_power

MODES = ("plain", "refined")
_ERR_DENOM = 23040.0  # (4 pi)^4 / zeta(4) = 256 * 90, exact

LOG9 = math.log(G_MAX)
_SMALL_END = 1.0 / G_MAX  # where the bounds split the range of G
_NODE_TABLE: dict[int, dict[str, tuple[list[float], dict[int, list[float]]]]] = {}  # see _node_table


class CertifiedValue(namedtuple("CertifiedValue", "estimate error_bound steps method")):
    """A numeric estimate together with a proven absolute error bound."""

    __slots__ = ()


def _check_steps(n_steps: int) -> None:
    """The one step-count rule of the node pass and both bound passes: an int in 1..MAX_STEPS."""
    check_int("step count", n_steps, 1, MAX_STEPS)


_INTEGRAL_WEIGHTS = (1.0, MONOTONE_PIECES / G_MAX)  # the small-range weights of an integral over one period: 1, or 14/9 with |G'|


def _cells(kinds, orders, weights, table_bases) -> list[dict[int, list[float]]]:
    """{p: [small * weights[has_gprime] + log(9)^p * base of each (has_gprime, t) in kinds]} per list of bases, for each p in orders.

    small is envelope_max on [0, 1/9], one call over the nonzero orders with
    an entry per distinct power, and 0 at p = 0: the one small-range term of both
    bound passes, the refined one (weights _INTEGRAL_WEIGHTS) and the q pass
    of majorant.tables.  The arguments are checked, and log(9)^p taken once
    per order, before table_bases yields each table's bases, in kind order.
    """
    powers, slots, kind_weights = {}, [], []  # powers: {t: its entry in the envelope rows}
    for star, t in kinds:
        if not t >= 1.0:  # the argument checks are phrased "not <valid>" so that a NaN fails them
            raise ValueError(f"power must be >= 1, got {t}")
        slots.append(powers.setdefault(t, len(powers)))
        kind_weights.append(weights[star])
    for p in orders:
        check_int("log exponent p", p, 0)
    smalls = envelope_max(powers, [p for p in orders if p != 0], _SMALL_END)
    smalls[0] = [0.0] * len(powers)
    rows = [(p, overflow_to_inf(pow, LOG9, p), smalls[p]) for p in orders]
    return [
        {p: [row[s] * w + log9_power * base for s, w, base in zip(slots, kind_weights, bases)] for p, log9_power, row in rows}
        for bases in table_bases
    ]


def _integral_bases(kinds, tables):
    """Per maxima table (a sign's tuple of LocalMaxEntry) in tables, the large-range base of each (has_gprime, t) in kinds, lazily.

    The mean bound torus_integral_upper(t), once per kind, or with |G'| the
    variation bound of G^(t+1) over t+1, once per (table, kind): with the
    small-range term of _cells, the integral over one period of G^t |log G|^p,
    times |G'| if has_gprime, split at G = 1/9 as the module docstring derives.
    """
    means = [None if star else torus_integral_upper(t) for star, t in kinds]
    for table in tables:
        yield [variation_bound_power(table, t + 1.0) / (t + 1.0) if star else mean for (star, t), mean in zip(kinds, means)]


def _sup_cells(kinds, orders) -> dict[int, list[float]]:
    """{p: [max of G^t |log G|^p on [0, 9], times WORK_M[1] if has_gprime, of each (has_gprime, t) in kinds]}: sign-free sup cells.

    One envelope_max call over the orders, with an entry per distinct power.
    """
    powers = {}  # {t: its entry in the envelope rows}
    slots = [(powers.setdefault(t, len(powers)), WORK_M[1] if star else 1.0) for star, t in kinds]
    return {p: [row[s] * w for s, w in slots] for p, row in envelope_max(powers, orders, G_MAX).items()}


def _error_bounds(term_lists, cell_tables, n_steps: int) -> list[list[float]]:
    """Per cell table, the error bound of each list of (coefficient, kind index, p) terms: fsum of c * cell, over 23040 N^4.

    A cell table, {p: [cell of each kind]}, is from _cells or _sup_cells.
    fsum is exactly rounded, so the order of the terms does not matter.
    """
    _check_steps(n_steps)
    scale = _ERR_DENOM * float(n_steps) ** 4
    return [[overflow_to_inf(fsum, [c * cells[p][kind] for c, kind, p in terms]) / scale for terms in term_lists] for cells in cell_tables]


def refined_error_bound(term_sum, spec: TrigSquare, n_steps: int, table) -> float:
    """The error bound of one h4_term_bounds (kinds, terms) pair for spec's sign, as gap_derivatives sums it; bench/workloads.py calls it.

    Any table but spec's sign's certified maxima, MAX_TABLES[spec.sign], is refused: the other sign's, or an altered copy.
    """
    if table != MAX_TABLES[spec.sign]:
        raise ValueError(f"local-maximum table is not the certified table of the {spec.sign} sign")
    kinds, terms = term_sum
    cells = _cells(kinds, {p for _, _, p in terms}, _INTEGRAL_WEIGHTS, _integral_bases(kinds, [table]))
    return _error_bounds([terms], cells, n_steps)[0][0]


def _nodes(n_steps: int):
    """The midpoint nodes x_n = (2n-1)/(4N), n = 1..N, lazily, after the step-count check."""
    _check_steps(n_steps)
    denom = 4.0 * n_steps
    return (k / denom for k in range(1, 2 * n_steps, 2))  # k = 2n - 1


def _node_table(n_steps: int) -> dict[str, tuple[list[float], dict[int, list[float]]]]:
    """{sign: (G, {p: (log G)^p})} at the N midpoint nodes, from one eval_G_pair pass, with p = 1 only until others are asked for.

    Free of t and j, so every batch at this step count shares it, and so do the
    log powers it keeps once asked for.  Only the latest step count's table is
    held (a proof uses one), in a one-entry slot cleared before another is
    built, so one table is alive at a time (an lru_cache(maxsize=1) would
    keep the old one until the new one is returned).  Each
    sign's G is ordered G >= 1 descending, then G < 1 ascending, before log G.
    fsum is exactly rounded in any order, but each term walks its whole list
    of partials, so the order sets the cost.  The G < 1 products G^t (log G)^j
    fall through many binades toward G = 0: taken falling, each lands below
    the partials kept so far and lengthens the list; taken rising, they merge
    as they grow.  (At N = 640, t = 5.86, j = 9, the list averages 5 partials
    over the last quarter of the nodes, against 17 with all of G descending;
    over the default proof's 76 node sums fsum takes about a quarter less time.)
    """
    _check_steps(n_steps)  # before the lookup, where 100.0 and True would find the table of 100 or of 1
    if n_steps not in _NODE_TABLE:
        _NODE_TABLE.clear()
        columns = {}
        for sign, g in zip(SIGN_PAIR, eval_G_pair(_nodes(n_steps))):
            g.sort()
            split = bisect_left(g, 1.0)
            g = g[split:][::-1] + g[:split]
            columns[sign] = g, {1: list(map(math.log, g))}
        _NODE_TABLE[n_steps] = columns
    return _NODE_TABLE[n_steps]


def _h_node_sums(columns, t: float, orders) -> dict[int, float]:
    """Node sums of H = G^t log^j G of one sign for each j in orders, from one row G^t over its node-table columns (G, {p: L^p}).

    The sum of order j is one fsum(G^t L^j), L = log G, G^t alone at j = 0: the
    exactly rounded sum of the rounded products, L^j kept once asked for.
    An entry G^t or L^j, or a node sum, past the float range is refused, naming t or j.
    """
    g, logs = columns
    try:
        gt = [v**t for v in g]
    except OverflowError:
        raise ValueError(f"power t = {t!r} is too large to evaluate: G^t at the nodes overflows a float") from None
    sums = {}
    for j in orders:
        log_power = logs.get(j)
        if log_power is None and j:
            try:
                log_power = logs[j] = [v**j for v in logs[1]]
            except OverflowError:  # at a node with |log G| > 1
                raise ValueError(f"log order {j} is too large to evaluate: a power of log G overflows a float") from None
        try:
            total = fsum(map(mul, gt, log_power) if j else gt)
        except (OverflowError, ValueError):  # fsum met a sum beyond the float range, or inf - inf
            total = math.nan
        if not math.isfinite(total):  # nan from above, or inf from an H product that overflowed
            raise ValueError(f"log order {j} at power t = {t!r} is too large to evaluate: its node sum overflows a float")
        sums[j] = total
    return sums


def gap_derivatives(t: float, n_steps: int, orders, mode: str) -> list[CertifiedValue]:
    """Certified gap derivatives at t, one per order in orders, all in one mode; no orders give no values.

    Differentiating the mean of G^t in t brings down log^order G, so the
    derivative of the gap is the difference of the two sign variants'
    integrals of H = G^t log^order G over the half period (both variants are
    even, so the half-period integral is half the mean).  The estimate is the
    minus variant's node sum over 2N less the plus variant's; the error bound
    adds the two variants' bounds (see _gap_batch).

    The mode and the step count are checked first, with no orders too.  Only
    then is the memo taken, keyed by the type of t and of each order as well,
    so 5, True and 1.0, equal to memoized keys, meet the passes' checks.  A
    refused batch is not memoized.  The list is the caller's own.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _check_steps(n_steps)
    orders = tuple(orders)
    if not orders:
        return []
    return list(_gap_batch(t, n_steps, mode, *orders))


@lru_cache(maxsize=8, typed=True)  # the default proof takes 5 batches; typed keys the type of every argument, each order included
def _gap_batch(t: float, n_steps: int, mode: str, *orders: int) -> tuple[CertifiedValue, ...]:
    """The certified gap value at t of each order in orders, in one checked mode: a pure function of its arguments.

    One h4_bounds call serves both signs, and before any node work so do the
    plain cells, summed once, or one refined cell table per sign, each over
    the five groups at the terms' log orders.
    """
    bounds, kinds = h4_bounds(t, orders), term_kinds(t)
    log_orders = {p for terms in bounds for _, _, p in terms}
    if mode == "refined":  # one cell table per sign's maxima table
        errors = map(add, *_error_bounds(bounds, _cells(kinds, log_orders, _INTEGRAL_WEIGHTS, _integral_bases(kinds, MAX_TABLES.values())), n_steps))
    else:  # the sup cells hold for both signs
        errors = [e + e for e in _error_bounds(bounds, [_sup_cells(kinds, log_orders)], n_steps)[0]]
    table = _node_table(n_steps)
    minus, plus = [_h_node_sums(table[sign], t, sorted(set(orders))) for sign in SIGN_PAIR]
    two_n = 2.0 * n_steps
    return tuple(CertifiedValue(minus[j] / two_n - plus[j] / two_n, error, n_steps, mode) for j, error in zip(orders, errors))


def gap_derivative(order: int, t: float, n_steps: int, mode: str = "refined") -> CertifiedValue:
    """Certified value of the order-th derivative of the gap at t (see gap_derivatives)."""
    return gap_derivatives(t, n_steps, [order], mode)[0]
