"""Pointwise reference values of G, its derivatives, H, H'' and the |H''''| term bound.

The package evaluates G only in node batches, both signs from one set of
cosines (``eval_G_pair``), and H only as node sums
(``quadrature._h_node_sums``).  This module writes each formula out again, one
point and one sign at a time and without those helpers.  G and H follow the
package's operation order (its c1 - c6 - c7 is c1 + s*c6 + s*c7 exactly for
s = -1), so a batch must match them to the last bit.  H''
here is the chain rule term by term; the package does not evaluate it, and
the tests use it to check the |H''''| bounds by finite differences.

It also keeps closed forms the package does not evaluate one at a time: the
exact half-period moments (``parseval_integral``), the six anchored bounds
for the mean of G^t (``torus_anchor_bounds``), the paper's fourth-root step
rule (``required_steps``), and the per-key bounds ``q_reference`` (a node
sum, behind the Q tables) and ``term_integral_reference`` (an integral over
the period, behind the refined error bound), which the package computes from
shared ingredients.  The |H''''| bounds of one (t, j) are written out from the
per-order brace formulas (``brace_terms_reference``), where the package takes
the polynomials in t once for all orders.  The maxima of v^s |log v|^m are
the scalar closed form, one (s, m) and one window [a, b] at a time
(``envelope_reference``), where the package takes every power and order of
[0, b] in one call; the |H''''| group constants are written out
(``REFINED_GROUPS``), and so are the four per-kind sums that plain bounds
were once taken over (``SCALAR_GROUPS``).

``taylor_row_reference`` evaluates a certificate polynomial's derivatives at
one point as the package did before its Taylor table, dividing by the
factorials again for every order.

``gap_reference`` is the truth the certified gap values are held against:
the package's midpoint rule again, in mpmath at 34 digits and with N = 1000.
``proof_gap_batches`` holds the default proof's gap values against it, and
``least_overstatement`` reads how far their error bounds overstate the error.
"""

import math
from fractions import Fraction
from math import cos, sin
from operator import mul, truediv
from unittest import mock

from majorant import certify, pipeline
from majorant.spectral import torus_integral_upper, torus_power_integral
from majorant.tables import _HALF_L2_G2, _HALF_SUP_G1
from majorant.trigpoly import F2, F3, TWO_PI, TrigSquare, variation_bound_power


# (constant, power offset, brace kind, |G'| factor) of the five fourth-derivative groups, from the working
# bounds 176, 6800, 280000 and 11600000 of sup|G^(m)|, m = 1..4: 176^3, 6*176*6800, 4*280000, 3*6800^2, 11600000.
REFINED_GROUPS = (
    (5451776.0, -4, "quartic", True),
    (7180800.0, -3, "cubic", True),
    (1120000.0, -2, "quadratic", True),
    (138720000.0, -2, "quadratic", False),
    (11600000.0, -1, "linear", False),
)
# The same with |G'| bounded by 176, one group per brace kind: 176^4, 6*176^2*6800, 4*176*280000 + 3*6800^2, 11600000.
# The package no longer sums a plain bound over these; a test holds its per-term sums within 2 ulps of theirs.
SCALAR_GROUPS = (
    (959512576.0, -4, "quartic"),
    (1263820800.0, -3, "cubic"),
    (335840000.0, -2, "quadratic"),
    (11600000.0, -1, "linear"),
)


def envelope_reference(s, m, a, b):
    """Maximum of v^s |log v|^m over [a, b], 0 <= a < b <= 9, s > 0 (s >= 0 at m = 0): the scalar closed form.

    b^s at m = 0; else the largest of the values at b and at a > 0 and, when
    a < exp(-m/s) < min(b, 1), the peak (m/(e s))^m; inf past the float range.
    At a = 0 the peak counts whenever exp(-m/s) < min(b, 1), also where it
    underflows to 0: the true exp(-m/s) is above 0.  A value whose factor v^s
    or |log v|^m leaves the float range is taken in log space, so that a
    finite value, and the peak beside it, still count.
    """

    def alpha(v):
        try:
            return v**s * abs(math.log(v)) ** m
        except OverflowError:
            try:
                return math.exp(s * math.log(v) + m * math.log(abs(math.log(v))))
            except OverflowError:
                return math.inf

    try:
        if m == 0:
            return b**s
        candidates = [alpha(b)]
        if a > 0.0:
            candidates.append(alpha(a))
        if (a == 0.0 or a < math.exp(-m / s)) and math.exp(-m / s) < min(b, 1.0):
            candidates.append((m / (math.e * s)) ** m)
        return max(candidates)
    except OverflowError:
        return math.inf


def sign_factor(sign):
    """The s of G as a float: 1.0 for the plus square, -1.0 for the minus square."""
    return 1.0 if sign == "plus" else -1.0


def eval_G(spec, x):
    """Value of G at x."""
    s = sign_factor(spec.sign)
    return 3.0 + 2.0 * (cos(TWO_PI * x) + s * cos(TWO_PI * F2 * x) + s * cos(TWO_PI * F3 * x))


def eval_G_derivative(spec, m, x):
    """G^(m)(x) = 2 (-1)^ceil(m/2) (2 pi)^m (trig(2 pi x) + s 6^m trig(12 pi x) + s 7^m trig(14 pi x)).

    Here m >= 1, and trig = sin for odd m and cos for even m.
    """
    if m < 1:
        raise ValueError(f"derivative order must be >= 1, got {m}")
    s = sign_factor(spec.sign)
    sgn = -1.0 if ((m + 1) // 2) % 2 else 1.0
    trig = sin if m % 2 else cos
    inner = trig(TWO_PI * x) + s * float(F2) ** m * trig(TWO_PI * F2 * x)
    inner += s * float(F3) ** m * trig(TWO_PI * F3 * x)
    return 2.0 * sgn * TWO_PI**m * inner


def eval_H(spec, x):
    """H = G^t log^j G at x for an IntegrandSpec (G > 0, so log G is finite)."""
    g = eval_G(TrigSquare(5, spec.sign), x)
    return g**spec.t * math.log(g) ** spec.j


def eval_H_second(spec, x):
    """H'' at x by the chain rule, term for term: with L = log G,

        H'' = G'' G^(t-1) (t L^j + j L^(j-1))
            + G'^2 G^(t-2) (t(t-1) L^j + j(2t-1) L^(j-1) + j(j-1) L^(j-2)),

    where terms with a vanishing falling factorial of j are absent rather than
    evaluated.
    """
    t, j, trig = spec.t, spec.j, TrigSquare(5, spec.sign)
    g = eval_G(trig, x)
    ell = math.log(g)
    a = eval_G_derivative(trig, 2, x) * g ** (t - 1.0)
    gp = eval_G_derivative(trig, 1, x)
    b = gp * gp * g ** (t - 2.0)
    p = ell**j
    c2 = t * (t - 1.0)
    if j == 0:
        return a * (t * p) + b * (c2 * p)
    q = ell ** (j - 1)
    c1 = j * (2.0 * t - 1.0)
    if j == 1:
        return a * (t * p + j * q) + b * (c2 * p + c1 * q)
    r = ell ** (j - 2)
    return a * (t * p + j * q) + b * (c2 * p + c1 * q + j * (j - 1) * r)


def gap_reference(t, orders, n_steps=1000, digits=34):
    """The gap derivatives of the given orders at the float t by the midpoint rule in mpmath: {order: mpf}.

    One pass per sign over the nodes (2k - 1)/(4N) sums G^t log^j G for every
    order; an order's value is the minus sum less the plus sum, over 2N, as
    gap_derivatives forms it.  H is analytic and periodic, so the rule
    converges exponentially: at N = 1000 and 34 digits it differs from the
    integral by far less than any certified bound of the package, and it stands
    for the truth.  mpmath is imported here, so this module loads without it.
    """
    import mpmath

    with mpmath.workdps(digits):
        power, sums = mpmath.mpf(t), {}
        for sign in ("minus", "plus"):
            s = sign_factor(sign)
            totals = dict.fromkeys(orders, mpmath.mpf(0))
            for k in range(1, n_steps + 1):
                x = mpmath.mpf(2 * k - 1) / (4 * n_steps)
                g = 3 + 2 * (mpmath.cospi(2 * x) + s * mpmath.cospi(12 * x) + s * mpmath.cospi(14 * x))
                g_t, ell = g**power, mpmath.log(g)
                for j in orders:
                    totals[j] += g_t * ell**j
            sums[sign] = totals
        return {j: (sums["minus"][j] - sums["plus"][j]) / (2 * n_steps) for j in orders}


def proof_gap_batches():
    """The default proof's gap_derivatives calls, each with its truth: [(t, N, orders, mode, values, {order: truth})].

    The calls are recorded while prove_k5 runs; the truth is gap_reference,
    one mpmath pass per (t, sign).
    """
    batches, real = [], pipeline.gap_derivatives

    def recording(t, n_steps, orders, mode):
        orders = list(orders)
        values = real(t, n_steps, orders, mode)
        batches.append((t, n_steps, orders, mode, values))
        return values

    with mock.patch.object(pipeline, "gap_derivatives", recording), mock.patch.object(certify, "gap_derivatives", recording):
        pipeline.prove_k5()
    return [(t, n, orders, mode, values, gap_reference(t, sorted(set(orders)))) for t, n, orders, mode, values in batches]


def least_overstatement(batches):
    """The least error_bound / |estimate - truth| over the gap values of proof_gap_batches, and the (t, order, mode) it comes from."""
    import mpmath

    return min(
        (value.error_bound / abs(mpmath.mpf(value.estimate) - truth[order]), (t, order, mode))
        for t, _, orders, mode, values, truth in batches
        for order, value in zip(orders, values)
    )


def term_sum_value(terms, trig, x):
    """Value at x of a term-form |H''''| bound as (coefficient, (has_gprime, t_r, p)) pairs on the square trig."""
    g = eval_G(trig, x)
    gp = abs(eval_G_derivative(trig, 1, x))
    ell = abs(math.log(g))
    return math.fsum(
        c * g**t_r * ell**j_r * (gp if has_gprime else 1.0)
        for c, (has_gprime, t_r, j_r) in terms
    )


def parseval_integral(rho):
    """Exact integral of G^rho over the half period [0, 1/2], as a fraction."""
    return Fraction(torus_power_integral(rho), 2)


TORUS_MOMENTS = (1, 3, 15, 93, 639, 4653, 35169)  # the mean of G^rho over one period, rho = 0..6 (Parseval)


def torus_anchor_bounds(t):
    """The six full-period bounds for the mean of G^t, one per exact moment A(rho), rho = 1..6.

    9^(t-rho) A(rho) for t >= rho, from G <= 9 pointwise (infinite beyond the
    float range), and A(rho)^(t/rho) below, by Jensen's inequality.
    """
    anchors = []
    for rho in range(1, 7):
        a = float(TORUS_MOMENTS[rho])
        if t < rho:
            anchors.append(a ** (t / rho))
            continue
        try:
            anchors.append(9.0 ** (t - rho) * a)
        except OverflowError:
            anchors.append(math.inf)
    return anchors


PAPER_ERR_DENOM = 60.0 * 2**10  # the paper's corrected midpoint rule errs by at most sup|f''''| / (61440 N^4)


def required_steps(sup4, delta, radius, j):
    """Steps the paper's rule needs for the plain error of coefficient j to fit its share of delta.

    Two quadratures (one per sign variant) each contribute
    sup4/(60*2^10*N^4), scaled by radius^j/j!; solving
    2 * sup4 * radius^j / (60*2^10*N^4*j!) <= delta for N and rounding up.
    """
    if sup4 < 0.0 or delta <= 0.0 or radius <= 0.0 or j < 0:
        raise ValueError("need sup4 >= 0, delta > 0, radius > 0, j >= 0")
    return math.ceil((2.0 * sup4 * radius**j / (PAPER_ERR_DENOM * math.factorial(j) * delta)) ** 0.25)


def _plain_base(t, n_steps, table):
    """The j-free large-range part of q_plain: N times the mean of G^t plus half its variation."""
    return n_steps * torus_integral_upper(t) + 0.5 * variation_bound_power(table, t)


def _star_base(t, n_steps, table):
    """The j-free large-range part of q_star: the telescoped sum of G^t |G'| and its corrections."""
    var_up = variation_bound_power(table, t + 1.0)
    var_t = variation_bound_power(table, t)
    tail = _HALF_L2_G2 * math.sqrt(torus_integral_upper(2.0 * t))
    return n_steps / (t + 1.0) * var_up + _HALF_SUP_G1 * var_t + tail


def q_reference(has_gprime, t, j, n_steps, table):
    """q_star (has_gprime) or q_plain of one key for table's sign, every ingredient computed afresh: small + log(9)^j * base."""
    small = 0.0
    if j != 0:
        weight = 14.0 * n_steps / 9.0 + _HALF_L2_G2 if has_gprime else n_steps
        small = envelope_reference(t, j, 0.0, 1.0 / 9.0) * weight
    try:
        log9_power = math.log(9.0) ** j
    except OverflowError:
        log9_power = math.inf
    return small + log9_power * (_star_base if has_gprime else _plain_base)(t, n_steps, table)


def term_integral_reference(has_gprime, t, j, table):
    """The integral bound of one key behind the refined error bound for table's sign, every ingredient computed afresh.

    small + log(9)^j * base: small is the envelope maximum on [0, 1/9], times
    14/9 with |G'|; base is the mean bound of G^t, or with |G'| the variation
    bound of G^(t+1) over t+1.
    """
    small = 0.0
    if j != 0:
        small = envelope_reference(t, j, 0.0, 1.0 / 9.0) * (14.0 / 9.0 if has_gprime else 1.0)
    try:
        log9_power = math.log(9.0) ** j
    except OverflowError:
        log9_power = math.inf
    if has_gprime:
        base = variation_bound_power(table, t + 1.0) / (t + 1.0)
    else:
        base = torus_integral_upper(t)
    return small + log9_power * base


def brace_terms_reference(kind, t, j):
    """(coefficient, log-power) pairs of one brace polynomial at (t, j), zero terms omitted, every expression written out."""
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
        raw = ((float(j * (j - 1)), j - 2), ((2.0 * t - 1.0) * j, j - 1), (t * (t - 1.0), j))
    else:  # linear
        raw = ((float(j), j - 1), (t, j))
    return [(c, p) for c, p in raw if p >= 0 and c != 0.0]


def h4_term_bounds_reference(t, j):
    """The term-form |H''''| bound of one (t, j): (const * |c|, (has_gprime, t + offset, p)) per group and brace term."""
    return tuple(
        (const * abs(c), (has_gprime, t + offset, p))
        for const, offset, kind, has_gprime in REFINED_GROUPS
        for c, p in brace_terms_reference(kind, t, j)
    )


def h4_sup_bound_reference(t, j):
    """The plain |H''''| bound of one (t, j): each term times its sup on [0, 9], the envelope maximum (times 176 with |G'|), summed."""
    pieces = [
        const * abs(c) * (envelope_reference(t + offset, p, 0.0, 9.0) * (176.0 if has_gprime else 1.0))
        for const, offset, kind, has_gprime in REFINED_GROUPS
        for c, p in brace_terms_reference(kind, t, j)
    ]
    try:
        return math.fsum(pieces)
    except OverflowError:
        return math.inf


def taylor_row_reference(cert, t):
    """P^(m)(t) for m = 0..degree, u = t - center: per order, one fsum of coeffs[j] / (j - m)! * u^(j - m), every coefficient divided again.

    This is the certificate evaluator before its Taylor table: the powers u^k once per point, each order's
    coefficients divided by the factorials as it is summed.  No window or coefficient-count check.
    """
    u, coeffs, n = t - cert.center, cert.coeffs, cert.degree + 1
    factorials = [float(math.factorial(k)) for k in range(n)]
    powers = [u**k for k in range(n)]
    return [math.fsum(map(mul, map(truediv, coeffs[m:n], factorials), powers)) for m in range(n)]


def refined_error_bound_reference(t, j, n_steps, table):
    """The refined error bound of one (t, j) for table's sign: each term's integral bound afresh, summed, over 23040 N^4."""
    try:
        total = math.fsum([c * term_integral_reference(has_gprime, t_r, j_r, table) for c, (has_gprime, t_r, j_r) in h4_term_bounds_reference(t, j)])
    except OverflowError:
        total = math.inf
    return total / (23040.0 * float(n_steps) ** 4)
