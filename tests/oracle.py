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
exact half-period moments (``parseval_integral``), the paper's fourth-root
step rule (``required_steps``), and the per-key bounds ``q_reference`` (a node
sum, behind the Q tables) and ``term_integral_reference`` (an integral over
the period, behind the refined error bound), which the package computes from
shared ingredients.
"""

import math
from fractions import Fraction
from math import cos, sin

from majorant.envelope import envelope_max
from majorant.quadrature import _HALF_L2_G2, _HALF_SUP_G1
from majorant.spectral import torus_integral_upper, torus_power_integral
from majorant.trigpoly import F2, F3, TWO_PI, TrigSquare, variation_bound_power


def eval_G(spec, x):
    """Value of G at x."""
    s = spec.sign.factor
    return 3.0 + 2.0 * (cos(TWO_PI * x) + s * cos(TWO_PI * F2 * x) + s * cos(TWO_PI * F3 * x))


def eval_G_derivative(spec, m, x):
    """G^(m)(x) = 2 (-1)^ceil(m/2) (2 pi)^m (trig(2 pi x) + s 6^m trig(12 pi x) + s 7^m trig(14 pi x)).

    Here m >= 1, and trig = sin for odd m and cos for even m.
    """
    if m < 1:
        raise ValueError(f"derivative order must be >= 1, got {m}")
    s = spec.sign.factor
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


def term_sum_value(terms, trig, x):
    """Value at x of a term-form |H''''| bound (``h4_term_bounds``) on the square trig."""
    g = eval_G(trig, x)
    gp = abs(eval_G_derivative(trig, 1, x))
    ell = abs(math.log(g))
    return math.fsum(
        term.coefficient * g**term.t_r * ell**term.j_r * (gp if term.has_gprime else 1.0)
        for term in terms
    )


def parseval_integral(rho):
    """Exact integral of G^rho over the half period [0, 1/2], as a fraction."""
    return Fraction(torus_power_integral(rho), 2)


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


def _plain_base(spec, t, n_steps, table):
    """The j-free large-range part of q_plain: N times the mean of G^t plus half its variation."""
    return n_steps * torus_integral_upper(t) + 0.5 * variation_bound_power(spec, t, table)


def _star_base(spec, t, n_steps, table):
    """The j-free large-range part of q_star: the telescoped sum of G^t |G'| and its corrections."""
    var_up = variation_bound_power(spec, t + 1.0, table)
    var_t = variation_bound_power(spec, t, table)
    tail = _HALF_L2_G2 * math.sqrt(torus_integral_upper(2.0 * t))
    return n_steps / (t + 1.0) * var_up + _HALF_SUP_G1 * var_t + tail


def q_reference(has_gprime, spec, t, j, n_steps, table):
    """q_star (has_gprime) or q_plain of one key, every ingredient computed afresh: small + log(9)^j * base."""
    small = 0.0
    if j != 0:
        weight = 14.0 * n_steps / 9.0 + _HALF_L2_G2 if has_gprime else n_steps
        small = envelope_max(t, j, 0.0, 1.0 / 9.0) * weight
    try:
        log9_power = math.log(9.0) ** j
    except OverflowError:
        log9_power = math.inf
    return small + log9_power * (_star_base if has_gprime else _plain_base)(spec, t, n_steps, table)


def term_integral_reference(has_gprime, spec, t, j, table):
    """The integral bound of one key behind the refined error bound, every ingredient computed afresh.

    small + log(9)^j * base: small is the envelope maximum on [0, 1/9], times
    14/9 with |G'|; base is the mean bound of G^t, or with |G'| the variation
    bound of G^(t+1) over t+1.
    """
    small = 0.0
    if j != 0:
        small = envelope_max(t, j, 0.0, 1.0 / 9.0) * (14.0 / 9.0 if has_gprime else 1.0)
    try:
        log9_power = math.log(9.0) ** j
    except OverflowError:
        log9_power = math.inf
    if has_gprime:
        base = variation_bound_power(spec, t + 1.0, table) / (t + 1.0)
    else:
        base = torus_integral_upper(t)
    return small + log9_power * base
