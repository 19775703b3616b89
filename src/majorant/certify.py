"""Taylor certificates and rigorous sign verdicts on subintervals.

A certified Taylor expansion replaces the gap function on an interval
[t0 - r, t0 + r] by a polynomial whose coefficients are certified quadrature
values, with three layers of accounting:

  * each coefficient's quadrature error, propagated as err_j * r^j / j!,
    must fit a declared per-coefficient budget;
  * the truncated tail is bounded through the closed-form envelope of
    G^t |log G|^m over [0, 9];
  * the budgets plus the tail bound must fit a single total allowance delta.

The polynomial minus (or plus) delta then brackets the gap derivative from
below (or above), and two elementary mechanisms turn endpoint data into a
sign on the whole interval: a monotonicity chain of derivative signs, and a
variation cascade that plays the growth of a would-be zero's total variation
against endpoint bounds until it contradicts a monotone tail.  Both read P at
an interval end from the Taylor table of coeffs[m + i] / i! that each
certificate computes once, when it is built; check_sign_chain and
check_sign_variation are check_signs' one-interval calls.  One window rule,
_within, decides both which intervals a check takes and where P may be
evaluated.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from math import fsum
from operator import mul, truediv

from .envelope import envelope_max
from .quadrature import gap_derivatives
from .trigpoly import G_MAX, check_int

PIPELINE_T_MIN = 5.0
PIPELINE_T_MAX = 6.0
_EDGE_TOL = 1e-9
_PROVEN_RANGE = f"[{PIPELINE_T_MIN:g}, {PIPELINE_T_MAX:g}]"
MAX_DEGREE = 169  # the tail bound divides by (degree + 1)!, and 170! is the largest factorial below the float range
# k! for k = 0..MAX_DEGREE + 1 as floats, the one source of k! here, from one running product of exact ints: c / k!
# divides by the same float whether k! is this entry or the int (Python converts an int divisor to the nearest float).
_FACTORIALS = tuple(map(float, accumulate(range(1, MAX_DEGREE + 2), mul, initial=1)))


class BudgetError(ValueError):
    """A certificate's error accounting failed; the message names the culprit."""


class TaylorCertificate(namedtuple("TaylorCertificate", "center radius base_order degree coeffs coefficient_errors termwise_budget remainder total_delta taylor")):
    """A certified degree-n expansion of the base_order-th gap derivative.

    ``taylor`` is derived, never given: row m holds coeffs[m + i] / i!, the Taylor coefficients of P^(m) at the
    center.  Every construction (_replace, _make and unpickling too) computes it from the coefficients and ignores
    a passed value, so no certificate carries a table that disagrees with them.
    """

    __slots__ = ()

    def __new__(cls, center, radius, base_order, degree, coeffs, coefficient_errors, termwise_budget, remainder, total_delta, taylor=None):
        fields = (center, radius, base_order, degree, coeffs, coefficient_errors, termwise_budget, remainder, total_delta)
        return super().__new__(cls, *fields, _taylor_table(degree, coeffs))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so a replaced coefficient gets its table too
        return cls(*fields)


class SignCertificate(namedtuple("SignCertificate", "interval claimed_sign method certified evidence failure_reason", defaults=(None,))):
    """Outcome of a sign check on an interval, a pair of floats; inconclusive is a value, not an error, and ``failure_reason`` then says why."""

    __slots__ = ()


def _within(t: float, lo: float, hi: float) -> bool:
    """The one window rule: t lies in [lo, hi] widened by _EDGE_TOL at each edge.  A nan lies in no window."""
    return lo - _EDGE_TOL <= t <= hi + _EDGE_TOL


# The checks below and in _endpoints are phrased as "not <valid>" so that a NaN fails them.
def check_window(center: float, radius: float, base_order: int, degree: int) -> None:
    """Reject an expansion window that leaves the proven range, a base order or degree that is no nonnegative int, or a degree above MAX_DEGREE."""
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    lo, hi = center - radius, center + radius
    if not (_within(lo, PIPELINE_T_MIN, PIPELINE_T_MAX) and _within(hi, PIPELINE_T_MIN, PIPELINE_T_MAX)):
        raise ValueError(f"expansion window [{lo}, {hi}] leaves {_PROVEN_RANGE}")
    check_int("base_order", base_order, 0)
    check_int("degree", degree, 0, MAX_DEGREE)


def check_budgets(budgets, degree: int) -> None:
    """Reject budgets that are not one positive int or float allowance per coefficient 0..degree."""
    if len(budgets) != degree + 1:
        raise ValueError(f"expected {degree + 1} coefficient budgets, got {len(budgets)}")
    for b in budgets:  # before the sign test, which a str or None would fail with TypeError
        if isinstance(b, bool) or not isinstance(b, (int, float)):
            raise ValueError(f"every coefficient budget must be an int or float, got {b!r}")
    if not all(b > 0.0 for b in budgets):
        raise ValueError("every coefficient budget must be positive")


def remainder_bound(center: float, radius: float, base_order: int, degree: int) -> float:
    """Bound for the truncated Taylor tail of the gap's base_order-th derivative.

    The (degree+1)-th coefficient derivative is an integral of
    G^t log^(degree+1+base_order) G over the half period for each variant, so
    the Lagrange remainder is at most twice the envelope maximum of that
    integrand times radius^(degree+1)/(degree+1)!.  That integrand is monotone
    in t for each v, so the maximum over the window is at one of its edges.
    """
    check_window(center, radius, base_order, degree)
    m = degree + 1 + base_order
    peak = max(envelope_max([center - radius, center + radius], [m], G_MAX)[m])
    return 2.0 * peak * radius ** (degree + 1) / _FACTORIALS[degree + 1]


def build_certificate(
    center: float,
    radius: float,
    base_order: int,
    degree: int,
    budgets,
    steps: int,
    mode: str,
    total_delta: float,
) -> TaylorCertificate:
    """Compute and validate a certified Taylor expansion.

    ``budgets`` lists one allowance per coefficient 0..degree.  Every
    coefficient is a gap derivative at the center computed with the same
    ``steps`` and ``mode``, so all of them share one quadrature pass per sign
    variant.  Fails with BudgetError naming the offending coefficient if any
    propagated quadrature error exceeds its budget, or if budgets plus the
    computed tail bound overrun total_delta.
    """
    tail = remainder_bound(center, radius, base_order, degree)  # checks the window before check_budgets reads degree
    budgets = list(budgets)  # read once, as gap_derivatives reads its orders: a generator has no len()
    check_budgets(budgets, degree)
    budget_list = [float(b) for b in budgets]
    allowance = fsum(budget_list) + tail
    if not allowance <= total_delta:  # a nan total_delta fails this, where allowance > nan would let it pass
        raise BudgetError(
            f"budgets plus tail bound {allowance:.9g} exceed total allowance {total_delta:g}"
        )
    values = gap_derivatives(center, steps, range(base_order, base_order + degree + 1), mode)
    for j, (value, budget) in enumerate(zip(values, budget_list)):
        propagated = value.error_bound * radius**j / _FACTORIALS[j]
        if not propagated <= budget:  # a nan error_bound fails this too
            raise BudgetError(
                f"coefficient {j}: propagated quadrature error {propagated:.6g} exceeds "
                f"budget {budget:g} (steps={steps}, mode={mode})"
            )
    return TaylorCertificate(
        center,
        radius,
        base_order,
        degree,
        tuple(v.estimate for v in values),
        tuple(v.error_bound for v in values),
        tuple(budget_list),
        tail,
        float(total_delta),
    )


def _taylor_table(degree: int, coeffs) -> tuple[tuple[float, ...], ...]:
    """A certificate's taylor field: row m, for m = 0..degree, is coeffs[m + i] / i! for i = 0..degree - m."""
    if len(coeffs) <= degree:  # map() would stop at the last coefficient and sum too few terms
        raise ValueError(f"a degree-{degree} certificate needs {degree + 1} coefficients, got {len(coeffs)}")
    return tuple(tuple(map(truediv, coeffs[m : degree + 1], _FACTORIALS)) for m in range(degree + 1))


def _values(table: tuple[tuple[float, ...], ...], u: float) -> list[float]:
    """Each table row's polynomial at u: the powers of u once, then one fsum of products per row."""
    powers = [u**k for k in range(len(table[0]))]  # the first row is the longest
    return [fsum(map(mul, row, powers)) for row in table]


def eval_cert_poly(cert: TaylorCertificate, m: int, t: float) -> float:
    """m-th derivative of the certificate polynomial at t inside its window."""
    check_int("derivative order m", m, 0, cert.degree)
    lo, hi = cert.center - cert.radius, cert.center + cert.radius
    if not _within(t, lo, hi):
        raise ValueError(f"t={t} outside certified window [{lo}, {hi}]")
    return _values(cert.taylor[m : m + 1], t - cert.center)[0]


def _endpoints(checker: str, cert: TaylorCertificate, interval) -> tuple[float, float]:
    """The two bounds of a sign-check interval as floats; refused unless it is one (a, b) pair, nonempty, and inside the proven range and cert's window."""
    try:
        a, b = interval
    except (TypeError, ValueError):  # Python's unpacking errors name neither the checker nor the interval
        raise ValueError(f"{checker}: interval must be one (a, b) pair, got {interval!r}") from None
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    if not (_within(a, PIPELINE_T_MIN, PIPELINE_T_MAX) and _within(b, PIPELINE_T_MIN, PIPELINE_T_MAX)):
        raise ValueError(f"interval [{a}, {b}] is outside the proven range {_PROVEN_RANGE}")
    lo, hi = cert.center - cert.radius, cert.center + cert.radius
    if not (_within(a, lo, hi) and _within(b, lo, hi)):
        raise ValueError(f"interval [{a}, {b}] leaves the certified window [{lo}, {hi}]")
    return a, b


def check_signs(method: str, cert: TaylorCertificate, target: str, intervals) -> tuple[list[SignCertificate], dict[float, float]]:
    """The verdict on each interval by the check that method names, and values {end: P(end)}: one evaluation of cert.taylor per distinct end.

    Refusals come in one order: each interval's shape, range and window, then the method and target.  The
    variation cascade argues from positive shifted endpoint values, so it certifies positive targets only.
    """
    checker = "check_sign_chain" if method == "chain" else "check_sign_variation" if method == "cascade" else "check_signs"
    pairs = [_endpoints(checker, cert, interval) for interval in intervals]
    if method not in ("chain", "cascade"):
        raise ValueError("method must be one of ('chain', 'cascade')")
    targets = ("positive", "negative") if method == "chain" else ("positive",)
    if target not in targets:
        raise ValueError(f"the {method} check certifies {' or '.join(targets)} targets only, got {target!r}")
    table = cert.taylor
    right, decide = (table, _cascade_verdict) if method == "cascade" else (table[:1], _chain_verdict)  # a chain reads only P at b
    rows, verdicts = {}, []
    for a, b in pairs:
        if len(rows.get(a, ())) < len(table):  # not yet taken, or taken as a chain's right end
            rows[a] = _values(table, a - cert.center)
        if b not in rows:
            rows[b] = _values(right, b - cert.center)
        verdicts.append(decide(cert, target, a, b, rows[a], rows[b]))
    return verdicts, {end: row[0] for end, row in rows.items()}


def check_sign_chain(cert: TaylorCertificate, target: str, interval) -> SignCertificate:
    """Sign verdict on an interval from an endpoint value and a derivative chain.

    For a positive verdict: P(b) - delta > 0 and every derivative of P is
    negative at a; the constant top derivative then forces each lower one to
    decrease, so P - delta is decreasing and its minimum P(b) - delta is
    positive.  For a negative verdict: P(a) + delta < 0 with the same
    derivative signs, so P + delta decreases from a negative start.  If any
    condition fails, the verdict is certified=False, with every row checked
    and one reason.
    """
    return check_signs("chain", cert, target, [interval])[0][0]


def _chain_verdict(cert, target, a, b, row_a, row_b) -> SignCertificate:
    """The chain's verdict on [a, b] from the rows at its ends (see check_sign_chain)."""
    if target == "positive":
        at, anchor = b, row_b[0] - cert.total_delta
        ok = anchor > 0.0
    else:
        at, anchor = a, row_a[0] + cert.total_delta
        ok = anchor < 0.0
    rows = [{"quantity": "shifted_value", "order": 0, "location": at, "value": anchor}]
    rows += ({"quantity": "derivative", "order": m, "location": a, "value": row_a[m]} for m in range(1, cert.degree + 1))
    ok = ok and _monotone_tail(row_a, 0)
    reason = None if ok else "endpoint or derivative sign conditions fail"
    return SignCertificate((a, b), target, "derivative_chain", ok, tuple(rows), reason)


def _monotone_tail(row: list[float], m: int) -> bool:
    """Whether derivatives m+1..degree of P are provably negative on [a, b], from the row at a; a nan is not negative.

    The row's last entry is the constant top derivative; each lower one is
    negative at a and decreasing (by induction from above), hence negative on
    the whole interval.
    """
    return all(v < 0.0 for v in row[m + 1 :])


def check_sign_variation(cert: TaylorCertificate, target: str, interval) -> SignCertificate:
    """Positive-sign verdict via the total-variation cascade.

    Assume p = P - delta had a zero although p(a) > 0 and p(b) > 0.  Then the
    variation of p is at least p(a) + p(b), so the mean of |p'| is at least
    I_1 = (p(a) + p(b))/(b - a) and some point has |p'| >= I_1.  That in turn
    forces Var(p') >= 2*I_1 - |p'(a) + p'(b)|, giving a mean bound I_2 for
    |p''|, and so on.  The cascade descends while each mean exceeds both
    endpoint derivative magnitudes; at the deepest such order whose remaining
    derivatives are provably negative (a monotone tail), |p^(m)| is maximal
    at an endpoint, contradicting the mean bound.  Hence p has no zero and is
    positive throughout.
    """
    return check_signs("cascade", cert, target, [interval])[0][0]


def _cascade_verdict(cert, target, a, b, row_a, row_b) -> SignCertificate:
    """The cascade's verdict on [a, b] from the rows at its ends (see check_sign_variation)."""
    delta = cert.total_delta
    pa = row_a[0] - delta
    pb = row_b[0] - delta
    rows = [
        {"quantity": "shifted_value", "order": 0, "location": a, "value": pa},
        {"quantity": "shifted_value", "order": 0, "location": b, "value": pb},
    ]
    reason = "shifted endpoint values are not both positive"
    if pa > 0.0 and pb > 0.0:
        reason = "no order pairs a mean bound exceeding both endpoint magnitudes with a monotone tail"
        width = b - a
        var = pa + pb
        rows.append({"quantity": "variation_lower", "order": 0, "value": var})
        contradiction = None  # at the last order the descent passes
        for m in range(1, cert.degree + 1):
            mean = var / width
            da, db = row_a[m], row_b[m]
            edge = max(abs(da), abs(db))
            if not mean > edge:
                break
            contradiction = {"quantity": "contradiction_order", "order": m, "value": mean, "edge": edge}
            rows.append({"quantity": "mean_lower", "order": m, "value": mean})
            rows.append({"quantity": "derivative", "order": m, "location": a, "value": da})
            rows.append({"quantity": "derivative", "order": m, "location": b, "value": db})
            var = 2.0 * mean - abs(da + db)
            rows.append({"quantity": "variation_lower", "order": m, "value": var})
        # a tail negative behind some order is negative behind every deeper one, so the deepest order decides
        if contradiction is not None and _monotone_tail(row_a, contradiction["order"]):
            rows.append(contradiction)
            reason = None
    return SignCertificate((a, b), target, "variation_cascade", reason is None, tuple(rows), reason)
