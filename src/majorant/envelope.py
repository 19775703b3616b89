"""Sharp maxima of ``v^s * |log v|^m`` on subintervals of [0, 9].

These envelopes convert pointwise products of powers and logarithms of G into
constants: every integrand bound downstream is a combination of
``G^s |log G|^m`` terms, and the maximum of ``alpha(v) = v^s |log v|^m`` over
the range of G is computable in closed form.
"""

from __future__ import annotations

import math

from .trigpoly import G_MAX


def envelope_max(s: float, m: int, a: float, b: float) -> float:
    """Maximum of v^s * |log v|^m over [a, b], for 0 <= a < b <= 9 and s > 0.

    For m = 0 the function is increasing, so the maximum is b^s (this case
    also tolerates s = 0).  For m >= 1 the function vanishes at v = 0 and
    v = 1 and is smooth elsewhere; on (0, 1) its only interior critical point
    is v0 = exp(-m/s) with value (m/(e*s))^m, and on (1, 9] it increases.
    The maximum over [a, b] is therefore the largest of the endpoint values
    and, when a < v0 < min(b, 1), the interior peak.  A maximum beyond the
    float range is returned as inf: still an upper bound, if a useless one.
    """
    if not m >= 0:  # also refuses nan
        raise ValueError(f"log exponent must be a nonnegative integer, got {m}")
    if not 0.0 <= a < b <= G_MAX + 1e-12:
        raise ValueError(f"need 0 <= a < b <= {G_MAX:g}, got [{a}, {b}]")
    if m == 0 and not s >= 0.0:  # phrased "not <valid>" so that a NaN fails
        raise ValueError(f"power must be nonnegative, got {s}")
    if m > 0 and not s > 0.0:
        raise ValueError(f"power must be positive when logs are present, got {s}")

    def alpha(v: float) -> float:
        return v**s * abs(math.log(v)) ** m

    try:
        if m == 0:
            return b**s
        candidates = [alpha(b)]
        if a > 0.0:
            candidates.append(alpha(a))
        v0 = math.exp(-m / s)
        if a < v0 < min(b, 1.0):
            candidates.append((m / (math.e * s)) ** m)
        return max(candidates)
    except OverflowError:
        return math.inf
