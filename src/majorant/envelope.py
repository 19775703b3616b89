"""Sharp maxima of ``v^s * |log v|^m`` on [0, b], b <= 9: the package's one closed form.

Every integrand bound downstream is a combination of ``G^s |log G|^m`` terms,
and the maximum of ``v^s |log v|^m`` over the range of G, or its part below
1/9, turns each into a constant.
"""

from __future__ import annotations

import math

from .trigpoly import G_MAX, check_int, overflow_to_inf


def envelope_max(powers, orders, b: float) -> dict[int, list[float]]:
    """{m: [max of v^s * |log v|^m over [0, b], for each s in powers]} for each m in orders, 0 < b <= 9.

    m is a log order: m t-derivatives of G^t bring down (log G)^m.  For m = 0
    the function is increasing, so the maximum is b^s (s = 0 allowed).  For
    m >= 1 it vanishes at v = 0 and v = 1 and is smooth elsewhere; on (0, 1)
    its only interior critical point is v0 = exp(-m/s), with value
    (m/(e*s))^m, and on (1, 9] it increases.  The maximum over [0, b] is the
    value at b or, when v0 < min(b, 1) (also where v0 underflows to 0), the
    larger of it and the peak.  Past the float range it is inf: still a bound.
    b^s, e*s and each check are taken once per power or order, and so is
    |log b|^m (1 at m = 0, so that row is b^s exactly).
    """
    powers, orders = list(powers), list(orders)  # each is read more than once
    if not 0.0 < b <= G_MAX:  # the checks are phrased "not <valid>" so that a NaN fails them
        raise ValueError(f"need 0 < b <= {G_MAX:g}, got {b}")
    for m in orders:
        check_int("log exponent m", m, 0)
    logs = any(orders)  # some m > 0, each being an int >= 0 by now
    inf, exp, log_b, peak_end = math.inf, math.exp, abs(math.log(b)), min(b, 1.0)
    per_power = []
    for s in powers:
        if not (s > 0.0 if logs else s >= 0.0):
            raise ValueError(f"power must be {'positive when logs are present' if logs else 'nonnegative'}, got {s}")
        per_power.append((s, overflow_to_inf(pow, b, s), math.e * s))
    rows = {}
    for m in orders:
        log_power = overflow_to_inf(pow, log_b, m)
        row = rows[m] = []
        for s, end, e_s in per_power:
            value = end * log_power if end != inf and log_power != inf else inf
            if m and value != inf and exp(-m / s) < peak_end:
                value = max(value, overflow_to_inf(pow, m / e_s, m))
            row.append(value)
    return rows
