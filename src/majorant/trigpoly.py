"""The trigonometric squares ``|1 + e(x) + s·e(7x)|^2`` and certified facts about them.

Everything downstream rests on one pair of nonnegative trigonometric
polynomials, the case k = 5 of the paper: for a sign ``s``, the label "plus"
(s = 1) or "minus" (s = -1), the square expands to

    G(x) = 3 + 2*(cos(2*pi*x) + s*cos(2*pi*6*x) + s*cos(2*pi*7*x)),

an even, 1-periodic function with frequencies 1, 6 and 7 and values in
[G_MIN, G_MAX] = [0.0174, 9]: G has no zeros.  Every working constant in the
package is proven for this case alone, so k is the module constant ``K``
rather than a parameter.

This module states G's range bounds, evaluates both signs' G over a run of
points in one pass, bounds the sup norms of the derivatives, and bounds the
total variation of integer or real powers of G.  The variation bounds read
one table per sign of certified upper bounds at the local maxima of G over a
half period, both built at import from one pass over a fixed grid (step
MAXIMA_STEP, each interior maximum raised by MAXIMA_BUMP), whose slack and
count of maxima are checked there too.  The same pass gives G_MIN, its least
sample less that slack, checked positive there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import cos, fsum, pi

TWO_PI = 2.0 * pi
K = 5
F2, F3 = K + 1, K + 2  # the frequencies of the two signed cosines
MONOTONE_PIECES = 2.0 * F3  # G' has degree F3, so at most 2 * F3 = 14 zeros, and G at most 14 monotone pieces, per period
MAX_STEPS = 1_000_000  # the most midpoint nodes any quadrature takes
G_MAX = 9.0  # sup G = (1 + 1 + 1)^2, attained at x = 0 by the plus sign


SIGN_PAIR = ("minus", "plus")  # the two sign labels, a sign's one form, in the order of eval_G_pair's lists; the package's SignVariant


def parse_sign(name) -> str:
    """The label ('plus' or 'minus') of a user-supplied sign, in any case."""
    if (label := str(name).lower()) in SIGN_PAIR:
        return label
    raise ValueError(f"unknown sign variant {name!r}; expected 'plus' or 'minus'")


class TrigSquare(namedtuple("TrigSquare", "k sign")):
    """The squared three-term sum with frequencies 1, 6 and 7.

    ``k`` admits only K = 5; it stays a field so that ``TrigSquare(5, sign)``
    keeps working.  ``sign`` is a label in any case, stored as parse_sign returns it.
    """

    __slots__ = ()

    def __new__(cls, k: int = K, sign: str = "plus"):
        check_int("k", k, K, K)
        return super().__new__(cls, k, parse_sign(sign))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so a replaced field is checked too
        return cls(*fields)


class LocalMaxEntry(namedtuple("LocalMaxEntry", "location value_upper multiplicity")):
    """One local maximum of G on the half period.

    ``location`` is accurate to within the tabulation step; interior maxima
    occur in symmetric pairs (multiplicity 2) while the symmetry points 0 and
    1/2 count once.  ``value_upper`` is a certified upper bound for the true
    local maximum value.
    """

    __slots__ = ()


def eval_G_pair(xs) -> tuple[list[float], list[float]]:
    """G = 3 + 2 (c1 + s c6 + s c7) at each x of xs, one list per sign of SIGN_PAIR, each c_v = cos(2 pi v x) taken once."""
    w2, w3 = TWO_PI * F2, TWO_PI * F3
    minus, plus = [], []
    for x in xs:
        c1, c6, c7 = cos(TWO_PI * x), cos(w2 * x), cos(w3 * x)
        minus.append(3.0 + 2.0 * (c1 - c6 - c7))
        plus.append(3.0 + 2.0 * (c1 + c6 + c7))
    return minus, plus


def overflow_to_inf(f, *args) -> float:
    """f(*args), or inf where f raises OverflowError: a bound beyond the float range is infinite, still an upper bound."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """The one integer rule of every order, exponent and count: exactly an int (no bool, though True == 1), in lo..hi (hi None: open)."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        raise ValueError(f"{name} must be an integer {f'>= {lo}' if hi is None else f'in {lo}..{hi}'}, got {value!r}")


def sup_norm_bound(m: int) -> float:
    """Proven bound for sup|G^(m)|: G_MAX for m = 0, else 2^(m+1) pi^m (1 + 6^m + 7^m).

    The m >= 1 case is the triangle inequality applied to the closed form of
    the derivative; it is independent of the sign variant.  Past the float
    range (from m = 188) the bound is inf.
    """
    check_int("derivative order m", m, 0)
    if m == 0:
        return G_MAX
    return overflow_to_inf(lambda: 2.0 ** (m + 1) * pi**m * (1.0 + float(F2) ** m + float(F3) ** m))


def curvature_slack(h: float) -> float:
    """How far G may rise above a grid value at step h near a local maximum: sup|G''| (h/2)^2 / 2."""
    return 0.5 * sup_norm_bound(2) * (h / 2.0) ** 2


def _scan_maxima(samples: list[float]) -> tuple[LocalMaxEntry, ...]:
    """The local maxima of G over [0, 1/2] from its samples at i * MAXIMA_STEP, i = 0..n.

    A sample exceeding both neighbours (with the grid mirrored at 0 and 1/2,
    where G is even) brackets a true local maximum; a maximum at xi within a
    step of the winning sample satisfies G(xi) <= sample + curvature_slack
    because G'(xi) = 0, and MAXIMA_BUMP covers that slack.  Interior bounds
    are rounded up to 3 decimals; at the symmetry points 0 and 1/2 the
    derivative vanishes identically and the sample is the exact local
    maximum value, so nothing is added.
    """
    n = len(samples) - 1
    entries = []
    for i, v in enumerate(samples):
        left = samples[i - 1] if i > 0 else samples[1]
        right = samples[i + 1] if i < n else samples[n - 1]
        if not (v > left and v > right):
            continue
        if i == 0 or i == n:
            entries.append(LocalMaxEntry(i * MAXIMA_STEP, v, 1))
        else:
            entries.append(LocalMaxEntry(i * MAXIMA_STEP, math.ceil((v + MAXIMA_BUMP) * 1000.0) / 1000.0, 2))
    return tuple(entries)


# The one maxima grid: step 1/1000 over the half period, each interior grid maximum raised by 0.001.
# The bump exceeds curvature_slack(MAXIMA_STEP) = 8.49e-4 by 1.5e-4.
MAXIMA_STEP = MAXIMA_BUMP = 0.001
if not MAXIMA_BUMP >= curvature_slack(MAXIMA_STEP):
    raise RuntimeError(f"maxima bump {MAXIMA_BUMP} does not cover the curvature slack {curvature_slack(MAXIMA_STEP):.6g}")
_GRID_SAMPLES = eval_G_pair(i * MAXIMA_STEP for i in range(501))  # both signs' G on the grid: the one G pass at import
MAX_TABLES = {sign: _scan_maxima(samples) for sign, samples in zip(SIGN_PAIR, _GRID_SAMPLES)}  # each sign's tuple of LocalMaxEntry, by label
for _sign, _table in MAX_TABLES.items():  # G' has degree F3, so G has at most F3 = 7 local maxima per period
    if (_count := sum(e.multiplicity for e in _table)) != F3:
        raise RuntimeError(f"expected {F3} local maxima of the {_sign} sign, found {_count}")
# The maxima argument mirrored: G' = 0 at an interior minimum, so the sample nearest it exceeds it by at most the slack.
G_MIN = math.floor((min(map(min, _GRID_SAMPLES)) - curvature_slack(MAXIMA_STEP)) * 10000.0) / 10000.0  # rounded down
if not G_MIN > 0.0:  # also refuses nan
    raise RuntimeError(f"G may vanish: its least grid sample less the curvature slack is {G_MIN}")


def default_max_table(spec: TrigSquare) -> tuple[LocalMaxEntry, ...]:
    """The certified local maxima of spec's sign, MAX_TABLES[spec.sign], built at import; bench/workloads.py calls it."""
    return MAX_TABLES[spec.sign]


def variation_bound_power(table, t: float) -> float:
    """Upper bound for the total variation of G^t over one period, for the G whose local maxima, a tuple of LocalMaxEntry, are table.

    G^t rises from a minimum to each local maximum and falls again, so its
    variation is at most twice the sum of the local maximum values of G^t,
    counted with multiplicity; each of those is bounded by value_upper^t.
    """
    if not t >= 0.0:  # also refuses nan
        raise ValueError(f"power must be nonnegative, got {t}")
    return 2.0 * overflow_to_inf(fsum, (e.multiplicity * e.value_upper**t for e in table))
