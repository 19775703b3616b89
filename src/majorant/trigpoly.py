"""The trigonometric squares ``|1 + e(x) + s·e(7x)|^2`` and certified facts about them.

Everything downstream rests on one pair of nonnegative trigonometric
polynomials, the case k = 5 of the paper: for a sign ``s`` the square expands to

    G(x) = 3 + 2*(cos(2*pi*x) + s*cos(2*pi*6*x) + s*cos(2*pi*7*x)),

an even, 1-periodic function with frequencies 1, 6 and 7 and values in
[0.018, 9]: G has no zeros (its minimum on a grid of step 1/20000, less the
curvature slack of that step, is 0.0182 for the minus sign and larger for
plus).  Every working constant in the package is proven for this case alone,
so k is the module constant ``K`` rather than a parameter.

This module states G's range bound ``G_MAX``, evaluates both signs' G over a
run of points in one pass, bounds the sup norms of the derivatives, tabulates
certified upper bounds at the local maxima of G over a half period, and bounds
the total variation of integer or real powers of G.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from math import cos, fsum, pi
from typing import NamedTuple

TWO_PI = 2.0 * pi
K = 5
F2, F3 = K + 1, K + 2  # the frequencies of the two signed cosines
MONOTONE_PIECES = 2.0 * F3  # G' has degree F3, so at most 2 * F3 = 14 zeros, and G at most 14 monotone pieces, per period
MAX_STEPS = 1_000_000  # the most nodes or grid steps any evaluation takes
G_MAX = 9.0  # sup G = (1 + 1 + 1)^2, attained at x = 0 by the plus sign


class SignVariant(enum.Enum):
    """Sign of the high-frequency term in ``1 + e(x) + s*e(7x)``."""

    PLUS = "plus"
    MINUS = "minus"


def parse_sign(name) -> SignVariant:
    """Coerce a user-supplied sign label ('plus'/'minus') to a SignVariant."""
    if isinstance(name, SignVariant):
        return name
    try:
        return SignVariant(str(name).lower())
    except ValueError:
        raise ValueError(f"unknown sign variant {name!r}; expected 'plus' or 'minus'") from None


# The fields sit in a functional NamedTuple base: a NamedTuple class body may not define __new__, which checks them.
class TrigSquare(NamedTuple("TrigSquare", [("k", int), ("sign", SignVariant)])):
    """The squared three-term sum with frequencies 1, 6 and 7.

    ``k`` admits only K = 5; it stays a field so that ``TrigSquare(5, sign)``
    keeps working.  ``sign`` is a SignVariant or its label, as parse_sign takes it.
    """

    __slots__ = ()

    def __new__(cls, k: int = K, sign: SignVariant | str = SignVariant.PLUS):
        check_int("k", k, K, K)
        return super().__new__(cls, k, parse_sign(sign))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so a replaced field is checked too
        return cls(*fields)


class LocalMaxEntry(NamedTuple):
    """One local maximum of G on the half period.

    ``location`` is accurate to within the tabulation step; interior maxima
    occur in symmetric pairs (multiplicity 2) while the symmetry points 0 and
    1/2 count once.  ``value_upper`` is a certified upper bound for the true
    local maximum value.
    """

    location: float
    value_upper: float
    multiplicity: int


class LocalMaxTable(NamedTuple):
    """Certified local-maximum bounds for the G of one sign over [0, 1/2]: the bound layer's one carrier of the sign."""

    sign: SignVariant
    step: float
    bump: float
    entries: tuple[LocalMaxEntry, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)


SIGN_PAIR = (SignVariant.MINUS, SignVariant.PLUS)  # the signs of eval_G_pair's two lists, in order


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
    return 0.5 * sup_norm_bound(2) * (h / 2.0) * (h / 2.0)  # not ** 2, which raises OverflowError for h past 1e154


def _ceil_decimals(x: float, decimals: int = 3) -> float:
    scale = 10.0**decimals
    return math.ceil(x * scale) / scale


@lru_cache(maxsize=None)
def locate_maxima(spec: TrigSquare, h: float, bump: float) -> LocalMaxTable:
    """Certified table of the local maxima of G over the half period [0, 1/2].

    G is sampled at step h.  A sample exceeding both neighbours (with the grid
    mirrored at 0 and 1/2, where G is even) brackets a true local maximum; a
    maximum at xi within an h-neighbourhood of the winning sample satisfies
    G(xi) <= sample + curvature_slack(h) because G'(xi) = 0, so ``bump`` must
    cover that slack.  Interior bounds are rounded up to 3 decimals; at
    the symmetry points 0 and 1/2 the derivative vanishes identically and the
    sampled value is the exact local maximum value, so no slack is added.
    Every bound is clamped at the global maximum G_MAX before it is rounded,
    so a huge or infinite bump gives G_MAX.  A step past MAX_STEPS grid steps
    is refused before any sampling; both signs share the grid (_grid_pair).
    """
    if not h > 0.0:  # also refuses nan
        raise ValueError(f"step must be positive, got {h}")
    slack = curvature_slack(h)
    if not bump >= slack:
        raise ValueError(f"bump {bump:g} does not cover the curvature slack {slack:.6g} for step {h:g}")
    steps = 0.5 / h  # inf for a subnormal step
    if steps > MAX_STEPS + 0.5:  # round(steps) > MAX_STEPS; short form, as 5e+299 for 1e-300
        raise ValueError(f"step {h:g} gives {steps:.9g} grid steps, more than {MAX_STEPS}")
    n = round(steps)
    if n < 2 or abs(n * h - 0.5) > 1e-9:
        raise ValueError(f"step {h:g} must evenly divide the half period")
    samples = _grid_pair(h, n)[SIGN_PAIR.index(spec.sign)]
    entries = []
    for i in range(n + 1):
        left = samples[i - 1] if i > 0 else samples[1]
        right = samples[i + 1] if i < n else samples[n - 1]
        v = samples[i]
        if not (v > left and v > right):
            continue
        if i == 0 or i == n:
            entries.append(LocalMaxEntry(i * h, min(v, G_MAX), 1))
        else:
            bound = _ceil_decimals(min(max(left, v, right) + bump, G_MAX))  # clamped first: bump may be inf
            entries.append(LocalMaxEntry(i * h, bound, 2))
    table = LocalMaxTable(spec.sign, h, bump, tuple(entries))
    if table.total_multiplicity != 7:
        raise ValueError(
            f"expected 7 local maxima (with multiplicity), found "
            f"{table.total_multiplicity}; the tabulation step is unreliable"
        )
    return table


@lru_cache(maxsize=1)  # the latest grid, so that both signs' tables of one step share its eval_G_pair pass
def _grid_pair(h: float, n: int) -> tuple[list[float], list[float]]:
    return eval_G_pair(i * h for i in range(n + 1))


def default_max_table(spec: TrigSquare) -> LocalMaxTable:
    """The standard table at step 1/1000 with matching bump."""
    return locate_maxima(spec, 0.001, 0.001)


def variation_bound_power(table: LocalMaxTable, t: float) -> float:
    """Upper bound for the total variation of G^t over one period, for the sign of table.

    G^t rises from a minimum to each local maximum and falls again, so its
    variation is at most twice the sum of the local maximum values of G^t,
    counted with multiplicity; each of those is bounded by value_upper^t.
    """
    if not t >= 0.0:  # also refuses nan
        raise ValueError(f"power must be nonnegative, got {t}")
    return 2.0 * overflow_to_inf(fsum, (e.multiplicity * e.value_upper**t for e in table.entries))
