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
from dataclasses import dataclass
from functools import lru_cache
from math import cos, fsum, pi

TWO_PI = 2.0 * pi
K = 5
F2, F3 = K + 1, K + 2  # the frequencies of the two signed cosines
MAX_STEPS = 1_000_000  # the most nodes or grid steps any evaluation takes
G_MAX = 9.0  # sup G = (1 + 1 + 1)^2, attained at x = 0 by the plus sign


class SignVariant(enum.Enum):
    """Sign of the high-frequency term in ``1 + e(x) + s*e(7x)``."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> float:
        return 1.0 if self is SignVariant.PLUS else -1.0


def parse_sign(name) -> SignVariant:
    """Coerce a user-supplied sign label ('plus'/'minus') to a SignVariant."""
    if isinstance(name, SignVariant):
        return name
    try:
        return SignVariant(str(name).lower())
    except ValueError:
        raise ValueError(f"unknown sign variant {name!r}; expected 'plus' or 'minus'") from None


@dataclass(frozen=True)
class TrigSquare:
    """The squared three-term sum with frequencies 1, 6 and 7.

    ``k`` admits only K = 5; it stays a field so that ``TrigSquare(5, sign)``
    keeps working.
    """

    k: int = K
    sign: SignVariant = SignVariant.PLUS

    def __post_init__(self):
        if self.k != K:
            raise ValueError(f"only k = {K} is supported, got k = {self.k}")


@dataclass(frozen=True)
class LocalMaxEntry:
    """One local maximum of G on the half period.

    ``location`` is accurate to within the tabulation step; interior maxima
    occur in symmetric pairs (multiplicity 2) while the symmetry points 0 and
    1/2 count once.  ``value_upper`` is a certified upper bound for the true
    local maximum value.
    """

    location: float
    value_upper: float
    multiplicity: int


@dataclass(frozen=True)
class LocalMaxTable:
    """Certified local-maximum bounds for one TrigSquare over [0, 1/2]."""

    spec: TrigSquare
    step: float
    bump: float
    entries: tuple[LocalMaxEntry, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)


def eval_G_pair(xs) -> tuple[list[float], list[float]]:
    """(minus, plus): G = 3 + 2 (c1 + s c6 + s c7) of both signs at each x of xs, each c_v = cos(2 pi v x) taken once."""
    w2, w3 = TWO_PI * F2, TWO_PI * F3
    minus, plus = [], []
    for x in xs:
        c1, c6, c7 = cos(TWO_PI * x), cos(w2 * x), cos(w3 * x)
        minus.append(3.0 + 2.0 * (c1 - c6 - c7))
        plus.append(3.0 + 2.0 * (c1 + c6 + c7))
    return minus, plus


def sup_norm_bound(m: int) -> float:
    """Proven bound for sup|G^(m)|: G_MAX for m = 0, else 2^(m+1) pi^m (1 + 6^m + 7^m).

    The m >= 1 case is the triangle inequality applied to the closed form of
    the derivative; it is independent of the sign variant.
    """
    if not m >= 0:  # also refuses nan
        raise ValueError(f"derivative order must be >= 0, got {m}")
    if m == 0:
        return G_MAX
    return 2.0 ** (m + 1) * pi**m * (1.0 + float(F2) ** m + float(F3) ** m)


def second_deriv_L2() -> float:
    """L^2 norm of G'' over one period: 8 pi^2 sqrt((1 + 6^4 + 7^4)/2).

    Each cosine in the closed form of G'' contributes half the square of its
    amplitude to the mean square.  The radicand is 3698/2 = 43^2, so the norm
    is exactly 8 pi^2 * 43.
    """
    return 8.0 * pi**2 * 43.0


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
    so a huge or infinite bump gives G_MAX.  A step that needs more than
    MAX_STEPS grid steps is refused before any sampling.
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
    samples = eval_G_pair(i * h for i in range(n + 1))[spec.sign is SignVariant.PLUS]  # index 1 is the plus sign
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
    table = LocalMaxTable(spec, h, bump, tuple(entries))
    if table.total_multiplicity != 7:
        raise ValueError(
            f"expected 7 local maxima (with multiplicity), found "
            f"{table.total_multiplicity}; the tabulation step is unreliable"
        )
    return table


def default_max_table(spec: TrigSquare) -> LocalMaxTable:
    """The standard table at step 1/1000 with matching bump."""
    return locate_maxima(spec, 0.001, 0.001)


def variation_bound_power(spec: TrigSquare, t: float, table: LocalMaxTable) -> float:
    """Upper bound for the total variation of G^t over one period.

    G^t rises from a minimum to each local maximum and falls again, so its
    variation is at most twice the sum of the local maximum values of G^t,
    counted with multiplicity; each of those is bounded by value_upper^t.
    """
    if table.spec != spec:
        raise ValueError("local-maximum table was built for a different square")
    if not t >= 0.0:  # also refuses nan
        raise ValueError(f"power must be nonnegative, got {t}")
    try:
        return 2.0 * fsum(e.multiplicity * e.value_upper**t for e in table.entries)
    except OverflowError:  # beyond the float range: infinite, still an upper bound
        return math.inf
