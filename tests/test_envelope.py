"""Tests for the closed-form power-log envelope maxima."""

import math
import random

import numpy as np
import pytest

from majorant.envelope import envelope_max

from oracle import envelope_reference


def single(s, m, b):
    """The one entry of a one-power, one-order envelope_max call."""
    return envelope_max([s], [m], b)[m][0]


class TestClosedForm:
    def test_monotone_case_without_logs(self):
        assert envelope_max([2.0], [0], 9.0) == {0: [81.0]}
        assert envelope_max([0.0], [0], 5.0) == {0: [1.0]}

    def test_frozen_values(self):
        assert single(1.065, 9, 9.0) == pytest.approx(27126.001276300565, rel=1e-13)
        assert single(2.0, 1, 9.0) == pytest.approx(81.0 * math.log(9.0), rel=1e-13)

    def test_interior_peak_below_one(self):
        # on [0, 1] the peak of v^s |log v|^m sits at exp(-m/s)
        assert single(5.0, 2, 1.0) == pytest.approx((2.0 / (5.0 * math.e)) ** 2, rel=1e-13)

    def test_overflow_gives_infinity(self):
        # the interior peak (400/(5e))^400 and 9^400 exceed the float range; inf still bounds them
        assert single(5.0, 400, 9.0) == math.inf
        assert single(400.0, 0, 9.0) == math.inf
        # (1/9)^340 underflows to 0 and |log(1/9)|^1000 overflows: their product is nan, so the bound is inf
        assert envelope_max([340.0], [1000], 1.0 / 9.0) == {1000: [math.inf]}

    def test_peak_counts_where_its_location_underflows(self):
        """exp(-m/s) is 0.0 in floats for m/s > about 745, yet the peak at that v0 > 0 lies in [0, b] for every b.

        Taking only the value at b gave 2.20 for the first and 3.5e272 for the
        second, far below the true maxima 1/(e * 0.001) and (800/e)^800.
        """
        assert math.exp(-1 / 0.001) == 0.0 and math.exp(-800 / 1.0) == 0.0
        assert single(0.001, 1, 9.0) == pytest.approx(1.0 / (math.e * 0.001), rel=1e-15)
        assert single(1.0, 800, 1.0 / 9.0) == math.inf

    def test_a_peak_at_b_is_the_value_at_b(self):
        """b = exp(-m/s) exactly (s = 0.5625, m = 1): the peak lies at b, not below it, so the maximum is the value at b.

        The peak's closed form 1/(e*s) rounds one ulp above b^s * |log b|; taking it there would give 0.6540078954158975.
        """
        s = 0.5625
        b = math.exp(-1 / s)
        assert single(s, 1, b) == b**s * abs(math.log(b)) == 0.6540078954158974
        assert 1 / (math.e * s) == math.nextafter(0.6540078954158974, 1.0)

    def test_one_row_per_order_one_entry_per_power(self):
        """Each order's row lists the powers in call order, each entry the maximum of that (s, m) alone."""
        powers, orders = [5.0, 1.0, 2.5], [3, 0, 1]
        rows = envelope_max(powers, orders, 1.0 / 9.0)
        assert list(rows) == orders
        assert rows == {m: [single(s, m, 1.0 / 9.0) for s in powers] for m in orders}
        assert envelope_max(powers, [], 9.0) == {}

    def test_seeded_batches_equal_the_scalar_closed_form(self):
        """Every entry of one call per b, 60 powers in (0, 400] at the orders 0..400, is envelope_reference bit for bit.

        The powers include ones so small that exp(-m/s) underflows to 0 and
        ones so large that b^s overflows; both cases, the interior peak and an
        entry beyond the float range all occur.
        """
        rng = random.Random(31)
        powers = [1e-3, 0.5, 400.0] + [400.0 * (1.0 - rng.random()) for _ in range(57)]
        seen = set()
        for b in (1.0 / 9.0, 1.0, 9.0):
            rows = envelope_max(powers, range(401), b)
            assert list(rows) == list(range(401))
            for m, row in rows.items():
                assert [v.hex() for v in row] == [envelope_reference(s, m, 0.0, b).hex() for s in powers], (b, m)
                for s, v in zip(powers, row):
                    underflow = m > 0 and math.exp(-m / s) == 0.0
                    seen.add("inf" if v == math.inf else "underflow" if underflow else "finite")
                    if b == 1.0 and m > 0 and 0.0 < v < math.inf:  # v^s |log v|^m is 0 at v = 1, so v is the peak
                        seen.add("peak")
        assert seen == {"inf", "underflow", "finite", "peak"}

    @pytest.mark.parametrize("b", [1.0 / 9.0, 1.0, 9.0])
    def test_underflow_entries_bound_the_dense_grid(self, b):
        """Entries whose peak location exp(-m/s) underflows stay above a grid maximum: s = 0.001 at m = 1, 5 and 69 (finite up to 69).

        No grid reaches v0 = exp(-1000 m), so only the upper-bound side of the
        sandwich is checked: the value at b alone fell below the grid.
        """
        for m in (1, 5, 69):
            assert math.exp(-m / 0.001) == 0.0
            env = single(0.001, m, b)
            assert env == envelope_reference(0.001, m, 0.0, b) < math.inf
            assert dense_grid_max(0.001, m, b) <= env * (1 + 1e-12), (m, b)


def dense_grid_max(s, m, b):
    # geometric spacing resolves peaks near zero that a linear grid undersamples
    lo = 1e-12
    v = np.unique(np.concatenate([np.linspace(lo, b, 400_001), np.geomspace(lo, b, 200_001)]))
    return float((v**s * np.abs(np.log(v)) ** m).max())


class TestGridSandwich:
    """The closed form, batched and scalar, must coincide with a brute-force grid maximum on [0, b]."""

    @pytest.mark.parametrize(
        "s,m,b",
        [
            (1.0, 1, 9.0),
            (1.065, 9, 9.0),
            (5.0, 3, 1.0 / 9.0),
            (2.23, 2, 9.0),
            (6.86, 11, 9.0),
        ],
    )
    def test_matches_dense_grid(self, s, m, b):
        grid = dense_grid_max(s, m, b)
        env = single(s, m, b)
        assert env == envelope_reference(s, m, 0.0, b)
        assert grid <= env * (1 + 1e-12), f"grid point above envelope: {grid} > {env}"
        assert env <= grid * (1 + 1e-9), f"envelope not attained: {env} vs grid {grid}"

    def test_random_windows(self, rng):
        for _ in range(25):
            b = float(rng.uniform(1e-3, 9.0))
            s = float(rng.uniform(0.2, 8.0))
            m = int(rng.integers(0, 6))
            grid = dense_grid_max(s, m, b)
            env = single(s, m, b)
            assert env == envelope_reference(s, m, 0.0, b)
            assert grid <= env * (1 + 1e-12)
            assert env <= grid * (1 + 1e-9) + 1e-12


class TestValidation:
    def test_rejects_bad_window(self):
        for b in (9.5, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=r"need 0 < b <= 9, got"):
                envelope_max([1.0], [1], b)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError, match="log exponent m must be an integer >= 0"):
            envelope_max([1.0], [-1], 9.0)
        with pytest.raises(ValueError, match="positive"):
            envelope_max([0.0], [2], 9.0)
        with pytest.raises(ValueError, match="positive"):  # one order with logs asks every power to be positive
            envelope_max([1.0, 0.0], [0, 2], 9.0)
        with pytest.raises(ValueError, match="nonnegative"):
            envelope_max([-1.0], [0], 9.0)

    def test_rejects_nan_log_exponent(self):
        """NaN fails every comparison, so the check is phrased m >= 0 negated; m < 0 let it through to a nan maximum."""
        with pytest.raises(ValueError, match="log exponent m must be an integer >= 0, got nan"):
            envelope_max([5.0], [math.nan], 1.0)
