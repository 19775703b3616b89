"""Tests for the closed-form power-log envelope maxima."""

import math

import numpy as np
import pytest

from majorant.envelope import envelope_max


class TestClosedForm:
    def test_monotone_case_without_logs(self):
        assert envelope_max(2.0, 0, 0.0, 9.0) == 81.0
        assert envelope_max(0.0, 0, 0.0, 5.0) == 1.0

    def test_frozen_values(self):
        assert envelope_max(1.065, 9, 0.0, 9.0) == pytest.approx(
            27126.001276300565, rel=1e-13
        )
        assert envelope_max(2.0, 1, 0.0, 9.0) == pytest.approx(
            81.0 * math.log(9.0), rel=1e-13
        )

    def test_interior_peak_below_one(self):
        # on [0, 1] the peak of v^s |log v|^m sits at exp(-m/s)
        assert envelope_max(5.0, 2, 0.0, 1.0) == pytest.approx(
            (2.0 / (5.0 * math.e)) ** 2, rel=1e-13
        )

    def test_peak_excluded_when_window_misses_it(self):
        # v0 = exp(-2/5) ~ 0.67 < 0.9, so only the endpoints compete
        value = envelope_max(5.0, 2, 0.9, 9.0)
        assert value == pytest.approx(9.0**5 * math.log(9.0) ** 2, rel=1e-13)

    def test_overflow_gives_infinity(self):
        # the interior peak (400/(5e))^400 and 9^400 exceed the float range; inf still bounds them
        assert envelope_max(5.0, 400, 0.0, 9.0) == math.inf
        assert envelope_max(400.0, 0, 0.0, 9.0) == math.inf


def dense_grid_max(s, m, a, b):
    # geometric spacing resolves peaks near zero that a linear grid undersamples
    lo = max(a, 1e-12)
    v = np.unique(
        np.concatenate([np.linspace(lo, b, 400_001), np.geomspace(lo, b, 200_001)])
    )
    return float((v**s * np.abs(np.log(v)) ** m).max())


class TestGridSandwich:
    """The closed form must coincide with a brute-force grid maximum."""

    @pytest.mark.parametrize(
        "s,m,a,b",
        [
            (1.0, 1, 0.0, 9.0),
            (1.065, 9, 0.0, 9.0),
            (5.0, 3, 0.0, 1.0 / 9.0),
            (2.23, 2, 0.0, 9.0),
            (4.0, 1, 0.5, 2.0),
            (6.86, 11, 0.0, 9.0),
        ],
    )
    def test_matches_dense_grid(self, s, m, a, b):
        grid = dense_grid_max(s, m, a, b)
        env = envelope_max(s, m, a, b)
        assert grid <= env * (1 + 1e-12), f"grid point above envelope: {grid} > {env}"
        assert env <= grid * (1 + 1e-9), f"envelope not attained: {env} vs grid {grid}"

    def test_random_windows(self, rng):
        for _ in range(25):
            a, b = sorted(rng.uniform(0.0, 9.0, size=2))
            if b - a < 1e-3:
                continue
            s = float(rng.uniform(0.2, 8.0))
            m = int(rng.integers(0, 6))
            grid = dense_grid_max(s, m, a, b)
            env = envelope_max(s, m, a, b)
            assert grid <= env * (1 + 1e-12)
            assert env <= grid * (1 + 1e-9) + 1e-12


class TestValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="0 <= a < b <= 9"):
            envelope_max(1.0, 1, 2.0, 1.0)
        with pytest.raises(ValueError, match="0 <= a < b <= 9"):
            envelope_max(1.0, 1, 0.0, 9.5)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError, match="nonnegative"):
            envelope_max(1.0, -1, 0.0, 9.0)
        with pytest.raises(ValueError, match="positive"):
            envelope_max(0.0, 2, 0.0, 9.0)
        with pytest.raises(ValueError, match="nonnegative"):
            envelope_max(-1.0, 0, 0.0, 9.0)

    def test_rejects_nan_log_exponent(self):
        """NaN fails every comparison, so the check is phrased m >= 0 negated; m < 0 let it through to a nan maximum."""
        with pytest.raises(ValueError, match="log exponent must be a nonnegative integer, got nan"):
            envelope_max(5.0, math.nan, 0.0, 1.0)
