"""Tests for the exact frequency-side arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest

from majorant.spectral import (
    endpoint_difference_zero,
    fourier_coeffs_pow,
    torus_integral_upper,
    torus_power_integral,
)
from majorant.trigpoly import SignVariant

from conftest import numpy_G
from oracle import TORUS_MOMENTS, parseval_integral, torus_anchor_bounds


def convolution_coeffs(sign: SignVariant, rho: int) -> list[int]:
    """Oracle: coefficients of F^rho by repeated integer convolution."""
    s = 1 if sign is SignVariant.PLUS else -1
    base = [1, 1, 0, 0, 0, 0, 0, s]
    out = [1]
    for _ in range(rho):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            if a:
                for k, b in enumerate(base):
                    if b:
                        nxt[i + k] += a * b
        out = nxt
    return out


class TestFourierCoeffs:
    def test_first_power(self):
        plus = fourier_coeffs_pow(SignVariant.PLUS, 1)
        minus = fourier_coeffs_pow(SignVariant.MINUS, 1)
        assert plus == (1, 1, 0, 0, 0, 0, 0, 1)
        assert minus == (1, 1, 0, 0, 0, 0, 0, -1)

    def test_second_power(self):
        minus = fourier_coeffs_pow(SignVariant.MINUS, 2)
        expected = [0] * 15
        expected[0], expected[1], expected[2] = 1, 2, 1
        expected[7], expected[8] = -2, -2
        expected[14] = 1
        assert list(minus) == expected

    @pytest.mark.parametrize("rho", range(7))
    @pytest.mark.parametrize("sign", [SignVariant.PLUS, SignVariant.MINUS])
    def test_matches_convolution_oracle(self, rho, sign):
        closed = fourier_coeffs_pow(sign, rho)
        assert list(closed) == convolution_coeffs(sign, rho)

    def test_overlapping_blocks_rejected(self):
        """Beyond rho = k+1 = 6 the blocks overlap, which the closed form cannot express.

        At rho = 7 it would miss overlaps (Parseval sum 272834 against the
        convolution's 272849), so it refuses rather than return a wrong expansion.
        """
        assert sum(c * c for c in convolution_coeffs(SignVariant.PLUS, 7)) == 272849
        for sign in SignVariant:
            with pytest.raises(ValueError, match=r"^rho must be an integer in 0\.\.6, got 7$"):
                fourier_coeffs_pow(sign, 7)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match=r"^rho must be an integer in 0\.\.6, got -1$"):
            fourier_coeffs_pow(SignVariant.PLUS, -1)


class TestTorusPowerIntegral:
    def test_frozen_integers(self):
        assert [torus_power_integral(rho) for rho in range(7)] == [
            1, 3, 15, 93, 639, 4653, 35169,
        ]
        assert TORUS_MOMENTS == (1, 3, 15, 93, 639, 4653, 35169)  # the oracle's copy

    @pytest.mark.parametrize("rho", range(7))
    def test_matches_convolution_parseval(self, rho):
        truth = sum(c * c for c in convolution_coeffs(SignVariant.MINUS, rho))
        assert torus_power_integral(rho) == truth

    def test_rejects_exponent_beyond_window(self):
        with pytest.raises(ValueError, match=r"^rho must be an integer in 0\.\.6, got 7$"):
            torus_power_integral(7)

    def test_parseval_integral_is_exact_fraction(self):
        half = parseval_integral(5)
        assert half == Fraction(4653, 2)
        assert isinstance(half, Fraction)


class TestPowerIntegralBound:
    def test_integer_powers_exact(self):
        assert torus_integral_upper(5.0) == 4653.0
        assert torus_integral_upper(1.0) == 3.0

    def test_frozen_noninteger_values(self):
        # tau = 5.5 is anchored at rho = 5 through the pointwise 9^(tau-rho) lift
        assert torus_integral_upper(5.5) == pytest.approx(13959.0, rel=1e-12)
        assert torus_integral_upper(11.0) == pytest.approx(2076694281.0, rel=1e-12)
        assert torus_integral_upper(10.0) == pytest.approx(230743809.0, rel=1e-12)

    def test_half_period_bound_cases(self):
        """Both anchor branches, exactly: each full-period bound is twice the half-period one it stands for."""
        # above the anchor: scale by the global maximum (rho = 6 gives the least)
        assert torus_integral_upper(7.0) == 9.0 * 35169.0 == 316521.0
        # below the anchor: Jensen's inequality on the unit-mass period (rho = 5 gives the least)
        assert torus_integral_upper(4.9) == 4653.0 ** (4.9 / 5.0) == 3929.87187601025

    def test_least_anchor_on_seeded_sweep(self, rng):
        """Off the integers 1..6, the bound is bitwise the least of the oracle's six anchors, up to and past overflow."""
        powers = np.concatenate([rng.uniform(0.0, 400.0, 2000), rng.uniform(0.0, 8.0, 500), [1e-300, 5e-324, 322.9, 323.5]])
        for t in map(float, powers):
            if t > 0.0 and not (t.is_integer() and t <= 6):
                assert torus_integral_upper(t).hex() == min(torus_anchor_bounds(t)).hex(), t
        assert torus_integral_upper(400.0) == math.inf

    @pytest.mark.parametrize("tau", [1.3, 2.5, 5.5, 6.2, 7.9, 11.0])
    @pytest.mark.parametrize("label", ["plus", "minus"])
    def test_dominates_numeric_mean(self, tau, label):
        x = np.linspace(0.0, 1.0, 1_000_001)[:-1]
        mean = float((numpy_G(x, label) ** tau).mean())
        assert mean <= torus_integral_upper(tau) * (1 + 1e-9), (
            f"tau={tau} {label}: numeric mean {mean} above bound"
        )

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError, match="positive"):
            torus_integral_upper(0.0)
        with pytest.raises(ValueError, match="positive"):
            torus_integral_upper(-1.0)


class TestEndpointDifference:
    def test_gap_vanishes_at_integer_endpoints(self):
        assert endpoint_difference_zero() is True

    def test_numeric_agreement(self):
        x = np.linspace(0.0, 1.0, 1_000_001)[:-1]
        for rho in (5, 6):
            mp = float((numpy_G(x, "plus") ** rho).mean())
            mm = float((numpy_G(x, "minus") ** rho).mean())
            assert mp == pytest.approx(torus_power_integral(rho), rel=1e-9)
            assert mm == pytest.approx(torus_power_integral(rho), rel=1e-9)
