"""Shared fixtures: the two squares, their maxima tables and pairs of both, a numpy oracle, and one sign's integral."""

import numpy as np
import pytest

from majorant.quadrature import _integrate_orders
from majorant.trigpoly import SignVariant, TrigSquare, default_max_table


@pytest.fixture(scope="session")
def plus_square():
    return TrigSquare(5, SignVariant.PLUS)


@pytest.fixture(scope="session")
def minus_square():
    return TrigSquare(5, SignVariant.MINUS)


@pytest.fixture(scope="session")
def plus_table(plus_square):
    return default_max_table(plus_square)


@pytest.fixture(scope="session")
def minus_table(minus_square):
    return default_max_table(minus_square)


@pytest.fixture(scope="session")
def squares(plus_square, minus_square, plus_table, minus_table):
    """The (square, maxima table) pairs of both signs, as the q and term-integral passes take them."""
    return [(plus_square, plus_table), (minus_square, minus_table)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def one_sign_integral(sign, t, n_steps, j, mode):
    """One sign's certified integral of G^t log^j G over [0, 1/2], as gap_derivatives computes it."""
    return _integrate_orders([sign], t, n_steps, [(j, mode)])[0][0]


def numpy_G(x, sign):
    """Vectorized G for either 'plus'/'minus' label or a SignVariant."""
    label = sign.value if isinstance(sign, SignVariant) else sign
    s = 1.0 if label == "plus" else -1.0
    return 3.0 + 2.0 * (
        np.cos(2 * np.pi * x) + s * np.cos(12 * np.pi * x) + s * np.cos(14 * np.pi * x)
    )


@pytest.fixture(scope="session")
def half_period_oracle():
    """Independent high-resolution Simpson integral of G^t log^j G over [0, 1/2].

    200k panels put the oracle's own error near 1e-10, far below every
    certified bound it is used to check.
    """

    def oracle(t, j, sign, panels=200_000):
        x = np.linspace(0.0, 0.5, panels + 1)
        g = np.maximum(numpy_G(x, sign), 1e-300)
        y = g**t * np.log(g) ** j
        h = 0.5 / panels
        return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())

    return oracle
