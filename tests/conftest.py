"""Shared fixtures: the two squares, their maxima tables and the list of both, a numpy oracle, one sign's integral and the plain |H''''| bound."""

import math

import numpy as np
import pytest

from majorant.integrand import h4_bounds, term_kinds
from majorant.quadrature import _INTEGRAL_WEIGHTS, CertifiedValue, _cells, _error_bounds, _h_node_sums, _integral_bases, _node_table, _sup_cells
from majorant.trigpoly import TrigSquare, default_max_table


@pytest.fixture(scope="session")
def plus_square():
    return TrigSquare(5, "plus")


@pytest.fixture(scope="session")
def minus_square():
    return TrigSquare(5, "minus")


@pytest.fixture(scope="session")
def plus_table(plus_square):
    return default_max_table(plus_square)


@pytest.fixture(scope="session")
def minus_table(minus_square):
    return default_max_table(minus_square)


@pytest.fixture(scope="session")
def tables(plus_table, minus_table):
    """The maxima tables of both signs, plus first, as the q and term-integral passes take them."""
    return [plus_table, minus_table]


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def one_sign_integral(sign, t, n_steps, j, mode):
    """One sign's certified integral of G^t log^j G over [0, 1/2], from the parts gap_derivatives assembles.

    The estimate is the sign's node sum over 2N; the error bound sums the
    terms of order j over the plain sup cells or over the sign's refined
    cells, each as gap_derivatives builds them: the five groups at the log
    orders of the terms.
    """
    (terms,) = h4_bounds(t, [j])
    estimate = _h_node_sums(_node_table(n_steps)[sign], t, [j])[j] / (2.0 * n_steps)
    kinds, orders = term_kinds(t), {p for _, _, p in terms}
    if mode == "refined":
        cells = _cells(kinds, orders, _INTEGRAL_WEIGHTS, _integral_bases(kinds, [default_max_table(TrigSquare(5, sign))]))
    else:
        cells = [_sup_cells(kinds, orders)]
    ((error,),) = _error_bounds([terms], cells, n_steps)
    return CertifiedValue(estimate, error, n_steps, mode)


def plain_h4_bound(t, j):
    """The plain |H''''| bound of order j at t, both signs: its terms summed over the sup cells, as the plain error bound is before 23040 N^4."""
    (terms,) = h4_bounds(t, [j])
    cells = _sup_cells(term_kinds(t), {p for _, _, p in terms})
    return math.fsum([c * cells[p][group] for c, group, p in terms])


def numpy_G(x, sign):
    """Vectorized G for the sign label 'plus' or 'minus'."""
    s = 1.0 if sign == "plus" else -1.0
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
