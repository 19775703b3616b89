"""One rule per argument kind: every integer argument through check_int, every sign through parse_sign, every power t >= 5.

Each public entry that takes an order, exponent or count is called with the
values that equal or resemble an int but are none (True == 1, 2.0 == 2), a
fraction, a negative, nan and, where the range has an upper end, the value
past it; each must raise the one ValueError of check_int, naming the argument.
Each entry that takes the power t of H = G^t log^j G, and the derivative
command in both modes, refuses t < 5 and nan with one message, before any
cosine is taken.
"""

import math
import re

import pytest

import majorant.cli
from majorant import (
    IntegrandSpec,
    TaylorCertificate,
    TrigSquare,
    envelope_max,
    eval_cert_poly,
    fourier_coeffs_pow,
    gap_derivative,
    h4_term_bounds,
    quadrature,
    sup_norm_bound,
    torus_power_integral,
)
from majorant.certify import MAX_DEGREE, build_certificate, remainder_bound
from majorant.integrand import h4_bounds
from majorant.quadrature import MODES
from majorant.trigpoly import MAX_STEPS, check_int

_CERT = TaylorCertificate(5.5, 0.1, 1, 3, (1.0, 2.0, 3.0, 4.0), (0.0,) * 4, (1.0,) * 4, 0.0, 1.0)
_COEFFS = (1.0,) * (MAX_DEGREE + 2)  # one past what MAX_DEGREE takes, so a degree above it has its coefficients and only the degree rule refuses it


def _build(degree):
    """build_certificate at degree with unbounded budgets, one per coefficient (one if degree is no int >= 0), so every valid degree builds."""
    budgets = [math.inf] * (max(degree + 1, 1) if type(degree) is int else 1)
    return build_certificate(5.5, 0.1, 1, degree, budgets, 1, "plain", math.inf)


# entry id: (the argument as the message names it, a call taking that one argument, its range lo..hi, hi None if open)
INTEGER_ARGUMENTS = {
    "envelope_max-m": ("log exponent m", lambda v: envelope_max([5.0], [v], 9.0), 0, None),
    "fourier_coeffs_pow-rho": ("rho", lambda v: fourier_coeffs_pow("plus", v), 0, 6),
    "torus_power_integral-rho": ("rho", torus_power_integral, 0, 6),
    "sup_norm_bound-m": ("derivative order m", sup_norm_bound, 0, None),
    "eval_cert_poly-m": ("derivative order m", lambda v: eval_cert_poly(_CERT, v, 5.5), 0, _CERT.degree),
    "remainder_bound-base_order": ("base_order", lambda v: remainder_bound(5.5, 0.1, v, 3), 0, None),
    "remainder_bound-degree": ("degree", lambda v: remainder_bound(5.5, 0.1, 1, v), 0, MAX_DEGREE),
    "build_certificate-degree": ("degree", _build, 0, MAX_DEGREE),
    "TaylorCertificate-degree": ("degree", lambda v: TaylorCertificate(5.5, 0.1, 1, v, _COEFFS, (), (), 0.0, 1.0), 0, MAX_DEGREE),
    "gap_derivative-order": ("log exponent j", lambda v: gap_derivative(v, 5.5, 100), 0, None),
    "gap_derivative-steps": ("step count", lambda v: gap_derivative(1, 5.5, v), 1, MAX_STEPS),
    "IntegrandSpec-j": ("log exponent j", lambda v: IntegrandSpec(5.5, v, "plus"), 0, None),
    "TrigSquare-k": ("k", lambda v: TrigSquare(v, "plus"), 5, 5),
}


def _refusals():
    for entry, (name, call, _, hi) in INTEGER_ARGUMENTS.items():
        for value in (True, 2.0, 1.5, -1, math.nan) + (() if hi is None else (hi + 1,)):
            yield pytest.param(name, call, value, id=f"{entry}-{value!r}")


@pytest.mark.parametrize("name,call,value", list(_refusals()))
def test_integer_argument_refusal_names_the_argument(name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer .*, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_argument_range_ends_are_accepted(entry):
    """Each range's lower end, and its upper end where it has one, pass the rule; the MAX_STEPS end (a 10^6-node pass) is not tried."""
    _, call, lo, hi = INTEGER_ARGUMENTS[entry]
    call(lo)
    if hi is not None and hi != MAX_STEPS:
        call(hi)


# entry id: a call taking the power t alone, each through integrand's one power rule
POWER_ARGUMENTS = {
    "IntegrandSpec": lambda t: IntegrandSpec(t, 1, "plus"),
    "IntegrandSpec._replace": lambda t: IntegrandSpec(5.5, 1, "plus")._replace(t=t),
    "h4_bounds": lambda t: h4_bounds(t, [0, 1]),
    "h4_term_bounds": lambda t: h4_term_bounds(tuple.__new__(IntegrandSpec, (t, 1, "plus"))),  # a spec built past its own check
    "gap_derivative-plain": lambda t: gap_derivative(1, t, 10, "plain"),
    "gap_derivative-refined": lambda t: gap_derivative(1, t, 10, "refined"),
}
SMALL_POWERS = (4.0, 4.5, math.nextafter(5.0, 0.0), math.nan)  # the float just below 5 is 4.999999999999999


@pytest.fixture
def cosine_passes(monkeypatch):
    """The eval_G_pair calls of the node layer while the test runs, from a cleared node table and batch memo."""
    quadrature._NODE_TABLE.clear()
    quadrature._gap_batch.cache_clear()
    calls, real = [], quadrature.eval_G_pair
    monkeypatch.setattr(quadrature, "eval_G_pair", lambda xs: calls.append(xs) or real(xs))
    return calls


@pytest.mark.parametrize("t", SMALL_POWERS, ids=repr)
@pytest.mark.parametrize("entry", POWER_ARGUMENTS)
def test_power_below_five_is_refused_before_any_cosine(entry, t, cosine_passes):
    with pytest.raises(ValueError, match=f"^power t must be >= 5, got {t}$"):
        POWER_ARGUMENTS[entry](t)
    assert cosine_passes == []


@pytest.mark.parametrize("t", SMALL_POWERS, ids=repr)
@pytest.mark.parametrize("mode", MODES)
def test_derivative_command_refuses_a_power_below_five(mode, t, capsys, cosine_passes):
    assert majorant.cli.main(["derivative", "--order", "1", "--t", str(t), "--steps", "10", "--mode", mode]) == 2
    assert capsys.readouterr() == ("", f"error: power t must be >= 5, got {t}\n")
    assert cosine_passes == []


@pytest.mark.parametrize("entry", POWER_ARGUMENTS)
def test_the_least_power_five_is_accepted(entry, cosine_passes):
    """t = 5 passes the rule, so the check is t >= 5, not t > 5; a gap derivative then takes its one cosine pass."""
    POWER_ARGUMENTS[entry](5.0)
    assert len(cosine_passes) == entry.startswith("gap_derivative")


class TestCheckInt:
    def test_bounds_are_inclusive(self):
        assert check_int("n", 0, 0) is None
        assert check_int("n", 10**30, 0) is None
        assert check_int("n", 5, 5, 5) is None

    @pytest.mark.parametrize("lo,hi,value,message", [
        (0, None, -1, "n must be an integer >= 0, got -1"),
        (1, 9, 10, "n must be an integer in 1..9, got 10"),
        (1, 9, 0, "n must be an integer in 1..9, got 0"),
        (0, None, True, "n must be an integer >= 0, got True"),
        (0, None, 3.0, "n must be an integer >= 0, got 3.0"),
        (0, None, "3", "n must be an integer >= 0, got '3'"),
    ])
    def test_message_names_argument_and_range(self, lo, hi, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_int("n", value, lo, hi)


class TestSignArguments:
    @pytest.mark.parametrize("rho", range(7))
    def test_fourier_coeffs_pow_takes_a_label(self, rho):
        """A label gives its own variant's row; "minus" once gave the plus row."""
        assert fourier_coeffs_pow("minus", rho) == fourier_coeffs_pow("MINUS", rho)
        assert fourier_coeffs_pow("plus", rho) == fourier_coeffs_pow("Plus", rho)
        if rho > 0:  # the rows differ from rho = 1 on: the coefficient at frequency 7 is the sign
            assert fourier_coeffs_pow("minus", rho) != fourier_coeffs_pow("plus", rho)

    def test_fourier_coeffs_pow_refuses_an_unknown_label(self):
        with pytest.raises(ValueError, match="unknown sign variant 'foo'"):
            fourier_coeffs_pow("foo", 2)
