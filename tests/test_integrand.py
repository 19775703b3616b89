"""Tests for the integrand H = G^t log^j G and its fourth-derivative bounds."""

import math
import random
import re

import pytest

from majorant import integrand
from majorant.integrand import _GROUPS, WORK_M, IntegrandSpec, h4_bounds, h4_term_bounds
from majorant.quadrature import gap_derivatives
from majorant.trigpoly import TrigSquare, sup_norm_bound

from conftest import plain_h4_bound
from oracle import REFINED_GROUPS, SCALAR_GROUPS, eval_G, eval_H, eval_H_second, h4_term_bounds_reference, term_sum_value

PLUS, MINUS = "plus", "minus"


class TestWorkingConstants:
    def test_dominate_exact_sup_norms(self):
        for m, w in enumerate(WORK_M):
            assert w >= sup_norm_bound(m), f"order {m}: {w} below exact bound"

    def test_reasonably_tight(self):
        # the rounding headroom stays below one percent at every order
        for m, w in enumerate(WORK_M):
            assert w <= sup_norm_bound(m) * 1.01

    def test_oracle_groups_are_the_packages(self):
        """The oracle writes the five |H''''| groups out, naming brace k = -offset, and their per-kind sums with |G'| by WORK_M[1], exact integers."""
        assert tuple((const, offset, has_gprime) for const, offset, _, has_gprime in REFINED_GROUPS) == _GROUPS
        assert all(kind == ("linear", "quadratic", "cubic", "quartic")[-offset - 1] for _, offset, kind, _ in REFINED_GROUPS)  # brace k = -offset
        per_kind = {}
        for const, offset, kind, has_gprime in REFINED_GROUPS:
            per_kind[offset, kind] = per_kind.get((offset, kind), 0.0) + const * (WORK_M[1] if has_gprime else 1.0)
        assert SCALAR_GROUPS == tuple((const, offset, kind) for (offset, kind), const in per_kind.items())
        assert all(const == int(const) < 2**53 for const, _, _ in SCALAR_GROUPS)


class TestSpecValidation:
    def test_rejects_small_power(self):
        with pytest.raises(ValueError, match="^power t must be >= 5, got 0.5$"):
            IntegrandSpec(0.5, 0, PLUS)

    def test_rejects_bad_log_exponent(self):
        for j in (-1, 1.5, math.inf, -math.inf, math.nan, True, 2.0):  # True and 2.0 equal orders 1 and 2 but are no integers
            with pytest.raises(ValueError, match="log exponent j must be an integer >= 0"):
                IntegrandSpec(5.0, j, PLUS)

    def test_replace_checks_too(self):
        with pytest.raises(ValueError, match="t must be >= 5"):
            IntegrandSpec(5.0, 0, PLUS)._replace(t=0.5)
        assert IntegrandSpec(5.0, 0, PLUS)._replace(j=2) == IntegrandSpec(5.0, 2, PLUS)

    def test_sign_label_is_its_variant(self):
        """A label in any case is stored lower-case, as for TrigSquare; any other sign is refused, through _replace too."""
        assert IntegrandSpec(5.5, 2, "plus").sign == PLUS and IntegrandSpec(5.5, 2, "MINUS").sign == MINUS == "minus"
        assert IntegrandSpec(5.5, 2, MINUS)._replace(sign="plus") == IntegrandSpec(5.5, 2, PLUS)
        for sign in ("bogus", None, 1):
            with pytest.raises(ValueError, match="unknown sign variant"):
                IntegrandSpec(5.5, 2, sign)
        with pytest.raises(ValueError, match="unknown sign variant"):
            IntegrandSpec(5.5, 2, PLUS)._replace(sign="bogus")

    @pytest.mark.parametrize("k", [0, 4, 6, 40])
    def test_rejects_k_other_than_five(self, k):
        """WORK_M holds sup bounds for k = 5 only (k = 40 once got a k = 5 bound), so k is no parameter."""
        with pytest.raises(TypeError, match="unexpected keyword argument 'k'"):
            IntegrandSpec(5.5, 1, MINUS, k=k)


class TestEvalH:
    def test_frozen_values(self):
        assert eval_H(IntegrandSpec(5, 0, PLUS), 0.0) == 59049.0
        assert eval_H(IntegrandSpec(5, 2, PLUS), 0.0) == pytest.approx(
            285076.51674808864, rel=1e-13
        )
        # G = 1 at the half-period symmetry point, so any log power kills H
        assert eval_H(IntegrandSpec(5, 1, MINUS), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_log_sign_preserved(self):
        # G < 1 regions contribute with the sign of log^j
        spec = IntegrandSpec(5, 1, MINUS)
        x = 0.15  # in the valley between the first two maxima of the minus square
        g = eval_G(TrigSquare(5, MINUS), x)
        assert g < 1.0
        assert eval_H(spec, x) < 0.0


class TestEvalHSecond:
    def test_frozen_values(self):
        # at x = 0: G = 9, G' = 0, G'' = -8 pi^2 (1 + 36 + 49)
        expected = 5.0 * 9.0**4 * (-8.0 * math.pi**2 * 86.0)
        assert eval_H_second(IntegrandSpec(5, 0, PLUS), 0.0) == pytest.approx(
            expected, rel=1e-13
        )
        # at x = 1/2 the minus square has G = 1: only the j * L^(j-1) term survives
        assert eval_H_second(IntegrandSpec(5, 1, MINUS), 0.5) == pytest.approx(
            -8.0 * math.pi**2 * 12.0, rel=1e-12
        )

    @pytest.mark.parametrize("t", [5.0, 5.5])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_matches_finite_difference(self, t, j, rng):
        """Richardson-extrapolated central differences must hit the closed form."""

        def central(spec, x, h):
            return (eval_H(spec, x + h) - 2.0 * eval_H(spec, x) + eval_H(spec, x - h)) / h**2

        for sign in (PLUS, MINUS):
            spec = IntegrandSpec(t, j, sign)
            checked = 0
            for x in rng.uniform(0.01, 0.49, size=60):
                if eval_G(TrigSquare(5, sign), x) < 0.5:
                    continue  # skip ill-conditioned spots near deep minima
                # one Richardson step cancels the h^2 truncation term, which
                # alone can reach ~400 absolute where the fourth derivative
                # of the integrand is large
                fd = (4.0 * central(spec, x, 1e-4) - central(spec, x, 2e-4)) / 3.0
                exact = eval_H_second(spec, x)
                assert exact == pytest.approx(fd, rel=1e-5, abs=100.0), (
                    f"t={t} j={j} {sign} x={x}: {exact} vs {fd}"
                )
                checked += 1
            assert checked > 20, "sampling rejected too many points"


class TestFourthDerivativeBounds:
    def test_frozen_plain_bounds(self):
        assert plain_h4_bound(5, 0) == pytest.approx(12455527870080.0, rel=1e-12)
        assert plain_h4_bound(5, 3) == pytest.approx(282932124114527.6, rel=1e-12)

    def test_plain_bound_assembly_without_logs(self):
        # with j = 0 each brace collapses to a falling factorial of t, so the
        # whole bound is four explicit products of per-kind constant, brace
        # value and envelope maximum
        by_hand = (
            120.0 * 9.0 * 176.0**4
            + 60.0 * 81.0 * (6.0 * 176.0**2 * 6800.0)
            + 20.0 * 729.0 * 335840000.0
            + 5.0 * 6561.0 * 11600000.0
        )
        assert plain_h4_bound(5, 0) == pytest.approx(by_hand, rel=1e-12)

    def test_term_coefficients_are_exact_integers(self):
        """Group constants times brace coefficients at t = 5, j = 1 and j = 2."""
        terms1 = keyed(5, h4_term_bounds(IntegrandSpec(5, 1, PLUS))[1])
        by_group1 = {
            (t_r, j_r, has_gprime): c for c, (has_gprime, t_r, j_r) in terms1
        }
        assert by_group1 == {
            (1.0, 0, True): 839573504.0,
            (1.0, 1, True): 654213120.0,
            (2.0, 0, True): 337497600.0,
            (2.0, 1, True): 430848000.0,
            (3.0, 0, True): 10080000.0,
            (3.0, 1, True): 22400000.0,
            (3.0, 0, False): 1248480000.0,
            (3.0, 1, False): 2774400000.0,
            (4.0, 0, False): 11600000.0,
            (4.0, 1, False): 58000000.0,
        }
        terms2 = keyed(5, h4_term_bounds(IntegrandSpec(5, 2, PLUS))[1])
        quartic2 = {
            j_r: c
            for c, (has_gprime, t_r, j_r) in terms2
            if t_r == 1.0 and has_gprime
        }
        assert quartic2 == {0: 774152192.0, 1: 1679147008.0, 2: 654213120.0}

    def test_term_sum_dominates_finite_difference(self, rng):
        """The pointwise term bound must cover a numeric fourth derivative."""
        h = 1e-4
        for spec in (IntegrandSpec(5, 1, PLUS), IntegrandSpec(5, 2, MINUS)):
            terms, trig = keyed(spec.t, h4_term_bounds(spec)[1]), TrigSquare(5, spec.sign)
            plain = plain_h4_bound(spec.t, spec.j)
            for x in rng.uniform(0.02, 0.48, size=40):
                if eval_G(trig, x) < 0.5:
                    continue
                fd4 = (
                    eval_H_second(spec, x + h)
                    - 2.0 * eval_H_second(spec, x)
                    + eval_H_second(spec, x - h)
                ) / h**2
                slack = 1e-4 * abs(fd4) + 2e4  # difference-quotient noise floor
                assert abs(fd4) <= term_sum_value(terms, trig, x) + slack
                assert abs(fd4) <= plain + slack


# The t of the default proof's batches and of its plain stage, then seeded t in [5, 40]; orders 0..30 and two past any proof.
BUILDER_POWERS = [5.0, 5.065, 5.23, 5.525, 5.86, 6.0] + [random.Random(17).uniform(5.0, 40.0) for _ in range(6)]
BUILDER_ORDERS = list(range(31)) + [10**6, 10**15]


def bits(terms):
    """A term list with every float as its hex string, so that equality is bitwise."""
    return [(c.hex(), has_gprime, t_r.hex(), j_r) for c, (has_gprime, t_r, j_r) in terms]


def keyed(t, terms):
    """A refined term list of h4_bounds at t with each group index written as its key (has_gprime, t + offset), from the group table."""
    return tuple((c, (_GROUPS[group][2], t + _GROUPS[group][1], p)) for c, group, p in terms)


class TestBraceBuilder:
    """h4_bounds takes the brace polynomials once per t; every bound equals the per-order formula bit for bit."""

    def test_term_lists_equal_the_per_order_reference(self):
        for t in BUILDER_POWERS:
            built = h4_bounds(t, BUILDER_ORDERS)
            for j, terms in zip(BUILDER_ORDERS, built):
                assert bits(keyed(t, terms)) == bits(h4_term_bounds_reference(t, j)), (t, j)
                kinds, same = h4_term_bounds(IntegrandSpec(t, j, MINUS))
                assert same == terms and [(*kinds[group], p) for _, group, p in terms] == [key for _, key in keyed(t, terms)], (t, j)

    def test_brace_polynomials_are_taken_once_per_call(self, monkeypatch):
        calls = []
        real = integrand._brace_rows
        monkeypatch.setattr(integrand, "_brace_rows", lambda t: calls.append(t) or real(t))
        h4_bounds(5.525, range(31))
        for mode in ("plain", "refined"):  # one h4_bounds call per gap_derivatives batch
            gap_derivatives(5.525, 300, range(31), mode)
        assert calls == [5.525] * 3

    def test_orders_are_checked_in_turn(self):
        """The first order that a bound refuses names the error, as when each order was built on its own."""
        with pytest.raises(ValueError, match="log exponent j must be an integer >= 0, got -1"):
            h4_bounds(5.5, [1, -1, 10**80])
        with pytest.raises(ValueError, match=r"j ~ 10\^80\.0 is too large"):
            h4_bounds(5.5, [1, 10**80, -1])

    @pytest.mark.parametrize("t", [math.inf, 1e80, 5e102])
    def test_power_whose_polynomials_overflow_is_refused(self, t):
        """At t = inf the brace polynomials are inf - inf; an overflowing polynomial is refused by name, never a nan or inf bound."""
        message = "^" + re.escape(f"power t = {t!r} is too large to evaluate: the fourth-derivative bound overflows a float") + "$"
        with pytest.raises(ValueError, match=message):
            h4_bounds(t, [2])
        with pytest.raises(ValueError, match=message):
            h4_term_bounds(IntegrandSpec(t, 2, PLUS))


class TestFaaDiBrunoAgainstCalculus:
    """The generated expansion, partitions times the falling-factorial braces, is the derivative of H, in mpmath."""

    @pytest.mark.parametrize("r, groups", [(4, 5), (6, 11), (8, 22)])
    def test_expansion_equals_numerical_derivative(self, r, groups):
        """At r = 4, 6 and 8, seeded (x, t, j) and both signs, sum over partitions of count * prod G^(m) * phi^(k)(G) is mpmath.diff of H to 20 digits."""
        mpmath = pytest.importorskip("mpmath")
        expansion_groups = integrand._faa_di_bruno(r)
        assert len(expansion_groups) == groups and {sum(parts) for _, parts in expansion_groups} == {r}
        rng = random.Random(r)
        with mpmath.workdps(50):
            for sign in (1, -1):
                for _ in range(2):
                    x, t, j = mpmath.mpf(rng.uniform(0.01, 0.49)), mpmath.mpf(rng.uniform(5.0, 9.0)), rng.randrange(7)

                    def g_derivative(m, y=x):  # d^m/dy^m of G = 3 + 2 (cos 2 pi y + s cos 12 pi y + s cos 14 pi y)
                        waves = ((1, 1), (sign, 6), (sign, 7))
                        return (3 if m == 0 else 0) + 2 * sum(c * (2 * mpmath.pi * f) ** m * mpmath.cos(2 * mpmath.pi * f * y + m * mpmath.pi / 2) for c, f in waves)

                    g, ell = g_derivative(0), mpmath.log(g_derivative(0))
                    expansion = mpmath.fsum(
                        count * mpmath.fprod(g_derivative(m) for m in parts) * g ** (t - len(parts))
                        * mpmath.fsum(mpmath.polyval(row, t) * mpmath.ff(j, i) * ell ** (j - i) for i, row in enumerate(integrand._falling_rows(len(parts))) if i <= j)
                        for count, parts in expansion_groups
                    )
                    truth = mpmath.diff(lambda y: g_derivative(0, y) ** t * mpmath.log(g_derivative(0, y)) ** j, x, r)
                    assert abs(expansion - truth) <= mpmath.mpf(10) ** -20 * abs(truth), (r, sign, x, t, j)
