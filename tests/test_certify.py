"""Tests for Taylor certificates and the two sign-verdict mechanisms."""

import copy
import hashlib
import math
import pickle
import random
import re

import pytest

import majorant.certify as certify
from majorant.certify import (
    BudgetError,
    SignCertificate,
    TaylorCertificate,
    _endpoints,
    build_certificate,
    check_sign_chain,
    check_sign_variation,
    check_signs,
    check_window,
    eval_cert_poly,
    remainder_bound,
)
from majorant.pipeline import DEFAULT_CONFIG, prove_k5
from majorant.quadrature import CertifiedValue, gap_derivatives

from conftest import plain_h4_bound
from oracle import envelope_reference, required_steps, taylor_row_reference


def stage_certificate(name):
    stage = DEFAULT_CONFIG["stages"][name]
    cert = build_certificate(
        stage["center"], stage["radius"], stage["base_order"], stage["degree"],
        stage["budgets"], stage["steps"], stage["mode"], stage["total_delta"],
    )
    return cert, stage


STAGE_NAMES = ("gap_d4_on_5.000_5.130", "gap_d1_on_5.130_5.330", "gap_d1_on_5.330_5.720", "gap_d2_on_5.720_6.000")
SIGN_CHECK_DIGEST = "bc2be3b623a1a2d1ed05c7ef389693844139c81e03996107b6d0593a11e93301"


def check_one(method, cert, target, interval):
    """The verdict of the sign check that method names on one interval: check_signs on [interval]."""
    return check_signs(method, cert, target, [interval])[0][0]


def table_row(cert, t):
    """Every derivative 0..degree of the certificate polynomial at t, the row check_signs takes there: one _values of cert.taylor."""
    return certify._values(cert.taylor, t - cert.center)


def sign_check_digest():
    """sha256 of the repr of the verdicts on 300 seeded sub-intervals of the four stage certificates' windows.

    Each sub-interval is checked with its stage's method and target; 5 of the 300 verdicts are not certified.
    """
    stages = [stage_certificate(name) for name in STAGE_NAMES]
    rng = random.Random(28)
    verdicts = []
    for _ in range(300):
        cert, stage = rng.choice(stages)
        a, b = cert.center - cert.radius, cert.center + cert.radius
        lo, hi = sorted((rng.uniform(a, b), rng.uniform(a, b)))
        verdicts.append(check_one(stage["method"], cert, stage["target"], (lo, hi)))
    return hashlib.sha256("".join(map(repr, verdicts)).encode()).hexdigest()


@pytest.fixture(scope="module")
def cert_a():
    return stage_certificate("gap_d4_on_5.000_5.130")[0]


@pytest.fixture(scope="module")
def cert_b():
    return stage_certificate("gap_d1_on_5.130_5.330")[0]


@pytest.fixture(scope="module")
def cert_c():
    return stage_certificate("gap_d1_on_5.330_5.720")[0]


@pytest.fixture(scope="module")
def cert_d():
    return stage_certificate("gap_d2_on_5.720_6.000")[0]


class TestCheckSign:
    def test_same_verdict_as_the_named_checker(self, cert_a, cert_b, cert_c, cert_d):
        """On the five stage intervals of the default proof, check_signs on one interval is the checker its method names."""
        checkers = {"chain": check_sign_chain, "cascade": check_sign_variation}
        certs = {"gap_d4_on_5.000_5.130": cert_a, "gap_d1_on_5.130_5.330": cert_b,
                 "gap_d1_on_5.330_5.720": cert_c, "gap_d2_on_5.720_6.000": cert_d}
        checked = 0
        for name, cert in certs.items():
            stage = DEFAULT_CONFIG["stages"][name]
            for interval in stage["intervals"]:
                verdict = check_one(stage["method"], cert, stage["target"], interval)
                assert verdict == checkers[stage["method"]](cert, stage["target"], interval)
                assert verdict.certified
                checked += 1
        assert checked == 5

    @pytest.mark.parametrize("name,intervals", [pytest.param(name, None, id=name) for name in STAGE_NAMES] + [
        # chains over abutting intervals: a shared end is first a right end, whose row is partial, then a left end
        pytest.param(STAGE_NAMES[0], [(5.0, 5.065), (5.065, 5.13)], id="gap_d4_on_5.000_5.130-abutting"),
        pytest.param(STAGE_NAMES[0], [(5.065, 5.13), (5.0, 5.065)], id="gap_d4_on_5.000_5.130-abutting-reversed"),
        pytest.param(STAGE_NAMES[3], [(5.72, 5.86), (5.86, 6.0)], id="gap_d2_on_5.720_6.000-abutting"),
    ])
    def test_check_signs_is_check_sign_per_interval(self, name, intervals):
        """One call gives each interval (the stage's, unless given) its one-interval verdict, and each distinct end P(end), the float eval_cert_poly gives."""
        cert, stage = stage_certificate(name)
        intervals = stage["intervals"] if intervals is None else intervals
        verdicts, values = check_signs(stage["method"], cert, stage["target"], intervals)
        assert verdicts == [check_one(stage["method"], cert, stage["target"], interval) for interval in intervals]
        ends = [end for interval in intervals for end in interval]
        assert sorted(values) == sorted(set(ends))
        assert {end: v.hex() for end, v in values.items()} == {end: eval_cert_poly(cert, 0, end).hex() for end in ends}

    def test_check_signs_over_the_seeded_sub_intervals(self):
        """The 300 seeded sub-intervals of the digest, one check_signs call per stage: the one-interval verdicts, in order."""
        stages = [stage_certificate(name) for name in STAGE_NAMES]
        rng = random.Random(28)
        picked = {name: [] for name in STAGE_NAMES}
        for _ in range(300):
            name = rng.choice(STAGE_NAMES)
            cert, _ = stages[STAGE_NAMES.index(name)]
            a, b = cert.center - cert.radius, cert.center + cert.radius
            picked[name].append(tuple(sorted((rng.uniform(a, b), rng.uniform(a, b)))))
        for name, (cert, stage) in zip(STAGE_NAMES, stages):
            verdicts, values = check_signs(stage["method"], cert, stage["target"], picked[name])
            assert verdicts == [check_one(stage["method"], cert, stage["target"], interval) for interval in picked[name]]
            assert len(values) == 2 * len(picked[name])

    def test_check_signs_refusals(self, cert_a, cert_b):
        """Every interval (named by the method's one-interval checker), then the method and target; no interval, no verdict."""
        with pytest.raises(ValueError, match=r"^check_signs: interval must be one \(a, b\) pair, got \(5\.13,\)$"):
            check_signs("bogus", cert_b, "negative", [(5.13,)])
        with pytest.raises(ValueError, match=r"^method must be one of \('chain', 'cascade'\)$"):
            check_signs("bogus", cert_b, "negative", [(5.13, 5.33)])
        with pytest.raises(ValueError, match=r"^check_sign_chain: interval must be one \(a, b\) pair, got \(5\.0,\)$"):
            check_signs("chain", cert_a, "nonzero", [(5.0, 5.13), (5.0,)])
        with pytest.raises(ValueError, match="certified window"):
            check_signs("cascade", cert_b, "negative", [(5.13, 5.33), (5.13, 5.5)])
        with pytest.raises(ValueError, match="certifies positive targets only"):
            check_signs("cascade", cert_b, "negative", [(5.13, 5.33)])
        assert check_signs("cascade", cert_b, "positive", []) == ([], {})

    def test_refuses_unknown_method_and_uncovered_target(self, cert_b):
        with pytest.raises(ValueError, match=r"^method must be one of \('chain', 'cascade'\)$"):
            check_one("bogus", cert_b, "positive", (5.13, 5.33))
        with pytest.raises(ValueError, match=r"^the cascade check certifies positive targets only, got 'negative'$"):
            check_one("cascade", cert_b, "negative", (5.13, 5.33))
        with pytest.raises(ValueError, match=r"^the chain check certifies positive or negative targets only, got 'nonzero'$"):
            check_one("chain", cert_b, "nonzero", (5.13, 5.33))


class TestRemainderBound:
    def test_frozen_values(self):
        assert remainder_bound(5.065, 0.065, 4, 6) == pytest.approx(
            0.0008807972696323334, rel=1e-12
        )

    def test_left_edge_peak_counts(self):
        """Below v = 1 the envelope decreases in t, so the left edge can dominate."""
        left = 2.0 * envelope_reference(5.0, 40, 0.0, 9.0) * 0.1**10 / math.factorial(10)
        right = 2.0 * envelope_reference(5.2, 40, 0.0, 9.0) * 0.1**10 / math.factorial(10)
        assert left > right
        assert remainder_bound(5.1, 0.1, 30, 9) == left
        assert remainder_bound(5.1, 0.1, 30, 9) == pytest.approx(311.2340945847426, rel=1e-12)

    def test_window_must_stay_inside_proven_range(self):
        with pytest.raises(ValueError, match="leaves \\[5, 6\\]"):
            remainder_bound(5.5, 0.6, 1, 8)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius"):
            remainder_bound(5.5, 0.0, 1, 8)

    def test_factorial_table_is_math_factorial(self):
        """The running product gives, for every k the table holds, the float of math.factorial(k), bit for bit."""
        assert len(certify._FACTORIALS) == certify.MAX_DEGREE + 2
        for k, value in enumerate(certify._FACTORIALS):
            assert value.hex() == float(math.factorial(k)).hex(), k

    def test_degree_past_factorial_range_is_refused(self):
        """The tail bound divides by (degree + 1)!, a float only up to 170!, so 169 is the largest degree."""
        assert math.isfinite(remainder_bound(5.065, 0.065, 4, 169))
        for call in (
            lambda: remainder_bound(5.065, 0.065, 4, 170),
            lambda: build_certificate(5.065, 0.065, 4, 170, [0.15] + 170 * [1e-6], 640, "refined", 0.187),
        ):
            with pytest.raises(ValueError, match=r"^degree must be an integer in 0\.\.169, got 170$"):
                call()

    @pytest.mark.parametrize("call,refusal", [
        pytest.param(lambda: remainder_bound(5.065, 0.065, True, 6), "base_order must be an integer >= 0, got True", id="base-order-true"),
        pytest.param(lambda: check_window(5.065, 0.065, 4.0, 6), "base_order must be an integer >= 0, got 4.0", id="base-order-float"),
        pytest.param(lambda: check_window(5.065, 0.065, -1, 6), "base_order must be an integer >= 0, got -1", id="base-order-negative"),
        pytest.param(
            lambda: build_certificate(5.065, 0.065, 4, 6.0, [0.15, 0.03, 0.005, 0.0005, 0.0002, 0.0002, 0.0002], 640, "refined", 0.187),
            "degree must be an integer in 0..169, got 6.0", id="degree-float",
        ),
        pytest.param(  # the window, degree included, is refused before the budgets are counted against it
            lambda: build_certificate(5.065, 0.065, 4, 6.0, [], 640, "refined", 0.187),
            "degree must be an integer in 0..169, got 6.0", id="degree-float-before-budgets",
        ),
    ])
    def test_orders_must_be_ints(self, call, refusal):
        """True would give the base-order-1 bound and 6.0 a TypeError from factorial; both are refused by name, as step counts are."""
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            call()

    @pytest.mark.parametrize("budgets,refusal", [
        pytest.param([0.15, 0.03, 0.005, 0.0005, 0.0002, 0.0002], "expected 7 coefficient budgets, got 6", id="too-few"),
        pytest.param([0.15, 0.03, 0.005, 0.0005, 0.0002, 0.0002, 0.0], "every coefficient budget must be positive", id="zero"),
        pytest.param([0.15, 0.03, 0.005, 0.0005, 0.0002, 0.0002, math.nan], "every coefficient budget must be positive", id="nan"),
    ])
    def test_budgets_are_one_positive_allowance_per_coefficient(self, budgets, refusal):
        """build_certificate refuses budgets that do not give each coefficient 0..degree a positive allowance."""
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            build_certificate(5.065, 0.065, 4, 6, budgets, 640, "refined", 0.187)

    @pytest.mark.parametrize("center,radius", [(math.nan, 0.1), (5.5, math.nan)])
    def test_rejects_nan_window(self, center, radius):
        with pytest.raises(ValueError, match="radius|window"):
            remainder_bound(center, radius, 1, 8)


class TestRequiredSteps:
    def test_reproduces_step_table_entry(self):
        sup4 = plain_h4_bound(5, 3)
        assert required_steps(sup4, 0.182, 1.0, 0) == 475

    def test_scales_with_budget(self):
        assert required_steps(1e12, 0.01, 0.1, 0) > required_steps(1e12, 0.1, 0.1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_steps(-1.0, 0.1, 0.1, 0)
        with pytest.raises(ValueError):
            required_steps(1.0, 0.0, 0.1, 0)


class TestBuildCertificate:
    def test_default_certificates_build(self, cert_a, cert_b, cert_c, cert_d):
        for cert, degree in ((cert_a, 6), (cert_b, 8), (cert_c, 9), (cert_d, 8)):
            assert cert.degree == degree
            assert len(cert.coeffs) == degree + 1
            assert math.fsum(cert.termwise_budget) + cert.remainder <= cert.total_delta

    def test_frozen_spot_coefficients(self, cert_a, cert_b, cert_d):
        assert cert_a.coeffs[0] == pytest.approx(0.3817375076469034, rel=1e-12)
        assert cert_a.coeffs[6] == pytest.approx(-8940.145590489265, rel=1e-12)
        assert cert_b.coeffs[8] == pytest.approx(-4474.521415974479, rel=1e-12)
        assert cert_d.coeffs[0] == pytest.approx(-0.9827616166876396, rel=1e-12)

    def test_frozen_remainders(self, cert_a, cert_b, cert_c, cert_d):
        assert cert_a.remainder == pytest.approx(0.0008807972696323334, rel=1e-12)
        assert cert_b.remainder == pytest.approx(1.7624792815122383e-06, rel=1e-12)
        assert cert_c.remainder == pytest.approx(7.252690769103944e-05, rel=1e-12)
        assert cert_d.remainder == pytest.approx(0.0003487331808599205, rel=1e-12)

    def test_coefficient_budget_violation_names_culprit(self):
        stage = DEFAULT_CONFIG["stages"]["gap_d4_on_5.000_5.130"]
        budgets = list(stage["budgets"])
        budgets[2] = 1e-12
        with pytest.raises(BudgetError, match="coefficient 2"):
            build_certificate(
                stage["center"], stage["radius"], stage["base_order"], stage["degree"],
                budgets, stage["steps"], stage["mode"], stage["total_delta"],
            )

    def test_total_allowance_violation(self):
        stage = DEFAULT_CONFIG["stages"]["gap_d1_on_5.130_5.330"]
        with pytest.raises(BudgetError, match="total allowance"):
            build_certificate(
                stage["center"], stage["radius"], stage["base_order"], stage["degree"],
                stage["budgets"], stage["steps"], stage["mode"], total_delta=1e-05,
            )

    def test_the_allowance_may_equal_total_delta(self):
        """Budgets plus tail bound exactly at total_delta build; total_delta one ulp below them raises BudgetError.

        The window 5.5 +- 0.25 and the budgets 0.5 and 0.25 are dyadic; total_delta is their allowance as build_certificate sums it.
        """
        budgets = [0.5, 0.25]
        allowance = math.fsum(budgets) + remainder_bound(5.5, 0.25, 1, 1)
        assert build_certificate(5.5, 0.25, 1, 1, budgets, 640, "refined", allowance).total_delta == allowance
        with pytest.raises(BudgetError, match="exceed total allowance"):
            build_certificate(5.5, 0.25, 1, 1, budgets, 640, "refined", math.nextafter(allowance, 0.0))

    @pytest.mark.parametrize("j", [0, 1])
    def test_a_coefficient_may_use_its_whole_budget(self, j):
        """Budget j equal to its propagated error err_j * 0.25^j / j! (exact for j <= 1) builds; one ulp below it raises BudgetError naming j."""
        propagated = gap_derivatives(5.5, 640, range(1, 3), "refined")[j].error_bound * 0.25**j
        budgets = [1.0, 1.0]
        budgets[j] = propagated
        assert build_certificate(5.5, 0.25, 1, 1, budgets, 640, "refined", 1e9).termwise_budget[j] == propagated
        budgets[j] = math.nextafter(propagated, 0.0)
        with pytest.raises(BudgetError, match=f"^coefficient {j}: propagated quadrature error"):
            build_certificate(5.5, 0.25, 1, 1, budgets, 640, "refined", 1e9)

    def test_a_nan_error_bound_fits_no_budget(self, monkeypatch):
        """Gap values whose error bounds are nan raise BudgetError at coefficient 0; the budget fit once read nan > budget as a fit."""
        nan_values = lambda t, steps, orders, mode: [CertifiedValue(1.0, math.nan, steps, mode) for _ in orders]
        monkeypatch.setattr(certify, "gap_derivatives", nan_values)
        with pytest.raises(BudgetError, match="^coefficient 0: propagated quadrature error nan exceeds budget"):
            build_certificate(5.5, 0.25, 1, 1, [0.5, 0.25], 640, "refined", 1e9)

    def test_plain_mode_fails_first_budget_at_wide_centers(self):
        """The leading coefficients need the refined bound; plain cannot fit."""
        for name in ("gap_d4_on_5.000_5.130", "gap_d2_on_5.720_6.000"):
            stage = DEFAULT_CONFIG["stages"][name]
            with pytest.raises(BudgetError, match="coefficient 0"):
                build_certificate(
                    stage["center"], stage["radius"], stage["base_order"],
                    stage["degree"], stage["budgets"], stage["steps"], "plain",
                    stage["total_delta"],
                )

    def test_rejects_nan_budget(self):
        with pytest.raises(ValueError, match="positive"):
            build_certificate(5.5, 0.1, 1, 2, [0.1, math.nan, 0.1], 100, "refined", 0.5)

    def test_broadcast_length_mismatch(self):
        """Budgets must give one allowance per coefficient 0..degree."""
        with pytest.raises(ValueError, match="expected 3"):
            build_certificate(5.5, 0.1, 1, 2, [0.1, 0.1], 100, "refined", 0.5)

    def test_budgets_are_read_once(self, cert_b):
        """A generator of budgets gives the certificate of their list; it once met len() and raised TypeError."""
        stage = DEFAULT_CONFIG["stages"]["gap_d1_on_5.130_5.330"]
        cert = build_certificate(
            stage["center"], stage["radius"], stage["base_order"], stage["degree"],
            (b for b in stage["budgets"]), stage["steps"], stage["mode"], stage["total_delta"],
        )
        assert cert == cert_b

    def test_string_budgets_stay_refused(self):
        """A budget that is no int or float is refused by name; a str once met '1' > 0.0 and raised TypeError."""
        for budgets, bad in (("111", "'1'"), ([0.1, None, 0.1], "None"), ([0.1, True, 0.1], "True")):
            with pytest.raises(ValueError, match=f"^every coefficient budget must be an int or float, got {re.escape(bad)}$"):
                build_certificate(5.5, 0.1, 1, 2, budgets, 100, "refined", 0.5)
        with pytest.raises(ValueError, match="expected 3 coefficient budgets, got 2"):
            build_certificate(5.5, 0.1, 1, 2, "11", 100, "refined", 0.5)


# Each certificate stage's tail budget as the paper declares it, and its computed tail bound as README gives it (3 figures)
PAPER_TAIL_BUDGETS = {
    "gap_d4_on_5.000_5.130": (0.0009, "0.000881"),
    "gap_d1_on_5.130_5.330": (2e-06, "1.76e-06"),
    "gap_d1_on_5.330_5.720": (7.3e-05, "7.25e-05"),
    "gap_d2_on_5.720_6.000": (0.00035, "0.000349"),
}


class TestPaperDepartures:
    """The figures of README's "Where this run departs from the paper's tables", computed from the stage table."""

    @pytest.mark.parametrize("name,plain,refined", [
        ("gap_d4_on_5.000_5.130", "0.48", "0.046"),
        ("gap_d2_on_5.720_6.000", "0.56", "0.038"),
    ])
    def test_plain_leading_errors_overrun_their_budget(self, name, plain, refined):
        """At 640 steps the leading coefficient's plain error overruns its budget and its refined error fits (radius**0 / 0! is 1)."""
        stage = DEFAULT_CONFIG["stages"][name]
        budget = stage["budgets"][0]
        errors = {mode: gap_derivatives(stage["center"], stage["steps"], [stage["base_order"]], mode)[0].error_bound for mode in ("plain", "refined")}
        assert (f"{errors['plain']:.2g}", f"{errors['refined']:.2g}") == (plain, refined)
        assert errors["refined"] <= budget < errors["plain"]

    def test_the_step_rule_asks_more_than_the_paper_lists(self):
        """For the d4 stage the fourth-root rule on the plain |H''''| bound at its center and its leading budget gives 671 steps, where the paper lists 474."""
        stage = DEFAULT_CONFIG["stages"]["gap_d4_on_5.000_5.130"]
        sup4 = plain_h4_bound(stage["center"], stage["base_order"])
        assert required_steps(sup4, stage["budgets"][0], stage["radius"], 0) == 671 > stage["steps"] > 474

    @pytest.mark.parametrize("name", STAGE_NAMES)
    def test_the_computed_tail_is_within_the_paper_tail_budget(self, name):
        declared, shown = PAPER_TAIL_BUDGETS[name]
        cert, _ = stage_certificate(name)
        assert f"{cert.remainder:.3g}" == shown
        assert cert.remainder <= declared

    @pytest.mark.parametrize("name", STAGE_NAMES)
    def test_the_allowance_holds_the_tail(self, name):
        """With total_delta at the stage's budgets plus its tail bound the certificate builds; one ulp less, the tail overruns it."""
        stage = DEFAULT_CONFIG["stages"][name]
        window = (stage["center"], stage["radius"], stage["base_order"], stage["degree"], stage["budgets"], stage["steps"], stage["mode"])
        allowance = math.fsum(stage["budgets"]) + remainder_bound(*window[:4])
        assert build_certificate(*window, allowance).total_delta == allowance
        with pytest.raises(BudgetError, match="^budgets plus tail bound .* exceed total allowance"):
            build_certificate(*window, math.nextafter(allowance, 0.0))


class TestEvalCertPoly:
    def test_center_values_are_coefficients(self, cert_b):
        for m in range(cert_b.degree + 1):
            assert eval_cert_poly(cert_b, m, cert_b.center) == pytest.approx(
                cert_b.coeffs[m], rel=1e-12
            )

    def test_rejects_out_of_window(self, cert_b):
        with pytest.raises(ValueError, match="outside certified window"):
            eval_cert_poly(cert_b, 0, 5.5)

    def test_rejects_bad_order(self, cert_b):
        with pytest.raises(ValueError, match=r"order m must be an integer in 0\.\.8, got 9$"):
            eval_cert_poly(cert_b, 9, cert_b.center)

    @pytest.mark.parametrize("m", [True, 1.0, 1.5])
    def test_rejects_an_order_that_is_no_int(self, cert_b, m):
        """True (== 1) gave the first derivative and 1.0 a TypeError from range: every order that is no int is refused."""
        with pytest.raises(ValueError, match=rf"^derivative order m must be an integer in 0\.\.8, got {m!r}$"):
            eval_cert_poly(cert_b, m, cert_b.center)


class TestEvalCertRow:
    """Rows of the Taylor table: every derivative 0..degree of P at one point, as check_signs takes them."""

    @staticmethod
    def points(cert):
        """41 points across the window, its ends and center included, then 200 seeded ones."""
        rng = random.Random(2801)
        grid = [cert.center + cert.radius * (i - 20) / 20 for i in range(41)]
        return grid + [rng.uniform(cert.center - cert.radius, cert.center + cert.radius) for _ in range(200)]

    @pytest.mark.parametrize("name", STAGE_NAMES)
    def test_row_is_each_order_of_eval_cert_poly(self, name):
        """Each entry is the float eval_cert_poly gives, and the float of the per-order sum with int factorials."""
        cert, _ = stage_certificate(name)
        for t in self.points(cert):
            row = [v.hex() for v in table_row(cert, t)]
            assert row == [eval_cert_poly(cert, m, t).hex() for m in range(cert.degree + 1)]
            u = t - cert.center
            reference = [
                math.fsum(cert.coeffs[j] / math.factorial(j - m) * u ** (j - m) for j in range(m, cert.degree + 1))
                for m in range(cert.degree + 1)
            ]
            assert row == [v.hex() for v in reference]

    @pytest.mark.parametrize("t", [5.33 + 1e-6, 5.13 - 1e-6, 5.5, math.nan])
    def test_refuses_what_eval_cert_poly_refuses(self, cert_b, t):
        """A point the evaluator refuses ends no interval a sign check takes; a nan end leaves the interval empty."""
        window = f"[{cert_b.center - cert_b.radius}, {cert_b.center + cert_b.radius}]"
        with pytest.raises(ValueError, match=f"^{re.escape(f't={t} outside certified window {window}')}$"):
            eval_cert_poly(cert_b, 0, t)
        interval = (t, 5.23) if t < 5.23 else (5.23, t)
        refusal = "empty interval [5.23, nan]" if math.isnan(t) else f"interval [{interval[0]}, {interval[1]}] leaves the certified window {window}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            check_signs("cascade", cert_b, "positive", [interval])

    def test_refuses_a_certificate_short_of_coefficients(self, cert_b):
        """A map over too few coefficients would stop early, so a certificate short of them is refused when it is built; none can reach a check."""
        with pytest.raises(ValueError, match=r"^a degree-8 certificate needs 9 coefficients, got 8$"):
            cert_b._replace(coeffs=cert_b.coeffs[:-1])
        with pytest.raises(ValueError, match=r"^a degree-2 certificate needs 3 coefficients, got 2$"):
            TaylorCertificate(5.5, 0.1, 1, 2, (1.0, 2.0), (0.0,) * 3, (1e-9,) * 3, 0.0, 1.0)

    def test_a_warm_proof_takes_one_row_per_endpoint(self, monkeypatch):
        """4 Taylor tables (one per stage certificate, at its construction), 9 rows (one per distinct interval end) and no single evaluation."""
        import majorant.certify as certify

        prove_k5()
        calls = {"table": 0, "row": 0, "single": 0}

        def counted(kind, fn):
            def wrapper(*args):
                calls[kind] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(certify, "_taylor_table", counted("table", certify._taylor_table))
        monkeypatch.setattr(certify, "_values", counted("row", certify._values))
        monkeypatch.setattr(certify, "eval_cert_poly", counted("single", certify.eval_cert_poly))
        assert prove_k5().verdict == "PROVED"
        assert calls == {"table": 4, "row": 9, "single": 0}

    @staticmethod
    def random_certificate(rng):
        """A seeded certificate of degree 0..12 inside [5, 6], its coefficients of either sign over nine decades."""
        degree, radius = rng.randint(0, 12), rng.uniform(0.01, 0.5)
        coeffs = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.0) for _ in range(degree + 1))
        n = degree + 1
        return TaylorCertificate(rng.uniform(5.0 + radius, 6.0 - radius), radius, 1, degree, coeffs, (0.0,) * n, (1e-9,) * n, 0.0, 1.0)

    def test_table_rows_equal_the_per_order_formula(self):
        """Rows from the Taylor table, whole or one order, are bitwise the per-point formula that divides again per order.

        On the four stage certificates at their window points, and on 200 seeded certificates at both window ends,
        the center and three seeded points.
        """
        checked = 0
        for name in STAGE_NAMES:
            cert, _ = stage_certificate(name)
            for t in self.points(cert):
                reference = [v.hex() for v in taylor_row_reference(cert, t)]
                assert [v.hex() for v in table_row(cert, t)] == reference, (name, t)
                checked += 1
        rng = random.Random(3501)
        for _ in range(200):
            cert = self.random_certificate(rng)
            lo, hi = cert.center - cert.radius, cert.center + cert.radius
            for t in [lo, cert.center, hi] + [rng.uniform(lo, hi) for _ in range(3)]:
                reference = [v.hex() for v in taylor_row_reference(cert, t)]
                assert [v.hex() for v in table_row(cert, t)] == reference, (cert, t)
                assert [eval_cert_poly(cert, m, t).hex() for m in range(cert.degree + 1)] == reference, (cert, t)
                checked += 1
        assert checked == 4 * 241 + 200 * 6


class TestTaylorField:
    """TaylorCertificate.taylor, the table every construction derives from the coefficients."""

    @staticmethod
    def rows_at_ends(cert):
        """The table's rows of values at both window ends and the center, as hex."""
        return [[v.hex() for v in table_row(cert, t)] for t in (cert.center - cert.radius, cert.center, cert.center + cert.radius)]

    @staticmethod
    def reference_at_ends(cert):
        return [[v.hex() for v in taylor_row_reference(cert, t)] for t in (cert.center - cert.radius, cert.center, cert.center + cert.radius)]

    def test_every_construction_derives_the_table_of_its_coefficients(self, cert_b):
        """_replace, _make, pickle and a passed table all end in the table of the certificate's own coefficients, bitwise."""
        coeffs = tuple(-2.0 * c for c in cert_b.coeffs)
        fresh = TaylorCertificate(*cert_b[:4], coeffs, *cert_b[5:9])
        assert fresh.taylor != cert_b.taylor
        built = {
            "_replace": cert_b._replace(coeffs=coeffs),
            "_make": TaylorCertificate._make((*cert_b[:4], coeffs, *cert_b[5:])),
            "pickle": pickle.loads(pickle.dumps(fresh)),
            "copy": copy.copy(fresh),
            "passed table": TaylorCertificate(*fresh[:9], taylor=cert_b.taylor),
            "_replace of the table": fresh._replace(taylor=cert_b.taylor),
        }
        for how, cert in built.items():
            assert cert == fresh and cert.taylor == fresh.taylor, how
            assert self.rows_at_ends(cert) == self.reference_at_ends(fresh), how
        assert pickle.loads(pickle.dumps(cert_b)) == cert_b

    def test_the_table_is_tuples_of_the_per_order_rows(self, cert_d):
        """One tuple row per order 0..degree, each coeffs[m:] over 0!, 1!, ...; tuples, so a certificate stays hashable."""
        assert isinstance(cert_d.taylor, tuple) and all(isinstance(row, tuple) for row in cert_d.taylor)
        assert [len(row) for row in cert_d.taylor] == list(range(cert_d.degree + 1, 0, -1))
        for m, row in enumerate(cert_d.taylor):
            assert [v.hex() for v in row] == [(c / math.factorial(i)).hex() for i, c in enumerate(cert_d.coeffs[m:])]
        assert hash(cert_d) == hash(stage_certificate("gap_d2_on_5.720_6.000")[0])
        assert {cert_d: 1}[cert_d] == 1

    def test_checks_build_no_table(self, monkeypatch, cert_a, cert_b, cert_d):
        """One-interval chain and cascade checks and eval_cert_poly on a built certificate read its table and build none."""
        builds = []
        real = certify._taylor_table
        monkeypatch.setattr(certify, "_taylor_table", lambda *args: builds.append(args) or real(*args))
        assert check_sign_chain(cert_a, "positive", (5.0, 5.13)).certified
        assert check_sign_chain(cert_d, "negative", (5.72, 6.0)).certified
        assert check_sign_variation(cert_b, "positive", (5.13, 5.33)).certified
        assert eval_cert_poly(cert_b, 3, 5.2) == table_row(cert_b, 5.2)[3]
        assert builds == []
        cert_b._replace(total_delta=1.0)
        assert builds == [(cert_b.degree, cert_b.coeffs)]


class TestSignCheckDigest:
    def test_seeded_sub_intervals(self):
        """Verdicts, evidence rows and failure reasons of 300 seeded sign checks, pinned to one digest."""
        assert sign_check_digest() == SIGN_CHECK_DIGEST


class TestSignChain:
    def test_first_interval_positive(self, cert_a):
        verdict = check_sign_chain(cert_a, "positive", (5.0, 5.13))
        assert verdict.certified
        rows = {(r["quantity"], r["order"]): r["value"] for r in verdict.evidence}
        assert rows[("shifted_value", 0)] == pytest.approx(0.0016940309631856554, rel=1e-12)
        expected_chain = [
            -0.8065026990503629,
            -15.964277705573288,
            -103.81631240218522,
            -496.9504606376513,
            -1940.277872737738,
            -8940.145590489265,
        ]
        for m, ref in enumerate(expected_chain, start=1):
            assert rows[("derivative", m)] == pytest.approx(ref, rel=1e-12)
        assert all("orientation" not in r for r in verdict.evidence)

    def test_last_interval_negative(self, cert_d):
        verdict = check_sign_chain(cert_d, "negative", (5.72, 6.0))
        assert verdict.certified
        rows = {(r["quantity"], r["order"]): r["value"] for r in verdict.evidence}
        assert rows[("shifted_value", 0)] == pytest.approx(-0.011374125926484846, rel=1e-12)
        expected_chain = [
            -3.226759089085085,
            -21.525764045491215,
            -110.7118785246236,
            -483.6264843808991,
            -1873.4022691467958,
            -6804.708219318939,
            -19454.556827397137,
            -105414.59926775843,
        ]
        for m, ref in enumerate(expected_chain, start=1):
            assert rows[("derivative", m)] == pytest.approx(ref, rel=1e-12)

    def test_rising_certificate_is_not_certified(self):
        """A rising linear certificate, positive on the whole interval, fails the one orientation the chain has."""
        cert = TaylorCertificate(
            center=5.5, radius=0.1, base_order=1, degree=1,
            coeffs=(1.0, 2.0), coefficient_errors=(0.0, 0.0),
            termwise_budget=(1e-9, 1e-9), remainder=0.0, total_delta=0.1,
        )
        verdict = check_sign_chain(cert, "positive", (5.4, 5.6))
        assert not verdict.certified
        assert verdict.failure_reason == "endpoint or derivative sign conditions fail"
        assert all("orientation" not in r for r in verdict.evidence)
        by_quantity = {r["quantity"]: r for r in verdict.evidence}
        assert by_quantity["shifted_value"]["location"] == 5.6
        assert by_quantity["shifted_value"]["value"] == pytest.approx(1.1)
        assert by_quantity["derivative"]["location"] == 5.4 and by_quantity["derivative"]["value"] == 2.0

    @pytest.mark.parametrize("target,value", [("positive", 0.25), ("negative", -0.25)])
    def test_zero_shifted_endpoint_is_not_certified(self, target, value):
        """A constant P = +-delta: P(b) - delta, or P(a) + delta, is exactly 0.0, and no derivative is left to fail."""
        cert = TaylorCertificate(5.5, 0.25, 1, 0, (value,), (0.0,), (1e-9,), 0.0, 0.25)
        verdict = check_sign_chain(cert, target, (5.25, 5.75))
        assert not verdict.certified
        assert verdict.evidence == ({"quantity": "shifted_value", "order": 0, "location": 5.75 if target == "positive" else 5.25, "value": 0.0},)

    def test_middle_interval_fails(self, cert_b):
        """The chain does not close where the cascade is needed; the verdict keeps the rows it checked."""
        verdict = check_sign_chain(cert_b, "positive", (5.13, 5.33))
        assert not verdict.certified
        assert verdict.failure_reason == "endpoint or derivative sign conditions fail"
        assert [r["order"] for r in verdict.evidence] == list(range(cert_b.degree + 1))

    def test_target_validation(self, cert_a):
        with pytest.raises(ValueError, match="positive.*negative"):
            check_sign_chain(cert_a, "nonzero", (5.0, 5.13))

    def test_interval_validation(self, cert_a):
        with pytest.raises(ValueError, match="certified window"):
            check_sign_chain(cert_a, "positive", (5.0, 5.4))
        with pytest.raises(ValueError, match="empty interval"):
            check_sign_chain(cert_a, "positive", (5.1, 5.1))

    @pytest.mark.parametrize("checker", [check_sign_chain, check_sign_variation])
    @pytest.mark.parametrize("interval", [(5.0,), (5.0, 5.065, 5.13)])
    def test_interval_is_exactly_one_pair(self, cert_a, checker, interval):
        """A third bound was ignored, a verdict given on the first two; one bound raised IndexError."""
        refusal = f"{checker.__name__}: interval must be one (a, b) pair, got {interval!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            checker(cert_a, "positive", interval)


class TestSignVariation:
    def test_second_interval_contradicts_at_order_four(self, cert_b):
        verdict = check_sign_variation(cert_b, "positive", (5.13, 5.33))
        assert verdict.certified
        last = verdict.evidence[-1]
        assert last["quantity"] == "contradiction_order" and last["order"] == 4
        means = {
            r["order"]: r["value"]
            for r in verdict.evidence
            if r["quantity"] == "mean_lower"
        }
        assert means[1] == pytest.approx(0.12546538950239158, rel=1e-9)
        assert means[2] == pytest.approx(0.43413662993170155, rel=1e-9)
        assert means[3] == pytest.approx(2.5447198061052516, rel=1e-9)
        assert means[4] == pytest.approx(18.342617281494054, rel=1e-9)

    def test_third_interval_split_contradicts_at_two_and_one(self, cert_c):
        first = check_sign_variation(cert_c, "positive", (5.33, 5.56))
        second = check_sign_variation(cert_c, "positive", (5.56, 5.72))
        assert first.certified and second.certified
        assert first.evidence[-1]["order"] == 2
        assert second.evidence[-1]["order"] == 1
        means = {
            r["order"]: r["value"] for r in first.evidence if r["quantity"] == "mean_lower"
        }
        assert means[1] == pytest.approx(0.208046885373024, rel=1e-9)
        assert means[2] == pytest.approx(1.1708236187295464, rel=1e-9)
        means2 = {
            r["order"]: r["value"] for r in second.evidence if r["quantity"] == "mean_lower"
        }
        assert means2[1] == pytest.approx(0.3544888344971688, rel=1e-9)

    def test_rejects_negative_targets(self, cert_d):
        with pytest.raises(ValueError, match="positive targets only"):
            check_sign_variation(cert_d, "negative", (5.72, 6.0))

    def test_nonpositive_endpoints_fail_fast(self, cert_d):
        verdict = check_sign_variation(cert_d, "positive", (5.72, 6.0))
        assert not verdict.certified
        assert "not both positive" in verdict.failure_reason

    @pytest.mark.parametrize(
        "coeffs,shifted",
        [((0.25,), (0.0, 0.0)), ((1.25, 4.0), (0.0, 2.0)), ((1.25, -4.0), (2.0, 0.0))],
        ids=["constant", "zero at a", "zero at b"],
    )
    def test_zero_shifted_endpoint_is_not_certified(self, coeffs, shifted):
        """P(a) - delta or P(b) - delta is exactly 0.0 (delta = 0.25, u = +-0.25 at the ends): refused at the endpoint check, not later."""
        degree = len(coeffs) - 1
        cert = TaylorCertificate(5.5, 0.25, 1, degree, coeffs, (0.0,) * len(coeffs), (1e-9,) * len(coeffs), 0.0, 0.25)
        verdict = check_sign_variation(cert, "positive", (5.25, 5.75))
        assert not verdict.certified
        assert verdict.failure_reason == "shifted endpoint values are not both positive"
        assert tuple(r["value"] for r in verdict.evidence) == shifted

    def test_flat_certificate_with_steep_tail_is_inconclusive(self):
        """Endpoint means stay below endpoint derivative magnitudes: no verdict.

        The cubic 1 + u/2 - 10 u^3 around 5.5 with allowance 0.95 is genuinely
        positive on [5.35, 5.65] (its minimum is about 0.0069 above the
        allowance) but the cascade cannot see it: the only order whose mean
        clears the endpoint magnitudes has a rising derivative behind it.
        """
        cert = TaylorCertificate(
            center=5.5, radius=0.15, base_order=1, degree=3,
            coeffs=(1.0, 0.5, 0.0, -60.0), coefficient_errors=(0.0,) * 4,
            termwise_budget=(1e-9,) * 4, remainder=0.0, total_delta=0.95,
        )
        verdict = check_sign_variation(cert, "positive", (5.35, 5.65))
        assert isinstance(verdict, SignCertificate)
        assert not verdict.certified
        assert "monotone tail" in verdict.failure_reason


def dyadic_certificate(*coeffs):
    """A certificate around 5.5 with radius and allowance 0.25: at the ends 5.25 and 5.75 (u = -+0.25) every row value is exact."""
    n = len(coeffs)
    return TaylorCertificate(5.5, 0.25, 1, n - 1, coeffs, (0.0,) * n, (1e-9,) * n, 0.0, 0.25)


def evidence(*rows):
    """Evidence rows from (quantity, order, location or None, value) tuples, in the checkers' key order."""
    return tuple(
        {"quantity": q, "order": m, "value": v} if at is None else {"quantity": q, "order": m, "location": at, "value": v}
        for q, m, at, v in rows
    )


class TestSignBoundaries:
    """Each strict comparison of the sign checks met at exact equality: equality certifies nothing."""

    NO_CONTRADICTION = "no order pairs a mean bound exceeding both endpoint magnitudes with a monotone tail"

    @pytest.mark.parametrize("target,c0,anchor", [("positive", 1.0, (5.75, 0.65625)), ("negative", -1.0, (5.25, -0.71875))])
    def test_chain_refuses_a_zero_derivative(self, target, c0, anchor):
        """P'(a) = -0.25 + (-1.0)(-0.25) is exactly 0.0 under P'' = -1, with the anchor clear: a zero derivative is not negative."""
        verdict = check_sign_chain(dyadic_certificate(c0, -0.25, -1.0), target, (5.25, 5.75))
        assert not verdict.certified
        assert verdict.evidence == evidence(
            ("shifted_value", 0, *anchor), ("derivative", 1, 5.25, 0.0), ("derivative", 2, 5.25, -1.0),
        )

    def test_cascade_stops_where_the_mean_equals_the_edge(self):
        """P = 1.75 - 8u^2: p(a) = p(b) = 1.0, so the order-1 mean 2.0 / 0.5 is 4.0 = |P'(a)| = |P'(b)|.

        The cascade stops there (mean <= edge), and the equal pair is no contradiction (mean > edge), although
        the tail behind it is negative.
        """
        verdict = check_sign_variation(dyadic_certificate(1.75, 0.0, -16.0), "positive", (5.25, 5.75))
        assert not verdict.certified and verdict.failure_reason == self.NO_CONTRADICTION
        assert verdict.evidence == evidence(
            ("shifted_value", 0, 5.25, 1.0), ("shifted_value", 0, 5.75, 1.0), ("variation_lower", 0, None, 2.0),
        )

    def test_the_top_order_needs_no_tail(self):
        """P = 1 + u/2 rises, yet at its top order the mean 1.5 / 0.5 = 3.0 clears |P'| = 0.5 with no derivative left to be negative."""
        verdict = check_sign_variation(dyadic_certificate(1.0, 0.5), "positive", (5.25, 5.75))
        assert verdict.certified
        assert verdict.evidence[-1] == {"quantity": "contradiction_order", "order": 1, "value": 3.0, "edge": 0.5}

    @pytest.mark.parametrize(
        "coeffs,pa,pb,mean,edge",
        [((4.25, 3.0, -32.0, -96.0, 0.0), 2.5, 3.5, 12.0, 8.0), ((3.0, 3.0, -24.0, -96.0), 1.5, 2.5, 8.0, 6.0)],
        ids=["top coefficient 0.0", "P''(a) = 0.0"],
    )
    def test_a_zero_in_the_tail_is_not_negative(self, coeffs, pa, pb, mean, edge):
        """The order-1 mean clears both ends and order 2 does not, so the verdict rests on the tail behind order 1.

        With a top coefficient of exactly 0.0 (a cubic written at degree 4), or P''(a) exactly 0.0 under
        P''' = -96, the tail is not provably negative and the cascade certifies nothing.
        """
        verdict = check_sign_variation(dyadic_certificate(*coeffs), "positive", (5.25, 5.75))
        assert not verdict.certified and verdict.failure_reason == self.NO_CONTRADICTION
        assert verdict.evidence == evidence(
            ("shifted_value", 0, 5.25, pa), ("shifted_value", 0, 5.75, pb), ("variation_lower", 0, None, pa + pb),
            ("mean_lower", 1, None, mean), ("derivative", 1, 5.25, edge), ("derivative", 1, 5.75, -edge),
            ("variation_lower", 1, None, 2.0 * mean),
        )


class TestNanFailsEveryDecision:
    """A nan in a certificate certifies no sign: each comparison of the verdicts reads a nan as a failure."""

    @pytest.mark.parametrize("position", [0, 2])
    def test_the_chain_certifies_no_nan_certificate(self, position):
        coeffs = [-1.0, -0.25, -1.0] if position == 0 else [1.0, -0.25, -1.0]
        coeffs[position] = math.nan
        for target in ("positive", "negative"):
            verdict = check_sign_chain(dyadic_certificate(*coeffs), target, (5.25, 5.75))
            assert not verdict.certified and verdict.failure_reason == "endpoint or derivative sign conditions fail"

    @pytest.mark.parametrize("position", [0, 3])
    def test_a_nan_coefficient_fails_the_cascade_at_its_endpoints(self, position):
        """Every row takes every coefficient above its order, so P(a) and P(b) are nan: the endpoint check fails, where the
        cascade once descended through nan means to report that no order pairs a mean bound with a monotone tail."""
        coeffs = [4.25, 3.0, -32.0, -96.0]
        coeffs[position] = math.nan
        verdict = check_sign_variation(dyadic_certificate(*coeffs), "positive", (5.25, 5.75))
        assert not verdict.certified and verdict.failure_reason == "shifted endpoint values are not both positive"
        assert len(verdict.evidence) == 2 and all(math.isnan(r["value"]) for r in verdict.evidence)

    def test_the_tail_predicate_reads_nan_as_not_negative(self):
        """The one monotone-tail test of both mechanisms; the tail test it replaced passed this row from order 1."""
        row = [1.0, 0.0, math.nan, -1.0]
        assert [certify._monotone_tail(row, m) for m in range(4)] == [False, False, True, True]


def accepts(call, *args) -> bool:
    """Whether call(*args) returns rather than refusing with a ValueError."""
    try:
        call(*args)
    except ValueError:
        return False
    return True


class TestWindowRule:
    """The interval check and the evaluator test an end by one rule, lo - 1e-9 <= t <= hi + 1e-9: both take it or neither does."""

    A_OUT, B_OUT = 5.249999999, 5.750000001  # 5.25 - 1e-9 and 5.75 + 1e-9 as floats: the widened edges of [5.25, 5.75]
    A_IN = 5.249999999000001  # one ulp up

    @staticmethod
    def edge_ends():
        """(cert, end, interval) for each end within 3 ulps of a widened edge of 2000 seeded windows in [5, 6], the interval running to the center."""
        rng = random.Random(3601)
        for _ in range(2000):
            radius = rng.uniform(0.01, 0.49)
            center = rng.uniform(5.0 + radius + 1e-6, 6.0 - radius - 1e-6)  # clear of the proven range's own widened edges
            cert = TaylorCertificate(center, radius, 1, 1, (1.0, -1.0), (0.0, 0.0), (1e-9, 1e-9), 0.0, 0.25)
            for edge in (center - radius - 1e-9, center + radius + 1e-9):
                for k in range(-3, 4):
                    end = edge + k * math.ulp(edge)
                    yield cert, end, (end, center) if edge < center else (center, end)

    def test_an_end_passes_the_interval_check_exactly_when_the_evaluator_takes_it(self):
        """The evaluator once tested |t - center| <= radius + 1e-9, which rounds apart from the interval check: some ends passed one and failed the other."""
        taken = mismatched = 0
        for cert, end, interval in self.edge_ends():
            by_interval = accepts(_endpoints, "check_signs", cert, interval)
            taken += by_interval
            mismatched += by_interval != accepts(eval_cert_poly, cert, 0, end)
        assert mismatched == 0
        assert 0 < taken < 2000 * 2 * 7  # both outcomes occur

    def test_the_widened_edges_are_inside(self):
        """Every check takes an interval whose ends are the widened edges, and its values are P as the evaluator gives it there.

        The evaluator once refused both edges, so the cascade and the positive chain refused (A_OUT, B_OUT) although the
        interval check had taken it, and the negative chain on (A_IN, B_OUT) returned P(B_OUT), which the evaluator refused.
        """
        for method, target, coeffs, interval in (
            ("cascade", "positive", (2.0, -1.0), (self.A_OUT, self.B_OUT)),
            ("chain", "positive", (2.0, -1.0), (self.A_OUT, self.B_OUT)),
            ("chain", "negative", (-1.0, -1.0), (self.A_IN, self.B_OUT)),
        ):
            cert = dyadic_certificate(*coeffs)
            verdicts, values = check_signs(method, cert, target, [interval])
            assert verdicts[0].certified, (method, target)
            assert values == {end: eval_cert_poly(cert, 0, end) for end in interval}

    def test_the_next_float_out_is_refused(self):
        cert = dyadic_certificate(2.0, -1.0)
        a, b = math.nextafter(self.A_OUT, 5.0), math.nextafter(self.B_OUT, 6.0)
        for end, interval in ((a, (a, 5.5)), (b, (5.5, b))):
            with pytest.raises(ValueError, match=f"^{re.escape(f't={end} outside certified window [5.25, 5.75]')}$"):
                eval_cert_poly(cert, 0, end)
            with pytest.raises(ValueError, match=f"^{re.escape(f'interval [{interval[0]}, {interval[1]}] leaves the certified window [5.25, 5.75]')}$"):
                check_signs("cascade", cert, "positive", [interval])
