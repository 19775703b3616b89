"""Tests for the squared three-term sums, their derivatives, and maxima tables."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from majorant import SignVariant, trigpoly
from majorant.quadrature import _nodes
from majorant.tables import second_deriv_L2
from majorant.trigpoly import (
    G_MAX,
    G_MIN,
    MAX_TABLES,
    MAXIMA_BUMP,
    MAXIMA_STEP,
    SIGN_PAIR,
    TrigSquare,
    _scan_maxima,
    curvature_slack,
    default_max_table,
    eval_G_pair,
    parse_sign,
    sup_norm_bound,
    variation_bound_power,
)

from conftest import numpy_G
from oracle import eval_G, eval_G_derivative, sign_factor


class TestParseSign:
    def test_accepts_labels_in_any_case(self):
        """A sign is its lower-case label, the one form: the package's SignVariant is the two labels, and parse_sign returns one."""
        assert SignVariant is SIGN_PAIR and list(SignVariant) == ["minus", "plus"]
        assert parse_sign("plus") == "plus"
        assert parse_sign("MINUS") == "minus"
        assert parse_sign(parse_sign("Plus")) == "plus"

    def test_rejects_unknown(self):
        for name in ("both", "", None, 1, "plus ", "SignVariant.PLUS"):
            with pytest.raises(ValueError, match=rf"^unknown sign variant {re.escape(repr(name))}; expected 'plus' or 'minus'$"):
                parse_sign(name)

    def test_factor(self):
        """The oracle's s of each square; the package never multiplies by it."""
        assert sign_factor("plus") == 1.0
        assert sign_factor("minus") == -1.0


class TestEvalG:
    def test_symmetry_point_values(self, plus_square, minus_square):
        # exact by inspection: all three cosines are +-1 at x = 0 and x = 1/2
        assert eval_G(plus_square, 0.0) == 9.0
        assert eval_G(minus_square, 0.0) == 1.0
        assert eval_G(plus_square, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert eval_G(minus_square, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_even_and_periodic(self, plus_square, minus_square, rng):
        for spec in (plus_square, minus_square):
            for x in rng.uniform(-2.0, 2.0, size=50):
                assert eval_G(spec, x) == pytest.approx(eval_G(spec, -x), abs=1e-10)
                assert eval_G(spec, x) == pytest.approx(eval_G(spec, x + 1.0), abs=1e-9)

    def test_range(self, plus_square, minus_square, rng):
        for spec in (plus_square, minus_square):
            values = [eval_G(spec, x) for x in rng.uniform(0.0, 1.0, size=500)]
            assert min(values) >= 0.0
            assert max(values) <= 9.0 + 1e-12

    @pytest.mark.parametrize("k", [-1, 0, 3, 6, 200])
    def test_rejects_k_other_than_five(self, k):
        """The bound constants hold for k = 5 only: at k = 200 the q pass's |G'| bound fell below the node sum it bounds."""
        with pytest.raises(ValueError, match=rf"^k must be an integer in 5\.\.5, got {k}$"):
            TrigSquare(k, "minus")

    def test_sign_label_is_its_variant(self, plus_square, plus_table):
        """A label in any case is stored lower-case when the square is built, so its table is that sign's, not the other's."""
        assert TrigSquare(5, "PLUS") == plus_square and TrigSquare(5, "PLUS").sign == "plus"
        assert default_max_table(TrigSquare(5, "plus")) == plus_table
        with pytest.raises(ValueError, match="unknown sign variant"):
            TrigSquare(5, "bogus")
        assert TrigSquare(5, "minus")._replace(sign="plus") == plus_square
        with pytest.raises(ValueError, match=r"^k must be an integer in 5\.\.5, got 4$"):
            plus_square._replace(k=4)

    @pytest.mark.parametrize("sign", SIGN_PAIR)
    def test_G_has_no_zeros(self, sign):
        """Grid minimum less the curvature slack at a true minimum (where G' = 0) stays positive, and G_MIN bounds G on the grid."""
        h = 1.0 / 20000.0
        spec = TrigSquare(5, sign)
        grid_min = min(eval_G(spec, i * h) for i in range(10001))  # [0, 1/2]: G is even
        assert grid_min - 0.5 * sup_norm_bound(2) * (h / 2.0) ** 2 > 0.0
        assert grid_min >= G_MIN


class TestDerivatives:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_finite_difference(self, m, plus_square, minus_square, rng):
        """Central difference of G^(m-1) must reproduce G^(m)."""
        h = 1e-5
        for spec in (plus_square, minus_square):
            for x in rng.uniform(0.05, 0.45, size=25):
                if m == 1:
                    fd = (eval_G(spec, x + h) - eval_G(spec, x - h)) / (2 * h)
                else:
                    fd = (
                        eval_G_derivative(spec, m - 1, x + h)
                        - eval_G_derivative(spec, m - 1, x - h)
                    ) / (2 * h)
                exact = eval_G_derivative(spec, m, x)
                # central-difference truncation is bounded by sup|G^(m+2)| h^2 / 6
                tol = sup_norm_bound(m + 2) * h**2 / 6.0 + 1e-6
                assert exact == pytest.approx(fd, abs=max(tol, 1e-8 * abs(exact))), (
                    f"order {m} at x={x}: closed form {exact} vs difference {fd}"
                )

    def test_vanishes_at_symmetry_points(self, plus_square, minus_square):
        for spec in (plus_square, minus_square):
            assert eval_G_derivative(spec, 1, 0.0) == pytest.approx(0.0, abs=1e-9)
            assert eval_G_derivative(spec, 1, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_order_zero(self, plus_square):
        with pytest.raises(ValueError, match="order must be >= 1"):
            eval_G_derivative(plus_square, 0, 0.25)


def assert_pair_matches_oracle(xs):
    """Both signs of eval_G_pair, in the order SIGN_PAIR states, equal the one-sign oracle eval_G to the last bit at every x of xs."""
    pair = eval_G_pair(xs)
    assert SIGN_PAIR == ("minus", "plus") and [len(values) for values in pair] == [len(xs)] * 2
    for sign, values in zip(SIGN_PAIR, pair):
        spec = TrigSquare(5, sign)
        for x, g in zip(xs, values):
            assert g.hex() == eval_G(spec, x).hex(), f"{spec} at x={x!r}"


class TestJet:
    def test_bitwise_equal_to_pointwise_functions(self):
        """The batch evaluator of G, which the node tables and the maxima grid use, equals eval_G to the last bit."""
        assert_pair_matches_oracle([i / 2000.0 for i in range(2001)])

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 640, 3000])
    def test_pair_is_bitwise_at_the_midpoint_nodes(self, n):
        """At every node of the N-node rule, as the node table evaluates them."""
        assert_pair_matches_oracle(list(_nodes(n)))

    def test_pair_is_bitwise_on_the_default_maxima_grid(self):
        """On the grid of the maxima tables: step 1/1000 over [0, 1/2]."""
        assert_pair_matches_oracle([i * 0.001 for i in range(501)])


class TestSupNormBounds:
    def test_frozen_values(self):
        assert sup_norm_bound(0) == 9.0
        assert sup_norm_bound(1) == pytest.approx(175.92918860102841, rel=1e-14)
        assert sup_norm_bound(2) == pytest.approx(6790.287827949478, rel=1e-14)
        assert sup_norm_bound(3) == pytest.approx(277816.23905548634, rel=1e-14)
        assert sup_norm_bound(4) == pytest.approx(11527002.19659971, rel=1e-14)

    def test_dominates_samples(self, plus_square, minus_square, rng):
        for spec in (plus_square, minus_square):
            for m in range(1, 5):
                bound = sup_norm_bound(m)
                worst = max(
                    abs(eval_G_derivative(spec, m, x)) for x in rng.uniform(0.0, 1.0, 400)
                )
                assert worst <= bound, f"order {m}: sample {worst} above bound {bound}"

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="^derivative order m must be an integer >= 0, got -1$"):
            sup_norm_bound(-1)

    @pytest.mark.parametrize("m", [1.5, 2.0, True])
    def test_rejects_order_that_is_no_int(self, m):
        """The closed form covers integer orders; True (== 1) and 2.0 are refused too, as check_window refuses them."""
        with pytest.raises(ValueError, match=rf"^derivative order m must be an integer >= 0, got {m!r}$"):
            sup_norm_bound(m)

    def test_order_past_the_float_range_is_infinite(self):
        """From m = 188 the bound passes the float range; at m = 400, 7.0 ** m alone raises OverflowError."""
        assert math.isfinite(sup_norm_bound(187))
        assert sup_norm_bound(188) == sup_norm_bound(400) == math.inf

    def test_range_bound_is_attained(self, plus_square):
        """G_MAX is sup G: the m = 0 bound, and G of the plus sign at x = 0."""
        assert G_MAX == sup_norm_bound(0) == eval_G(plus_square, 0.0)


class TestSecondDerivL2:
    def test_frozen_value(self):
        assert second_deriv_L2() == pytest.approx(3395.143913974739, rel=1e-14)
        assert second_deriv_L2() < 3400.0

    def test_matches_numeric_norm(self, minus_square):
        # equispaced sampling is exact for a trig polynomial of this degree
        x = np.linspace(0.0, 1.0, 1001)[:-1]
        gpp = np.array([eval_G_derivative(minus_square, 2, xi) for xi in x])
        numeric = math.sqrt(float((gpp**2).mean()))
        assert numeric == pytest.approx(second_deriv_L2(), rel=1e-9)


def exec_trigpoly(old: str, new: str) -> dict:
    """The namespace of trigpoly's source run with its one line old replaced by new: its import-time checks under other constants."""
    source = Path(trigpoly.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1
    namespace = {"__name__": "trigpoly_variant"}
    exec(compile(source.replace(old, new), trigpoly.__file__, "exec"), namespace)
    return namespace


GRID_LINE = "MAXIMA_STEP = MAXIMA_BUMP = 0.001\n"
G_MIN_LINE = "G_MIN = math.floor((min(map(min, _GRID_SAMPLES)) - curvature_slack(MAXIMA_STEP)) * 10000.0) / 10000.0  # rounded down\n"


class TestLocateMaxima:
    """The certified maxima tables, built at import on the grid of step 1/1000."""

    def test_plus_table(self, plus_table):
        got = [(e.location, e.value_upper, e.multiplicity) for e in plus_table]
        assert got == [
            (0.0, 9.0, 1),
            (0.151, 7.701, 2),
            (0.302, 4.628, 2),
            (0.448, 1.661, 2),
        ]
        assert sum(e.multiplicity for e in plus_table) == 7

    def test_minus_table(self, minus_table):
        got = [(e.location, e.value_upper, e.multiplicity) for e in minus_table]
        assert got == [
            (0.076, 8.662, 2),
            (0.227, 6.279, 2),
            (0.377, 3.005, 2),
            (0.5, 1.0, 1),
        ]
        assert sum(e.multiplicity for e in minus_table) == 7

    def test_endpoint_entries_are_exact_samples(self, plus_square, minus_square):
        # at the symmetry points G' = 0, so no curvature slack is added there
        plus = default_max_table(plus_square)[0]
        assert plus.value_upper == eval_G(plus_square, 0.0) == 9.0
        minus = default_max_table(minus_square)[-1]
        assert minus.value_upper == pytest.approx(eval_G(minus_square, 0.5), abs=1e-12)

    def test_bounds_dominate_true_maxima(self, plus_square, minus_square):
        """Each value_upper must exceed a sampled value near the reported spot."""
        for spec in (plus_square, minus_square):
            for entry in default_max_table(spec):
                for dx in np.linspace(-0.0005, 0.0005, 11):
                    assert eval_G(spec, entry.location + dx) <= entry.value_upper + 1e-12

    def test_interior_bounds_dominate_G_a_step_around(self, plus_square, minus_square):
        """Each interior value_upper is at least the oracle's G at step 1e-6 over location +- MAXIMA_STEP, where the true maximum lies."""
        for spec in (plus_square, minus_square):
            for entry in default_max_table(spec):
                if entry.multiplicity == 2:
                    worst = max(eval_G(spec, entry.location + i * 1e-6) for i in range(-1000, 1001))
                    assert worst <= entry.value_upper, (spec.sign, entry)

    def test_bump_covers_the_slack_with_a_margin(self):
        """The bump exceeds the curvature slack of the step by 1.5e-4, more than 1e-4."""
        assert MAXIMA_STEP == MAXIMA_BUMP == 0.001
        assert MAXIMA_BUMP - curvature_slack(MAXIMA_STEP) > 1e-4

    def test_a_bump_at_the_slack_exactly_is_taken(self):
        """The import check is bump >= slack: a bump equal to the slack builds both tables, each of 7 maxima."""
        variant = exec_trigpoly(GRID_LINE, "MAXIMA_STEP = 0.001\nMAXIMA_BUMP = curvature_slack(MAXIMA_STEP)\n")
        assert {sign: sum(e.multiplicity for e in table) for sign, table in variant["MAX_TABLES"].items()} == {"minus": 7, "plus": 7}

    @pytest.mark.parametrize("bump", ["math.nextafter(curvature_slack(MAXIMA_STEP), 0.0)", "math.nan"], ids=["ulp_below", "nan"])
    def test_a_bump_below_the_slack_fails_the_import(self, bump):
        """A bump one ulp below the slack, or NaN, is refused when the module loads."""
        with pytest.raises(RuntimeError, match=r"^maxima bump \S+ does not cover the curvature slack 0\.000848786$"):
            exec_trigpoly(GRID_LINE, f"MAXIMA_STEP = 0.001\nMAXIMA_BUMP = {bump}\n")

    def test_lower_bound_is_the_least_sample_less_the_slack(self):
        """G_MIN is the minus sign's sample at x = 0.308, 0.018280, less the slack 8.49e-4, rounded down to 4 decimals: 0.0174."""
        least = min(eval_G(TrigSquare(5, sign), i * MAXIMA_STEP) for sign in SIGN_PAIR for i in range(501))
        assert least == pytest.approx(eval_G(TrigSquare(5, "minus"), 0.308), abs=1e-15)
        assert G_MIN == 0.0174 <= least - curvature_slack(MAXIMA_STEP) < G_MIN + 1e-4

    def test_the_least_positive_lower_bound_is_taken(self):
        """The import check is G_MIN > 0: the least positive float passes it."""
        variant = exec_trigpoly(G_MIN_LINE, "G_MIN = math.ulp(0.0)\n")
        assert variant["G_MIN"] == 5e-324

    @pytest.mark.parametrize("bound", ["0.0", "math.nan"], ids=["zero", "nan"])
    def test_a_lower_bound_that_is_not_positive_fails_the_import(self, bound):
        """A lower bound of exactly 0, or NaN, is refused when the module loads."""
        with pytest.raises(RuntimeError, match=r"^G may vanish: its least grid sample less the curvature slack is (0\.0|nan)$"):
            exec_trigpoly(G_MIN_LINE, f"G_MIN = {bound}\n")

    def test_a_grid_that_misses_maxima_fails_the_import(self):
        """A grid over [0, 1/4] alone finds fewer than 7 maxima for a sign, which is refused when the module loads."""
        with pytest.raises(RuntimeError, match=r"^expected 7 local maxima of the minus sign, found [0-6]$"):
            exec_trigpoly("range(501)", "range(251)")

    @pytest.mark.parametrize(
        "samples,entries",
        [
            ([1.0, 0.0, 2.0], [(0.0, 1.0, 1), (0.002, 2.0, 1)]),
            ([0.0, 1.0, 1.0, 0.0], []),
            ([0.0, 2.0, 1.0, 0.5], [(0.001, 2.001, 2)]),
        ],
        ids=["ends", "flat top", "interior"],
    )
    def test_scan_on_hand_built_samples(self, samples, entries):
        """An end is mirrored onto its one neighbour, not the far end; a flat top is no strict maximum; an interior one is raised and rounded up."""
        assert [tuple(e) for e in _scan_maxima(samples)] == entries

    def test_one_grid_pass_fills_both_default_tables(self, monkeypatch):
        """Both signs' tables come from the one eval_G_pair pass at import: default_max_table takes no pass and returns the sign's table each time."""
        calls = []
        real = trigpoly.eval_G_pair
        monkeypatch.setattr(trigpoly, "eval_G_pair", lambda xs: calls.append(1) or real(xs))
        for sign, table in MAX_TABLES.items():
            assert default_max_table(TrigSquare(5, sign)) is default_max_table(TrigSquare(5, sign.upper())) is table
        assert calls == []


class TestVariationBound:
    def test_frozen_power_one(self, plus_table, minus_table):
        assert variation_bound_power(plus_table, 1.0) == 73.96
        assert variation_bound_power(minus_table, 1.0) == 73.784

    def test_power_zero_counts_multiplicity(self, plus_table):
        assert variation_bound_power(plus_table, 0.0) == 14.0

    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0, 5.5, 6.0])
    def test_dominates_numeric_variation(self, t, plus_square, minus_square):
        """The numeric total variation of G^t over a period must stay below."""
        x = np.linspace(0.0, 1.0, 400_001)
        for spec, label in ((plus_square, "plus"), (minus_square, "minus")):
            g = numpy_G(x, label)
            tv = float(np.abs(np.diff(g**t)).sum())
            bound = variation_bound_power(default_max_table(spec), t)
            assert tv <= bound * (1 + 1e-9), f"t={t} {label}: variation {tv} above {bound}"

    def test_rejects_negative_power(self, plus_table):
        with pytest.raises(ValueError, match="nonnegative"):
            variation_bound_power(plus_table, -0.5)
