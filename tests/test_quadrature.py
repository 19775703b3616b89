"""Tests for the plain midpoint rule and its two error-bound flavours."""

import collections
import itertools
import math

import pytest

from majorant import quadrature
from majorant.certify import TaylorCertificate, eval_cert_poly
from majorant.envelope import envelope_max
from majorant.integrand import IntegrandSpec, h4_term_bounds
from majorant.pipeline import DEFAULT_CONFIG, prove_k5, reproduce_table
from majorant.quadrature import (
    MAX_STEPS,
    MODES,
    CertifiedValue,
    _h_node_sums,
    _integrate_orders,
    _NODE_TABLE,
    _node_chunks,
    _node_table,
    _plain_error,
    gap_derivative,
    gap_derivatives,
    q_values,
    refined_error_bound,
    refined_error_bounds,
    term_integrals,
)
from majorant.spectral import power_integral_bound, torus_integral_upper
from majorant.trigpoly import SignVariant, TrigSquare, default_max_table, sup_norm_bound, variation_bound_power

from conftest import one_sign_integral
from oracle import eval_G, eval_G_derivative, eval_H, q_reference, term_integral_reference

PLUS, MINUS = SignVariant.PLUS, SignVariant.MINUS


@pytest.fixture
def pair_calls(monkeypatch):
    """The arguments of each eval_G_pair call the node table makes while the test runs, one list of nodes per call."""
    calls = []
    real = quadrature.eval_G_pair
    monkeypatch.setattr(quadrature, "eval_G_pair", lambda xs: calls.append(xs) or real(xs))
    return calls


def midpoint_sum(f, n):
    """The midpoint estimate of the integral of f over [0, 1/2], chunked as the package chunks it."""
    return math.fsum([math.fsum(map(f, xs)) for xs in _node_chunks(n)]) / (2.0 * n)


class TestMidpointRule:
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_error_bound_sharp_on_aliasing_mode(self, n):
        """On cos(4 pi N x), the lowest frequency the N-node rule aliases to 0, the error is exactly 1/2.

        Its integral over [0, 1/2] is 0 and every node sits at a trough.  With
        the L^1 norm of the fourth derivative, (4 pi N)^4 * 2/pi, the bound is
        512 pi^3 / 23040 ~ 0.689 at every N: only zeta(4) and the step from
        the L^1 norm to one Fourier coefficient separate the two.  Every lower
        frequency 1..2N-1 integrates to 0 exactly, up to rounding.
        """
        assert midpoint_sum(lambda x: math.cos(4.0 * math.pi * n * x), n) == pytest.approx(-0.5, rel=1e-12)
        bound = _plain_error((4.0 * math.pi * n) ** 4 * 2.0 / math.pi, n)
        assert bound == pytest.approx(512.0 * math.pi**3 / 23040.0, rel=1e-12)
        assert 0.5 < bound < 0.69
        for k in range(1, 2 * n):
            assert abs(midpoint_sum(lambda x: math.cos(2.0 * math.pi * k * x), n)) < 1e-14, k

    def test_bounds_hold_against_mpmath_integral(self):
        """|midpoint sum - integral| is within the refined and the plain bound, for both signs.

        Few nodes, so the error is far above rounding; at N = 4, 8, 16 the
        refined bound is 33-668 times the true error.  The reference is
        Gauss-Legendre on 14 panels at 30 digits, with the package's float t.
        """
        mpmath = pytest.importorskip("mpmath")
        ratios = []
        for sign, (t, j) in itertools.product((PLUS, MINUS), [(5.0, 0), (5.3, 2), (5.9, 6)]):
            s = sign.factor
            with mpmath.workdps(30):

                def h(x):
                    g = 3 + 2 * (mpmath.cospi(2 * x) + s * mpmath.cospi(12 * x) + s * mpmath.cospi(14 * x))
                    return g**t * mpmath.log(g) ** j

                truth = mpmath.quad(h, mpmath.linspace(0, mpmath.mpf(1) / 2, 15), method="gauss-legendre")
                for n in (4, 8, 16):
                    refined, plain = (one_sign_integral(sign, t, n, j, mode) for mode in ("refined", "plain"))
                    assert refined.estimate == plain.estimate
                    error = abs(mpmath.mpf(refined.estimate) - truth)
                    assert error <= refined.error_bound and error <= plain.error_bound, (sign, t, j, n)
                    ratios.append(float(refined.error_bound / error))
        assert 10.0 < min(ratios) and max(ratios) < 1e4

    def test_step_count_validation(self):
        with pytest.raises(ValueError, match="step count"):
            _node_chunks(0)
        with pytest.raises(ValueError, match="step count"):
            _node_chunks(MAX_STEPS + 1)

    def test_boolean_step_count_is_refused(self):
        """True equals 1 but is no step count: it would run one node and report steps=True."""
        with pytest.raises(ValueError, match="step count"):
            _node_chunks(True)
        with pytest.raises(ValueError, match="step count"):
            gap_derivative(1, 5.5, True)

    def test_float_step_count_is_refused(self):
        """100.0 is no step count either, with the table of 100 cached or not (the rule runs before the lookup)."""
        refusal = rf"step count must be an integer in 1\.\.{MAX_STEPS}, got 100\.0"
        with pytest.raises(ValueError, match=refusal):
            _node_chunks(100.0)
        _NODE_TABLE.clear()
        with pytest.raises(ValueError, match=refusal):
            gap_derivative(1, 5.5, 100.0)
        gap_derivative(1, 5.5, 100)
        assert list(_NODE_TABLE) == [100]  # 100.0 == 100, so a plain lookup would find this table
        for call in (lambda: gap_derivative(1, 5.5, 100.0), lambda: _node_table(100.0)):
            with pytest.raises(ValueError, match=refusal):
                call()
        gap_derivative(1, 5.5, 1)
        with pytest.raises(ValueError, match="got True"):
            _node_table(True)  # True == 1 would find the table of 1

    def test_empty_job_list_gives_no_values(self):
        assert gap_derivatives(5.5, 100, []) == []


class TestDeterminism:
    def test_identical_bits_with_cold_and_warm_node_table(self, pair_calls):
        jobs = [(1, "refined"), (3, "plain"), (6, "refined")]
        _NODE_TABLE.clear()
        cold = gap_derivatives(5.4, 500, jobs)
        assert len(pair_calls) == 2  # one cosine pass per chunk of 256 nodes, for both signs
        warm = gap_derivatives(5.4, 500, jobs)
        assert len(pair_calls) == 2  # the warm call finds both signs in the table
        for c, w in zip(cold, warm):
            assert c.estimate.hex() == w.estimate.hex()  # bitwise, not approximately
            assert c.error_bound.hex() == w.error_bound.hex()

    def test_node_table_cache_is_bounded(self, monkeypatch):
        """Only the latest step count is held, and the old table is dropped before a new one is built."""
        held_while_building = []
        real = quadrature.eval_G_pair
        monkeypatch.setattr(quadrature, "eval_G_pair", lambda xs: held_while_building.append(list(_NODE_TABLE)) or real(xs))
        _NODE_TABLE.clear()
        for n in (120, 300, 257):
            gap_derivative(1, 5.5, n, "plain")
        assert held_while_building == [[]] * 5  # 1 + 2 + 2 chunks, none built beside another table
        assert list(_NODE_TABLE) == [257]
        assert set(_NODE_TABLE[257]) == {PLUS, MINUS}

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 640, 3000])
    def test_cold_call_makes_one_cosine_pass_per_chunk(self, n, pair_calls):
        """Both signs come from one eval_G_pair call per chunk of 256 nodes: ceil(N/256) calls, not twice that."""
        _NODE_TABLE.clear()
        gap_derivatives(5.5, n, [(1, "refined"), (2, "plain")])
        assert len(pair_calls) == -(-n // 256)
        assert [len(xs) for xs in pair_calls] == [min(256, n - lo) for lo in range(0, n, 256)]

    def test_warm_proof_makes_no_node_table_misses(self, monkeypatch, pair_calls):
        """One table holds both signs of the default proof's one step count, so a warm proof evaluates no G."""
        prove_k5()
        lookups = []
        real = quadrature._node_table
        monkeypatch.setattr(quadrature, "_node_table", lambda n: lookups.append(n) or real(n))
        pair_calls.clear()
        prove_k5()
        assert pair_calls == []
        assert lookups == [640] * 10  # one lookup per sign of each of the 5 gap_derivatives calls

    def test_proof_builds_each_term_list_once(self, monkeypatch):
        """Term lists are sign-free, so a proof builds one per refined (t, j), not one per sign."""
        calls = []
        real = quadrature.h4_term_bounds
        monkeypatch.setattr(quadrature, "h4_term_bounds", lambda spec: calls.append((spec.t, spec.j)) or real(spec))
        prove_k5()
        assert len(calls) == 37

    def test_proof_computes_each_small_range_term_once(self, monkeypatch):
        """The envelope part of the term integrals is sign-free, so one refined pass per call serves both signs.

        Measured: 201 calls from quadrature per warm proof, one per key with
        j > 0 of each call, half the 402 of one pass per sign.
        """
        calls = []
        real = quadrature.envelope_max
        prove_k5()  # warm
        monkeypatch.setattr(quadrature, "envelope_max", lambda *args: calls.append(args) or real(*args))
        prove_k5()
        assert len(calls) == 201

    def test_log_columns_live_with_the_node_table(self):
        """(log G)^p is kept on the table's chunks once asked for, and rebuilt with the table."""
        trig, orders = TrigSquare(5, PLUS), [0, 3, 7]
        warm = _h_node_sums(trig, 5.3, orders, 500)
        assert all(set(chunk.logs) >= {0, 3, 7} for chunk in _node_table(500)[PLUS])
        _NODE_TABLE.clear()
        assert all(chunk.logs == {} for chunk in _node_table(500)[PLUS])
        cold = _h_node_sums(trig, 5.3, orders, 500)
        assert {j: v.hex() for j, v in cold.items()} == {j: v.hex() for j, v in warm.items()}

    def test_repeat_runs_are_bitwise_stable(self):
        a = gap_derivative(1, 5.0, 200, "refined")
        b = gap_derivative(1, 5.0, 200, "refined")
        assert a == b


def default_proof_passes():
    """{(t, N): [(order, mode), ...]} for every gap-derivative evaluation of the default proof."""
    passes = {}
    for stage in DEFAULT_CONFIG["stages"].values():
        if "center" in stage:
            orders = range(stage["base_order"], stage["base_order"] + stage["degree"] + 1)
            passes.setdefault((stage["center"], stage["steps"]), []).extend((j, stage["mode"]) for j in orders)
        elif "order" in stage:
            passes.setdefault((stage["t"], stage["steps"]), []).append((stage["order"], stage["mode"]))
    return passes


def pointwise_node_sum(spec, n):
    """Chunked fsum of eval_H over the midpoint nodes, 256 per chunk."""
    xs = [(2 * i - 1) / (4.0 * n) for i in range(1, n + 1)]
    return math.fsum([math.fsum(eval_H(spec, x) for x in xs[lo:lo + 256]) for lo in range(0, n, 256)])


class TestBatchedNodeSums:
    def test_bitwise_equal_to_pointwise_reference(self):
        """One batched pass per (sign, t, N) reproduces every pointwise H sum, hence every estimate, exactly."""
        passes = default_proof_passes()
        assert sum(len(jobs) for jobs in passes.values()) == 38
        for (t, n), jobs in passes.items():
            orders = [j for j, _ in jobs]
            for sign in (PLUS, MINUS):
                batched = _h_node_sums(TrigSquare(5, sign), t, sorted(orders), n)
                for j in orders:
                    assert batched[j].hex() == pointwise_node_sum(IntegrandSpec(t, j, sign), n).hex(), (t, n, j, sign)

    def test_batched_refined_bounds_equal_single_calls(self):
        """One refined_error_bounds pass per (t, N) for both signs reproduces every single bound and the oracle bitwise."""
        for (t, n), jobs in default_proof_passes().items():
            term_sums = [h4_term_bounds(IntegrandSpec(t, j, PLUS)) for j, _ in jobs]
            squares = [(trig, default_max_table(trig)) for trig in (TrigSquare(5, PLUS), TrigSquare(5, MINUS))]
            for (trig, table), batched in zip(squares, refined_error_bounds(term_sums, squares, n)):
                singles = [refined_error_bound(s, trig, n, table) for s in term_sums]
                assert [b.hex() for b in batched] == [s.hex() for s in singles], (t, n, trig.sign)
                termwise = [  # the per-key oracle, summed as the error bound sums it
                    math.fsum(
                        term.coefficient * term_integral_reference(term.has_gprime, trig, term.t_r, term.j_r, table)
                        for term in s
                    ) / (23040.0 * float(n) ** 4)
                    for s in term_sums
                ]
                assert [b.hex() for b in batched] == [w.hex() for w in termwise], (t, n, trig.sign)

    def test_single_order_sums_match_batch_and_oracle(self):
        """A one-order pass, as one gap_derivative call makes, and gapped batches agree with the full batch.

        At N = 777 the last chunk is partial (777 = 3 * 256 + 9).  Every order
        0..10 alone, and the batches {1, 3} and {0, 4, 9}, give bitwise the H
        sums of the batch {0..10}, and those match the pointwise oracle bitwise.
        """
        t, n = 5.7, 777
        for sign in (PLUS, MINUS):
            trig = TrigSquare(5, sign)
            batch = {j: v.hex() for j, v in _h_node_sums(trig, t, list(range(11)), n).items()}
            for orders in [[j] for j in range(11)] + [[1, 3], [0, 4, 9]]:
                for j, v in _h_node_sums(trig, t, orders, n).items():
                    assert v.hex() == batch[j], (sign, orders, j)
            for j in range(11):
                assert batch[j] == pointwise_node_sum(IntegrandSpec(t, j, sign), n).hex(), (sign, j)

    def test_shared_refined_pass_equals_one_sign_bound(self):
        """Every refined per-sign error bound of the default proof is bitwise refined_error_bound on that sign."""
        checked = 0
        for (t, n), jobs in default_proof_passes().items():
            per_sign = _integrate_orders((MINUS, PLUS), t, n, jobs)
            for sign, values in zip((MINUS, PLUS), per_sign):
                trig = TrigSquare(5, sign)
                for (j, mode), value in zip(jobs, values):
                    if mode == "refined":
                        terms = h4_term_bounds(IntegrandSpec(t, j, sign))
                        single = refined_error_bound(terms, trig, n, default_max_table(trig))
                        assert value.error_bound.hex() == single.hex(), (sign, t, j, n)
                        checked += 1
        assert checked == 2 * 37

    def test_batch_matches_single_order_calls(self):
        jobs = [(1, "refined"), (4, "plain"), (2, "refined")]
        singles = [gap_derivative(order, 5.2, 300, mode) for order, mode in jobs]
        assert gap_derivatives(5.2, 300, jobs) == singles


class TestQPass:
    """The q pass and the term-integral pass share their ingredients across keys and squares, and change no value."""

    @pytest.mark.parametrize("table_id,n", [("Q500", 500), ("Q400", 400)])
    def test_tables_equal_oracle(self, table_id, n, squares):
        """Every Q500/Q400 entry, both signs, and a one-key q pass are bitwise the per-key oracle."""
        _, rows = reproduce_table(table_id)
        for kind, t, j, *per_sign, _, _ in rows:
            key = (kind == "star", float(t), j)
            for value, (trig, table) in zip(per_sign, squares):
                expected = q_reference(kind == "star", trig, float(t), j, n, table).hex()
                single = q_values([key], [(trig, table)], n)[0][key]
                assert value.hex() == single.hex() == expected, (table_id, kind, t, j, trig.sign)

    def test_proof_keys_equal_oracle(self, squares):
        """Every (has_gprime, t_r, j_r) key of the default proof's refined bounds, both signs, is bitwise the oracle.

        Both per-key passes are checked at the proof's N: term_integrals, which
        the refined error bounds sum, and the q pass.
        """
        checked = 0
        for (t, n), jobs in default_proof_passes().items():
            terms = [term for j, mode in jobs if mode == "refined" for term in h4_term_bounds(IntegrandSpec(t, j, PLUS))]
            keys = [(term.has_gprime, term.t_r, term.j_r) for term in terms]
            for q, integrals, (trig, table) in zip(q_values(keys, squares, n), term_integrals(keys, squares), squares):
                assert set(q) == set(integrals) == set(keys)
                for (has_gprime, t_r, j_r), value in q.items():
                    expected = q_reference(has_gprime, trig, t_r, j_r, n, table)
                    assert value.hex() == expected.hex(), (t, n, has_gprime, t_r, j_r, trig.sign)
                    expected = term_integral_reference(has_gprime, trig, t_r, j_r, table)
                    assert integrals[has_gprime, t_r, j_r].hex() == expected.hex(), (t, has_gprime, t_r, j_r, trig.sign)
                    checked += 1
        assert checked == 2 * 221

    @pytest.mark.parametrize("table_id,envelopes", [("Q500", 5), ("Q400", 10)])
    def test_each_table_computes_each_ingredient_once(self, monkeypatch, table_id, envelopes):
        """Per table: one variation per (sign, power), one torus bound per power, one envelope term per key.

        Both tables use the powers 1..4 for variations and 2, 3, 4, 6 for torus
        bounds; Q500 has 5 keys with j > 0, Q400 has 10.
        """
        calls = collections.Counter()
        for name in ("variation_bound_power", "torus_integral_upper", "envelope_max"):
            real = getattr(quadrature, name)
            monkeypatch.setattr(quadrature, name, lambda *a, _real=real, _name=name, **k: calls.update([_name]) or _real(*a, **k))
        reproduce_table(table_id)
        assert calls == {"variation_bound_power": 8, "torus_integral_upper": 4, "envelope_max": envelopes}


class TestNodeSumBounds:
    """The q pass's bounds, with |G'| ("star") and without ("plain"), must dominate the true node sums they stand for."""

    @pytest.mark.parametrize("t,j", [(1.0, 0), (3.0, 1), (5.0, 2), (5.5, 0)])
    def test_q_plain_dominates(self, t, j, squares):
        n = 500
        nodes = [(2 * i - 1) / (4.0 * n) for i in range(1, n + 1)]
        for (spec, _), bounds in zip(squares, q_values([(False, t, j)], squares, n)):
            total = math.fsum(
                eval_G(spec, x) ** t * abs(math.log(eval_G(spec, x))) ** j for x in nodes
            )
            bound = bounds[False, t, j]
            assert total <= bound, f"t={t} j={j} {spec.sign.value}: {total} > {bound}"

    @pytest.mark.parametrize("t,j", [(1.0, 0), (3.0, 1), (5.0, 2)])
    def test_q_star_dominates(self, t, j, squares):
        n = 400
        nodes = [(2 * i - 1) / (4.0 * n) for i in range(1, n + 1)]
        for (spec, _), bounds in zip(squares, q_values([(True, t, j)], squares, n)):
            total = math.fsum(
                eval_G(spec, x) ** t
                * abs(math.log(eval_G(spec, x))) ** j
                * abs(eval_G_derivative(spec, 1, x))
                for x in nodes
            )
            bound = bounds[True, t, j]
            assert total <= bound, f"t={t} j={j} {spec.sign.value}: {total} > {bound}"

    def test_frozen_values(self, squares):
        plus, minus = q_values([(True, 1.0, 0), (False, 3.0, 0), (False, 4.0, 1)], squares, 500)
        assert plus[True, 1.0, 0] == pytest.approx(137075.2576885526, rel=1e-12)
        assert minus[True, 1.0, 0] == pytest.approx(137063.17368855263, rel=1e-12)
        assert plus[False, 3.0, 0] == pytest.approx(48349.835484068, rel=1e-12)
        assert minus[False, 4.0, 1] == pytest.approx(733943.3811378691, rel=1e-12)

    def test_bounds_beyond_float_range_are_infinite(self):
        """Large t or j push a bound past the float range: it is inf, still a valid bound, not an OverflowError.

        At t = 325, G^t at the 10 nodes stays finite (their largest G is about
        8.66), while 9^(t+1) in the variation bound of the refined mode and the
        sup bound of the plain mode do not.
        """
        for j, t, mode in ((1, 325.0, "refined"), (1, 325.0, "plain"), (300, 200.0, "plain"), (400, 170.0, "refined")):
            value = gap_derivative(j, t, 10, mode)
            assert math.isfinite(value.estimate) and value.error_bound == math.inf, (j, t, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowing_node_sum_is_refused(self, mode):
        """At t = 323.0, 9^t and every G^t at the 1000 nodes are finite but a chunk's node sum is not.

        power_row computes every G^t; the node sum that passes the float range
        is refused by _h_node_sums, naming the order and t.
        """
        with pytest.raises(ValueError, match=r"^log order 0 at power t = 323\.0 is too large to evaluate: its node sum overflows"):
            gap_derivative(0, 323.0, 1000, mode)

    def test_overflowing_total_of_chunk_sums_is_refused(self):
        """At N = 100000 and t = 320.3 every 256-node chunk sum is finite, but their total is not.

        The plus square's peak G(0) = 9 then spreads over many chunks, so the
        overflow comes from the fsum that adds the chunk sums; it is refused
        like the others, not raised as an OverflowError.
        """
        try:
            with pytest.raises(ValueError, match=r"^log order 0 at power t = 320\.3 is too large to evaluate: its node sum overflows"):
                gap_derivative(0, 320.3, 100_000, "plain")
        finally:
            _NODE_TABLE.clear()  # both signs' tables of 100000 nodes

    def test_overflowing_log_power_gives_infinity(self, plus_square, plus_table):
        """log(9)^j beyond the float range is an infinite bound, not an OverflowError."""
        (bounds,) = q_values([(True, 6.0, 1000), (False, 6.0, 1000)], [(plus_square, plus_table)], 100)
        assert bounds == {(True, 6.0, 1000): math.inf, (False, 6.0, 1000): math.inf}
        # one node, where |log G| < log 9, so the node pass stays finite
        value = gap_derivative(1000, 5.5, 1, "refined")
        assert math.isfinite(value.estimate) and value.error_bound == math.inf

    @pytest.mark.parametrize("n_steps", [100.5, True, 0])
    def test_bound_passes_share_the_node_step_rule(self, n_steps, plus_square, plus_table):
        """A step count the node pass refuses has no node sum to bound, so both bound passes refuse it too."""
        squares = [(plus_square, plus_table)]
        terms = h4_term_bounds(IntegrandSpec(5.5, 1, PLUS))
        for call in (
            lambda: _node_chunks(n_steps),
            lambda: q_values([(False, 5.0, 1)], squares, n_steps),
            lambda: refined_error_bounds([terms], squares, n_steps),
        ):
            with pytest.raises(ValueError, match=rf"^step count must be an integer in 1\.\.{MAX_STEPS}, got {n_steps!r}$"):
                call()

    def test_input_validation(self, plus_square, plus_table):
        with pytest.raises(ValueError, match=">= 1"):
            q_values([(False, 0.5, 0)], [(plus_square, plus_table)], 100)
        with pytest.raises(ValueError, match="nonnegative"):
            q_values([(True, 2.0, -1)], [(plus_square, plus_table)], 100)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda sq, tb: q_values([(False, math.nan, 1)], [(sq, tb)], 100), id="q_plain"),
            pytest.param(lambda sq, tb: q_values([(True, math.nan, 1)], [(sq, tb)], 100), id="q_star"),
            pytest.param(
                lambda sq, tb: refined_error_bound(h4_term_bounds(IntegrandSpec(5.5, 1, PLUS)), sq, math.nan, tb),
                id="refined_error_bound",
            ),
            pytest.param(lambda sq, tb: variation_bound_power(sq, math.nan, tb), id="variation_bound_power"),
            pytest.param(lambda sq, tb: torus_integral_upper(math.nan), id="torus_integral_upper"),
            pytest.param(lambda sq, tb: power_integral_bound(math.nan, 3), id="power_integral_bound"),
            pytest.param(lambda sq, tb: envelope_max(math.nan, 2, 0.0, 9.0), id="envelope_max"),
            pytest.param(lambda sq, tb: sup_norm_bound(math.nan), id="sup_norm_bound"),
            pytest.param(
                lambda sq, tb: eval_cert_poly(
                    TaylorCertificate(5.5, 0.1, 1, 1, (1.0, 2.0), (0.0, 0.0), (1.0, 1.0), 0.0, 1.0), 0, math.nan
                ),
                id="eval_cert_poly",
            ),
        ],
    )
    def test_nan_argument_is_refused(self, call, plus_square, plus_table):
        """NaN fails every comparison, so a check written as x < lo lets it through to a nan bound."""
        with pytest.raises(ValueError):
            call(plus_square, plus_table)


class TestIntegrateH:
    """One sign's certified integral of H, through _integrate_orders."""

    def test_refined_tracks_oracle(self, half_period_oracle):
        for t, j, sign in ((5.0, 1, PLUS), (5.0, 1, MINUS), (5.23, 2, MINUS)):
            value = one_sign_integral(sign, t, 500, j, "refined")
            truth = half_period_oracle(t, j, sign.value)
            assert abs(value.estimate - truth) <= value.error_bound
            assert abs(value.estimate - truth) < 1e-6  # the bound is very conservative

    def test_refined_beats_plain_bound(self):
        plain, refined = (one_sign_integral(PLUS, 5, 500, 1, mode) for mode in ("plain", "refined"))
        assert refined.estimate == plain.estimate  # same nodes, same estimate
        assert refined.error_bound < plain.error_bound
        assert refined.method == "refined" and plain.method == "plain"

    def test_refined_error_bound_consistency(self, plus_square, plus_table):
        direct = refined_error_bound(h4_term_bounds(IntegrandSpec(5, 2, PLUS)), plus_square, 400, plus_table)
        assert one_sign_integral(PLUS, 5, 400, 2, "refined").error_bound == direct

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="plain.*refined"):
            gap_derivatives(5, 100, [(0, "fancy")])

    def test_term_lists_are_sign_free(self, minus_square, minus_table):
        """Plus and minus give the same fourth-derivative terms, hence bitwise the same bound on a square."""
        for t, j in itertools.product((5.0, 5.065, 5.33, 5.72, 6.0, 7.5), range(13)):
            plus, minus = (h4_term_bounds(IntegrandSpec(t, j, sign)) for sign in (PLUS, MINUS))
            assert plus == minus and all(term.t_r >= 1.0 for term in plus), (t, j)
            bounds = [refined_error_bound(terms, minus_square, 500, minus_table) for terms in (plus, minus)]
            assert bounds[0].hex() == bounds[1].hex(), (t, j)


class TestGapDerivative:
    def test_frozen_pipeline_values(self):
        d1 = gap_derivative(1, 5.0, 640, "refined")
        assert d1.estimate == pytest.approx(0.0028784920996258734, rel=1e-12)
        assert d1.error_bound == pytest.approx(0.0017340235806283162, rel=1e-12)
        d2 = gap_derivative(2, 5.0, 640, "refined")
        assert d2.estimate == pytest.approx(0.033815603115726844, rel=1e-12)
        assert d2.error_bound == pytest.approx(0.004975026091751638, rel=1e-12)
        d3 = gap_derivative(3, 5.0, 640, "plain")
        assert d3.estimate == pytest.approx(0.18354763425304554, rel=1e-12)
        assert d3.error_bound == pytest.approx(0.14638948570653776, rel=1e-12)

    def test_tracks_oracle(self, half_period_oracle):
        """Each derivative stage at t = 5, at the proof's 640 nodes, encloses the Simpson oracle."""
        for order, mode in ((1, "refined"), (2, "refined"), (3, "plain")):
            value = gap_derivative(order, 5.0, 640, mode)
            truth = half_period_oracle(5.0, order, "minus") - half_period_oracle(5.0, order, "plus")
            assert abs(value.estimate - truth) <= value.error_bound, order
            assert abs(value.estimate - truth) < 1e-6, order

    def test_returns_certified_value(self):
        value = gap_derivative(1, 5.5, 50, "refined")
        assert isinstance(value, CertifiedValue)
        assert value.steps == 50 and value.method == "refined"

    def test_high_order_without_overflow(self):
        """At order 510, (log G)^510 and every node sum stay finite, so the estimate is a number.

        The reference is the same 100-node midpoint sum at 60 digits (mpmath).
        """
        value = gap_derivative(510, 5.5, 100, "plain")
        assert value.estimate == pytest.approx(3.9846027431704598e293, rel=1e-10)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gap_derivative(-1, 5.0, 100)
