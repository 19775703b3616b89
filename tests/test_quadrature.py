"""Tests for the plain midpoint rule and its two error-bound flavours."""

import collections
import decimal
import hashlib
import itertools
import math
import pickle
import platform
import random
import struct
from fractions import Fraction

import pytest

from majorant import integrand, quadrature
from majorant import tables as tables_module  # the fixture tables is a pair of maxima tables
from majorant.certify import PIPELINE_T_MIN, TaylorCertificate, build_certificate, eval_cert_poly
from majorant.envelope import envelope_max
from majorant.integrand import IntegrandSpec, h4_bounds, h4_term_bounds, term_kinds
from majorant.pipeline import DEFAULT_CONFIG, DERIVATIVE_STAGES, STEPS, emit_report, prove_k5
from majorant.quadrature import (
    MAX_STEPS,
    MODES,
    CertifiedValue,
    _cells,
    _ERR_DENOM,
    _error_bounds,
    _gap_batch,
    _h_node_sums,
    _integral_bases,
    _INTEGRAL_WEIGHTS,
    _NODE_TABLE,
    _node_table,
    _nodes,
    _sup_cells,
    gap_derivative,
    gap_derivatives,
    refined_error_bound,
)
from majorant.spectral import torus_integral_upper, torus_power_integral
from majorant.tables import q_values, reproduce_table
from majorant.trigpoly import MAX_TABLES, SIGN_PAIR, TrigSquare, default_max_table, sup_norm_bound, variation_bound_power

from conftest import one_sign_integral, plain_h4_bound
from test_integrand import keyed
from oracle import SCALAR_GROUPS, brace_terms_reference, envelope_reference, eval_G, eval_G_derivative, eval_H, gap_reference, h4_sup_bound_reference
from oracle import proof_gap_batches, q_reference, refined_error_bound_reference, sign_factor, term_integral_reference

PLUS, MINUS = "plus", "minus"


@pytest.fixture
def pair_calls(monkeypatch):
    """The arguments of each eval_G_pair call the node table makes while the test runs, one list of nodes per call."""
    calls = []
    real = quadrature.eval_G_pair

    def recording(xs):
        calls.append(list(xs))
        return real(calls[-1])

    monkeypatch.setattr(quadrature, "eval_G_pair", recording)
    return calls


@pytest.fixture
def fsum_lengths(monkeypatch):
    """The length of the input of each fsum quadrature takes while the test runs: N for a node sum."""
    lengths = []
    real = quadrature.fsum

    def counting(xs):
        xs = list(xs)
        lengths.append(len(xs))
        return real(xs)

    monkeypatch.setattr(quadrature, "fsum", counting)
    return lengths


@pytest.fixture
def pass_calls(monkeypatch):
    """The number of calls gap_derivatives makes to each function of its bound pass and node pass while the test runs, by name."""
    calls = collections.Counter()
    for name in ("h4_bounds", "_cells", "_sup_cells", "_error_bounds", "_h_node_sums"):
        real = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name, lambda *args, _real=real, _name=name: calls.update([_name]) or _real(*args))
    return calls


def log_orders(bounds):
    """The log orders p that the (coefficient, group, p) terms of bounds use: those of their cells."""
    return {p for terms in bounds for _, _, p in terms}


def refined_bounds(t, orders, tables, n):
    """Per table, the refined error bound of each order at t: its terms over the table's integral cells, as gap_derivatives sums them."""
    bounds, kinds = h4_bounds(t, orders), term_kinds(t)
    return _error_bounds(bounds, _cells(kinds, log_orders(bounds), _INTEGRAL_WEIGHTS, _integral_bases(kinds, tables)), n)


def plain_bounds(t, orders, n):
    """The plain error bound of each order at t, one sign's: its terms over the sign-free sup cells, as gap_derivatives sums them."""
    bounds = h4_bounds(t, orders)
    return _error_bounds(bounds, [_sup_cells(term_kinds(t), log_orders(bounds))], n)[0]


def clear_caches():
    """Drop the node table and the memoized batches, so the next call takes every pass."""
    _NODE_TABLE.clear()
    _gap_batch.cache_clear()


def bits(values):
    """The (estimate, error_bound) of each certified value as hex strings: what bitwise equality compares."""
    return [(v.estimate.hex(), v.error_bound.hex()) for v in values]


def midpoint_sum(f, n):
    """The midpoint estimate of the integral of f over [0, 1/2], one fsum over the nodes as the package sums it."""
    return math.fsum(map(f, _nodes(n))) / (2.0 * n)


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
        bound = (4.0 * math.pi * n) ** 4 * 2.0 / math.pi / (_ERR_DENOM * float(n) ** 4)  # the plain bound's form
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
            s = sign_factor(sign)
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

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 640, 3000, 99991])
    def test_nodes_are_the_rounded_midpoints(self, n):
        """Node k of N is (2k-1)/(4N) rounded once to a float, in node order."""
        exact = [float(Fraction(2 * k - 1, 4 * n)).hex() for k in range(1, n + 1)]
        assert [x.hex() for x in _nodes(n)] == exact

    def test_step_count_validation(self):
        with pytest.raises(ValueError, match="step count"):
            _nodes(0)
        with pytest.raises(ValueError, match="step count"):
            _nodes(MAX_STEPS + 1)

    def test_boolean_step_count_is_refused(self):
        """True equals 1 but is no step count: it would run one node and report steps=True."""
        with pytest.raises(ValueError, match="step count"):
            _nodes(True)
        with pytest.raises(ValueError, match="step count"):
            gap_derivative(1, 5.5, True)

    def test_float_step_count_is_refused(self):
        """100.0 is no step count either, with the table of 100 cached or not (the rule runs before the lookup)."""
        refusal = rf"step count must be an integer in 1\.\.{MAX_STEPS}, got 100\.0"
        with pytest.raises(ValueError, match=refusal):
            _nodes(100.0)
        clear_caches()
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

    def test_empty_job_list_gives_no_values(self, pair_calls):
        """No orders give no values at any t, nan and 400.0 too, from no pass: not even the cosines are taken."""
        _NODE_TABLE.clear()
        for t in (5.5, math.nan, 400.0):
            assert [gap_derivatives(t, 100, [], mode) for mode in MODES] == [[], []], t
        assert pair_calls == []

    @pytest.mark.parametrize("n_steps", [True, 100.5, 0])
    def test_empty_job_list_checks_the_step_count(self, n_steps):
        """No orders give no values, but only for a step count the node pass would take: at any t, nan too."""
        for t in (5.5, math.nan):
            with pytest.raises(ValueError, match=rf"^step count must be an integer in 1\.\.{MAX_STEPS}, got {n_steps!r}$"):
                gap_derivatives(t, n_steps, [], "refined")

    def test_empty_job_list_checks_the_mode(self):
        with pytest.raises(ValueError, match=r"^mode must be one of \('plain', 'refined'\), got 'fancy'$"):
            gap_derivatives(5.5, 100, [], "fancy")

    def test_generators_give_the_values_of_lists(self):
        """Orders are read once, so a generator of them gives what the list gives."""
        orders = [1, 3, 2]
        for mode in MODES:
            assert gap_derivatives(5.5, 640, (j for j in orders), mode) == gap_derivatives(5.5, 640, orders, mode) != [], mode


class TestDeterminism:
    def test_identical_bits_with_cold_and_warm_node_table(self, pair_calls):
        orders = [1, 3, 6]
        clear_caches()
        cold = [value for mode in MODES for value in gap_derivatives(5.4, 500, orders, mode)]
        assert len(pair_calls) == 1  # one cosine pass per table build, for both signs
        _gap_batch.cache_clear()  # so the warm calls take their passes on the warm table
        warm = [value for mode in MODES for value in gap_derivatives(5.4, 500, orders, mode)]
        assert len(pair_calls) == 1  # the warm call finds both signs in the table
        for c, w in zip(cold, warm):
            assert c.estimate.hex() == w.estimate.hex()  # bitwise, not approximately
            assert c.error_bound.hex() == w.error_bound.hex()

    def test_node_table_cache_is_bounded(self, monkeypatch):
        """Only the latest step count is held, and the old table is dropped before a new one is built."""
        held_while_building = []
        real = quadrature.eval_G_pair
        monkeypatch.setattr(quadrature, "eval_G_pair", lambda xs: held_while_building.append(list(_NODE_TABLE)) or real(xs))
        clear_caches()
        for n in (120, 300, 257):
            gap_derivative(1, 5.5, n, "plain")
        assert held_while_building == [[]] * 3  # one build per step count, none beside another table
        assert list(_NODE_TABLE) == [257]
        assert set(_NODE_TABLE[257]) == {PLUS, MINUS}

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 640, 3000])
    def test_cold_build_makes_one_cosine_pass(self, n, pair_calls):
        """Both signs come from one eval_G_pair call over all N nodes, in node order, per table build."""
        clear_caches()
        gap_derivatives(5.5, n, [1, 2], "refined")
        assert pair_calls == [list(_nodes(n))]

    def test_warm_proof_makes_no_node_table_misses(self, monkeypatch, pair_calls, pass_calls):
        """One table holds both signs of the default proof's one step count, and the memo its batches: a warm proof evaluates no G and takes no pass."""
        lookups = []
        real = quadrature._node_table
        monkeypatch.setattr(quadrature, "_node_table", lambda n: lookups.append(n) or real(n))
        clear_caches()
        prove_k5()
        assert pair_calls == [list(_nodes(640))]  # one cosine pass, for both signs
        assert lookups == [640] * 5  # one lookup for both signs of each of the 5 gap_derivatives calls
        lookups.clear(), pair_calls.clear(), pass_calls.clear()
        prove_k5()
        assert pair_calls == [] and lookups == [] and pass_calls == {}

    def test_proof_builds_each_term_list_once(self, monkeypatch):
        """Term lists are sign-free, so a cold proof builds one per (t, j), not one per sign, from one h4_bounds call per batch; a warm one builds none."""
        calls = []
        real = quadrature.h4_bounds
        monkeypatch.setattr(quadrature, "h4_bounds", lambda t, orders: calls.append(list(orders)) or real(t, orders))
        clear_caches()
        prove_k5()
        assert sum(map(len, calls)) == 38
        assert len(calls) == 5  # one per gap_derivatives batch
        calls.clear()
        prove_k5()
        assert calls == []

    def test_proof_computes_each_small_range_term_once(self, monkeypatch):
        """The cells of the refined bounds are sign-free below 1/9, so one cell table per batch serves both signs.

        Measured: 235 cells per sign per cold proof, 5 groups at 47 log orders
        (the union of j-4..j over each batch's orders: 4, 11, 10, 11 and 11
        orders), from one _cells call per batch, and its small-range terms
        from one envelope_max call on [0, 1/9], each taken once for both
        signs: 168, the 4 distinct powers of the 5 groups (t - 2 twice) at
        the 42 orders with p > 0.  A warm proof, its batches memoized, takes none.
        """
        calls, small_ranges = [], []
        real, real_envelope = quadrature._cells, quadrature.envelope_max

        def counting(kinds, orders, weights, table_bases):
            per_table = real(kinds, orders, weights, table_bases)
            calls.append((len(kinds), len(orders), [sum(map(len, cells.values())) for cells in per_table]))
            return per_table

        def counting_envelope(powers, orders, b):
            rows = real_envelope(powers, orders, b)
            small_ranges.append((b, sum(map(len, rows.values()))))
            return rows

        monkeypatch.setattr(quadrature, "_cells", counting)
        monkeypatch.setattr(quadrature, "envelope_max", counting_envelope)
        clear_caches()
        prove_k5()
        assert [(kinds, orders) for kinds, orders, _ in calls] == [(5, 4), (5, 11), (5, 10), (5, 11), (5, 11)]
        assert all(per_table == [5 * orders] * 2 for _, orders, per_table in calls)
        assert sum(per_table[0] for _, _, per_table in calls) == 235
        assert [b for b, _ in small_ranges] == [1.0 / 9.0] * 5
        assert sum(entries for _, entries in small_ranges) == 168
        calls.clear(), small_ranges.clear()
        prove_k5()
        assert calls == small_ranges == []

    @pytest.mark.parametrize("j", [0, 1, 3, 4, 9, 30, 10**6, 10**15])
    def test_single_order_call_builds_cells_at_its_orders_only(self, j, monkeypatch):
        """A one-order call takes the cells of the five groups at the log orders j-4..j (from 0), never 0..j.

        derivative_sweep makes one gap_derivative call per op and
        certificate_audit one refined_error_bound call per bound; both are
        checked up to j = 30.  Past that only refined_error_bound is: a node sum at
        j = 10**6 or 10**15 overflows in (log G)^j before any bound is taken.
        """
        calls, sup_calls = [], []
        real, real_sup = quadrature._cells, quadrature._sup_cells
        monkeypatch.setattr(quadrature, "_cells", lambda kinds, orders, *rest: calls.append((list(kinds), set(orders))) or real(kinds, orders, *rest))
        monkeypatch.setattr(quadrature, "_sup_cells", lambda kinds, orders: sup_calls.append((list(kinds), set(orders))) or real_sup(kinds, orders))
        expected = set(range(max(j - 4, 0), j + 1))
        trig = TrigSquare(5, PLUS)
        refined_error_bound(h4_term_bounds(IntegrandSpec(5.5, j, PLUS)), trig, 300, default_max_table(trig))
        if j <= 30:
            gap_derivative(j, 5.5, 300, "refined")
            gap_derivative(j, 5.5, 300, "plain")
        assert [orders for _, orders in calls] == [expected] * (1 + (j <= 30))
        assert [orders for _, orders in sup_calls] == [expected] * (j <= 30)
        assert all(kinds == term_kinds(5.5) for kinds, _ in calls + sup_calls)

    def test_plain_batch_takes_one_envelope_call(self, monkeypatch):
        """A plain batch's sup cells come from one envelope_max call on [0, 9], with an entry per distinct power and log order.

        At t = 5.5 the five groups have the 4 distinct powers t - 4..t - 1 (t - 2
        twice), and the orders 0..39 use the log orders 0..39: 160 entries, where
        one call per order over j - 4..j made 40 calls and 760 entries.  The
        integrand states the terms only, and calls no envelope_max.
        """
        calls = []
        real = quadrature.envelope_max

        def counting(powers, orders, b):
            rows = real(powers, orders, b)
            calls.append((b, sum(map(len, rows.values()))))
            return rows

        monkeypatch.setattr(quadrature, "envelope_max", counting)
        gap_derivatives(5.5, 640, range(40), "plain")
        assert calls == [(9.0, 160)]
        assert not hasattr(integrand, "envelope_max")

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 640])
    def test_each_sign_holds_all_nodes_falling_then_rising(self, n, monkeypatch):
        """Each sign's G holds all N nodes from eval_G_pair, G >= 1 non-increasing, then G < 1 non-decreasing, and its one log column, p = 1, follows it.

        fsum is exactly rounded whatever the order of its terms; this one
        keeps its list of partials short.
        """
        outputs = []
        real = quadrature.eval_G_pair

        def recording(xs):
            pair = real(xs)
            outputs.append([list(g) for g in pair])  # copies, in node order
            return pair

        monkeypatch.setattr(quadrature, "eval_G_pair", recording)
        _NODE_TABLE.clear()
        table = _node_table(n)
        assert len(outputs) == 1
        for sign, node_order in zip((MINUS, PLUS), outputs[0]):
            g, logs = table[sign]
            assert len(g) == n, sign
            assert sorted(g) == sorted(node_order), sign
            split = sum(v >= 1.0 for v in node_order)
            high, low = g[:split], g[split:]
            assert n == 1 or (high and low), sign  # both parts are tested
            assert all(v >= 1.0 for v in high) and all(v < 1.0 for v in low), sign
            assert all(a >= b for a, b in zip(high, high[1:])), sign
            assert all(a <= b for a, b in zip(low, low[1:])), sign
            assert logs == {1: list(map(math.log, g))}, sign

    def test_node_sums_are_free_of_the_column_order(self, monkeypatch, fsum_lengths):
        """All 76 node sums of the default proof, and its 38 gap values, are bit-identical over columns in node order, reversed or shuffled: the order is a speed choice only.

        The memo is cleared for each hand-built table, so its 38 gap values are
        taken on its own columns, not read from the batches taken before.
        """
        passes = default_proof_passes()
        assert {n for _, n, _ in passes} == {640}

        def node_sums():
            return {
                (sign, t, j): v.hex()
                for (t, n, _), orders in passes.items()
                for sign in SIGN_PAIR
                for j, v in _h_node_sums(_node_table(n)[sign], t, orders).items()
            }

        def gap_values():
            return [value for (t, n, mode), orders in passes.items() for value in bits(gap_derivatives(t, n, orders, mode))]

        reference, reference_values = node_sums(), gap_values()
        assert len(reference) == 76 and len(reference_values) == 38
        node_order = dict(zip(SIGN_PAIR, quadrature.eval_G_pair(_nodes(640))))
        orders = {
            "node order": node_order,
            "reversed": {sign: g[::-1] for sign, g in node_order.items()},
            "shuffled": {sign: random.Random(24).sample(g, len(g)) for sign, g in node_order.items()},
        }
        for name, columns in orders.items():
            table = {sign: (g, {1: list(map(math.log, g))}) for sign, g in columns.items()}
            monkeypatch.setitem(_NODE_TABLE, 640, table)  # restored when the test ends
            fsum_lengths.clear()
            assert node_sums() == reference, name
            assert fsum_lengths == [640] * 76, name  # every sum taken here, one fsum over all nodes each
            fsum_lengths.clear()
            _gap_batch.cache_clear()
            assert gap_values() == reference_values, name
            assert fsum_lengths.count(640) == 76, name  # and again for the gap values, none read from the memo

    def test_log_columns_live_with_the_node_table(self):
        """(log G)^p is kept on the node table once taken, beside the p = 1 column of the build, and dropped and rebuilt with the table."""
        orders = [0, 3, 7]
        clear_caches()
        warm = gap_derivatives(5.3, 500, orders, "refined")
        assert [set(logs) for _, logs in _node_table(500).values()] == [{1, 3, 7}] * 2
        clear_caches()
        rebuilt = _node_table(500)
        assert [set(logs) for _, logs in rebuilt.values()] == [{1}] * 2
        cold = gap_derivatives(5.3, 500, orders, "refined")
        assert bits(cold) == bits(warm)
        assert [set(logs) for _, logs in rebuilt.values()] == [{1, 3, 7}] * 2

    def test_order_one_reads_the_log_column_of_the_build(self):
        """A build holds one column per sign, log G at p = 1, and an order-1 batch sums over that very list: it adds no column."""
        clear_caches()
        table = _node_table(640)
        built = {sign: logs[1] for sign, (_, logs) in table.items()}
        for sign, (g, logs) in table.items():
            assert list(logs) == [1] and logs[1] == list(map(math.log, g)), sign
        gap_derivative(1, 5.5, 640)
        for sign, (_, logs) in table.items():
            assert list(logs) == [1] and logs[1] is built[sign], sign

    def test_repeat_runs_are_bitwise_stable(self):
        a = gap_derivative(1, 5.0, 200, "refined")
        b = gap_derivative(1, 5.0, 200, "refined")
        assert a == b


class TestHeldGapValues:
    """Each whole batch of gap values is memoized (_gap_batch), so a repeated (t, N, orders, mode) takes no bound pass and no node pass."""

    def test_a_warm_proof_takes_no_pass(self, pass_calls, pair_calls, fsum_lengths):
        """The default proof's 5 batches are taken once: a second proof gives the same bytes from 5 memo hits, no h4_bounds call, no G and no fsum."""
        clear_caches()
        first = emit_report(prove_k5())
        assert pass_calls == {"h4_bounds": 5, "_cells": 5, "_error_bounds": 5, "_h_node_sums": 10}
        assert len(pair_calls) == 1 and fsum_lengths.count(640) == 76
        assert _gap_batch.cache_info()[:2] == (0, 5)  # hits, misses
        pass_calls.clear(), pair_calls.clear(), fsum_lengths.clear()
        assert emit_report(prove_k5()) == first
        assert pass_calls == {} and pair_calls == [] and fsum_lengths == []
        assert _gap_batch.cache_info()[:2] == (5, 5)

    def test_a_sweep_over_t_holds_at_most_the_limit(self):
        """100 values of t at one N: the memo holds the batches of the latest 8 of them, the least recently used dropped first."""
        assert _gap_batch.cache_info().maxsize >= 5  # the default proof's five batches all stay memoized
        powers = [5.0 + k / 100 for k in range(100)]
        clear_caches()
        for t in powers:
            gap_derivative(1, t, 300, "plain")
        limit = _gap_batch.cache_info().maxsize
        assert _gap_batch.cache_info()[1:] == (100, limit, limit)  # misses, maxsize, currsize
        for t in powers[-limit:] + powers[:1]:
            gap_derivative(1, t, 300, "plain")
        assert _gap_batch.cache_info()[:2] == (limit, 101)

    @pytest.mark.parametrize(
        "t,orders,n,refusal",
        [
            (400.0, [1], 10, r"^power t = 400\.0 is too large to evaluate: G\^t at the nodes overflows"),
            (323.0, [0], 1000, r"^log order 0 at power t = 323\.0 is too large to evaluate: its node sum overflows"),
            (5.5, [2, 900], 1000, r"^log order 900 is too large to evaluate: a power of log G overflows"),
            (5.5, [2, 10**80], 1000, r"^log exponent j ~ 10\^80\.0 is too large to evaluate"),
        ],
        ids=["power", "node sum", "log power", "order"],
    )
    def test_a_refused_batch_is_refused_again_and_never_held(self, t, orders, n, refusal):
        """A refusal adds no entry, so the next call refuses again; the batch memoized before it stays."""
        clear_caches()
        (before,) = gap_derivatives(5.5, n, [1], "plain")
        for _ in range(2):
            with pytest.raises(ValueError, match=refusal):
                gap_derivatives(t, n, orders, "plain")
            assert _gap_batch.cache_info().currsize == 1
        assert gap_derivatives(5.5, n, [1], "plain") == [before]
        assert _gap_batch.cache_info().hits == 1

    def test_plain_and_refined_values_are_held_apart(self):
        """At one (t, N, j) the two modes share the estimate, not the bound: each batch is memoized under its own mode, bitwise its own cold call."""
        orders = list(range(6))
        clear_caches()
        held = {mode: gap_derivatives(5.5, 640, orders, mode) for mode in MODES}
        assert _gap_batch.cache_info().currsize == 2
        for j, plain, refined in zip(orders, held["plain"], held["refined"]):
            assert plain.estimate == refined.estimate and plain.error_bound > refined.error_bound, j
        for mode in MODES:
            clear_caches()
            assert bits(held[mode]) == bits(gap_derivatives(5.5, 640, orders, mode)), mode
            assert [v.method for v in held[mode]] == [mode] * len(orders)

    @pytest.mark.parametrize(
        "args,refusal",
        [
            ((5.0, 640, [True], "refined"), r"^log exponent j must be an integer >= 0, got True$"),
            ((5.0, 640, [1.0], "refined"), r"^log exponent j must be an integer >= 0, got 1\.0$"),
            ((5.0, 640, [2, -1], "refined"), r"^log exponent j must be an integer >= 0, got -1$"),
            ((5.0, 640, [1], "fancy"), r"^mode must be one of \('plain', 'refined'\), got 'fancy'$"),
            ((5.0, 640.0, [1], "refined"), rf"^step count must be an integer in 1\.\.{MAX_STEPS}, got 640\.0$"),
        ],
        ids=["True", "1.0", "-1", "mode", "640.0 steps"],
    )
    def test_held_values_are_looked_up_after_the_checks(self, args, refusal):
        """With (5.0, 640, [1], refined) memoized, a batch equal to its key but for an order, mode or step count of the wrong type is refused as before."""
        clear_caches()
        gap_derivatives(5.0, 640, [1], "refined")
        with pytest.raises(ValueError, match=refusal):
            gap_derivatives(*args)
        assert _gap_batch.cache_info().hits == 0  # no refused call found the memoized batch

    def test_only_a_float_power_is_looked_up(self, pass_calls):
        """Only a float t finds a memoized 5.0: the memo keys each argument's type, so t = 5 gives 5.0's values through the passes and Decimal("5.0") is refused by them."""
        clear_caches()
        (held,) = gap_derivatives(5.0, 640, [1], "refined")
        pass_calls.clear()
        assert gap_derivatives(5, 640, [1], "refined") == [held]
        assert pass_calls["h4_bounds"] == 1
        with pytest.raises(TypeError):
            gap_derivatives(decimal.Decimal("5.0"), 640, [1], "refined")
        assert _gap_batch.cache_info()[:2] == (0, 3)  # hits, misses: 5.0, 5 and Decimal("5.0") each a key of its own

    def test_a_returned_list_is_the_callers_own(self):
        """Mutating the list a memoized call returns leaves the next call's values as they were."""
        clear_caches()
        first = gap_derivatives(5.5, 300, [1, 2], "refined")
        expected = list(first)
        first[0] = None
        first.append(None)
        assert gap_derivatives(5.5, 300, [1, 2], "refined") == expected
        assert _gap_batch.cache_info().hits == 1


def default_proof_passes():
    """{(t, N, mode): [order, ...]} for every gap-derivative evaluation of the default proof."""
    passes = {(PIPELINE_T_MIN, STEPS, "refined"): list(DERIVATIVE_STAGES.values())}
    for stage in DEFAULT_CONFIG["stages"].values():
        orders = range(stage["base_order"], stage["base_order"] + stage["degree"] + 1)
        passes.setdefault((stage["center"], stage["steps"], stage["mode"]), []).extend(orders)
    return passes


def pointwise_products(spec, n):
    """eval_H at the midpoint nodes, in node order: the rounded products whose sum a node sum stands for."""
    return [eval_H(spec, (2 * i - 1) / (4.0 * n)) for i in range(1, n + 1)]


def pointwise_node_sum(spec, n):
    """One fsum of eval_H over the midpoint nodes, in node order."""
    return math.fsum(pointwise_products(spec, n))


class TestBatchedNodeSums:
    def test_bitwise_equal_to_pointwise_reference(self):
        """Each of the default proof's 76 per-sign sums is the exactly rounded sum of its rounded products.

        The products are the pointwise oracle's G^t log^j G; their sum is taken
        exactly in Fractions and rounded once.  One batched pass per (sign, t, N)
        gives that float, hence every estimate, and so does one fsum in node order.
        """
        passes = default_proof_passes()
        assert sum(map(len, passes.values())) == 38
        for (t, n, _), orders in passes.items():
            for sign in (PLUS, MINUS):
                batched = _h_node_sums(_node_table(n)[sign], t, sorted(orders))
                for j in orders:
                    products = pointwise_products(IntegrandSpec(t, j, sign), n)
                    exact = float(sum(map(Fraction, products)))
                    assert batched[j].hex() == exact.hex() == math.fsum(products).hex(), (t, n, j, sign)

    @pytest.mark.parametrize("n", [1, 255, 257, 3000])
    def test_sums_off_the_proof_grid_equal_node_order_reference(self, n):
        """Sums over the table's columns (G >= 1 falling, then G < 1 rising) equal the node-order reference bit for bit, at (t, N) the proof never uses."""
        for sign, t in itertools.product((PLUS, MINUS), (5.0, 5.37, 6.0)):
            for j, v in _h_node_sums(_node_table(n)[sign], t, [0, 1, 4, 9]).items():
                assert v.hex() == pointwise_node_sum(IntegrandSpec(t, j, sign), n).hex(), (sign, t, j)

    def test_batched_refined_bounds_equal_single_calls(self):
        """One indexed pass per (t, N) for both signs, and refined_error_bound on each order alone, are each the oracle bitwise."""
        for (t, n, _), orders in default_proof_passes().items():
            term_sums = [h4_term_bounds(IntegrandSpec(t, j, PLUS)) for j in orders]
            batches = refined_bounds(t, orders, MAX_TABLES.values(), n)
            for (sign, table), batched in zip(MAX_TABLES.items(), batches):
                singles = [refined_error_bound(s, TrigSquare(5, sign), n, table) for s in term_sums]
                termwise = [  # the per-key oracle, summed as the error bound sums it
                    math.fsum(c * term_integral_reference(has_gprime, t_r, j_r, table) for c, (has_gprime, t_r, j_r) in keyed(t, terms))
                    / (23040.0 * float(n) ** 4)
                    for _, terms in term_sums
                ]
                assert [b.hex() for b in batched] == [w.hex() for w in termwise], (t, n, sign)
                assert [s.hex() for s in singles] == [w.hex() for w in termwise], (t, n, sign)

    def test_single_order_sums_match_batch_and_oracle(self):
        """A one-order pass, as one gap_derivative call makes, and gapped batches agree with the full batch.

        At N = 777, every order 0..10 alone, and the batches {1, 3} and
        {0, 4, 9}, give bitwise the H sums of the batch {0..10}, and those
        match the pointwise oracle bitwise.
        """
        t, n = 5.7, 777
        for sign in (PLUS, MINUS):
            batch = {j: v.hex() for j, v in _h_node_sums(_node_table(n)[sign], t, list(range(11))).items()}
            for orders in [[j] for j in range(11)] + [[1, 3], [0, 4, 9]]:
                for j, v in _h_node_sums(_node_table(n)[sign], t, orders).items():
                    assert v.hex() == batch[j], (sign, orders, j)
            for j in range(11):
                assert batch[j] == pointwise_node_sum(IntegrandSpec(t, j, sign), n).hex(), (sign, j)

    def test_shared_refined_pass_equals_one_sign_bound(self):
        """Every gap value of the default proof, in either mode, is bitwise its two signs' parts, each computed alone.

        The estimate is the minus node sum over 2N less the plus one.  The
        error is the sum of the two signs' bounds: refined_error_bound on each
        sign's table, or the plain |H''''| bound over 23040 N^4, twice.
        """
        checked = collections.Counter()
        _gap_batch.cache_clear()  # so every value is taken here, none memoized from before
        for (t, n, _), orders in default_proof_passes().items():
            for mode in MODES:
                for j, value in zip(orders, gap_derivatives(t, n, orders, mode)):
                    minus, plus = (_h_node_sums(_node_table(n)[sign], t, [j])[j] for sign in (MINUS, PLUS))
                    assert value.estimate.hex() == (minus / (2.0 * n) - plus / (2.0 * n)).hex(), (t, j, n)
                    if mode == "refined":
                        trigs = [TrigSquare(5, sign) for sign in (MINUS, PLUS)]
                        e_minus, e_plus = (
                            refined_error_bound(h4_term_bounds(IntegrandSpec(t, j, trig.sign)), trig, n, default_max_table(trig))
                            for trig in trigs
                        )
                    else:
                        e_minus = e_plus = plain_h4_bound(t, j) / (23040.0 * float(n) ** 4)
                    assert value.error_bound.hex() == (e_minus + e_plus).hex(), (t, j, n, mode)
                    assert (value.steps, value.method) == (n, mode)
                    checked[mode] += 1
        assert checked == {"refined": 38, "plain": 38}

    def test_batch_matches_single_order_calls(self):
        orders = [1, 4, 2]
        for mode in MODES:
            singles = [gap_derivative(order, 5.2, 300, mode) for order in orders]
            assert gap_derivatives(5.2, 300, orders, mode) == singles, mode


class TestExactRoundingReference:
    """At integer t <= 6, G^t is a trigonometric polynomial of degree 7t, so when 2N > 7t the N-node sum is exactly N A(t).

    The half-period rule is half the 2N-node rule over a period, which
    integrates every frequency below 2N exactly; A(t) is the exact mean
    torus_power_integral(t).  What the float sum differs by is rounding alone.
    """

    N_STEPS = (22, 24, 64, 500, 640)

    @pytest.mark.parametrize("n_steps", N_STEPS)
    @pytest.mark.parametrize("sign", SIGN_PAIR)
    def test_node_sum_is_n_times_the_moment(self, sign, n_steps):
        for t in range(1, 7):
            assert 2 * n_steps > 7 * t
            exact = n_steps * torus_power_integral(t)
            total = _h_node_sums(_node_table(n_steps)[sign], float(t), [0])[0]
            assert abs(total - exact) <= 1e-15 * exact, (t, total, exact)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="recorded with glibc's libm")
    @pytest.mark.parametrize("n_steps", [500, 640])
    @pytest.mark.parametrize("sign", SIGN_PAIR)
    def test_node_sum_is_exact_at_the_proof_step_counts(self, sign, n_steps):
        """Recorded on glibc 2.36, x86-64, Python 3.11.7: no rounding shows at N = 500 or 640."""
        for t in range(1, 7):
            assert _h_node_sums(_node_table(n_steps)[sign], float(t), [0])[0] == n_steps * torus_power_integral(t), t


class TestQPass:
    """The q pass and the term-integral pass share their ingredients across keys and signs, and change no value."""

    @pytest.mark.parametrize("table_id,n", [("Q500", 500), ("Q400", 400)])
    def test_tables_equal_oracle(self, table_id, n):
        """Every Q500/Q400 entry, both signs, and a one-key q pass are bitwise the per-key oracle."""
        _, rows = reproduce_table(table_id)
        for kind, t, j, *per_sign, _, _ in rows:
            key = (kind == "star", float(t), j)
            for value, sign in zip(per_sign, (PLUS, MINUS)):  # the table's columns: bound_plus, bound_minus
                expected = q_reference(kind == "star", float(t), j, n, MAX_TABLES[sign]).hex()
                single = q_values([key], [MAX_TABLES[sign]], n)[0][key]
                assert value.hex() == single.hex() == expected, (table_id, kind, t, j, sign)

    def test_proof_keys_equal_oracle(self):
        """Every (has_gprime, t_r, j_r) key of the default proof's refined bounds, both signs, is bitwise the oracle.

        Both per-key passes are checked at the proof's N: the cells of each
        (group, log order) that the refined error bounds sum, and the q pass.
        """
        checked = 0
        for (t, n, mode), orders in default_proof_passes().items():
            if mode == "plain":  # a plain pass sums no cells
                continue
            kinds = term_kinds(t)
            cells = {(group, p) for terms in h4_bounds(t, orders) for _, group, p in terms}
            keys = [(*kinds[group], p) for group, p in cells]
            per_table = _cells(kinds, {p for _, p in cells}, _INTEGRAL_WEIGHTS, _integral_bases(kinds, MAX_TABLES.values()))
            for q, integrals, (sign, table) in zip(q_values(keys, MAX_TABLES.values(), n), per_table, MAX_TABLES.items()):
                assert set(q) == set(keys)
                for group, p in cells:
                    has_gprime, t_r = kinds[group]
                    expected = q_reference(has_gprime, t_r, p, n, table)
                    assert q[has_gprime, t_r, p].hex() == expected.hex(), (t, n, has_gprime, t_r, p, sign)
                    expected = term_integral_reference(has_gprime, t_r, p, table)
                    assert integrals[p][group].hex() == expected.hex(), (t, has_gprime, t_r, p, sign)
                    checked += 1
        assert checked == 2 * 226

    @pytest.mark.parametrize("table_id,small_terms", [("Q500", 5), ("Q400", 10)])
    def test_each_table_computes_each_ingredient_once(self, monkeypatch, table_id, small_terms):
        """Per table: one variation per (sign, power), one torus bound per power, one small-range term per (kind, order).

        Both tables use the powers 1..4 for variations and 2, 3, 4, 6 for torus
        bounds; Q500 has 5 kinds at the order 1, Q400 5 kinds at the orders 1
        and 2, all from one _cells call.
        """
        calls = collections.Counter()
        for name in ("variation_bound_power", "torus_integral_upper"):
            real = getattr(tables_module, name)
            monkeypatch.setattr(tables_module, name, lambda *a, _real=real, _name=name, **k: calls.update([_name]) or _real(*a, **k))
        real_cells = tables_module._cells

        def counting(kinds, orders, weights, table_bases):
            calls.update(["_cells"] + ["small_range_term"] * (len(kinds) * sum(1 for p in orders if p != 0)))
            return real_cells(kinds, orders, weights, table_bases)

        monkeypatch.setattr(tables_module, "_cells", counting)
        reproduce_table(table_id)
        assert calls == {"variation_bound_power": 8, "torus_integral_upper": 4, "_cells": 1, "small_range_term": small_terms}


class TestNodeSumBounds:
    """The q pass's bounds, with |G'| ("star") and without ("plain"), must dominate the true node sums they stand for."""

    @pytest.mark.parametrize("t,j", [(1.0, 0), (3.0, 1), (5.0, 2), (5.5, 0)])
    def test_q_plain_dominates(self, t, j):
        n = 500
        nodes = [(2 * i - 1) / (4.0 * n) for i in range(1, n + 1)]
        for sign, bounds in zip(MAX_TABLES, q_values([(False, t, j)], MAX_TABLES.values(), n)):
            spec = TrigSquare(5, sign)
            total = math.fsum(
                eval_G(spec, x) ** t * abs(math.log(eval_G(spec, x))) ** j for x in nodes
            )
            bound = bounds[False, t, j]
            assert total <= bound, f"t={t} j={j} {spec.sign}: {total} > {bound}"

    @pytest.mark.parametrize("t,j", [(1.0, 0), (3.0, 1), (5.0, 2)])
    def test_q_star_dominates(self, t, j):
        n = 400
        nodes = [(2 * i - 1) / (4.0 * n) for i in range(1, n + 1)]
        for sign, bounds in zip(MAX_TABLES, q_values([(True, t, j)], MAX_TABLES.values(), n)):
            spec = TrigSquare(5, sign)
            total = math.fsum(
                eval_G(spec, x) ** t
                * abs(math.log(eval_G(spec, x))) ** j
                * abs(eval_G_derivative(spec, 1, x))
                for x in nodes
            )
            bound = bounds[True, t, j]
            assert total <= bound, f"t={t} j={j} {spec.sign}: {total} > {bound}"

    def test_frozen_values(self, tables):
        plus, minus = q_values([(True, 1.0, 0), (False, 3.0, 0), (False, 4.0, 1)], tables, 500)
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
        """At t = 323.0, 9^t and every G^t at the 1000 nodes are finite but their node sum is not.

        _h_node_sums computes every G^t, and refuses the one fsum that passes
        the float range, naming the order and t.
        """
        with pytest.raises(ValueError, match=r"^log order 0 at power t = 323\.0 is too large to evaluate: its node sum overflows"):
            gap_derivative(0, 323.0, 1000, mode)

    def test_overflowing_log_power_gives_infinity(self, plus_table):
        """log(9)^j beyond the float range is an infinite bound, not an OverflowError."""
        (bounds,) = q_values([(True, 6.0, 1000), (False, 6.0, 1000)], [plus_table], 100)
        assert bounds == {(True, 6.0, 1000): math.inf, (False, 6.0, 1000): math.inf}
        # one node, where |log G| < log 9, so the node pass stays finite
        value = gap_derivative(1000, 5.5, 1, "refined")
        assert math.isfinite(value.estimate) and value.error_bound == math.inf

    @pytest.mark.parametrize("n_steps", [100.5, True, 0])
    def test_bound_passes_share_the_node_step_rule(self, n_steps, plus_square, plus_table):
        """A step count the node pass refuses has no node sum to bound, so both bound passes refuse it too."""
        terms = h4_term_bounds(IntegrandSpec(5.5, 1, PLUS))
        for call in (
            lambda: _nodes(n_steps),
            lambda: q_values([(False, 5.0, 1)], [plus_table], n_steps),
            lambda: refined_error_bound(terms, plus_square, n_steps, plus_table),
        ):
            with pytest.raises(ValueError, match=rf"^step count must be an integer in 1\.\.{MAX_STEPS}, got {n_steps!r}$"):
                call()

    def test_input_validation(self, plus_table):
        with pytest.raises(ValueError, match=">= 1"):
            q_values([(False, 0.5, 0)], [plus_table], 100)
        with pytest.raises(ValueError, match="log exponent p must be an integer >= 0, got -1"):
            q_values([(True, 2.0, -1)], [plus_table], 100)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda sq, tb: q_values([(False, math.nan, 1)], [tb], 100), id="q_plain"),
            pytest.param(lambda sq, tb: q_values([(True, math.nan, 1)], [tb], 100), id="q_star"),
            pytest.param(
                lambda sq, tb: refined_error_bound(h4_term_bounds(IntegrandSpec(5.5, 1, PLUS)), sq, math.nan, tb),
                id="refined_error_bound",
            ),
            pytest.param(lambda sq, tb: variation_bound_power(tb, math.nan), id="variation_bound_power"),
            pytest.param(lambda sq, tb: torus_integral_upper(math.nan), id="torus_integral_upper"),
            pytest.param(lambda sq, tb: envelope_max([math.nan], [2], 9.0), id="envelope_max"),
            pytest.param(lambda sq, tb: sup_norm_bound(math.nan), id="sup_norm_bound"),
            pytest.param(
                lambda sq, tb: eval_cert_poly(
                    TaylorCertificate(5.5, 0.1, 1, 1, (1.0, 2.0), (0.0, 0.0), (1.0, 1.0), 0.0, 1.0), 0, math.nan
                ),
                id="eval_cert_poly",
            ),
            pytest.param(
                lambda sq, tb: build_certificate(
                    5.065, 0.065, 4, 6, [0.15, 0.03, 0.005, 0.0005, 0.0002, 0.0002, 0.0002], 640, "refined", math.nan
                ),
                id="build_certificate_total_delta",
            ),
        ],
    )
    def test_nan_argument_is_refused(self, call, plus_square, plus_table):
        """NaN fails every comparison, so a check written as x < lo lets it through to a nan bound."""
        with pytest.raises(ValueError):
            call(plus_square, plus_table)


class TestIntegrateH:
    """One sign's certified integral of H, from the parts gap_derivatives assembles (conftest.one_sign_integral)."""

    def test_refined_tracks_oracle(self, half_period_oracle):
        for t, j, sign in ((5.0, 1, PLUS), (5.0, 1, MINUS), (5.23, 2, MINUS)):
            value = one_sign_integral(sign, t, 500, j, "refined")
            truth = half_period_oracle(t, j, sign)
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
            gap_derivatives(5, 100, [0], "fancy")

    def test_term_lists_are_sign_free(self, minus_square, minus_table):
        """Plus and minus give the same fourth-derivative terms, hence bitwise the same bound on a square."""
        for t, j in itertools.product((5.0, 5.065, 5.33, 5.72, 6.0, 7.5), range(13)):
            plus, minus = (h4_term_bounds(IntegrandSpec(t, j, sign)) for sign in (PLUS, MINUS))
            assert plus == minus and all(t_r >= 1.0 for _, t_r in plus[0]), (t, j)
            bounds = [refined_error_bound(terms, minus_square, 500, minus_table) for terms in (plus, minus)]
            assert bounds[0].hex() == bounds[1].hex(), (t, j)

    def test_term_groups_name_term_integral_cells(self, tables):
        """h4_term_bounds gives term_kinds(t), one distinct kind per group, and each term's (group, p) names one finite cell of each sign's table."""
        for t, j in itertools.product((5.0, 5.065, 5.33, 6.0), range(13)):
            kinds, terms = h4_term_bounds(IntegrandSpec(t, j, PLUS))
            assert kinds == term_kinds(t) and len(set(kinds)) == len(kinds), t  # so a (has_gprime, t_r) kind names one group
            assert terms == h4_bounds(t, [j])[0], (t, j)
            orders = {p for _, _, p in terms}
            for cells in _cells(kinds, orders, _INTEGRAL_WEIGHTS, _integral_bases(kinds, tables)):
                assert set(cells) == orders and all(len(cells[p]) == len(kinds) for p in orders), (t, j)
                assert all(math.isfinite(cells[p][group]) for _, group, p in terms), (t, j)

    def test_refined_error_bound_rejects_foreign_table(self, plus_square, plus_table, minus_table):
        """The one-key wrapper takes a square beside its table, and refuses any table but the sign's certified one.

        That is the other sign's table, and a copy of the plus table with one
        value_upper raised by 0.001: the right sign, but no certified bound.
        """
        terms = h4_term_bounds(IntegrandSpec(5.5, 1, PLUS))
        raised = (plus_table[0], plus_table[1]._replace(value_upper=plus_table[1].value_upper + 0.001), *plus_table[2:])
        for table in (minus_table, raised):
            with pytest.raises(ValueError, match="^local-maximum table is not the certified table of the plus sign$"):
                refined_error_bound(terms, plus_square, 500, table)

    def test_refined_error_bound_accepts_an_equal_copy(self, plus_square, plus_table):
        """The certified table's tuple, and a pickled copy of it, a new object equal to it, give the same bound bit for bit."""
        terms = h4_term_bounds(IntegrandSpec(5.5, 1, PLUS))
        expected = refined_error_bound(terms, plus_square, 500, plus_table).hex()
        copied = pickle.loads(pickle.dumps(plus_table))
        assert copied is not plus_table
        for copy in (tuple(MAX_TABLES[PLUS]), copied):
            assert refined_error_bound(terms, plus_square, 500, copy).hex() == expected


class TestGapDerivative:
    def test_frozen_pipeline_values(self):
        d1 = gap_derivative(1, 5.0, 640, "refined")
        assert d1.estimate == pytest.approx(0.0028784920996258734, rel=1e-12)
        assert d1.error_bound == pytest.approx(0.0017340235806283162, rel=1e-12)
        d2 = gap_derivative(2, 5.0, 640, "refined")
        assert d2.estimate == pytest.approx(0.033815603115726844, rel=1e-12)
        assert d2.error_bound == pytest.approx(0.004975026091751638, rel=1e-12)
        d3 = gap_derivative(3, 5.0, 640, "refined")
        assert d3.estimate == pytest.approx(0.18354763424940757, rel=1e-12)
        assert d3.error_bound == pytest.approx(0.01408511935127046, rel=1e-12)
        plain_d3 = gap_derivative(3, 5.0, 640, "plain")  # the stage's mode before the proof went all refined
        assert plain_d3.estimate == d3.estimate
        assert plain_d3.error_bound == pytest.approx(0.14638948570653776, rel=1e-12)

    def test_tracks_oracle(self, half_period_oracle):
        """Each derivative stage at t = 5, at the proof's 640 nodes, encloses the Simpson oracle."""
        for order, mode in ((1, "refined"), (2, "refined"), (3, "refined"), (3, "plain")):
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
        for order in (-1, True, 2.0):  # True equals 1 and 2.0 equals 2, but neither is an order
            with pytest.raises(ValueError, match="log exponent j must be an integer >= 0"):
                gap_derivative(order, 5.0, 100)

    @pytest.mark.parametrize("mode", MODES)
    def test_rejects_order_past_the_float_range(self, mode):
        """An order whose falling factorials pass the float range is refused before any node work, naming j."""
        with pytest.raises(ValueError, match=r"^log exponent j ~ 10\^80\.0 is too large"):
            gap_derivative(10**80, 5.5, 100, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_rejects_infinite_power_before_node_work(self, mode, pair_calls):
        """At t = inf the |H''''| bound would be nan (inf - inf in its polynomials); t is refused before any cosine."""
        _NODE_TABLE.clear()
        with pytest.raises(ValueError, match=r"^power t = inf is too large to evaluate: the fourth-derivative bound overflows a float$"):
            gap_derivative(1, math.inf, 10, mode)
        assert pair_calls == []


@pytest.fixture(scope="module")
def proof_batches():
    """oracle.proof_gap_batches, taken once for the module (about 2 s)."""
    pytest.importorskip("mpmath")
    return proof_gap_batches()


# The default proof's 38 gap values as (t, N, order, mode), each held against the truth in a test of its own
PROOF_VALUES = [(t, n, j, mode) for (t, n, mode), orders in default_proof_passes().items() for j in orders]


class TestTruthHarness:
    def test_records_the_default_proof(self, proof_batches):
        """Five batches, one per distinct t, hold the proof's 38 gap values: those of its stage table."""
        assert {(t, n, mode): orders for t, n, orders, mode, _, _ in proof_batches} == default_proof_passes()
        assert len(proof_batches) == 5 and sum(len(values) for *_, values, _ in proof_batches) == 38 == len(PROOF_VALUES)

    @pytest.mark.parametrize("t,n_steps,order,mode", PROOF_VALUES, ids=[f"t{t}-j{j}-{mode}" for t, _, j, mode in PROOF_VALUES])
    def test_gap_value_encloses_the_truth(self, proof_batches, t, n_steps, order, mode):
        """|estimate - truth| <= error_bound (measured over the 38 values: each bound is 2.2e9 to 8.3e11 times the error)."""
        import mpmath

        (orders, values, truth), = [(orders, values, truth) for bt, bn, orders, bm, values, truth in proof_batches if (bt, bn, bm) == (t, n_steps, mode)]
        value = values[orders.index(order)]
        assert abs(mpmath.mpf(value.estimate) - truth[order]) <= value.error_bound


# The t of the default proof's batches, then seeded t in [5, 40]; orders 0..30 and two past any proof.
_BOUND_RNG = random.Random(1717)  # one generator for all four draws, so they are four distinct t
BOUND_POWERS = [5.0, 5.065, 5.23, 5.525, 5.86, 6.0] + [_BOUND_RNG.uniform(5.0, 40.0) for _ in range(4)]
BOUND_ORDERS = list(range(31)) + [10**6, 10**15]


def sign_errors(monkeypatch):
    """The per-sign error bounds each gap_derivatives call sums: a [minus, plus] pair of lists, refined, or one list for both, plain."""
    calls = []
    real = quadrature._error_bounds
    monkeypatch.setattr(quadrature, "_error_bounds", lambda *args: calls.append(real(*args)) or calls[-1])
    return calls


def assert_sign_errors_equal_reference(t, n, orders, values, errors):
    """Each order's two per-sign bounds are bitwise the oracle's, and its error_bound is their sum."""
    for (sign, table), bounds in zip(MAX_TABLES.items(), errors):  # MAX_TABLES is in SIGN_PAIR order, as errors is
        assert [b.hex() for b in bounds] == [refined_error_bound_reference(t, j, n, table).hex() for j in orders], (t, n, sign)
    for j, value, e_minus, e_plus in zip(orders, values, *errors):
        assert value.error_bound.hex() == (e_minus + e_plus).hex(), (t, n, j)


def test_proof_sign_errors_equal_the_reference(monkeypatch):
    """Every gap value of the five default-proof batches, all refined: gap_derivatives' own per-sign bounds, on a cleared table."""
    calls = sign_errors(monkeypatch)
    _gap_batch.cache_clear()  # a memoized batch takes no bound pass, so it would read the last call's bounds
    for (t, n, mode), orders in default_proof_passes().items():
        assert mode == "refined", (t, n)
        values = gap_derivatives(t, n, orders, mode)
        assert_sign_errors_equal_reference(t, n, orders, values, calls[-1])
    assert len(calls) == 5 and sum(len(minus) for minus, _ in calls) == 38


@pytest.mark.parametrize("n", [1, 255, 640, 3000])
def test_sweep_sign_errors_equal_the_reference(n, monkeypatch):
    """gap_derivatives' own per-sign bounds over t in [5, 40] and the orders 0..30, bitwise the oracle's, in both modes.

    A plain batch sums its one sign-free list once, and its error_bound is that bound twice.
    """
    calls = sign_errors(monkeypatch)
    orders = list(range(31))
    scale = 23040.0 * float(n) ** 4
    for t in BOUND_POWERS:
        _gap_batch.cache_clear()  # a memoized batch takes no bound pass, so a batch asked before would read the last call's bounds
        values = gap_derivatives(t, n, orders, "refined")
        assert_sign_errors_equal_reference(t, n, orders, values, calls[-1])
        values = gap_derivatives(t, n, orders, "plain")
        (shared,) = calls[-1]
        assert [b.hex() for b in shared] == [(h4_sup_bound_reference(t, j) / scale).hex() for j in orders], (t, n)
        assert [v.error_bound.hex() for v in values] == [(b + b).hex() for b in shared], (t, n)
    assert len(calls) == 2 * len(BOUND_POWERS)


@pytest.mark.parametrize("n", [1, 255, 640, 3000])
def test_refined_bounds_equal_the_per_order_reference(n):
    """Each batch's refined error bounds, both signs, are bitwise the per-(t, j) brace formula with every key integral afresh.

    Both entries to the one driver are held: the batch over the cells of the
    five groups at the log orders its terms use, as gap_derivatives sums
    them, and refined_error_bound on h4_term_bounds of each order alone.
    """
    for t in BOUND_POWERS:
        indexed = refined_bounds(t, BOUND_ORDERS, MAX_TABLES.values(), n)
        for (sign, table), batched in zip(MAX_TABLES.items(), indexed):
            square = TrigSquare(5, sign)
            singles = [refined_error_bound(h4_term_bounds(IntegrandSpec(t, j, sign)), square, n, table) for j in BOUND_ORDERS]
            expected = [refined_error_bound_reference(t, j, n, table).hex() for j in BOUND_ORDERS]
            assert [[b.hex() for b in driver] for driver in (batched, singles)] == [expected, expected], (t, n, sign)


@pytest.mark.parametrize("n", [1, 255, 640, 3000])
def test_plain_bounds_equal_the_per_order_reference(n):
    """Each batch's plain error bounds are bitwise the per-(t, j) brace formula, every term times its sup on [0, 9] afresh."""
    for t in BOUND_POWERS:
        expected = [(h4_sup_bound_reference(t, j) / (23040.0 * float(n) ** 4)).hex() for j in BOUND_ORDERS]
        assert [b.hex() for b in plain_bounds(t, BOUND_ORDERS, n)] == expected, (t, n)


def scalar_group_sum(t, j):
    """The plain |H''''| bound as it was once taken: per brace kind, one summed constant (oracle.SCALAR_GROUPS) times each brace term's sup."""
    pieces = [
        const * abs(c) * envelope_reference(t + offset, p, 0.0, 9.0)
        for const, offset, kind in SCALAR_GROUPS
        for c, p in brace_terms_reference(kind, t, j)
    ]
    try:
        return math.fsum(pieces)
    except OverflowError:
        return math.inf


def ulps_apart(a, b):
    """How many float steps lie from a to b, both >= 0, whose bit patterns as ints are ordered as they are (inf after the largest)."""
    a_bits, b_bits = struct.unpack("<2q", struct.pack("<2d", a, b))
    return abs(a_bits - b_bits)


@pytest.mark.parametrize("n", [1, 255, 640, 3000])
def test_plain_bounds_stay_within_two_ulps_of_the_scalar_groups(n):
    """Every plain bound, at eight seeded t in [5, 40] and the orders 0..30, is within 2 ulps of the per-kind sum.

    Rounding each term on its own, rather than each per-kind constant, moves
    some sums in the last bits, both ways, and makes no finite one inf.  The
    error bound is that sum over 23040 N^4, twice, so its division can turn 2
    ulps into 3 (measured over 9300 seeded (t, j), t in (4, 40], at N = 640:
    2405 sums moved, none by more than 2 ulps, and 2129 error bounds, one by
    3, at t = 4.202894761168064, j = 17, below the power rule t >= 5).
    """
    rng = random.Random(3301)
    for _ in range(3):  # three draws in (4, 5) come first, so the eight powers are the ones this seed has always given
        rng.random()
    powers = [rng.uniform(5.0, 40.0) for _ in range(8)]
    orders = list(range(31))
    scale = 23040.0 * float(n) ** 4
    moved = 0
    for t in powers:
        for j, value in zip(orders, gap_derivatives(t, n, orders, "plain")):
            bound, old = plain_h4_bound(t, j), scalar_group_sum(t, j)
            assert value.error_bound.hex() == (bound / scale + bound / scale).hex(), (t, n, j)
            assert math.isfinite(bound) == math.isfinite(old) and ulps_apart(bound, old) <= 2, (t, j, bound, old)
            assert ulps_apart(value.error_bound, old / scale + old / scale) <= 3, (t, n, j)
            moved += bound != old
    assert 0 < moved < len(powers) * len(orders)


def test_no_stage_needs_plain_mode():
    """At the proof's N = 640, for t = 5.00, 5.01, ..., 6.00 and j = 0..12, every refined error bound is at most 0.11 times the plain one.

    Measured: at most 0.1030 (at t = 5.0, j = 8), so plain mode gives no
    stage of the proof a tighter bound.
    """
    orders = range(13)
    for t in (5.0 + k / 100 for k in range(101)):
        plain, refined = (gap_derivatives(t, 640, orders, mode) for mode in MODES)
        for j, p, r in zip(orders, plain, refined):
            assert r.error_bound <= 0.11 * p.error_bound, (t, j, r.error_bound / p.error_bound)


BATCH_DIGEST = "d8539ccbf9700e6fe011ca8581277ea12442931cbf236e5099b7061a498085f9"
REFINED_BATCH_DIGEST = "9532cfd972b173e96d02916e04efe12a0366f747db1de0d45f11fc2af6448f93"
REFINED_ERROR_BOUND_DIGEST = "2570a72f65270e134d7ca7b42a6978e940faf53de63e356c6a94dfaaf2f10bb0"


def batch_digest(modes=MODES):
    """sha256 of the repr of (estimate, error_bound) of fixed gap_derivatives batches, one per mode in modes.

    The t are the proof's five and 5 seeded in [5, 40], at N = 1, 255, 640
    and 3000; each (t, N) takes the orders 0..10 in one batch per mode, and
    the values are concatenated order by order, in the order of modes (by
    default plain before refined).
    """
    rng = random.Random(2501)
    powers = [5.0, 5.065, 5.23, 5.525, 5.86] + [rng.uniform(5.0, 40.0) for _ in range(5)]
    text = ""
    for t, n in itertools.product(powers, (1, 255, 640, 3000)):
        per_mode = [gap_derivatives(t, n, range(11), mode) for mode in modes]
        text += "".join(repr((v.estimate, v.error_bound)) for pair in zip(*per_mode) for v in pair)
    return hashlib.sha256(text.encode()).hexdigest()


def refined_error_bound_digest():
    """sha256 of the hex of 400 seeded single refined_error_bound calls, as bench/workloads.py makes them.

    random.Random(7) draws t in [5, 12], the order in 0..14, the step count in
    1..3000 and the sign, in that order, per call.
    """
    rng = random.Random(7)
    text = ""
    for _ in range(400):
        t, j, n, sign = rng.uniform(5.0, 12.0), rng.randint(0, 14), rng.randint(1, 3000), rng.choice(["plus", "minus"])
        square = TrigSquare(5, sign)
        text += refined_error_bound(h4_term_bounds(IntegrandSpec(t, j, sign)), square, n, default_max_table(square)).hex()
    return hashlib.sha256(text.encode()).hexdigest()


class TestBatchDigest:
    def test_seeded_batches(self):
        """Estimates and error bounds of 80 batches in each mode, pinned to one digest."""
        assert batch_digest() == BATCH_DIGEST

    def test_seeded_refined_batches(self):
        """The refined half alone, pinned where plain bounds were still summed per brace kind: no refined bit has moved since."""
        assert batch_digest(["refined"]) == REFINED_BATCH_DIGEST

    def test_seeded_refined_error_bounds(self):
        """400 seeded single refined error bounds, pinned to one digest."""
        assert refined_error_bound_digest() == REFINED_ERROR_BOUND_DIGEST
