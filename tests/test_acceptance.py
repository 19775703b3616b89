"""Acceptance gate: one test per published criterion, strictest stated tolerances.

Each test finishes by printing a single ``ACCEPTANCE NN PASS`` line; run with
``pytest -s tests/test_acceptance.py`` to see all ten lines at once.
"""

import time

import pytest

from majorant.certify import (
    build_certificate,
    check_sign_variation,
    eval_cert_poly,
)
from majorant.envelope import envelope_max
from majorant.integrand import IntegrandSpec
from majorant.pipeline import DEFAULT_CONFIG, emit_report, prove_k5
from majorant.quadrature import gap_derivative
from majorant.spectral import torus_power_integral
from majorant.tables import reproduce_table
from majorant.trigpoly import (
    SignVariant,
    TrigSquare,
    default_max_table,
    variation_bound_power,
)

from conftest import numpy_G, one_sign_integral, plain_h4_bound
from oracle import eval_H, eval_H_second, required_steps


def stage_certificate(name):
    stage = DEFAULT_CONFIG["stages"][name]
    cert = build_certificate(
        stage["center"], stage["radius"], stage["base_order"], stage["degree"],
        stage["budgets"], stage["steps"], stage["mode"], stage["total_delta"],
    )
    return cert, stage


def test_criterion_01_local_maxima_tables():
    expected = {
        "plus": [(0.0, 9.0, 1), (0.151, 7.701, 2), (0.302, 4.628, 2), (0.448, 1.661, 2)],
        "minus": [(0.076, 8.662, 2), (0.227, 6.279, 2), (0.377, 3.005, 2), (0.5, 1.0, 1)],
    }
    for label, rows in expected.items():
        table = default_max_table(TrigSquare(5, SignVariant(label)))
        got = [(e.location, e.value_upper, e.multiplicity) for e in table.entries]
        assert got == rows
        assert sum(e.multiplicity for e in table.entries) == 7
    print("ACCEPTANCE 01 PASS — local maxima tables reproduced exactly")


def test_criterion_02_variation_bounds():
    plus = TrigSquare(5, SignVariant.PLUS)
    minus = TrigSquare(5, SignVariant.MINUS)
    v_plus = variation_bound_power(default_max_table(plus), 1.0)
    v_minus = variation_bound_power(default_max_table(minus), 1.0)
    assert v_plus == 73.96
    assert v_minus == 73.784
    assert v_plus < 74.0 and v_minus < 74.0
    print("ACCEPTANCE 02 PASS — first-power variation bounds 73.96 / 73.784 < 74")


def test_criterion_03_integer_moments():
    expected = [1, 3, 15, 93, 639, 4653, 35169]
    got = [torus_power_integral(rho) for rho in range(7)]
    assert got == expected
    assert all(isinstance(v, int) for v in got)
    print("ACCEPTANCE 03 PASS — integer moments 0..6 exact")


def test_criterion_04_first_derivative_at_five():
    steps = DEFAULT_CONFIG["stages"]["gap_d1_at_5"]["steps"]
    start = time.perf_counter()
    value = gap_derivative(1, 5.0, steps, "refined")
    elapsed = time.perf_counter() - start
    assert value.estimate == pytest.approx(0.002878492, abs=1e-6)
    assert value.error_bound <= 0.00195
    for sign in SignVariant:
        part = one_sign_integral(sign, 5.0, steps, 1, "refined")
        assert part.error_bound <= 0.0008672
        assert part.error_bound >= 0.0008672 * 0.999
    assert elapsed < 5.0
    print("ACCEPTANCE 04 PASS — refined first derivative positive within 0.00195")


def test_criterion_05_second_derivative_at_five():
    steps = DEFAULT_CONFIG["stages"]["gap_d2_at_5"]["steps"]
    value = gap_derivative(2, 5.0, steps, "refined")
    assert value.estimate == pytest.approx(0.033815603, abs=1e-6)
    for sign in SignVariant:
        part = one_sign_integral(sign, 5.0, steps, 2, "refined")
        assert 0.00245 <= part.error_bound <= 0.00252
    print(f"ACCEPTANCE 05 PASS — second derivative at {steps} steps within budget")


def test_criterion_06_third_derivative_and_step_rule():
    value = gap_derivative(3, 5.0, DEFAULT_CONFIG["stages"]["gap_d3_at_5"]["steps"], "plain")
    assert value.estimate == pytest.approx(0.18354763424, abs=1e-8)
    sup4 = plain_h4_bound(5.0, 3)  # the plain bound of order 3, for both signs
    assert sup4 <= 2.8294e14
    assert abs(required_steps(sup4, 0.182, 1.0, 0) - 475) <= 1
    print("ACCEPTANCE 06 PASS — third derivative estimate and step rule agree")


def test_criterion_07_certificate_coefficients_and_anchors():
    for table_id in ("T1", "T2", "T4", "T6"):
        header, rows = reproduce_table(table_id)
        diff = header.index("abs_diff")
        ref = header.index("reference")
        for row in rows:
            if row[ref] == "":
                continue
            assert row[diff] <= 1e-6 * max(1.0, abs(row[ref])), (table_id, row)
    anchors = [
        ("gap_d4_on_5.000_5.130", 5.13, 0.188694031),
        ("gap_d1_on_5.130_5.330", 5.13, 0.008983405),
        ("gap_d1_on_5.130_5.330", 5.33, 0.025709673),
        ("gap_d1_on_5.330_5.720", 5.33, 0.025709673),
        ("gap_d1_on_5.330_5.720", 5.56, 0.047052108),
        ("gap_d1_on_5.330_5.720", 5.72, 0.034577105),
        ("gap_d2_on_5.720_6.000", 5.72, -0.2607741259),
    ]
    for stage_name, at, reference in anchors:
        cert, _ = stage_certificate(stage_name)
        assert eval_cert_poly(cert, 0, at) == pytest.approx(reference, abs=1e-6)
    print("ACCEPTANCE 07 PASS — certificate coefficients and anchor values match")


def test_criterion_08_cascade_means_and_contradictions():
    cases = [
        ("gap_d1_on_5.130_5.330", (5.13, 5.33), 4,
         [0.12546539, 0.43413663, 2.54471981, 18.3426173]),
        ("gap_d1_on_5.330_5.720", (5.33, 5.56), 2, [0.20804689, 1.170823618]),
        ("gap_d1_on_5.330_5.720", (5.56, 5.72), 1, [0.35448883]),
    ]
    for stage_name, interval, expected_order, expected_means in cases:
        cert, stage = stage_certificate(stage_name)
        result = check_sign_variation(cert, stage["target"], interval)
        assert result.certified
        means = [r["value"] for r in result.evidence if r["quantity"] == "mean_lower"]
        assert means == pytest.approx(expected_means, abs=1e-6)
        stops = [r for r in result.evidence if r["quantity"] == "contradiction_order"]
        assert len(stops) == 1 and stops[0]["order"] == expected_order
    print("ACCEPTANCE 08 PASS — cascade means and contradiction orders reproduced")


def test_criterion_09_full_proof_deterministic():
    start = time.perf_counter()
    first = prove_k5()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert first.verdict == "PROVED"
    assert len(first.stages) == 8
    assert all(s.status == "certified" for s in first.stages)
    baseline = emit_report(first, "json")
    assert emit_report(prove_k5(), "json") == baseline
    assert emit_report(prove_k5(), "json") == baseline
    print("ACCEPTANCE 09 PASS — full proof PROVED, byte-identical across runs")


def test_criterion_10_property_sweeps(half_period_oracle, rng, monkeypatch):
    # Second-derivative closed form vs Richardson-extrapolated differences.
    def central(spec, x, h):
        return (eval_H(spec, x - h) - 2 * eval_H(spec, x) + eval_H(spec, x + h)) / h**2

    checked = 0
    for t, j in [(5.0, 0), (5.0, 2), (5.86, 1), (5.23, 3)]:
        for sign in SignVariant:
            spec = IntegrandSpec(t, j, sign)
            for x in rng.uniform(0.0, 0.5, 12):
                if numpy_G(x, sign) < 0.5:
                    continue
                fd = (4.0 * central(spec, x, 1e-4) - central(spec, x, 2e-4)) / 3.0
                assert eval_H_second(spec, x) == pytest.approx(fd, rel=1e-5, abs=100.0)
                checked += 1
    assert checked > 40

    # Envelope bound sandwiches the dense-grid maximum of y^s |log y|^m on [0, b].
    import numpy as np

    for _ in range(10):
        b = float(rng.uniform(0.05, 9.0))
        s = float(rng.uniform(0.5, 6.0))
        m = int(rng.integers(0, 5))
        y = np.unique(
            np.concatenate([np.linspace(1e-12, b, 40_001), np.geomspace(1e-12, b, 40_001)])
        )
        grid = float(np.max(y**s * np.abs(np.log(y)) ** m))
        env = envelope_max([s], [m], b)[m][0]
        assert grid <= env * (1.0 + 1e-12)
        assert env <= grid * (1.0 + 1e-5) + 1e-12

    # Certified integrals bracket an independent high-resolution oracle.
    for t, j in [(5.0, 1), (5.0, 2), (5.0, 3), (5.065, 4), (5.86, 2)]:
        for sign in SignVariant:
            value = one_sign_integral(sign, t, 500, j, "refined")
            truth = half_period_oracle(t, j, sign.value)
            assert abs(value.estimate - truth) <= value.error_bound

    # An overrun allowance must degrade to INCONCLUSIVE, never to a false PROVED.
    monkeypatch.setitem(DEFAULT_CONFIG["stages"]["gap_d4_on_5.000_5.130"], "total_delta", 0.1)
    report = prove_k5()
    assert report.verdict == "INCONCLUSIVE"
    print("ACCEPTANCE 10 PASS — property sweeps and failure-mode checks hold")
