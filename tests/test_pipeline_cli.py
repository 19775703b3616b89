"""Tests for the proof pipeline, configuration handling, reports, and the CLI."""

import csv
import hashlib
import io
import json
import math
import platform
import re
import subprocess
import sys

import pytest

import majorant.cli
import majorant.trigpoly
from majorant.pipeline import (
    CASE_ID,
    DEFAULT_CONFIG,
    TABLE_IDS,
    _run_certificate_stage,
    _run_derivative_stage,
    config_hash,
    emit_report,
    load_config,
    merge_config,
    prove_k5,
    reproduce_table,
    validate_config,
)
from majorant.quadrature import gap_derivative

EXPECTED_STAGES = [
    "endpoint_gap_zero",
    "gap_d1_at_5",
    "gap_d2_at_5",
    "gap_d3_at_5",
    "gap_d4_on_5.000_5.130",
    "gap_d1_on_5.130_5.330",
    "gap_d1_on_5.330_5.720",
    "gap_d2_on_5.720_6.000",
]

D4 = "gap_d4_on_5.000_5.130"
D1 = "gap_d1_at_5"
C1 = "gap_d1_on_5.130_5.330"
BAD_BUDGETS = [0.15, "a", 0.005, 0.0005, 0.0002, 0.0002, 0.0002]

# (overrides, stage named in the error or None, field named in the error)
MALFORMED_CONFIGS = [
    pytest.param({"stages": {D4: {"radius": None}}}, D4, "radius", id="radius-null"),
    pytest.param({"stages": {D4: {"radius": float("nan")}}}, D4, "radius", id="radius-nan"),
    pytest.param({"stages": {D4: {"intervals": 5}}}, D4, "intervals", id="intervals-number"),
    pytest.param({"stages": {D4: {"intervals": []}}}, D4, "intervals", id="intervals-empty"),
    pytest.param({"stages": {D4: {"intervals": [[5.0, 5.05, 5.13]]}}}, D4, "intervals", id="interval-triple"),
    pytest.param({"stages": {D4: {"notes": 3}}}, D4, "notes", id="notes-number"),
    pytest.param({"stages": {D4: {"budgets": BAD_BUDGETS}}}, D4, "budgets", id="budget-string"),
    pytest.param({"stages": {D4: {"tail_budget": "x"}}}, D4, "tail_budget", id="tail-budget-string"),
    pytest.param({"stages": {D4: {"base_order": -1}}}, D4, "base_order", id="base-order-negative"),
    pytest.param({"stages": {D1: {"t": None}}}, D1, "t", id="t-null"),
    pytest.param({"stages": {D1: {"steps": True}}}, D1, "steps", id="steps-bool"),
    pytest.param({"stages": {D1: {"order": 1.7}}}, D1, "order", id="order-fraction"),
    pytest.param({"stages": {D1: {"order": -1}}}, D1, "order", id="order-negative"),
    pytest.param({"case": "k7"}, None, "case", id="case-other"),
    pytest.param({"stages": {C1: {"target": "negative"}}}, C1, "target", id="cascade-negative"),
]

# Every (stage, field) that states the argument rather than tunes its numerics
FIXED = [
    (name, field)
    for name, stage in DEFAULT_CONFIG["stages"].items()
    for field in ("order", "t", "base_order", "target", "intervals")
    if field in stage
]


def other_value(field, value):
    """A well-typed value of a fixed field that differs from its default."""
    if field == "target":
        return "negative" if value == "positive" else "positive"
    if field == "intervals":
        (a, b), *rest = value
        return [[a, (a + b) / 2], *rest]
    return value + (0.05 if field == "t" else 1)


# Configs that pass every type and window check but would certify another argument, and the
# (stage, field) each is refused for: A leaves (5.4, 5.56) and (5.8, 6) uncovered, B never certifies
# gap'(5) and leaves (5.05, 5.13) uncovered, C certifies derivatives at 5.05 instead of 5.
OTHER_ARGUMENTS = [
    pytest.param(
        {"stages": {"gap_d1_on_5.330_5.720": {"intervals": [[5.33, 5.4]]}, "gap_d2_on_5.720_6.000": {"intervals": [[5.72, 5.8]]}}},
        "gap_d1_on_5.330_5.720", "intervals", id="A-uncovered",
    ),
    pytest.param({"stages": {D1: {"order": 2}, D4: {"intervals": [[5.0, 5.05]]}}}, D1, "order", id="B-order"),
    pytest.param({"stages": {D1: {"t": 5.05}, "gap_d2_at_5": {"t": 5.05}}}, D1, "t", id="C-moved"),
]

# sha256 of each reference table's CSV, as ``majorant table <id>`` prints it
TABLE_SHA256 = {
    "maxima": "9f71782fcdf4cc22f2df9b3109c38fec3e8af4303fe01dc646875f44b09f0d24",
    "A_rho": "00e04b72fa0884bbc54c5392ec40887b6c40b8a182e8bc26058f790fefa2934d",
    "Q500": "4735a5fe4c95225484befd5fa8d8e358714b72e386ca8f67460c4d80c37872e4",
    "Q400": "5e7160ba5716361a23711cfcea88b7afbb803b36e3dc289db145ebed1d0b1c48",
    "T1": "db10cf5d6bb97b5773065e0c9350b0a81e84f095d27bfa72304d2e55205e8dac",
    "T2": "3d9ce4ae5831fdcfceffba7a83a5a13564476f652a7a977aab3394ff367186dc",
    "T3": "ff80d0d46513cf20f83197a7023a30a08ff7bce292da2c6232d65f6bfc99c789",
    "T4": "2f23ae3746df06d1ff9f71a1da698ac5780a523b5c0c4eb6d6d6f8d6d5ed7501",
    "T5": "84b31e2f20b6798fcf9f012eeb9d0d4e17a795cf37b936c193464d669d9090f3",
    "T6": "32df67a842e6d118974d81b04d2e91e0f04ba7fe4d0d3fbe2a86ca050ef2916a",
}


@pytest.fixture(scope="module")
def default_report():
    return prove_k5()


class TestConfig:
    def test_merge_keeps_defaults(self):
        cfg = merge_config({"stages": {"gap_d1_at_5": {"steps": 400}}})
        assert cfg["stages"]["gap_d1_at_5"]["steps"] == 400
        assert cfg["stages"]["gap_d1_at_5"]["mode"] == "refined"
        assert cfg["stages"]["gap_d2_at_5"] == DEFAULT_CONFIG["stages"]["gap_d2_at_5"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            merge_config({"stage": {}})
        with pytest.raises(ValueError, match="unknown stage"):
            merge_config({"stages": {"gap_d9_at_5": {}}})
        with pytest.raises(ValueError, match="unknown fields"):
            validate_config(merge_config({"stages": {"gap_d1_at_5": {"nsteps": 10}}}))

    def test_step_limits(self):
        with pytest.raises(ValueError, match="steps"):
            validate_config(merge_config({"stages": {"gap_d1_at_5": {"steps": 0}}}))
        with pytest.raises(ValueError, match="steps"):
            validate_config(merge_config({"stages": {"gap_d1_at_5": {"steps": 641}}}))

    def test_mode_and_interval_checks(self):
        """The intervals are fixed, so the range and window checks are reached through the window."""
        with pytest.raises(ValueError, match="mode"):
            validate_config(merge_config({"stages": {"gap_d1_at_5": {"mode": "best"}}}))
        with pytest.raises(ValueError, match=r"leaves \[5, 6\]"):
            validate_config(merge_config({"stages": {D4: {"center": 5.9, "radius": 0.2}}}))
        with pytest.raises(ValueError, match=r"interval \[5\.0, 5\.13\] leaves the certified window"):
            validate_config(merge_config({"stages": {D4: {"center": 5.5, "radius": 0.1}}}))

    def test_every_fixed_field_is_counted(self):
        """18 of the 64 stage fields state the argument; the other 46 are tunable."""
        assert len(FIXED) == 18
        assert sum(map(len, DEFAULT_CONFIG["stages"].values())) - len(FIXED) == 46

    @pytest.mark.parametrize("stage,field", FIXED)
    def test_fixed_field_refuses_other_value(self, stage, field):
        default = DEFAULT_CONFIG["stages"][stage][field]
        value = other_value(field, default)
        refusal = f"stage {stage!r}: {field} is fixed by the argument at {json.dumps(default)}, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            validate_config(merge_config({"stages": {stage: {field: value}}}))

    def test_fixed_field_refuses_another_spelling(self):
        """5 equals 5.0 but would change config_hash, so only the default's own JSON is accepted."""
        with pytest.raises(ValueError, match=r"^stage 'gap_d1_at_5': t is fixed by the argument at 5\.0, got 5$"):
            validate_config(merge_config({"stages": {D1: {"t": 5}}}))

    def test_default_config_states_the_argument(self):
        """Orders 1-3 at t = 5, then four certificates whose intervals tile [5, 6] in stage order."""
        stages = DEFAULT_CONFIG["stages"]
        assert [(s["order"], s["t"]) for s in stages.values() if "order" in s] == [(1, 5.0), (2, 5.0), (3, 5.0)]
        certificates = [s for s in stages.values() if "center" in s]
        edges = [5.0]
        for stage in certificates:
            for a, b in stage["intervals"]:
                assert a == edges[-1]
                edges.append(b)
        assert edges == [5.0, 5.13, 5.33, 5.56, 5.72, 6.0]
        assert [s["base_order"] for s in certificates] == [4, 1, 1, 2]
        assert [s["target"] for s in certificates] == ["positive", "positive", "positive", "negative"]

    @pytest.mark.parametrize("overrides,stage,field", MALFORMED_CONFIGS)
    def test_malformed_config_names_stage_and_field(self, overrides, stage, field):
        with pytest.raises(ValueError) as excinfo:
            validate_config(merge_config(overrides))
        message = str(excinfo.value)
        assert field in message
        assert stage is None or f"stage {stage!r}" in message

    def test_unknown_sign_method_rejected(self):
        with pytest.raises(ValueError, match=r"^stage 'gap_d1_on_5.130_5.330': method must be one of \('chain', 'cascade'\)$"):
            validate_config(merge_config({"stages": {C1: {"method": "bogus"}}}))

    def test_only_none_means_no_overrides(self):
        assert merge_config({}) == merge_config(None) == {"case": CASE_ID, "stages": DEFAULT_CONFIG["stages"]}
        for falsy in ([], 0, False, ""):
            with pytest.raises(ValueError, match="configuration must be a JSON object"):
                merge_config(falsy)

    def test_stages_must_all_be_present(self):
        with pytest.raises(ValueError, match="stages must be"):
            validate_config({"case": CASE_ID, "stages": {}})

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"stages": {"gap_d2_at_5": {"steps": 300}}}', encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg["stages"]["gap_d2_at_5"]["steps"] == 300

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(str(path))

    def test_hash_is_stable_and_sensitive(self):
        base = config_hash(merge_config(None))
        assert base == "720e3cd23913be745085b7843218e37a3bd57f91a3e2df63ba53f2f2a118671e"
        changed = config_hash(merge_config({"stages": {"gap_d1_at_5": {"steps": 639}}}))
        assert changed != base


class TestProve:
    def test_default_run_is_proved(self, default_report):
        assert default_report.verdict == "PROVED"
        assert [s.name for s in default_report.stages] == EXPECTED_STAGES
        assert all(s.status == "certified" for s in default_report.stages)

    def test_margins_are_positive_and_frozen(self, default_report):
        margins = {s.name: s.margin for s in default_report.stages}
        assert margins["endpoint_gap_zero"] is None
        assert margins["gap_d1_at_5"] == pytest.approx(0.0011444685189975572, rel=1e-9)
        assert margins["gap_d2_at_5"] == pytest.approx(0.028840577023975206, rel=1e-9)
        assert margins["gap_d3_at_5"] == pytest.approx(0.037158148546507785, rel=1e-9)
        assert margins["gap_d4_on_5.000_5.130"] == pytest.approx(0.0016940309569170586, rel=1e-9)
        assert margins["gap_d1_on_5.130_5.330"] == pytest.approx(0.004183404982826701, rel=1e-9)
        assert margins["gap_d1_on_5.330_5.720"] == pytest.approx(0.013254175331453599, rel=1e-9)
        assert margins["gap_d2_on_5.720_6.000"] == pytest.approx(0.011374125928522105, rel=1e-9)

    def test_mode_notes_surface_on_wide_stages(self, default_report):
        by_name = {s.name: s for s in default_report.stages}
        assert len(by_name["gap_d4_on_5.000_5.130"].warnings) == 2
        assert len(by_name["gap_d2_on_5.720_6.000"].warnings) == 2
        assert by_name["gap_d1_on_5.130_5.330"].warnings == ()

    def test_low_step_run_is_inconclusive(self):
        cfg = merge_config(
            {"stages": {"gap_d1_at_5": {"steps": 50}, "gap_d2_at_5": {"steps": 50}}}
        )
        report = prove_k5(cfg)
        assert report.verdict == "INCONCLUSIVE"
        failed = [s for s in report.stages if s.status == "failed"]
        assert {s.name for s in failed} == {"gap_d1_at_5", "gap_d2_at_5"}
        assert all(s.margin < 0 for s in failed)

    def test_overflowing_envelope_is_inconclusive(self):
        """A log power so high that envelope maxima overflow gives an infinite bound and a failed stage, not a crash.

        Orders are fixed, so no configuration reaches such an order; the stage
        runners are called directly: order 400 at t = 5, and a certificate of
        base order 400 on a stage dict that skipped validation.
        """
        value = gap_derivative(400, 5.0, 640, "refined")
        assert math.isfinite(value.estimate) and value.error_bound == math.inf
        result = _run_derivative_stage(D1, value)
        assert result.status == "failed" and result.margin == -math.inf
        result = _run_certificate_stage(D4, dict(DEFAULT_CONFIG["stages"][D4], base_order=400))
        assert result.status == "failed"
        assert "tail bound inf exceed" in result.warnings[-1]

    def test_default_values_keep_report_bytes(self, default_report):
        """Repeating every fixed field's default is accepted and changes no report byte."""
        overrides = {"stages": {}}
        for stage, field in FIXED:
            overrides["stages"].setdefault(stage, {})[field] = DEFAULT_CONFIG["stages"][stage][field]
        report = prove_k5(merge_config(json.loads(json.dumps(overrides))))
        assert emit_report(report) == emit_report(default_report)


class TestReports:
    def test_json_schema(self, default_report):
        data = json.loads(emit_report(default_report))
        assert set(data) == {
            "version", "case", "verdict", "environment", "timestamp",
            "config_hash", "stages",
        }
        assert data["timestamp"] is None
        assert len(data["stages"]) == 8
        for stage in data["stages"]:
            assert set(stage) == {
                "name", "status", "estimate", "error_bound", "margin", "warnings",
            }
            assert isinstance(stage["warnings"], list)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the hash was recorded with glibc's libm")
    def test_default_report_bytes_are_pinned(self):
        """The default JSON report is the behavioural contract; hash recorded on glibc 2.36, x86-64, Python 3.11.7."""
        digest = hashlib.sha256(emit_report(prove_k5(), "json").encode("utf-8")).hexdigest()
        assert digest == "edc758ed3368006859824b419470c6aaf62d7539113b11025942f9068eaa066a"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the hashes were recorded with glibc's libm")
    @pytest.mark.parametrize("table_id,digest", TABLE_SHA256.items())
    def test_table_bytes_are_pinned(self, table_id, digest):
        """The CSV that ``majorant table <id>`` prints; hashes recorded on glibc 2.36, x86-64, Python 3.11.7."""
        header, rows = reproduce_table(table_id)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_emissions_are_deterministic(self, default_report):
        again = prove_k5()
        assert emit_report(default_report, "json") == emit_report(again, "json")
        assert emit_report(default_report, "text") == emit_report(again, "text")

    def test_json_parses_back(self, default_report):
        data = json.loads(emit_report(default_report, "json"))
        assert data["verdict"] == "PROVED"

    def test_format_validation(self, default_report):
        with pytest.raises(ValueError, match="json.*text"):
            emit_report(default_report, "yaml")


class TestTables:
    def test_all_ids_render(self):
        for table_id in TABLE_IDS:
            header, rows = reproduce_table(table_id)
            assert len(header) > 2 and len(rows) > 0
            assert all(len(r) == len(header) for r in rows)

    def test_maxima_and_moments_match_exactly(self):
        _, rows = reproduce_table("maxima")
        assert all(r[-1] == 0.0 for r in rows), "maxima table must match references exactly"
        _, rows = reproduce_table("A_rho")
        assert all(r[-1] == 0 for r in rows)

    @pytest.mark.parametrize("table_id", ["Q500", "Q400"])
    def test_node_sum_references_bracketed(self, table_id):
        header, rows = reproduce_table(table_id)
        slack_col = header.index("reference_slack")
        ref_col = header.index("reference")
        for row in rows:
            assert 0.0 <= row[slack_col] <= 0.005 * row[ref_col], row

    @pytest.mark.parametrize("table_id", ["T1", "T2", "T4", "T6"])
    def test_coefficient_references(self, table_id):
        header, rows = reproduce_table(table_id)
        diff = header.index("abs_diff")
        ref = header.index("reference")
        for row in rows:
            assert row[diff] <= 1e-6 * max(1.0, abs(row[ref])), row

    @pytest.mark.parametrize("table_id,orders", [("T3", [4]), ("T5", [2, 1])])
    def test_cascade_tables(self, table_id, orders):
        header, rows = reproduce_table(table_id)
        qty = header.index("quantity")
        contradictions = [r for r in rows if r[qty] == "contradiction_order"]
        assert [r[header.index("order")] for r in contradictions] == orders
        value, ref, diff = (header.index(c) for c in ("value", "reference", "abs_diff"))
        referenced = [r for r in rows if r[ref] != ""]
        assert len(referenced) >= 10 if table_id == "T3" else 5
        for row in referenced:
            assert row[diff] <= 1e-6 * max(1.0, abs(row[ref])), row

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown table"):
            reproduce_table("T7")


def run_cli(*args, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "majorant", *args],
        capture_output=True, text=True, timeout=120,
    )


class TestCli:
    def test_prove_json_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("prove", "--out", str(out), "--format", "json")
        assert result.returncode == 0, result.stderr
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["verdict"] == "PROVED"

    def test_prove_text_to_stdout(self):
        result = run_cli("prove", "--format", "text")
        assert result.returncode == 0
        assert "verdict: PROVED" in result.stdout

    def test_prove_low_steps_exit_one(self, tmp_path):
        cfg = tmp_path / "low.json"
        cfg.write_text('{"stages": {"gap_d1_at_5": {"steps": 50}}}', encoding="utf-8")
        result = run_cli("prove", "--config", str(cfg))
        assert result.returncode == 1
        assert '"verdict": "INCONCLUSIVE"' in result.stdout

    def test_prove_invalid_config_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            '{"stages": {"gap_d4_on_5.000_5.130": {"intervals": [[6.0, 7.0]]}}}',
            encoding="utf-8",
        )
        result = run_cli("prove", "--config", str(cfg))
        assert result.returncode == 2
        assert result.stderr == (
            "error: stage 'gap_d4_on_5.000_5.130': intervals is fixed by the argument at [[5.0, 5.13]], got [[6.0, 7.0]]\n"
        )

    def test_malformed_config_exit_two_without_traceback(self, tmp_path):
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({"stages": {D4: {"radius": None}}}), encoding="utf-8")
        result = run_cli("prove", "--config", str(cfg))
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_derivative_order_too_large_exit_two(self):
        """(log G)^p beyond the float range, or a node sum of H overflowing, is rejected input.

        The inputs reach each refusal in turn: the log power, a node sum fsum
        cannot take (finite products whose sum passes the float range), and a
        node sum that came out infinite (a product that did).
        """
        for order, t, mode, steps in (
            ("1000", "5.5", "plain", "100"), ("200", "252", "plain", "1000"), ("300", "300", "refined", "100"),
        ):
            result = run_cli("derivative", "--order", order, "--t", t, "--steps", steps, "--mode", mode)
            assert result.returncode == 2, (order, t, mode, result.stdout)
            assert result.stderr.startswith(f"error: log order {order} ")
            assert result.stderr.count("\n") == 1
            assert result.stdout == ""

    def test_derivative_power_too_large_exit_two(self):
        """G^t beyond the float range (t = 400: 9^400 > 1.8e308) is rejected input naming t."""
        for mode in ("plain", "refined"):
            result = run_cli("derivative", "--order", "1", "--t", "400", "--steps", "10", "--mode", mode)
            assert result.returncode == 2, (mode, result.stdout)
            assert result.stderr.startswith("error: power t = 400.0 ")
            assert result.stderr.count("\n") == 1
            assert result.stdout == ""

    @pytest.mark.parametrize("t", ["1e120", "1e308"])
    def test_derivative_huge_power_exit_two(self, t, capsys):
        """From t ~ 5.6e102 the t**3 of the |H''''| bound passes the float range too; t is still refused by name."""
        for mode in ("plain", "refined"):
            assert majorant.cli.main(["derivative", "--order", "1", "--t", t, "--steps", "10", "--mode", mode]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: power t = {float(t)!r} is too large to evaluate"), mode
            assert err.count("\n") == 1

    def test_config_order_too_large_exit_two(self, tmp_path):
        """Order 1000 is refused as a fixed field; test_derivative_order_too_large_exit_two covers its log power."""
        cfg = tmp_path / "order.json"
        cfg.write_text(json.dumps({"stages": {"gap_d1_at_5": {"order": 1000}}}), encoding="utf-8")
        result = run_cli("prove", "--config", str(cfg))
        assert result.returncode == 2
        assert result.stderr == "error: stage 'gap_d1_at_5': order is fixed by the argument at 1, got 1000\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("overrides,stage,field", OTHER_ARGUMENTS)
    def test_config_of_another_argument_exit_two(self, overrides, stage, field, tmp_path, capsys):
        cfg = tmp_path / "other.json"
        cfg.write_text(json.dumps(overrides), encoding="utf-8")
        assert majorant.cli.main(["prove", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: stage {stage!r}: {field} is fixed by the argument at ")
        assert err.count("\n") == 1

    def test_config_degree_past_factorial_range_exit_two(self, tmp_path, capsys):
        """The tail bound divides by (degree + 1)!, a float only up to 170!, so degree 170 is refused input."""
        cfg = tmp_path / "degree.json"
        cfg.write_text(json.dumps({"stages": {D4: {"degree": 170, "budgets": [0.15] + 170 * [1e-6]}}}), encoding="utf-8")
        assert majorant.cli.main(["prove", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"error: stage {D4!r}: degree must be at most 169, got 170\n")

    @pytest.mark.parametrize("text", ["[]", "0", "false", "null", '""'])
    def test_prove_non_object_config_exit_two(self, text, tmp_path, capsys):
        """A falsy JSON value is no object either: it is refused, not read as "no overrides"."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        assert majorant.cli.main(["prove", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "error: configuration must be a JSON object\n")

    def test_missing_config_file_exit_two(self):
        result = run_cli("prove", "--config", "/nonexistent/cfg.json")
        assert result.returncode == 2

    def test_table_csv(self):
        result = run_cli("table", "maxima")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "sign,location,multiplicity,value_upper,reference,abs_diff"
        assert len(lines) == 9

    def test_derivative_command(self):
        result = run_cli(
            "derivative", "--order", "1", "--t", "5.0", "--steps", "500",
            "--mode", "refined",
        )
        assert result.returncode == 0
        assert "estimate    0.0028784920987163787" in result.stdout

    def test_maxima_command(self):
        result = run_cli("maxima", "--sign", "minus", "--step", "0.001")
        assert result.returncode == 0
        assert "0.5,1.0,1" in result.stdout

    def test_maxima_grid_too_large_exit_two(self, monkeypatch, capsys):
        """A step of 1e-9 would sample 5e8 points; it is refused before the first one."""
        monkeypatch.setattr(majorant.trigpoly, "eval_G_pair", lambda *_: pytest.fail("sampled a grid above MAX_STEPS"))
        assert majorant.cli.main(["maxima", "--sign", "plus", "--step", "1e-9"]) == 2
        assert capsys.readouterr() == ("", "error: step 1e-09 gives 500000000 grid steps, more than 1000000\n")

    @pytest.mark.parametrize("step,count", [("1e-300", "5e+299"), ("1e-309", "inf")])
    def test_maxima_tiny_step_refusal_is_short(self, step, count, capsys):
        """A grid-step count past 10^9 is stated in short form; past the float range (a subnormal step) as inf."""
        assert majorant.cli.main(["maxima", "--sign", "plus", "--step", step]) == 2
        assert capsys.readouterr() == ("", f"error: step {float(step):g} gives {count} grid steps, more than 1000000\n")

    @pytest.mark.parametrize("bump", ["inf", "1e308"])
    def test_maxima_huge_bump_gives_nine(self, bump, capsys):
        """Every interior bound is clamped at 9 before it is rounded, so a huge bump gives 9, not an OverflowError."""
        assert majorant.cli.main(["maxima", "--sign", "plus", "--bump", bump]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[1:] == ["0.0,9.0,1", "0.151,9.0,2", "0.302,9.0,2", "0.448,9.0,2"]

    @pytest.mark.parametrize(
        "args,refusal",
        [
            pytest.param(["--step", "1e200"], "step 1e+200 must evenly divide the half period", id="1e200"),
            pytest.param(["--step", "1e308"], "step 1e+308 must evenly divide the half period", id="1e308"),
            pytest.param(
                ["--step", "1e200", "--bump", "1"], "bump 1 does not cover the curvature slack inf for step 1e+200", id="1e200-bump"
            ),
        ],
    )
    def test_maxima_huge_step_exit_two(self, args, refusal, capsys):
        """A step past 1e154 squares past the float range: the slack is inf, and the step is refused in one line."""
        assert majorant.cli.main(["maxima", "--sign", "plus", *args]) == 2
        assert capsys.readouterr() == ("", f"error: {refusal}\n")

    def test_maxima_nan_step_or_bump_exit_two(self, capsys):
        """NaN fails every comparison, so the step and bump checks are written to fail on it."""
        assert majorant.cli.main(["maxima", "--sign", "minus", "--step", "nan"]) == 2
        assert capsys.readouterr() == ("", "error: step must be positive, got nan\n")
        assert majorant.cli.main(["maxima", "--sign", "minus", "--bump", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error: bump nan does not cover the curvature slack")

    def test_optimized_interpreter_gives_same_bytes(self, tmp_path):
        """Checks live in explicit raises, not asserts, so python -O changes nothing."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        normal = run_cli("prove", "--out", str(a))
        optimized = run_cli("prove", "--out", str(b), python_flags=("-O",))
        assert normal.returncode == 0 and optimized.returncode == 0, optimized.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_internal_error_exit_three(self, monkeypatch, capsys):
        def broken(_config):
            raise RuntimeError("stage table out of step")

        monkeypatch.setattr(majorant.cli, "prove_k5", broken)
        assert majorant.cli.main(["prove"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: stage table out of step\n"
        assert captured.out == ""

    def test_bad_subcommand_exit_two(self):
        result = run_cli("defeat")
        assert result.returncode == 2
