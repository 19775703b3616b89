"""Tests for the proof pipeline, its stage table, reports, and the CLI."""

import copy
import csv
import hashlib
import io
import json
import math
import platform
import subprocess
import sys

import pytest

import majorant.cli
import majorant.trigpoly
from majorant.certify import SignCertificate, TaylorCertificate, eval_cert_poly
from majorant.integrand import IntegrandSpec
from majorant.pipeline import (
    CASE_ID,
    CONFIG_SHA256,
    COVERAGE_STAGE,
    DEFAULT_CONFIG,
    ProofReport,
    StageResult,
    _run_certificate_stage,
    _run_derivative_stage,
    emit_report,
    prove_k5,
)
from majorant.quadrature import CertifiedValue, gap_derivative
from majorant.tables import TABLE_IDS, reproduce_table
from majorant.trigpoly import G_MAX, LocalMaxEntry, SignVariant, TrigSquare, default_max_table

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
# The d4 stage's last warning when the tight_allowance fixture sets its total_delta to 0.1
TIGHT_ALLOWANCE_REASON = "budgets plus tail bound 0.186980797 exceed total allowance 0.1"


def asdict_rendering(value):
    """The report as dataclasses.asdict rendered it: records become dicts, recursively, and other tuples lists."""
    if hasattr(value, "_asdict"):
        return {name: asdict_rendering(v) for name, v in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [asdict_rendering(v) for v in value]
    return value


def hand_report(*stages, top=("1", CASE_ID, "PROVED", "binary64", None, "0" * 64)):
    """A report built by hand from its six top-level leaves and its stages."""
    return ProofReport(*top, stages)


# Leaves that json spells in its own way: nan, the infinities, signed zero, the extreme floats, an int, a bool and null
ODD_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 7, True, None]
# Strings json escapes: a quote, a backslash, control characters, non-ASCII, and the item separator of its compact form
ODD_STRINGS = {
    "quote": 'say "q"', "backslash": "back\\slash", "newline": "two\nlines", "tab": "tab\there", "NUL": "nul\0byte",
    "e-acute": "caf\u00e9", "emoji": "\U0001F600", "item separator": '", "',
}
HAND_BUILT_REPORTS = {
    "no stages": hand_report(),
    "0 warnings": hand_report(StageResult("s", "certified", 1.0, 0.5, 0.5)),
    "1 warning": hand_report(StageResult("s", "failed", 1.0, 0.5, 0.5, ("one",))),
    "3 warnings": hand_report(StageResult("s", "failed", None, None, None, ("a", "b", "c")), StageResult("t", "certified", 0.0, 0.0, None)),
    **{
        f"numbers {value!r}": hand_report(
            StageResult("s", "failed", value, 0.5, 0.25), StageResult("t", "failed", 0.5, value, 0.25),
            StageResult("u", "failed", 0.5, 0.25, value, ("w",)), StageResult("v", "failed", value, value, value),
        )
        for value in ODD_NUMBERS
    },
    **{
        f"string {kind}": hand_report(StageResult(text, text, 0.1, None, -0.0, (text, "w", text)), top=(text, text, text, text, None, text))
        for kind, text in ODD_STRINGS.items()
    },
}

# Every entry of the stage table as (stage, field)
TABLE_ENTRIES = [(name, field) for name, stage in DEFAULT_CONFIG["stages"].items() for field in stage]


def other_value(field, value):
    """Another value of a stage-table entry, of the same type, that the proof cannot leave unseen."""
    if field == "target":
        return "negative" if value == "positive" else "positive"
    if field in ("mode", "method"):
        return {"refined": "plain", "plain": "refined", "chain": "cascade", "cascade": "chain"}[value]
    if field == "intervals":  # the last one cut to its first half, which leaves a piece of [5, 6] uncovered
        *rest, (a, b) = value
        return [*rest, [a, (a + b) / 2]]
    if field == "budgets":  # twice each budget overruns the stage's total_delta
        return [2 * b for b in value]
    if field in ("order", "base_order", "degree"):
        return value + 1
    if field == "steps":
        return value - 1
    return value + 0.01  # t, center, radius, total_delta


def proof_outcome():
    """The proof's JSON report, or the ValueError that refuses the stage table."""
    try:
        report = prove_k5()
    except ValueError as exc:
        return f"refused: {exc}"
    return emit_report(report)


# sha256 of each reference table's CSV, as ``majorant table <id>`` prints it
TABLE_SHA256 = {
    "maxima": "9f71782fcdf4cc22f2df9b3109c38fec3e8af4303fe01dc646875f44b09f0d24",
    "A_rho": "00e04b72fa0884bbc54c5392ec40887b6c40b8a182e8bc26058f790fefa2934d",
    "Q500": "4735a5fe4c95225484befd5fa8d8e358714b72e386ca8f67460c4d80c37872e4",
    "Q400": "5e7160ba5716361a23711cfcea88b7afbb803b36e3dc289db145ebed1d0b1c48",
    "T1": "5e640255a33d0019d43eedccd1473962b1ed426368fe6dc4f741852b8295d4cb",
    "T2": "b2d246c02d2ab6539c511f9ef57d93a384ed6e983652f99e8803573ba5536eec",
    "T3": "c6e7578aa72334e8204bdfa772c069d75fbf4481084ffce5a5f4b6566b4f01e5",
    "T4": "429ea3a96728f5b58516dab7e353874e875344886185efb436b6f4638a70fa2c",
    "T5": "5a69234f89db0267d926c194fc25da85de22296f9753c3fcd126654b52ed9ce9",
    "T6": "70dee90ea3ff045fbd4abc9bbbb92b0b6f4540ac5669b5908616143ada295f4a",
}


@pytest.fixture(scope="module")
def default_report():
    return prove_k5()


@pytest.fixture
def tight_allowance(monkeypatch):
    """The d4 certificate's allowance set below its budgets plus tail bound, so that stage fails and the run is INCONCLUSIVE."""
    monkeypatch.setitem(DEFAULT_CONFIG["stages"][D4], "total_delta", 0.1)


class TestConfig:
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

    @pytest.mark.parametrize("stage,field", TABLE_ENTRIES, ids=[f"{stage}-{field}" for stage, field in TABLE_ENTRIES])
    def test_every_entry_reaches_the_proof(self, stage, field, default_report, monkeypatch):
        """Another value of any entry changes the report, whose config_hash stays CONFIG_SHA256, or the proof refuses it: the table holds nothing the proof ignores."""
        table = DEFAULT_CONFIG["stages"][stage]
        monkeypatch.setitem(table, field, other_value(field, table[field]))
        assert proof_outcome() != emit_report(default_report)

    def test_uncovered_piece_of_the_range_is_inconclusive(self, monkeypatch):
        """A narrowed sign-check interval leaves [5.445, 5.56] uncovered: every stage still certifies, but the verdict is INCONCLUSIVE and a failed result names the piece."""
        monkeypatch.setitem(DEFAULT_CONFIG["stages"]["gap_d1_on_5.330_5.720"], "intervals", [[5.33, 5.445], [5.56, 5.72]])
        report = prove_k5()
        assert report.verdict == "INCONCLUSIVE"
        assert [s.name for s in report.stages] == EXPECTED_STAGES + [COVERAGE_STAGE]
        assert all(s.status == "certified" for s in report.stages[:-1])
        warning = "no certificate interval covers [5.445, 5.56] of [5, 6]"
        assert report.stages[-1] == StageResult(COVERAGE_STAGE, "failed", None, None, None, (warning,))

    def test_hash_is_stable_and_sensitive(self):
        """CONFIG_SHA256 is the sha256 of the shipped table's canonical JSON, so an edit to the table needs a new literal."""
        def canonical_sha256(cfg):
            return hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()
        assert canonical_sha256(DEFAULT_CONFIG) == CONFIG_SHA256
        changed = copy.deepcopy(DEFAULT_CONFIG)
        changed["stages"][D4]["total_delta"] = 0.1869
        assert canonical_sha256(changed) != CONFIG_SHA256

    def test_proof_and_tables_leave_the_stage_table_as_found(self):
        """A proof reads DEFAULT_CONFIG in place, so no stage runner or coefficient table may edit it, lists included."""
        before = json.dumps(DEFAULT_CONFIG)
        prove_k5()
        assert json.dumps(DEFAULT_CONFIG) == before
        for table_id in ("T1", "T2", "T3", "T4", "T5", "T6"):
            reproduce_table(table_id)
            assert json.dumps(DEFAULT_CONFIG) == before, table_id


def run_hand_built_stage(monkeypatch, cert, method, target, interval):
    """_run_certificate_stage on one interval, with cert in place of the certificate the stage would build."""
    monkeypatch.setattr("majorant.pipeline._stage_certificate", lambda stage: cert)
    stage = {"target": target, "method": method, "intervals": [interval]}
    return _run_certificate_stage("hand_built", stage)


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
        assert margins["gap_d3_at_5"] == pytest.approx(0.1694625148981371, rel=1e-9)
        assert margins["gap_d4_on_5.000_5.130"] == pytest.approx(0.0016940309631856554, rel=1e-9)
        assert margins["gap_d1_on_5.130_5.330"] == pytest.approx(0.004183404982501709, rel=1e-9)
        assert margins["gap_d1_on_5.330_5.720"] == pytest.approx(0.013254175331730003, rel=1e-9)
        assert margins["gap_d2_on_5.720_6.000"] == pytest.approx(0.011374125926484846, rel=1e-9)

    def test_tight_allowance_run_is_inconclusive(self, tight_allowance):
        """A certificate whose allowance its budgets and tail overrun fails, and only that stage."""
        report = prove_k5()
        assert report.verdict == "INCONCLUSIVE"
        failed = [s for s in report.stages if s.status == "failed"]
        assert [s.name for s in failed] == [D4]
        assert failed[0].warnings == (TIGHT_ALLOWANCE_REASON,)

    def test_only_a_failed_stage_warns(self, default_report, tight_allowance):
        """A warning says why a stage failed: every warning of the PROVED report and of the tight_allowance one sits on a failed stage.

        default_report is module-scoped, so pytest builds it before the function-scoped tight_allowance patches the table.
        """
        tight = prove_k5()
        assert (default_report.verdict, tight.verdict) == ("PROVED", "INCONCLUSIVE")
        for report in (default_report, tight):
            assert all(s.status == "failed" for s in report.stages if s.warnings), report.verdict

    def test_unequal_endpoint_integrals_fail_and_say_why(self, monkeypatch):
        """A failed endpoint check reports no value and names its reason, as every other failed stage without a value does."""
        monkeypatch.setattr("majorant.pipeline.endpoint_difference_zero", lambda: False)
        report = prove_k5()
        assert report.verdict == "INCONCLUSIVE"
        reason = "the 5th or 6th power integrals of the two signs differ"
        assert report.stages[0] == StageResult("endpoint_gap_zero", "failed", None, None, None, (reason,))
        assert all(s.status == "certified" for s in report.stages[1:])

    def test_starved_derivative_stage_fails(self):
        """Steps are fixed, so a derivative stage with a non-positive margin is built from a starved value."""
        result = _run_derivative_stage(D1, gap_derivative(1, 5.0, 50))
        assert result.status == "failed" and result.margin < 0
        assert result.warnings == (f"positivity margin {result.margin:.6g} is not positive at 50 steps",)

    def test_zero_margin_derivative_stage_fails(self):
        """estimate == error_bound leaves a margin of exactly 0.0, which certifies no positivity."""
        result = _run_derivative_stage(D1, CertifiedValue(0.25, 0.25, 640, "refined"))
        assert (result.status, result.margin) == ("failed", 0.0)
        assert result.warnings == ("positivity margin 0 is not positive at 640 steps",)

    def test_a_zero_anchor_margin_fails(self, monkeypatch):
        """A positive chain reads P - delta at b alone, the stage margin reads P at both ends: here P(a) - delta is exactly 0.0.

        P'(a) < 0 and P'' < 0, so P decreases on [a, b], b the float after a; yet P(a) as evaluated is one ulp below P(b).
        With delta = P(a) the chain certifies (P(b) - delta > 0), and the margin is exactly 0.0, which certifies nothing.
        """
        coeffs = tuple(map(float.fromhex, ("0x1.6a75c00abb832p-1", "-0x1.9479cbe3bb636p-2", "-0x1.eb100c8c93428p+0")))
        a = float.fromhex("0x1.52d23adca2b15p+2")  # 5.294081416572927
        b = math.nextafter(a, 6.0)
        cert = TaylorCertificate(5.5, 0.25, 1, 2, coeffs, (0.0,) * 3, (1e-9,) * 3, 0.0, 1.0)
        delta = eval_cert_poly(cert, 0, a)
        assert delta < eval_cert_poly(cert, 0, b)
        result = run_hand_built_stage(monkeypatch, cert._replace(total_delta=delta), "chain", "positive", (a, b))
        assert (result.status, result.margin) == ("failed", 0.0)
        assert result.warnings == (f"anchor value {delta:.6g} does not clear the allowance",)

    def test_nan_anchors_fail_the_stage(self, monkeypatch):
        """A certified interval whose anchors are nan leaves a nan margin, which clears no allowance; it was once certified."""
        cert = TaylorCertificate(5.5, 0.25, 1, 1, (2.0, -1.0), (0.0, 0.0), (0.125, 0.125), 0.0, 0.25)
        verdict = SignCertificate((5.25, 5.75), "positive", "variation_cascade", True, ())
        nan_anchors = lambda method, cert, target, intervals: ([verdict], {5.25: math.nan, 5.75: math.nan})
        monkeypatch.setattr("majorant.pipeline.check_signs", nan_anchors)
        result = run_hand_built_stage(monkeypatch, cert, "cascade", "positive", (5.25, 5.75))
        assert result.status == "failed" and math.isnan(result.margin)
        assert result.warnings == ("anchor value nan does not clear the allowance",)

    def test_overflowing_envelope_is_inconclusive(self):
        """A log power so high that envelope maxima overflow gives an infinite bound and a failed stage, not a crash.

        The stage table reaches no such order; the stage runners are called
        directly: order 400 at t = 5, and a certificate of base order 400.
        """
        value = gap_derivative(400, 5.0, 640, "refined")
        assert math.isfinite(value.estimate) and value.error_bound == math.inf
        result = _run_derivative_stage(D1, value)
        assert result.status == "failed" and result.margin == -math.inf
        result = _run_certificate_stage(D4, dict(DEFAULT_CONFIG["stages"][D4], base_order=400))
        assert result.status == "failed"
        assert "tail bound inf exceed" in result.warnings[-1]

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
        assert digest == "0a860d7b9c27cea8fed9f18f03846516423973fb07e8c71ba2af62e8814ee333"

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

    @pytest.mark.parametrize("name", ["default", *HAND_BUILT_REPORTS])
    def test_json_is_the_asdict_rendering(self, request, name):
        """The written layout has the bytes of json.dumps(indent=2) over a recursive rendering, empty lists and odd leaves included."""
        report = request.getfixturevalue("default_report") if name == "default" else HAND_BUILT_REPORTS[name]
        assert emit_report(report) == json.dumps(asdict_rendering(report), indent=2) + "\n"

    @pytest.mark.parametrize(
        "report,match",
        [
            (hand_report(StageResult("s", "certified", [1.0], 0.5, 0.5)), "list"),
            (hand_report(StageResult("s", "certified", 1.0, {"a": 1.0}, 0.5)), "dict"),
            (hand_report(StageResult("s", "certified", 1.0, 0.5, (0.5,))), "tuple"),
            (hand_report(StageResult("s", "failed", 1.0, 0.5, 0.5, (["note"],))), "list"),
            (hand_report(StageResult("s", "failed", 1.0, 0.5, 0.5, "a note, not a tuple of notes")), "str"),
            (hand_report(top=("1", CASE_ID, "PROVED", "binary64", [], "0" * 64)), "list"),
        ],
        ids=["list estimate", "dict error_bound", "tuple margin", "list warning", "str warnings", "list timestamp"],
    )
    def test_json_refuses_a_leaf_that_is_not_a_scalar(self, report, match):
        """json would write a container leaf in its own layout; the writer refuses it rather than write other bytes."""
        json.dumps(asdict_rendering(report), indent=2)  # the reference renders every one of them
        with pytest.raises(TypeError, match=match):
            emit_report(report)

    def test_inconclusive_json_is_the_asdict_rendering(self, tight_allowance):
        """A failed certificate stage has None fields and warnings; they render as the recursive rendering does, with pinned bytes.

        The patched table still reports CONFIG_SHA256, the shipped table's hash.
        """
        report = prove_k5()
        assert report.verdict == "INCONCLUSIVE"
        by_name = {s.name: s for s in report.stages}
        assert by_name[D4].estimate is None and by_name[D4].margin is None and by_name[D4].warnings == (TIGHT_ALLOWANCE_REASON,)
        assert by_name["endpoint_gap_zero"].margin is None and by_name["gap_d1_at_5"].warnings == ()
        assert emit_report(report) == json.dumps(asdict_rendering(report), indent=2) + "\n"
        if platform.libc_ver()[0] == "glibc":  # recorded on glibc 2.36, x86-64, Python 3.11.7
            digest = hashlib.sha256(emit_report(report).encode("utf-8")).hexdigest()
            assert digest == "06d2ec9b1af878ce36ee83f3ecabc04a677cb0d1e8abd89b8b9ac0cc791b433b"

    @pytest.mark.parametrize("package", ["majorant", "majorant.cli"])
    @pytest.mark.parametrize("module", ["hashlib", "json", "dataclasses", "inspect", "majorant.tables", "csv"])
    def test_import_leaves_module_unloaded(self, package, module):
        """Nothing needs hashlib, which loads OpenSSL, and only a JSON report needs json; the records are NamedTuples, so nothing loads dataclasses or inspect.

        No module of the proof imports majorant.tables: the package binds its
        names on first use, and the CLI imports it, and csv, in the table
        command alone.
        """
        code = f"import sys, {package}; print({module!r} in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_no_proof_loads_hashlib(self, tmp_path):
        """The report carries the pinned CONFIG_SHA256, so neither a proof with its JSON report nor ``majorant prove`` hashes anything.

        ``python -X importtime`` names on stderr every module the process imports.
        """
        code = "import sys, majorant; majorant.emit_report(majorant.prove_k5()); print('hashlib' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
        out = tmp_path / "report.json"
        command = [sys.executable, "-X", "importtime", "-m", "majorant", "prove", "--out", str(out)]
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}
        assert "majorant.pipeline" in imported and "hashlib" not in imported
        assert json.loads(out.read_text())["config_hash"] == CONFIG_SHA256


@pytest.mark.parametrize(
    "record,field",
    [
        (TrigSquare(), "sign"),
        (LocalMaxEntry(0.0, G_MAX, 1), "value_upper"),
        (default_max_table(TrigSquare()), "entries"),
        (IntegrandSpec(5.0, 0, SignVariant.PLUS), "t"),
        (CertifiedValue(0.0, 0.0, 1, "midpoint"), "error_bound"),
        (TaylorCertificate(5.0, 0.1, 1, 0, (0.0,), (0.0,), (0.0,), 0.0, 0.0), "coeffs"),
        (SignCertificate((5.0, 6.0), "positive", "derivative_chain", True, ()), "certified"),
        (StageResult("stage", "certified", 0.0, 0.0, 0.0), "margin"),
        (ProofReport("1", CASE_ID, "PROVED", "", None, "", ()), "verdict"),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_records_are_immutable(record, field):
    """Neither a field nor a new attribute can be set on any record."""
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


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

    def test_package_reexports_the_tables_names(self):
        """majorant.reproduce_table and majorant.second_deriv_L2 are the objects of majorant.tables; other names still fail."""
        import majorant
        import majorant.tables

        assert majorant.reproduce_table is majorant.tables.reproduce_table
        assert majorant.second_deriv_L2 is majorant.tables.second_deriv_L2
        assert "reproduce_table" in vars(majorant)  # bound on first use, so later lookups skip __getattr__
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            majorant.no_such_name


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

    def test_prove_tight_allowance_exit_one(self, tight_allowance, capsys):
        assert majorant.cli.main(["prove"]) == 1
        out, err = capsys.readouterr()
        assert '"verdict": "INCONCLUSIVE"' in out and err == ""

    def test_prove_takes_no_config(self, tmp_path, capsys):
        """The proof has one stage table: --config is an unknown argument (exit 2), never a silent run of the defaults."""
        cfg = tmp_path / "x.json"
        cfg.write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            majorant.cli.main(["prove", "--config", str(cfg)])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--config" in err

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

    @pytest.mark.parametrize("mode", ["plain", "refined"])
    def test_derivative_infinite_power_exit_two(self, mode, capsys):
        """At t = inf the |H''''| bound would be nan; t is refused by name before any node work."""
        assert majorant.cli.main(["derivative", "--order", "1", "--t", "inf", "--steps", "10", "--mode", mode]) == 2
        assert capsys.readouterr() == ("", "error: power t = inf is too large to evaluate: the fourth-derivative bound overflows a float\n")

    def test_derivative_huge_order_exit_two(self, capsys):
        """From order ~ 1.2e77 the falling factorials of the |H''''| bound pass the float range; the order is refused as j."""
        order = str(10**400)
        for mode in ("plain", "refined"):
            assert majorant.cli.main(["derivative", "--order", order, "--t", "5.5", "--steps", "100", "--mode", mode]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: log exponent j ~ 10^400.0 is too large to evaluate"), mode
            assert err.count("\n") == 1

    def test_table_ids_are_the_tables_ids(self):
        """The CLI writes the table ids out, so that it need not import majorant.tables to list them."""
        assert majorant.cli.TABLE_IDS == TABLE_IDS

    def test_prove_leaves_the_tables_unloaded(self):
        """A proof from the command line reads no table: majorant.tables is never imported."""
        code = "import os, sys; from majorant.cli import main; print(main(['prove', '--out', os.devnull]), 'majorant.tables' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (0, "0 False\n", "")

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

    @pytest.mark.parametrize("options", [[], ["--sign", "minus", "--step", "0.001"], ["--sign", "plus", "--bump", "inf"]], ids=["bare", "step", "bump"])
    def test_no_maxima_subcommand(self, options, capsys):
        """The one maxima table of each sign is fixed, and majorant table maxima prints both: maxima is no subcommand, with any options."""
        with pytest.raises(SystemExit) as exit_info:
            majorant.cli.main(["maxima", *options])
        assert exit_info.value.code == 2
        assert "invalid choice: 'maxima'" in capsys.readouterr().err

    def test_optimized_interpreter_gives_same_bytes(self, tmp_path):
        """Checks live in explicit raises, not asserts, so python -O changes nothing."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        normal = run_cli("prove", "--out", str(a))
        optimized = run_cli("prove", "--out", str(b), python_flags=("-O",))
        assert normal.returncode == 0 and optimized.returncode == 0, optimized.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_internal_error_exit_three(self, monkeypatch, capsys):
        def broken():
            raise RuntimeError("stage table out of step")

        monkeypatch.setattr(majorant.cli, "prove_k5", broken)
        assert majorant.cli.main(["prove"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: stage table out of step\n"
        assert captured.out == ""

    def test_bad_subcommand_exit_two(self):
        result = run_cli("defeat")
        assert result.returncode == 2
