"""End-to-end proof pipeline for the k = 5 norm comparison.

The claim: among the two squares ``|1 + e(x) + s*e(7x)|^2`` the minus variant
has the larger L^p norm for every p strictly between 10 and 12.  Writing the
gap as the difference of the two variants' mean t-th powers (t = p/2), the
gap vanishes at t = 5 and t = 6 exactly, so positivity on (5, 6) follows from
a chain of certified facts: the first three derivatives of the gap at t = 5
are positive, and on four subintervals covering [5, 6] a certified Taylor
polynomial of a low-order derivative keeps a fixed sign.  The proof checks
that those stages' sign-check intervals leave no piece of [5, 6] out.  Each stage carries
explicit error accounting; a stage whose margin cannot be certified makes the
whole run INCONCLUSIVE rather than silently passing; its warnings say why,
and a certified stage has none.  The argument's layout is code: the endpoint
stage, the derivative orders DERIVATIVE_STAGES at t = 5, and STEPS, the node
count of every quadrature.  The stage table DEFAULT_CONFIG holds the four
certificates, each with what the proof decides with: its window, degree,
quadrature, budgets, allowances and sign check.  No setting changes it, so
its hash is a constant, CONFIG_SHA256, that a test recomputes.  README notes
where these depart from the paper's figures.

This module owns the stage table, the report object and its two formats;
majorant.tables reproduces the paper's tables.  JSON is the bytes of
json.dumps(indent=2), laid out here around the leaves that one unindented pass
of json's C encoder spells (json indents in pure Python before 3.13): with a
newline between items, and every newline inside a string escaped, that pass
splits into exactly one piece per leaf.
"""

from __future__ import annotations

from collections import namedtuple

from .certify import _PROVEN_RANGE, PIPELINE_T_MAX, PIPELINE_T_MIN, BudgetError, build_certificate, check_signs
from .quadrature import CertifiedValue, gap_derivatives
from .spectral import endpoint_difference_zero

REPORT_VERSION = "1"
CASE_ID = "k5-three-term"
COVERAGE_STAGE = "interval_coverage"  # the failed result a gap in the tiling of [5, 6] adds
ENVIRONMENT_NOTE = "IEEE-754 binary64; every node sum exactly rounded; deterministic node order"
STEPS = 640  # midpoint nodes per half period in every quadrature the proof takes
DERIVATIVE_STAGES = {"gap_d1_at_5": 1, "gap_d2_at_5": 2, "gap_d3_at_5": 3}  # report name: order of the gap derivative at PIPELINE_T_MIN

DEFAULT_CONFIG = {
    "stages": {
        "gap_d4_on_5.000_5.130": {
            "center": 5.065,
            "radius": 0.065,
            "base_order": 4,
            "degree": 6,
            "budgets": [0.15, 0.03, 0.005, 0.0005, 0.0002, 0.0002, 0.0002],
            "steps": STEPS,
            "mode": "refined",
            "total_delta": 0.187,
            "target": "positive",
            "method": "chain",
            "intervals": [[5.0, 5.13]],
        },
        "gap_d1_on_5.130_5.330": {
            "center": 5.23,
            "radius": 0.1,
            "base_order": 1,
            "degree": 8,
            "budgets": [
                0.003606534, 0.001019244, 0.000142293, 1.30964e-05, 8.94756e-07,
                4.84427e-08, 2.16681e-09, 8.24499e-11, 2.7301e-12,
            ],
            "steps": STEPS,
            "mode": "refined",
            "total_delta": 0.0048,
            "target": "positive",
            "method": "cascade",
            "intervals": [[5.13, 5.33]],
        },
        "gap_d1_on_5.330_5.720": {
            "center": 5.525,
            "radius": 0.195,
            "base_order": 1,
            "degree": 9,
            "budgets": [
                0.007186277, 0.003921976, 0.00105811, 0.000188317, 2.48926e-05,
                2.60863e-06, 2.2591e-07, 1.66398e-08, 1.06486e-09, 6.01989e-11,
            ],
            "steps": STEPS,
            "mode": "refined",
            "total_delta": 0.0124555,
            "target": "positive",
            "method": "cascade",
            "intervals": [[5.33, 5.56], [5.56, 5.72]],
        },
        "gap_d2_on_5.720_6.000": {
            "center": 5.86,
            "radius": 0.14,
            "base_order": 2,
            "degree": 8,
            "budgets": [0.16, 0.062, 0.015, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002],
            "steps": STEPS,
            "mode": "refined",
            "total_delta": 0.2494,
            "target": "negative",
            "method": "chain",
            "intervals": [[5.72, 6.0]],
        },
    },
}

# sha256 of DEFAULT_CONFIG's canonical JSON (sorted keys, no spaces), as shipped; the report carries it
CONFIG_SHA256 = "c019307b2bdff08d3aea3e089862e6d93e1240e7bb2c70226211a52120ade7a5"


class StageResult(namedtuple("StageResult", "name status estimate error_bound margin warnings", defaults=((),))):
    """One stage's outcome: ``status`` is "certified" or "failed", and ``estimate``, ``error_bound`` and ``margin`` are floats or None."""

    __slots__ = ()


class ProofReport(namedtuple("ProofReport", "version case verdict environment timestamp config_hash stages")):
    """The proof's outcome: ``verdict`` is "PROVED" or "INCONCLUSIVE", and ``stages`` is a tuple of StageResult.

    ``timestamp`` is always None, so that reports are bit-reproducible.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Stage execution
# ---------------------------------------------------------------------------


def _run_endpoint_stage() -> StageResult:
    if endpoint_difference_zero():
        return StageResult("endpoint_gap_zero", "certified", 0.0, 0.0, None)
    return StageResult("endpoint_gap_zero", "failed", None, None, None, ("the 5th or 6th power integrals of the two signs differ",))


def _run_derivative_stage(name: str, value: CertifiedValue) -> StageResult:
    margin = value.estimate - value.error_bound
    status = "certified" if margin > 0.0 else "failed"
    warnings = () if status == "certified" else (
        f"positivity margin {margin:.6g} is not positive at {value.steps} steps",
    )
    return StageResult(name, status, value.estimate, value.error_bound, margin, warnings)


def _stage_certificate(stage: dict):
    return build_certificate(
        stage["center"], stage["radius"], stage["base_order"], stage["degree"],
        stage["budgets"], stage["steps"], stage["mode"], stage["total_delta"],
    )


def _run_certificate_stage(name: str, stage: dict) -> StageResult:
    try:
        cert = _stage_certificate(stage)
    except BudgetError as exc:
        return StageResult(name, "failed", None, None, None, (str(exc),))
    target = stage["target"]
    verdicts, anchors = check_signs(stage["method"], cert, target, stage["intervals"])  # anchors: P at every interval end
    estimate = (min if target == "positive" else max)(anchors.values())
    margin = (estimate if target == "positive" else -estimate) - cert.total_delta
    reasons = tuple(f"interval {v.interval}: {v.failure_reason}" for v in verdicts if not v.certified)
    if not reasons and not margin > 0.0:  # a nan anchor fails this too
        reasons = (f"anchor value {estimate:.6g} does not clear the allowance",)
    return StageResult(name, "failed" if reasons else "certified", estimate, cert.total_delta, margin, reasons)


def _coverage_gaps(stages: dict) -> list[tuple[float, float]]:
    """The pieces of [PIPELINE_T_MIN, PIPELINE_T_MAX] that no certificate stage's sign-check interval covers."""
    reach, gaps = PIPELINE_T_MIN, []
    intervals = sorted((a, b) for stage in stages.values() for a, b in stage["intervals"])
    for a, b in intervals:
        if a > reach:
            gaps.append((reach, a))
        reach = max(reach, b)
    if reach < PIPELINE_T_MAX:
        gaps.append((reach, PIPELINE_T_MAX))
    return gaps


def prove_k5() -> ProofReport:
    """Run the argument and assemble the verdict.

    The stages run in report order: the endpoint stage, the derivative stages
    of DERIVATIVE_STAGES from one batch at PIPELINE_T_MIN and STEPS nodes, and
    one certificate stage per entry of DEFAULT_CONFIG.  The stage table is read
    as it stands at the call; the report carries CONFIG_SHA256, the shipped
    table's hash, even if the table was patched.
    Stage failures are recorded, never raised: an unprovable margin yields
    verdict INCONCLUSIVE.  So does a piece of [5, 6] that no sign-check
    interval covers: a failed COVERAGE_STAGE result, after the stages, names it.
    """
    stages = DEFAULT_CONFIG["stages"]
    values = gap_derivatives(PIPELINE_T_MIN, STEPS, [*DERIVATIVE_STAGES.values()], "refined")
    results = [_run_endpoint_stage(), *map(_run_derivative_stage, DERIVATIVE_STAGES, values)]
    results += (_run_certificate_stage(name, stage) for name, stage in stages.items())
    gaps = _coverage_gaps(stages)
    if gaps:
        warnings = tuple(f"no certificate interval covers [{a!r}, {b!r}] of {_PROVEN_RANGE}" for a, b in gaps)
        results.append(StageResult(COVERAGE_STAGE, "failed", None, None, None, warnings))
    verdict = "PROVED" if all(r.status == "certified" for r in results) else "INCONCLUSIVE"
    return ProofReport(REPORT_VERSION, CASE_ID, verdict, ENVIRONMENT_NOTE, None, CONFIG_SHA256, tuple(results))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


# json.dumps(indent=2)'s layout, a %s for each leaf: the fields of a report and of a stage, and a list at its depth
_REPORT_HEAD = "{\n" + "".join(f'  "{name}": %s,\n' for name in ProofReport._fields[:-1]) + '  "stages": '
_STAGE_HEAD = "{\n" + "".join(f'      "{name}": %s,\n' for name in StageResult._fields[:-1]) + '      "warnings": '


def _json_list(items: list[str], depth: int) -> str:
    pad = "\n" + "  " * depth
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]" if items else "[]"


def emit_report(report: ProofReport, fmt: str = "json") -> str:
    """Serialize a report deterministically (identical runs, identical bytes)."""
    if fmt == "json":  # a leaf that is not a str, int, float, bool or None, or warnings not a tuple, raise TypeError
        import json  # here, not at the top: only a JSON report encodes, so the other commands skip json
        leaves = [*report[:-1], *(leaf for s in report.stages for leaf in s[:-1] + s.warnings)]
        if odd := {*map(type, leaves)} - {str, int, float, bool, type(None)}:
            raise TypeError(f"a report leaf must be a str, int, float, bool or None, not {sorted(t.__name__ for t in odd)}")
        stages = [_STAGE_HEAD + _json_list(["%s"] * len(s.warnings), 3) + "\n    }" for s in report.stages]
        pieces = json.dumps(leaves, separators=("\n", ":"))[1:-1].split("\n")
        return (_REPORT_HEAD + _json_list(stages, 1) + "\n}\n") % tuple(pieces)
    if fmt != "text":
        raise ValueError(f"format must be 'json' or 'text', got {fmt!r}")
    lines = [
        f"norm comparison proof report (version {report.version})",
        f"case: {report.case}",
        f"verdict: {report.verdict}",
        f"config: sha256:{report.config_hash}",
        f"environment: {report.environment}",
        "",
    ]
    for s in report.stages:
        lines.append(f"[{s.status:>9}] {s.name}")
        if s.estimate is not None:
            lines.append(f"            estimate    {s.estimate!r}")
        if s.error_bound is not None:
            lines.append(f"            error bound {s.error_bound!r}")
        if s.margin is not None:
            lines.append(f"            margin      {s.margin!r}")
        for w in s.warnings:
            lines.append(f"            note: {w}")
    lines.append("")
    return "\n".join(lines)

