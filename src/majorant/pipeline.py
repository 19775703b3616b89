"""End-to-end proof pipeline for the k = 5 norm comparison.

The claim: among the two squares ``|1 + e(x) + s*e(7x)|^2`` the minus variant
has the larger L^p norm for every p strictly between 10 and 12.  Writing the
gap as the difference of the two variants' mean t-th powers (t = p/2), the
gap vanishes at t = 5 and t = 6 exactly, so positivity on (5, 6) follows from
a chain of certified facts: the first three derivatives of the gap at t = 5
are positive, and on four subintervals covering [5, 6] a certified Taylor
polynomial of a low-order derivative keeps a fixed sign.  Each stage carries
explicit error accounting; a stage whose margin cannot be certified makes the
whole run INCONCLUSIVE rather than silently passing.  The layout of the
argument and its quadrature (640 steps, each stage's error mode and sign check)
are fixed; a configuration tunes only six numbers of each certificate stage:
its center, radius, degree, budgets, total_delta and tail_budget.

This module owns the default stage configuration, configuration loading and
hashing, and the report object; majorant.tables reproduces the paper's tables.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from .certify import (
    BudgetError,
    build_certificate,
    check_budgets,
    check_interval,
    check_sign,
    check_window,
    eval_cert_poly,
)
from .quadrature import CertifiedValue, gap_derivatives
from .spectral import endpoint_difference_zero

REPORT_VERSION = "1"
CASE_ID = "k5-three-term"
ENVIRONMENT_NOTE = "IEEE-754 binary64; every node sum exactly rounded; deterministic node order"

_NOTE_REFINED_REQUIRED = (
    "plain-mode coefficient errors exceed the leading budget at this center "
    "(about 0.48 and 0.56 against budgets 0.15 and 0.16); refined mode is used instead"
)
_NOTE_STEP_TABLE = (
    "reference step counts for this stage disagree with the fourth-root step rule "
    "(rule gives 670 where the reference lists 474); 640 steps with refined error "
    "bounds satisfy the budgets directly"
)
_NOTE_TAIL_FIGURES = (
    "reference tail figures for this stage conflict (0.011209281 vs 0.00035); the "
    "recomputed tail bound 0.000349 supports the smaller figure"
)

DEFAULT_CONFIG = {
    "case": CASE_ID,
    "stages": {
        "endpoint_gap_zero": {},
        "gap_d1_at_5": {"order": 1, "t": 5.0, "steps": 640, "mode": "refined"},
        "gap_d2_at_5": {"order": 2, "t": 5.0, "steps": 640, "mode": "refined"},
        "gap_d3_at_5": {"order": 3, "t": 5.0, "steps": 640, "mode": "plain"},
        "gap_d4_on_5.000_5.130": {
            "center": 5.065,
            "radius": 0.065,
            "base_order": 4,
            "degree": 6,
            "budgets": [0.15, 0.03, 0.005, 0.0005, 0.0002, 0.0002, 0.0002],
            "steps": 640,
            "mode": "refined",
            "total_delta": 0.187,
            "tail_budget": 0.0009,
            "target": "positive",
            "method": "chain",
            "intervals": [[5.0, 5.13]],
            "notes": [_NOTE_REFINED_REQUIRED, _NOTE_STEP_TABLE],
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
            "steps": 640,
            "mode": "refined",
            "total_delta": 0.0048,
            "tail_budget": 2e-06,
            "target": "positive",
            "method": "cascade",
            "intervals": [[5.13, 5.33]],
            "notes": [],
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
            "steps": 640,
            "mode": "refined",
            "total_delta": 0.0124555,
            "tail_budget": 7.3e-05,
            "target": "positive",
            "method": "cascade",
            "intervals": [[5.33, 5.56], [5.56, 5.72]],
            "notes": [],
        },
        "gap_d2_on_5.720_6.000": {
            "center": 5.86,
            "radius": 0.14,
            "base_order": 2,
            "degree": 8,
            "budgets": [0.16, 0.062, 0.015, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002],
            "steps": 640,
            "mode": "refined",
            "total_delta": 0.2494,
            "tail_budget": 0.00035,
            "target": "negative",
            "method": "chain",
            "intervals": [[5.72, 6.0]],
            "notes": [_NOTE_REFINED_REQUIRED, _NOTE_TAIL_FIGURES],
        },
    },
}

# The numbers of a certificate that a configuration may tune.  Every other field may only repeat,
# by stage, its default's JSON at import: the argument's layout, its quadrature, and notes (printed raw).
_TUNABLE = ("center", "radius", "degree", "budgets", "total_delta", "tail_budget")
_FIXED_JSON = {
    name: {k: json.dumps(v) for k, v in stage.items() if k not in _TUNABLE} for name, stage in DEFAULT_CONFIG["stages"].items()
}
# A tunable field takes the JSON type of its default, which every certificate stage shares.
_FIELD_TYPES = {k: v for stage in DEFAULT_CONFIG["stages"].values() for k, v in stage.items()}
_JSON_TYPES = {int: "integer", float: "number", str: "string", list: "list"}

class StageResult(NamedTuple):
    name: str
    status: str  # "certified" or "failed"
    estimate: float | None
    error_bound: float | None
    margin: float | None
    warnings: tuple[str, ...] = ()


class ProofReport(NamedTuple):
    version: str
    case: str
    verdict: str  # "PROVED" or "INCONCLUSIVE"
    environment: str
    timestamp: None  # deliberately constant: reports must be bit-reproducible
    config_hash: str
    stages: tuple[StageResult, ...]


# ---------------------------------------------------------------------------
# Configuration handling
# ---------------------------------------------------------------------------


def _copy_lists(value):
    """value with each list in it copied, at every depth; numbers and strings are immutable and stay shared."""
    return [_copy_lists(v) for v in value] if isinstance(value, list) else value


def merge_config(overrides: dict | None) -> dict:
    """Deep-merge user overrides onto a copy of the default configuration, lists and all; only None means no overrides."""
    stages = {name: {k: _copy_lists(v) for k, v in stage.items()} for name, stage in DEFAULT_CONFIG["stages"].items()}
    cfg = {"case": DEFAULT_CONFIG["case"], "stages": stages}
    if overrides is None:
        return cfg
    if not isinstance(overrides, dict):
        raise ValueError("configuration must be a JSON object")
    for key, value in overrides.items():
        if key == "case":
            cfg["case"] = value
        elif key == "stages":
            if not isinstance(value, dict):
                raise ValueError("'stages' must map stage names to objects")
            for name, fields in value.items():
                if name not in cfg["stages"]:
                    raise ValueError(f"unknown stage {name!r}")
                if not isinstance(fields, dict):
                    raise ValueError(f"stage {name!r} override must be an object")
                cfg["stages"][name].update(fields)
        else:
            raise ValueError(f"unknown configuration key {key!r}")
    return cfg


def _has_json_type(value, prototype) -> bool:
    """Whether value has the JSON type of prototype; list elements match its first element."""
    if isinstance(prototype, list):
        return isinstance(value, list) and all(_has_json_type(v, prototype[0]) for v in value)
    if isinstance(value, bool):  # true/false is neither a count nor a number
        return False
    if isinstance(prototype, float):  # finite: no NaN, no infinity, no int too large for a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(prototype))


def _validate_stage(name: str, stage: dict) -> None:
    default, fixed = DEFAULT_CONFIG["stages"][name], _FIXED_JSON[name]
    unknown, missing = set(stage) - set(default), set(default) - set(stage)
    if unknown or missing:
        raise ValueError(f"unknown fields {sorted(unknown)}, missing fields {sorted(missing)}")
    for key, value in stage.items():
        if key in fixed:
            if json.dumps(value) != fixed[key]:  # 5 for 5.0 would change config_hash
                raise ValueError(f"{key} is fixed at {fixed[key]}, got {json.dumps(value)}")
        elif not _has_json_type(value, _FIELD_TYPES[key]):
            kind = _JSON_TYPES[type(_FIELD_TYPES[key])]
            raise ValueError(f"{key} must be a JSON {kind} like its default, got {json.dumps(value)}")
    if "center" not in stage:
        return
    center, radius = stage["center"], stage["radius"]
    check_window(center, radius, stage["base_order"], stage["degree"])
    for interval in stage["intervals"]:
        check_interval(center, radius, *interval)
    check_budgets(stage["budgets"], stage["degree"])
    for key in ("total_delta", "tail_budget"):
        if stage[key] <= 0:
            raise ValueError(f"{key} must be positive, got {json.dumps(stage[key])}")


def validate_config(cfg: dict) -> None:
    """Reject bad input before any stage runs; window, interval and budget rules are the library's."""
    if cfg["case"] != CASE_ID:
        raise ValueError(f"case must be {CASE_ID!r}, got {cfg['case']!r}")
    if list(cfg["stages"]) != list(DEFAULT_CONFIG["stages"]):
        raise ValueError(f"stages must be {list(DEFAULT_CONFIG['stages'])}, in that order")
    for name, stage in cfg["stages"].items():
        try:
            _validate_stage(name, stage)
        except ValueError as exc:
            raise ValueError(f"stage {name!r}: {exc}") from None


def load_config(path: str) -> dict:
    """Read a JSON configuration file and merge it onto the defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"configuration file {path} is not valid JSON: {exc}") from None
    if overrides is None:  # merge_config reads None as "no overrides"; a file holding null is no object
        raise ValueError("configuration must be a JSON object")
    cfg = merge_config(overrides)
    validate_config(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    import hashlib  # here, not at the top: only a proof hashes, and the import loads OpenSSL
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Stage execution
# ---------------------------------------------------------------------------


def _run_endpoint_stage(name: str) -> StageResult:
    ok = endpoint_difference_zero()
    return StageResult(name, "certified" if ok else "failed", 0.0, 0.0, None)


def _derivative_values(stages: dict) -> dict[str, CertifiedValue]:
    """The certified value of every derivative stage, from one gap_derivatives call at their fixed t and steps."""
    jobs = {name: (stage["order"], stage["mode"]) for name, stage in stages.items() if "order" in stage}
    return dict(zip(jobs, gap_derivatives(5.0, 640, list(jobs.values()))))


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
    notes = tuple(stage["notes"])
    try:
        cert = _stage_certificate(stage)
    except BudgetError as exc:
        return StageResult(name, "failed", None, None, None, notes + (str(exc),))
    if cert.remainder > stage["tail_budget"]:
        notes += (
            f"computed tail bound {cert.remainder:.6g} exceeds the declared tail budget "
            f"{stage['tail_budget']:g} (still within total_delta)",
        )
    target = stage["target"]
    verdicts = [check_sign(stage["method"], cert, target, interval) for interval in stage["intervals"]]
    anchors = [eval_cert_poly(cert, 0, end) for interval in stage["intervals"] for end in interval]
    if target == "positive":
        estimate = min(anchors)
        margin = estimate - cert.total_delta
    else:
        estimate = max(anchors)
        margin = -estimate - cert.total_delta
    failed = [v for v in verdicts if not v.certified]
    if failed:
        reasons = tuple(f"interval {v.interval}: {v.failure_reason}" for v in failed)
        return StageResult(name, "failed", estimate, cert.total_delta, margin, notes + reasons)
    if margin <= 0.0:
        return StageResult(
            name, "failed", estimate, cert.total_delta, margin,
            notes + (f"anchor value {estimate:.6g} does not clear the allowance",),
        )
    return StageResult(name, "certified", estimate, cert.total_delta, margin, notes)


def prove_k5(config: dict | None = None) -> ProofReport:
    """Run every stage and assemble the verdict.

    ``config`` is an already-merged configuration (see load_config /
    merge_config); None runs the defaults.  Stage failures are recorded, never
    raised: an unprovable margin yields verdict INCONCLUSIVE.
    """
    cfg = config if config is not None else merge_config(None)
    validate_config(cfg)
    digest = config_hash(cfg)
    derivatives = _derivative_values(cfg["stages"])
    results = []
    for name, stage in cfg["stages"].items():
        if name == "endpoint_gap_zero":
            results.append(_run_endpoint_stage(name))
        elif "center" in stage:
            results.append(_run_certificate_stage(name, stage))
        else:
            results.append(_run_derivative_stage(name, derivatives[name]))
    verdict = "PROVED" if all(r.status == "certified" for r in results) else "INCONCLUSIVE"
    return ProofReport(
        REPORT_VERSION, cfg["case"], verdict, ENVIRONMENT_NOTE, None, digest, tuple(results)
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def emit_report(report: ProofReport, fmt: str = "json") -> str:
    """Serialize a report deterministically (identical runs, identical bytes)."""
    if fmt == "json":
        return json.dumps(dict(report._asdict(), stages=[s._asdict() for s in report.stages]), indent=2) + "\n"  # _asdict keeps the field order, and with it the bytes
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

