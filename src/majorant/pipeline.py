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
argument is fixed; a configuration tunes only its numerics.

This module owns the default stage configuration, configuration loading and
hashing, the report object, and the reproduction of the reference tables that
the numbers are expected to match.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from functools import partial

from .certify import (
    BudgetError,
    build_certificate,
    check_budgets,
    check_interval,
    check_sign,
    check_sign_variation,
    check_target,
    check_window,
    eval_cert_poly,
)
from .quadrature import MODES, CertifiedValue, gap_derivatives, q_values
from .spectral import endpoint_difference_zero, torus_power_integral
from .trigpoly import SignVariant, TrigSquare, default_max_table

REPORT_VERSION = "1"
CASE_ID = "k5-three-term"
ENVIRONMENT_NOTE = "IEEE-754 binary64; compensated sums exactly rounded per 256-node chunk; deterministic node order"

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

# A config file is outside input, so its steps stay at the default proof's one step count, far below
# MAX_STEPS, where the one cached node table (G and log G of both signs) holds ~130 MB before any log power.
_MAX_PIPELINE_STEPS = 640

# A field takes the JSON type of its default.  Stages that share a field share its type, so
# any non-empty default of it will do (two stages' notes lists are empty).
_FIELD_TYPES = {k: v for stage in DEFAULT_CONFIG["stages"].values() for k, v in stage.items() if v != []}
_JSON_TYPES = {int: "integer", float: "number", str: "string", list: "list"}
# The fields that state the argument: a configuration may only repeat their defaults.
_FIXED_FIELDS = ("order", "t", "base_order", "target", "intervals")

# ---------------------------------------------------------------------------
# Reference values the pipeline is expected to reproduce (regression anchors).
# ---------------------------------------------------------------------------

REFERENCE_A = (1, 3, 15, 93, 639, 4653, 35169)

REFERENCE_MAXIMA = {
    "plus": ((0.0, 9.0, 1), (0.151, 7.701, 2), (0.302, 4.628, 2), (0.448, 1.661, 2)),
    "minus": ((0.076, 8.662, 2), (0.227, 6.279, 2), (0.377, 3.005, 2), (0.5, 1.0, 1)),
}

REFERENCE_Q500 = {
    ("star", 1, 0): 137081.0, ("star", 1, 1): 301803.0,
    ("star", 2, 0): 703352.0, ("star", 2, 1): 1545490.0,
    ("star", 3, 0): 4277432.0, ("star", 3, 1): 9398487.0,
    ("plain", 3, 0): 48351.0, ("plain", 3, 1): 106240.0,
    ("plain", 4, 0): 334032.0, ("plain", 4, 1): 733944.0,
}

REFERENCE_Q400 = {
    ("star", 1, 0): 112282.0, ("star", 1, 1): 247274.0, ("star", 1, 2): 543316.0,
    ("star", 2, 0): 580005.0, ("star", 2, 1): 1274463.0, ("star", 2, 2): 2800281.0,
    ("star", 3, 0): 3550835.0, ("star", 3, 1): 7801987.0, ("star", 3, 2): 17142718.0,
    ("plain", 3, 0): 39051.0, ("plain", 3, 1): 85804.0, ("plain", 3, 2): 188530.0,
    ("plain", 4, 1): 593541.0, ("plain", 4, 2): 1304143.0,
}

REFERENCE_COEFFS = {
    "T1": (0.381737508, -2.087768122, -23.85760346, -140.6261273,
           -641.9545799, -2521.387336, -8940.14559),
    "T2": (0.016265345, 0.084372338, 0.223408446, -0.41545758, -8.507038066,
           -57.99608037, -288.5739971, -1204.823065, -4474.521416),
    "T4": (0.045016622, 0.070827581, -0.6357179, -7.162905157, -45.0748687,
           -220.5767067, -922.6394344, -3454.236354, -11901.56441, -38448.6079),
    "T6": (-0.982761617, -7.57978318, -42.74047825, -200.2495965, -823.1734963,
           -3064.925687, -10561.40925, -34212.60072, -105414.5993),
}

# (interval, quantity, order, location or None) -> reference value
REFERENCE_CASCADE = {
    ((5.13, 5.33), "shifted_value", 0, 5.13): 0.004183405,
    ((5.13, 5.33), "shifted_value", 0, 5.33): 0.020909673,
    ((5.13, 5.33), "variation_lower", 0, None): 0.02509308,
    ((5.13, 5.33), "mean_lower", 1, None): 0.12546539,
    ((5.13, 5.33), "derivative", 1, 5.13): 0.061152858,
    ((5.13, 5.33), "derivative", 1, 5.33): 0.102950595,
    ((5.13, 5.33), "variation_lower", 1, None): 0.08682733,
    ((5.13, 5.33), "mean_lower", 2, None): 0.43413663,
    ((5.13, 5.33), "derivative", 2, 5.13): 0.230976823,
    ((5.13, 5.33), "derivative", 2, 5.33): 0.128352476,
    ((5.13, 5.33), "variation_lower", 2, None): 0.50894396,
    ((5.13, 5.33), "mean_lower", 3, None): 2.54471981,
    ((5.13, 5.33), "derivative", 3, 5.13): 0.188714272,
    ((5.13, 5.33), "derivative", 3, 5.33): -1.609630427,
    ((5.13, 5.33), "variation_lower", 3, None): 3.66852346,
    ((5.13, 5.33), "mean_lower", 4, None): 18.3426173,
    ((5.33, 5.56), "shifted_value", 0, 5.33): 0.013254173,
    ((5.33, 5.56), "shifted_value", 0, 5.56): 0.034596608,
    ((5.33, 5.56), "variation_lower", 0, None): 0.04785078,
    ((5.33, 5.56), "mean_lower", 1, None): 0.20804689,
    ((5.33, 5.56), "derivative", 1, 5.56): 0.043853873,
    ((5.33, 5.56), "variation_lower", 1, None): 0.26928943,
    ((5.33, 5.56), "mean_lower", 2, None): 1.170823618,
    ((5.33, 5.56), "derivative", 2, 5.56): -0.915663374,
    ((5.56, 5.72), "shifted_value", 0, 5.56): 0.034596608,
    ((5.56, 5.72), "shifted_value", 0, 5.72): 0.022121605,
    ((5.56, 5.72), "variation_lower", 0, None): 0.05671821,
    ((5.56, 5.72), "mean_lower", 1, None): 0.35448883,
    ((5.56, 5.72), "derivative", 1, 5.56): 0.043853873,
    ((5.56, 5.72), "derivative", 1, 5.72): -0.260773968,
}


@dataclass(frozen=True)
class StageResult:
    name: str
    status: str  # "certified" or "failed"
    estimate: float | None
    error_bound: float | None
    margin: float | None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProofReport:
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


def merge_config(overrides: dict | None) -> dict:
    """Deep-merge user overrides onto the default configuration; only None means no overrides."""
    stages = {name: dict(stage) for name, stage in DEFAULT_CONFIG["stages"].items()}
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


def _validate_stage(stage: dict, default: dict) -> None:
    unknown, missing = set(stage) - set(default), set(default) - set(stage)
    if unknown or missing:
        raise ValueError(f"unknown fields {sorted(unknown)}, missing fields {sorted(missing)}")
    for key, value in stage.items():
        if not _has_json_type(value, _FIELD_TYPES[key]):
            kind = _JSON_TYPES[type(_FIELD_TYPES[key])]
            raise ValueError(f"{key} must be a JSON {kind} like its default, got {json.dumps(value)}")
        if key in _FIXED_FIELDS and json.dumps(value) != json.dumps(default[key]):  # 5 for 5.0 would change config_hash
            raise ValueError(f"{key} is fixed by the argument at {json.dumps(default[key])}, got {json.dumps(value)}")
    if "steps" in stage and not 1 <= stage["steps"] <= _MAX_PIPELINE_STEPS:
        raise ValueError(f"steps must be in 1..{_MAX_PIPELINE_STEPS}, got {stage['steps']}")
    if "mode" in stage and stage["mode"] not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {stage['mode']!r}")
    if "center" not in stage:
        return
    center, radius = stage["center"], stage["radius"]
    check_window(center, radius, stage["base_order"], stage["degree"])
    for interval in stage["intervals"]:
        check_interval(center, radius, *interval)
    check_target(stage["method"], stage["target"])
    check_budgets(stage["budgets"], stage["degree"])
    if stage["total_delta"] <= 0:
        raise ValueError("total_delta must be positive")


def validate_config(cfg: dict) -> None:
    """Reject bad input before any stage runs; window, interval and budget rules are the library's."""
    if cfg["case"] != CASE_ID:
        raise ValueError(f"case must be {CASE_ID!r}, got {cfg['case']!r}")
    if list(cfg["stages"]) != list(DEFAULT_CONFIG["stages"]):
        raise ValueError(f"stages must be {list(DEFAULT_CONFIG['stages'])}, in that order")
    for name, stage in cfg["stages"].items():
        try:
            _validate_stage(stage, DEFAULT_CONFIG["stages"][name])
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
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Stage execution
# ---------------------------------------------------------------------------


def _run_endpoint_stage(name: str) -> StageResult:
    ok = endpoint_difference_zero()
    return StageResult(name, "certified" if ok else "failed", 0.0, 0.0, None)


def _derivative_values(stages: dict) -> dict[str, CertifiedValue]:
    """The certified value of every derivative stage, one gap_derivatives call per (t, steps)."""
    groups = {}
    for name, stage in stages.items():
        if "order" in stage:
            groups.setdefault((stage["t"], stage["steps"]), {})[name] = (stage["order"], stage["mode"])
    values = {}
    for (t, steps), jobs in groups.items():
        values.update(zip(jobs, gap_derivatives(t, steps, list(jobs.values()))))
    return values


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
        return json.dumps(asdict(report), indent=2) + "\n"
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


# ---------------------------------------------------------------------------
# Reference-table reproduction
# ---------------------------------------------------------------------------


def _maxima_rows():
    rows = []
    for label, sign in (("plus", SignVariant.PLUS), ("minus", SignVariant.MINUS)):
        table = default_max_table(TrigSquare(5, sign))
        refs = REFERENCE_MAXIMA[label]
        for entry, ref in zip(table.entries, refs):
            rows.append([
                label,
                f"{entry.location:.3f}",
                entry.multiplicity,
                entry.value_upper,
                ref[1],
                abs(entry.value_upper - ref[1]),
            ])
    return ["sign", "location", "multiplicity", "value_upper", "reference", "abs_diff"], rows


def _a_rho_rows():
    rows = []
    for rho, ref in enumerate(REFERENCE_A):
        ours = torus_power_integral(rho)
        rows.append([rho, ours, ref, abs(ours - ref)])
    return ["rho", "integral", "reference", "abs_diff"], rows


def _q_rows(n_steps: int, reference: dict):
    """Both signs' node-sum bound of every reference key ("star": with |G'|), from one q pass."""
    keys = [(kind == "star", float(t), j) for kind, t, j in reference]
    squares = [TrigSquare(5, sign) for sign in (SignVariant.PLUS, SignVariant.MINUS)]
    plus, minus = q_values(keys, [(trig, default_max_table(trig)) for trig in squares], n_steps)
    rows = []
    for ((kind, t, j), ref), key in zip(reference.items(), keys):
        rows.append([kind, t, j, plus[key], minus[key], ref, ref - max(plus[key], minus[key])])
    return ["kind", "t", "j", "bound_plus", "bound_minus", "reference", "reference_slack"], rows


def _coeff_rows(table_id: str, stage_name: str):
    cert = _stage_certificate(DEFAULT_CONFIG["stages"][stage_name])
    refs = REFERENCE_COEFFS[table_id]
    rows = []
    for j, (coeff, ref) in enumerate(zip(cert.coeffs, refs)):
        rows.append([
            j, cert.base_order + j, coeff, ref, abs(coeff - ref), cert.termwise_budget[j],
        ])
    return ["j", "derivative_order", "coefficient", "reference", "abs_diff", "budget"], rows


def _cascade_rows(stage_name: str):
    stage = DEFAULT_CONFIG["stages"][stage_name]
    cert = _stage_certificate(stage)
    rows = []
    for interval in stage["intervals"]:
        verdict = check_sign_variation(cert, "positive", interval)
        key_iv = (interval[0], interval[1])
        for row in verdict.evidence:
            loc = row.get("location")
            ref = REFERENCE_CASCADE.get((key_iv, row["quantity"], row["order"], loc))
            rows.append([
                f"{interval[0]:.2f}..{interval[1]:.2f}",
                row["quantity"],
                row["order"],
                "" if loc is None else loc,
                row["value"],
                "" if ref is None else ref,
                "" if ref is None else abs(row["value"] - ref),
            ])
    return ["interval", "quantity", "order", "location", "value", "reference", "abs_diff"], rows


_TABLES = {
    "maxima": _maxima_rows,
    "A_rho": _a_rho_rows,
    "Q500": partial(_q_rows, 500, REFERENCE_Q500),
    "Q400": partial(_q_rows, 400, REFERENCE_Q400),
    "T1": partial(_coeff_rows, "T1", "gap_d4_on_5.000_5.130"),
    "T2": partial(_coeff_rows, "T2", "gap_d1_on_5.130_5.330"),
    "T3": partial(_cascade_rows, "gap_d1_on_5.130_5.330"),
    "T4": partial(_coeff_rows, "T4", "gap_d1_on_5.330_5.720"),
    "T5": partial(_cascade_rows, "gap_d1_on_5.330_5.720"),
    "T6": partial(_coeff_rows, "T6", "gap_d2_on_5.720_6.000"),
}
TABLE_IDS = tuple(_TABLES)


def reproduce_table(table_id: str):
    """Recompute one reference table; returns (header, rows).

    Every table carries a companion column with the reference values and the
    absolute differences, where a reference exists.
    """
    if table_id not in _TABLES:
        raise ValueError(f"unknown table {table_id!r}; expected one of {', '.join(TABLE_IDS)}")
    return _TABLES[table_id]()
