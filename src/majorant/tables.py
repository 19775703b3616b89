"""The paper's reference tables, recomputed beside its numbers: no step of the proof imports them.

The maxima of G, the moments A_rho, the node-sum bounds Q500 and Q400 (the q
pass), the Taylor coefficients T1, T2, T4 and T6 and the cascade rows T3 and T5,
each with the paper's value and the absolute difference where one exists.
"""

from __future__ import annotations

import math
from functools import partial
from math import pi

from .certify import check_sign_variation
from .integrand import WORK_M
from .pipeline import DEFAULT_CONFIG, _stage_certificate
from .quadrature import _cells, _check_steps
from .spectral import torus_integral_upper, torus_power_integral
from .trigpoly import G_MAX, MONOTONE_PIECES, LocalMaxTable, SignVariant, TrigSquare, default_max_table, variation_bound_power


def second_deriv_L2() -> float:
    """L^2 norm of G'' over one period: 8 pi^2 sqrt((1 + 6^4 + 7^4)/2).

    Each cosine in the closed form of G'' contributes half the square of its
    amplitude to the mean square.  The radicand is 3698/2 = 43^2, so the norm
    is exactly 8 pi^2 * 43.
    """
    return 8.0 * pi**2 * 43.0


# Working constants of the node-sum bounds of q_values: half the working sup
# bound of G' (88, exact) and half a rounded upper bound for the L^2 norm of G''.
_HALF_SUP_G1 = WORK_M[1] / 2
_HALF_L2_G2 = 1700.0
if 2.0 * _HALF_L2_G2 < second_deriv_L2():
    raise RuntimeError("_HALF_L2_G2 is below half the bound it stands for")

# ---------------------------------------------------------------------------
# The paper's values, which the recomputed ones are expected to match (regression anchors).
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


def q_values(keys, tables: list[LocalMaxTable], n_steps: int) -> list[dict]:
    """The q pass: bounds for the N-node midpoint sum of G^t |log G|^j, times |G'| if has_gprime, per key and sign.

    One {(has_gprime, t, j): bound} dict is returned per maxima table in
    tables, for the sign of that table.  Each bound splits the range of G at
    1/9 and is small + log(9)^j * base:

      * without |G'|, small values are covered by the envelope maximum on
        [0, 1/9] at every node, large values by log(9)^j times the node sum
        of G^t, which a midpoint sum bounds through the exact mean and half
        the total variation of G^t;
      * with |G'|, the factor is absorbed two ways: on the small range it
        costs a node-count term plus a boundary term; on the large range,
        node sums of G^t |G'| telescope into the variation of G^(t+1)/(t+1)
        plus correction terms controlled by the variation of G^t and the L^2
        norm of G''.

    torus_integral_upper is taken once per power, variation_bound_power once
    per (table, power), each j-free base once per table, and each small-range
    term once per (has_gprime, t, j), through the cells the refined bound
    pass takes (quadrature._cells), with the node-sum weights.
    """
    _check_steps(n_steps)
    star_weight = MONOTONE_PIECES * n_steps / G_MAX + _HALF_L2_G2
    index, slots = {}, {}  # index: {(has_gprime, t): kind index}, in the order first met
    for key in keys:
        slots[key] = key[2], index.setdefault(key[:2], len(index))
    kinds = list(index)

    def table_bases():  # lazily, so that _cells checks the arguments first
        means = {p: torus_integral_upper(p) for p in {2.0 * t if star else t for star, t in kinds}}
        powers = {p for star, t in kinds for p in ((t + 1.0, t) if star else (t,))}
        for table in tables:
            variation = {p: variation_bound_power(table, p) for p in powers}
            bases = []
            for star, t in kinds:
                if star:
                    tail = _HALF_L2_G2 * math.sqrt(means[2.0 * t])
                    bases.append(n_steps / (t + 1.0) * variation[t + 1.0] + _HALF_SUP_G1 * variation[t] + tail)
                else:  # N times the mean of G^t plus half its variation
                    bases.append(n_steps * means[t] + 0.5 * variation[t])
            yield bases

    per_table = _cells(kinds, {p for p, _ in slots.values()}, (n_steps, star_weight), table_bases())
    return [{key: cells[p][kind] for key, (p, kind) in slots.items()} for cells in per_table]


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
    tables = [default_max_table(TrigSquare(5, sign)) for sign in (SignVariant.PLUS, SignVariant.MINUS)]
    plus, minus = q_values(keys, tables, n_steps)
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
