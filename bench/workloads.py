"""The three benchmark workloads: full proof, derivative sweep, certificate audit.

Each workload is one closed-loop caller.  It generates its inputs from a
``random.Random`` seeded by the run, calls the package only through names
looked up at call time (so the layer trace sees every call), and checks each
output outside the timed region.  A workload provides:

  setup(pkg)                 state built once per process (timed as setup_s)
  inputs(rng)                endless stream of op inputs
  op(pkg, state, x)          the timed operation
  check(pkg, state, x, out)  True when the output is correct (untimed)
  cli_argv(rng, i, out_dir)  arguments of the i-th ``python -m majorant`` run
  cli_check(pkg, state, argv, stdout)
  summary(state)             extra facts recorded with the result
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os

MODES = ("plain", "refined")


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def warm_caches(pkg) -> None:
    """Fill the cold lru caches a first proof would fill (maxima tables, moments)."""
    for sign in pkg.SignVariant:
        pkg.trigpoly.default_max_table(pkg.TrigSquare(5, sign))
    pkg.torus_integral_upper(5.5)


class ProveDefault:
    """Repeated ``prove_k5()`` on the default configuration: the user path."""

    name = "prove_default"
    labels = {"op": "prove_s", "rate": "proofs_per_s", "cli": "cli_prove_s"}
    count_ops = 1  # every proof makes the same calls

    def setup(self, pkg):
        warm_caches(pkg)
        return {"report": None}

    def inputs(self, rng):
        while True:
            yield None

    def op(self, pkg, state, x):
        report = pkg.prove_k5()
        return report, pkg.emit_report(report)

    def check(self, pkg, state, x, out):
        report, text = out
        if state["report"] is None:
            state["report"] = text
        proved = report.verdict == "PROVED" and all(s.status == "certified" for s in report.stages)
        return proved and text == state["report"]

    def cli_argv(self, rng, i, out_dir):
        return ["prove", "--out", os.path.join(out_dir, "cli_report.json")]

    def cli_check(self, pkg, state, argv, stdout):
        with open(argv[-1], "r", encoding="utf-8") as fh:
            written = fh.read()
        os.remove(argv[-1])
        return state["report"] is not None and written == state["report"]

    def summary(self, state):
        text = state["report"]
        return {"report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest() if text else None}


class DerivativeSweep:
    """Seeded ``gap_derivative`` calls that never repeat a (t, N) pair."""

    name = "derivative_sweep"
    labels = {"op": "deriv_s", "rate": "derivs_per_s", "cli": "cli_derivative_s"}
    # N is drawn from six equal-width strata visited in turn, and the mode
    # alternates, so every window of 12 ops has the same mix whatever the seed.
    n_low, n_width, n_strata = 300, 450, 6
    count_ops = 2 * n_strata
    cross_share = 0.125  # share of ops whose enclosure is compared across modes

    def setup(self, pkg):
        warm_caches(pkg)
        return {"cross_checked": 0}

    def inputs(self, rng):
        seen = set()
        i = 0
        while True:
            mode = MODES[i % 2]
            stratum = (i // 2) % self.n_strata
            order = 1 + (i // self.count_ops) % 10
            n_steps = self.n_low + stratum * self.n_width + rng.randrange(self.n_width)
            t = rng.uniform(5.0, 6.0)
            cross = rng.random() < self.cross_share
            if (t, n_steps) in seen:
                continue
            seen.add((t, n_steps))
            i += 1
            yield order, t, n_steps, mode, cross

    def op(self, pkg, state, x):
        order, t, n_steps, mode, _ = x
        return pkg.gap_derivative(order, t, n_steps, mode)

    def check(self, pkg, state, x, out):
        order, t, n_steps, mode, cross = x
        ok = (
            _finite(out.estimate, out.error_bound)
            and out.error_bound >= 0.0
            and out.steps == n_steps
            and out.method == mode
        )
        if ok and cross:
            # The other mode on a different node set encloses the same derivative.
            other_mode = MODES[1 - MODES.index(mode)]
            other = pkg.gap_derivative(order, t, n_steps // 2 + 1, other_mode)
            state["cross_checked"] += 1
            ok = abs(out.estimate - other.estimate) <= out.error_bound + other.error_bound
        return ok

    def cli_argv(self, rng, i, out_dir):
        order = rng.randint(1, 10)
        t = rng.uniform(5.0, 6.0)
        n_steps = 1000 + rng.randrange(100)
        return ["derivative", "--order", str(order), "--t", repr(t),
                "--steps", str(n_steps), "--mode", MODES[i % 2]]

    def cli_check(self, pkg, state, argv, stdout):
        fields = dict(line.split(None, 1) for line in stdout.splitlines() if line.strip())
        order, t, n_steps, mode = int(argv[2]), float(argv[4]), int(argv[6]), argv[8]
        expected = pkg.gap_derivative(order, t, n_steps, mode)
        return (
            float(fields.get("estimate", "nan")) == expected.estimate
            and float(fields.get("error_bound", "nan")) == expected.error_bound
            and fields.get("steps") == str(n_steps)
            and fields.get("method") == mode
        )

    def summary(self, state):
        return {"cross_checked": state["cross_checked"]}


class CertificateAudit:
    """Re-checks of the four stage certificates and their bounds; no node evaluation."""

    name = "certificate_audit"
    labels = {"op": "audit_s", "rate": "audits_per_s", "cli": "cli_table_s"}
    count_ops = 12
    grid_points = 9  # points per certified sub-interval re-checked for soundness

    def setup(self, pkg):
        warm_caches(pkg)
        stages = []
        for name, stage in pkg.DEFAULT_CONFIG["stages"].items():
            if "center" not in stage:
                continue
            cert = pkg.build_certificate(
                stage["center"], stage["radius"], stage["base_order"], stage["degree"],
                stage["budgets"], stage["steps"], stage["mode"], stage["total_delta"],
            )
            checker = "check_sign_chain" if stage["method"] == "chain" else "check_sign_variation"
            intervals = [tuple(iv) for iv in stage["intervals"]]
            stages.append((name, cert, stage["target"], checker, intervals))
        return {"stages": stages}

    def inputs(self, rng):
        signs = ("plus", "minus")
        n_stages = 4
        while True:
            subs = []
            for s in range(n_stages):
                lo_share, hi_share = rng.uniform(0.0, 0.45), rng.uniform(0.0, 0.45)
                subs.append((s, rng.random(), lo_share, hi_share))
            radius = rng.uniform(0.02, 0.2)
            window = (rng.uniform(5.0 + radius, 6.0 - radius), radius, rng.randint(1, 4), rng.randint(6, 9))
            bounds = [
                (rng.uniform(5.0, 6.0), rng.randint(0, 10), rng.randint(300, 3000), rng.choice(signs))
                for _ in range(2)
            ]
            yield subs, window, bounds

    def op(self, pkg, state, x):
        subs, window, bounds = x
        certify = pkg.certify
        stages = state["stages"]
        stage_verdicts = [
            getattr(certify, checker)(cert, target, iv)
            for _, cert, target, checker, intervals in stages
            for iv in intervals
        ]
        sub_verdicts = []
        for s, pick, lo_share, hi_share in subs:
            _, cert, target, checker, intervals = stages[s]
            a, b = intervals[int(pick * len(intervals))]
            iv = (a + lo_share * (b - a), b - hi_share * (b - a))
            sub_verdicts.append(getattr(certify, checker)(cert, target, iv))
        tail = certify.remainder_bound(*window)
        tables = [pkg.reproduce_table("Q500"), pkg.reproduce_table("Q400")]
        errors = []
        for t, j, n_steps, sign_name in bounds:
            sign = pkg.parse_sign(sign_name)
            trig = pkg.TrigSquare(5, sign)
            term_sum = pkg.h4_term_bounds(pkg.IntegrandSpec(t, j, sign))
            errors.append(
                pkg.quadrature.refined_error_bound(term_sum, trig, n_steps, pkg.trigpoly.default_max_table(trig))
            )
        return stage_verdicts, sub_verdicts, tail, tables, errors

    def check(self, pkg, state, x, out):
        stage_verdicts, sub_verdicts, tail, tables, errors = out
        ok = all(v.certified for v in stage_verdicts)
        for (s, *_), verdict in zip(x[0], sub_verdicts):
            if verdict.certified:
                ok &= self._sound(pkg, state["stages"][s], verdict)
        ok &= _finite(tail, *errors) and tail > 0.0 and all(e > 0.0 for e in errors)
        for header, rows in tables:
            slack = header.index("reference_slack")
            ok &= bool(rows) and all(row[slack] >= 0.0 for row in rows)
        return ok

    def _sound(self, pkg, stage, verdict):
        """A certified sign must hold for P -/+ delta on a grid of the interval."""
        _, cert, target, _, _ = stage
        a, b = verdict.interval
        for i in range(self.grid_points):
            value = pkg.eval_cert_poly(cert, 0, a + (b - a) * i / (self.grid_points - 1))
            if target == "positive" and not value - cert.total_delta > 0.0:
                return False
            if target == "negative" and not value + cert.total_delta < 0.0:
                return False
        return True

    def cli_argv(self, rng, i, out_dir):
        return ["table", ("Q500", "Q400")[i % 2]]

    def cli_check(self, pkg, state, argv, stdout):
        header, rows = pkg.reproduce_table(argv[1])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return stdout == buf.getvalue()

    def summary(self, state):
        return {}


WORKLOADS = {w.name: w for w in (ProveDefault(), DerivativeSweep(), CertificateAudit())}
