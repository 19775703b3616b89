"""Benchmark of the majorant package: one closed-loop caller, three workloads.

    python3 bench/run.py --workload prove_default --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
installs the layer trace (bench/layertrace.py) and reports per-layer metrics.
Human-readable lines come first; the last line of stdout is the JSON result.
Per-run records and trace spans are written under ``.bench_out/``.  See
bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layertrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 16  # fresh interpreters timed for setup_s
CLI_RUNS = 12  # sequential `python -m majorant` runs timed for cli_s.p50 (traced runs)
UNTRACED_SHARE = 0.25  # share of a traced run measured untraced, for trace_overhead
CHILD_TIMEOUT_S = 120
# The speed probe's time (see probe_s) on an idle 2-CPU x86-64 host under
# Python 3.11: the fixed factor that turns duration/probe ratios into seconds.
PROBE_REF_S = 5.5e-4

# The package's own worker-pool switch; removed so the serial path is measured.
THREADS_ENV = "MAJORANT_THREADS"


def load_package():
    """Import majorant from this checkout's src/, refusing any other copy."""
    if not (SRC / "majorant" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'majorant'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import majorant

    if Path(majorant.__file__).resolve().parent != SRC / "majorant":
        raise SystemExit(f"error: imported majorant from {majorant.__file__}, not from {SRC}")
    return majorant


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


_PROBE_XS = [i * 1e-3 for i in range(10_000)]


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop that never calls the package.

    Other tenants of a shared machine slow every process down, by up to 2x,
    for seconds to minutes at a time.  The probe slows down with the package,
    so a duration over the mean of the probes taken just before and just
    after it reads the same whatever the load.  Timing metrics are those
    ratios times PROBE_REF_S: seconds at the reference speed.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for x in _PROBE_XS:
        acc += math.cos(x) * x
    return time.perf_counter() - t0


def warm_probe_s() -> float:
    """The probe on warm caches: its first pass after start-up runs cold."""
    probe_s()
    return probe_s()


class Timings:
    """Wall durations and the same durations at the reference speed."""

    def __init__(self):
        self.wall = []
        self.scaled = []

    def add(self, wall: float, probe_before: float, probe_after: float) -> None:
        self.wall.append(wall)
        self.scaled.append(wall * PROBE_REF_S * 2.0 / (probe_before + probe_after))

    def __len__(self):
        return len(self.wall)


def run_ops(pkg, workload, state, stream, seconds, min_ops, tracer=None):
    """Closed loop: time each op, probe the machine's speed, check the op untimed.

    Returns (Timings, failed, call snapshot after ``count_ops`` ops).
    """
    durations = Timings()
    failed = 0
    snapshot = None
    probe = probe_s()
    start = time.perf_counter()
    while len(durations) < min_ops or time.perf_counter() - start < seconds:
        x = next(stream)
        if tracer is not None:
            tracer.op = len(durations)
        t0 = time.perf_counter()
        try:
            out = workload.op(pkg, state, x)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            ok = False
        else:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.pause()
            try:
                ok = workload.check(pkg, state, x, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if tracer is not None:
                tracer.resume()
        durations.add(dt, probe, probe := probe_s())
        if tracer is not None and len(durations) == workload.count_ops:
            snapshot = tracer.snapshot_calls()
        if not ok:
            print(f"check failed: op {len(durations) - 1} input {x!r}", file=sys.stderr)
            failed += 1
    return durations, failed, snapshot


def run_children(argvs, env, timed):
    """Run the commands one at a time; returns (durations, failed).

    ``timed(argv, stdout, wall)`` checks a child's output and returns the
    duration to record for it, or None when the output is wrong.
    """
    durations = []
    failed = 0
    for argv in argvs:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - t0
        duration = None
        if proc is not None and proc.returncode == 0:
            try:
                duration = timed(argv, proc.stdout, wall)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if duration is None:
            detail = "timed out" if proc is None else f"exit {proc.returncode}\n{proc.stderr}"
            print(f"child failed: {argv}: {detail}", file=sys.stderr)
            failed += 1
        else:
            durations.append(duration)
    return durations, failed


def setup_child_s(argv, stdout, wall):
    """A setup child's wall time at the reference speed, from the probe it printed."""
    probe = float(stdout.split()[-1])
    return wall * PROBE_REF_S / probe if probe > 0.0 else None


def measure_untraced(pkg, workload, args, env):
    state = workload.setup(pkg)
    stream = workload.inputs(random.Random(args.seed))
    ops, failed, _ = run_ops(pkg, workload, state, stream, args.seconds, min_ops=3)

    setup_argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload.name]
    setup, setup_failed = run_children([setup_argv] * SETUP_RUNS, env, setup_child_s)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "op_s.p50": (statistics.median(ops.scaled), "s"),
        "op_s.p90": (percentile(ops.scaled, 0.9), "s"),
        "ops_per_s": (len(ops) / sum(ops.scaled), "1/s"),
    }
    counts = {
        "ops": len(ops), "setup_runs": len(setup),
        "attempted": len(ops) + len(setup),
        "failed": failed + setup_failed,
    }
    wall = {
        "wall_op_s.p50": statistics.median(ops.wall),
        "wall_op_s.p90": percentile(ops.wall, 0.9),
    }
    return metrics, counts, state, wall


def measure_traced(pkg, workload, args, env):
    state = workload.setup(pkg)
    untraced_s = args.seconds * UNTRACED_SHARE
    plain, plain_failed, _ = run_ops(
        pkg, workload, state, workload.inputs(random.Random(f"{args.seed}/untraced")), untraced_s, min_ops=3
    )

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced, failed, snapshot = run_ops(
            pkg, workload, state, workload.inputs(random.Random(args.seed)),
            args.seconds - untraced_s, min_ops=max(3, workload.count_ops), tracer=tracer,
        )
    finally:
        tracer.pause()

    # The CLI layer runs in child processes, which the trace does not reach.
    cli_rng = random.Random(f"{args.seed}/cli")
    cli_argvs = [
        [sys.executable, "-m", "majorant", *workload.cli_argv(cli_rng, i, str(OUT_DIR))]
        for i in range(CLI_RUNS)
    ]
    cli, cli_failed = run_children(
        cli_argvs, env, lambda argv, out, wall: wall if workload.cli_check(pkg, state, argv[3:], out) else None
    )

    n = len(traced)
    metrics = {}
    for key, (_, self_s, _) in tracer.stats.items():
        name = layertrace.metric_key(key)
        metrics[f"calls.{name}"] = (snapshot[name] / workload.count_ops, "count")
        metrics[f"self_ms.{name}"] = (self_s * 1000.0 / n, "ms")

    def ratio(num, den):
        return num / den if den else 0.0

    sign_checks = [tracer.stats[key] for key in sorted(layertrace.SIGN_CHECKS)]
    node_evals = snapshot["integrand.eval_H"]
    metrics["ratio.g_evals_per_node"] = (ratio(snapshot["trigpoly.eval_G"], node_evals), "ratio")
    metrics["ratio.gprime_evals_per_node"] = (ratio(snapshot["trigpoly.eval_G_derivative"], node_evals), "ratio")
    metrics["ratio.audit_certified"] = (
        ratio(sum(s[2] for s in sign_checks), sum(s[0] for s in sign_checks)), "ratio"
    )
    metrics["trace_overhead"] = (statistics.median(traced.scaled) / statistics.median(plain.scaled), "ratio")
    metrics["cli_s.p50"] = (statistics.median(cli), "s")

    counts = {
        "ops": len(plain) + n, "traced_ops": n, "untraced_ops": len(plain), "cli_runs": len(cli),
        "attempted": len(plain) + n + len(cli),
        "failed": plain_failed + failed + cli_failed,
    }
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans_as_dicts(), "dropped_spans": tracer.dropped_spans}, fh)
    extra = {
        "missing_functions": tracer.missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "dropped_spans": tracer.dropped_spans,
    }
    return metrics, counts, state, extra


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def report(workload, args, metrics, counts, info):
    """Print the human-readable lines, save the record, print the JSON result last."""
    aliases = {
        "op_s.p50": workload.labels["op"] + ".p50",
        "op_s.p90": workload.labels["op"] + ".p90",
        "ops_per_s": workload.labels["rate"],
        "cli_s.p50": workload.labels["cli"] + ".p50",
    }
    print(f"{workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"python {info['python']}  nproc {info['nproc']}  commit {info['commit']}  "
          f"src_lines {info['src_lines']}")
    for name, (value, unit) in metrics.items():
        alias = f"  ({name})" if name in aliases else ""
        print(f"  {aliases.get(name, name):<44} {value:.6g} {unit}{alias}")
    print(f"  {'fail_ratio':<44} {info['fail_ratio']:.6g}  ({counts['failed']}/{counts['attempted']})")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "counts": counts, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.pop(THREADS_ENV, None)
    pkg = load_package()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(pkg)
        print(warm_probe_s())
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    facts = environment_facts()
    measure = measure_traced if args.trace else measure_untraced
    metrics, counts, state, extra = measure(pkg, workload, args, env)
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **facts, **counts,
        "fail_ratio": counts["failed"] / counts["attempted"],
        **workload.summary(state), **extra,
    }
    report(workload, args, metrics, counts, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
