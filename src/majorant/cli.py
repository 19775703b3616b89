"""Command-line interface.

Exit codes: 0 success (and verdict PROVED for ``prove``), 1 proof ran but is
INCONCLUSIVE, 2 invalid input (arguments, or an --out file that cannot be written),
3 internal error (any other exception: a fault in the program, not in its input).
``prove`` takes no configuration: it runs the stage table DEFAULT_CONFIG.
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import emit_report, prove_k5
from .quadrature import MODES, gap_derivative
from .trigpoly import TrigSquare, curvature_slack, locate_maxima

_MIN_TABLE_BUMP = 0.001
# majorant.tables.TABLE_IDS, written out so that only the table command imports majorant.tables
TABLE_IDS = ("maxima", "A_rho", "Q500", "Q400", "T1", "T2", "T3", "T4", "T5", "T6")


def _cmd_prove(args: argparse.Namespace) -> int:
    report = prove_k5()
    rendered = emit_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if report.verdict == "PROVED" else 1


def _cmd_table(args: argparse.Namespace) -> int:
    import csv  # here and in _cmd_maxima alone, so that a prove process never loads it

    from .tables import reproduce_table

    header, rows = reproduce_table(args.id)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return 0


def _cmd_derivative(args: argparse.Namespace) -> int:
    value = gap_derivative(args.order, args.t, args.steps, args.mode)
    print(f"order       {args.order}")
    print(f"t           {args.t!r}")
    print(f"estimate    {value.estimate!r}")
    print(f"error_bound {value.error_bound!r}")
    print(f"steps       {value.steps}")
    print(f"method      {value.method}")
    return 0


def _cmd_maxima(args: argparse.Namespace) -> int:
    import csv

    square = TrigSquare(5, args.sign)
    bump = args.bump if args.bump is not None else max(_MIN_TABLE_BUMP, curvature_slack(args.step))
    table = locate_maxima(square, args.step, bump)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["location", "value_upper", "multiplicity"])
    for entry in table.entries:
        writer.writerow([entry.location, entry.value_upper, entry.multiplicity])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majorant",
        description="Certified comparison of L^p norms of two three-term exponential sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="run the full certified proof and emit a report")
    prove.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    prove.add_argument("--format", choices=("json", "text"), default="json")
    prove.set_defaults(func=_cmd_prove)

    table = sub.add_parser("table", help="recompute a reference table as CSV on stdout")
    table.add_argument("id", choices=TABLE_IDS)
    table.set_defaults(func=_cmd_table)

    deriv = sub.add_parser("derivative", help="one certified gap-derivative evaluation")
    deriv.add_argument("--order", type=int, required=True, help="derivative order (>= 0; 0 is the gap itself)")
    deriv.add_argument("--t", type=float, required=True, help="exponent: t > 4 plain (t >= 4 at order 0), t >= 5 refined")
    deriv.add_argument("--steps", type=int, required=True, help="midpoint nodes per half period")
    deriv.add_argument("--mode", choices=MODES, default="refined")
    deriv.set_defaults(func=_cmd_derivative)

    maxima = sub.add_parser("maxima", help="certified local-maxima table of one square")
    maxima.add_argument("--sign", choices=("plus", "minus"), required=True)
    maxima.add_argument("--step", type=float, default=0.001, help="grid step dividing 0.5")
    maxima.add_argument(
        "--bump", type=float, default=None,
        help="additive slack on grid values (default: table convention, at least the sound minimum)",
    )
    maxima.set_defaults(func=_cmd_maxima)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 would read as INCONCLUSIVE, so a fault gets its own code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
