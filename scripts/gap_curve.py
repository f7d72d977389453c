#!/usr/bin/env python3
"""Trace suboptimality gaps of the quantile coupling across grid resolutions.

For each carrier resolution k, runs the full epsilon shrink schedule on the
uniform grid copula and records the cost curve, then prints how the limit
costs approach the continuum values.  Typical call:

    python3 scripts/gap_curve.py --p 2 --q 1 --resolutions 2 4 8 16 32 \
        --out runs/gap_p2_q1.csv

The exact cost at the accepted epsilon is attached only while the k**4 atom
pairs of the certificate fit under copula-ot's default cap of 250,000, that
is up to k = 22.  So this call gets no exact cost at k = 32 (32**4 is
1,048,576 pairs): its ``exact_cost`` field is empty, a note on stderr says
so, and the exit code is still 0.
"""

import argparse
import csv
import sys
from pathlib import Path

from copula_ot.cli import EXIT_EXHAUSTED, EXIT_NO_PAIR, EXIT_OK, EXIT_USAGE
from copula_ot.copulas import independence
from copula_ot.counterexample import CurvePoint, NoViolatingPair, ScheduleExhausted, gap_search
from copula_ot.transport import DEFAULT_PAIR_CAP


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--q", type=float, required=True)
    parser.add_argument("--resolutions", type=int, nargs="+", default=[2, 4, 8, 16])
    parser.add_argument(
        "--skip-exact",
        action="store_true",
        help="skip the exact certificate at the accepted epsilon (fast sweeps)",
    )
    parser.add_argument("--out", type=Path, default=Path("gap_curve.csv"))
    return parser.parse_args(argv)


def _error(k: int, exc: Exception | str, code: int) -> int:
    print(f"error: k={k}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Exit codes as ``copula-ot``'s: 2 bad input, 4 no violating pair, 5 schedule exhausted.

    On an error nothing is written to ``--out``.
    """
    args = parse_args(argv)
    if args.p == args.q:
        print("error: p must differ from q: the quantile coupling is optimal at p = q", file=sys.stderr)
        return EXIT_USAGE

    rows = []
    print(f"{'k':>4} {'accepted eps':>13} {'gap':>12} {'limit gap':>12}")
    for k in args.resolutions:
        try:
            report = gap_search(
                independence(2, k), args.p, args.q, attach_exact=not args.skip_exact
            )
        except NoViolatingPair as exc:
            return _error(k, exc, EXIT_NO_PAIR)
        except ScheduleExhausted as exc:
            return _error(k, exc, EXIT_EXHAUSTED)
        except ValueError as exc:
            return _error(k, exc, EXIT_USAGE)
        except MemoryError as exc:
            return _error(k, f"out of memory. {exc}".rstrip(), EXIT_USAGE)
        rows.extend([k, *pt.csv_row()] for pt in report.curve)
        limit_gap = report.limit_diamond - report.limit_alt
        print(f"{k:>4} {report.epsilon:>13.6e} {report.gap:>12.6f} {limit_gap:>12.6f}")
        if report.exact_cost is None and not args.skip_exact:
            print(f"k={k}: exact cost skipped: more than {DEFAULT_PAIR_CAP} atom pairs", file=sys.stderr)

    try:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", *CurvePoint._fields])
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"curves -> {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
