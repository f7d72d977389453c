#!/usr/bin/env python3
"""Trace suboptimality gaps of the quantile coupling across grid resolutions.

For each carrier resolution k, runs the full epsilon shrink schedule on the
uniform grid copula and records the cost curve, then prints how the limit
costs approach the continuum values.  Typical call:

    python3 scripts/gap_curve.py --p 2 --q 1 --resolutions 2 4 8 16 32 \
        --out runs/gap_p2_q1.csv
"""

import argparse
import csv
import sys
from pathlib import Path

from copula_ot.copulas import independence
from copula_ot.counterexample import CurvePoint, gap_search


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--q", type=float, required=True)
    parser.add_argument("--resolutions", type=int, nargs="+", default=[2, 4, 8, 16])
    parser.add_argument(
        "--skip-exact",
        action="store_true",
        help="skip the LP certificate at the accepted epsilon (fast sweeps)",
    )
    parser.add_argument("--out", type=Path, default=Path("gap_curve.csv"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.p == args.q:
        print("p must differ from q: the quantile coupling is optimal at p = q", file=sys.stderr)
        return 2

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", *CurvePoint._fields])
        print(f"{'k':>4} {'accepted eps':>13} {'gap':>12} {'limit gap':>12}")
        for k in args.resolutions:
            report = gap_search(
                independence(2, k), args.p, args.q, attach_exact=not args.skip_exact
            )
            writer.writerows([k, *pt.csv_row()] for pt in report.curve)
            limit_gap = report.limit_diamond - report.limit_alt
            print(f"{k:>4} {report.epsilon:>13.6e} {report.gap:>12.6f} {limit_gap:>12.6f}")
    print(f"curves -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
