"""Command-line interface.

Four subcommands: ``diamond`` (quantile coupling through a shared copula),
``exact`` (optimal cost at an optimal vertex: an assignment when both
supports have the same size and one common weight, else the HiGHS LP),
``verify`` (randomized certification campaign), and ``counterexample``
(epsilon-schedule gap search for p != q).

Costs are printed both as the raw integral of ||x - y||_q^p and as its 1/p
root.  All file output is deterministic for a fixed seed and config: floats
are serialized with repr round-tripping and rows keep generation order.

Exit codes: 0 success; 1 verification found optimality violations; 2 bad
usage, unparseable input, an input too large for memory, an exact LP that
HiGHS cannot solve (its status and the largest cost are named), or a
checkerboard file whose margins are uniform only within its slice
tolerance, too loosely for the gap construction's rewired law; 3 exact
solve over the pair cap; 4 no violating coordinate pair; 5 epsilon schedule
exhausted without a significant gap.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .copulas import (
    CHECKERBOARD,
    Copula,
    comonotone,
    copula_from_dict,
    countermonotone,
    independence,
)
from .counterexample import (
    DEFAULT_CARRIER_RESOLUTION,
    CurvePoint,
    NoViolatingPair,
    ScheduleExhausted,
    gap_search,
    report_to_dict,
)
from .instances import VerifyConfig, run_verification
from .measures import MultivariateMeasure, measure_from_dict
from .transport import (
    DEFAULT_PAIR_CAP,
    CostSpec,
    PairCountCapExceeded,
    TransportPlan,
    diamond,
    exact_ot,
    plan_cost,
    plan_to_dict,
    validate_plan,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_PAIR_CAP = 3
EXIT_NO_PAIR = 4
EXIT_EXHAUSTED = 5


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _load_json(path: str) -> object:
    return json.loads(Path(path).read_text())


def _load_measure(path: str) -> MultivariateMeasure:
    return measure_from_dict(_load_json(path))


def _resolve_copula(name: str, n: int, k: int | None, default_k: int) -> tuple[Copula, str]:
    """Copula and label for ``--copula``; ``k`` None means ``default_k`` for builtin names."""
    if name.startswith("checkerboard:"):
        copula = copula_from_dict(_load_json(name.split(":", 1)[1]))
        if copula.variant == CHECKERBOARD and k is not None and k != copula.k:
            raise ValueError(f"--k {k} differs from the checkerboard file's k = {copula.k}")
        return copula, copula.describe()
    k = default_k if k is None else k
    if name == "independence":
        return independence(n, k), f"independence(n={n}, k={k})"
    if name == "comonotone":
        return comonotone(n), f"comonotone(n={n})"
    if name == "countermonotone":
        if n != 2:
            raise ValueError("countermonotone exists only for n=2")
        return countermonotone(), "countermonotone(n=2)"
    raise ValueError(
        f"unknown copula {name!r}; expected independence, comonotone, "
        f"countermonotone, or checkerboard:<path>"
    )


def _check_no_input_is_overwritten(args: argparse.Namespace) -> None:
    """Raise a ``ValueError`` naming both flags when an output file of ``args`` is one of its input files.

    Paths are compared resolved, or by ``os.path.samefile`` when both files
    exist, so another name of the same file is caught too.  Outputs are
    ``--emit-plan``, and ``counterexample``'s ``--out`` and its gap curve
    ``<out>.csv``; inputs are ``--mu``, ``--rho`` and a
    ``checkerboard:<path>`` copula.
    """
    inputs = [(f"--{name}", getattr(args, name)) for name in ("mu", "rho") if hasattr(args, name)]
    copula = getattr(args, "copula", "")
    if copula.startswith("checkerboard:"):
        inputs.append(("--copula", copula.split(":", 1)[1]))
    outputs = [("--emit-plan", Path(args.emit_plan))] if getattr(args, "emit_plan", None) else []
    if args.command == "counterexample":
        out = Path(args.out)
        outputs += [("--out", out), ("the gap curve of --out", out.with_suffix(".csv"))]
    for out_flag, out_path in outputs:
        for in_flag, in_name in inputs:
            in_path = Path(in_name)
            both_exist = out_path.exists() and in_path.exists()
            if os.path.samefile(out_path, in_path) if both_exist else out_path.resolve() == in_path.resolve():
                raise ValueError(f"{out_flag} {out_path} would overwrite the {in_flag} input file {in_name}")


def _write_json(path: Path, obj: object) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _report_plan(plan: TransportPlan, cost: float, spec: CostSpec, emit_path: str | None) -> None:
    print(f"plan entries: {len(plan)}")
    print(f"cost (integral of ||x-y||_q^p): {_fmt(cost)}")
    print(f"cost^(1/p): {_fmt(cost ** (1.0 / spec.p))}")
    if emit_path:
        _write_json(Path(emit_path), plan_to_dict(plan))
        print(f"plan written to {emit_path}")


def cmd_diamond(args: argparse.Namespace) -> int:
    mu = _load_measure(args.mu)
    rho = _load_measure(args.rho)
    if mu.dimension != rho.dimension:
        raise ValueError(
            f"measures disagree in dimension: {mu.dimension} vs {rho.dimension}"
        )
    n = mu.dimension
    copula, label = _resolve_copula(args.copula, n, args.k, 1)
    if copula.n != n:
        raise ValueError(f"copula dimension {copula.n} does not match the measures ({n})")
    spec = CostSpec(args.p, args.q)
    mu_marginals = [mu.marginal(i) for i in range(1, n + 1)]
    rho_marginals = [rho.marginal(i) for i in range(1, n + 1)]
    plan = diamond(copula, mu_marginals, rho_marginals)
    if not validate_plan(plan, mu, rho):
        print(
            "warning: the supplied joint laws do not match the copula composed "
            "with their marginals; the plan couples the recomposed laws",
            file=sys.stderr,
        )
    print(f"copula: {label}")
    _report_plan(plan, plan_cost(plan, spec), spec, args.emit_plan)
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    mu = _load_measure(args.mu)
    rho = _load_measure(args.rho)
    spec = CostSpec(args.p, args.q)
    result = exact_ot(mu, rho, spec, args.max_pairs)
    print(f"support sizes: {len(mu)} x {len(rho)}")
    _report_plan(result.plan, result.value, spec, args.emit_plan)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.allow_pq:
        if args.p is None or args.q is None:
            raise ValueError("--allow-pq requires both --p and --q")
        pair = (args.p, args.q)
    else:
        if args.p is not None or args.q is not None:
            raise ValueError(
                "verify certifies the p = q regime over a fixed exponent grid; "
                "pass --allow-pq together with --p/--q for a smoke campaign"
            )
        pair = None
    for flag, value in (
        ("--instances", args.instances),
        ("--dimensions", min(args.dimensions)),
        ("--max-resolution", args.max_resolution),
        ("--max-atoms", args.max_atoms),
    ):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    config = VerifyConfig(
        seed=args.seed,
        instances=args.instances,
        dimensions=tuple(args.dimensions),
        exponents=tuple(args.exponents),
        exponent_pair=pair,
        max_resolution=args.max_resolution,
        max_marginal_atoms=args.max_atoms,
        pair_cap=args.max_pairs,
    )
    rows = run_verification(config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instance", "n", "p", "diamond_cost", "exact_cost", "rel_err"])
        for row in rows:
            writer.writerow(
                [row.instance, row.n, row.p, row.diamond_cost, row.exact_cost, row.rel_err]
            )
    offenders = [row for row in rows if row.rel_err > config.rel_opt_tol]
    worst = max((row.rel_err for row in rows), default=0.0)
    print(f"instances evaluated: {len(rows)}")
    print(f"max relative error: {_fmt(worst)}")
    print(f"{'n':>3} {'p':>6} {'worst rel err':>15}")
    for n, p in sorted({(row.n, row.p) for row in rows}):
        setting_worst = max(row.rel_err for row in rows if (row.n, row.p) == (n, p))
        print(f"{n:>3} {p:>6g} {setting_worst:>15.3e}")
    print(f"rows written to {out}")
    if offenders:
        print(f"optimality violations: {len(offenders)} rows exceed {config.rel_opt_tol}")
        for row in offenders[:10]:
            print(
                f"  instance {row.instance} (n={row.n}, p={_fmt(row.p)}, q={_fmt(row.q)}): "
                f"diamond {_fmt(row.diamond_cost)} vs exact {_fmt(row.exact_cost)} "
                f"(rel err {_fmt(row.rel_err)})"
            )
        return EXIT_VIOLATIONS
    print("quantile coupling matched the exact optimum on every instance")
    return EXIT_OK


def cmd_counterexample(args: argparse.Namespace) -> int:
    if args.p == args.q:
        raise ValueError("counterexample search requires p != q; at p = q the quantile coupling is optimal")
    copula, label = _resolve_copula(args.copula, args.n, args.k, DEFAULT_CARRIER_RESOLUTION)
    resolution = DEFAULT_CARRIER_RESOLUTION if args.k is None else args.k
    out = Path(args.out)
    curve_path = out.with_suffix(".csv")
    if curve_path == out:
        raise ValueError(f"--out {out} would be overwritten by the gap curve, which goes to <out>.csv")

    def write_curve(curve) -> None:
        with curve_path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CurvePoint._fields)
            writer.writerows(pt.csv_row() for pt in curve)

    try:
        report = gap_search(
            copula,
            args.p,
            args.q,
            carrier_resolution=resolution,
            pair_cap=args.max_pairs,
            copula_label=label,
        )
    except NoViolatingPair as exc:
        print(f"no violating pair: {exc}")
        return EXIT_NO_PAIR
    except ScheduleExhausted as exc:
        print(f"schedule exhausted: {exc}")
        out.parent.mkdir(parents=True, exist_ok=True)
        write_curve(exc.curve)
        print(f"gap curve written to {curve_path}")
        return EXIT_EXHAUSTED
    # Created only now, so a run that fails before writing leaves nothing behind.
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, report_to_dict(report))
    write_curve(report.curve)
    print(f"copula: {report.copula}")
    print(f"violating pair: {report.pair}")
    print(f"accepted epsilon: {_fmt(report.epsilon)}")
    print(f"quantile-coupling cost: {_fmt(report.diamond_cost)}")
    print(f"competitor cost: {_fmt(report.alt_cost)}")
    print(f"gap: {_fmt(report.gap)}")
    if report.exact_cost is not None:
        print(f"exact cost: {_fmt(report.exact_cost)}")
    else:
        # gap_search skips the exact solve only above the pair cap.
        k = copula.k if copula.variant == CHECKERBOARD else resolution
        print(f"exact cost: skipped at k={k}: more than --max-pairs {args.max_pairs} atom pairs")
    print(f"limit costs: quantile {_fmt(report.limit_diamond)}, competitor {_fmt(report.limit_alt)}")
    print(f"report written to {out}")
    print(f"gap curve written to {curve_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copula-ot",
        description="Transport costs and couplings for discrete measures sharing a copula",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_cost = dict(type=float, default=2.0)

    d = sub.add_parser("diamond", help="quantile coupling induced by a shared copula")
    d.add_argument("--mu", required=True, help="source measure JSON file")
    d.add_argument("--rho", required=True, help="target measure JSON file")
    d.add_argument("--p", **common_cost)
    d.add_argument("--q", **common_cost)
    d.add_argument(
        "--copula",
        default="independence",
        help="independence | comonotone | countermonotone | checkerboard:<path>",
    )
    d.add_argument("--k", type=int, default=None, help="checkerboard resolution for builtin names (default 1)")
    d.add_argument("--emit-plan", default=None, help="write the plan JSON here")
    d.set_defaults(handler=cmd_diamond)

    e = sub.add_parser("exact", help="exact optimal transport cost (assignment or LP vertex solve)")
    e.add_argument("--mu", required=True)
    e.add_argument("--rho", required=True)
    e.add_argument("--p", **common_cost)
    e.add_argument("--q", **common_cost)
    e.add_argument("--max-pairs", type=int, default=DEFAULT_PAIR_CAP)
    e.add_argument("--emit-plan", default=None)
    e.set_defaults(handler=cmd_exact)

    campaign = VerifyConfig()
    v = sub.add_parser("verify", help="randomized certification campaign")
    v.add_argument("--seed", type=int, default=campaign.seed)
    v.add_argument(
        "--instances", type=int, default=campaign.instances, help="instances per setting"
    )
    v.add_argument("--dimensions", type=int, nargs="+", default=list(campaign.dimensions))
    v.add_argument("--exponents", type=float, nargs="+", default=list(campaign.exponents))
    v.add_argument("--max-resolution", type=int, default=campaign.max_resolution)
    v.add_argument("--max-atoms", type=int, default=campaign.max_marginal_atoms)
    v.add_argument("--p", type=float, default=None)
    v.add_argument("--q", type=float, default=None)
    v.add_argument(
        "--allow-pq",
        action="store_true",
        help="run a p != q smoke campaign instead of the p = q certification",
    )
    v.add_argument(
        "--max-pairs",
        type=int,
        default=DEFAULT_PAIR_CAP,
        help="atom-pair cap of the --allow-pq exact solves; the p = q certificate forms none",
    )
    v.add_argument("--out", default="verify.csv")
    v.set_defaults(handler=cmd_verify)

    c = sub.add_parser("counterexample", help="epsilon-schedule gap search for p != q")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--q", type=float, required=True)
    c.add_argument(
        "--copula",
        default="independence",
        help="independence | comonotone | countermonotone | checkerboard:<path>",
    )
    c.add_argument("--n", type=int, default=2, help="dimension for builtin copula names")
    c.add_argument(
        "--k",
        type=int,
        default=None,
        help=f"carrier resolution (default {DEFAULT_CARRIER_RESOLUTION})",
    )
    c.add_argument("--max-pairs", type=int, default=DEFAULT_PAIR_CAP)
    c.add_argument("--out", default="counterexample_report.json")
    c.set_defaults(handler=cmd_counterexample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # 0 allows no atom pair: it is how counterexample skips its exact cost.
        if getattr(args, "max_pairs", 0) < 0:
            raise ValueError(f"--max-pairs must be at least 0, got {args.max_pairs}")
        _check_no_input_is_overwritten(args)
        return args.handler(args)
    except PairCountCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PAIR_CAP
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # Too large an input; numpy's message names the array it could not allocate.
        print(f"error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
