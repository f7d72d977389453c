#!/usr/bin/env python3
"""Closed-loop benchmark of copula-ot, one workload per process.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload gap-exact --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --smoke

One process runs one op at a time, each starting when the previous one has
finished; the next op starts only if it is expected to end within
``--seconds`` of wall time, and every run has at least one op.  Inputs come
from ``--seed`` and are built before timing starts.  Each op's output is
checked outside its timed region; a failed check or a raised exception counts
as a failed op and makes the process exit 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` installs the
span tracer (``tracer.py``) over the same run and reports per-layer metrics;
it also writes every span to ``perfbench/out/``.  ``--smoke`` runs one traced
op per workload and checks that spans nest, that every self time is >= 0, and
that the metric names match ``BENCHMARK.json``.

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON report
with the environment, the tail latency and the fail ratio.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Set-up is done this many times per run and its median reported: once before
# the ops, the rest spread evenly over the run between ops, so that the median
# samples the host's speed over the whole run as the op metrics do.
SETUP_REPS = 7

# Tail latency: the highest of these percentiles with >= TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import copula_ot\n"
    "print(time.perf_counter() - t)\n"
    "print(copula_ot.__file__)\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="certify, gap-exact or gap-sweep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one traced op per workload, then self-checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import copula_ot from this checkout's src/ and time it."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    package = importlib.import_module("copula_ot")
    elapsed = time.perf_counter() - t0
    if Path(package.__file__).resolve().parent != SRC / "copula_ot":
        raise RuntimeError(f"copula_ot imported from {package.__file__}, not from {SRC}")
    return elapsed


def child_import_s() -> float:
    """Import time of copula_ot in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seconds, origin = proc.stdout.split("\n")[:2]
    if Path(origin).resolve().parent != SRC / "copula_ot":
        raise RuntimeError(f"child imported copula_ot from {origin}, not from {SRC}")
    return float(seconds)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def checked_op(workload, item, untraced):
    """Run one op; returns (seconds, error or None).  The check is untimed."""
    t0 = time.perf_counter()
    try:
        output = workload.op(item)
    except Exception as exc:  # a raising op is a failed op, the loop goes on
        return time.perf_counter() - t0, f"op raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    with untraced():
        try:
            ok = workload.check(item, output)
        except Exception as exc:
            return elapsed, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, None if ok else "output failed its check"


def set_up(workload, seed, untraced):
    """Generate the inputs and run the warm-up ops; raises if a warm-up op fails."""
    items = workload.generate(seed)
    for item in workload.warm_items(items):
        _, error = checked_op(workload, item, untraced)
        if error is not None:
            raise RuntimeError(f"{workload.name}: warm-up {error}")
    return items


def closed_loop(workload, items, seconds, untraced, due=(), interlude=None):
    """Ops back to back; the next one starts only if it should end within ``seconds``.

    ``interlude`` runs once between ops for each of the ``due`` offsets that
    has passed; those left when the ops stop run after the last op.  Offsets
    and ``seconds`` count loop time without the interludes.  Returns the op
    times and, per op, None or the reason it failed.
    """
    times, errors = [], []
    pending = sorted(due)
    start = time.perf_counter()
    i = 0
    while True:
        elapsed, error = checked_op(workload, items[i % len(items)], untraced)
        i += 1
        times.append(elapsed)
        errors.append(error)
        while pending and time.perf_counter() - start >= pending[0]:
            pending.pop(0)
            t0 = time.perf_counter()
            interlude()
            start += time.perf_counter() - t0
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    for _ in pending:
        interlude()
    return times, errors


def tail(times) -> dict:
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            value = ordered[rank - 1]
            return {"value": value, "unit": "s", "percentile": pct, "beyond": n - rank, "samples": n}
    return {"omitted": f"{n} ops leave fewer than {TAIL_BEYOND} beyond the median", "samples": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def timed_run(workload, args, import_s) -> int:
    t0 = time.perf_counter()
    items = set_up(workload, args.seed, nullcontext)
    samples = [import_s + time.perf_counter() - t0]

    def set_up_again():
        imported = child_import_s()
        t0 = time.perf_counter()
        set_up(workload, args.seed, nullcontext)
        samples.append(imported + time.perf_counter() - t0)

    due = [args.seconds * k / SETUP_REPS for k in range(1, SETUP_REPS)]
    t0 = time.perf_counter()
    times, errors = closed_loop(workload, items, args.seconds, nullcontext, due, set_up_again)
    loop_wall = time.perf_counter() - t0
    failures = [e for e in errors if e is not None]
    attempted, failed = len(times), len(failures)
    values = {
        "ops_per_s": (attempted - failed) / sum(times),
        "op_p50_s": statistics.median(times),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": environment(),
        "loop_wall_s": loop_wall,
        "setup_samples_s": samples,
        "op_tail_s": tail(times),
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "errors": failures[:5],
    }
    return emit(report, failed == 0, attempted, failed, metrics)


def traced(workload, seed, run_ops):
    """Set up and run ops under the tracer; returns (tracer, wall, times, errors)."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        items = set_up(workload, seed, tracer.paused)
        times, errors = run_ops(workload, items, tracer.paused)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, wall, times, errors


def traced_run(workload, args) -> int:
    from tracer import layer_metrics, span_cost_s

    span_cost = span_cost_s()

    def run_ops(wl, items, untraced):
        return closed_loop(wl, items, args.seconds, untraced)

    tracer, wall, times, errors = traced(workload, args.seed, run_ops)
    failures = [e for e in errors if e is not None]
    metrics = layer_metrics(tracer, wall, len(times), span_cost)
    nesting = tracer.nesting_errors()
    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_file)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": environment(),
        "span_cost_s": span_cost,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "nesting_errors": nesting[:5],
        "fail_ratio": {"value": len(failures) / len(times), "unit": "ratio"},
        "errors": failures[:5],
    }
    correct = not failures and not nesting
    return emit(report, correct, len(times), len(failures), metrics)


def smoke(workloads) -> int:
    """One traced op per workload; checks nesting, self times and metric names."""
    from tracer import LAYERS, layer_metrics, span_cost_s

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    spec_problems = []
    if {m["name"] for m in spec["end_to_end"]} != {name for name, _ in END_TO_END}:
        spec_problems.append("end_to_end names differ from END_TO_END")
    if {w["name"] for w in spec["workloads"]} != set(workloads):
        spec_problems.append("workload names differ from the workloads module")
    span_cost = span_cost_s()

    def one_op(wl, items, untraced):
        elapsed, error = checked_op(wl, items[0], untraced)
        return [elapsed], [error]

    failed = 0
    for name, workload in workloads.items():
        tracer, wall, times, errors = traced(workload(), 1, one_op)
        metrics = {k: v for k, (v, _) in layer_metrics(tracer, wall, len(times), span_cost).items()}
        problems = [e for e in errors if e is not None] + tracer.nesting_errors()[:5]
        if set(metrics) != declared:
            problems.append(f"per_layer names differ: {sorted(set(metrics) ^ declared)}")
        if metrics["bench.self_s"] < 0:
            problems.append(f"root spans cover more than the traced wall time {wall}")
        accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["bench.self_s"]
        if abs(accounted - wall) > 1e-6 * wall:
            problems.append(f"layer self times plus bench.self_s give {accounted}, not {wall}")
        failed += bool(problems)
        print(json.dumps({"workload": name, "spans": len(tracer.names), "wall_s": wall, "problems": problems}))
    print(json.dumps({"benchmark_json_problems": spec_problems}))
    correct = failed == 0 and not spec_problems
    print(json.dumps({"correct": correct, "attempted": len(workloads), "failed": failed, "metrics": {}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "copula_ot" / "__init__.py").is_file():
        print(f"error: {SRC}/copula_ot not found; run from a copula-ot source checkout", file=sys.stderr)
        return 2
    pin_threads()
    import_s = import_package()
    from workloads import WORKLOADS

    if args.smoke:
        return smoke(WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.trace:
        return traced_run(workload, args)
    return timed_run(workload, args, import_s)


if __name__ == "__main__":
    sys.exit(main())
