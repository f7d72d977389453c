"""Span tracing of copula-ot's layers, installed from outside the package.

The tracer rebinds every public function of the layer modules (and
``transport.linprog``, the HiGHS entry point) in every ``copula_ot`` module
that holds it, so calls between modules are traced as well as calls from the
benchmark.  Spans are held in memory until the run ends; :meth:`Tracer.summary`
then turns them into per-function call counts, total and self times, and
:func:`layer_metrics` into the per-layer metrics named in ``BENCHMARK.json``.  A span's self time is its duration minus the time covered by
its child spans.  Everything runs on one thread, so spans nest by a stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("measures", "copulas", "transport", "counterexample", "instances")

# End marker for traced generators.
_DONE = object()


def _rows_in_out(counts, name, args, kwargs, result):
    counts[name + ".rows_in"] += len(args[0] if args else kwargs["rows"])
    counts[name + ".rows_out"] += len(result[1])


def _boxes(counts, name, args, kwargs, result):
    counts[name + ".boxes"] += len(result[1])


def _lp_vars(counts, name, args, kwargs, result):
    counts[name + ".vars"] += result.size


def _alt_rows(counts, name, args, kwargs, result):
    counts[name + ".alt_rows"] += len(result.alt_plan)


# Work counters recorded inside the span of the function they describe.
COUNTERS = {
    "measures.merge_weighted_rows": _rows_in_out,
    "copulas.push_through_quantiles": _boxes,
    "transport.solve_transport": _lp_vars,
    "counterexample.build_pair": _alt_rows,
}


class Tracer:
    """Records nested spans around the layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._paused = False
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls inside the block run untraced (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, name, args, kwargs, result)
                return result
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self._close(sid)

        return traced

    def _wrap_generator(self, name: str, fn):
        # One span per item drawn, so the consumer's work between items is
        # not charged to the generator.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if self._paused:
                    item = next(inner, _DONE)
                else:
                    sid = self._open(name)
                    try:
                        item = next(inner, _DONE)
                    finally:
                        self._close(sid)
                if item is _DONE:
                    return
                yield item

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if modname == "copula_ot" or modname.startswith("copula_ot.")
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"copula_ot.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                self._rebind(modules, obj, self.wrap(f"{layer}.{attr}", obj))
        transport = sys.modules["copula_ot.transport"]
        self._rebind([transport], transport.linprog, self.wrap("transport.linprog", transport.linprog))

    def _rebind(self, modules, original, wrapped) -> None:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def arrays(self):
        parents = np.asarray(self.parents, dtype=np.int64)
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        durations = ends - starts
        child = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        return parents, starts, ends, durations, durations - child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (wall time inside) and self_s."""
        _, _, _, durations, self_s = self.arrays()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += float(durations[sid])
            row["self_s"] += float(self_s[sid])
        return out

    def time_under(self, name: str, parent_names) -> float:
        """Total duration of ``name`` spans whose direct parent is one of ``parent_names``."""
        parents, _, _, durations, _ = self.arrays()
        total = 0.0
        for sid, span_name in enumerate(self.names):
            p = parents[sid]
            if span_name == name and p >= 0 and self.names[p] in parent_names:
                total += float(durations[sid])
        return total

    def root_time(self) -> float:
        parents, _, _, durations, _ = self.arrays()
        return float(durations[parents < 0].sum())

    def nesting_errors(self) -> list[str]:
        """Spans that leave their parent's interval, overlap a sibling, or have negative self time."""
        parents, starts, ends, _, self_s = self.arrays()
        errors = []
        last_end: dict[int, float] = {}
        for sid in range(len(parents)):
            p = int(parents[sid])
            if ends[sid] < starts[sid]:
                errors.append(f"span {sid} {self.names[sid]} ends before it starts")
            if p >= 0 and not (starts[p] <= starts[sid] and ends[sid] <= ends[p]):
                errors.append(f"span {sid} {self.names[sid]} leaves parent {p} {self.names[p]}")
            if starts[sid] < last_end.get(p, -np.inf):
                errors.append(f"span {sid} {self.names[sid]} overlaps an earlier sibling")
            last_end[p] = ends[sid]
            if self_s[sid] < -1e-9:
                errors.append(f"span {sid} {self.names[sid]} has self time {self_s[sid]!r}")
        return errors

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": self.parents[sid],
                            "name": name,
                            "start": self.starts[sid],
                            "end": self.ends[sid],
                        }
                    )
                    + "\n"
                )


# Functions whose call count and self time the traced run reports.
CALLS_AND_SELF = (
    "measures.merge_weighted_rows",
    "measures.make_measure",
    "measures.make_measure_1d",
    "measures.measures_close",
    "transport.make_plan",
    "transport.plan_cost",
    "copulas.push_through_quantiles",
    "copulas.copula_cdf",
    "counterexample.build_pair",
)
SELF_ONLY = (
    "transport.validate_plan",
    "transport.diamond",
    "counterexample.limit_scores",
    "counterexample.gap_search",
    "counterexample.find_violating_pair",
    "instances.iter_campaign",
)
WORK_COUNTS = (
    "measures.merge_weighted_rows.rows_in",
    "measures.merge_weighted_rows.rows_out",
    "copulas.push_through_quantiles.boxes",
    "counterexample.build_pair.alt_rows",
)
LP_CALLERS = ("transport.exact_ot", "transport.max_inner_product")


def layer_metrics(tracer: Tracer, wall: float, ops: int, span_cost: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    summary = tracer.summary()
    counts = tracer.counts
    metrics = {
        "transport.lp.calls": (summary["transport.solve_transport"]["calls"], "count"),
        "transport.lp.vars": (counts["transport.solve_transport.vars"], "count"),
        "transport.lp.build_s": (summary["transport.solve_transport"]["self_s"], "s"),
        "transport.lp.solve_s": (summary["transport.linprog"]["total_s"], "s"),
        "transport.lp.extract_s": (
            sum(summary[name]["self_s"] for name in LP_CALLERS)
            + tracer.time_under("transport.make_plan", LP_CALLERS),
            "s",
        ),
        "transport.lp.fail": (counts["transport.solve_transport.raised"], "count"),
    }
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (summary[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (summary[name]["self_s"], "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (summary[name]["self_s"], "s")
    for name in WORK_COUNTS:
        metrics[name] = (counts[name], "count")
    for layer in LAYERS:
        layer_self = sum(row["self_s"] for name, row in summary.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (layer_self, "s")
    metrics["bench.self_s"] = (wall - tracer.root_time(), "s")
    metrics["bench.traced_wall_s"] = (wall, "s")
    metrics["bench.ops"] = (ops, "count")
    metrics["bench.spans"] = (len(tracer.names), "count")
    metrics["bench.tracing_overhead_s"] = (span_cost * len(tracer.names), "s")
    return metrics


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""

    def noop():
        return None

    best = float("inf")
    for _ in range(3):
        traced = Tracer().wrap("probe.noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
