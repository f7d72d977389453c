"""The benchmark's workloads: seeded inputs, warm-up, the timed op and its check.

Each workload exposes

* ``generate(seed)``: the list of op inputs, built before timing starts; the
  closed loop cycles through it;
* ``warm_items(items)``: inputs of a few small untimed ops that load lazy
  code paths before timing, checked like timed ones;
* ``op(item)``: one certified unit of work, timed;
* ``check(item, output)``: the correctness gate, run outside the timed region.

Ops call the library through module attributes (``instances.evaluate_instance``,
not a name bound at import time) so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import numpy as np

from copula_ot import copulas, counterexample, instances

GAP_PAIRS = ((2.0, 1.0), (1.0, 2.0))


def significant_gap(report) -> bool:
    return report.gap > counterexample.GAP_SIGNIFICANCE * max(1.0, report.diamond_cost)


class Certify:
    """`copula-ot verify` defaults: one op is one campaign instance at p = q."""

    name = "certify"
    warm_ops = 20

    def __init__(self):
        defaults = instances.VerifyConfig()
        self.tol = defaults.rel_opt_tol
        self.pair_cap = defaults.pair_cap

    def generate(self, seed: int) -> list:
        config = instances.VerifyConfig(seed=seed)
        items = list(instances.iter_campaign(config))
        # A seeded shuffle makes every prefix of the loop a mix of all
        # (n, p) settings, so the op rate does not depend on where it stops.
        order = np.random.default_rng(seed).permutation(len(items))
        return [items[i] for i in order]

    def warm_items(self, items) -> list:
        return items[: self.warm_ops]

    def op(self, item):
        n, p, q, t, copula, mu_m, rho_m = item
        return instances.evaluate_instance(copula, mu_m, rho_m, p, q, self.pair_cap)

    def check(self, item, output) -> bool:
        diamond_cost, exact_cost = output
        return abs(diamond_cost - exact_cost) / max(1.0, abs(exact_cost)) <= self.tol


class GapExact:
    """`copula-ot counterexample` at (2, 1) then (1, 2), k = 16, exact certificate on.

    The inputs are the paper's fixed construction; the seed does not change them.
    """

    name = "gap-exact"
    resolution = 16
    warm_resolution = 4
    attach_exact = True

    def generate(self, seed: int) -> list:
        return [copulas.independence(2, self.resolution)]

    def warm_items(self, items) -> list:
        return [copulas.independence(2, self.warm_resolution)]

    def op(self, copula):
        return [
            counterexample.gap_search(copula, p, q, attach_exact=self.attach_exact)
            for p, q in GAP_PAIRS
        ]

    def check(self, item, reports) -> bool:
        return all(
            significant_gap(r)
            and r.exact_cost is not None
            and r.exact_cost <= r.alt_cost * (1.0 + 1e-9)
            for r in reports
        )


class GapSweep(GapExact):
    """One `scripts/gap_curve.py --skip-exact` step at k = 48: no LP at all."""

    name = "gap-sweep"
    resolution = 48
    attach_exact = False

    def check(self, item, reports) -> bool:
        return all(significant_gap(r) and r.exact_cost is None for r in reports)


WORKLOADS = {w.name: w for w in (Certify, GapExact, GapSweep)}
