"""End-to-end acceptance battery.

Each test here covers one numbered acceptance criterion, registers a
PASS/FAIL line with the summary hook in conftest.py, and pins its own
tolerances.  The campaign fixture is shared: it runs the full randomized
certification once per session and keeps every intermediate object so the
later criteria can reuse plans, measures, and copulas without re-solving.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import record_criterion
from copula_ot.cli import main
from copula_ot.copulas import (
    Copula,
    comonotone,
    countermonotone,
    discretize,
    independence,
    sklar_compose,
)
from copula_ot.counterexample import gap_search, monge_cross_partial
from copula_ot.instances import VerifyConfig, iter_campaign
from copula_ot.measures import (
    DiscreteMeasure1D,
    MultivariateMeasure,
    make_measure,
    make_measure_1d,
    measures_close,
)
from copula_ot.transport import (
    CostSpec,
    TransportPlan,
    diamond,
    exact_ot,
    plan_cost,
    separable_dual_bound,
    validate_plan,
    wasserstein_1d,
)

from helpers import (
    empirical_copula,
    fd_cross_partial,
    frechet_check,
    inner_product_score,
    map_coordinates,
    max_inner_product,
)


@dataclass(frozen=True)
class CampaignRecord:
    n: int
    p: float
    q: float
    instance: int
    copula: Copula
    mu_marginals: tuple[DiscreteMeasure1D, ...]
    rho_marginals: tuple[DiscreteMeasure1D, ...]
    mu: MultivariateMeasure
    rho: MultivariateMeasure
    plan: TransportPlan
    diamond_cost: float
    exact_cost: float


@pytest.fixture(scope="session")
def campaign() -> list[CampaignRecord]:
    config = VerifyConfig(seed=42, instances=200)
    records = []
    for n, p, q, t, copula, mu_m, rho_m in iter_campaign(config):
        spec = CostSpec(p, q)
        plan = diamond(copula, mu_m, rho_m)
        mu = sklar_compose(copula, mu_m)
        rho = sklar_compose(copula, rho_m)
        result = exact_ot(mu, rho, spec, config.pair_cap)
        records.append(
            CampaignRecord(
                n=n,
                p=p,
                q=q,
                instance=t,
                copula=copula,
                mu_marginals=tuple(mu_m),
                rho_marginals=tuple(rho_m),
                mu=mu,
                rho=rho,
                plan=plan,
                diamond_cost=plan_cost(plan, spec),
                exact_cost=result.value,
            )
        )
    assert len(records) == 1200
    return records


def test_criterion_1_quantile_coupling_is_optimal_at_equal_exponents(campaign):
    description = (
        "1200-instance campaign (seed 42): quantile-coupling cost matches the "
        "LP optimum within 1e-8 relative at p = q"
    )
    worst = max(
        abs(r.diamond_cost - r.exact_cost) / max(1.0, abs(r.exact_cost))
        for r in campaign
    )
    record_criterion(1, description, worst <= 1e-8, f"max rel err {worst:.3e}")
    assert worst <= 1e-8


def test_separable_certificate_agrees_with_the_lp_on_the_campaign(campaign):
    # verify certifies with these staircase duals; criterion 1 stays the
    # independent LP check, and this ties the two together instance by instance
    for r in campaign:
        bound, violation = separable_dual_bound(r.plan, r.p)
        assert violation == 0.0, r
        assert abs(bound - r.exact_cost) <= 1e-8 * max(1.0, abs(r.exact_cost)), r
        assert bound <= r.diamond_cost + 1e-12 * max(1.0, abs(r.diamond_cost)), r
        assert validate_plan(r.plan, r.mu, r.rho), r


def test_criterion_2_univariate_closed_form_matches_lp():
    description = (
        "500 random univariate pairs, p in {1,2,3}: quantile-integral cost "
        "equals the LP cost within 1e-10"
    )
    rng = np.random.default_rng([42, 101])
    worst = 0.0
    for _ in range(500):
        sizes = rng.integers(1, 7, size=2)
        mu = make_measure_1d(
            rng.normal(scale=2.0, size=sizes[0]), rng.random(sizes[0]) + 0.1
        )
        rho = make_measure_1d(
            rng.normal(scale=2.0, size=sizes[1]), rng.random(sizes[1]) + 0.1
        )
        for p in (1.0, 2.0, 3.0):
            closed = wasserstein_1d(mu, rho, p)
            lp = exact_ot(mu.to_multivariate(), rho.to_multivariate(), CostSpec(p, p))
            worst = max(worst, abs(closed - lp.value) / max(1.0, abs(lp.value)))
    record_criterion(2, description, worst <= 1e-10, f"max rel err {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_3_cost_separates_across_coordinates(campaign):
    description = (
        "campaign instances: sum of per-coordinate univariate costs equals "
        "the joint optimum within 1e-8 at p = q"
    )
    worst = 0.0
    for r in campaign:
        separated = math.fsum(
            wasserstein_1d(m, s, r.p) for m, s in zip(r.mu_marginals, r.rho_marginals)
        )
        worst = max(worst, abs(separated - r.exact_cost) / max(1.0, abs(r.exact_cost)))
    record_criterion(3, description, worst <= 1e-8, f"max rel err {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_4_gap_at_p2_q1_on_uniform_grid():
    description = (
        "shrink schedule at p=2, q=1 over the 16-cell uniform grid: limit "
        "costs match closed forms within 2e-3 and the accepted gap exceeds 0.05"
    )
    report = gap_search(independence(2, 16), 2.0, 1.0)
    failures = []
    if abs(report.limit_diamond - 7.0 / 6.0) > 2e-3:
        failures.append(f"limit_diamond {report.limit_diamond}")
    if abs(report.limit_alt - 1.0) > 2e-3:
        failures.append(f"limit_alt {report.limit_alt}")
    if not report.gap > 0.05:
        failures.append(f"gap {report.gap}")
    record_criterion(
        4,
        description,
        not failures,
        f"gap {report.gap:.6f}, limits {report.limit_diamond:.6f}/{report.limit_alt:.6f}",
    )
    assert not failures, failures


def test_criterion_5_gap_at_p1_q2_on_uniform_grid():
    description = (
        "shrink schedule at p=1, q=2: limit costs match closed forms within "
        "2e-3, acceptance stays on the schedule, the exact optimum certifies the competitor"
    )
    report = gap_search(independence(2, 16), 1.0, 2.0)
    diamond_limit = (math.sqrt(2.0) + math.asinh(1.0)) / 3.0
    alt_limit = math.sqrt(2.0) / 2.0
    failures = []
    if abs(report.limit_diamond - diamond_limit) > 2e-3:
        failures.append(f"limit_diamond {report.limit_diamond} vs {diamond_limit}")
    if abs(report.limit_alt - alt_limit) > 2e-3:
        failures.append(f"limit_alt {report.limit_alt} vs {alt_limit}")
    if not report.epsilon >= 0.5 * 2.0**-15:
        failures.append(f"epsilon {report.epsilon}")
    if report.exact_cost is None:
        failures.append("exact cost missing")
    elif not report.exact_cost <= report.alt_cost < report.diamond_cost:
        failures.append(
            f"ordering {report.exact_cost} <= {report.alt_cost} < {report.diamond_cost}"
        )
    record_criterion(
        5,
        description,
        not failures,
        f"gap {report.gap:.6f} at epsilon {report.epsilon:.3e}",
    )
    assert not failures, failures


def test_criterion_6_search_refuses_unviolating_copulas(tmp_path):
    description = (
        "CLI counterexample search: extremal copulas exit 4 in their "
        "protected direction and succeed in the violating one"
    )
    out = str(tmp_path / "report.json")
    runs = [
        (["counterexample", "--p", "1", "--q", "2", "--copula", "comonotone",
          "--n", "2", "--out", out], 4),
        (["counterexample", "--p", "1", "--q", "2", "--copula", "comonotone",
          "--n", "3", "--out", out], 4),
        (["counterexample", "--p", "2", "--q", "1", "--copula", "countermonotone",
          "--out", out], 4),
        (["counterexample", "--p", "2", "--q", "1", "--copula", "comonotone",
          "--n", "3", "--out", out], 0),
    ]
    observed = [main(argv) for argv, _ in runs]
    expected = [code for _, code in runs]
    record_criterion(
        6, description, observed == expected, f"exit codes {observed} vs {expected}"
    )
    assert observed == expected


def test_criterion_7_mixed_partial_sign_and_value():
    description = (
        "10000 sampled exponent pairs: the cross-partial matches finite "
        "differences and its sign matches sign(q - p), zero at p = q"
    )
    rng = np.random.default_rng([42, 7])
    failures = []
    for i in range(10_000):
        p, q = rng.uniform(1.0, 3.5, size=2)
        u1, u2 = rng.uniform(0.05, 0.95, size=2)
        value = monge_cross_partial(p, q, u1, u2)
        if math.copysign(1.0, value) != math.copysign(1.0, q - p) and value != 0.0:
            failures.append(f"sign at p={p} q={q}")
        if i < 500 and abs(q - p) > 0.1:
            fd = fd_cross_partial(p, q, u1, u2)
            if abs(value - fd) > 1e-4 * max(1.0, abs(value)):
                failures.append(f"fd mismatch {value} vs {fd} at p={p} q={q}")
    for _ in range(100):
        p = rng.uniform(1.0, 3.5)
        u1, u2 = rng.uniform(0.05, 0.95, size=2)
        if monge_cross_partial(p, p, u1, u2) != 0.0:
            failures.append(f"nonzero at p=q={p}")
    record_criterion(7, description, not failures, f"{len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_8_quadratic_cost_maximizes_correlation(campaign):
    description = (
        "400 campaign instances at p=2: the quantile coupling attains the "
        "maximal inner-product score within 1e-8"
    )
    quadratic = [r for r in campaign if r.p == 2.0 and r.q == 2.0]
    worst = 0.0
    for r in quadratic:
        score = inner_product_score(r.plan)
        best = max_inner_product(r.mu, r.rho).value
        worst = max(worst, abs(score - best) / max(1.0, abs(best)))
    passed = len(quadratic) == 400 and worst <= 1e-8
    record_criterion(
        8, description, passed, f"{len(quadratic)} instances, max rel err {worst:.3e}"
    )
    assert passed


def test_criterion_9_structural_battery(campaign):
    description = (
        "copula bounds on a 10^n lattice, marginal recovery after "
        "composition, rank invariance under affine maps, plan validation"
    )
    failures = []

    rng = np.random.default_rng([42, 9])
    sample = make_measure(rng.normal(size=(24, 2)), np.full(24, 1.0))
    fixed = [
        independence(2, 4),
        independence(3, 2),
        comonotone(2),
        comonotone(3),
        countermonotone(),
        discretize(comonotone(2), 8),
        discretize(countermonotone(), 8),
        empirical_copula(sample, 8),
    ]
    for copula in fixed:
        if not frechet_check(copula, 9):
            failures.append(f"bounds violated: {copula.describe()}")
    for r in campaign[::10]:
        if not frechet_check(r.copula, 9):
            failures.append(f"bounds violated: campaign n={r.n} t={r.instance}")

    for r in campaign[::25]:
        for i, expected in enumerate(r.mu_marginals, start=1):
            got = r.mu.marginal(i)
            if not measures_close(got.to_multivariate(), expected.to_multivariate(), 1e-12):
                failures.append(f"marginal {i} drift: n={r.n} t={r.instance}")

    mapped = map_coordinates(sample, [(2.5, -1.0), (0.5, 3.0)])
    if not np.array_equal(
        np.asarray(empirical_copula(sample, 8).masses),
        np.asarray(empirical_copula(mapped, 8).masses),
    ):
        failures.append("empirical copula changed under a positive affine map")

    for r in campaign[::20]:
        if not validate_plan(r.plan, r.mu, r.rho):
            failures.append(f"plan invalid: n={r.n} p={r.p} t={r.instance}")

    record_criterion(9, description, not failures, f"{len(failures)} failures")
    assert not failures, failures[:5]
