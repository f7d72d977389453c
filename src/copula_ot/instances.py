"""Random instances and the verification campaign.

Instances are built to keep every arithmetic step well inside float range:
checkerboards are mixtures of permutation patterns with small integer layer
weights, and marginals carry small integer atoms with integer weights on a
common denominator of at most 64.  Streams are derived per (setting,
instance) from the campaign seed, so any row of a campaign can be rebuilt in
isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .copulas import Copula, checkerboard, sklar_compose
from .measures import DiscreteMeasure1D, make_measure_1d
from .transport import (
    DEFAULT_PAIR_CAP,
    CostSpec,
    diamond,
    exact_ot,
    plan_cost,
    separable_dual_bound,
)


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 42
    instances: int = 200
    dimensions: tuple[int, ...] = (2, 3)
    exponents: tuple[float, ...] = (1.0, 2.0, 3.0)
    # None runs the optimality certification p = q; (p, q) runs a smoke
    # campaign at those exponents instead.
    exponent_pair: tuple[float, float] | None = None
    max_resolution: int = 4
    max_marginal_atoms: int = 5
    pair_cap: int = DEFAULT_PAIR_CAP
    rel_opt_tol: float = 1e-8


@dataclass(frozen=True)
class VerifyRow:
    instance: int
    n: int
    p: float
    q: float
    diamond_cost: float
    exact_cost: float
    rel_err: float


def settings(config: VerifyConfig) -> list[tuple[int, float, float]]:
    if config.exponent_pair is not None:
        p, q = config.exponent_pair
        return [(n, float(p), float(q)) for n in config.dimensions]
    return [(n, float(p), float(p)) for n in config.dimensions for p in config.exponents]


def instance_rng(seed: int, setting_index: int, instance_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, setting_index, instance_index])


def random_copula(rng: np.random.Generator, n: int, k: int) -> Copula:
    """Mixture of permutation-pattern layers: uniform margins by construction."""
    layers = int(rng.integers(1, 5))
    layer_weights = rng.integers(1, 17, size=layers)
    total = float(layer_weights.sum())
    tensor = np.zeros((k,) * n)
    base = np.arange(k)
    for weight in layer_weights:
        coords = [base] + [rng.permutation(k) for _ in range(n - 1)]
        tensor[tuple(coords)] += float(weight) / (total * k)
    return checkerboard(n, k, tensor)


def random_marginal(rng: np.random.Generator, max_atoms: int = 5) -> DiscreteMeasure1D:
    count = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.choice(7, size=count, replace=False)) - 3.0
    weights = rng.integers(1, 13, size=count).astype(float)
    return make_measure_1d(atoms, weights)


def random_shared_pair(
    rng: np.random.Generator,
    n: int,
    max_resolution: int = 4,
    max_marginal_atoms: int = 5,
) -> tuple[Copula, list[DiscreteMeasure1D], list[DiscreteMeasure1D]]:
    """A copula plus source and target marginal tuples sharing it."""
    k = int(rng.integers(1, max_resolution + 1))
    copula = random_copula(rng, n, k)
    mu_marginals = [random_marginal(rng, max_marginal_atoms) for _ in range(n)]
    rho_marginals = [random_marginal(rng, max_marginal_atoms) for _ in range(n)]
    return copula, mu_marginals, rho_marginals


def iter_campaign(
    config: VerifyConfig,
) -> Iterator[tuple[int, float, float, int, Copula, list[DiscreteMeasure1D], list[DiscreteMeasure1D]]]:
    """Yields (n, p, q, instance_index, copula, mu_marginals, rho_marginals)."""
    for setting_index, (n, p, q) in enumerate(settings(config)):
        for t in range(config.instances):
            rng = instance_rng(config.seed, setting_index, t)
            copula, mu_m, rho_m = random_shared_pair(
                rng, n, config.max_resolution, config.max_marginal_atoms
            )
            yield n, p, q, t, copula, mu_m, rho_m


def evaluate_instance(
    copula: Copula,
    mu_marginals: Sequence[DiscreteMeasure1D],
    rho_marginals: Sequence[DiscreteMeasure1D],
    p: float,
    q: float,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> tuple[float, float]:
    """(quantile-coupling cost, exact cost) for one shared-copula instance.

    At p = q the exact cost is :func:`separable_dual_bound` of the quantile
    coupling: a certified lower bound on the optimum between the plan's
    marginals, from per-coordinate staircase potentials.  It forms no atom
    pairs, so ``pair_cap`` applies only at p != q, where the two joint laws
    are composed and solved with :func:`exact_ot`.
    """
    spec = CostSpec(p, q)
    plan = diamond(copula, mu_marginals, rho_marginals)
    if p == q:
        bound, _ = separable_dual_bound(plan, p)
        return plan_cost(plan, spec), bound
    mu = sklar_compose(copula, mu_marginals)
    rho = sklar_compose(copula, rho_marginals)
    result = exact_ot(mu, rho, spec, pair_cap)
    return plan_cost(plan, spec), result.value


def run_verification(config: VerifyConfig) -> list[VerifyRow]:
    """The campaign: quantile coupling vs certified (p = q) or exact cost per instance.

    rel_err compares on the raw p-th-power costs with a max(1, .) guard, so
    costs near zero are judged absolutely.
    """
    rows = []
    for n, p, q, t, copula, mu_m, rho_m in iter_campaign(config):
        diamond_cost, exact_cost = evaluate_instance(
            copula, mu_m, rho_m, p, q, config.pair_cap
        )
        rel_err = abs(diamond_cost - exact_cost) / max(1.0, abs(exact_cost))
        rows.append(
            VerifyRow(
                instance=t,
                n=n,
                p=p,
                q=q,
                diamond_cost=diamond_cost,
                exact_cost=exact_cost,
                rel_err=rel_err,
            )
        )
    return rows
