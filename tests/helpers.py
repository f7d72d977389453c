"""Shared test oracles, deliberately implemented unlike the library code.

The pushforward oracle integrates on a brute-force midpoint grid instead of
interval refinement; the rank-binning oracle spreads CDF intervals instead of
ranking samples.  Where a grid oracle is used with aligned resolutions the
comparison is exact, not approximate.
"""

from __future__ import annotations

import math

import numpy as np

from copula_ot.copulas import CHECKERBOARD, COUNTERMONOTONE, Copula


def grid_pushforward(copula: Copula, groups, g: int) -> dict:
    """Pushforward via a g-per-axis midpoint grid.

    Exact whenever g is a common multiple of the checkerboard resolution and
    of all denominators of the marginals' cumulative weights, because then no
    grid cell straddles a density or quantile breakpoint.
    """
    n = copula.n
    mids = (np.arange(g) + 0.5) / g
    out: dict = {}
    if copula.variant == CHECKERBOARD:
        k = copula.k
        for idx in np.ndindex(*(g,) * n):
            u = mids[list(idx)]
            cells = np.minimum((u * k).astype(int), k - 1)
            density = copula.masses[tuple(cells)] * float(k) ** n
            if density == 0.0:
                continue
            key = tuple(
                tuple(gm[d].quantile(float(u[d])) for d in range(n)) for gm in groups
            )
            out[key] = out.get(key, 0.0) + density / float(g) ** n
    else:
        reflect = copula.variant == COUNTERMONOTONE
        for t in range(g):
            u = float(mids[t])
            key = tuple(
                tuple(
                    gm[d].quantile(1.0 - u if (reflect and d == 1) else u)
                    for d in range(n)
                )
                for gm in groups
            )
            out[key] = out.get(key, 0.0) + 1.0 / g
    return out


def merge_rows_oracle(rows, weights) -> list[tuple[tuple[float, ...], float]]:
    """Dict-of-rows merge: fsum the weights of each distinct row, drop zero totals.

    Returns (row, weight) pairs in lexicographic row order.
    """
    groups: dict = {}
    for row, w in zip(np.asarray(rows).tolist(), np.asarray(weights).tolist()):
        groups.setdefault(tuple(row), []).append(w)
    merged = ((row, math.fsum(ws)) for row, ws in groups.items())
    return sorted((row, w) for row, w in merged if w != 0.0)


def measure_as_dict(measure) -> dict:
    if hasattr(measure, "to_multivariate"):
        measure = measure.to_multivariate()
    return {tuple(a): w for a, w in zip(measure.atoms.tolist(), measure.weights.tolist())}


def same_measure(left, right) -> bool:
    """Exact equality of both arrays, the atoms and the weights."""
    return np.array_equal(left.atoms, right.atoms) and np.array_equal(left.weights, right.weights)


def plan_as_dict(plan) -> dict:
    return {
        (tuple(x), tuple(y)): float(w)
        for x, y, w in zip(plan.x, plan.y, plan.w)
    }


def dicts_close(left: dict, right: dict, tol: float) -> bool:
    if set(left) != set(right):
        return False
    return all(abs(left[k] - right[k]) <= tol for k in left)


def rank_bin_copula(measure, k: int) -> np.ndarray:
    """Checkerboard extension of a discrete measure's rank structure.

    Each atom occupies the box of CDF intervals (F_d(x_d-), F_d(x_d)] and its
    mass is spread uniformly over that box, then binned into the k-grid by
    interval overlap.  Handles repeated coordinate values, which the
    library's sample-based empirical fit deliberately rejects.
    """
    n = measure.dimension
    arr = measure.atoms
    w = measure.weights
    edges = np.arange(k + 1) / k
    intervals = []
    for d in range(n):
        marginal = measure.marginal(d + 1)
        cum = np.concatenate([[0.0], marginal.cum_weights])
        index_of = {a: t for t, a in enumerate(marginal.atoms.tolist())}
        idx = np.array([index_of[x] for x in arr[:, d]])
        intervals.append((cum[idx], cum[idx + 1]))
    tensor = np.zeros((k,) * n)
    for r in range(len(w)):
        box = None
        for d in range(n):
            lo = intervals[d][0][r]
            hi = intervals[d][1][r]
            overlap = np.clip(
                np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1]), 0.0, None
            ) / (hi - lo)
            box = overlap if box is None else np.multiply.outer(box, overlap)
        tensor += w[r] * box
    return tensor


def cdf_area_w1(mu, rho) -> float:
    """Independent p=1 oracle: integral of |F_mu - F_rho| between the CDFs."""
    points = np.unique(np.concatenate([mu.atoms, rho.atoms]))
    total = 0.0
    for left, right in zip(points[:-1], points[1:]):
        total += abs(mu.cdf(float(left)) - rho.cdf(float(left))) * (right - left)
    return float(total)


def fd_cross_partial(p: float, q: float, u1: float, u2: float, h: float = 1e-5) -> float:
    """Central finite difference of the surrogate -(u1^q + u2^q)^{p/q}.

    Noise floor is roughly eps / h^2, about 2e-6 for h = 1e-5, so callers
    should not compare tighter than that in absolute terms.
    """

    def surrogate(a, b):
        return -((a**q + b**q) ** (p / q))

    return (
        surrogate(u1 + h, u2 + h)
        - surrogate(u1 + h, u2 - h)
        - surrogate(u1 - h, u2 + h)
        + surrogate(u1 - h, u2 - h)
    ) / (4 * h * h)
