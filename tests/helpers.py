"""Shared test oracles, plus the copula and transport functions only tests use.

The oracles are deliberately implemented unlike the library code.  The
pushforward oracle integrates on a brute-force midpoint grid instead of
interval refinement; the rank-binning oracle spreads CDF intervals instead of
ranking samples.  Where a grid oracle is used with aligned resolutions the
comparison is exact, not approximate.

The rest of the module is API that no CLI path, campaign or gap search
needs: the copula CDF and the Frechet bounds, the rank-based empirical
copula, the pointwise cost, the inner-product score and its maximizer, the
1-D view of a one-dimensional measure, positive affine maps of a measure's
coordinates, the canonical plan of weighted point pairs (``make_plan``), the
gap construction's measures and plans at one epsilon (``construction_at``),
and reading a plan file back.  Their own tests and acceptance criteria 8 and
9 use them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from scipy import optimize

from copula_ot.copulas import (
    CHECKERBOARD,
    COMONOTONE,
    COUNTERMONOTONE,
    Copula,
    checkerboard,
)
from copula_ot.counterexample import PairSkeleton, _scaled_sides
from copula_ot.measures import (
    DiscreteMeasure1D,
    MultivariateMeasure,
    _checked_rows,
    _number_array,
    group_rows,
    make_measure,
    merge_weighted_rows,
)
from copula_ot.transport import (
    CostSpec,
    OTResult,
    TransportPlan,
    plan_from_indices,
    solve_transport,
)


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


def plan_rows_oracle(x, y, weights) -> list[tuple[tuple[float, ...], tuple[float, ...], float]]:
    """Dict-of-pairs merge of plan rows: fsum each distinct (x, y), drop zero totals.

    Returns (x, y, weight) triples in lexicographic (x, y) order.
    """
    groups: dict = {}
    for xr, yr, w in zip(np.asarray(x).tolist(), np.asarray(y).tolist(), np.asarray(weights).tolist()):
        groups.setdefault((tuple(xr), tuple(yr)), []).append(w)
    merged = ((xr, yr, math.fsum(ws)) for (xr, yr), ws in groups.items())
    return sorted(row for row in merged if row[2] != 0.0)


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


# The feasibility tolerances ``exact_ot`` uses.  At HiGHS's defaults the
# optimum can come back 5e-9 high when atoms sit 1e-8 apart.
LP_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def lp_reference(row_weights, col_weights, cost) -> tuple[float, float]:
    """HiGHS optimum of the transport LP and a weak-duality lower bound on it.

    Calls ``scipy.optimize.linprog`` directly, with a dense constraint matrix
    and ``LP_TOLERANCES``, so the reference never passes through the
    library's solver dispatch.  The bound holds for any potentials u, v: for
    a coupling P with row sums a,
    <c, P> = a.u + b.v + sum_ij P_ij (c_ij - u_i - v_j)
          >= a.u + b.v + sum_i a_i min(0, min_j (c_ij - u_i - v_j)),
    so rounding in HiGHS's duals (``eqlin.marginals``) only loosens it.
    """
    a = np.asarray(row_weights, dtype=float)
    b = np.asarray(col_weights, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, k = cost.shape
    constraints = np.vstack([np.kron(np.eye(m), np.ones(k)), np.kron(np.ones(m), np.eye(k))])
    res = optimize.linprog(
        cost.ravel(),
        A_eq=constraints,
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
        options=LP_TOLERANCES,
    )
    assert res.status == 0, res.message
    u = res.eqlin.marginals[:m]
    v = res.eqlin.marginals[m:]
    slack = np.minimum(0.0, (cost - u[:, None] - v[None, :]).min(axis=1))
    return float(res.fun), float(a @ u + b @ v + a @ slack)


def rank_bin_copula(measure, k: int) -> np.ndarray:
    """Checkerboard extension of a discrete measure's rank structure.

    Each atom occupies the box of CDF intervals (F_d(x_d-), F_d(x_d)] and its
    mass is spread uniformly over that box, then binned into the k-grid by
    interval overlap.  Handles repeated coordinate values, which the
    sample-based :func:`empirical_copula` below deliberately rejects.
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


def frechet_lower(u: Sequence[float]) -> float:
    return max(0.0, math.fsum(u) - (len(u) - 1))


def frechet_upper(u: Sequence[float]) -> float:
    return min(u)


def _check_unit_point(u: Sequence[float], n: int) -> np.ndarray:
    pt = np.asarray(u, dtype=float)
    if pt.shape != (n,):
        raise ValueError(f"expected a point in [0,1]^{n}, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)) or np.any(pt < 0) or np.any(pt > 1):
        raise ValueError(f"point {u!r} is outside the unit cube")
    return pt


def copula_cdf(copula: Copula, u: Sequence[float]) -> float:
    """C(u) = mass of the box [0, u_1] x ... x [0, u_n]."""
    pt = _check_unit_point(u, copula.n)
    if copula.variant == COMONOTONE:
        return float(np.min(pt))
    if copula.variant == COUNTERMONOTONE:
        return max(0.0, float(pt[0] + pt[1] - 1.0))
    k = copula.k
    # overlap of [0, u] with cell r is clip(u*k - r, 0, 1) of the cell width
    t = np.asarray(copula.masses, dtype=float)
    for coord in pt:
        overlap = np.clip(coord * k - np.arange(k), 0.0, 1.0)
        t = np.tensordot(overlap, t, axes=(0, 0))
    return float(t)


def frechet_check(copula: Copula, grid: int) -> bool:
    """Lower bound <= C <= upper bound on the (grid+1)^n lattice."""
    if grid < 1:
        raise ValueError("frechet_check: grid must be >= 1")
    levels = np.linspace(0.0, 1.0, grid + 1)
    for idx in np.ndindex(*(len(levels),) * copula.n):
        u = [float(levels[i]) for i in idx]
        c = copula_cdf(copula, u)
        if c < frechet_lower(u) - 1e-12 or c > frechet_upper(u) + 1e-12:
            return False
    return True


def empirical_copula(measure: MultivariateMeasure, k: int) -> Copula:
    """Checkerboard fit of the rank structure of a uniform-weight sample.

    Requires equal weights 1/N, no ties within any coordinate, and k | N, so
    every bin receives exactly N/k points per axis and the result passes the
    uniform-margin validation exactly.
    """
    count = len(measure)
    if k < 1:
        raise ValueError("empirical_copula: resolution must be >= 1")
    if count % k != 0:
        raise ValueError(f"empirical_copula: bin count {k} must divide the sample size {count}")
    if np.max(np.abs(measure.weights - 1.0 / count)) > 1e-12:
        raise ValueError("empirical_copula: sample weights must all equal 1/N")
    pts = measure.atoms
    n = measure.dimension
    bins = np.empty((count, n), dtype=int)
    for d in range(n):
        col = pts[:, d]
        if len(np.unique(col)) != count:
            raise ValueError(f"empirical_copula: ties in coordinate {d + 1}")
        ranks = np.empty(count, dtype=int)
        ranks[np.argsort(col)] = np.arange(count)
        # midrank pseudo-observation (r + 0.5)/N lands in bin (2r+1)k // 2N
        bins[:, d] = (2 * ranks + 1) * k // (2 * count)
    tensor = np.zeros((k,) * n)
    np.add.at(tensor, tuple(bins[:, d] for d in range(n)), 1.0 / count)
    return checkerboard(n, k, tensor)


def norm_cost(x: Sequence[float], y: Sequence[float], spec: CostSpec) -> float:
    """||x - y||_q^p for a single pair of points."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"norm_cost: mismatched point shapes {a.shape} vs {b.shape}")
    return float(np.sum(np.abs(a - b) ** spec.q) ** (spec.p / spec.q))


def fsum_plan_cost(plan: TransportPlan, spec: CostSpec) -> float:
    """Plan cost as row sums by ``np.sum(axis=1)`` and one ``math.fsum`` over the rows."""
    per_row = np.sum(np.abs(plan.x - plan.y) ** spec.q, axis=1) ** (spec.p / spec.q)
    return math.fsum(plan.w * per_row)


def inner_product_score(plan: TransportPlan) -> float:
    """Integral of <x, y> against the plan."""
    return math.fsum(plan.w * np.sum(plan.x * plan.y, axis=1))


def max_inner_product(mu: MultivariateMeasure, rho: MultivariateMeasure) -> OTResult:
    """Maximize the integral of <x, y> over the transport polytope.

    Minimizes -<x, y> with the library's ``solve_transport``, so uniform
    equal-size supports take its assignment path and the rest its LP.
    Entries at or below 1e-15 are dropped, as ``exact_ot`` does.
    """
    X = mu.atoms
    Y = rho.atoms
    P = solve_transport(mu.weights, rho.weights, -(X @ Y.T))
    keep = P > 1e-15
    ri, ci = np.nonzero(keep)
    plan = make_plan(X[ri], Y[ci], P[keep])
    return OTResult(value=inner_product_score(plan), plan=plan)


def as_1d(measure: MultivariateMeasure) -> DiscreteMeasure1D:
    """The same one-dimensional measure as a DiscreteMeasure1D."""
    if measure.dimension != 1:
        raise ValueError(f"as_1d: measure has dimension {measure.dimension}")
    return DiscreteMeasure1D(atoms=measure.atoms[:, 0], weights=measure.weights)


def map_coordinates(measure: MultivariateMeasure, maps: Sequence[tuple[float, float]]) -> MultivariateMeasure:
    """Apply x_i -> a_i * x_i + b_i per coordinate; a_i must be positive."""
    if len(maps) != measure.dimension:
        raise ValueError(f"map_coordinates: expected {measure.dimension} maps, got {len(maps)}")
    scale = np.array([m[0] for m in maps], dtype=float)
    shift = np.array([m[1] for m in maps], dtype=float)
    if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(shift))):
        raise ValueError("map_coordinates: coefficients must be finite")
    if np.any(scale <= 0):
        raise ValueError("map_coordinates: scale factors must be positive")
    return make_measure(measure.atoms * scale + shift, measure.weights)


def make_plan(x, y, w) -> TransportPlan:
    """Canonical plan of the rows (x_r, y_r, w_r), w_r >= 0.

    Repeated (x, y) pairs are merged and zero weights dropped as the measure
    constructors do (``merge_weighted_rows``), so an atom carried only by
    zero weights vanishes.  Each side's atoms and indices come from
    ``group_rows`` of its points, so the plan is built from floats alone, by
    a path independent of ``diamond``'s atom indices.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ValueError(f"make_plan: inconsistent shapes x={x.shape}, y={y.shape}")
    xy, w = _checked_rows(np.column_stack([x, y]), w, ndims=(2,))
    rows, w = merge_weighted_rows(xy, w)
    n = rows.shape[1] // 2
    source, i = group_rows(rows[:, :n])
    target, j = group_rows(rows[:, n:])
    return plan_from_indices(source, target, i, j, w)


def plan_from_dict(obj: dict) -> TransportPlan:
    """The plan of a JSON object in the ``{"entries": [{"x", "y", "w"}, ...]}`` shape."""
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("plan: expected a JSON object with an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("plan: entries must be a nonempty list")
    for e in entries:
        if not isinstance(e, dict) or {"x", "y", "w"} - e.keys():
            raise ValueError("plan: each entry needs fields x, y, w")
    return make_plan(
        *(_number_array([e[name] for e in entries], f"plan: {name}") for name in ("x", "y", "w"))
    )


def fsum_lengths(monkeypatch) -> list[int]:
    """Record the length of every ``math.fsum`` call from now on."""
    lengths = []
    real = math.fsum

    def counted(values):
        values = list(values)
        lengths.append(len(values))
        return real(values)

    monkeypatch.setattr(math, "fsum", counted)
    return lengths


class Construction(NamedTuple):
    """The gap construction at one epsilon: both measures and both competitor plans."""

    mu: MultivariateMeasure
    rho: MultivariateMeasure
    diamond_plan: TransportPlan
    alt_plan: TransportPlan


def construction_at(skeleton: PairSkeleton, epsilon: float) -> Construction:
    """Both scaled measures and both plans of the construction at ``epsilon``.

    The measures are the scaled atoms of ``_scaled_sides`` with the law's
    weights, the ones ``gap_search`` hands its exact certificate.  The plans
    are the skeleton plans' rows (i, j, w) on those atoms, built and checked
    by ``plan_from_indices``; the library builds no plan at any epsilon.
    """
    _, (source, target) = _scaled_sides(skeleton, epsilon)
    weights = skeleton.law.weights
    diamond_plan, alt_plan = (
        plan_from_indices(source, target, plan.i, plan.j, plan.w)
        for plan in (skeleton.diamond_plan, skeleton.alt_plan)
    )
    return Construction(
        mu=MultivariateMeasure(atoms=source, weights=weights),
        rho=MultivariateMeasure(atoms=target, weights=weights),
        diamond_plan=diamond_plan,
        alt_plan=alt_plan,
    )
