"""Transport plans, costs, the diamond coupling, and an exact solver.

Costs are always reported as the raw integral of ||x - y||_q^p against the
plan, i.e. the p-th power of the usual transport distance; callers that want
the distance itself take the 1/p root.

``exact_ot`` solves the discrete problem exactly and returns an optimal
vertex of the transport polytope.  When both measures have the same number of
atoms and every weight of both is the same float, the polytope is a scaled
Birkhoff polytope whose vertices are permutations, and the problem is solved
as a linear assignment (Jonker-Volgenant, ``linear_sum_assignment``).  Any
other input is solved as a linear program with the HiGHS dual simplex (tight
feasibility tolerances).  ``diamond`` builds the quantile coupling induced by
a shared copula; for p = q it attains the same optimal value, which is how the
verification campaign certifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .copulas import Copula, push_through_quantiles
from .measures import (
    MASS_TOL,
    DiscreteMeasure1D,
    MultivariateMeasure,
    _checked_rows,
    make_measure,
    measures_close,
    merge_weighted_rows,
)

DEFAULT_PAIR_CAP = 250_000

# Atom-set match is exact; per-atom weight slack when validating marginals.
PLAN_MARGINAL_TOL = 1e-10

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class PairCountCapExceeded(RuntimeError):
    """Raised when an exact solve would need more atom pairs than allowed."""


@dataclass(frozen=True)
class CostSpec:
    """Exponents of the cost ||x - y||_q^p with p, q >= 1."""

    p: float
    q: float

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"CostSpec: {name} must be a finite number")
            if value < 1.0:
                raise ValueError(f"CostSpec: {name} must be >= 1, got {value}")


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Finitely supported coupling: rows (x_r, y_r, w_r) with positive w_r.

    The (x, y) pairs are pairwise distinct and the weights sum to one.  Build
    through :func:`make_plan`, which canonicalizes like the measure
    constructors do.  The plan is immutable, so each marginal is built once.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray

    def __len__(self) -> int:
        return len(self.w)

    @property
    def dimension(self) -> int:
        return self.x.shape[1]

    @cached_property
    def _first_marginal(self) -> MultivariateMeasure:
        return make_measure(self.x, self.w)

    @cached_property
    def _second_marginal(self) -> MultivariateMeasure:
        return make_measure(self.y, self.w)

    def first_marginal(self) -> MultivariateMeasure:
        return self._first_marginal

    def second_marginal(self) -> MultivariateMeasure:
        return self._second_marginal


def make_plan(x, y, w) -> TransportPlan:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ValueError(f"make_plan: inconsistent shapes x={x.shape}, y={y.shape}")
    xy, w = _checked_rows(np.column_stack([x, y]), w, "make_plan: x, y", ndims=(2,))
    rows, merged = merge_weighted_rows(xy, w)
    total = math.fsum(merged)
    if abs(total - 1.0) > MASS_TOL * max(1, len(merged)):
        raise ValueError(f"make_plan: weights sum to {total!r}, expected 1")
    n = xy.shape[1] // 2
    px = rows[:, :n].copy()
    py = rows[:, n:].copy()
    for arr in (px, py, merged):
        arr.flags.writeable = False
    return TransportPlan(x=px, y=py, w=merged)


def plan_cost(plan: TransportPlan, spec: CostSpec) -> float:
    """Integral of ||x - y||_q^p against the plan (fsum accumulation)."""
    per_row = np.sum(np.abs(plan.x - plan.y) ** spec.q, axis=1) ** (spec.p / spec.q)
    return math.fsum(plan.w * per_row)


def validate_plan(
    plan: TransportPlan,
    mu: MultivariateMeasure,
    rho: MultivariateMeasure,
) -> bool:
    """Marginals match (atom sets exactly, weights within PLAN_MARGINAL_TOL)."""
    return measures_close(plan.first_marginal(), mu, PLAN_MARGINAL_TOL) and measures_close(
        plan.second_marginal(), rho, PLAN_MARGINAL_TOL
    )


def diamond(
    copula: Copula,
    mu_marginals: Sequence[DiscreteMeasure1D],
    rho_marginals: Sequence[DiscreteMeasure1D],
) -> TransportPlan:
    """Quantile coupling of the two joint laws built from a shared copula.

    Pushes the copula mass through both quantile tuples at once, pairing
    F_mu^{-1}(u) with F_rho^{-1}(u) box by box; the construction is exact.
    """
    if len(mu_marginals) != len(rho_marginals):
        raise ValueError(
            f"diamond: marginal tuples differ in length, "
            f"{len(mu_marginals)} vs {len(rho_marginals)}"
        )
    groups, masses = push_through_quantiles(copula, [list(mu_marginals), list(rho_marginals)])
    return make_plan(groups[0], groups[1], masses)


def wasserstein_1d(mu: DiscreteMeasure1D, rho: DiscreteMeasure1D, p: float) -> float:
    """One-dimensional transport cost: integral of |F_mu^-1 - F_rho^-1|^p.

    Both quantile functions are step functions, so integrating over the
    refinement of their jumps at interval midpoints is exact.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"wasserstein_1d: p must be >= 1, got {p}")
    breaks = np.unique(
        np.concatenate([[0.0, 1.0], mu.cum_weights, rho.cum_weights])
    )
    breaks = np.clip(breaks, 0.0, 1.0)
    lens = np.diff(breaks)
    keep = lens > 1e-15
    mids = ((breaks[:-1] + breaks[1:]) / 2.0)[keep]
    gaps = np.abs(mu.quantile_array(mids) - rho.quantile_array(mids)) ** p
    return math.fsum(lens[keep] * gaps)


class OTResult(NamedTuple):
    value: float
    plan: TransportPlan


def solve_transport(
    row_weights: np.ndarray,
    col_weights: np.ndarray,
    cost_matrix: np.ndarray,
) -> np.ndarray:
    """Minimize <P, cost> over couplings of the two weight vectors.

    Returns an optimal vertex (a x b matrix).  If a == b and every entry of
    both weight vectors equals the same float exactly, the vertices are that
    weight times permutation matrices (Birkhoff-von Neumann), so an optimal
    assignment is the optimal vertex.  Otherwise it comes from the HiGHS
    simplex.
    """
    a, b = cost_matrix.shape
    if row_weights.shape != (a,) or col_weights.shape != (b,):
        raise ValueError("solve_transport: weight vectors do not match the cost matrix")
    if a == b > 0 and np.all(row_weights == row_weights[0]) and np.all(col_weights == row_weights[0]):
        rows, cols = linear_sum_assignment(cost_matrix)
        plan = np.zeros((a, b))
        plan[rows, cols] = row_weights[0]
        return plan
    # Variable v is entry (v // b, v % b) of the plan: it enters the mass
    # constraint of row v // b and that of column v % b.
    v = np.arange(a * b)
    constraints = sparse.coo_matrix(
        (np.ones(2 * a * b), (np.concatenate([v // b, a + v % b]), np.concatenate([v, v]))),
        shape=(a + b, a * b),
    )
    rhs = np.concatenate([row_weights, col_weights])
    res = linprog(
        cost_matrix.ravel(),
        A_eq=constraints,
        b_eq=rhs,
        bounds=(0, None),
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"solve_transport: LP solver failed with status {res.status}: {res.message}")
    return res.x.reshape(a, b)


def exact_ot(
    mu: MultivariateMeasure,
    rho: MultivariateMeasure,
    spec: CostSpec,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> OTResult:
    """Exact optimal transport cost and an optimal vertex plan.

    Raises PairCountCapExceeded when |supp mu| * |supp rho| > pair_cap; the
    cap keeps accidental huge LPs from running away.  Both checks run before
    the cost matrix is built.  Solver entries at or below 1e-15 are dropped
    before the plan is canonicalized; an atom left with no entry would
    silently lose its mass, so that raises.
    """
    if mu.dimension != rho.dimension:
        raise ValueError(f"exact_ot: dimension mismatch, {mu.dimension} vs {rho.dimension}")
    pairs = len(mu) * len(rho)
    if pairs > pair_cap:
        raise PairCountCapExceeded(
            f"exact_ot: {len(mu)} x {len(rho)} = {pairs} atom pairs exceed the cap {pair_cap}"
        )
    X = mu.atoms
    Y = rho.atoms
    diff = np.abs(X[:, None, :] - Y[None, :, :]) ** spec.q
    P = solve_transport(mu.weights, rho.weights, diff.sum(axis=2) ** (spec.p / spec.q))
    keep = P > 1e-15
    for side, measure, covered in (("mu", mu, keep.any(axis=1)), ("rho", rho, keep.any(axis=0))):
        if not covered.all():
            t = int(np.flatnonzero(~covered)[0])
            raise ValueError(
                f"exact_ot: atom {measure.atoms[t].tolist()} of {side} has weight "
                f"{float(measure.weights[t])!r}, below the 1e-15 that the LP resolves"
            )
    ri, ci = np.nonzero(keep)
    plan = make_plan(X[ri], Y[ci], P[keep])
    return OTResult(value=plan_cost(plan, spec), plan=plan)


def plan_to_dict(plan: TransportPlan) -> dict:
    return {
        "entries": [
            {"x": list(map(float, xr)), "y": list(map(float, yr)), "w": float(wr)}
            for xr, yr, wr in zip(plan.x, plan.y, plan.w)
        ]
    }


def plan_from_dict(obj: dict) -> TransportPlan:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("plan: expected a JSON object with an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("plan: entries must be a nonempty list")
    xs, ys, ws = [], [], []
    for e in entries:
        if not isinstance(e, dict) or {"x", "y", "w"} - e.keys():
            raise ValueError("plan: each entry needs fields x, y, w")
        xs.append(e["x"])
        ys.append(e["y"])
        ws.append(e["w"])
    return make_plan(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), np.asarray(ws, dtype=float))
