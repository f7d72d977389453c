"""Transport plans, costs, the diamond coupling, and an exact solver.

A plan stores its rows as indices into the sorted atom arrays of its two
marginals, so its marginals are sums of row weights per index, and
validating it against two measures compares atom arrays and weight vectors,
with no sort and no merge.  Costs are always reported as the raw integral of
||x - y||_q^p against the plan, i.e. the p-th power of the usual transport
distance; callers that want the distance itself take the 1/p root.

``exact_ot`` solves the discrete problem exactly and returns an optimal
vertex of the transport polytope.  When both measures have the same number of
atoms and every weight of both is the same float, the polytope is a scaled
Birkhoff polytope whose vertices are permutations, and the problem is solved
as a linear assignment (Jonker-Volgenant, ``linear_sum_assignment``).  Any
other input is solved as a linear program with the HiGHS dual simplex (tight
feasibility tolerances).  ``diamond`` builds the quantile coupling induced by
a shared copula.  For p = q the verification campaign certifies it with no
solver: ``separable_dual_bound`` reads dual potentials off each coordinate's
north-west-corner staircase, and their objective meets the plan's cost.

scipy is imported by the first ``solve_transport`` call, not at import, so the
``p = q`` certificate, ``diamond``, ``plan_cost`` and a gap sweep without its
exact certificate never pay its start-up time and memory.  ``linprog`` and
``linear_sum_assignment`` stay module attributes (the module ``__getattr__``
loads them on first access) and ``solve_transport`` calls them by their global
names, so a tracer that rebinds them here still sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .copulas import Copula, _atoms_at, independence, push_through_quantiles
from .measures import (
    MASS_TOL,
    DiscreteMeasure1D,
    MultivariateMeasure,
    _fsum_runs,
    _exact_sum_in_place,
    _read_only,
    _run_starts,
    group_rows,
    measures_close,
)

DEFAULT_PAIR_CAP = 250_000

# The copula of wasserstein_1d's quantile coupling, built once.
_INDEPENDENCE_1D = independence(1)

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
    """Finitely supported coupling, stored as rows (i_r, j_r, w_r) of atom indices.

    ``source`` (a, n) and ``target`` (b, n) are read-only arrays of
    lexicographically sorted, pairwise distinct atoms: the supports of the
    two marginals.  Row r moves mass ``w[r] > 0`` from ``source[i[r]]`` to
    ``target[j[r]]``.  The rows are sorted by (i, j) and pairwise distinct,
    every source and every target atom appears in some row, and the weights
    sum to one.  On sorted atoms (i, j) order is lexicographic (x, y) order.
    The two marginals hold the atoms with the plan weight of their rows.
    Build through :func:`plan_from_indices`, which checks these invariants;
    only :func:`diamond`, whose indices hold them by construction, skips the
    checks.
    """

    source: np.ndarray
    target: np.ndarray
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    _first_marginal: MultivariateMeasure = field(repr=False)
    _second_marginal: MultivariateMeasure = field(repr=False)

    def __len__(self) -> int:
        return len(self.w)

    @property
    def dimension(self) -> int:
        return self.source.shape[1]

    @cached_property
    def x(self) -> np.ndarray:
        """Source point of each row, ``source[i]``."""
        return _read_only(self.source.take(self.i, axis=0))

    @cached_property
    def y(self) -> np.ndarray:
        """Target point of each row, ``target[j]``."""
        return _read_only(self.target.take(self.j, axis=0))

    def first_marginal(self) -> MultivariateMeasure:
        return self._first_marginal

    def second_marginal(self) -> MultivariateMeasure:
        return self._second_marginal


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only, else a read-only copy, so no caller can change a plan."""
    return arr if not arr.flags.writeable else _read_only(arr.copy())


def _check_atoms(atoms: np.ndarray, side: str, caller: str) -> None:
    if atoms.ndim != 2 or len(atoms) == 0 or not np.isfinite(atoms).all():
        raise ValueError(f"{caller}: {side} must be a nonempty (m, n) array of finite atoms")
    # Consecutive rows must increase at their first differing coordinate.
    differ = atoms[1:] != atoms[:-1]
    first = differ.argmax(axis=1)
    rows = np.arange(len(first))
    if not (differ[rows, first].all() and (atoms[1:][rows, first] > atoms[:-1][rows, first]).all()):
        raise ValueError(f"{caller}: {side} atoms must be sorted lexicographically and distinct")


def plan_from_indices(source, target, i, j, w) -> TransportPlan:
    """The plan moving ``w[r]`` from ``source[i[r]]`` to ``target[j[r]]``.

    ``source`` and ``target`` are the marginals' canonical atom arrays
    (sorted, distinct), as a measure stores them; read-only arrays are kept
    as is, so a plan built on ``mu.atoms`` shares them.  Rows are sorted by
    (i, j) unless they already are, and repeated pairs are merged by
    ``math.fsum``.  Every weight must be positive, every atom must be covered,
    and the weights must sum to one within ``MASS_TOL`` per row.
    """
    source = _frozen_copy(np.asarray(source, dtype=float))
    target = _frozen_copy(np.asarray(target, dtype=float))
    _check_atoms(source, "source", "plan_from_indices")
    if target is not source:  # a plan on one read-only atom array checks it once
        _check_atoms(target, "target", "plan_from_indices")
    if source.shape[1] != target.shape[1]:
        raise ValueError(
            f"plan_from_indices: source and target differ in dimension, "
            f"{source.shape[1]} vs {target.shape[1]}"
        )
    i = np.asarray(i)
    j = np.asarray(j)
    w = np.asarray(w, dtype=float)
    if not (i.ndim == j.ndim == w.ndim == 1 and len(i) == len(j) == len(w) > 0):
        raise ValueError("plan_from_indices: i, j and w must be nonempty 1-D arrays of one length")
    for index, atoms, side in ((i, source, "source"), (j, target, "target")):
        if not np.issubdtype(index.dtype, np.integer) or index.min() < 0 or index.max() >= len(atoms):
            raise ValueError(f"plan_from_indices: {side} indices must be integers in [0, {len(atoms)})")
    if not 0.0 < w.min() <= w.max() < math.inf:  # nan fails every comparison
        raise ValueError("plan_from_indices: weights must be finite and positive")
    i, j = i.astype(np.intp, copy=False), j.astype(np.intp, copy=False)
    plan = _merged_plan(source, target, i, j, w)
    for marginal, side in ((plan.first_marginal(), "source"), (plan.second_marginal(), "target")):
        if not (marginal.weights > 0).all():
            t = int(np.flatnonzero(marginal.weights == 0)[0])
            raise ValueError(f"plan_from_indices: {side} atom {t} appears in no row")
    return plan


def _merged_plan(source, target, i, j, w) -> TransportPlan:
    """:func:`plan_from_indices` after its checks: read-only atoms, ``intp`` indices.

    Rows are sorted by (i, j) unless they already are; repeated pairs are
    merged by ``math.fsum``, whose sum does not depend on the row order.  The
    marginal weights are the sums of ``w`` over ``i`` and ``j`` (:func:`_index_sums`).
    """
    key = i * len(target)
    key += j
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        starts = _run_starts(key[order, None]).nonzero()[0]
        i, j, w = i[order][starts], j[order][starts], _fsum_runs(w[order], starts)
    i, j, w = _frozen_copy(i), _frozen_copy(j), _frozen_copy(w)
    # Pairwise summation errs by O(log len) ulps, far inside the tolerance.
    total = float(w.sum())
    if abs(total - 1.0) > MASS_TOL * max(1, len(w)):
        raise ValueError(f"plan weights sum to {total!r}, expected 1")
    return TransportPlan(
        source=source,
        target=target,
        i=i,
        j=j,
        w=w,
        _first_marginal=MultivariateMeasure(atoms=source, weights=_index_sums(i, w, len(source))),
        _second_marginal=MultivariateMeasure(atoms=target, weights=_index_sums(j, w, len(target))),
    )


def _index_sums(index: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount(index, weights=w, minlength=size)``, read-only: the same floats, added in row order.

    ``np.add.at`` reads read-only inputs in place, where ``np.bincount``
    copies both: on the 110,592 read-only rows of the gap-sweep competitor,
    with sorted indices, 0.3 ms against 1.0 ms (x86-64, one thread).
    """
    sums = np.zeros(size)
    np.add.at(sums, index, w)
    return _read_only(sums)


def plan_cost(plan: TransportPlan, spec: CostSpec) -> float:
    """Integral of ||x - y||_q^p against the plan, correctly rounded.

    The row costs w_r ||x_r - y_r||_q^p are summed exactly and rounded once,
    to the float that ``math.fsum`` returns (:func:`exact_sum`).  Each row's
    coordinate distances |x_rd - y_rd|^q are computed and added row by row;
    the rest is :func:`_row_cost_sum`.
    """
    dist = np.subtract(plan.x, plan.y)
    # In-place steps compute the same floats with no row-length temporaries.
    np.abs(dist, out=dist)
    dist **= spec.q
    per_row = np.empty(len(plan))
    if dist.shape[1] >= 8:
        # np.sum adds row-major rows of 8 or more columns pairwise.
        np.sum(dist, axis=1, out=per_row)
    else:
        # np.sum(axis=1) adds fewer than 8 columns left to right, and so
        # does this loop, without numpy's slow reduction of short rows: on
        # the 110,592-row gap-sweep plan it takes 0.24 ms against 2.4 ms
        # (x86-64, one thread).  numpy does not document that order;
        # test_transport pins the equality bit for bit at 1 to 9 columns.
        np.copyto(per_row, dist[:, 0])
        for d in range(1, dist.shape[1]):
            per_row += dist[:, d]
    return _row_cost_sum(per_row, plan.w, spec, dist)


def _row_cost_sum(per_row: np.ndarray, w: np.ndarray, spec: CostSpec, work: np.ndarray) -> float:
    """Exact sum of the row costs w_r * per_row[r] ** (p / q), rounded once.

    ``per_row`` is a contiguous array of each row's sum_d |x_rd - y_rd|^q;
    ``work`` is a contiguous float buffer at least as long.  Both are
    overwritten.  Every plan cost ends with these steps, so the costs that
    :func:`plan_cost` and the gap sweep compute from the same row sums are
    the same floats.
    """
    per_row **= spec.p / spec.q
    per_row *= w
    return _exact_sum_in_place(per_row, work)


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
    Each side's atoms are the distinct rows of its quantile indices: marginal
    atoms are sorted and distinct, so index rows group as their points do.
    """
    if len(mu_marginals) != len(rho_marginals):
        raise ValueError(
            f"diamond: marginal tuples differ in length, "
            f"{len(mu_marginals)} vs {len(rho_marginals)}"
        )
    (ix, iy), masses = push_through_quantiles(copula, [list(mu_marginals), list(rho_marginals)])
    source_rows, i = group_rows(ix)
    target_rows, j = group_rows(iy)
    source = _read_only(_atoms_at(source_rows, mu_marginals))
    target = _read_only(_atoms_at(target_rows, rho_marginals))
    # Sorted, distinct and covering by construction: no further checks.
    return _merged_plan(source, target, i, j, masses)


def wasserstein_1d(mu: DiscreteMeasure1D, rho: DiscreteMeasure1D, p: float) -> float:
    """One-dimensional transport cost: integral of |F_mu^-1 - F_rho^-1|^p.

    This is the cost of the 1-D quantile coupling, :func:`diamond` of the
    one-dimensional independence copula, so an atom too light for the
    pushforward to give it an interval raises as it does there.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"wasserstein_1d: p must be >= 1, got {p}")
    return plan_cost(diamond(_INDEPENDENCE_1D, [mu], [rho]), CostSpec(p, p))


def _staircase_potentials(cum_a: list, cum_b: list, cost: list) -> tuple[np.ndarray, np.ndarray]:
    """Potentials with f_i + g_j = cost[i][j] on the north-west-corner staircase.

    The staircase walks from (0, 0) to (m - 1, n - 1), stepping down while the
    row's cumulative weight is at most the column's and right otherwise; a
    tie steps down onto a cell of zero mass.
    """
    m, n = len(cum_a), len(cum_b)
    f = [0.0] * m
    g = [0.0] * n
    g[0] = cost[0][0]
    i = j = 0
    while i < m - 1 or j < n - 1:
        if j == n - 1 or (i < m - 1 and cum_a[i] <= cum_b[j]):
            i += 1
            f[i] = cost[i][j] - g[j]
        else:
            j += 1
            g[j] = cost[i][j] - f[i]
    return np.array(f), np.array(g)


def separable_dual_bound(plan: TransportPlan, p: float) -> tuple[float, float]:
    """Certified lower bound on the p = q optimum between the plan's marginals.

    Returns ``(value, violation)``.  At p = q the cost sum_d |x_d - y_d|^p
    splits by coordinate, so F(x) = sum_d f_d(x_d) and G(y) = sum_d g_d(y_d)
    are dual feasible once f_d + g_d <= |x_d - y_d|^p on each coordinate's
    grid of atoms.  On sorted atoms that cost is a Monge array for p >= 1, so
    potentials read off the north-west-corner staircase are feasible
    (Hoffman 1963); the staircase carries the quantile coupling of the
    coordinate marginals, so the bound meets the cost of a plan whose
    coordinates are comonotone, such as ``diamond``'s.

    The potentials are built on the plan's own coordinate marginals, not on
    input marginals that canonicalization may have moved by an ulp.  The
    value adds the weak-duality repair sum_i a_i min(0, min_j(c_ij - f_i -
    g_j)) per coordinate, so rounding in the potentials can only loosen it;
    ``violation`` is the largest positive f_i + g_j - c_ij.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"separable_dual_bound: p must be >= 1, got {p}")
    row_potential = np.zeros(len(plan))
    repair = []
    violation = 0.0
    for d in range(plan.dimension):
        xs, ix = np.unique(plan.x[:, d], return_inverse=True)
        ys, iy = np.unique(plan.y[:, d], return_inverse=True)
        a = np.bincount(ix, weights=plan.w)
        b = np.bincount(iy, weights=plan.w)
        cost = np.abs(xs[:, None] - ys[None, :]) ** p
        f, g = _staircase_potentials(a.cumsum().tolist(), b.cumsum().tolist(), cost.tolist())
        slack = cost - f[:, None] - g[None, :]
        violation = max(violation, -float(slack.min()))
        repair.append(a * np.minimum(0.0, slack.min(axis=1)))
        row_potential += f[ix] + g[iy]
    value = math.fsum(plan.w * row_potential) + math.fsum(np.concatenate(repair))
    return value, violation


def _load_scipy() -> None:
    global sparse, linear_sum_assignment, linprog
    if "sparse" not in globals():
        from scipy import sparse
        from scipy.optimize import linear_sum_assignment, linprog


def __getattr__(name: str):
    if name in ("linprog", "linear_sum_assignment"):
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class OTResult(NamedTuple):
    value: float
    plan: TransportPlan


def solve_transport(
    row_weights: np.ndarray,
    col_weights: np.ndarray,
    cost_matrix: np.ndarray,
    col_potentials: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize <P, cost> over couplings of the two weight vectors.

    Returns an optimal vertex (a x b matrix).  If a == b and every entry of
    both weight vectors equals the same float exactly, the vertices are that
    weight times permutation matrices (Birkhoff-von Neumann), so an optimal
    assignment is the optimal vertex.  Otherwise it comes from the HiGHS
    simplex.

    ``col_potentials`` (length b) warm-start the assignment, which then
    solves ``cost - col_potentials``.  That moves every permutation's cost
    by the same sum, so in exact arithmetic the optimal permutations stay
    those of ``cost``.  Potentials close to an optimal dual spread the rows'
    cheapest columns apart, where ``cost`` alone may give every row the same
    cheapest column: the worst case of an augmenting-path solver.  The LP
    ignores them, because a shifted LP cost moves HiGHS's vertex inside its
    tolerances.
    """
    a, b = cost_matrix.shape
    if row_weights.shape != (a,) or col_weights.shape != (b,):
        raise ValueError("solve_transport: weight vectors do not match the cost matrix")
    if col_potentials is not None and np.shape(col_potentials) != (b,):
        raise ValueError("solve_transport: column potentials do not match the cost matrix")
    _load_scipy()
    if a == b > 0 and np.all(row_weights == row_weights[0]) and np.all(col_weights == row_weights[0]):
        shifted = cost_matrix if col_potentials is None else cost_matrix - col_potentials
        rows, cols = linear_sum_assignment(shifted)
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


def _cost_matrix(X: np.ndarray, Y: np.ndarray, spec: CostSpec) -> np.ndarray:
    """The a x b matrix ||X_s - Y_t||_q^p, each entry the float :func:`plan_cost` gives its row.

    Below 8 coordinates the distances |X_sd - Y_td|^q are built one
    coordinate at a time and added left to right, as ``np.sum`` adds fewer
    than 8 contiguous columns: the same floats as an (a, b, n) block summed
    over its last axis, without that block (at 256 atoms a side and n = 2,
    0.6-0.8 ms against 2.8-3.3 ms, x86-64, one thread).  From 8 coordinates
    the block is built and ``np.sum`` adds it pairwise, as ``plan_cost``
    does.
    """
    n = X.shape[1]
    if n >= 8:
        sums = np.abs(X[:, None, :] - Y[None, :, :])
        sums **= spec.q
        sums = sums.sum(axis=2)
    else:

        def distances(d: int) -> np.ndarray:
            dist = np.subtract.outer(X[:, d], Y[:, d])
            np.abs(dist, out=dist)
            dist **= spec.q
            return dist

        sums = distances(0)
        for d in range(1, n):
            sums += distances(d)
    sums **= spec.p / spec.q
    return sums


def exact_ot(
    mu: MultivariateMeasure,
    rho: MultivariateMeasure,
    spec: CostSpec,
    pair_cap: int = DEFAULT_PAIR_CAP,
    col_potentials: np.ndarray | None = None,
) -> OTResult:
    """Exact optimal transport cost and an optimal vertex plan.

    Raises PairCountCapExceeded when |supp mu| * |supp rho| > pair_cap; the
    cap keeps accidental huge LPs from running away.  Both checks run before
    the cost matrix is built.  Solver entries at or below 1e-15 are dropped
    before the plan is canonicalized; an atom left with no entry would
    silently lose its mass, so that raises.  ``col_potentials``, one per
    atom of ``rho``, only warm-start an assignment (:func:`solve_transport`);
    the plan and its value never see them.
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
    P = solve_transport(mu.weights, rho.weights, _cost_matrix(X, Y, spec), col_potentials)
    keep = P > 1e-15
    for side, measure, covered in (("mu", mu, keep.any(axis=1)), ("rho", rho, keep.any(axis=0))):
        if not covered.all():
            t = int(np.flatnonzero(~covered)[0])
            raise ValueError(
                f"exact_ot: atom {measure.atoms[t].tolist()} of {side} has weight "
                f"{float(measure.weights[t])!r}, below the 1e-15 that the LP resolves"
            )
    ri, ci = np.nonzero(keep)
    plan = plan_from_indices(X, Y, ri, ci, P[keep])
    return OTResult(value=plan_cost(plan, spec), plan=plan)


def plan_to_dict(plan: TransportPlan) -> dict:
    return {
        "entries": [
            {"x": list(map(float, xr)), "y": list(map(float, yr)), "w": float(wr)}
            for xr, yr, wr in zip(plan.x, plan.y, plan.w)
        ]
    }
