"""Counterexamples to optimality of the quantile coupling when p != q.

The cost ||x - y||_q^p makes the quantile coupling of two joint laws with a
shared copula optimal exactly when p = q.  For p != q this module builds an
explicit competitor.  Fix a coordinate pair (i, j) whose carrier margin is
not the adversary's rearrangement, scale all coordinates except i (resp. j)
by a small epsilon on the source (resp. target) side, and rewire the
dependence between coordinates i and j of the target through that extremal
adversary: comonotone for q > p, countermonotone for q < p.  The rewired
target has the same law as the original one, yet as epsilon -> 0 the two
couplings separate: the quantile coupling's cost tends to an integral driven
by the original copula while the competitor's tends to the extremal
rearrangement, which is strictly better.  Whether the sign of improvement is
comonotone or countermonotone is read off the mixed second derivative of
-(u1^q + u2^q)^{p/q}.

Everything here works on a checkerboard carrier: midpoint grids make every
expectation a finite sum, so both the limiting scores and the finite-epsilon
plans are computed without quadrature error, and the pair is decided exactly
on the same carrier (see :func:`find_violating_pair`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .copulas import (
    CHECKERBOARD,
    COMONOTONE,
    COUNTERMONOTONE,
    Copula,
    bivariate_margin,
    comonotone,
    countermonotone,
    discretize,
)
from .measures import MultivariateMeasure, group_rows, make_measure, measures_close
from .transport import (
    DEFAULT_PAIR_CAP,
    CostSpec,
    PairCountCapExceeded,
    TransportPlan,
    _check_atoms,
    _RowCosts,
    exact_ot,
    plan_from_indices,
    validate_plan,
)

# A gap is treated as real once it clears this fraction of max(1, cost);
# anything smaller is indistinguishable from accumulated rounding.
GAP_SIGNIFICANCE = 1e-9

CAVEAT = (
    "Purely atomic marginals admit more than one copula. The certified claim is "
    "that the quantile coupling induced by the supplied copula is strictly "
    "suboptimal for this cost, not a statement about every coupling compatible "
    "with some copula of the pair."
)


class NoViolatingPair(RuntimeError):
    """Every coordinate pair's carrier margin sits on the adversary's permutation cells."""


class ScheduleExhausted(RuntimeError):
    """No epsilon in the schedule produced a significant positive gap."""

    def __init__(self, message: str, curve: tuple["CurvePoint", ...]):
        super().__init__(message)
        self.curve = curve


class CurvePoint(NamedTuple):
    epsilon: float
    diamond_cost: float
    alt_cost: float
    gap: float
    exact_cost: float | None = None

    def csv_row(self) -> list:
        """The fields in order, a missing exact cost as an empty field."""
        return ["" if v is None else v for v in self]


class EpsilonConstruction(NamedTuple):
    """One point of the construction: both measures and both competitor plans."""

    mu: MultivariateMeasure
    rho: MultivariateMeasure
    diamond_plan: TransportPlan
    alt_plan: TransportPlan


@dataclass(frozen=True)
class CounterexampleReport:
    p: float
    q: float
    copula: str
    pair: tuple[int, int]
    epsilon: float
    diamond_cost: float
    alt_cost: float
    exact_cost: float | None
    gap: float
    limit_diamond: float
    limit_alt: float
    curve: tuple[CurvePoint, ...]
    caveat: str = CAVEAT


def report_to_dict(report: CounterexampleReport) -> dict:
    return {
        "p": report.p,
        "q": report.q,
        "copula": report.copula,
        "pair": list(report.pair),
        "epsilon": report.epsilon,
        "diamond_cost": report.diamond_cost,
        "alt_cost": report.alt_cost,
        "exact_cost": report.exact_cost,
        "gap": report.gap,
        "limit_diamond": report.limit_diamond,
        "limit_alt": report.limit_alt,
        "caveat": report.caveat,
    }


def _check_exponents(p: float, q: float) -> None:
    CostSpec(p, q)  # shared validation: finite, >= 1


def monge_cross_partial(p: float, q: float, u1: float, u2: float) -> float:
    """Mixed second derivative of -(u1^q + u2^q)^{p/q} on the open square.

    Its sign is the sign of q - p everywhere, which is what decides whether
    the comonotone or the countermonotone rearrangement wins in the limit.
    Returns exactly 0.0 when p == q.
    """
    _check_exponents(p, q)
    for name, u in (("u1", u1), ("u2", u2)):
        if not (isinstance(u, (int, float)) and 0.0 < u < 1.0):
            raise ValueError(f"monge_cross_partial: {name} must lie strictly in (0, 1), got {u!r}")
    if p == q:
        return 0.0
    s = u1**q + u2**q
    return p * (q - p) * u1 ** (q - 1.0) * u2 ** (q - 1.0) * s ** (p / q - 2.0)


def adversary_copula(p: float, q: float) -> Copula:
    """Extremal dependence that beats the shared copula in the limit."""
    _check_exponents(p, q)
    if p == q:
        raise ValueError("adversary_copula: the exponents must differ; for p = q the quantile coupling is optimal")
    return comonotone(2) if q > p else countermonotone()


def find_violating_pair(carrier: Copula, p: float, q: float) -> tuple[int, int] | None:
    """First coordinate pair (1-based) whose carrier margin leaves the adversary's cells.

    The adversary couples the k midpoints of a pair by a permutation adv: the
    identity for q > p, the reversal for q < p.  The limit cost
    (u^q + v^q)^{p/q} is strictly Monge on distinct midpoints and the
    carrier's margins are uniform, so adv is the only coupling of a margin
    that ties with the adversary in the limit.  A pair (i, j) is therefore
    violating, with a strictly positive limit gap, exactly when its k x k
    margin has mass off the cells (a, adv[a]).  Returns None when every pair
    sits on them.
    """
    _check_exponents(p, q)
    if p == q:
        raise ValueError("find_violating_pair: requires p != q")
    if carrier.variant != CHECKERBOARD:
        raise ValueError("find_violating_pair: carrier must be a checkerboard; discretize monotone copulas first")
    k = carrier.k
    adversary_cells = (np.arange(k), _adversary_index_map(adversary_copula(p, q), k))
    for i in range(1, carrier.n + 1):
        for j in range(i + 1, carrier.n + 1):
            off = bivariate_margin(carrier, i, j).masses.copy()
            off[adversary_cells] = 0.0
            if off.any():
                return (i, j)
    return None


def _adversary_index_map(adversary: Copula, k: int) -> np.ndarray:
    if adversary.variant == COMONOTONE and adversary.n == 2:
        return np.arange(k)
    if adversary.variant == COUNTERMONOTONE:
        return k - 1 - np.arange(k)
    raise ValueError("adversary must be the bivariate comonotone or countermonotone copula")


class PairSkeleton(NamedTuple):
    """The epsilon-free part of the construction on one carrier and pair.

    ``law`` is the carrier's midpoint law: one atom per cell of positive
    mass, in the carrier's coordinate order, weighted by the cell's mass.
    Both plans couple ``law`` with itself, and :func:`build_pair` only
    rescales their atoms.
    """

    pair: tuple[int, int]
    law: MultivariateMeasure
    diamond_plan: TransportPlan
    alt_plan: TransportPlan


def pair_skeleton(
    carrier: Copula,
    p: float,
    q: float,
    pair: tuple[int, int],
    adversary: Copula | None = None,
) -> PairSkeleton:
    """Everything of the construction that does not depend on epsilon, checked once.

    The carrier must be a checkerboard (see :func:`discretize`).  Writing
    (U_1, ..., U_n) for the carrier's midpoint law with the pair relabeled to
    the first two coordinates, the source at epsilon is the law of
    (U_i, eps U_j, eps U_rest) and the target the law of
    (eps U_i, U_j, eps U_rest).  Each carrier cell is one atom on either
    side, and scaling columns by positive factors keeps the lexicographic
    order of the atoms, so the weights and the plans' rows (atom indices and
    weights) are the same at every epsilon.  They are built here once, with
    :func:`plan_from_indices` on the unscaled midpoints: the quantile plan
    pairs each cell's source atom with its own target atom, the competitor
    each source cell of row a with every target cell of column adv[a].  The
    competitor target copy rewires the dependence between its first two
    coordinates through the adversary while keeping all conditionals, which
    leaves its law unchanged.  Both plans are validated against
    (``law``, ``law``), and the rewired target law is checked against
    ``law`` exactly (same atoms, weights within 1e-12); either failure
    raises a ``RuntimeError``.

    ``adversary`` defaults to :func:`adversary_copula`, which requires
    p != q; pass it explicitly to build control constructions at p = q.
    """
    _check_exponents(p, q)
    if carrier.variant != CHECKERBOARD:
        raise ValueError("pair_skeleton: carrier must be a checkerboard; discretize monotone copulas first")
    n, k = carrier.n, carrier.k
    i, j = pair
    if not (1 <= i < j <= n):
        raise ValueError(f"pair_skeleton: need 1 <= i < j <= {n}, got ({i}, {j})")
    if adversary is None:
        adversary = adversary_copula(p, q)
    adv = _adversary_index_map(adversary, k)

    order = [i - 1, j - 1] + [d for d in range(n) if d not in (i - 1, j - 1)]
    T = np.transpose(carrier.masses, order)
    mids = (np.arange(k) + 0.5) / k
    C2 = T.sum(axis=tuple(range(2, n))) if n > 2 else T
    colsum = C2.sum(axis=0)

    cells = np.nonzero(T)
    U = np.empty((len(cells[0]), n))
    for new_axis, orig_axis in enumerate(order):
        U[:, orig_axis] = mids[cells[new_axis]]
    w = T[cells]
    law = make_measure(U, w)
    # Every cell weight is positive, so the grouped rows are the law's atoms;
    # validating the plans below checks that they are exactly equal.
    atoms, cell_atom = group_rows(U)
    diamond_plan = plan_from_indices(atoms, atoms, cell_atom, cell_atom, w)

    # Competitor: independently draw the target's pair-i coordinate and tail
    # from the conditional given its pair-j coordinate, which the adversary
    # ties to the source's pair-i coordinate.  Row a of the carrier holds the
    # source cells with pair-i index a, column adv[a] the target cells they
    # are coupled with; both lists are in the carrier's cell order.
    row_cells = np.split(np.arange(len(w)), np.cumsum(np.bincount(cells[0], minlength=k))[:-1])
    col_cells = np.split(
        np.argsort(cells[1], kind="stable"), np.cumsum(np.bincount(cells[1], minlength=k))[:-1]
    )
    rows_i, rows_j, rows_w = [], [], []
    for a in range(k):
        b2 = int(adv[a])
        src_cells, tgt_cells = row_cells[a], col_cells[b2]
        if len(src_cells) == 0:
            continue
        tgt_mass = w[tgt_cells] / colsum[b2]
        rows_i.append(np.repeat(cell_atom[src_cells], len(tgt_cells)))
        rows_j.append(np.tile(cell_atom[tgt_cells], len(src_cells)))
        rows_w.append((w[src_cells][:, None] * tgt_mass[None, :]).ravel())
    alt_plan = plan_from_indices(
        atoms, atoms, np.concatenate(rows_i), np.concatenate(rows_j), np.concatenate(rows_w)
    )

    if not measures_close(alt_plan.second_marginal(), law, 1e-12):
        raise RuntimeError(
            "pair_skeleton: the rewired target law does not match the original one; "
            "the carrier's margins are too far from uniform"
        )
    for label, plan in (("quantile", diamond_plan), ("competitor", alt_plan)):
        if not validate_plan(plan, law, law):
            raise RuntimeError(f"pair_skeleton: the {label} plan fails marginal validation")
    return PairSkeleton(pair=(i, j), law=law, diamond_plan=diamond_plan, alt_plan=alt_plan)


def build_pair(skeleton: PairSkeleton, epsilon: float) -> EpsilonConstruction:
    """Source/target pair at one epsilon plus the two competitor plans.

    Only the atoms depend on epsilon: the source scales every coordinate but
    pair[0] of the skeleton's law by epsilon, the target every coordinate
    but pair[1].  Both skeleton plans move onto the scaled atoms
    (:meth:`TransportPlan.with_atoms`), and both measures are the scaled
    atoms with the law's weights; everything else was checked once by
    :func:`pair_skeleton`.  An epsilon so small that scaling merges or
    reorders atoms raises a ``ValueError`` naming it.
    """
    if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon < 1.0):
        raise ValueError(f"build_pair: epsilon must lie in (0, 1), got {epsilon!r}")
    _, (source, target) = _scaled_sides(skeleton, epsilon)
    return EpsilonConstruction(
        mu=MultivariateMeasure(atoms=source, weights=skeleton.law.weights),
        rho=MultivariateMeasure(atoms=target, weights=skeleton.law.weights),
        diamond_plan=skeleton.diamond_plan.with_atoms(source, target),
        alt_plan=skeleton.alt_plan.with_atoms(source, target),
    )


def _scaled_sides(skeleton: PairSkeleton, epsilon: float) -> tuple[list[list[float]], list[np.ndarray]]:
    """Per side, the column scales and the law's atoms under them, read-only and checked once.

    The source keeps coordinate pair[0] and the target pair[1]; every other
    coordinate is scaled by epsilon.
    """
    n = skeleton.law.dimension
    scales = [[1.0 if d == kept - 1 else float(epsilon) for d in range(n)] for kept in skeleton.pair]
    sides = []
    for scale in scales:
        atoms = skeleton.law.atoms * scale
        atoms.flags.writeable = False
        try:
            _check_atoms(atoms, "scaled", "build_pair")
        except ValueError:
            raise ValueError(
                f"build_pair: epsilon={epsilon!r} is too small: scaling by it merges "
                f"or reorders atoms of the carrier"
            ) from None
        sides.append(atoms)
    return scales, sides


def _cost_sweep(skeleton: PairSkeleton, spec: CostSpec) -> Callable[[float], tuple[float, float]]:
    """Both plan costs of the construction at any epsilon, from rows gathered once.

    Returns ``costs(epsilon) -> (diamond_cost, alt_cost)``, equal bit for bit
    to :func:`plan_cost` of the plans of ``build_pair(skeleton, epsilon)``.
    Each plan's unscaled row coordinates are gathered once
    (:class:`_RowCosts`); each epsilon only scales them, after checking the
    scaled atoms as :func:`build_pair` does, with its ``ValueError``.
    """
    kernels = [
        _RowCosts(plan.source.T.take(plan.i, axis=1), plan.target.T.take(plan.j, axis=1), plan.w)
        for plan in (skeleton.diamond_plan, skeleton.alt_plan)
    ]

    def costs(epsilon: float) -> tuple[float, float]:
        scales, _ = _scaled_sides(skeleton, epsilon)
        diamond_cost, alt_cost = (kernel.cost(spec, *scales) for kernel in kernels)
        return diamond_cost, alt_cost

    return costs


def limit_scores(
    carrier: Copula,
    pair: tuple[int, int],
    p: float,
    q: float,
    adversary: Copula | None = None,
) -> tuple[float, float]:
    """Epsilon -> 0 limits of the two plan costs, as exact midpoint sums.

    The carrier must be a checkerboard (see :func:`discretize`).  In the
    limit only the unscaled coordinates survive: the quantile coupling's cost
    tends to E[(U_i^q + U_j^q)^{p/q}] under the carrier's (i, j) margin, the
    competitor's to the same functional under the adversary rearrangement of
    that margin.
    """
    _check_exponents(p, q)
    if carrier.variant != CHECKERBOARD:
        raise ValueError("limit_scores: carrier must be a checkerboard; discretize monotone copulas first")
    i, j = pair
    if not (1 <= i < j <= carrier.n):
        raise ValueError(f"limit_scores: need 1 <= i < j <= {carrier.n}, got ({i}, {j})")
    if adversary is None:
        adversary = adversary_copula(p, q)
    margin = bivariate_margin(carrier, i, j)
    k = margin.k
    C2 = np.asarray(margin.masses)
    mids = (np.arange(k) + 0.5) / k
    adv = _adversary_index_map(adversary, k)
    nz = np.nonzero(C2)
    limit_diamond = math.fsum(
        C2[nz] * (mids[nz[0]] ** q + mids[nz[1]] ** q) ** (p / q)
    )
    rowsum = C2.sum(axis=1)
    limit_alt = math.fsum(rowsum * (mids**q + mids[adv] ** q) ** (p / q))
    return float(limit_diamond), float(limit_alt)


def default_schedule() -> tuple[float, ...]:
    """Geometric epsilon schedule 0.5, 0.25, ..., 0.5 * 2^-15."""
    return tuple(0.5 * 0.5**step for step in range(16))


def gap_search(
    copula: Copula,
    p: float,
    q: float,
    *,
    carrier_resolution: int = 16,
    schedule: Sequence[float] | None = None,
    attach_exact: bool = True,
    pair_cap: int = DEFAULT_PAIR_CAP,
    copula_label: str | None = None,
) -> CounterexampleReport:
    """Search the epsilon schedule for a certified positive gap.

    Evaluates both plan costs at every epsilon in the schedule and certifies
    at the smallest epsilon whose gap is significant: the claim being
    demonstrated is asymptotic, so the deepest point of the schedule where
    the ordering has decisively flipped is the honest witness (and there the
    gap is essentially the limit separation).  The full curve is kept on the
    report for inspection.  The exact transport cost is attached at the
    accepted epsilon when the support-pair count fits under ``pair_cap``.

    The pair, the limit scores and the plans all come from one carrier,
    ``discretize(copula, carrier_resolution)``.  The epsilon-free part of the
    construction, the carrier's midpoint law and both plans' rows, is built
    and checked once (:func:`pair_skeleton`).  Each epsilon checks the scaled
    atoms and costs both plans from row coordinates gathered once
    (:func:`_cost_sweep`); only the exact certificate at the accepted epsilon
    builds the scaled measures (:func:`build_pair`).  Raises a ``ValueError``
    when the copula has fewer than two coordinates, since the construction
    needs a pair;
    :class:`NoViolatingPair` when no pair of the carrier is violating (see
    :func:`find_violating_pair`); and :class:`ScheduleExhausted` when no
    epsilon yields a significant gap although the limit gap is positive.
    """
    _check_exponents(p, q)
    if p == q:
        raise ValueError("gap_search: requires p != q; for p = q the quantile coupling is optimal")
    if copula.n < 2:
        raise ValueError(f"gap_search: the construction needs a coordinate pair, got n={copula.n}")
    carrier = discretize(copula, carrier_resolution)
    found = find_violating_pair(carrier, p, q)
    if found is None:
        side = "lower" if q < p else "upper"
        raise NoViolatingPair(
            f"every coordinate pair of {copula.describe()} meets the bivariate {side} "
            f"bound on the carrier; the construction has no room to improve"
        )
    i, j = found
    limit_diamond, limit_alt = limit_scores(carrier, (i, j), p, q)
    eps_values = tuple(schedule) if schedule is not None else default_schedule()
    if not eps_values or not all(0.0 < e < 1.0 for e in eps_values):
        raise ValueError("gap_search: schedule must be nonempty with entries in (0, 1)")
    spec = CostSpec(p, q)
    skeleton = pair_skeleton(carrier, p, q, (i, j))
    costs = _cost_sweep(skeleton, spec)
    curve = []
    for eps in eps_values:
        dc, ac = costs(eps)
        curve.append(CurvePoint(epsilon=float(eps), diamond_cost=dc, alt_cost=ac, gap=dc - ac))
    significant = [
        pt for pt in curve if pt.gap > GAP_SIGNIFICANCE * max(1.0, pt.diamond_cost)
    ]
    if not significant:
        best = max(curve, key=lambda pt: pt.gap)
        raise ScheduleExhausted(
            f"no epsilon in the schedule produced a significant gap for "
            f"{copula_label or copula.describe()} with p={p}, q={q}; best was "
            f"{best.gap!r} at epsilon={best.epsilon!r}",
            curve=tuple(curve),
        )
    accepted = min(significant, key=lambda pt: pt.epsilon)
    exact_cost = None
    if attach_exact:
        built = build_pair(skeleton, accepted.epsilon)
        try:
            exact_cost = exact_ot(built.mu, built.rho, spec, pair_cap).value
        except PairCountCapExceeded:
            exact_cost = None
    if exact_cost is not None and exact_cost > accepted.alt_cost + 1e-9 * max(1.0, accepted.alt_cost):
        raise RuntimeError(
            "gap_search: exact optimal cost exceeds the competitor plan cost; "
            "the construction is internally inconsistent"
        )
    curve = tuple(
        pt._replace(exact_cost=exact_cost) if pt.epsilon == accepted.epsilon else pt
        for pt in curve
    )
    return CounterexampleReport(
        p=float(p),
        q=float(q),
        copula=copula_label or copula.describe(),
        pair=(i, j),
        epsilon=accepted.epsilon,
        diamond_cost=accepted.diamond_cost,
        alt_cost=accepted.alt_cost,
        exact_cost=exact_cost,
        gap=accepted.gap,
        limit_diamond=limit_diamond,
        limit_alt=limit_alt,
        curve=curve,
    )
