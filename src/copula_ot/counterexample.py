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
from dataclasses import dataclass, fields
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
from .measures import MultivariateMeasure, _read_only, exact_sum, measures_close
from .transport import (
    DEFAULT_PAIR_CAP,
    CostSpec,
    PairCountCapExceeded,
    TransportPlan,
    _check_atoms,
    _row_cost_sum,
    _staircase_potentials,
    exact_ot,
    plan_from_indices,
    validate_plan,
)

# A gap is treated as real once it clears this fraction of max(1, cost);
# anything smaller is indistinguishable from accumulated rounding.
GAP_SIGNIFICANCE = 1e-9

# Checkerboard resolution at which gap_search discretizes monotone copulas.
DEFAULT_CARRIER_RESOLUTION = 16

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
    """Every field but the curve, in the dataclass's order, with the pair as a list."""
    obj = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "curve"}
    obj["pair"] = list(report.pair)
    return obj


def monge_cross_partial(p: float, q: float, u1: float, u2: float) -> float:
    """Mixed second derivative of -(u1^q + u2^q)^{p/q} on the open square.

    Its sign is the sign of q - p everywhere, which is what decides whether
    the comonotone or the countermonotone rearrangement wins in the limit.
    Returns exactly 0.0 when p == q.
    """
    CostSpec(p, q)
    for name, u in (("u1", u1), ("u2", u2)):
        if not (isinstance(u, (int, float)) and 0.0 < u < 1.0):
            raise ValueError(f"monge_cross_partial: {name} must lie strictly in (0, 1), got {u!r}")
    if p == q:
        return 0.0
    s = u1**q + u2**q
    return p * (q - p) * u1 ** (q - 1.0) * u2 ** (q - 1.0) * s ** (p / q - 2.0)


def adversary_copula(p: float, q: float) -> Copula:
    """Extremal dependence that beats the shared copula in the limit."""
    CostSpec(p, q)
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
    CostSpec(p, q)
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


def _pair_arguments(
    caller: str, carrier: Copula, pair: tuple[int, int], p: float, q: float, adversary: Copula | None
) -> tuple[int, int, np.ndarray]:
    """``(i, j, adv)`` after the argument checks of ``caller``, which its errors name.

    The exponents must be valid, the carrier a checkerboard and the pair
    1 <= i < j <= n; ``adv`` is the index map of ``adversary``, by default
    :func:`adversary_copula`, which requires p != q.
    """
    CostSpec(p, q)
    if carrier.variant != CHECKERBOARD:
        raise ValueError(f"{caller}: carrier must be a checkerboard; discretize monotone copulas first")
    i, j = pair
    if not (1 <= i < j <= carrier.n):
        raise ValueError(f"{caller}: need 1 <= i < j <= {carrier.n}, got ({i}, {j})")
    if adversary is None:
        adversary = adversary_copula(p, q)
    return i, j, _adversary_index_map(adversary, carrier.k)


class PairSkeleton(NamedTuple):
    """The epsilon-free part of the construction on one carrier and pair.

    ``law`` is the carrier's midpoint law: one atom per cell of positive
    mass, in the carrier's cell order, weighted by the cell's mass.  Atom c
    is the point with coordinates ``midpoints[cells[d, c]]``.  Both plans
    couple ``law`` with itself, and their source and target are
    ``law.atoms``.  At an epsilon only the atoms change
    (:func:`_scaled_sides`), so no plan is built per epsilon:
    :func:`_cost_sweep` costs both plans from their rows' cell indices.
    """

    pair: tuple[int, int]
    law: MultivariateMeasure
    diamond_plan: TransportPlan
    alt_plan: TransportPlan
    midpoints: np.ndarray
    cells: np.ndarray


def pair_skeleton(
    carrier: Copula,
    p: float,
    q: float,
    pair: tuple[int, int],
    adversary: Copula | None = None,
) -> PairSkeleton:
    """Everything of the construction that does not depend on epsilon, checked once.

    The carrier must be a checkerboard (see :func:`discretize`).  Writing
    (U_1, ..., U_n) for the carrier's midpoint law, the source at epsilon
    scales every coordinate but U_i by eps and the target every coordinate
    but U_j.  Each carrier cell of positive mass is one atom on either side.
    The cells, taken in the carrier's row-major order, have lexicographically
    increasing midpoints, and scaling columns by positive factors keeps that
    order, so cell c is atom c of the law at every epsilon: the weights and
    the plans' rows (atom indices and weights) are built here once.  The
    quantile plan pairs each cell with itself.  The competitor pairs each
    source cell of row a of the (i, j) margin with every target cell of its
    column adv[a], with weight w_s * (w_t / colsum[adv[a]]); its rows come
    out in (i, j) order, so :func:`plan_from_indices` keeps them as built.
    This target copy rewires the dependence between coordinates i and j
    through the adversary while keeping all conditionals, which leaves its
    law unchanged.  Both plans are validated against (``law``, ``law``), and
    the rewired target law is checked against ``law`` exactly (same atoms,
    weights within 1e-12); either failure raises a ``RuntimeError``.

    ``adversary`` defaults to :func:`adversary_copula`, which requires
    p != q; pass it explicitly to build control constructions at p = q.
    """
    i, j, adv = _pair_arguments("pair_skeleton", carrier, pair, p, q, adversary)
    k = carrier.k
    cells = _read_only(np.array(np.nonzero(carrier.masses)))
    mids = _read_only((np.arange(k) + 0.5) / k)
    atoms = _read_only(np.column_stack([mids[c] for c in cells]))
    w = _read_only(carrier.masses[tuple(cells)])
    law = MultivariateMeasure(atoms=atoms, weights=_read_only(w / exact_sum(w)))
    rows = _read_only(np.arange(len(w)))
    diamond_plan = plan_from_indices(atoms, atoms, rows, rows, w)

    # Competitor: each source cell s, of row a of the (i, j) margin, is
    # coupled with every target cell of column adv[a], in the carrier's cell
    # order; the rows run over the source cells in that order too.
    row, col = cells[i - 1], cells[j - 1]
    colsum = bivariate_margin(carrier, i, j).masses.sum(axis=0)
    col_count = np.bincount(col, minlength=k)
    col_cells = np.argsort(col, kind="stable")
    target_col = adv[row]
    fan = col_count[target_col]
    src = _read_only(np.repeat(rows, fan))
    # Row r of a source cell whose rows start at row f is the (r - f)-th cell
    # of its target column, which starts at position col_start in col_cells.
    col_start = np.cumsum(col_count) - col_count
    position = np.repeat(col_start[target_col] - (np.cumsum(fan) - fan), fan)
    position += np.arange(len(src))
    tgt = col_cells.take(position)
    alt_w = np.repeat(w, fan)
    alt_w *= (w / colsum[col]).take(tgt)  # before tgt is read-only: take copies such indices
    alt_plan = plan_from_indices(atoms, atoms, src, _read_only(tgt), _read_only(alt_w))

    if not measures_close(alt_plan.second_marginal(), law, 1e-12):
        raise RuntimeError(
            "pair_skeleton: the rewired target law does not match the original one; "
            "the carrier's margins are too far from uniform"
        )
    for label, plan in (("quantile", diamond_plan), ("competitor", alt_plan)):
        if not validate_plan(plan, law, law):
            raise RuntimeError(f"pair_skeleton: the {label} plan fails marginal validation")
    return PairSkeleton(
        pair=(i, j), law=law, diamond_plan=diamond_plan, alt_plan=alt_plan, midpoints=mids, cells=cells
    )


def _side_scales(skeleton: PairSkeleton, epsilon: float) -> list[list[float]]:
    """Column scales of the source and the target: each keeps its coordinate of the pair."""
    n = skeleton.law.dimension
    return [[1.0 if d == kept - 1 else float(epsilon) for d in range(n)] for kept in skeleton.pair]


def _scaled_sides(skeleton: PairSkeleton, epsilon: float) -> list[np.ndarray]:
    """The source's and the target's atoms at ``epsilon`` (:func:`_side_scales`), read-only and checked."""
    sides = [_read_only(skeleton.law.atoms * scale) for scale in _side_scales(skeleton, epsilon)]
    try:
        for atoms in sides:
            _check_atoms(atoms, "scaled", "gap_search")
    except ValueError:
        raise ValueError(
            f"gap_search: epsilon={epsilon!r} is too small: scaling by it merges "
            f"or reorders atoms of the carrier"
        ) from None
    return sides


def _cost_sweep(skeleton: PairSkeleton, spec: CostSpec) -> Callable[[float], tuple[float, float]]:
    """Both plan costs of the construction at any epsilon, from per-coordinate distance tables.

    Returns ``costs(epsilon) -> (diamond_cost, alt_cost)``, equal bit for bit
    to :func:`plan_cost` of each skeleton plan's rows (i, j, w) on the scaled
    atoms of :func:`_scaled_sides`.  Coordinate d of atom c is the midpoint
    m[cells[d, c]] times 1 or epsilon, so a row's distance in coordinate d
    is entry a * k + b of the k x k table |s_d m_a - t_d m_b|^q, where
    (s_d, t_d) are the coordinate's source and target scales; these codes
    are found once per search.  Each epsilon builds one table per distinct
    pair of scales by ``plan_cost``'s steps ((s m)[a] == s m[a]
    elementwise), gathers coordinate 0 straight into the row sums and each
    further coordinate into one reused column that it adds, left to right,
    as ``plan_cost`` does (from 8 coordinates on, into row-major distances
    that ``np.sum`` adds), and ends with :func:`_row_cost_sum`.  Below 8
    coordinates, a further coordinate whose target cell is the same on all
    rows of each source atom has one code per atom, and ``np.repeat``
    spreads its distances over the atom's rows instead of a gather; the
    competitor's coordinate j is one.

    Each epsilon checks the scaled atoms through the scaled midpoints:
    multiplying by a positive float keeps their order, so while they stay
    finite and strictly increasing the scaled atoms stay sorted and
    distinct.  Only when midpoints merge or overflow does ``costs`` check
    the atoms whole, by :func:`_scaled_sides`, whose ``ValueError`` names a
    too small epsilon.  No plan is built at any epsilon.
    """
    n = skeleton.law.dimension
    mids, cells = skeleton.midpoints, skeleton.cells
    k = len(mids)
    i, j = skeleton.pair
    # Whether coordinate d is scaled on the source and on the target side.
    scaled = [(d != i - 1, d != j - 1) for d in range(n)]
    kernels = []
    for plan in (skeleton.diamond_plan, skeleton.alt_plan):
        rows = len(plan)
        # The rows are sorted by source atom and cover every atom: atom a's
        # fan[a] rows start at row starts[a], and plan.i is np.repeat of the
        # atoms by fan.  np.repeat spreads one value per atom in about half
        # the time of a gather.
        starts = np.searchsorted(plan.i, np.arange(len(plan.source)))
        fan = np.diff(starts, append=rows)
        codes = []
        for d, c in enumerate(cells):
            code = c[plan.j]  # take would copy the read-only indices first
            if 0 < d < n < 8 and len(starts) < rows and np.array_equal(code, np.repeat(code[starts], fan)):
                # Each atom's rows share their target cell: one code per atom.
                codes.append((c * k + code[starts], fan))
            else:
                code += np.repeat(c * k, fan)
                codes.append((code, None))
        if n >= 8:
            # Coordinate d's distances are column d of a row-major block,
            # summed as plan_cost sums them.
            per_row, work = np.empty(rows), np.empty((rows, n))
        else:
            per_row, work = np.empty((2, rows))
        kernels.append((codes, per_row, work, plan.w))

    def costs(epsilon: float) -> tuple[float, float]:
        eps_mids = mids * epsilon
        if not (np.isfinite(eps_mids).all() and (eps_mids[1:] > eps_mids[:-1]).all()):
            _scaled_sides(skeleton, epsilon)
        column = {False: mids, True: eps_mids}
        tables = {}
        for kind in set(scaled):
            table = np.subtract.outer(column[kind[0]], column[kind[1]])
            np.abs(table, out=table)
            table **= spec.q
            tables[kind] = table
        plan_costs = []
        for codes, per_row, work, w in kernels:
            # Every code is in range; "clip" spares the copy that "raise" makes.
            if n >= 8:
                for d, (code, _) in enumerate(codes):
                    np.take(tables[scaled[d]], code, out=work[:, d], mode="clip")
                np.sum(work, axis=1, out=per_row)
            else:
                np.take(tables[scaled[0]], codes[0][0], out=per_row, mode="clip")
                for d in range(1, n):
                    (code, fan), table = codes[d], tables[scaled[d]]
                    if fan is None:
                        np.take(table, code, out=work, mode="clip")
                        per_row += work
                    else:
                        per_row += np.repeat(table.take(code), fan)
            plan_costs.append(_row_cost_sum(per_row, w, spec, work))
        diamond_cost, alt_cost = plan_costs
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
    i, j, adv = _pair_arguments("limit_scores", carrier, pair, p, q, adversary)
    C2 = np.asarray(bivariate_margin(carrier, i, j).masses)
    mids = (np.arange(carrier.k) + 0.5) / carrier.k
    nz = np.nonzero(C2)
    limit_diamond = math.fsum(
        C2[nz] * (mids[nz[0]] ** q + mids[nz[1]] ** q) ** (p / q)
    )
    rowsum = C2.sum(axis=1)
    limit_alt = math.fsum(rowsum * (mids**q + mids[adv] ** q) ** (p / q))
    return float(limit_diamond), float(limit_alt)


def limit_potentials(k: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Dual potentials (f, g) of the epsilon -> 0 limit problem on the k midpoints.

    The limit problem couples two uniform laws on the midpoints m_a under
    L[a, b] = (m_a^q + m_b^q)^{p/q}, and the adversary's permutation adv
    (:func:`adversary_copula`) is its optimal coupling
    (:func:`find_violating_pair`).  Reordering the target by adv makes L a
    Monge array with adv on its north-west-corner staircase of cumulative
    weights (1..k)/k, so that staircase's potentials (Hoffman 1963) are dual
    feasible: f[a] + g[b] = L[a, b] on the cells (a, adv[a]) and
    (a + 1, adv[a]), and f[a] + g[b] <= L[a, b] elsewhere up to rounding.
    """
    adv = _adversary_index_map(adversary_copula(p, q), k)
    mids = (np.arange(k) + 0.5) / k
    limit = (mids[:, None] ** q + mids[None, :] ** q) ** (p / q)
    cum = [(t + 1) / k for t in range(k)]
    f, g_adv = _staircase_potentials(cum, cum, limit[:, adv].tolist())
    g = np.empty(k)
    g[adv] = g_adv
    return f, g


def default_schedule() -> tuple[float, ...]:
    """Geometric epsilon schedule 0.5, 0.25, ..., 0.5 * 2^-15."""
    return tuple(0.5 * 0.5**step for step in range(16))


def gap_search(
    copula: Copula,
    p: float,
    q: float,
    *,
    carrier_resolution: int = DEFAULT_CARRIER_RESOLUTION,
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
    atoms through their columns and costs both plans from per-coordinate
    distance tables, gathered by row codes found once (:func:`_cost_sweep`),
    so no plan is built at any epsilon.  The exact
    certificate at the accepted epsilon solves between the two scaled
    measures: the scaled atoms of each side with the law's weights.  Its
    assignment is warm-started from :func:`limit_potentials`, the duals of
    the problem it tends to as epsilon -> 0; they move no output.  Raises a
    ``ValueError`` when the copula has fewer than two coordinates, since the
    construction needs a pair;
    :class:`NoViolatingPair` when no pair of the carrier is violating (see
    :func:`find_violating_pair`); and :class:`ScheduleExhausted` when no
    epsilon yields a significant gap although the limit gap is positive.
    """
    spec = CostSpec(p, q)
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
        source, target = _scaled_sides(skeleton, accepted.epsilon)
        weights = skeleton.law.weights
        mu = MultivariateMeasure(atoms=source, weights=weights)
        rho = MultivariateMeasure(atoms=target, weights=weights)
        # The target keeps coordinate j, so at small epsilon target atom t
        # sits near midpoint cells[j - 1][t] of the limit problem.
        _, g = limit_potentials(carrier.k, p, q)
        try:
            exact_cost = exact_ot(mu, rho, spec, pair_cap, g[skeleton.cells[j - 1]]).value
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
