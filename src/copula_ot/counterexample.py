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
from typing import NamedTuple, Sequence

import numpy as np

from .copulas import (
    CHECKERBOARD,
    COMONOTONE,
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
    TransportPlan,
    _check_atoms,
    _coordinate_sums,
    _distance_powers,
    _row_cost_sums,
    _staircase_potentials,
    _sum_powers,
    exact_ot,
    plan_from_indices,
    validate_plan,
)

# A gap is treated as real once it clears this fraction of max(1, cost);
# anything smaller is indistinguishable from accumulated rounding.
GAP_SIGNIFICANCE = 1e-9

# Checkerboard resolution at which gap_search discretizes monotone copulas.
DEFAULT_CARRIER_RESOLUTION = 16

# Values per (block, rows) row-cost buffer of the gap sweep: its block of
# epsilons is this many divided by the competitor's rows, and at least one.
_SWEEP_BLOCK_VALUES = 32_768

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
    adversary_cells = (np.arange(k), _adversary_index_map(p, q, k))
    for i in range(1, carrier.n + 1):
        for j in range(i + 1, carrier.n + 1):
            off = bivariate_margin(carrier, i, j).masses.copy()
            off[adversary_cells] = 0.0
            if off.any():
                return (i, j)
    return None


def _adversary_index_map(p: float, q: float, k: int) -> np.ndarray:
    """The index map a -> adv[a] of :func:`adversary_copula` on k midpoints: the identity or the reversal."""
    if adversary_copula(p, q).variant == COMONOTONE:
        return np.arange(k)
    return k - 1 - np.arange(k)


def _pair_arguments(
    caller: str, carrier: Copula, pair: tuple[int, int], p: float, q: float
) -> tuple[int, int, np.ndarray]:
    """``(i, j, adv)`` after the argument checks of ``caller``, which its errors name.

    The exponents must be valid and differ, the carrier must be a
    checkerboard and the pair 1 <= i < j <= n; ``adv`` is the adversary's
    index map (:func:`_adversary_index_map`).
    """
    CostSpec(p, q)
    if carrier.variant != CHECKERBOARD:
        raise ValueError(f"{caller}: carrier must be a checkerboard; discretize monotone copulas first")
    i, j = pair
    if not (1 <= i < j <= carrier.n):
        raise ValueError(f"{caller}: need 1 <= i < j <= {carrier.n}, got ({i}, {j})")
    return i, j, _adversary_index_map(p, q, carrier.k)


class PairSkeleton(NamedTuple):
    """The epsilon-free part of the construction on one carrier and pair.

    ``law`` is the carrier's midpoint law: one atom per cell of positive
    mass, in the carrier's cell order, weighted by the cell's mass.  Atom c
    is the point with coordinates ``midpoints[cells[d, c]]``.  Both plans
    couple ``law`` with itself, and their source and target are
    ``law.atoms``.  At an epsilon only the atoms change
    (:func:`_scaled_sides`), so no plan is built per epsilon:
    :func:`_cost_sweep` costs both plans from their rows' cell indices.
    ``adversary`` is the index map a -> adv[a] the competitor rewires the
    pair through.
    """

    pair: tuple[int, int]
    law: MultivariateMeasure
    diamond_plan: TransportPlan
    alt_plan: TransportPlan
    midpoints: np.ndarray
    cells: np.ndarray
    adversary: np.ndarray


def _full_grid(k: int, n: int, atoms: int) -> bool:
    """Whether all k^n cells of an n-coordinate carrier are atoms, and there are at least two.

    Then the competitor's rows are a product layout: each atom, in the
    carrier's row-major order, against the k^(n-1) atoms of its target
    column, in row-major order of their other coordinates, and
    :func:`_cost_sweep` works on that layout instead of on row indices.
    The competitor's view of that layout has 2n axes, and numpy allows 64;
    only a k = 1 carrier could have more, so its single atom stays off the
    layout.
    """
    return atoms == k**n > 1


def pair_skeleton(carrier: Copula, p: float, q: float, pair: tuple[int, int]) -> PairSkeleton:
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
    They are broadcast from one (k, width) layout of the cell indices: row b
    lists column b's cells in cell order, padded to the fullest column, and
    each source cell takes the row of its target column.  The padding is
    dropped only when some column is short; on a full grid
    (:func:`_full_grid`), as ``independence`` carriers are, every column
    holds k^(n-1) cells and there is none.
    This target copy rewires the dependence between coordinates i and j
    through the adversary while keeping all conditionals, which leaves its
    law unchanged.  Both plans are validated against (``law``, ``law``), and
    the rewired target law is checked against ``law`` exactly (same atoms,
    weights within 1e-12).  A rewired law off by more is the input's fault,
    a carrier whose margins are uniform only within its slice tolerance, and
    raises a ``ValueError``; a plan that fails validation raises a
    ``RuntimeError``.
    p and q are read only to pick the adversary (:func:`adversary_copula`).
    """
    i, j, adv = _pair_arguments("pair_skeleton", carrier, pair, p, q)
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
    target_col = adv[row]
    # Row b of the layout lists column b's cells in cell order, padded to the
    # fullest column; each source cell takes the row of its target column.
    count = np.bincount(col, minlength=k)
    filled = np.arange(count.max()) < count[:, None]
    layout = np.zeros(filled.shape, dtype=np.intp)
    layout[filled] = np.argsort(col, kind="stable")
    tgt = layout[target_col]
    alt_w = (w / colsum[col])[layout][target_col]
    alt_w *= w[:, None]
    competitor = [np.broadcast_to(rows[:, None], tgt.shape), tgt, alt_w]
    if not filled.all():  # drop the padding
        competitor = [part[filled[target_col]] for part in competitor]
    alt_plan = plan_from_indices(atoms, atoms, *(_read_only(part.ravel()) for part in competitor))

    if not measures_close(alt_plan.second_marginal(), law, 1e-12):
        raise ValueError(
            "pair_skeleton: the rewired target law does not match the original one; "
            "the carrier's margins are too far from uniform"
        )
    for label, plan in (("quantile", diamond_plan), ("competitor", alt_plan)):
        if not validate_plan(plan, law, law):
            raise RuntimeError(f"pair_skeleton: the {label} plan fails marginal validation")
    return PairSkeleton(
        pair=(i, j),
        law=law,
        diamond_plan=diamond_plan,
        alt_plan=alt_plan,
        midpoints=mids,
        cells=cells,
        adversary=_read_only(adv),
    )


def _scaled_sides(skeleton: PairSkeleton, epsilon: float) -> list[np.ndarray]:
    """The source's and the target's atoms at ``epsilon``, read-only and checked.

    The source keeps coordinate i of the pair and the target coordinate j;
    every other coordinate of each side is scaled by ``epsilon``.
    """
    n = skeleton.law.dimension
    scales = [[1.0 if d == kept - 1 else float(epsilon) for d in range(n)] for kept in skeleton.pair]
    sides = [_read_only(skeleton.law.atoms * scale) for scale in scales]
    try:
        for atoms in sides:
            _check_atoms(atoms, "scaled", "gap_search")
    except ValueError:
        raise ValueError(
            f"gap_search: epsilon={epsilon!r} is too small: scaling by it merges "
            f"or reorders atoms of the carrier"
        ) from None
    return sides


def _pair_tables(mids: np.ndarray, eps_mids: np.ndarray, q: float, others: bool) -> list[np.ndarray]:
    """The (block, k, k) distance tables of the construction, one block row per epsilon.

    ``mids`` holds the k midpoints m and ``eps_mids`` their (block, k)
    scaled copies eps m.  The source keeps coordinate i of the pair and
    the target coordinate j, and every other coordinate shrinks by eps on
    both sides, so a row's distance in a coordinate is an entry (a, b) of
    one of three tables: t_i = |m_a - eps m_b|^q for coordinate i,
    t_j = |eps m_a - m_b|^q for j and t_o = |eps m_a - eps m_b|^q for the
    others, by ``plan_cost``'s steps ((eps m)[a] == eps m[a]
    elementwise).  Returns [t_i, t_j], and t_o after them when ``others``.
    """
    sides = [(mids, eps_mids), (eps_mids, mids)] + [(eps_mids, eps_mids)] * others
    return [_distance_powers(np.subtract(s[..., :, None], t[..., None, :]), q) for s, t in sides]


def _cost_sweep(skeleton: PairSkeleton, spec: CostSpec, epsilons: Sequence[float]) -> list[tuple[float, float]]:
    """Both plan costs of the construction at each of ``epsilons``, from per-coordinate distance tables.

    Returns ``[(diamond_cost, alt_cost), ...]``, one pair per epsilon,
    equal bit for bit to :func:`plan_cost` of each skeleton plan's rows
    (i, j, w) on the scaled atoms of :func:`_scaled_sides`.  Coordinate d of
    atom c is the midpoint m[cells[d, c]] times 1 or epsilon, so a row's
    distance in coordinate d is an entry (a, b) of a k x k table of
    :func:`_pair_tables`.

    The epsilons are costed in blocks of up to ``_SWEEP_BLOCK_VALUES // rows``
    (``rows`` the competitor's row count), so that each numpy call does a
    block's work: at k = 16 eight epsilons, at the 110,592 rows of k = 48
    one.  A block builds its (block, k, k) tables by :func:`_pair_tables`,
    t_o only when some coordinate reads it (n > 2).  Each plan has two
    (block, rows) buffers, its row sums and the work space of
    :func:`_row_cost_sums`, which sums each epsilon's row costs exactly on
    its own.  The row sums add the coordinates' distances by
    :func:`_coordinate_sums`, as ``plan_cost`` adds them, so every row sum
    is the same float.  The buffers live for one call, so they are freed
    before the certificate's cost matrix is built.

    Each plan's row sums come from one of two builders.  On a full grid
    (:func:`_full_grid`), as the independence carriers of
    ``copula-ot counterexample`` and ``scripts/gap_curve.py`` are, the
    competitor builds no row index and reads none: the tables are broadcast
    onto a view of its row sums (:func:`_grid_row_sums`).  Every other plan
    gathers each row's distances by codes found once per call
    (:func:`_row_codes`, :func:`_gathered_row_sums`).  The quantile plan's
    row c pairs atom c with itself, so on every carrier it gathers only the
    two coordinates that move, from t_i and t_j.  Its other distances are
    |eps m - eps m| = +0, and adding +0 changes no float in either of
    ``_coordinate_sums``'s orders, so the sum of the two is ``plan_cost``'s.

    Each epsilon checks the scaled atoms through the scaled midpoints:
    multiplying by a positive float keeps their order, so while they stay
    finite and strictly increasing the scaled atoms stay sorted and
    distinct.  Only when midpoints merge or overflow are the atoms checked
    whole, by :func:`_scaled_sides`, whose ``ValueError`` names the first
    too small epsilon.  No plan is built at any epsilon.
    """
    n = skeleton.law.dimension
    mids, cells = skeleton.midpoints, skeleton.cells
    k = len(mids)
    i, j = skeleton.pair
    grid = _full_grid(k, n, len(skeleton.law))
    moving = [i - 1, j - 1]
    # Per plan: the coordinates its row sums read, and their row codes, None on the grid path.
    plans = [
        (skeleton.diamond_plan, moving, _row_codes(skeleton.diamond_plan, cells[moving], k)),
        (skeleton.alt_plan, range(n), None if grid else _row_codes(skeleton.alt_plan, cells, k)),
    ]
    size = min(max(1, _SWEEP_BLOCK_VALUES // len(skeleton.alt_plan)), max(1, len(epsilons)))
    # Per plan, its row sums and their work space.
    buffers = [[np.empty((size, len(plan))) for _ in range(2)] for plan, _, _ in plans]
    results = []
    for start in range(0, len(epsilons), size):
        chunk = epsilons[start : start + size]
        eps_mids = np.multiply.outer(np.array(chunk, dtype=float), mids)
        kept = np.isfinite(eps_mids).all(axis=1) & (eps_mids[:, 1:] > eps_mids[:, :-1]).all(axis=1)
        for epsilon, ok in zip(chunk, kept):
            if not ok:
                _scaled_sides(skeleton, epsilon)
        t_i, t_j, *t_o = _pair_tables(mids, eps_mids, spec.q, n > 2)
        tables = [t_i if d == i - 1 else t_j if d == j - 1 else t_o[0] for d in range(n)]
        plan_costs = []
        for (plan, coordinates, codes), buffer in zip(plans, buffers):
            per_row, work = (part[: len(chunk)] for part in buffer)
            if codes is None:
                _grid_row_sums(per_row, tables, skeleton)
            else:
                _gathered_row_sums(per_row, work, [tables[d] for d in coordinates], codes)
            plan_costs.append(_row_cost_sums(per_row, plan.w, spec, work))
        results.extend(zip(*plan_costs))
    return results


def _grid_row_sums(per_row: np.ndarray, tables: list[np.ndarray], skeleton: PairSkeleton) -> None:
    """The competitor's row sums on a full grid (:func:`_full_grid`), broadcast from the tables into ``per_row``.

    ``per_row`` is the C-contiguous (block, rows) row-sum buffer and
    ``tables[d]`` coordinate d's (block, k, k) table of :func:`_pair_tables`.
    The competitor's rows are source atoms by the cells, other than j, of
    their target's atoms, so its row sums are a
    (block,) + (k,) * n + (k,) * (n - 1) array: coordinate d's table goes
    on its source axis and its target axis, and coordinate j's, read at the
    target cell adv[a_i], on the source axes of i and j.
    """
    block, n, k = len(per_row), len(tables), len(skeleton.midpoints)
    i, j = skeleton.pair
    view = per_row.reshape((block,) + (k,) * (2 * n - 1))
    # Coordinate j's distance T_j[e, a_j, adv[a_i]], indexed [e, a_i, a_j].
    rewired = np.swapaxes(tables[j - 1][:, :, skeleton.adversary], 1, 2)
    terms = [
        (rewired, (i, j)) if d == j - 1 else (table, (1 + d, n + d + (d < j - 1)))
        for d, table in enumerate(tables)
    ]
    # Unit axes only are inserted, so each reshape is a view.
    terms = [term.reshape([block] + [k if a in axes else 1 for a in range(1, view.ndim)]) for term, axes in terms]
    _coordinate_sums(view, n, terms.__getitem__)


def _row_codes(plan: TransportPlan, cells: np.ndarray, k: int) -> list[np.ndarray]:
    """Per row of ``cells``, each plan row's flat k x k table index a * k + b, for its source cell a and target cell b."""
    return [c[plan.i] * k + c[plan.j] for c in cells]


def _gathered_row_sums(
    per_row: np.ndarray, work: np.ndarray, tables: list[np.ndarray], codes: list[np.ndarray]
) -> None:
    """One plan's row sums, gathered from the flattened tables by its :func:`_row_codes`.

    ``tables[d]`` and ``codes[d]`` belong to the d-th coordinate that the
    plan's row sums read: all n for the competitor off the full grid, the
    two moving ones for the quantile plan.  Each coordinate's distances are
    gathered into ``work`` as :func:`_coordinate_sums` reads them, so one
    (block, rows) buffer serves them all.
    """
    flat = [table.reshape(len(table), -1) for table in tables]
    # Every code is in range; "clip" spares the copy that "raise" makes.
    _coordinate_sums(per_row, len(codes), lambda d: np.take(flat[d], codes[d], axis=1, out=work, mode="clip"))


def _limit_costs(k: int, p: float, q: float) -> np.ndarray:
    """The limit problem's k x k cost L[a, b] = (m_a^q + m_b^q)^{p/q} on the midpoints m_a = (a + 1/2) / k."""
    powers = _distance_powers((np.arange(k) + 0.5) / k, q)
    return _sum_powers(np.add.outer(powers, powers), p, q)


def limit_scores(carrier: Copula, pair: tuple[int, int], p: float, q: float) -> tuple[float, float]:
    """Epsilon -> 0 limits of the two plan costs, as exact midpoint sums.

    The carrier must be a checkerboard (see :func:`discretize`).  In the
    limit only the unscaled coordinates survive: the quantile coupling's cost
    tends to E[(U_i^q + U_j^q)^{p/q}] under the carrier's (i, j) margin, the
    competitor's to the same functional under the adversary rearrangement of
    that margin.
    """
    i, j, adv = _pair_arguments("limit_scores", carrier, pair, p, q)
    C2 = np.asarray(bivariate_margin(carrier, i, j).masses)
    cost = _limit_costs(carrier.k, p, q)
    nz = np.nonzero(C2)
    limit_alt = math.fsum(C2.sum(axis=1) * cost[np.arange(carrier.k), adv])
    return math.fsum(C2[nz] * cost[nz]), limit_alt


def limit_potentials(adv: np.ndarray, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Dual potentials (f, g) of the epsilon -> 0 limit problem, walked along the permutation ``adv``.

    The limit problem couples two uniform laws on the k = len(adv) midpoints
    m_a under L[a, b] = (m_a^q + m_b^q)^{p/q}.  ``adv`` is the index map of
    the adversary that a skeleton rewires its pair through.  Any map gets
    the walks below; their potentials are strictly complementary when adv is
    the map of the adversary of (p, q) (:func:`adversary_copula`), the limit
    problem's optimal coupling (:func:`find_violating_pair`), and otherwise
    only a warm start.  Reordering the target by that adv makes L a Monge
    array with adv on its north-west-corner staircase of cumulative weights
    (1..k)/k, so that staircase's potentials (Hoffman 1963) are dual
    feasible.  The down-first walk is tight on the cells
    (a, adv[a]) and (a + 1, adv[a]); the right-first walk, the same walk on
    the transposed array with f and g swapped, on (a, adv[a]) and
    (a, adv[a + 1]).  Their average is tight only on the adversary's cells, up to rounding, and
    every other cell keeps strictly positive slack, because L is strictly
    Monge on distinct midpoints.
    """
    k = len(adv)
    ordered = _limit_costs(k, p, q)[:, adv]
    cum = [(t + 1) / k for t in range(k)]
    f_down, g_down = _staircase_potentials(cum, cum, ordered.tolist())
    g_right, f_right = _staircase_potentials(cum, cum, ordered.T.tolist())
    g = np.empty(k)
    g[adv] = (g_down + g_right) / 2
    return (f_down + f_right) / 2, g


def certificate_potentials(skeleton: PairSkeleton, p: float, q: float, epsilon: float) -> np.ndarray:
    """Column potentials of the exact certificate at ``epsilon``, one per target atom.

    Both levels follow the skeleton's adversary map adv.  The first level
    is :func:`limit_potentials`: as epsilon -> 0 the source's i-cell a is
    sent to the target's j-cell adv[a], so it splits the assignment into k
    blocks.  Block a pairs the source's j-cell b with the target's i-cell
    c, among the target atoms whose j-cell is adv[a], at the cost
    B_a[b, c'] = (|m_a - eps m_c|^q + |eps m_b - m_adv[a]|^q)^{p/q} of the
    two kept coordinates, with the columns in the order c = adv[c'].  Both
    terms are read from the tables t_i and t_j of :func:`_pair_tables`,
    and since fl(u - v) = -fl(v - u), at n = 2 these are the cost matrix's
    own floats.  The block's optimal coupling is its diagonal, c = adv[b],
    and with uniform weights the down-first and right-first staircase walks
    along it are cumulative sums of B[t, t] - B[t, t - 1] and of
    B[t - 1, t] - B[t - 1, t - 1].  The second level is their average,
    centred in each block and computed for all blocks at once.  Target atom
    t, with j-cell d and i-cell c, gets g[d] + h[adv[d], adv[c]]; both
    adversary maps are involutions.  At n >= 3 the blocks leave out the
    other coordinates' eps^q terms, so there the potentials only
    approximate a dual; they warm-start the solve either way and move no
    output.
    """
    mids, cells = skeleton.midpoints, skeleton.cells
    k = len(mids)
    adv = skeleton.adversary
    _, g = limit_potentials(adv, p, q)
    t_i, t_j = (table[0] for table in _pair_tables(mids, (mids * epsilon)[None], q, False))
    # kept_i[a, t] = |m_a - eps m_adv[t]|^q and kept_j[a, t] = |eps m_t - m_adv[a]|^q,
    # so B_a[b, c'] = (kept_i[a, c'] + kept_j[a, b])^{p/q}.
    kept_i = t_i[:, adv]
    kept_j = t_j[:, adv].T
    diagonal = _sum_powers(kept_i + kept_j, p, q)
    below = _sum_powers(kept_i[:, :-1] + kept_j[:, 1:], p, q)
    above = _sum_powers(kept_i[:, 1:] + kept_j[:, :-1], p, q)
    h = np.zeros((k, k))
    np.cumsum((diagonal[:, 1:] - below) + (above - diagonal[:, :-1]), axis=1, out=h[:, 1:])
    h *= 0.5
    h -= h.mean(axis=1, keepdims=True)
    i, j = skeleton.pair
    d = cells[j - 1]
    return g[d] + h[adv[d], adv[cells[i - 1]]]


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
    distance tables, several epsilons per numpy call (:func:`_cost_sweep`),
    so no plan is built at any epsilon.  On a carrier whose every cell has
    mass, as the default independence copula's has, the tables are
    broadcast onto the competitor's product layout; every other plan,
    the quantile plan on every carrier included, gathers them by row codes
    found once.  The row sums are added in the same order either way, so
    the costs are the same floats.
    The exact certificate at the accepted epsilon solves between the two
    scaled measures: the scaled atoms of each side with the law's weights.
    The source's atoms are a product grid on the independence carrier, so
    the cost matrix is spread from per-axis tables into one buffer.
    :func:`exact_ot` gets :func:`certificate_potentials`: the duals of the
    problem it tends to as epsilon -> 0 (:func:`limit_potentials`), refined
    inside each of that problem's k blocks at the accepted epsilon.
    ``exact_ot`` alone picks the solve.  When the law's weights are all the
    same float the problem is an assignment: if each row's cheapest column
    of the reduced costs is strict and distinct, those columns are the
    optimal permutation and no solver runs (on ``independence(2, k)`` they
    are); otherwise the potentials warm-start the assignment.  Unequal
    weights take the LP, which ignores them.  They move no output.  When the
    support-pair count exceeds ``pair_cap`` neither the measures nor the
    potentials are built and ``exact_cost`` is None.  Raises a
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
    curve = [
        CurvePoint(epsilon=float(eps), diamond_cost=dc, alt_cost=ac, gap=dc - ac)
        for eps, (dc, ac) in zip(eps_values, _cost_sweep(skeleton, spec, eps_values))
    ]
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
    # exact_ot would raise PairCountCapExceeded above the cap: build nothing for it.
    if attach_exact and len(skeleton.law) ** 2 <= pair_cap:
        source, target = _scaled_sides(skeleton, accepted.epsilon)
        weights = skeleton.law.weights
        mu = MultivariateMeasure(atoms=source, weights=weights)
        rho = MultivariateMeasure(atoms=target, weights=weights)
        g = certificate_potentials(skeleton, p, q, accepted.epsilon)
        exact_cost = exact_ot(mu, rho, spec, pair_cap, g).value
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
