"""Finitely supported probability measures on the line and on R^n.

Measures are immutable: atoms are canonicalized (sorted, duplicates merged by
exact float equality, zero weights dropped) and weights are normalized to unit
mass at construction time.  Weight accumulation is exact and rounded once
(``math.fsum``, or :func:`exact_sum` on long arrays) so that two constructions
whose real-arithmetic weights agree produce identical floats whenever the
inputs are exactly representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

# Unit-mass slack per stored atom; constructors normalize so anything larger
# than accumulated rounding indicates a bug in the caller.
MASS_TOL = 1e-12

# Blocks of fewer values go to math.fsum, which is faster on them: on uniform
# random values fsum and the extraction below take equal time at about 768.
EXACT_SUM_CUTOVER = 768
# Rows below this cannot overflow the level or its sums.
_EXACT_SUM_LIMIT = 2.0**960
# The binary exponent of the smallest normal float.
_MIN_NORMAL_EXP = -1022
# Up to this length n(n - 1) 2**-53 <= 1, which the first level's rounding
# decision needs (see _exact_sums_in_place).
_DECIDE_MAX_LEN = 2**26


def exact_sum(v: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float array: the correctly rounded exact sum.

    Returns the same float as ``math.fsum(v)`` on every input and raises the
    same exception.  Inputs shorter than ``EXACT_SUM_CUTOVER`` go to
    ``math.fsum``.  A longer input whose entries are all one nonzero float
    sums exactly to ``len(v) * v[0]``, and both a float product and
    ``math.fsum`` round that to nearest, ties to even: a finite product is
    returned as is.  Zeros are left to ``math.fsum``, which decides the sign
    of a zero sum its own way.  The k = 48 carrier's 2,304 equal weights
    sum to a tie, which the extraction leaves undecided for ``math.fsum``,
    so this spares that Python loop.  Other
    inputs are a one-row :func:`_exact_sums_in_place`, which sums by
    error-free extraction instead of a Python loop.
    """
    v = np.asarray(v, dtype=float)
    if len(v) < EXACT_SUM_CUTOVER:
        return math.fsum(v.tolist())
    if v[0] != 0.0 and (v == v[0]).all():
        total = len(v) * float(v[0])
        if math.isfinite(total):
            return total
    return _exact_sums_in_place(v[None].copy(), np.empty(len(v)))[0]


def _exact_sums_in_place(p: np.ndarray, work: np.ndarray) -> list[float]:
    """:func:`exact_sum` of each row of the C-contiguous (b, n) array ``p``, overwriting ``p`` and ``work``.

    ``work`` is a C-contiguous float array of b * m values, m >= n, in any
    shape; it is read as b rows of m.  A block of fewer than
    ``EXACT_SUM_CUTOVER`` values goes to ``math.fsum`` row by row.
    Otherwise all rows share one level of error-free extraction (Rump, Ogita
    and Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
    Comput. 31(1), 2008), each row v with its own sigma: with
    max|v| < 2**e and sigma = 2**E, E = ceil(log2(n + 2)) + e,
    ``(v + sigma) - sigma`` rounds every value to a multiple of 2**(E - 53),
    so S1, the ``np.sum`` of those values, is exact in any order, and the
    n remainders, |r_i| <= 2**(E - 53), are the exact rounding errors.

    Their float sum R, in any order, is within gamma_(n-1) * n * 2**(E - 53)
    <= n**2 * 2**(E - 106) = B of their exact sum: gamma_(n-1) =
    (n-1)u / (1 - (n-1)u) <= n u for u = 2**-53 and n <= 2**26 (Higham,
    "Accuracy and stability of numerical algorithms", 2nd ed., 2002,
    chapter 4; float addition is exact on underflow).  Let s = fl(S1 + R)
    and e = S1 + R - s, exact by TwoSum: the row's sum is s + e + d with
    |d| <= B.  Let up and down be the gaps from s to the next float above
    and below; they differ when |s| is a power of two.  If e + B < up / 2
    and B - e < down / 2, the sum lies strictly between the midpoints
    around s, so it rounds to s with no tie, and s is what ``math.fsum``
    returns (:func:`_decided_sum`).

    The tests are made in floats and imply the real ones.  The gaps are
    exact (Sterbenz), and so is B, a normal float.  Where a gap is
    2**-1074 its half rounds to 0, and |e| <= 2**-1075 < B, so that test
    fails.  Elsewhere the half gaps are exact and rounding is monotone, so
    fl(e + B) < up / 2 implies e + B < up / 2, and likewise for B - e.  A
    row whose test fails is rounded by ``math.fsum`` of S1 and its
    remainders, which add up to it exactly.  A row that is all zero (fsum
    decides the sign of a zero), non-finite, at or above 2**960, or too
    small for B to be a normal float, goes to ``math.fsum`` of the row
    itself before the level overwrites it, as does every row longer than
    2**26.  Every row thus gets the float ``math.fsum`` returns, and the
    first row on which ``math.fsum`` raises raises the same exception.
    """
    b, n = p.shape
    if b * n < EXACT_SUM_CUTOVER:
        return [math.fsum(row) for row in p.tolist()]
    bits = (n + 1).bit_length()  # ceil(log2(n + 2))
    direct, exponents = {}, []
    for i, top in enumerate(np.maximum(p.max(axis=1), -p.min(axis=1)).tolist()):
        exponent = math.frexp(top)[1] + bits
        # nan fails both comparisons.
        if 0.0 < top < _EXACT_SUM_LIMIT and exponent - 106 >= _MIN_NORMAL_EXP and n <= _DECIDE_MAX_LEN:
            exponents.append(exponent)
        else:
            direct[i] = math.fsum(p[i].tolist())
            # Zeroed, with sigma 1, the row passes through the level with no float warning.
            p[i] = 0.0
            exponents.append(0)
    sigma = np.ldexp(1.0, exponents)[:, None]
    work = work.reshape(b, -1)[:, :n]
    np.add(p, sigma, out=work)
    work -= sigma
    level = work.sum(axis=1).tolist()
    p -= work
    sums = []
    for i, (s1, r, exponent) in enumerate(zip(level, p.sum(axis=1).tolist(), exponents)):
        s = direct[i] if i in direct else _decided_sum(s1, r, n, exponent)
        sums.append(math.fsum([s1] + p[i].tolist()) if s is None else s)
    return sums


def _decided_sum(s1: float, r: float, n: int, exponent: int) -> float | None:
    """The first level's rounding decision (:func:`_exact_sums_in_place`): s, or None if it is undecided.

    ``s1`` is the exact level sum, ``r`` a float sum of the n remainders and
    2**exponent the level's sigma.
    """
    bound = math.ldexp(n * n, exponent - 106)
    s = s1 + r
    r_part = s - s1
    e = (s1 - (s - r_part)) + (r - r_part)  # TwoSum: s + e == s1 + r exactly
    up = math.nextafter(s, math.inf) - s
    down = s - math.nextafter(s, -math.inf)
    return s if e + bound < up / 2 and bound - e < down / 2 else None


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only."""
    arr.flags.writeable = False
    return arr


def _checked_rows(atoms, weights, ndims: tuple[int, ...] = (1, 2)) -> tuple[np.ndarray, np.ndarray]:
    """Finite atom rows of shape (m, d) and m finite nonnegative weights.

    A flat atom list is read as m points on the line.  These are the input
    checks of every measure constructor.
    """
    a = np.asarray(atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    for arr, name, allowed in ((a, "atoms", ndims), (w, "weights", (1,))):
        if arr.ndim not in allowed:
            wanted = " or ".join(map(str, allowed))
            raise ValueError(
                f"{name}: expected a {wanted}-dimensional array, got shape {arr.shape}"
            )
        if arr.size == 0:
            raise ValueError(f"{name}: empty input")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name}: values must be finite")
    if a.shape[0] != w.shape[0]:
        raise ValueError(f"atoms and weights differ in length: {a.shape[0]} vs {w.shape[0]}")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    return a.reshape(a.shape[0], -1), w


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows that differ from the row before; on sorted rows, each group's first."""
    new_run = np.empty(len(rows), dtype=bool)
    new_run[:1] = True
    (rows[1:] != rows[:-1]).any(axis=1, out=new_run[1:])
    return new_run


def _sorted_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lexicographic order of the rows, the sorted rows, and the mask of each group's first row."""
    order = np.lexsort(rows.T[::-1])
    rows = rows.take(order, axis=0)
    return order, rows, _run_starts(rows)


def _fsum_runs(weights: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each run weights[starts[g]:starts[g + 1]], by ``math.fsum``.

    Singleton runs keep their weight; only the others need an fsum.  Shared by
    the measure and the transport-plan merges.  With no run longer than one,
    ``weights`` itself comes back.
    """
    if len(starts) == len(weights):
        return weights
    ends = np.append(starts[1:], len(weights))
    multi = np.flatnonzero(ends - starts > 1)
    merged = weights[starts]
    for g, s, e in zip(multi.tolist(), starts[multi].tolist(), ends[multi].tolist()):
        merged[g] = math.fsum(weights[s:e])
    return merged


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order and the index of each input row among them.

    Rows are equal when every coordinate is exactly equal, as in
    :func:`merge_weighted_rows`, so the distinct rows are the atoms that a
    measure built on these rows with positive weights would have.  The
    distinct rows are a fresh read-only array.
    """
    order, rows, first = _sorted_runs(rows)
    inverse = np.empty(len(rows), dtype=np.intp)
    # numpy's cumsum of a bool array is slow on short arrays; of intp it is not.
    inverse[order] = first.astype(np.intp).cumsum() - 1
    return _read_only(rows.take(first.nonzero()[0], axis=0)), inverse


def merge_weighted_rows(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group exactly-equal rows, fsum their weights, drop zero-weight groups.

    Rows come back sorted lexicographically by coordinate.  This is the merge
    of the measure constructors; plans are built from atom indices instead.
    """
    order, rows, first = _sorted_runs(rows)
    starts = first.nonzero()[0]
    weights = _fsum_runs(weights[order], starts)
    rows = rows.take(starts, axis=0)
    keep = weights != 0.0
    if not keep.all():
        if not keep.any():
            raise ValueError("all weights merged to zero")
        rows, weights = rows[keep], weights[keep]
    return rows, weights


def _canonical(atoms, weights, ndims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, merged atom rows and their weights normalized to unit mass.

    Both arrays are fresh and read-only, so measures can hold them as is.
    """
    a, w = _checked_rows(atoms, weights, ndims=ndims)
    # Normalize by the total of the raw weights, not of the merged ones: the
    # two can differ by an ulp, and stored measures carry this rounding.
    total = exact_sum(w)
    if total <= 0.0:
        raise ValueError("weights must have positive total mass")
    rows, merged = merge_weighted_rows(a, w)
    return _read_only(rows), _read_only(merged / total)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure1D:
    """Probability measure with finitely many atoms on R.

    ``atoms`` and ``weights`` are read-only arrays of shape (m,).  ``atoms``
    is strictly increasing, every weight is positive, and the weights sum to
    one (the last cumulative weight is pinned to exactly 1.0).  Build
    instances through :func:`make_measure_1d`.
    """

    atoms: np.ndarray
    weights: np.ndarray

    @cached_property
    def cum_weights(self) -> np.ndarray:
        acc = np.cumsum(self.weights)
        acc[-1] = 1.0
        return _read_only(acc)

    def __len__(self) -> int:
        return len(self.atoms)

    def cdf(self, x: float) -> float:
        """Total weight of atoms <= x (right continuous)."""
        if not math.isfinite(x):
            raise ValueError("cdf: point must be finite")
        idx = int(np.searchsorted(self.atoms, x, side="right"))
        return 0.0 if idx == 0 else float(self.cum_weights[idx - 1])

    def quantile(self, u: float) -> float:
        """Generalized inverse: the smallest atom whose CDF reaches u.

        Defined for u in (0, 1]; nondecreasing and left continuous in u.
        """
        if not 0.0 < u <= 1.0:
            raise ValueError(f"quantile: u must lie in (0, 1], got {u!r}")
        return float(self.atoms[np.searchsorted(self.cum_weights, u, side="left")])

    def quantile_index(self, us: np.ndarray) -> np.ndarray:
        """Atom indices of :meth:`quantile` at u values already known to be in (0, 1]."""
        idx = np.searchsorted(self.cum_weights, us, side="left")
        # cum_weights ends at exactly 1.0, but guard against float dust above it
        return np.minimum(idx, len(self.atoms) - 1)

    def to_multivariate(self) -> "MultivariateMeasure":
        return MultivariateMeasure(atoms=self.atoms[:, None], weights=self.weights)


def make_measure_1d(atoms: Iterable[float], weights: Iterable[float]) -> DiscreteMeasure1D:
    """Canonicalize (sort, merge exact duplicates, drop zeros) and normalize."""
    rows, w = _canonical(atoms, weights, ndims=(1,))
    return DiscreteMeasure1D(atoms=rows[:, 0], weights=w)


@dataclass(frozen=True, eq=False)
class MultivariateMeasure:
    """Probability measure with finitely many atoms on R^n.

    ``atoms`` is a read-only (m, n) array of lexicographically sorted,
    pairwise distinct rows; ``weights`` is a read-only (m,) array of positive
    weights with unit total.  Coordinates are indexed 1..n in the public API.
    """

    atoms: np.ndarray
    weights: np.ndarray

    @property
    def dimension(self) -> int:
        return self.atoms.shape[1]

    def __len__(self) -> int:
        return len(self.atoms)

    def marginal(self, coord: int) -> DiscreteMeasure1D:
        """One-dimensional marginal of coordinate ``coord`` (1-based)."""
        if not 1 <= coord <= self.dimension:
            raise ValueError(f"marginal: coordinate {coord} out of range 1..{self.dimension}")
        return make_measure_1d(self.atoms[:, coord - 1], self.weights)


def make_measure(atoms, weights) -> MultivariateMeasure:
    """Canonicalize atom rows (exact-equality merge) and normalize weights."""
    rows, w = _canonical(atoms, weights, ndims=(1, 2))
    return MultivariateMeasure(atoms=rows, weights=w)


def measures_close(
    left: MultivariateMeasure | DiscreteMeasure1D,
    right: MultivariateMeasure | DiscreteMeasure1D,
    weight_tol: float,
) -> bool:
    """Same atom set exactly, weights within ``weight_tol`` per atom."""
    if isinstance(left, DiscreteMeasure1D):
        left = left.to_multivariate()
    if isinstance(right, DiscreteMeasure1D):
        right = right.to_multivariate()
    if not np.array_equal(left.atoms, right.atoms):
        return False
    return bool(np.max(np.abs(left.weights - right.weights)) <= weight_tol)


def measure_to_dict(measure: MultivariateMeasure | DiscreteMeasure1D) -> dict:
    """JSON-ready form: {"atoms": [[...], ...], "weights": [...]}."""
    if isinstance(measure, DiscreteMeasure1D):
        measure = measure.to_multivariate()
    return {"atoms": measure.atoms.tolist(), "weights": measure.weights.tolist()}


def _number_array(value, field: str) -> np.ndarray:
    """A JSON list of numbers, possibly nested, as a float array.

    Every leaf must be a JSON number: numeric strings and booleans are
    rejected, not coerced, so two spellings of one value never merge.
    Anything else raises a ValueError that names ``field``, so malformed
    input files read as bad input and never as a TypeError from numpy.
    """
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {type(value).__name__}")
    pending = [value]
    while pending:
        for item in pending.pop():
            if isinstance(item, list):
                pending.append(item)
            elif isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ValueError(f"{field} must hold only numbers, got {item!r}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{field} must hold only numbers ({exc})") from None


def measure_from_dict(obj: dict) -> MultivariateMeasure:
    if not isinstance(obj, dict):
        raise ValueError("measure: expected a JSON object")
    missing = {"atoms", "weights"} - obj.keys()
    if missing:
        raise ValueError(f"measure: missing fields {sorted(missing)}")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms or not all(isinstance(row, list) for row in atoms):
        raise ValueError("measure: atoms must be a nonempty list of coordinate lists")
    widths = {len(row) for row in atoms}
    if len(widths) != 1:
        raise ValueError("measure: atom rows have inconsistent dimensions")
    return make_measure(
        _number_array(atoms, "measure: atoms"), _number_array(obj["weights"], "measure: weights")
    )
