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
from typing import Iterable, Sequence

import numpy as np

# Unit-mass slack per stored atom; constructors normalize so anything larger
# than accumulated rounding indicates a bug in the caller.
MASS_TOL = 1e-12

# exact_sum hands shorter inputs to math.fsum, which is faster on them: on
# uniform random values (x86-64, one thread) the two take equal time at about
# 640 to 768 values, fsum is 1.6x faster at 512 and exact_sum 2.6x at 2304.
EXACT_SUM_CUTOVER = 768
# Bucket sums of 27-bit mantissa halves stay below 2**53 up to this length.
_EXACT_SUM_MAX_LEN = 2**26
# Inputs below 2**_EXACT_SUM_MAX_EXP cannot overflow any partial sum.
_EXACT_SUM_MAX_EXP = 960
# Adding and subtracting this rounds |x| < 2**53 to a multiple of 2**26.
_SPLIT = 1.5 * 2.0**78


def exact_sum(v: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float array: the correctly rounded exact sum.

    Returns the same float as ``math.fsum(v)`` on every input and raises the
    same exception.  Each value is an integer mantissa times a power of two
    (``np.frexp``); each mantissa splits exactly into a multiple of 2**26 and
    a remainder, and two ``np.bincount`` calls sum those halves per exponent
    without rounding.  The buckets are combined as Python ints and the total
    is rounded once, by int true division.  Inputs shorter than
    ``EXACT_SUM_CUTOVER``, longer than 2**26, non-finite or above 2**960 go
    to ``math.fsum`` itself.
    """
    v = np.asarray(v, dtype=float)
    if not (EXACT_SUM_CUTOVER <= len(v) <= _EXACT_SUM_MAX_LEN and np.isfinite(v).all()):
        return math.fsum(v.tolist())
    mant, expo = np.frexp(v)
    emin, emax = int(expo.min()), int(expo.max())
    if emax > _EXACT_SUM_MAX_EXP:
        return math.fsum(v.tolist())
    mant *= 2.0**53  # integers, |mant| < 2**53
    high = mant + _SPLIT
    high -= _SPLIT
    mant -= high  # the low half, |mant| <= 2**25
    expo -= emin
    bins = expo.astype(np.intp)
    high_sums = np.bincount(bins, weights=high).tolist()
    low_sums = np.bincount(bins, weights=mant).tolist()
    total = 0
    for shift, (h, lo) in enumerate(zip(high_sums, low_sums)):
        if h or lo:
            total += (int(h) + int(lo)) << shift
    if not total:
        return math.fsum(v.tolist())  # fsum decides the sign of a zero
    scale = emin - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def _checked_rows(
    atoms, weights, what: str = "atoms", ndims: tuple[int, ...] = (1, 2)
) -> tuple[np.ndarray, np.ndarray]:
    """Finite atom rows of shape (m, d) and m finite nonnegative weights.

    A flat atom list is read as m points on the line.  These are the input
    checks of every measure and transport-plan constructor.
    """
    a = np.asarray(atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    for arr, name, allowed in ((a, what, ndims), (w, "weights", (1,))):
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
        raise ValueError(f"{what} and weights differ in length: {a.shape[0]} vs {w.shape[0]}")
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
    atoms = rows.take(first.nonzero()[0], axis=0)
    atoms.flags.writeable = False
    return atoms, inverse


def merge_weighted_rows(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group exactly-equal rows, fsum their weights, drop zero-weight groups.

    Rows come back sorted lexicographically by coordinate.  Shared by measure
    and transport-plan canonicalization.
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
    merged = merged / total
    rows.flags.writeable = False
    merged.flags.writeable = False
    return rows, merged


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
        acc.flags.writeable = False
        return acc

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

    def quantile_array(self, us: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`quantile` for u values already known to be in (0, 1]."""
        idx = np.searchsorted(self.cum_weights, us, side="left")
        # cum_weights ends at exactly 1.0, but guard against float dust above it
        idx = np.minimum(idx, len(self.atoms) - 1)
        return self.atoms[idx]

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

    def map_coordinates(self, maps: Sequence[tuple[float, float]]) -> "MultivariateMeasure":
        """Apply x_i -> a_i * x_i + b_i per coordinate; a_i must be positive."""
        if len(maps) != self.dimension:
            raise ValueError(f"map_coordinates: expected {self.dimension} maps, got {len(maps)}")
        scale = np.array([m[0] for m in maps], dtype=float)
        shift = np.array([m[1] for m in maps], dtype=float)
        if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(shift))):
            raise ValueError("map_coordinates: coefficients must be finite")
        if np.any(scale <= 0):
            raise ValueError("map_coordinates: scale factors must be positive")
        return make_measure(self.atoms * scale + shift, self.weights)


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
