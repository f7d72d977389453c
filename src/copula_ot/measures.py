"""Finitely supported probability measures on the line and on R^n.

Measures are immutable: atoms are canonicalized (sorted, duplicates merged by
exact float equality, zero weights dropped) and weights are normalized to unit
mass at construction time.  Weight accumulation goes through ``math.fsum`` so
that two constructions whose real-arithmetic weights agree produce identical
floats whenever the inputs are exactly representable.
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
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name}: values must be finite")
    if a.shape[0] != w.shape[0]:
        raise ValueError(f"{what} and weights differ in length: {a.shape[0]} vs {w.shape[0]}")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return a.reshape(a.shape[0], -1), w


def merge_weighted_rows(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group exactly-equal rows, fsum their weights, drop zero-weight groups.

    Rows come back sorted lexicographically by coordinate.  Shared by measure
    and transport-plan canonicalization.
    """
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    weights = weights[order]
    new_group = np.ones(len(rows), dtype=bool)
    new_group[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = new_group.nonzero()[0]
    if len(starts) < len(rows):
        # Singleton groups keep their weight; only the others need an fsum.
        ends = np.append(starts[1:], len(rows))
        multi = np.flatnonzero(ends - starts > 1)
        merged = weights[starts]
        for g, s, e in zip(multi.tolist(), starts[multi].tolist(), ends[multi].tolist()):
            merged[g] = math.fsum(weights[s:e])
        rows, weights = rows[starts], merged
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
    total = math.fsum(w)
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

    Anything else raises a ValueError that names ``field``, so malformed
    input files read as bad input and never as a TypeError from numpy.
    """
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {type(value).__name__}")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
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
