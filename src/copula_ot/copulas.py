"""Copulas on discrete carriers and pushforwards through quantile maps.

Three variants are supported:

* ``checkerboard``: piecewise-uniform density on a k^n grid of cells, stored
  as a mass tensor whose one-dimensional slice sums all equal 1/k (uniform
  marginals).
* ``comonotone``: mass concentrated on the main diagonal u_1 = ... = u_n.
* ``countermonotone``: the bivariate lower bound u_1 + u_2 - 1; it is a
  copula only for n = 2.

The pushforward machinery (:func:`push_through_quantiles`) is exact: it
refines the unit cube along each axis at every cell boundary and every jump
of the supplied quantile maps, so each refined box carries piecewise-constant
data and its midpoint evaluates both the density and the quantiles without
discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .measures import (
    DiscreteMeasure1D,
    MultivariateMeasure,
    _number_array,
    make_measure,
)

CHECKERBOARD = "checkerboard"
COMONOTONE = "comonotone"
COUNTERMONOTONE = "countermonotone"

# Slack allowed on each 1-D slice sum of a checkerboard mass tensor.
SLICE_TOL = 1e-10

# Axis intervals shorter than this are float dust from nearly-coincident
# breakpoints; their mass is below any tolerance used downstream.
_MIN_INTERVAL = 1e-15


@dataclass(frozen=True, eq=False)
class Copula:
    """Immutable copula handle; build through the factory functions below."""

    variant: str
    n: int
    k: int | None = None
    masses: np.ndarray | None = None

    def describe(self) -> str:
        if self.variant == CHECKERBOARD:
            return f"checkerboard(n={self.n}, k={self.k})"
        return f"{self.variant}(n={self.n})"


def checkerboard(n: int, k: int, masses) -> Copula:
    """Checkerboard copula from a k^n mass tensor (flat input accepted).

    Every 1-D slice sum must equal 1/k within SLICE_TOL, which is exactly the
    condition that all marginals are uniform on (0, 1).
    """
    if n < 1:
        raise ValueError(f"checkerboard: dimension must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"checkerboard: resolution must be >= 1, got {k}")
    arr = np.asarray(masses, dtype=float)
    if arr.size != k**n:
        raise ValueError(f"checkerboard: expected {k**n} cell masses, got {arr.size}")
    arr = arr.reshape((k,) * n)
    if not np.all(np.isfinite(arr)):
        raise ValueError("checkerboard: cell masses must be finite")
    if np.any(arr < 0):
        raise ValueError("checkerboard: cell masses must be nonnegative")
    for axis in range(n):
        other = tuple(d for d in range(n) if d != axis)
        slices = arr.sum(axis=other) if other else arr
        bad = np.abs(slices - 1.0 / k) > SLICE_TOL
        if np.any(bad):
            r = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"checkerboard: slice sums along axis {axis + 1} are not uniform: "
                f"slice {r} has mass {slices[r]!r}, expected {1.0 / k!r}"
            )
    arr = arr.copy()
    arr.flags.writeable = False
    return Copula(variant=CHECKERBOARD, n=n, k=k, masses=arr)


def independence(n: int, k: int = 1) -> Copula:
    """Product copula on a k^n carrier (all resolutions agree as measures)."""
    if n < 1 or k < 1:
        raise ValueError("independence: n and k must be >= 1")
    return checkerboard(n, k, np.full((k,) * n, k ** (-float(n))))


def comonotone(n: int) -> Copula:
    """All coordinates equal: the upper bound, a copula in every dimension."""
    if n < 2:
        raise ValueError(f"comonotone: dimension must be >= 2, got {n}")
    return Copula(variant=COMONOTONE, n=n)


def countermonotone() -> Copula:
    """Two opposite coordinates; the lower bound is a copula only for n = 2."""
    return Copula(variant=COUNTERMONOTONE, n=2)


def bivariate_margin(copula: Copula, i: int, j: int) -> Copula:
    """Copula of the coordinate pair (i, j), 1-based with i < j."""
    n = copula.n
    if not (1 <= i < j <= n):
        raise ValueError(f"bivariate_margin: need 1 <= i < j <= {n}, got ({i}, {j})")
    if copula.variant == COMONOTONE:
        return comonotone(2)
    if copula.variant == COUNTERMONOTONE:
        return Copula(variant=COUNTERMONOTONE, n=2)
    keep = (i - 1, j - 1)
    other = tuple(d for d in range(n) if d not in keep)
    margin = copula.masses.sum(axis=other) if other else copula.masses
    return checkerboard(2, copula.k, margin)


def discretize(copula: Copula, k: int) -> Copula:
    """Checkerboard carrier at resolution k; checkerboards pass through."""
    if copula.variant == CHECKERBOARD:
        return copula
    if k < 1:
        raise ValueError("discretize: resolution must be >= 1")
    tensor = np.zeros((k,) * copula.n)
    idx = np.arange(k)
    if copula.variant == COMONOTONE:
        tensor[tuple(idx for _ in range(copula.n))] = 1.0 / k
    else:
        tensor[idx, k - 1 - idx] = 1.0 / k
    return checkerboard(copula.n, k, tensor)


def _axis_breaks(cell_count: int | None, jump_families: Iterable[np.ndarray]) -> np.ndarray:
    pts = [np.array([0.0, 1.0]), *jump_families]
    if cell_count is not None:
        pts.append(np.arange(1, cell_count) / cell_count)
    return np.unique(np.clip(np.concatenate(pts), 0.0, 1.0))


def push_through_quantiles(
    copula: Copula,
    groups: Sequence[Sequence[DiscreteMeasure1D]],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact pushforward of the copula through one or more n-tuples of quantile maps.

    Each group is a list of n one-dimensional marginals; the map sends a cube
    point u to (F_1^{-1}(u_1), ..., F_n^{-1}(u_n)) per group.  Returns one
    (m, n) atom matrix per group plus the shared mass vector of the m refined
    boxes with positive mass.
    """
    n = copula.n
    for g, marginals in enumerate(groups):
        if len(marginals) != n:
            raise ValueError(
                f"push_through_quantiles: group {g} has {len(marginals)} marginals, expected {n}"
            )
    if copula.variant == CHECKERBOARD:
        return _push_checkerboard(copula, groups)
    return _push_monotone(copula, groups)


def _push_checkerboard(copula, groups):
    n, k = copula.n, copula.k
    lens_by_axis = []
    cells_by_axis = []
    quantiles_by_axis = []
    for d in range(n):
        breaks = _axis_breaks(k, [g[d].cum_weights for g in groups])
        lens = np.diff(breaks)
        keep = lens > _MIN_INTERVAL
        mids = ((breaks[:-1] + breaks[1:]) / 2.0)[keep]
        lens = lens[keep]
        lens_by_axis.append(lens)
        cells_by_axis.append(np.minimum((mids * k).astype(int), k - 1))
        quantiles_by_axis.append([g[d].quantile_array(mids) for g in groups])
    box = np.asarray(copula.masses, dtype=float)[np.ix_(*cells_by_axis)].copy()
    for d in range(n):
        shape = [1] * n
        shape[d] = len(lens_by_axis[d])
        box *= (lens_by_axis[d] * k).reshape(shape)
    nz = np.nonzero(box)
    masses = box[nz]
    atom_groups = []
    for g in range(len(groups)):
        cols = [quantiles_by_axis[d][g][nz[d]] for d in range(n)]
        atom_groups.append(np.column_stack(cols))
    return atom_groups, masses


def _push_monotone(copula, groups):
    n = copula.n
    reflected = copula.variant == COUNTERMONOTONE
    families = []
    for g in groups:
        for d in range(n):
            cw = g[d].cum_weights
            families.append(1.0 - cw if (reflected and d == 1) else cw)
    breaks = _axis_breaks(None, families)
    lens = np.diff(breaks)
    keep = lens > _MIN_INTERVAL
    mids = ((breaks[:-1] + breaks[1:]) / 2.0)[keep]
    masses = lens[keep]
    atom_groups = []
    for g in groups:
        cols = []
        for d in range(n):
            at = 1.0 - mids if (reflected and d == 1) else mids
            cols.append(g[d].quantile_array(at))
        atom_groups.append(np.column_stack(cols))
    return atom_groups, masses


def sklar_compose(copula: Copula, marginals: Sequence[DiscreteMeasure1D]) -> MultivariateMeasure:
    """Joint law with the given copula and one-dimensional marginals."""
    atom_groups, masses = push_through_quantiles(copula, [list(marginals)])
    return make_measure(atom_groups[0], masses)


def copula_to_dict(copula: Copula) -> dict:
    if copula.variant == CHECKERBOARD:
        return {
            "variant": CHECKERBOARD,
            "n": copula.n,
            "k": copula.k,
            "masses": [float(v) for v in copula.masses.ravel(order="C")],
        }
    if copula.variant == COMONOTONE:
        return {"variant": COMONOTONE, "n": copula.n}
    return {"variant": COUNTERMONOTONE}


def _integer_field(obj: dict, name: str) -> int:
    """An integral JSON number: 2 and 2.0 pass; 2.5, true, null and "2" raise."""
    value = obj[name]
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"copula: field {name!r} must be an integer, got {value!r}")
    return int(value)


def copula_from_dict(obj: dict) -> Copula:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError("copula: expected a JSON object with a 'variant' field")
    variant = obj["variant"]
    if variant == CHECKERBOARD:
        missing = {"n", "k", "masses"} - obj.keys()
        if missing:
            raise ValueError(f"copula: checkerboard is missing fields {sorted(missing)}")
        masses = _number_array(obj["masses"], "copula: masses")
        return checkerboard(_integer_field(obj, "n"), _integer_field(obj, "k"), masses)
    if variant == COMONOTONE:
        if "n" not in obj:
            raise ValueError("copula: comonotone requires a dimension field 'n'")
        return comonotone(_integer_field(obj, "n"))
    if variant == COUNTERMONOTONE:
        if "n" in obj and _integer_field(obj, "n") != 2:
            raise ValueError("copula: the countermonotone variant exists only for n=2")
        return countermonotone()
    raise ValueError(f"copula: unknown variant {variant!r}")
