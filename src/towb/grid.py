"""State space primitives on the circle ``[0, 1) = R/Z``.

Functions are node samples on the uniform grid ``x_j = j/N`` with periodic
linear interpolation; measures are nonnegative masses on the uniform cells
``[j/N, (j+1)/N)`` plus a finite list of atoms.  This pair of representations
keeps pushforwards, Lebesgue decomposition and the square-density defect
exact at grid scale.

Everything here is an immutable value; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .trig import TrigPoly

ATOM_MERGE_TOL = 1e-12
_EDGE_SNAP_TOL = 1e-12


def wrap_unit(x):
    """Reduce to [0, 1), snapping values a rounding error above 1 to 0."""
    y = np.asarray(x, dtype=float)
    y = y - np.floor(y)
    y = np.where(y >= 1.0, 0.0, y)
    return float(y) if np.isscalar(x) else y


class GridFunction:
    """Real function on the circle given by samples at ``x_j = j/N``.

    Evaluation anywhere in ``[0, 1)`` is piecewise-linear interpolation with
    wraparound (``x_N`` is identified with ``x_0``).
    """

    __slots__ = ("values", "n_cells")

    def __init__(self, values: Sequence[float]):
        vals = np.array(values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("grid function needs at least 2 node samples")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function samples must be finite")
        vals.setflags(write=False)
        self.values = vals
        self.n_cells = vals.size

    @classmethod
    def from_callable(cls, fn: Callable, n_cells: int) -> "GridFunction":
        nodes = np.arange(n_cells) / n_cells
        return cls(np.asarray(fn(nodes), dtype=float))

    @classmethod
    def constant(cls, value: float, n_cells: int) -> "GridFunction":
        return cls(np.full(n_cells, float(value)))

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_cells) / self.n_cells

    def __call__(self, x) -> np.ndarray | float:
        t = np.asarray(wrap_unit(x)) * self.n_cells
        j = np.minimum(np.floor(t).astype(int), self.n_cells - 1)
        frac = t - j
        nxt = (j + 1) % self.n_cells
        out = self.values[j] * (1.0 - frac) + self.values[nxt] * frac
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def resample(self, n_cells: int) -> "GridFunction":
        if n_cells == self.n_cells:
            return self
        return GridFunction.from_callable(self, n_cells)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _binary(self, other, op) -> "GridFunction":
        if isinstance(other, GridFunction):
            if other.n_cells != self.n_cells:
                other = other.resample(self.n_cells)
            return GridFunction(op(self.values, other.values))
        return GridFunction(op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __repr__(self) -> str:
        return f"GridFunction(N={self.n_cells})"


class Measure:
    """Finite positive Borel measure: cell masses plus atoms.

    Atom positions are reduced mod 1 and merged when closer than
    ``ATOM_MERGE_TOL``; zero-mass atoms are dropped.
    """

    __slots__ = ("cell_masses", "atoms", "n_cells")

    def __init__(self, cell_masses: Sequence[float],
                 atoms: Sequence[tuple[float, float]] = ()):
        cells = np.array(cell_masses, dtype=float)
        if cells.ndim != 1 or cells.size < 1:
            raise DomainError("measure needs a 1-d array of cell masses")
        if not np.all(np.isfinite(cells)) or np.any(cells < -1e-15):
            raise DomainError("cell masses must be finite and nonnegative")
        cells = np.maximum(cells, 0.0)
        cells.setflags(write=False)
        self.cell_masses = cells
        self.n_cells = cells.size
        self.atoms = self._normalize_atoms(atoms)

    @staticmethod
    def _normalize_atoms(atoms) -> tuple[tuple[float, float], ...]:
        cleaned = []
        for pos, mass in atoms:
            if mass < 0:
                raise DomainError("atom masses must be nonnegative")
            if mass > 0:
                cleaned.append((wrap_unit(float(pos)), float(mass)))
        cleaned.sort()
        merged: list[list[float]] = []
        for pos, mass in cleaned:
            if merged and pos - merged[-1][0] <= ATOM_MERGE_TOL:
                merged[-1][1] += mass
            else:
                merged.append([pos, mass])
        # wraparound: an atom just below 1 coincides with one at 0
        if len(merged) > 1 and (1.0 - merged[-1][0]) + merged[0][0] <= ATOM_MERGE_TOL:
            merged[0][1] += merged.pop()[1]
        return tuple((p, m) for p, m in merged)

    # -- constructors ---------------------------------------------------

    @classmethod
    def lebesgue(cls, n_cells: int) -> "Measure":
        return cls(np.full(n_cells, 1.0 / n_cells))

    @classmethod
    def dirac(cls, position: float, n_cells: int, mass: float = 1.0) -> "Measure":
        return cls(np.zeros(n_cells), [(position, mass)])

    @classmethod
    def from_density(cls, fn: Callable, n_cells: int) -> "Measure":
        mids = (np.arange(n_cells) + 0.5) / n_cells
        dens = np.asarray(fn(mids), dtype=float)
        return cls(dens / n_cells)

    # -- basic queries ----------------------------------------------------

    def total(self) -> float:
        return float(self.cell_masses.sum() + sum(m for _, m in self.atoms))

    def is_probability(self, tol: float = 1e-9) -> bool:
        return abs(self.total() - 1.0) <= tol

    def cell_midpoints(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) / self.n_cells

    def scaled(self, factor: float) -> "Measure":
        return Measure(self.cell_masses * factor,
                       [(p, m * factor) for p, m in self.atoms])

    def normalized(self) -> "Measure":
        t = self.total()
        if t <= 0:
            raise DomainError("cannot normalize a zero measure")
        return self.scaled(1.0 / t)

    def __add__(self, other: "Measure") -> "Measure":
        if other.n_cells != self.n_cells:
            raise DomainError("measures live on different grids")
        return Measure(self.cell_masses + other.cell_masses,
                       list(self.atoms) + list(other.atoms))

    def coarse_cells(self) -> np.ndarray:
        """Cell masses with every atom folded into its containing cell."""
        cells = self.cell_masses.copy()
        for pos, mass in self.atoms:
            cells[min(int(pos * self.n_cells), self.n_cells - 1)] += mass
        return cells

    def tv_cell_distance(self, other: "Measure") -> float:
        """Total-variation distance at cell resolution (atoms coarsened)."""
        if other.n_cells != self.n_cells:
            raise DomainError("measures live on different grids")
        return float(0.5 * np.abs(self.coarse_cells() - other.coarse_cells()).sum())

    def __repr__(self) -> str:
        return (f"Measure(N={self.n_cells}, total={self.total():.6g}, "
                f"atoms={len(self.atoms)})")


@dataclass(frozen=True)
class AffineBranch:
    """Affine map ``x -> slope * x + offset``, optionally reduced mod 1."""

    slope: float
    offset: float
    mod_one: bool = False

    def __call__(self, x):
        y = self.slope * np.asarray(x, dtype=float) + self.offset
        if self.mod_one:
            y = wrap_unit(y)
        return float(y) if np.isscalar(x) else y

    def image_intervals(self, lo: float, hi: float) -> list[tuple[float, float]]:
        """Image of ``[lo, hi)`` as a list of subintervals of ``[0, 1)``."""
        a, b = self.slope * lo + self.offset, self.slope * hi + self.offset
        if a > b:
            a, b = b, a
        if not self.mod_one:
            return [(a, b)]
        shift = np.floor(a)
        a, b = a - shift, b - shift
        if b <= 1.0:
            return [(a, b)]
        return [(a, 1.0), (0.0, b - 1.0)]


class IntervalSet:
    """Disjoint union of half-open intervals ``[a, b)`` inside ``[0, 1)``."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Sequence[tuple[float, float]]):
        pairs = []
        for lo, hi in intervals:
            lo, hi = float(lo), float(hi)
            if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
                raise DomainError("interval endpoints must lie in [0, 1]")
            if hi > lo:
                pairs.append((lo, hi))
        pairs.sort()
        merged: list[list[float]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        self.intervals = tuple((lo, hi) for lo, hi in merged)

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls([(0.0, 1.0)])

    def indicator(self, x) -> np.ndarray | float:
        xs = np.asarray(x, dtype=float)
        out = np.zeros(xs.shape)
        for lo, hi in self.intervals:
            out = out + ((xs >= lo) & (xs < hi))
        out = np.minimum(out, 1.0)
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    __call__ = indicator

    def total_length(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def __repr__(self) -> str:
        inner = " u ".join(f"[{lo:g},{hi:g})" for lo, hi in self.intervals)
        return inner or "(empty)"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)


# -- quadrature ---------------------------------------------------------


def _per_trial(total) -> float | np.ndarray:
    """A float for one integrand, an array for a batch of trials."""
    return float(total) if np.ndim(total) == 0 else np.asarray(total)


def integrate(f, mu: Measure) -> float | np.ndarray:
    """Integral of ``f`` against ``mu``.

    Trig polynomials are integrated in closed form against the cell density,
    so their integrals are exact to rounding.  Grid functions and other
    callables use the midpoint rule, exact for functions linear on each cell
    and ``O(N^-2)`` for smooth ones.  Atoms are evaluated pointwise either way.
    An integrand whose values carry a trailing trials axis (a batched
    :class:`TrigPoly`) gives one integral per trial.
    """
    if isinstance(f, GridFunction) and f.n_cells != mu.n_cells:
        f = f.resample(mu.n_cells)
    if isinstance(f, TrigPoly):
        edges = np.arange(mu.n_cells + 1) / mu.n_cells
        anti = f.antiderivative_values(edges)
        densities = mu.cell_masses * mu.n_cells
        total = np.dot(np.diff(anti, axis=0).T, densities)
    else:
        vals = np.asarray(f(mu.cell_midpoints()), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DomainError("integrand produced non-finite values")
        total = np.dot(vals.T, mu.cell_masses)
    for pos, mass in mu.atoms:
        v = np.asarray(f(pos), dtype=float)
        if not np.all(np.isfinite(v)):
            raise DomainError("integrand produced non-finite values at an atom")
        total = total + v * mass
    return _per_trial(total)


def integrate_over(f, mu: Measure, region: IntervalSet) -> float | np.ndarray:
    """Integral of ``f`` over ``region`` against ``mu``.

    For trig polynomials the antiderivative at the cell edges clipped to
    each region interval makes the sharp region boundary exact; for other
    integrands the indicator is applied at cell midpoints (``O(N^-1)`` near
    the boundary).  A batched :class:`TrigPoly` gives one integral per trial.
    """
    if isinstance(f, TrigPoly):
        n = mu.n_cells
        total = 0.0
        for lo, hi in region.intervals:
            j0, j1 = int(np.floor(lo * n)), min(int(np.ceil(hi * n)), n)
            edges = np.clip(np.arange(j0, j1 + 1) / n, lo, hi)
            anti = f.antiderivative_values(edges)
            total = total + np.dot(np.diff(anti, axis=0).T,
                                   mu.cell_masses[j0:j1] * n)
    else:
        mids = mu.cell_midpoints()
        vals = (np.asarray(f(mids), dtype=float) *
                np.asarray(region.indicator(mids)))
        total = float(np.dot(vals, mu.cell_masses))
    for pos, mass in mu.atoms:
        if region.indicator(pos):
            total = total + np.asarray(f(pos), dtype=float) * mass
    return _per_trial(total)


# -- pushforward --------------------------------------------------------


def _snap_to_edges(value: float, n: int) -> float:
    nearest = round(value * n) / n
    return nearest if abs(value - nearest) <= _EDGE_SNAP_TOL else value


def _spread_interval(cells: np.ndarray, lo: float, hi: float, mass: float) -> None:
    """Distribute ``mass`` uniformly over ``[lo, hi)`` onto uniform cells."""
    n = cells.size
    lo, hi = _snap_to_edges(lo, n), _snap_to_edges(hi, n)
    length = hi - lo
    if length <= 0:
        cells[min(int(lo * n), n - 1)] += mass
        return
    j0 = max(int(np.floor(lo * n)) - 1, 0)
    j1 = min(int(np.ceil(hi * n)) + 1, n)
    for j in range(j0, j1):
        overlap = min(hi, (j + 1) / n) - max(lo, j / n)
        if overlap > 0:
            cells[j] += mass * (overlap / length)


def pushforward(mu: Measure, branch: AffineBranch) -> Measure:
    """Image measure of ``mu`` under an affine branch.

    Cell masses are reassigned to image cells proportionally to overlap
    length; atoms map to the image of their position.  Total mass is
    preserved exactly.
    """
    if branch.slope == 0:
        raise DomainError("degenerate branch: slope must be nonzero")
    n = mu.n_cells
    new_cells = np.zeros(n)
    edges = np.arange(n + 1) / n
    for j in range(n):
        mass = mu.cell_masses[j]
        if mass == 0:
            continue
        pieces = branch.image_intervals(edges[j], edges[j + 1])
        full = sum(hi - lo for lo, hi in pieces)
        for lo, hi in pieces:
            share = mass if len(pieces) == 1 else mass * (hi - lo) / full
            _spread_interval(new_cells, lo, hi, share)
    new_atoms = [(wrap_unit(branch(pos)), mass) for pos, mass in mu.atoms]
    return Measure(new_cells, new_atoms)
