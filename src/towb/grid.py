"""State space primitives on the circle ``[0, 1) = R/Z``.

Functions are node samples on the uniform grid ``x_j = j/N`` with periodic
linear interpolation; measures are nonnegative masses on the uniform cells
``[j/N, (j+1)/N)`` plus a finite list of atoms.  This pair of representations
keeps pushforwards, Lebesgue decomposition and the square-density defect
exact at grid scale.  A grid function is integrated like any other callable,
by the midpoint rule at a measure's cell midpoints and atoms.  A pushforward
(Ulam's method, ``|slope| <= N``) sums array deposits in a per-cell loop's
order: its cell masses, bit for bit.
The measure action of a branch system, ``sum_i p_i mu o tau_i^-1``, is one
:func:`push_mixture`, which builds one measure per application.

Everything here is an immutable value; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
        if not np.isfinite(vals).all():
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
        # x lies the fraction frac of the way from node j to the next; a
        # regrouping of this sum moves values by an ulp (4.4e-16)
        n = self.n_cells
        t = np.asarray(wrap_unit(x)) * n
        j = np.minimum(np.floor(t).astype(int), n - 1)
        frac = t - j
        out = self.values[j] * (1.0 - frac) + self.values[(j + 1) % n] * frac
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def resample(self, n_cells: int) -> "GridFunction":
        if n_cells == self.n_cells:
            return self
        return GridFunction.from_callable(self, n_cells)

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
        if not np.isfinite(cells).all() or (cells < -1e-15).any():
            raise DomainError("cell masses must be finite and nonnegative")
        cells = np.maximum(cells, 0.0)
        cells.setflags(write=False)
        self.cell_masses = cells
        self.n_cells = cells.size
        self.atoms = self._normalize_atoms(atoms)

    @staticmethod
    def _normalize_atoms(atoms) -> tuple[tuple[float, float], ...]:
        if len(atoms) == 0:
            return ()
        pos, mass = np.array(atoms, dtype=float).reshape(len(atoms), 2).T
        if (mass < 0).any():
            raise DomainError("atom masses must be nonnegative")
        pos, mass = wrap_unit(pos[mass > 0]), mass[mass > 0]
        order = np.lexsort((mass, pos))
        pos, mass = pos[order], mass[order]
        # a group takes the atoms within the tolerance of its first atom,
        # and the first atom beyond it starts the next group
        start = np.diff(pos, prepend=-np.inf) > ATOM_MERGE_TOL
        far = ~start
        while far.any():
            first = np.maximum.accumulate(np.where(start, np.arange(pos.size), 0))
            far = pos - pos[first] > ATOM_MERGE_TOL
            start[1:] |= far[1:] & ~far[:-1]
        # masses add one by one in sorted order (np.add.reduceat: pairwise)
        pos, mass = pos[start], np.bincount(np.cumsum(start) - 1, weights=mass)
        # wraparound: an atom just below 1 coincides with one at 0
        if pos.size > 1 and (1.0 - pos[-1]) + pos[0] <= ATOM_MERGE_TOL:
            mass[0] += mass[-1]
            pos, mass = pos[:-1], mass[:-1]
        return tuple(zip(pos.tolist(), mass.tolist()))

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

    def is_probability(self) -> bool:
        """Whether the total mass is 1 to within ``1e-9``."""
        return abs(self.total() - 1.0) <= 1e-9

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
        pos, mass = np.array(self.atoms).reshape(-1, 2).T
        np.add.at(cells, np.minimum(pos * self.n_cells,
                                    self.n_cells - 1).astype(np.intp), mass)
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

    def check_image(self, name: str = "branch") -> None:
        """Raise :class:`DomainError` naming ``name`` when the branch does
        not wrap and its image of ``[0, 1)`` leaves ``[0, 1]``: the part
        outside would fall off the circle."""
        if self.mod_one:
            return
        lo, hi = sorted((self.offset, self.slope + self.offset))
        if lo < -_EDGE_SNAP_TOL or hi > 1.0 + _EDGE_SNAP_TOL:
            raise DomainError(f"{name}: image [{lo:g}, {hi:g}] of [0, 1) "
                              "leaves [0, 1]")

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

    def indicator(self, x) -> np.ndarray | float:
        xs = np.asarray(x, dtype=float)
        out = np.zeros(xs.shape)
        for lo, hi in self.intervals:
            out = out + ((xs >= lo) & (xs < hi))
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


def _midpoint_sum(mids, masses, atoms, total=0.0) -> float | np.ndarray:
    """``total`` plus the midpoint rule's sum: the values ``mids`` at the
    cell midpoints (unless ``None``) dotted with the cell ``masses``, then
    ``value * mass`` for each ``(value, mass)`` of ``atoms`` in order; one
    sum per trial for values with a trailing trials axis.  A non-finite
    value raises :class:`DomainError`, naming an atom when it is one."""
    if mids is not None:
        if not np.isfinite(mids).all():
            raise DomainError("integrand produced non-finite values")
        total = total + np.dot(mids.T, masses)
    for value, mass in atoms:
        value = np.asarray(value, dtype=float)
        if not np.isfinite(value).all():
            raise DomainError("integrand produced non-finite values at an atom")
        total = total + value * mass
    return float(total) if np.ndim(total) == 0 else np.asarray(total)


def integrate(f, mu: Measure) -> float | np.ndarray:
    """Integral of ``f`` against ``mu``.

    Trig polynomials are integrated in closed form by
    :func:`integrate_over` on the whole circle, so their integrals are
    exact to rounding.  Every other callable, a :class:`GridFunction` on
    any grid included, takes the midpoint rule: its values at ``mu``'s cell
    midpoints times the cell masses, plus its value at each atom times the
    atom's mass.  The rule is exact for functions linear on each cell and
    ``O(N^-2)`` for smooth ones.  An integrand whose values carry a trailing
    trials axis (a batched :class:`TrigPoly`) gives one integral per trial.
    """
    if isinstance(f, TrigPoly):
        return integrate_over(f, mu, IntervalSet([(0.0, 1.0)]))
    return _midpoint_sum(np.asarray(f(mu.cell_midpoints()), dtype=float),
                         mu.cell_masses, ((f(p), m) for p, m in mu.atoms))


def integrate_over(f: TrigPoly, mu: Measure,
                   region: IntervalSet) -> float | np.ndarray:
    """Integral of a trig polynomial ``f`` over ``region`` against ``mu``.

    The antiderivative at the cell edges clipped to each region interval
    makes the sharp region boundary exact.  A batched :class:`TrigPoly`
    gives one integral per trial.  Other integrands raise
    :class:`DomainError`.
    """
    if not isinstance(f, TrigPoly):
        raise DomainError(f"integrate_over needs a TrigPoly, not {type(f)}")
    n = mu.n_cells
    total = 0.0
    for lo, hi in region.intervals:
        j0, j1 = int(np.floor(lo * n)), min(int(np.ceil(hi * n)), n)
        edges = np.clip(np.arange(j0, j1 + 1) / n, lo, hi)
        anti = f.antiderivative_values(edges)
        total = total + np.dot(np.diff(anti, axis=0).T,
                               mu.cell_masses[j0:j1] * n)
    return _midpoint_sum(None, None, ((f(p), m) for p, m in mu.atoms
                                      if region.indicator(p)), total)


# -- pushforward --------------------------------------------------------


@lru_cache(maxsize=16)
def _push_stencil(branch: AffineBranch, n: int) -> tuple[np.ndarray, ...]:
    """The Ulam matrix of ``branch`` on ``n`` cells, shared read-only: per
    image piece its source cell and its part ``num / full`` of the cell's
    mass; per deposit, in (source, piece, target) order, its piece, target
    cell and part ``overlap / length`` of the piece."""
    edges = np.arange(n + 1) / n
    lo, hi = np.sort([branch.slope * edges[:-1] + branch.offset,
                      branch.slope * edges[1:] + branch.offset], axis=0)
    source, num, full = np.arange(n), np.ones(n), np.ones(n)
    if branch.mod_one:
        # pieces [lo, 1) and [0, hi - 1); the second is empty, with no mass,
        # when the image does not wrap
        lo, hi = lo - np.floor(lo), hi - np.floor(lo)
        rest = np.maximum(hi - 1.0, 0.0)
        full = np.repeat(np.where(rest > 0, (1.0 - lo) + rest, 1.0), 2)
        source = np.repeat(source, 2)
        num, lo, hi = (np.stack(pair, axis=1).ravel() for pair in (
            (np.where(rest > 0, 1.0 - lo, 1.0), rest), (lo, np.zeros(n)),
            (np.minimum(hi, 1.0), rest)))
    ends = np.stack([lo, hi])
    nearest = np.rint(ends * n) / n
    lo, hi = np.where(np.abs(ends - nearest) <= _EDGE_SNAP_TOL, nearest, ends)
    point = hi - lo <= 0  # no length: the cell holding lo (Python indexing)
    cell = np.arange(n)[np.minimum(lo[point] * n, n - 1).astype(np.intp)]
    lo[point], hi[point] = cell / n, (cell + 1) / n
    # candidate targets: from one below floor(lo n) to one above ceil(hi n)
    j0 = np.maximum(np.floor(lo * n) - 1, 0)
    span = np.maximum(np.minimum(np.ceil(hi * n) + 1, n) - j0, 0).astype(np.intp)
    piece = np.repeat(np.arange(lo.size), span)
    target = (j0[piece].astype(np.intp) + np.arange(piece.size)
              - np.repeat(np.cumsum(span) - span, span))
    overlap = (np.minimum(hi[piece], (target + 1) / n)
               - np.maximum(lo[piece], target / n))
    hit = overlap > 0
    out = (source, num, full, piece[hit], target[hit],
           overlap[hit] / (hi - lo)[piece[hit]])
    for arr in out:
        arr.setflags(write=False)
    return out


def pushforward(mu: Measure, branch: AffineBranch) -> Measure:
    """Image measure of ``mu`` under an affine branch.

    Each cell's image pieces, snapped to cell edges, spread its mass over
    the cells they overlap in proportion to the overlap length, summed in a
    per-cell loop's order (bit for bit its cell masses); atoms map to the
    image of their position.  Total mass is preserved exactly.  A cell's
    image may wrap the circle once: ``|slope|`` is at most ``N``; a branch
    that does not wrap must map ``[0, 1)`` into ``[0, 1]``.
    """
    n = mu.n_cells
    if branch.slope == 0:
        raise DomainError("degenerate branch: slope must be nonzero")
    if abs(branch.slope) > n:
        raise DomainError(f"branch slope {branch.slope:g} exceeds the grid "
                          f"size N={n}: a cell's image would wrap twice")
    branch.check_image()
    source, num, full, piece, target, part = _push_stencil(branch, n)
    share = mu.cell_masses[source] * num / full  # +0.0 from an empty cell
    cells = np.bincount(target, weights=share[piece] * part, minlength=n)
    atoms = np.array(mu.atoms).reshape(-1, 2)
    atoms[:, 0] = wrap_unit(branch(atoms[:, 0]))
    return Measure(cells, atoms)


def push_mixture(mu: Measure, branches: Sequence[AffineBranch],
                 probs: Sequence[float]) -> Measure:
    """The branch mixture ``sum_i p_i mu o tau_i^-1`` as one measure: bit
    for bit ``pushforward(mu, tau_1).scaled(p_1) + ...`` in branch order,
    with the atoms of every branch merged once."""
    cells, atoms = None, []
    for branch, p in zip(branches, probs):
        part = pushforward(mu, branch)
        scaled = part.cell_masses * p
        cells = scaled if cells is None else cells + scaled
        atoms.extend((pos, m * p) for pos, m in part.atoms)
    return Measure(cells, atoms)
