"""Weighted iterated function systems on the circle.

An :class:`IfsSystem` bundles the inverse branches ``tau_i`` (affine
contractions), branch probabilities ``p_i``, a positive weight ``W`` and the
expanding endomorphism ``sigma`` that inverts every branch:
``sigma(tau_i(x)) = x``.  Build systems through :func:`make_system`, which
enforces the structural invariants; pass ``validate=False`` only to build
deliberately broken systems for negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError
from .grid import AffineBranch, GridFunction, IntervalSet, wrap_unit
from .trig import TrigPoly

WEIGHT_FLOOR = 1e-10
PROB_SUM_TOL = 1e-12
RIGHT_INVERSE_TOL = 1e-10


@dataclass(frozen=True)
class WeightExpr:
    """Positive weight on the circle: a constant, a trig polynomial, or a
    sampled table.

    The closed-form kinds expose themselves as a :class:`TrigPoly` so the
    operator algebra can stay exact; tables fall back to interpolation.
    """

    kind: str  # "constant" | "trig" | "table"
    const: float = 1.0
    cos_coefs: tuple[float, ...] = ()
    sin_coefs: tuple[float, ...] = ()
    table: GridFunction | None = None

    @classmethod
    def constant(cls, value: float) -> "WeightExpr":
        return cls(kind="constant", const=float(value))

    @classmethod
    def trig(cls, const: float, cos_coefs: Sequence[float] = (),
             sin_coefs: Sequence[float] = ()) -> "WeightExpr":
        return cls(kind="trig", const=float(const),
                   cos_coefs=tuple(float(c) for c in cos_coefs),
                   sin_coefs=tuple(float(s) for s in sin_coefs))

    @classmethod
    def from_table(cls, table: GridFunction) -> "WeightExpr":
        return cls(kind="table", table=table)

    def as_trigpoly(self) -> TrigPoly | None:
        return self._trigpoly

    @cached_property
    def _trigpoly(self) -> TrigPoly | None:
        # built once per weight: the weight is evaluated on every operator
        # application, and a TrigPoly is immutable
        if self.kind == "constant":
            return TrigPoly.constant(self.const)
        if self.kind == "trig":
            return TrigPoly.from_cos_sin(self.const, self.cos_coefs,
                                         self.sin_coefs)
        return None

    def __call__(self, x):
        if self.kind == "table":
            if self.table is None:
                raise DomainError("table weight has no sample table")
            return self.table(x)
        tp = self.as_trigpoly()
        return tp(x)

    def scaled(self, factor: float) -> "WeightExpr":
        if self.kind == "constant":
            return WeightExpr.constant(self.const * factor)
        if self.kind == "trig":
            return WeightExpr.trig(self.const * factor,
                                   [c * factor for c in self.cos_coefs],
                                   [s * factor for s in self.sin_coefs])
        return WeightExpr.from_table(self.table * factor)


class PiecewiseAffineMap:
    """Expanding circle map given by affine pieces on ``[lo, hi)`` intervals."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Sequence[tuple[float, float, float, float]]):
        ordered = sorted((float(lo), float(hi), float(a), float(b))
                         for lo, hi, a, b in pieces)
        if not ordered:
            raise DomainError("piecewise map needs at least one piece")
        for (lo, hi, _, _), (lo2, _, _, _) in zip(ordered, ordered[1:]):
            if lo2 < hi - 1e-15:
                raise DomainError("piecewise map pieces overlap")
        self.pieces = tuple(ordered)

    @classmethod
    def expanding(cls, slope: int) -> "PiecewiseAffineMap":
        """The full map ``x -> slope * x mod 1`` for an integer slope >= 2."""
        if slope < 2 or slope != int(slope):
            raise DomainError("expanding map needs an integer slope >= 2")
        m = int(slope)
        return cls([(k / m, (k + 1) / m, float(m), float(-k)) for k in range(m)])

    @classmethod
    def inverse_of_branches(cls, branches: Sequence[AffineBranch]
                            ) -> "PiecewiseAffineMap":
        pieces = []
        for br in branches:
            if br.mod_one:
                raise DomainError("cannot infer sigma from wrapping branches")
            lo, hi = sorted((br(0.0), br(1.0)))
            pieces.append((lo, hi, 1.0 / br.slope, -br.offset / br.slope))
        return cls(pieces)

    def __call__(self, x):
        xs = np.asarray(wrap_unit(x), dtype=float)
        los = np.array([p[0] for p in self.pieces])
        idx = np.clip(np.searchsorted(los, xs, side="right") - 1, 0,
                      len(self.pieces) - 1)
        slopes = np.array([p[2] for p in self.pieces])[idx]
        offs = np.array([p[3] for p in self.pieces])[idx]
        out = wrap_unit(slopes * xs + offs)
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def preimage(self, region: IntervalSet) -> IntervalSet:
        pre = []
        for plo, phi, a, b in self.pieces:
            img_lo, img_hi = sorted((a * plo + b, a * phi + b))
            for lo, hi in region.intervals:
                c, d = max(lo, img_lo), min(hi, img_hi)
                if d <= c:
                    continue
                x1, x2 = sorted(((c - b) / a, (d - b) / a))
                x1, x2 = max(x1, plo), min(x2, phi)
                if x2 > x1:
                    pre.append((x1, x2))
        return IntervalSet(pre)

    def uniform_integer_slope(self) -> int | None:
        """Return m if this is exactly the ``x -> m x mod 1`` family."""
        m = self.pieces[0][2]
        if m != round(m) or m < 2:
            return None
        m = int(m)
        if len(self.pieces) != m:
            return None
        for k, (lo, hi, a, b) in enumerate(self.pieces):
            if (a != m or lo != k / m or hi != (k + 1) / m or b != -float(k)):
                return None
        return m

    def compose_trig(self, f: TrigPoly) -> TrigPoly | None:
        """Exact ``f(sigma(x))`` when ``sigma = m x mod 1`` and ``f`` has
        integer frequencies (periodicity absorbs the mod)."""
        m = self.uniform_integer_slope()
        if m is None or not f.has_integer_freqs():
            return None
        return f.compose_affine(float(m), 0.0)

    def __repr__(self) -> str:
        return f"PiecewiseAffineMap({len(self.pieces)} pieces)"


@dataclass(frozen=True)
class IfsSystem:
    """Branches, probabilities, weight, and the expanding map inverting the
    branches.  Immutable; construct via :func:`make_system`."""

    branches: tuple[AffineBranch, ...]
    probs: tuple[float, ...]
    weight: WeightExpr
    sigma: PiecewiseAffineMap

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def is_doubling(self) -> bool:
        """Whether the branches are ``x/2`` and ``(x+1)/2``, in any order;
        the probabilities and the weight are not constrained."""
        pairs = sorted((br.offset, br.slope) for br in self.branches)
        return len(pairs) == 2 and all(
            abs(offset - want) < 1e-12 and abs(slope - 0.5) < 1e-12
            for (offset, slope), want in zip(pairs, (0.0, 0.5)))

    def with_weight(self, weight: WeightExpr) -> "IfsSystem":
        return replace(self, weight=weight)

    def with_sigma(self, sigma: PiecewiseAffineMap) -> "IfsSystem":
        return replace(self, sigma=sigma)


def validate_system(system: IfsSystem, n_grid: int = 256) -> None:
    """Check the structural invariants at grid resolution ``n_grid``.

    Raises :class:`DomainError` naming the offending field.  The weight's
    strict positivity is checked at the odd-offset points ``(j+1/2)/N``
    (the quadrature nodes); plain nodes only need nonnegativity, so a weight
    with an isolated zero at a node is tolerated.
    """
    probs = np.array(system.probs)
    if len(system.probs) != len(system.branches):
        raise DomainError("probabilities: need one probability per branch")
    if np.any(probs <= 0):
        raise DomainError("probabilities must be positive")
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        raise DomainError("probabilities must sum to 1")

    for i, br in enumerate(system.branches):
        if br.slope == 0:
            raise DomainError(f"branches[{i}]: slope must be nonzero")

    spans = []
    for i, br in enumerate(system.branches):
        for lo, hi in br.image_intervals(0.0, 1.0):
            spans.append((lo, hi, i))
    spans.sort()
    for (lo, hi, i), (lo2, _, i2) in zip(spans, spans[1:]):
        if lo2 < hi - 1e-12:
            raise DomainError(
                f"branches {i} and {i2} have overlapping image interiors")

    nodes = np.arange(n_grid) / n_grid
    for i, br in enumerate(system.branches):
        img = wrap_unit(br(nodes))
        back = system.sigma(img)
        dist = np.abs(back - nodes)
        dist = np.minimum(dist, 1.0 - dist)
        if np.max(dist) > RIGHT_INVERSE_TOL:
            raise DomainError(
                "sigma is not a left inverse of branches "
                f"(branch {i}, residual {np.max(dist):.3e})")

    mids = (np.arange(n_grid) + 0.5) / n_grid
    wm = np.asarray(system.weight(mids))
    if np.any(wm <= 0):
        raise DomainError("weight must be strictly positive at cell midpoints")
    wn = np.asarray(system.weight(nodes))
    if np.any(wn < 0):
        raise DomainError("weight must be nonnegative at grid nodes")


def make_system(branch_slopes: Sequence[float], branch_offsets: Sequence[float],
                probs: Sequence[float], weight: WeightExpr,
                sigma: PiecewiseAffineMap | int | None = None,
                n_grid: int = 256, validate: bool = True,
                mod_one: bool = False) -> IfsSystem:
    """Assemble and validate an :class:`IfsSystem`.

    ``sigma`` may be a map, an integer slope for the full ``m x mod 1``
    map, or ``None`` to infer the inverse of the branches (only possible
    when the branch images tile the circle).
    """
    if len(branch_slopes) != len(branch_offsets):
        raise DomainError("branches: slopes and offsets differ in length")
    branches = tuple(AffineBranch(float(a), float(b), mod_one)
                     for a, b in zip(branch_slopes, branch_offsets))
    if sigma is None:
        sig = PiecewiseAffineMap.inverse_of_branches(branches)
    elif isinstance(sigma, int):
        sig = PiecewiseAffineMap.expanding(sigma)
    else:
        sig = sigma
    system = IfsSystem(branches=branches, probs=tuple(float(p) for p in probs),
                       weight=weight, sigma=sig)
    if validate:
        validate_system(system, n_grid=n_grid)
    return system


# -- standard fixtures ----------------------------------------------------


def doubling_system(weight: WeightExpr | None = None, n_grid: int = 256,
                    validate: bool = True) -> IfsSystem:
    """Doubling map ``sigma = 2x mod 1`` with branches ``x/2, (x+1)/2`` and
    equal probabilities."""
    w = weight if weight is not None else WeightExpr.constant(1.0)
    return make_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5], w, sigma=2,
                       n_grid=n_grid, validate=validate)


def sys_a(n_grid: int = 256) -> IfsSystem:
    return doubling_system(WeightExpr.constant(1.0), n_grid)


def sys_b(n_grid: int = 256) -> IfsSystem:
    """Doubling system with ``W(x) = 1 + cos(2 pi x) = 2 cos^2(pi x)``.

    The weight vanishes at ``x = 1/2``; positivity is validated at cell
    midpoints, so the zero is tolerated on any even grid.
    """
    return doubling_system(WeightExpr.trig(1.0, [1.0]), n_grid)


def sys_d(n_grid: int = 243) -> IfsSystem:
    """Middle-thirds system: branches ``x/3`` and ``(x+2)/3`` under the full
    ``3x mod 1`` map; its invariant measure is the Cantor distribution."""
    return make_system([1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5],
                       WeightExpr.constant(1.0), sigma=3, n_grid=n_grid)
