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

PROB_SUM_TOL = 1e-12
RIGHT_INVERSE_TOL = 1e-10
# Two branch images, or two pieces of sigma, may overlap by this much.
OVERLAP_TOL = 1e-12


@dataclass(frozen=True)
class WeightExpr:
    """Positive weight on the circle: the closed form
    ``const + sum c_k cos(2 pi k x) + sum s_k sin(2 pi k x)`` (a constant has
    no coefficients), or a sampled table when ``table`` is set.

    The closed form exposes itself as a :class:`TrigPoly` so the operator
    algebra can stay exact; tables fall back to interpolation.
    """

    const: float = 1.0
    cos_coefs: tuple[float, ...] = ()
    sin_coefs: tuple[float, ...] = ()
    table: GridFunction | None = None

    @classmethod
    def constant(cls, value: float) -> "WeightExpr":
        return cls(const=float(value))

    @classmethod
    def trig(cls, const: float, cos_coefs: Sequence[float] = (),
             sin_coefs: Sequence[float] = ()) -> "WeightExpr":
        return cls(const=float(const),
                   cos_coefs=tuple(float(c) for c in cos_coefs),
                   sin_coefs=tuple(float(s) for s in sin_coefs))

    @classmethod
    def from_table(cls, table: GridFunction) -> "WeightExpr":
        return cls(table=table)

    @cached_property
    def trigpoly(self) -> TrigPoly | None:
        """The closed form as a :class:`TrigPoly`, ``None`` for a table.
        Built once per weight: the weight is evaluated on every operator
        application, and a TrigPoly is immutable."""
        if self.table is not None:
            return None
        return TrigPoly.from_cos_sin(self.const, self.cos_coefs,
                                     self.sin_coefs)

    def __call__(self, x):
        if self.table is not None:
            return self.table(x)
        return self.trigpoly(x)

    def scaled(self, factor: float) -> "WeightExpr":
        if self.table is not None:
            return WeightExpr.from_table(self.table * factor)
        return WeightExpr.trig(self.const * factor,
                               [c * factor for c in self.cos_coefs],
                               [s * factor for s in self.sin_coefs])


class PiecewiseAffineMap:
    """Expanding circle map of affine pieces ``(lo, hi, a, b)``, each applying
    ``x -> a x + b mod 1`` on its stretch: the row ``(start, end, a, b)`` of
    ``stretches``, from ``lo`` to the next ``lo`` (first from 0, last to 1)."""

    __slots__ = ("pieces", "stretches")

    def __init__(self, pieces: Sequence[tuple[float, float, float, float]]):
        ordered = sorted((float(lo), float(hi), float(a), float(b))
                         for lo, hi, a, b in pieces)
        if not ordered:
            raise DomainError("piecewise map needs at least one piece")
        for (lo, hi, _, _), (lo2, _, _, _) in zip(ordered, ordered[1:]):
            if lo2 < hi - OVERLAP_TOL:
                raise DomainError("piecewise map pieces overlap")
        self.pieces = tuple(ordered)
        starts = [0.0] + [lo for lo, _, _, _ in ordered[1:]]
        self.stretches = np.array([
            (start, end, a, b) for start, end, (_, _, a, b)
            in zip(starts, starts[1:] + [1.0], ordered)])
        self.stretches.setflags(write=False)

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
        idx = np.searchsorted(self.stretches[:, 0], xs, side="right") - 1
        out = wrap_unit(self.stretches[idx, 2] * xs + self.stretches[idx, 3])
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def preimage(self, region: IntervalSet) -> IntervalSet:
        pre = []
        for start, end, a, b in self.stretches.tolist():
            img_lo, img_hi = sorted((a * start + b, a * end + b))
            # each [k, k + 1) the image covers (a gap's reaches past 1)
            for k in range(int(np.floor(img_lo + OVERLAP_TOL)),
                           int(np.ceil(img_hi - OVERLAP_TOL))):
                for lo, hi in region.intervals:
                    c, d = max(lo + k, img_lo), min(hi + k, img_hi)
                    if d <= c:
                        continue
                    x1, x2 = sorted(((c - b) / a, (d - b) / a))
                    x1, x2 = max(x1, start), min(x2, end)
                    if x2 > x1:
                        pre.append((x1, x2))
        return IntervalSet(pre)

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
        """Whether the branches are ``x/2`` and ``(x+1)/2``, in any order,
        whatever the probabilities, the weight and ``mod_one``."""
        pairs = sorted((br.offset, br.slope) for br in self.branches)
        return len(pairs) == 2 and bool(np.allclose(
            pairs, [(0.0, 0.5), (0.5, 0.5)], rtol=0.0, atol=1e-12))

    def with_weight(self, weight: WeightExpr) -> "IfsSystem":
        return replace(self, weight=weight)

    def with_sigma(self, sigma: PiecewiseAffineMap) -> "IfsSystem":
        return replace(self, sigma=sigma)


def left_inverse_residuals(system: IfsSystem) -> np.ndarray:
    """Per branch, the supremum over ``[0, 1)`` of the circle distance
    ``|sigma(tau_i x) - x|``, exactly: where ``tau_i x = s x + o - k`` (``k``
    shifts a wrapping branch) meets a stretch of ``sigma``, it is the
    distance of ``(a s - 1) x + a (o - k) + b`` to the integers, largest at
    an end of that part, or 1/2 if it crosses a half-integer there."""
    worst = np.zeros(len(system.branches))
    for i, br in enumerate(system.branches):
        s, o = br.slope, br.offset
        img_lo, img_hi = sorted((o, s + o))
        for k in range(int(np.floor(img_lo + OVERLAP_TOL)),
                       int(np.ceil(img_hi - OVERLAP_TOL))):
            for start, end, a, b in system.sigma.stretches.tolist():
                c, d = max(start, img_lo - k), min(end, img_hi - k)
                if d - c > OVERLAP_TOL:
                    v = [(a * s - 1) * ((y + k - o) / s) + a * (o - k) + b
                         for y in (c, d)]
                    worst[i] = max(worst[i], 0.5 if round(v[0]) != round(
                        v[1]) else max(abs(u - round(u)) for u in v))
    return worst


def validate_system(system: IfsSystem, n_grid: int = 256) -> None:
    """Check the invariants: structure exact, weight at grid ``n_grid``.

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
        br.check_image(f"branches[{i}]")

    spans = []
    for i, br in enumerate(system.branches):
        for lo, hi in br.image_intervals(0.0, 1.0):
            spans.append((lo, hi, i))
    spans.sort()
    for (lo, hi, i), (lo2, _, i2) in zip(spans, spans[1:]):
        if lo2 < hi - OVERLAP_TOL:
            raise DomainError(
                f"branches {i} and {i2} have overlapping image interiors")

    for i, residual in enumerate(left_inverse_residuals(system)):
        if residual > RIGHT_INVERSE_TOL:
            raise DomainError(
                "sigma is not a left inverse of branches "
                f"(branch {i}, residual {residual:.3e})")

    nodes = np.arange(n_grid) / n_grid
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
