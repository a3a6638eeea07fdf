"""Path space over an expanding circle map and its induced measures.

A point of the path space is a base state together with a word of branch
digits: coordinates ``x_0, x_1, ..., x_m`` with ``x_j = tau_{i_j}(x_{j-1})``,
so each coordinate is a preimage of the one before it under ``sigma``.  Given
a harmonic function ``h`` (``R h = h``, ``int h dlam = 1``), the measure at
base ``x`` assigns a depth-``m`` cylinder the exact mass

    sum over branch words of  prod_j p_{i_j} W(x_j) [x_j in A_j] * h(x_m),

which is the nested operator expression ``R(chi_1 R(chi_2 ... R(chi_m h)))``
evaluated at ``x``.  Its total mass is ``h(x)``; sampling therefore draws
digits from the conditioned kernel ``p_i W(tau_i y) h(tau_i y) / h(y)``.

Every exact path-space quantity is one such expression, and
:func:`conditional_expectation` is its one evaluator: cylinder masses, the
non-Markov witness, the rebuild of ``h`` from total masses and the
expectations behind the shift checks all call it.  It is also the one
place that bounds the words held at once: it sums many bases in chunks,
and refuses only a single base with more than ``WORDS_MAX`` words, so no
caller counts words.  Sampling is the
measure's random walk, not a second evaluator: a Monte Carlo expectation
is the mean of :meth:`CylinderFunction.eval_on_coords` over the coordinates
:func:`sample_paths` draws from bases drawn by :func:`sample_bases`.  The
shift leaves the path measure quasi-invariant with density ``W(x_0)``;
:func:`quasi_invariance_defect` measures this exactly, and
:func:`worst_quasi_defect` takes its largest size over a family of
cylinder functions, for random ones, for ``psi^2`` (the unitarity of
``U psi = sqrt(W(x_0)) psi o shift``) and for the levels of the
multiresolution ladder that ``U`` lowers one step at a time, with no
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .grid import GridFunction, IntervalSet, Measure, integrate, wrap_unit
from .harmonic import HarmonicSolution
from .system import left_inverse_residuals
from .transfer import TransferOperator, kernel_sum
from .trig import TRIAL_BLOCK, TrigPoly

EPS_H = 1e-10
DEPTH_MAX = 16
# Words (branch words times bases) one enumeration holds at once: its
# deepest level holds one float per word, and a trig weight evaluated there
# builds a real cosine/sine basis of 8 bytes per word and column, 2k + 1
# columns for k frequencies (24 MiB for W = 1 + cos).  A batched cylinder
# function carries up to TRIAL_BLOCK values per word on top, so the bases
# go in chunks of at most WORDS_MAX / TRIAL_BLOCK words; one base of more
# than WORDS_MAX words is refused.
WORDS_MAX = 2**20
_H_TRUST = 1e-6


@dataclass(frozen=True)
class SolPath:
    """Base point plus branch digits; digit ``i_j`` selects the branch
    mapping coordinate ``j-1`` to coordinate ``j``."""

    base: float
    digits: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.digits)


def coordinates(op: TransferOperator, path: SolPath) -> np.ndarray:
    """Coordinates ``(x_0, ..., x_m)`` by forward branch application."""
    xs = [float(wrap_unit(path.base))]
    for d in path.digits:
        if not 0 <= d < op.system.n_branches:
            raise DomainError(f"digit {d} out of range")
        xs.append(float(wrap_unit(op.system.branches[d](xs[-1]))))
    return np.array(xs)


def shift_forward(op: TransferOperator, path: SolPath) -> SolPath:
    """Prepend ``sigma(x_0)`` to the path: the backward-orbit point one step
    coarser.  The new leading digit is the branch whose image contains the
    old base; ties on branch-image boundaries resolve to the lowest index."""
    y = float(op.system.sigma(path.base))
    candidates = np.array([wrap_unit(br(y)) for br in op.system.branches])
    dist = np.abs(candidates - path.base)
    dist = np.minimum(dist, 1.0 - dist)
    best = float(np.min(dist))
    digit = int(np.flatnonzero(dist <= best + 1e-12)[0])
    return SolPath(base=y, digits=(digit,) + path.digits)


def shift_back(op: TransferOperator, path: SolPath) -> SolPath:
    """Drop the base coordinate, promoting ``x_1`` to the new base."""
    if path.depth < 1:
        raise DomainError("shift_back needs at least one digit")
    new_base = float(wrap_unit(op.system.branches[path.digits[0]](path.base)))
    return SolPath(base=new_base, digits=path.digits[1:])


def parse_interval_set(text: str, field: str = "sets") -> IntervalSet:
    """The ``u``-separated union ``"[0.5,0.75)u[0.9,1)"`` of intervals
    ``[lo,hi)`` with numbers ``0 <= lo < hi <= 1``; any other piece raises
    a :class:`ConfigError` located at ``field``, the flag that carried
    ``text``."""
    pairs = []
    for piece in text.replace("u", "U").split("U"):
        piece = piece.strip()
        ends = piece[1:-1].split(",")
        if not (piece.startswith("[") and piece.endswith(")")
                and len(ends) == 2):
            raise ConfigError(f"cannot parse interval '{piece}', "
                              "expected '[lo,hi)'", field=field)
        try:
            lo, hi = float(ends[0]), float(ends[1])
        except ValueError:
            raise ConfigError(f"interval '{piece}' has a non-numeric "
                              "endpoint", field=field) from None
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigError(f"interval '{piece}' needs endpoints "
                              "with 0 <= lo < hi <= 1", field=field)
        pairs.append((lo, hi))
    return IntervalSet(pairs)


class CylinderFunction:
    """Product ``f_0(x_0) f_1(x_1) ... f_m(x_m)`` of per-coordinate factors;
    ``None`` stands for the constant 1.  A cylinder event ``{x_j in A_j}``
    is the cylinder function of its indicators: an :class:`IntervalSet`
    factor is one."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence):
        if len(components) < 1:
            raise DomainError("cylinder function needs at least one factor")
        self.components = tuple(components)

    @classmethod
    def coerce(cls, psi) -> "CylinderFunction":
        return psi if isinstance(psi, CylinderFunction) else cls(tuple(psi))

    @classmethod
    def parse(cls, text: str) -> "CylinderFunction":
        """The cylinder event ``{x_1 in A_1, ..., x_m in A_m}`` described by
        ``"[0,0.25);all;[0.5,0.75)u[0.9,1)"``-style text (``all`` leaves a
        coordinate unconstrained); ``x_0`` is unconstrained.

        Every other coordinate is read by :func:`parse_interval_set`.  Empty
        parts are skipped; text with no coordinate at all, or with more than
        ``DEPTH_MAX``, raises a :class:`ConfigError` located at ``sets``.
        """
        sets: list[IntervalSet | None] = []
        for part in text.split(";"):
            part = part.strip()
            if part.lower() == "all":
                sets.append(None)
            elif part:
                sets.append(parse_interval_set(part))
        if not 1 <= len(sets) <= DEPTH_MAX:
            raise ConfigError(f"cylinder spec has {len(sets)} coordinates, "
                              f"not from 1 to {DEPTH_MAX}", field="sets")
        return cls([None, *sets])

    @property
    def depth(self) -> int:
        return len(self.components) - 1

    def eval_on_coords(self, coords: np.ndarray) -> np.ndarray:
        """Evaluate on stacked coordinates of shape ``(count, >= depth+1)``."""
        vals = np.ones(coords.shape[0])
        for j, f in enumerate(self.components):
            if f is not None:
                vals *= np.asarray(f(coords[:, j]), dtype=float)
        return vals

    def squared(self) -> "CylinderFunction":
        comps = []
        for f in self.components:
            if f is None:
                comps.append(None)
            else:
                comps.append(lambda x, f=f: np.asarray(f(x), dtype=float) ** 2)
        return CylinderFunction(comps)


@dataclass(frozen=True)
class PathMeasure:
    """The family of path-space measures determined by ``(R, h, lam)``.

    The measure at base ``x`` has total mass ``h(x)``; averaging the bases
    against ``lam`` gives a probability measure because ``int h dlam = 1``.
    ``h`` is any vectorized callable: a :class:`GridFunction`, or the exact
    :class:`TrigPoly` of a transition-matrix solve.
    """

    op: TransferOperator
    h: Callable
    lam: Measure
    h_residual: float

    @classmethod
    def build(cls, op: TransferOperator, h: Callable, lam: Measure,
              strict: bool = True) -> "PathMeasure":
        """The path measure of an ``h`` given from outside a solve, whose
        harmonic residual is ``max |R h - h|`` over the operator's nodes,
        ``R h`` by :meth:`TransferOperator.apply` and ``h`` evaluated
        pointwise.  With ``strict``, an ``h`` that does not integrate to 1
        against ``lam``, or an untrusted residual, is refused."""
        residual = float(np.max(np.abs(
            op.apply(h).values - np.asarray(h(op.nodes), dtype=float))))
        if strict:
            mass = integrate(h, lam)
            if abs(mass - 1.0) > 1e-6:
                raise DomainError(
                    f"harmonic function must integrate to 1 (got {mass:.6g})")
            _check_trust(residual)
        return cls(op, h, lam, residual)

    @classmethod
    def from_solution(cls, sol: HarmonicSolution) -> "PathMeasure":
        """The path measure of the solve ``sol``, which normalized ``h``
        against ``sol.lam`` and vouches for its residual ``sol.h_residual``.
        An unconverged solve, ``rho`` off 1 or an untrusted residual is
        refused."""
        if not sol.converged:
            raise ConvergenceError("harmonic solve did not converge")
        if abs(sol.rho - 1.0) > _H_TRUST:  # R h = rho h: h is not harmonic
            raise DomainError(f"rho = {sol.rho:.6g} is not 1; divide the "
                              "weight by rho first (normalize_weight)")
        _check_trust(sol.h_residual)
        return cls(sol.op, sol.h, sol.lam, sol.h_residual)


def _check_trust(residual: float) -> None:
    """Refuse a harmonic residual above ``_H_TRUST``."""
    if residual > _H_TRUST:
        raise DomainError(f"h is not harmonic enough (residual {residual:.3e})")


# -- exact cylinder calculus ----------------------------------------------


def _check_depth(depth: int) -> None:
    """Refuse a path of more than ``DEPTH_MAX`` coordinates after ``x_0``."""
    if depth > DEPTH_MAX:
        raise DomainError(f"path depth {depth} exceeds {DEPTH_MAX}")


def conditional_expectation(pm: PathMeasure, psi, x):
    """``f_0 R(f_1 R(f_2 ... R(f_m h)))(x)``: the expectation of the
    cylinder function ``psi = f_0(x_0) ... f_m(x_m)`` against the base-``x``
    measure (total mass ``h(x)``, not normalized), for a scalar or an array
    ``x`` of bases, reduced into ``[0, 1)`` by :func:`wrap_unit`.  Each
    factor is an :class:`IntervalSet` (its indicator), a callable, or
    ``None`` for the constant 1.  A factor whose values carry a
    leading trials axis (a batched :class:`TrigPoly`) makes ``psi`` a batch
    of cylinder functions, and the result gains that axis in front: one
    value per trial, ``(T,)`` or ``(T, B)`` for ``B`` bases.

    The branch images are built outward from ``x``, one leading branch axis
    per coordinate, and then summed inward from ``h``, one application of
    ``R`` per coordinate.  The bases are summed in chunks of at most
    ``WORDS_MAX / TRIAL_BLOCK`` words (a batch holds up to ``TRIAL_BLOCK``
    values per word; an unbatched ``psi`` takes the same chunks), so many
    bases cost time, not a refusal.  More than ``DEPTH_MAX`` coordinates
    after ``x_0``, or more than ``WORDS_MAX`` words at one base, raise
    before any level is built.
    """
    psi = CylinderFunction.coerce(psi)
    x = wrap_unit(x)
    factors = psi.components[1:]
    _check_depth(len(factors))
    op = pm.op
    words = op.system.n_branches ** len(factors)
    if words > WORDS_MAX:
        raise DomainError(
            f"{words} enumerated words at one base ({op.system.n_branches} "
            f"branches, depth {len(factors)}) exceed WORDS_MAX = {WORDS_MAX}")
    chunk = max(WORDS_MAX // (words * TRIAL_BLOCK), 1)
    if np.size(x) > chunk:
        return np.concatenate([conditional_expectation(pm, psi, x[i:i + chunk])
                               for i in range(0, len(x), chunk)], axis=-1)
    levels = [np.asarray(x, dtype=float)]
    for _ in factors:
        levels.append(op.branch_points(levels[-1]))
    total = np.asarray(pm.h(levels[-1]), dtype=float)
    for f, ys in zip(reversed(factors), reversed(levels[1:])):
        masses = op.branch_masses(ys)
        if f is not None:
            total = np.asarray(f(ys), dtype=float) * total
        total = kernel_sum(masses, total)
    f0 = psi.components[0]
    if f0 is not None:
        total = np.asarray(f0(x), dtype=float) * total
    return float(total) if total.ndim == 0 else total


def cylinder_mass(pm: PathMeasure, x: float,
                  spec: CylinderFunction) -> float:
    """Exact mass of the cylinder event ``spec`` at base ``x``, mod 1:
    the sum over all branch words of the kernel weights times ``h`` at the
    final coordinate.

    Appending an unconstrained coordinate leaves the value unchanged up to
    the harmonic residual of ``h`` (measure consistency across depths).
    """
    if pm.h_residual > _H_TRUST:
        raise DomainError(
            f"h residual {pm.h_residual:.3e} too large to trust consistency")
    return conditional_expectation(pm, spec, float(x))


def v0_adjoint(pm: PathMeasure, psi) -> GridFunction:
    """Normalized conditional expectation ``E(psi | x)/h(x)`` on the grid;
    the adjoint of lifting a base function to the path space."""
    nodes = pm.op.nodes
    hv = np.asarray(pm.h(nodes), dtype=float)
    if np.any(np.abs(hv) <= EPS_H):
        raise DomainError("h vanishes at a grid node; adjoint undefined")
    return GridFunction(conditional_expectation(pm, psi, nodes) / hv)


def expectation(pm: PathMeasure, psi):
    """Path-space expectation of a cylinder function: its
    :func:`conditional_expectation` integrated against the base measure."""
    return integrate(lambda x: conditional_expectation(pm, psi, x), pm.lam)


# -- sampling ---------------------------------------------------------------


def sample_bases(pm: PathMeasure, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw base points from the probability measure ``h dlam``."""
    lam, h = pm.lam, pm.h
    mids = lam.cell_midpoints()
    cell_w = lam.cell_masses * np.asarray(h(mids), dtype=float)
    atom_pos = np.array([p for p, _ in lam.atoms])
    atom_w = np.array([m * float(h(p)) for p, m in lam.atoms])
    weights = np.concatenate([cell_w, atom_w]) if atom_w.size else cell_w
    total = weights.sum()
    if total <= 0:
        raise DomainError("h dlam has no mass to sample from")
    probs = weights / total
    idx = rng.choice(weights.size, size=count, p=probs)
    out = np.empty(count)
    is_cell = idx < lam.n_cells
    jit = rng.random(count)
    out[is_cell] = (idx[is_cell] + jit[is_cell]) / lam.n_cells
    if np.any(~is_cell):
        out[~is_cell] = atom_pos[idx[~is_cell] - lam.n_cells]
    return out


def _conditioned_kernel(pm: PathMeasure, states: np.ndarray,
                        hy: np.ndarray) -> tuple:
    """The ``h``-conditioned kernel at the ``states``, where ``h`` is
    ``hy``: the children ``pts`` (branch by state), ``h(pts)``, the masses
    ``p_i W(tau_i y) h(tau_i y) / h(y)`` and their sums over the branches.
    ``h`` below ``EPS_H`` at a state, or a state whose kernel has no mass,
    raises."""
    if np.any(hy <= EPS_H):
        raise DomainError("h fell below its floor along a trajectory")
    op = pm.op
    pts = op.branch_points(states)                    # (n, S)
    kernel = op.branch_masses(pts)
    hv = np.asarray(pm.h(pts), dtype=float)
    kernel *= hv
    kernel /= hy
    total = kernel.sum(axis=0)
    if np.any(total <= 0):
        raise DomainError("transition kernel degenerated to zero mass")
    return pts, hv, kernel, total


def sample_paths(pm: PathMeasure, bases, depth: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``depth`` branch digits for each base from the ``h``-conditioned
    kernel, one step at a time: digit ``i`` at state ``y`` has probability
    proportional to ``p_i W(tau_i y) h(tau_i y) / h(y)``.

    Each step evaluates the kernel at every path's state and draws every
    path's digit from one ``rng.random(count)``.  Returns ``(digits,
    coords)`` with shapes ``(count, depth)`` and ``(count, depth+1)``, the
    transposes of row-per-step buffers.  Deterministic given the generator
    state.
    """
    ys = np.atleast_1d(np.asarray(bases, dtype=float))
    digits = np.empty((depth, ys.size), dtype=np.int64)
    coords = np.empty((depth + 1, ys.size))
    coords[0] = ys
    hy = np.asarray(pm.h(ys), dtype=float)
    for j in range(depth):
        pts, hv, kernel, total = _conditioned_kernel(pm, coords[j], hy)
        # the last cumulative row equals ``total`` bit for bit and u < total,
        # so it never counts: the first n-1 rows give a digit in [0, n-1]
        u = rng.random(ys.size) * total
        digits[j] = (np.cumsum(kernel[:-1], axis=0) < u).sum(axis=0)
        pick = digits[j][None]
        coords[j + 1] = np.take_along_axis(pts, pick, axis=0)[0]
        hy = np.take_along_axis(hv, pick, axis=0)[0]
    return digits.T, coords.T


def empirical_cylinder_frequency(pm: PathMeasure, x: float,
                                 spec: CylinderFunction, paths: int,
                                 rng: np.random.Generator) -> float:
    """Empirical probability of the cylinder event ``spec`` among ``paths``
    walks from the base ``x``, reduced mod 1; compare against
    ``cylinder_mass / h(x)``.

    The walks fall on the depth-``m`` branch words in Multinomial(``paths``,
    ``P_x(word) / h(x)``) counts, and a frequency reads only those counts,
    so it draws them, level by level: each step evaluates the kernel of
    :func:`sample_paths` once at the distinct states, splits each state's
    count over its children with one ``rng.multinomial`` call and drops the
    children no walk reached.  Splitting a multinomial level by level draws
    the joint law of the word counts, so the estimate has the law of the
    mean of ``spec`` over ``paths`` paths of :func:`sample_paths`.  Each
    factor is evaluated once per step, at the children kept, into a running
    product per state.  A frequency costs ``O(sum_j min(paths, n^j))``
    (``n`` branches, ``j`` up to the depth) and keeps no per-path array.
    """
    f0, *factors = spec.components
    states = np.array([wrap_unit(float(x))])
    hy = np.asarray(pm.h(states), dtype=float)
    counts = np.array([paths])
    prod = np.ones(1) if f0 is None else np.asarray(f0(states), dtype=float)
    for f in factors:
        pts, hv, kernel, _ = _conditioned_kernel(pm, states, hy)
        # multinomial refuses a negative probability: a mass below 0 is none
        probs = np.maximum(kernel, 0.0)
        probs /= probs.sum(axis=0)
        split = rng.multinomial(counts, probs.T).T.ravel()  # branch-major
        keep = np.flatnonzero(split)
        prod = np.take(prod, keep % states.size)
        counts, states, hy = split[keep], np.take(pts, keep), np.take(hv, keep)
        if f is not None:
            prod *= np.asarray(f(states), dtype=float)
    return float(np.sum(counts * prod)) / paths


# -- the weighted shift ------------------------------------------------------


def _shifted_components(pm: PathMeasure, psi: CylinderFunction, prefactor):
    """Components of ``prefactor(x_0) * psi(shifted path)`` as a cylinder
    function of depth ``max(depth-1, 0)``; a batched ``psi`` stays one."""
    sigma = pm.op.system.sigma
    comps = list(psi.components)
    f0 = comps[0]

    def head(x, f0=f0, nxt=(comps[1] if len(comps) > 1 else None)):
        out = np.asarray(prefactor(x), dtype=float)
        if f0 is not None:
            out = out * np.asarray(f0(sigma(x)), dtype=float)
        if nxt is not None:
            out = out * np.asarray(nxt(x), dtype=float)
        return out

    return CylinderFunction([head] + comps[2:])


def quasi_invariance_defect(pm: PathMeasure, psi) -> float | np.ndarray:
    """Signed defect of the change-of-variables rule for the path shift:

        E[ (W o Z_0) * (psi o shift) ] - E[ psi ],

    both sides by exact enumeration; one defect per trial for a batched
    ``psi``.  Zero (to rounding) whenever the weight is the density of the
    pushed base measure and ``h`` is harmonic.
    """
    psi = CylinderFunction.coerce(psi)
    shifted = _shifted_components(pm, psi, pm.op.system.weight)
    return expectation(pm, shifted) - expectation(pm, psi)


def u_apply(pm: PathMeasure, psi) -> CylinderFunction:
    """The weighted shift ``(U psi)(omega) = sqrt(W(x_0)) psi(shift omega)``,
    returned as a cylinder function one level shallower."""
    weight = pm.op.system.weight
    return _shifted_components(pm, CylinderFunction.coerce(psi),
                               lambda x: np.sqrt(np.maximum(weight(x), 0.0)))


def worst_quasi_defect(pm: PathMeasure, psis) -> float:
    """Largest ``|quasi_invariance_defect(pm, psi)|`` over the cylinder
    functions ``psis`` (0 when there are none), taking every trial of a
    batched one.  ``psis`` may be a generator; each item is used only for
    its own defect."""
    worst = 0.0
    for psi in psis:
        worst = max(worst,
                    float(np.max(np.abs(quasi_invariance_defect(pm, psi)))))
    return worst


def batch_trials(draws: Sequence[Sequence[TrigPoly]]
                 ) -> Iterator[CylinderFunction]:
    """Batched cylinder functions holding the trials ``draws``, each a list
    of single trig polynomials, one per coordinate.

    Trials of equal depth share batches, in the order their depths first
    occur, at most ``TRIAL_BLOCK`` trials to a batch and in draw order
    within it; factor ``j`` of a batch is :meth:`TrigPoly.stack` of the
    trials' factors ``j``.  Yields the batches one at a time.
    """
    groups: dict[int, list] = {}
    for factors in draws:
        groups.setdefault(len(factors), []).append(factors)
    for group in groups.values():
        for i in range(0, len(group), TRIAL_BLOCK):
            yield CylinderFunction([TrigPoly.stack(fs) for fs
                                    in zip(*group[i:i + TRIAL_BLOCK])])


def unitarity_check(pm: PathMeasure, trials: int = 20, seed: int = 0) -> float:
    """Max deviation of ``||U psi||^2`` from ``||psi||^2`` over random
    cylinder functions of depth 2.  Since ``|U psi|^2 = W(x_0) |psi o
    shift|^2``, that deviation is the quasi-invariance defect of ``psi^2``.
    Each trial draws one degree-4 polynomial for each of ``x_0, x_1, x_2``;
    the trials are evaluated as the batches of :func:`batch_trials`."""
    rng = np.random.default_rng(seed)
    draws = [[TrigPoly.random(rng, degree=4) for _ in range(3)]
             for _ in range(trials)]
    return worst_quasi_defect(pm, (psi.squared()
                                   for psi in batch_trials(draws)))


@dataclass(frozen=True)
class MultiresResult:
    nesting_residual: float
    shift_residual: float


def multires_check(pm: PathMeasure, seed: int = 0) -> MultiresResult:
    """Exact residuals of the multiresolution ladder ``V_0 < V_1 < ...``,
    where ``V_n`` holds the functions of the coordinate ``x_n``.

    Nesting: every path has ``x_n = sigma(x_{n+1})``, so ``V_n`` sits in
    ``V_{n+1}`` exactly when ``sigma`` is a left inverse of the branches;
    the residual is the largest exact :func:`left_inverse_residuals`.  Shift:
    ``U`` maps ``V_n`` isometrically into ``V_{n-1}``; the residual is the
    largest ``|quasi_invariance_defect(f(x_n)^2)|`` over ``n = 1..4`` for a
    random trig polynomial ``f`` drawn from ``seed``.
    """
    nesting = float(np.max(left_inverse_residuals(pm.op.system)))
    f = TrigPoly.random(np.random.default_rng(seed), degree=4)
    shift = worst_quasi_defect(pm, (
        CylinderFunction([None] * n + [f]).squared()
        for n in range(1, 5)))
    return MultiresResult(nesting, shift)


# -- non-Markov witness and harmonic reconstruction -------------------------


def markov_deviation(pm: PathMeasure, set_a: IntervalSet, set_b: IntervalSet,
                     x: float, n: int) -> tuple[float, float, float]:
    """Joint masses ``m_k = P_x(coordinate k in A, coordinate k+1 in B)``
    for ``k = 1`` and ``k = n`` at the base ``x``, mod 1; their
    difference witnesses that the chain is not time-homogeneous Markov.
    Indicators are evaluated sharply at branch images, so the nested sums
    are exact.
    """
    if n < 2:
        raise DomainError("n must be at least 2")
    _check_depth(n + 1)
    m1 = conditional_expectation(pm, [None, set_a, set_b], float(x))
    mn = conditional_expectation(pm, [None] * n + [set_a, set_b], float(x))
    return m1, mn, mn - m1


def harmonic_from_measure(pm: PathMeasure, depth: int = 1
                          ) -> tuple[GridFunction, float]:
    """Rebuild a candidate harmonic function as the total cylinder mass at
    every grid node, and report how far it is from being fixed by ``R``.

    Total mass at depth ``d`` is ``R^d h``; if ``h`` is harmonic this
    reproduces ``h`` and the residual is at the level of the solver's
    tolerance.  Feeding a non-harmonic ``h`` (via a non-strict
    :class:`PathMeasure`) makes the residual report the failure.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    _check_depth(depth + 1)
    nodes = pm.op.nodes
    h_tilde = conditional_expectation(pm, [None] * (depth + 1), nodes)
    again = conditional_expectation(pm, [None] * (depth + 2), nodes)
    residual = float(np.max(np.abs(again - h_tilde)))
    return GridFunction(h_tilde), residual
