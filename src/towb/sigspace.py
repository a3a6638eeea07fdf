"""Square densities, Lebesgue decomposition, and the defect functional.

The Hilbert space of square densities consists of classes ``f * sqrt(d mu)``;
two pairs ``(f, mu)`` and ``(g, nu)`` are identified when their half-density
expressions against ``tau = (mu + nu)/2`` agree.  On the cell/atom
representation every operation here is finite and exact.

The defect of a probability measure ``lam`` under a transfer operator
measures how far ``lam . R`` is from being absolutely continuous with
respect to ``lam``: it is the squared distance in the square-density space
between ``sqrt(lam . R)`` and the projection of that element onto the
subspace generated by ``lam``, namely ``sqrt(W_lam) * sqrt(lam)`` with
``W_lam`` the density of the absolutely continuous part.  The defect is
zero exactly when the pushed measure has no singular part at grid scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .grid import ATOM_MERGE_TOL, GridFunction, Measure, pushforward

if TYPE_CHECKING:  # pragma: no cover
    from .system import IfsSystem
    from .transfer import TransferOperator


@dataclass(frozen=True)
class Decomposition:
    """Lebesgue decomposition of ``mu`` against ``lam``.

    ``density`` holds the per-cell density (entry ``j`` is the constant
    density on cell ``[j/N, (j+1)/N)``); ``atom_density`` maps positions of
    matched atoms to mass ratios; ``singular`` collects everything living
    where ``lam`` has no mass.
    """

    density: GridFunction
    atom_density: dict[float, float]
    singular: Measure

    def absolutely_continuous(self, lam: Measure) -> Measure:
        """The part carried by ``lam``: ``density * lam`` plus matched atoms."""
        cells = self.density.values * lam.cell_masses
        atoms = [(pos, self.atom_density.get(pos, 0.0) * mass)
                 for pos, mass in lam.atoms]
        return Measure(cells, atoms)

    def reconstruct(self, lam: Measure) -> Measure:
        """``density * lam + singular``; equals the decomposed measure."""
        return self.absolutely_continuous(lam) + self.singular


def _match_atoms(mu: Measure, lam: Measure):
    """Pair atoms of mu with atoms of lam by position (within merge tol)."""
    matched, unmatched = [], []
    lam_pos = np.array([p for p, _ in lam.atoms]) if lam.atoms else None
    for pos, mass in mu.atoms:
        if lam_pos is not None:
            k = int(np.argmin(np.abs(lam_pos - pos)))
            d = abs(lam_pos[k] - pos)
            if min(d, 1.0 - d) <= ATOM_MERGE_TOL:
                matched.append((lam.atoms[k][0], mass, lam.atoms[k][1]))
                continue
        unmatched.append((pos, mass))
    return matched, unmatched


def lebesgue_decompose(mu: Measure, lam: Measure) -> Decomposition:
    """Split ``mu`` into a part with a density against ``lam`` plus a
    singular remainder, cell by cell and atom by atom."""
    if mu.n_cells != lam.n_cells:
        raise DomainError("measures must share a grid for decomposition")
    has_lam = lam.cell_masses > 0
    density = np.where(has_lam,
                       mu.cell_masses / np.where(has_lam, lam.cell_masses, 1.0),
                       0.0)
    sing_cells = np.where(has_lam, 0.0, mu.cell_masses)
    matched, unmatched = _match_atoms(mu, lam)
    atom_density: dict[float, float] = {}
    for pos, mass, lam_mass in matched:
        atom_density[pos] = atom_density.get(pos, 0.0) + mass / lam_mass
    singular = Measure(sing_cells, unmatched)
    return Decomposition(GridFunction(density), atom_density, singular)


@dataclass(frozen=True)
class SigElement:
    """Equivalence class ``f * sqrt(d mu)`` in the square-density space."""

    f: object  # GridFunction or callable
    mu: Measure


def sig_inner(a: SigElement, b: SigElement) -> float:
    """Inner product of square densities.

    Against ``tau = (mu_a + mu_b)/2`` the half-density factors combine into
    ``sqrt(m_a * m_b)`` per cell and per matched atom, so the base measure
    drops out of the computation.
    """
    mu, nu = a.mu, b.mu
    if mu.n_cells != nu.n_cells:
        raise DomainError("sig elements must share a grid")
    mids = mu.cell_midpoints()
    fa = np.asarray(a.f(mids), dtype=float)
    fb = np.asarray(b.f(mids), dtype=float)
    total = float(np.dot(fa * fb, np.sqrt(mu.cell_masses * nu.cell_masses)))
    matched, _ = _match_atoms(mu, nu)
    for pos, m_mu, m_nu in matched:
        total += float(a.f(pos)) * float(b.f(pos)) * np.sqrt(m_mu * m_nu)
    return total


def sig_norm_sq(a: SigElement) -> float:
    return sig_inner(a, a)


def sig_distance_sq(a: SigElement, b: SigElement) -> float:
    return max(sig_norm_sq(a) + sig_norm_sq(b) - 2.0 * sig_inner(a, b), 0.0)


def defect(lam: Measure, op: "TransferOperator") -> float:
    """Squared square-density distance between ``sqrt(lam . R)`` and its
    projection onto the classes carried by ``lam``.

    Per cell or atom with pushed mass ``a`` and base mass ``b``, the
    integrand ``(sqrt(a) - sqrt(w b))^2`` with ``w = a/b`` vanishes wherever
    ``b > 0`` and contributes ``a`` on the singular part, so the value is
    the singular mass of ``lam . R`` and certifies absolute continuity at
    grid scale.  Always nonnegative.
    """
    return pushed_decomposition(lam, op).singular.total()


def pushed_decomposition(lam: Measure,
                         op: "TransferOperator") -> Decomposition:
    """Lebesgue decomposition of ``lam . R`` against the probability
    measure ``lam``; its singular mass is the defect."""
    if not lam.is_probability():
        raise DomainError("defect is defined for probability measures only")
    return op.rn_derivative(lam)


def membership(dec: Decomposition,
               tol: float = 1e-8) -> tuple[bool, float]:
    """``(member, defect_value)`` read off the decomposition of a pushed
    measure: membership requires its singular mass to fall below ``tol``."""
    value = dec.singular.total()
    return value < tol, value


def l1_membership(lam: Measure, op: "TransferOperator",
                  tol: float = 1e-8) -> tuple[bool, float]:
    """Certificate that ``lam . R`` is absolutely continuous w.r.t. ``lam``.

    Returns ``(member, defect_value)``; membership requires the defect, the
    singular mass of the pushed measure, to fall below ``tol``.
    """
    return membership(pushed_decomposition(lam, op), tol)


def hutchinson_iterate(system: "IfsSystem", lam0: Measure,
                       steps: int) -> Measure:
    """Iterate the branch-averaging map ``lam -> sum_i p_i lam o tau_i^-1``.

    The weight plays no role here; the fixed points are the invariant
    measures of the bare branch system.  Total mass is preserved exactly.
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    lam = lam0
    for _ in range(steps):
        parts = [pushforward(lam, br).scaled(p)
                 for br, p in zip(system.branches, system.probs)]
        acc = parts[0]
        for part in parts[1:]:
            acc = acc + part
        lam = acc
    return lam


def defect_search(op: "TransferOperator",
                  seed: int = 0) -> tuple[Measure, float]:
    """A probability measure of zero defect, drawn from ``seed``.

    The draw has a random positive mass on every cell and no atoms.  The
    pushforward maps cells to cells, so its push has no singular part and
    the defect is exactly 0 for every operator: no search or smoothing from
    such a start can improve on it.  Deterministic given ``seed``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    lam = Measure(rng.uniform(0.2, 1.0, op.n_grid)).normalized()
    return lam, float(defect(lam, op))
