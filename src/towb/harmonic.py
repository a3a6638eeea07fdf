"""Fixed points of the transfer operator and the Fourier cascade.

``solve_harmonic`` runs a power iteration for the leading eigenpair of the
positive operator ``R``; the eigenvalue estimate is the ``L^1(lam)`` growth
factor, and the returned function is scaled to integrate to one against the
base measure.  The iteration works on plain node arrays: both linear maps it
applies are fixed by the operator and ``lam``, so ``R`` goes through the
operator's assembled grid action and the ``lam``-integral through a
quadrature whose stencils are built before the first step.  The result is
bit for bit that of the same loop written with a :class:`GridFunction` per
step.  ``normalize_weight`` divides the weight by the eigenvalue so the
rescaled system has a genuine fixed point ``R h = h``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .grid import GridFunction, Measure, node_quadrature
from .system import IfsSystem
from .transfer import TransferOperator

_NEGATIVITY_FLOOR = -1e-14


@dataclass(frozen=True)
class HarmonicSolution:
    h: GridFunction
    rho: float
    residual: float
    iterations: int
    converged: bool


def _finite(values: np.ndarray) -> np.ndarray:
    """The check :class:`GridFunction` makes on its samples."""
    if not np.isfinite(values).all():
        raise DomainError("grid function samples must be finite")
    return values


def solve_harmonic(op: TransferOperator, lam: Measure, tol: float = 1e-12,
                   max_iter: int = 2000, seed: int = 0) -> HarmonicSolution:
    """Power iteration for ``R h = rho h`` from a strictly positive random
    start, normalized in ``L^1(lam)`` each step.

    The iterates are node arrays: ``R`` is :meth:`TransferOperator.apply_values`
    and the integral against ``lam`` is one :func:`node_quadrature`, so no
    weight, stencil or :class:`GridFunction` is built per step, and ``h``,
    ``rho``, the residual and the iteration count equal bit for bit those of
    the loop on grid functions with :meth:`TransferOperator.apply` and
    :func:`integrate`.  Every iterate is checked finite.  Positivity of ``R``
    keeps true iterates nonnegative; samples are clipped at ``-1e-14``
    (rounding dust) and anything more negative signals an invalid weight.
    Non-convergence returns the best iterate flagged ``converged=False``.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    quad = node_quadrature(op.n_grid, lam)
    h = np.random.default_rng(seed).uniform(0.5, 1.5, op.n_grid)
    h = _finite(h * (1.0 / quad(h)))
    rho = np.nan
    converged = False
    for it in range(1, max_iter + 1):
        g = _finite(op.apply_values(h))
        low = float(g.min())
        if low < _NEGATIVITY_FLOOR:
            raise ConvergenceError(
                f"iterate went negative ({low:.3e}); weight is not positive")
        g = np.maximum(g, 0.0)
        rho = quad(g)
        if rho <= 0:
            raise ConvergenceError("iterate collapsed to zero mass")
        h_next = _finite(g * (1.0 / rho))
        step = float(np.abs(h_next - h).max())
        h = h_next
        if step < tol:
            converged = True
            break
    h = _finite(h * (1.0 / quad(h)))
    residual = float(np.max(np.abs(_finite(op.apply_values(h)) - rho * h)))
    return HarmonicSolution(GridFunction(h), float(rho), residual,
                            it if converged else max_iter, converged)


def normalize_weight(op: TransferOperator,
                     sol: HarmonicSolution) -> IfsSystem:
    """Rescale the weight by ``1/rho`` so the leading eigenvalue ``rho`` of
    the solve ``sol`` of ``op`` becomes 1."""
    if not sol.converged:
        raise ConvergenceError("cannot normalize: eigensolve did not converge")
    if sol.rho <= 0:
        raise ConvergenceError("cannot normalize: nonpositive eigenvalue")
    return op.system.with_weight(op.system.weight.scaled(1.0 / sol.rho))


def fourier_cascade_check(op: TransferOperator, h: GridFunction,
                          k_max: int = 4, n_max: int = 8) -> float:
    """Cascade identity for the doubling map: with
    ``W_k(x) = W(x) W(2x) ... W(2^{k-1} x)``, a fixed point of ``R``
    satisfies ``h^(n) = (W_k h)^(2^k n)`` for every frequency ``n``.

    Fourier coefficients use the convention ``h^(n) = int e(n x) h(x) dx``
    with ``e(t) = exp(2 pi i t)``.  Returns the maximum deviation over
    ``0 <= k <= k_max`` and ``|n| <= n_max``.  Quadrature is the uniform
    midpoint rule, spectrally accurate for smooth integrands; the relevant
    frequencies must stay well below the grid size.
    """
    if not op.system.is_doubling():
        raise DomainError("cascade check applies to the doubling system only")
    if (2 ** k_max) * n_max >= op.n_grid // 4:
        raise DomainError("grid too coarse for the requested frequencies")

    n = op.n_grid
    mids = (np.arange(n) + 0.5) / n
    hv = np.asarray(h.resample(n)(mids), dtype=float)
    freqs = np.arange(-n_max, n_max + 1)

    def coeffs(values: np.ndarray, freq_scale: int) -> np.ndarray:
        phases = np.exp(2j * np.pi * freq_scale *
                        np.multiply.outer(freqs, mids))
        return phases @ values / n

    base = coeffs(hv, 1)
    deviation = 0.0
    wk = np.ones(n)
    for k in range(0, k_max + 1):
        if k > 0:
            wk = wk * np.asarray(op.system.weight((2 ** (k - 1) * mids) % 1.0),
                                 dtype=float)
        cascade = coeffs(wk * hv, 2 ** k)
        deviation = max(deviation, float(np.max(np.abs(base - cascade))))
    return deviation
