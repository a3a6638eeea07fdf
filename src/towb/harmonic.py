"""Fixed points of the transfer operator and the Fourier cascade.

``solve_harmonic`` finds the leading eigenpair ``R h = rho h`` of the
positive operator ``R`` and returns ``h`` scaled to integrate to one against
the base measure.  It takes one of two methods, chosen from the system:

- ``transition_matrix``: when ``R`` maps the trig polynomials of a fixed
  degree into themselves (:meth:`TransferOperator.transition_matrix`: every
  fixture, and any constant weight on non-wrapping branches), ``rho`` and
  ``h`` are an eigenpair of that small matrix, ``h`` an exact
  :class:`TrigPoly`.  A leading eigenvalue that is not alone on its
  spectral circle leaves ``h`` undetermined and is a
  :class:`ConvergenceError`.  The solve is converged when the coefficient
  residual is below ``tol``; ``max_iter`` and ``seed`` do not apply.
- ``power``: :func:`power_iteration` on the grid for every other system.
  The eigenvalue estimate is the ``L^1(lam)`` growth factor.  The solve is
  converged when the final residual is below ``tol``, the rule of the
  exact method.

``normalize_weight`` divides the weight by the eigenvalue so the rescaled
system has a genuine fixed point ``R h = h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError
from .grid import GridFunction, Measure, integrate
from .system import PROB_SUM_TOL, IfsSystem
from .transfer import TransferOperator
from .trig import TrigPoly

_NEGATIVITY_FLOOR = -1e-14
# Eigenvalues of modulus at least rho (1 - PERIPHERAL_TOL) share rho's circle.
PERIPHERAL_TOL = 1e-9


@dataclass(frozen=True)
class HarmonicSolution:
    """``h`` is a :class:`TrigPoly` from the ``transition_matrix`` method
    (``iterations`` 0, converged when its residual is below ``tol``, with
    the ratio ``|lambda_2| / rho`` of the second eigenvalue modulus to
    ``rho`` on the invariant trig space) and a :class:`GridFunction` from
    the ``power`` method, used for every system without such a space."""

    h: GridFunction | TrigPoly
    rho: float
    residual: float
    iterations: int
    converged: bool
    method: str
    spectral_ratio: float | None = None


def solve_harmonic(op: TransferOperator, lam: Measure, tol: float = 1e-12,
                   max_iter: int = 2000, seed: int = 0) -> HarmonicSolution:
    """The leading eigenpair of ``R``, with ``int h dlam = 1``: exact from
    :meth:`TransferOperator.transition_matrix` when the system has one
    (converged when its residual is below ``tol``), by
    :func:`power_iteration` with ``tol``, ``max_iter`` and ``seed``
    otherwise."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    matrix = op.transition_matrix()
    if matrix is None:
        return power_iteration(op, lam, tol, max_iter, seed)
    return _solve_transition_matrix(op, lam, matrix, tol)


def _format_eigenvalue(z: complex) -> str:
    if abs(z.imag) <= PERIPHERAL_TOL * abs(z):
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _solve_transition_matrix(op: TransferOperator, lam: Measure,
                             matrix: np.ndarray,
                             tol: float) -> HarmonicSolution:
    """``rho`` and ``h`` from the eigendecomposition of ``matrix``.

    The leading eigenvalue is the one of largest real part; it must be
    positive and every other eigenvalue must have modulus below
    ``rho (1 - PERIPHERAL_TOL)``.  Divided by its constant coefficient (a
    positive ``h`` has ``int h dx > 0``), its eigenvector is a real
    :class:`TrigPoly` of mean 1, checked nonnegative at the grid nodes like
    a power iterate and scaled to ``int h dlam = 1``.  The residual is
    ``max |M v - rho v|`` over the coefficients ``v`` of ``h``, and the
    solve is converged when it is below ``tol``.
    """
    vals, vecs = np.linalg.eig(matrix)
    lead = int(np.argmax(vals.real))
    rho = float(vals[lead].real)
    if rho <= 0:
        raise ConvergenceError("iterate collapsed to zero mass")
    peripheral = np.abs(vals) >= rho * (1 - PERIPHERAL_TOL)
    if np.count_nonzero(peripheral) > 1:
        mult = int(np.count_nonzero(np.abs(vals - rho)
                                    <= PERIPHERAL_TOL * rho))
        listed = ", ".join(_format_eigenvalue(z) for z in sorted(
            vals[peripheral], key=lambda z: (-z.real, -z.imag)))
        shape = (f"has multiplicity {mult}" if mult > 1
                 else "shares its spectral circle")
        raise ConvergenceError(
            f"leading eigenvalue {_format_eigenvalue(vals[lead])} {shape}; "
            f"peripheral spectrum {{{listed}}}")
    top = (matrix.shape[0] - 1) // 2
    freqs = np.arange(-top, top + 1)
    v = vecs[:, lead]
    if v[top] == 0:
        raise ConvergenceError("eigenvector of mean 0; weight is not positive")
    h = TrigPoly(dict(zip(freqs.astype(float), v / v[top])))
    low = float(np.min(h(op.nodes)))
    if low < _NEGATIVITY_FLOOR:
        raise ConvergenceError(
            f"iterate went negative ({low:.3e}); weight is not positive")
    mass = integrate(h, lam)
    if mass <= 0:
        raise ConvergenceError("iterate collapsed to zero mass")
    h = h * (1.0 / mass)
    coefs = h.coefficients(freqs)
    residual = float(np.max(np.abs(matrix @ coefs - rho * coefs)))
    others = np.abs(np.delete(vals, lead))
    ratio = float(others.max()) / rho if others.size else 0.0
    return HarmonicSolution(h, rho, residual, 0, residual < tol,
                            "transition_matrix", ratio)


def power_iteration(op: TransferOperator, lam: Measure, tol: float = 1e-12,
                    max_iter: int = 2000, seed: int = 0) -> HarmonicSolution:
    """Power iteration for ``R h = rho h`` from a strictly positive random
    start, normalized in ``L^1(lam)`` each step.

    Every iterate is a :class:`GridFunction` (so checked finite), ``R`` is
    :meth:`TransferOperator.apply` and the integral against ``lam`` is
    :func:`integrate`.  Positivity of ``R`` keeps true iterates nonnegative;
    samples are clipped at ``-1e-14`` (rounding dust) and anything more
    negative signals an invalid weight.  The solve is converged when the
    residual ``max |R h - rho h|`` of its normalized iterate is below
    ``tol``.  That residual is read after every step that moves ``h`` by
    less than ``tol`` and after step ``max_iter``, and the loop stops at
    the first one below ``tol``; ``iterations`` counts the steps run.  An
    unconverged solve returns its last iterate flagged ``converged=False``.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    h = GridFunction(np.random.default_rng(seed).uniform(0.5, 1.5, op.n_grid))
    h = out = h * (1.0 / integrate(h, lam))
    rho, residual, it = np.nan, np.nan, 0
    for it in range(1, max_iter + 1):
        g = op.apply(h)
        low = float(np.min(g.values))
        if low < _NEGATIVITY_FLOOR:
            raise ConvergenceError(
                f"iterate went negative ({low:.3e}); weight is not positive")
        g = GridFunction(np.maximum(g.values, 0.0))
        rho = integrate(g, lam)
        if rho <= 0:
            raise ConvergenceError("iterate collapsed to zero mass")
        h_next = g * (1.0 / rho)
        step = float(np.max(np.abs(h_next.values - h.values)))
        h = h_next
        if step < tol or it == max_iter:
            out = h * (1.0 / integrate(h, lam))
            residual = float(np.max(np.abs(op.apply(out).values
                                           - rho * out.values)))
            if residual < tol:
                break
    return HarmonicSolution(out, float(rho), residual, it, residual < tol,
                            "power")


def normalize_weight(op: TransferOperator,
                     sol: HarmonicSolution) -> IfsSystem:
    """Rescale the weight by ``1/rho`` so the leading eigenvalue ``rho`` of
    the solve ``sol`` of ``op`` becomes 1."""
    if not sol.converged:
        raise ConvergenceError("cannot normalize: eigensolve did not converge")
    if sol.rho <= 0:
        raise ConvergenceError("cannot normalize: nonpositive eigenvalue")
    return op.system.with_weight(op.system.weight.scaled(1.0 / sol.rho))


def fourier_cascade_check(op: TransferOperator, h: Callable,
                          k_max: int = 4, n_max: int = 8,
                          rho: float = 1.0) -> float:
    """Cascade identity for the doubling map with ``p_1 = p_2 = 1/2``: with
    ``W_k(x) = W(x) W(2x) ... W(2^{k-1} x)``, a solution of ``R h = rho h``
    satisfies ``rho^k h^(n) = (W_k h)^(2^k n)`` for every frequency ``n``.

    Fourier coefficients use the convention ``h^(n) = int e(n x) h(x) dx``
    with ``e(t) = exp(2 pi i t)``.  Returns the maximum deviation of
    ``(W_k h)^(2^k n) / rho^k`` from ``h^(n)`` over ``0 <= k <= k_max`` and
    ``|n| <= n_max``.  For a :class:`TrigPoly` ``h`` and a closed-form
    weight the coefficients are read off ``h`` and the products ``W_k h``
    exactly.  Any other ``h`` goes through the uniform midpoint rule on the
    operator's grid, every coefficient of a product read off one inverse
    FFT, spectrally accurate for smooth integrands; the
    relevant frequencies must stay well below the grid size.  A system the
    identity does not cover, or a grid too coarse for its frequencies, is a
    :class:`DomainError`.
    """
    if not op.system.is_doubling():
        raise DomainError("system is not the doubling map")
    freqs = np.arange(-n_max, n_max + 1)
    w = op.system.weight.trigpoly
    exact = isinstance(h, TrigPoly) and w is not None
    if not exact and (2 ** k_max) * n_max >= op.n_grid // 4:
        raise DomainError("grid too coarse for the requested frequencies")
    if any(abs(p - 0.5) > PROB_SUM_TOL for p in op.system.probs):
        raise DomainError("cascade identity needs equal probabilities, got "
                          f"{list(op.system.probs)}")
    if exact:
        def factor(k: int) -> TrigPoly:
            return w.compose_affine(2 ** (k - 1), 0.0)

        def coeffs(g: TrigPoly, freq_scale: int) -> np.ndarray:
            return g.coefficients(-freq_scale * freqs)

        wk, hv = TrigPoly.constant(1.0), h
    else:
        n = op.n_grid
        mids = (np.arange(n) + 0.5) / n

        def factor(k: int) -> np.ndarray:
            return np.asarray(op.system.weight((2 ** (k - 1) * mids) % 1.0),
                              dtype=float)

        def coeffs(values: np.ndarray, freq_scale: int) -> np.ndarray:
            # sum_j e(q (j + 1/2) / n) values_j / n, read off one inverse
            # DFT at index q mod n and turned by the half-cell phase e(q/2n)
            q = freq_scale * freqs
            return np.fft.ifft(values)[q % n] * np.exp(1j * np.pi * q / n)

        wk, hv = np.ones(n), np.asarray(h(mids), dtype=float)

    base = coeffs(hv, 1)
    deviation = 0.0
    for k in range(0, k_max + 1):
        if k > 0:
            wk = wk * factor(k)
        cascade = coeffs(wk * hv, 2 ** k) / rho ** k
        deviation = max(deviation, float(np.max(np.abs(base - cascade))))
    return deviation
