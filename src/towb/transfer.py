"""The weighted transfer operator, its adjoint, and the identity suite.

For a system with branches ``tau_i``, probabilities ``p_i`` and weight ``W``,
the operator acts on functions by

    (R f)(x) = sum_i p_i W(tau_i x) f(tau_i x)

and its adjoint in ``L^2(lam)`` (for ``lam`` whose pushed measure has density
``W``) is the weighted composition ``(S f)(x) = W(x) f(sigma(x))``.  The
kernel at ``x`` is the branch images :meth:`TransferOperator.branch_points`
carrying the masses ``p_i W(tau_i x)``, which are formed in one place,
:meth:`TransferOperator.branch_masses`, and summed in one, :func:`kernel_sum`,
for the pointwise action, the path-space kernel of :mod:`towb.solenoid` and
:attr:`TransferOperator.node_kernel`, the kernel at the nodes, built once per
operator and read by ``apply`` and :func:`identity_suite`; the measure action
``lam . R`` is the branch mixture :func:`~towb.grid.push_mixture` reweighted
by ``W``.  The exact multiplier ``R(W)`` is
:meth:`TransferOperator.apply_symbolic` of the weight.

:func:`identity_suite` replays the web of identities tying ``R``, ``S``,
``sigma`` and ``W`` together on randomized trigonometric test functions;
its check (f) is the isometry ``R(W) = 1`` of ``S`` on the support of ``h``.
The checks marked as integral identities presuppose that ``W`` really is the
density of ``lam . R`` against ``lam`` (true when ``lam`` is the invariant
measure of the branch system); on other measures they report honest failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError
from .grid import (GridFunction, IntervalSet, Measure, integrate,
                   integrate_over, push_mixture, wrap_unit)
from .sigspace import Decomposition, lebesgue_decompose
from .system import IfsSystem
from .trig import _PRUNE, TRIAL_BLOCK, TrigPoly, trials_product

IDENTITY_TOL = 1e-8


def kernel_sum(masses: np.ndarray, vals) -> np.ndarray:
    """``R`` from values at branch images: the masses multiplied by the
    values and summed over branches, the one sum of ``R``.  When ``vals``
    has a trailing trials axis, the masses broadcast over it."""
    return trials_product(masses, np.asarray(vals, dtype=float)).sum(axis=0)


class TransferOperator:
    """Weighted transfer operator of an :class:`IfsSystem` on an ``N``-cell
    grid.  Pure and immutable; safe to share across threads.  The kernel at
    the nodes, :attr:`node_kernel`, is built on first use and then shared."""

    def __init__(self, system: IfsSystem, n_grid: int):
        if n_grid < 2:
            raise DomainError("transfer operator needs a grid of size >= 2")
        self.system = system
        self.n_grid = int(n_grid)
        self.nodes = np.arange(self.n_grid) / self.n_grid
        self.nodes.setflags(write=False)

    # -- kernel and function action ------------------------------------

    def branch_points(self, x) -> np.ndarray:
        """Branch images ``tau_i(x)``, stacked along the first axis."""
        xs = np.asarray(x, dtype=float)
        return np.stack([wrap_unit(br(xs)) for br in self.system.branches])

    def branch_masses(self, pts: np.ndarray) -> np.ndarray:
        """Kernel masses ``p_i W(y)`` at branch images ``pts`` stacked as
        :meth:`branch_points` stacks them: the one product order of ``R``."""
        probs = np.array(self.system.probs)
        return probs.reshape((-1,) + (1,) * (pts.ndim - 1)) * np.asarray(
            self.system.weight(pts), dtype=float)

    @cached_property
    def node_kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """The kernel at the nodes, built on first use: the branch images
        ``tau_i(x_j)``, shape ``(branches, N)``, and their masses
        ``p_i W(tau_i x_j)``."""
        pts = self.branch_points(self.nodes)
        pts.setflags(write=False)   # apply hands it to any callable
        return pts, self.branch_masses(pts)

    def apply_fn(self, f):
        """``R f`` as a vectorized callable: ``f`` at the branch images of
        the points, summed with their :meth:`branch_masses`."""

        def rf(x):
            pts = self.branch_points(x)
            return kernel_sum(self.branch_masses(pts), f(pts))

        return rf

    def apply(self, f) -> GridFunction:
        """``R f`` sampled on the grid nodes: ``f`` at the images of
        :attr:`node_kernel`, summed with their masses."""
        pts, masses = self.node_kernel
        return GridFunction(kernel_sum(masses, f(pts)))

    def apply_symbolic(self, f: TrigPoly) -> TrigPoly | None:
        """``R f`` as an exact trig polynomial, when representable.

        Requires a closed-form weight and non-wrapping branches; returns
        ``None`` otherwise.
        """
        w = self.system.weight.trigpoly
        if w is None or any(br.mod_one for br in self.system.branches):
            return None
        wf = w * f
        terms = [wf.compose_affine(br.slope, br.offset) * p
                 for br, p in zip(self.system.branches, self.system.probs)]
        return sum(terms[1:], terms[0])

    def transition_matrix(self) -> np.ndarray | None:
        """``R`` on the trig polynomials of degree ``<= D`` as a matrix when
        :meth:`apply_symbolic` maps that space into itself, else ``None``.

        ``D`` is the least integer with ``s (d + D) <= D``, ``s`` the largest
        branch slope in size and ``d`` the weight's degree, so the columns
        ``R e_k``, ``|k| <= D``, batched ``TRIAL_BLOCK`` at a time, have
        frequencies in ``-D..D``.  The space is invariant when every one
        with a coefficient above ``_PRUNE (1 + d + D)`` times the largest of
        all columns is an integer: a column that cancels leaves rounding
        noise at fractional frequencies, up to ``|f|`` ulps from the phases
        ``e(f b)``.  ``D > N/2``, past what the nodes resolve, is left to
        power iteration.  On the full branch set of ``m x mod 1`` with equal
        ``p_i`` this is Lawton's (1991) transition operator.  A strictly
        positive eigenvector of the positive ``R`` gives its spectral
        radius, so a positive ``h`` here certifies ``rho``; the peripheral
        test and ``|lambda_2| / rho`` only see the invariant space.
        """
        w = self.system.weight.trigpoly
        if w is None:
            return None
        slope = max(abs(br.slope) for br in self.system.branches)
        top = next((t for t in range(self.n_grid // 2 + 1)
                    if slope * (w.max_freq + t) <= t), None)
        if top is None:
            return None
        freqs = np.arange(-top, top + 1)
        blocks = np.split(freqs, range(TRIAL_BLOCK, freqs.size, TRIAL_BLOCK))
        images = [self.apply_symbolic(TrigPoly._from_arrays(
            b.astype(float), np.eye(b.size, dtype=complex))) for b in blocks]
        if images[0] is None:
            return None
        floor = _PRUNE * (1 + w.max_freq + top) * max(
            np.abs(im.coefs).max() for im in images)
        live = np.concatenate([im.freqs[(np.abs(im.coefs) > floor).any(axis=1)]
                               for im in images])
        return (np.hstack([im.coefficients(freqs) for im in images])
                if np.all(live == np.round(live)) else None)

    def adjoint_fn(self, f):
        """``S f = W * (f o sigma)`` as a callable; ``W`` broadcasts over a
        trailing trials axis of the values of ``f``."""
        weight, sigma = self.system.weight, self.system.sigma

        def sf(x):
            return trials_product(np.asarray(weight(x)),
                                  np.asarray(f(sigma(x)), dtype=float))

        return sf

    def adjoint(self, f) -> GridFunction:
        return GridFunction(np.asarray(self.adjoint_fn(f)(self.nodes), dtype=float))

    # -- measure action -------------------------------------------------

    def push_measure(self, lam: Measure) -> Measure:
        """The measure ``lam . R``: the branch mixture
        :func:`~towb.grid.push_mixture` reweighted by ``W``.

        Cell masses pick up the weight at the image cell midpoint (the same
        point quadrature uses); atoms pick it up exactly.
        """
        acc = push_mixture(lam, self.system.branches, self.system.probs)
        w_mid = np.asarray(self.system.weight(acc.cell_midpoints()), dtype=float)
        cells = acc.cell_masses * w_mid
        atoms = [(pos, mass * float(self.system.weight(pos)))
                 for pos, mass in acc.atoms]
        return Measure(cells, atoms)

    def rn_derivative(self, lam: Measure) -> Decomposition:
        """Density and singular part of ``lam . R`` against ``lam``."""
        if lam.total() <= 0:
            raise DomainError("base measure must have positive mass")
        return lebesgue_decompose(self.push_measure(lam), lam)

    # -- derived objects --------------------------------------------------

    def rw_multiplier(self) -> GridFunction:
        """``R(W)``, the multiplier implementing ``R R*``."""
        return self.apply(self.system.weight)


# -- identity suite -------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    status: str  # PASS | FAIL | SKIPPED
    residual: float
    tol: float
    note: str = ""


@dataclass(frozen=True)
class IdentitySuiteResult:
    checks: tuple[IdentityCheck, ...]

    def by_name(self, name: str) -> IdentityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def counts(self) -> dict[str, int]:
        out = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
        for c in self.checks:
            out[c.status] += 1
        return out


def check_status(residual: float, tol: float) -> str:
    """The PASS rule of every toleranced check: PASS when ``residual < tol``,
    FAIL otherwise (``nan`` included)."""
    return "PASS" if residual < tol else "FAIL"


def _integrate_composed(op: TransferOperator, f: TrigPoly, lam: Measure,
                        factor: TrigPoly | None = None):
    """``int factor (f o sigma) dlam`` in closed form, piece by piece.

    Where ``sigma`` applies its piece ``x -> a x + b`` (from the piece's left
    end to the next piece's), ``f o sigma`` is ``f.compose_affine(a, b)``:
    ``f`` has integer frequencies, so the reduction mod 1 drops out.
    """
    pieces = op.system.sigma.pieces
    ends = [0.0] + [lo for lo, _, _, _ in pieces[1:]] + [1.0]
    total = 0.0
    for (_, _, a, b), lo, hi in zip(pieces, ends, ends[1:]):
        f_sig = f.compose_affine(a, b)
        total = total + integrate_over(
            f_sig if factor is None else factor * f_sig, lam,
            IntervalSet([(lo, hi)]))
    return total


def _random_intervals(rng: np.random.Generator) -> IntervalSet:
    k = int(rng.integers(1, 3))
    pairs = []
    for _ in range(k):
        lo = rng.uniform(0.0, 0.8)
        hi = lo + rng.uniform(0.05, min(0.5, 1.0 - lo))
        pairs.append((lo, hi))
    return IntervalSet(pairs)


def identity_suite(op: TransferOperator, lam: Measure, h: Callable,
                   trials: int = 100, seed: int = 0) -> IdentitySuiteResult:
    """Run the seven-part identity battery for ``(R, S, sigma, W, lam, h)``,
    each check against the tolerance ``IDENTITY_TOL``; ``h`` is any
    vectorized callable (a :class:`GridFunction`, a :class:`TrigPoly`).

    Random test functions are trig polynomials of degree <= 8 with
    coefficients in ``[-1, 1]``, evaluated in closed form so residuals are
    limited by rounding, not quadrature.  They are evaluated as batches of
    up to ``TRIAL_BLOCK`` trials along a trailing axis; the draws are the
    ones ``trials`` single ``TrigPoly.random`` calls would make.  The
    preimage rule is skipped without a closed-form weight; the
    harmonic-support check is gated on its hypothesis ``sup R(W) <= 1``.
    """
    if trials < 1:
        raise DomainError("the identity suite needs at least one trial")
    rng = np.random.default_rng(seed)
    mids = (np.arange(op.n_grid) + 0.5) / op.n_grid
    weight = op.system.weight
    sigma = op.system.sigma

    all_fs = TrigPoly.random(rng, trials=trials)
    all_gs = TrigPoly.random(rng, trials=trials)
    regions = [_random_intervals(rng) for _ in range(trials)]
    blocks = [slice(i, i + TRIAL_BLOCK)
              for i in range(0, trials, TRIAL_BLOCK)]
    fs = [all_fs.take_trials(b) for b in blocks]
    gs = [all_gs.take_trials(b) for b in blocks]

    checks: list[IdentityCheck] = []

    def judge(name: str, resid: float) -> None:
        checks.append(IdentityCheck(name, check_status(resid, IDENTITY_TOL),
                                    resid, IDENTITY_TOL))

    # (a) pull-back property: R((f o sigma) g) = f R(g), pointwise.  f o sigma
    # is evaluated as f(sigma(y)): at y = tau_i x that is f(x) up to rounding
    # (c) R R* f = R(W) f, which is (a) with g = W, as R* f = W (f o sigma)
    # (g) kernel sup bound: |R(f h)(x)| <= sup|f| * rho * h(x), with
    # rho = int R(h) dlam / int h dlam the eigenvalue of h (1 when R h = h).
    # Positivity of R bounds the left side by sup|f| * R(h)(x), so the check
    # fails when h is not an eigenfunction; sup|f| is over nodes and images.
    pts, masses = op.node_kernel
    pts_sigma = sigma(pts)
    w_pts = np.asarray(weight(pts), dtype=float)
    rw_nodes = kernel_sum(masses, w_pts)
    h_nodes = np.asarray(h(op.nodes), dtype=float)
    rho_h = integrate(op.apply(h), lam) / integrate(h, lam) * h_nodes[:, None]
    h_pts = np.asarray(h(pts), dtype=float)[..., None]

    def block_residuals(f, g) -> tuple[float, float, float]:
        # (a), (c) and (g) on one block, sampling f and g once per point
        # array: f o sigma and g go before f at the images, the rest on return
        f_nodes = np.asarray(f(op.nodes))
        f_sigma = np.asarray(f(pts_sigma))
        g_pts = np.asarray(g(pts))
        lhs = kernel_sum(masses, f_sigma * g_pts)
        a = float(np.max(np.abs(lhs - f_nodes * kernel_sum(masses, g_pts))))
        lhs = kernel_sum(masses, w_pts[..., None] * f_sigma)
        c = float(np.max(np.abs(lhs - rw_nodes[:, None] * f_nodes)))
        del f_sigma, g_pts
        f_pts = np.asarray(f(pts))
        sup_f = np.maximum(np.abs(f_pts).max(axis=(0, 1)),
                           np.abs(f_nodes).max(axis=0))
        excess = np.abs(kernel_sum(masses, f_pts * h_pts)) - sup_f * rho_h
        return a, c, float(np.max(excess))

    residuals = [block_residuals(f, g) for f, g in zip(fs, gs)]
    resid_a, resid_c, resid_g = (max(0.0, *r) for r in zip(*residuals))
    judge("pullback_product", resid_a)

    # (b) duality: int W (f o sigma) g dlam = int f R(g) dlam
    resid = 0.0
    w_tp = weight.trigpoly
    for f, g in zip(fs, gs):
        rg = op.apply_symbolic(g)
        if rg is not None:
            lhs = _integrate_composed(op, f, lam, w_tp * g)
            rhs = integrate(f * rg, lam)
        else:
            lhs = integrate(lambda y: np.asarray(weight(y))[..., None] *
                            np.asarray(f(sigma(y))) * np.asarray(g(y)), lam)
            rhs = integrate(lambda y, g=g: np.asarray(f(y)) *
                            np.asarray(op.apply_fn(g)(y)), lam)
        resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    judge("adjoint_duality", resid)
    judge("composition_multiplier", resid_c)

    # (d) sigma-invariance: int f o sigma dlam = int f dlam.  This is also the
    # pull-back density identity int f o sigma dlam = int R(1/W) f dlam,
    # since R(1/W) = sum_i p_i W (1/W) = sum_i p_i = 1
    resid = 0.0
    for f in fs:
        diff = _integrate_composed(op, f, lam) - integrate(f, lam)
        resid = max(resid, float(np.max(np.abs(diff))))
    judge("sigma_invariance", resid)

    # (e) preimage weight-square rule: int_{sigma^-1 E} W^2 dlam = int_E R(W) dlam
    # (apply_symbolic gives None whenever w_tp is None: no closed-form weight)
    rw_sym = op.apply_symbolic(w_tp)
    if rw_sym is None:
        checks.append(IdentityCheck("preimage_weight_square", "SKIPPED",
                                    np.nan, IDENTITY_TOL,
                                    note="needs a closed-form weight"))
    else:
        w_sq = w_tp * w_tp
        resid = 0.0
        for region in regions:
            lhs = integrate_over(w_sq, lam, sigma.preimage(region))
            rhs = integrate_over(rw_sym, lam, region)
            resid = max(resid, abs(lhs - rhs))
        judge("preimage_weight_square", resid)

    # (f) harmonic support multiplier: where h != 0, R(W) = 1 -- only under
    # the contractivity hypothesis sup R(W) <= 1
    sup_rw = float(np.max(np.concatenate([rw_nodes, op.apply_fn(weight)(mids)])))
    if sup_rw > 1.0 + 1e-9:
        checks.append(IdentityCheck(
            "harmonic_support_multiplier", "SKIPPED", np.nan, IDENTITY_TOL,
            note=f"hypothesis sup R(W) <= 1 fails (sup = {sup_rw:.6g})"))
    else:
        active = np.abs(h_nodes) > 1e-10
        resid = float(np.max(np.abs(rw_nodes[active] - 1.0))) \
            if np.any(active) else 0.0
        judge("harmonic_support_multiplier", resid)
    judge("kernel_sup_bound", resid_g)

    return IdentitySuiteResult(tuple(checks))
