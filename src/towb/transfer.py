"""The weighted transfer operator, its adjoint, and the identity suite.

For a system with branches ``tau_i``, probabilities ``p_i`` and weight ``W``,
the operator acts on functions by

    (R f)(x) = sum_i p_i W(tau_i x) f(tau_i x)

and its adjoint in ``L^2(lam)`` (for ``lam`` whose pushed measure has density
``W``) is the weighted composition ``(S f)(x) = W(x) f(sigma(x))``.

:func:`identity_suite` replays the web of identities tying ``R``, ``S``,
``sigma`` and ``W`` together on randomized trigonometric test functions.
The checks marked as integral identities presuppose that ``W`` really is the
density of ``lam . R`` against ``lam`` (true when ``lam`` is the invariant
measure of the branch system); on other measures they report honest failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import (GridFunction, IntervalSet, Measure, integrate,
                   integrate_over, pushforward, wrap_unit)
from .sigspace import Decomposition, lebesgue_decompose
from .system import IfsSystem
from .trig import TrigPoly

IDENTITY_TOL = 1e-8
# Trials evaluated together in the identity suite: large enough that the
# per-call overhead vanishes, small enough to keep the batched value arrays
# at a few MB.
_TRIAL_BLOCK = 25


def _broadcast_to_trials(a: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``a`` with a length-1 axis appended when ``vals`` has an extra
    trailing trials axis."""
    return a[..., None] if vals.ndim > a.ndim else a


@dataclass(frozen=True)
class ConditionalKernel:
    """Atomic transition kernel at a base point: the branch images of ``x``
    weighted by ``p_i W(tau_i x)``."""

    base: float
    points: np.ndarray
    masses: np.ndarray

    def expectation(self, f) -> float:
        vals = np.asarray(f(self.points), dtype=float)
        return float((self.masses * vals).sum(axis=0))

    def total(self) -> float:
        return float(self.masses.sum())


class TransferOperator:
    """Weighted transfer operator of an :class:`IfsSystem` on an ``N``-cell
    grid.  Pure and immutable; safe to share across threads."""

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

    def kernel(self, x: float) -> ConditionalKernel:
        pts = self.branch_points(float(x))
        w = np.asarray(self.system.weight(pts), dtype=float)
        masses = np.array(self.system.probs) * w
        return ConditionalKernel(float(x), pts, masses)

    def apply_fn(self, f):
        """``R f`` as a vectorized callable.

        Shares its arithmetic path with :meth:`kernel`: masses
        ``p_i * W(tau_i x)`` are formed first, multiplied by the sample
        values, and summed over branches, so the two agree bit for bit.
        When ``f`` returns values with a trailing trials axis, the masses
        broadcast over it.
        """
        probs = np.array(self.system.probs)
        weight = self.system.weight

        def rf(x):
            pts = self.branch_points(x)
            w = np.asarray(weight(pts), dtype=float)
            masses = probs.reshape((-1,) + (1,) * (pts.ndim - 1)) * w
            vals = np.asarray(f(pts), dtype=float)
            return (_broadcast_to_trials(masses, vals) * vals).sum(axis=0)

        return rf

    def apply(self, f) -> GridFunction:
        """``R f`` sampled on the grid nodes."""
        return GridFunction(np.asarray(self.apply_fn(f)(self.nodes), dtype=float))

    def apply_symbolic(self, f: TrigPoly) -> TrigPoly | None:
        """``R f`` as an exact trig polynomial, when representable.

        Requires a closed-form weight and non-wrapping branches; returns
        ``None`` otherwise.
        """
        w = self.system.weight.as_trigpoly()
        if w is None or any(br.mod_one for br in self.system.branches):
            return None
        acc: TrigPoly | None = None
        for br, p in zip(self.system.branches, self.system.probs):
            term = (w * f).compose_affine(br.slope, br.offset) * p
            acc = term if acc is None else acc + term
        return acc

    def adjoint_fn(self, f):
        """``S f = W * (f o sigma)`` as a callable; ``W`` broadcasts over a
        trailing trials axis of the values of ``f``."""
        weight, sigma = self.system.weight, self.system.sigma

        def sf(x):
            vals = np.asarray(f(sigma(x)), dtype=float)
            return _broadcast_to_trials(np.asarray(weight(x)), vals) * vals

        return sf

    def adjoint(self, f) -> GridFunction:
        return GridFunction(np.asarray(self.adjoint_fn(f)(self.nodes), dtype=float))

    # -- measure action -------------------------------------------------

    def push_measure(self, lam: Measure) -> Measure:
        """The measure ``lam . R``: branch pushforwards reweighted by ``W``.

        Cell masses pick up the weight at the image cell midpoint (the same
        point quadrature uses); atoms pick it up exactly.
        """
        acc = None
        for br, p in zip(self.system.branches, self.system.probs):
            part = pushforward(lam, br).scaled(p)
            acc = part if acc is None else acc + part
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

    def rw_multiplier_symbolic(self) -> TrigPoly | None:
        w = self.system.weight.as_trigpoly()
        return self.apply_symbolic(w) if w is not None else None

    def is_adjoint_isometry(self, tol: float = 1e-10) -> bool:
        """Whether ``S`` is an isometry, i.e. ``R(W) = 1`` identically."""
        rw = self.rw_multiplier()
        mids = (np.arange(self.n_grid) + 0.5) / self.n_grid
        vals = np.concatenate([rw.values, np.asarray(self.apply_fn(
            self.system.weight)(mids), dtype=float)])
        return bool(np.max(np.abs(vals - 1.0)) <= tol)


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

    @property
    def all_pass(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

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


def _status(residual: float, tol: float) -> str:
    return "PASS" if residual < tol else "FAIL"


def _compose_sigma(op: TransferOperator, f: TrigPoly):
    """``f o sigma`` symbolically when possible, else numerically."""
    sym = op.system.sigma.compose_trig(f)
    if sym is not None:
        return sym
    sigma = op.system.sigma
    return lambda x: f(sigma(x))


def _random_intervals(rng: np.random.Generator) -> IntervalSet:
    k = int(rng.integers(1, 3))
    pairs = []
    for _ in range(k):
        lo = rng.uniform(0.0, 0.8)
        hi = lo + rng.uniform(0.05, min(0.5, 1.0 - lo))
        pairs.append((lo, hi))
    return IntervalSet(pairs)


def identity_suite(op: TransferOperator, lam: Measure, h: GridFunction,
                   trials: int = 100, seed: int = 0,
                   tol: float = IDENTITY_TOL) -> IdentitySuiteResult:
    """Run the seven-part identity battery for ``(R, S, sigma, W, lam, h)``.

    Random test functions are trig polynomials of degree <= 8 with
    coefficients in ``[-1, 1]``, evaluated in closed form so residuals are
    limited by rounding, not quadrature.  They are evaluated as batches of
    up to ``_TRIAL_BLOCK`` trials along a trailing axis; the draws are the
    ones ``trials`` single ``TrigPoly.random`` calls would make.  The
    preimage rule is skipped without a closed-form weight; the
    harmonic-support check is gated on its hypothesis ``sup R(W) <= 1``.
    """
    if trials < 1:
        raise DomainError("the identity suite needs at least one trial")
    rng = np.random.default_rng(seed)
    nodes = op.nodes
    mids = (np.arange(op.n_grid) + 0.5) / op.n_grid
    weight = op.system.weight
    sigma = op.system.sigma

    all_fs = TrigPoly.random(rng, trials=trials)
    all_gs = TrigPoly.random(rng, trials=trials)
    regions = [_random_intervals(rng) for _ in range(trials)]
    blocks = [slice(i, i + _TRIAL_BLOCK)
              for i in range(0, trials, _TRIAL_BLOCK)]
    fs = [all_fs.take_trials(b) for b in blocks]
    gs = [all_gs.take_trials(b) for b in blocks]

    checks: list[IdentityCheck] = []

    # (a) pull-back property: R((f o sigma) g) = f R(g), pointwise
    resid = 0.0
    for f, g in zip(fs, gs):
        f_sig = _compose_sigma(op, f)
        lhs = op.apply_fn(lambda y, f_sig=f_sig, g=g:
                          np.asarray(f_sig(y)) * np.asarray(g(y)))(nodes)
        rhs = np.asarray(f(nodes)) * op.apply_fn(g)(nodes)
        resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    checks.append(IdentityCheck("pullback_product", _status(resid, tol),
                                resid, tol))

    # (b) duality: int W (f o sigma) g dlam = int f R(g) dlam
    resid = 0.0
    w_tp = weight.as_trigpoly()
    for f, g in zip(fs, gs):
        f_sig = _compose_sigma(op, f)
        rg = op.apply_symbolic(g)
        if w_tp is not None and isinstance(f_sig, TrigPoly) and rg is not None:
            lhs = integrate(w_tp * f_sig * g, lam)
            rhs = integrate(f * rg, lam)
        else:
            lhs = integrate(lambda y: np.asarray(weight(y))[..., None] *
                            np.asarray(f_sig(y)) * np.asarray(g(y)), lam)
            rhs = integrate(lambda y, g=g: np.asarray(f(y)) *
                            np.asarray(op.apply_fn(g)(y)), lam)
        resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    checks.append(IdentityCheck("adjoint_duality", _status(resid, tol),
                                resid, tol))

    # (c) R R* f = R(W) f
    resid = 0.0
    rw_fn = op.apply_fn(weight)
    rw_nodes = np.asarray(rw_fn(nodes), dtype=float)
    for f in fs:
        sf = op.adjoint_fn(f)
        lhs = op.apply_fn(sf)(nodes)
        rhs = rw_nodes[:, None] * np.asarray(f(nodes))
        resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    checks.append(IdentityCheck("composition_multiplier", _status(resid, tol),
                                resid, tol))

    # (d) sigma-invariance: int f o sigma dlam = int f dlam.  This is also the
    # pull-back density identity int f o sigma dlam = int R(1/W) f dlam,
    # since R(1/W) = sum_i p_i W (1/W) = sum_i p_i = 1
    resid = 0.0
    for f in fs:
        f_sig = _compose_sigma(op, f)
        diff = integrate(f_sig, lam) - integrate(f, lam)
        resid = max(resid, float(np.max(np.abs(diff))))
    checks.append(IdentityCheck("sigma_invariance", _status(resid, tol),
                                resid, tol))

    # (e) preimage weight-square rule: int_{sigma^-1 E} W^2 dlam = int_E R(W) dlam
    rw_sym = op.rw_multiplier_symbolic()
    if w_tp is None or rw_sym is None:
        checks.append(IdentityCheck("preimage_weight_square", "SKIPPED",
                                    np.nan, tol,
                                    note="needs a closed-form weight"))
    else:
        w_sq = w_tp * w_tp
        resid = 0.0
        for region in regions:
            lhs = integrate_over(w_sq, lam, sigma.preimage(region))
            rhs = integrate_over(rw_sym, lam, region)
            resid = max(resid, abs(lhs - rhs))
        checks.append(IdentityCheck("preimage_weight_square",
                                    _status(resid, tol), resid, tol))

    # (f) harmonic support multiplier: where h != 0, R(W) = 1 -- only under
    # the contractivity hypothesis sup R(W) <= 1
    rw_vals = np.concatenate([rw_nodes, np.asarray(rw_fn(mids), dtype=float)])
    sup_rw = float(np.max(rw_vals))
    if sup_rw > 1.0 + 1e-9:
        checks.append(IdentityCheck(
            "harmonic_support_multiplier", "SKIPPED", np.nan, tol,
            note=f"hypothesis sup R(W) <= 1 fails (sup = {sup_rw:.6g})"))
    else:
        hv = h.resample(op.n_grid).values
        active = np.abs(hv) > 1e-10
        resid = float(np.max(np.abs(rw_nodes[active] - 1.0))) \
            if np.any(active) else 0.0
        checks.append(IdentityCheck("harmonic_support_multiplier",
                                    _status(resid, tol), resid, tol))

    # (g) kernel sup bound: |R(f h)(x)| <= sup|f| * h(x)
    h_on_grid = h.resample(op.n_grid)
    branch_nodes = op.branch_points(nodes).ravel()
    h_nodes = np.asarray(h_on_grid(nodes))
    resid = 0.0
    for f in fs:
        sup_f = np.max(np.abs(np.concatenate(
            [np.asarray(f(branch_nodes)), np.asarray(f(nodes))])), axis=0)
        rfh = op.apply_fn(lambda y, f=f: np.asarray(f(y)) *
                          np.asarray(h_on_grid(y))[..., None])(nodes)
        excess = np.abs(rfh) - sup_f * h_nodes[:, None]
        resid = max(resid, float(np.max(excess)))
    checks.append(IdentityCheck("kernel_sup_bound", _status(resid, tol),
                                resid, tol))

    return IdentitySuiteResult(tuple(checks))
