import os

import numpy as np
import pytest

import towb
from towb import GridFunction, Measure, TransferOperator
from towb.config import load_config
from towb.errors import ConvergenceError, DomainError
from towb.grid import _grid_stencil, integrate
from towb.harmonic import _NEGATIVITY_FLOOR, HarmonicSolution
from towb.system import (PiecewiseAffineMap, WeightExpr, doubling_system,
                         make_system)

FIXTURE_DIR = os.path.join(os.path.dirname(towb.__file__), "fixtures")


def _solve_harmonic_per_step(op, lam, tol=1e-12, max_iter=2000, seed=0):
    """The power iteration with a GridFunction per step, through
    ``op.apply`` and ``integrate``: the oracle the array solve must equal
    bit for bit."""
    rng = np.random.default_rng(seed)
    h = GridFunction(rng.uniform(0.5, 1.5, op.n_grid))
    h = h * (1.0 / integrate(h, lam))
    rho = np.nan
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
        if step < tol:
            h = h * (1.0 / integrate(h, lam))
            residual = float(np.max(np.abs(
                op.apply(h).values - rho * h.values)))
            return HarmonicSolution(h, float(rho), residual, it, True)
    h = h * (1.0 / integrate(h, lam))
    residual = float(np.max(np.abs(op.apply(h).values - rho * h.values)))
    return HarmonicSolution(h, float(rho), residual, max_iter, False)


def _oracle_case(name):
    """An operator and a base measure for the bitwise oracle test."""
    if name.startswith("sys_"):
        cfg = load_config(os.path.join(FIXTURE_DIR, f"{name}.cfg"))
        return TransferOperator(cfg.build_system(), cfg.cells), \
            cfg.build_measure()
    if name == "table_weight":
        table = GridFunction.from_callable(
            lambda x: 1.5 + 0.2 * np.sin(2 * np.pi * x), 256)
        system = make_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5],
                             WeightExpr.from_table(table), sigma=2)
        return TransferOperator(system, 256), Measure.lebesgue(256)
    if name == "wrapping":
        # the second branch x/2 + 0.75 wraps past 1; sigma is 2x - 1/2 mod 1
        sigma = PiecewiseAffineMap([(0.0, 0.25, 2.0, 0.5),
                                    (0.25, 0.75, 2.0, -0.5),
                                    (0.75, 1.0, 2.0, -1.5)])
        system = make_system([0.5, 0.5], [0.25, 0.75], [0.5, 0.5],
                             WeightExpr.trig(1.0, [0.3], [0.2]), sigma=sigma,
                             mod_one=True)
        return TransferOperator(system, 256), Measure.lebesgue(256)
    if name == "atoms":
        lam = Measure(np.full(128, 0.5 / 128), [(0.1, 0.2), (0.999, 0.3)])
        return TransferOperator(towb.sys_b(128), 128), lam
    if name == "other_grid":
        # lam on a coarser grid than h: the iterates are resampled to it
        return TransferOperator(towb.sys_b(256), 256), Measure.lebesgue(96)
    raise KeyError(name)


def _assert_same_solution(a, b):
    assert np.array_equal(a.h.values, b.h.values)
    assert a.rho == b.rho
    assert a.residual == b.residual
    assert a.iterations == b.iterations
    assert a.converged == b.converged


class TestArraySolveMatchesPerStepLoop:
    @pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c", "sys_d",
                                      "table_weight", "wrapping", "atoms",
                                      "other_grid"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_bitwise(self, name, seed):
        op, lam = _oracle_case(name)
        _assert_same_solution(towb.solve_harmonic(op, lam, seed=seed),
                              _solve_harmonic_per_step(op, lam, seed=seed))

    def test_unconverged(self, op_b, lam_std):
        sol = towb.solve_harmonic(op_b, lam_std, max_iter=3)
        assert not sol.converged and sol.iterations == 3
        _assert_same_solution(sol, _solve_harmonic_per_step(op_b, lam_std,
                                                            max_iter=3))

    @pytest.mark.parametrize("weight, message", [
        (WeightExpr.trig(1.0, [2.0]), "went negative"),
        (WeightExpr.constant(0.0), "collapsed to zero mass")])
    def test_convergence_errors(self, weight, message):
        # unvalidated weights: one negative on part of the circle, one zero
        op = TransferOperator(doubling_system(weight, validate=False), 128)
        lam = Measure.lebesgue(128)
        with pytest.raises(ConvergenceError, match=message) as fast:
            towb.solve_harmonic(op, lam)
        with pytest.raises(ConvergenceError) as slow:
            _solve_harmonic_per_step(op, lam)
        assert str(fast.value) == str(slow.value)

    def test_work_per_solve_does_not_grow_with_iterations(self,
                                                           monkeypatch):
        # every stencil of a solve is built before its first step, and the
        # only grid function built is the returned h: the 48-iteration
        # sys_b solve builds as many of each as a 1-iteration one
        stencil, init = GridFunction.stencil, GridFunction.__init__
        stencils, grid_functions = [], []

        def counting_stencil(n_cells, x):
            stencils.append(np.size(x))
            return stencil(n_cells, x)

        def counting_init(self, values):
            grid_functions.append(np.size(values))
            init(self, values)

        monkeypatch.setattr(GridFunction, "stencil",
                            staticmethod(counting_stencil))
        monkeypatch.setattr(GridFunction, "__init__", counting_init)
        counts = []
        for max_iter in (1, 2000):
            _grid_stencil.cache_clear()
            stencils.clear()
            grid_functions.clear()
            op = TransferOperator(towb.sys_b(1024), 1024)
            sol = towb.solve_harmonic(op, Measure.lebesgue(1024),
                                      max_iter=max_iter)
            counts.append((len(stencils), len(grid_functions)))
        assert sol.iterations == 48
        assert counts[0] == counts[1] == (2, 1)


class TestSolveHarmonic:
    def test_sys_a_constant_solution(self, op_a, lam_std, sol_a):
        assert sol_a.converged
        assert sol_a.rho == pytest.approx(1.0, abs=1e-12)
        assert sol_a.residual < 1e-12
        assert np.max(np.abs(sol_a.h.values - 1.0)) < 1e-10

    def test_sys_b_unit_eigenvalue(self, op_b, lam_std, sol_b):
        assert sol_b.converged
        assert sol_b.rho == pytest.approx(1.0, abs=1e-10)
        res = np.max(np.abs(op_b.apply(sol_b.h).values - sol_b.h.values))
        assert res < 1e-10

    def test_doubled_weight_doubles_eigenvalue(self, lam_std):
        op = TransferOperator(doubling_system(WeightExpr.constant(2.0), 1024),
                              1024)
        sol = towb.solve_harmonic(op, lam_std)
        assert sol.rho == pytest.approx(2.0, abs=1e-10)
        renorm = towb.normalize_weight(op, sol)
        sol2 = towb.solve_harmonic(TransferOperator(renorm, 1024), lam_std)
        assert sol2.rho == pytest.approx(1.0, abs=1e-10)

    def test_half_weight_normalizes(self, lam_std):
        op = TransferOperator(doubling_system(WeightExpr.constant(0.5), 1024),
                              1024)
        renorm = towb.normalize_weight(op, towb.solve_harmonic(op, lam_std))
        assert renorm.weight(0.3) == pytest.approx(1.0, abs=1e-10)

    def test_normalize_sys_b_is_noop(self, op_b, lam_std, sol_b):
        renorm = towb.normalize_weight(op_b, sol_b)
        xs = np.linspace(0, 1, 11, endpoint=False)
        assert np.allclose(renorm.weight(xs), op_b.system.weight(xs),
                           atol=1e-9)

    def test_scale_invariant_in_start(self, op_b, lam_std):
        # L1 normalization each step forgets the start's scale; different
        # seeds land on the same fixed function
        a = towb.solve_harmonic(op_b, lam_std, seed=1)
        b = towb.solve_harmonic(op_b, lam_std, seed=99)
        assert np.max(np.abs(a.h.values - b.h.values)) < 1e-9

    def test_rejects_bad_tol(self, op_a, lam_std):
        with pytest.raises(DomainError):
            towb.solve_harmonic(op_a, lam_std, tol=0.0)

    def test_nonconvergence_flagged(self, op_b, lam_std):
        sol = towb.solve_harmonic(op_b, lam_std, tol=1e-16, max_iter=3)
        assert not sol.converged
        assert np.isfinite(sol.residual)

    def test_kernel_bound_for_solved_h(self, op_b, lam_std, sol_b):
        # |R(f h)| <= sup|f| h pointwise, for the converged h
        from towb.trig import TrigPoly
        rng = np.random.default_rng(0)
        nodes = op_b.nodes
        pts = op_b.branch_points(nodes).ravel()
        for _ in range(100):
            f = TrigPoly.random(rng, degree=6)
            sup_f = float(np.max(np.abs(f(pts))))
            rfh = op_b.apply_fn(lambda y, f=f: f(y) * sol_b.h(y))(nodes)
            excess = np.abs(rfh) - sup_f * sol_b.h(nodes)
            assert float(np.max(excess)) < 1e-8


class TestFourierCascade:
    def test_sys_b_products_stay_normalized(self, lam_std):
        n = 4096
        op = TransferOperator(towb.sys_b(n), n)
        sol = towb.solve_harmonic(op, Measure.lebesgue(n))
        dev = towb.fourier_cascade_check(op, sol.h, k_max=4, n_max=8)
        assert dev < 1e-6
        # the weight's partial products all integrate to one
        mids = (np.arange(n) + 0.5) / n
        wk = np.ones(n)
        for k in range(1, 5):
            wk = wk * np.asarray(op.system.weight((2 ** (k - 1) * mids) % 1))
            assert float(wk.mean()) == pytest.approx(1.0, abs=1e-12)

    def test_sys_a_trivial(self, op_a, sol_a):
        assert towb.fourier_cascade_check(op_a, sol_a.h, 4, 8) < 1e-10

    def test_first_frequency_pair_vanishes(self, lam_std):
        # for the cosine weight, h^(1) = 0 and (W_1 h)^(2) = W^(2) = 0
        n = 2048
        op = TransferOperator(towb.sys_b(n), n)
        mids = (np.arange(n) + 0.5) / n
        w = np.asarray(op.system.weight(mids))
        coeff = np.exp(2j * np.pi * 2 * mids) @ w / n
        assert abs(coeff) < 1e-12

    def test_rejects_non_doubling(self, op_d):
        h = GridFunction.constant(1.0, op_d.n_grid)
        with pytest.raises(DomainError):
            towb.fourier_cascade_check(op_d, h, 2, 2)
