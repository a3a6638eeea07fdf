import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import towb
from towb import GridFunction, Measure, TransferOperator
from towb.config import load_config
from towb.errors import ConvergenceError, DomainError
from towb.grid import integrate
from towb.harmonic import _NEGATIVITY_FLOOR, HarmonicSolution, power_iteration
from towb.solenoid import PathMeasure, harmonic_from_measure
from towb.system import (PiecewiseAffineMap, WeightExpr, doubling_system,
                         make_system)
from towb.transfer import MATRIX_DEGREE_MAX

FIXTURE_DIR = os.path.join(os.path.dirname(towb.__file__), "fixtures")


def _solve_harmonic_per_step(op, lam, tol=1e-12, max_iter=2000, seed=0):
    """The power iteration with a GridFunction per step, through
    ``op.apply`` and ``integrate``, that stops at the first step below
    ``tol`` whose normalized iterate has a residual below ``tol``: the
    oracle the solve must equal bit for bit."""
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
        if step < tol or it == max_iter:
            out = h * (1.0 / integrate(h, lam))
            residual = float(np.max(np.abs(op.apply(out).values
                                           - rho * out.values)))
            if residual < tol:
                break
    h_residual = float(np.max(np.abs(op.apply(out).values - out.values)))
    return HarmonicSolution(out, float(rho), residual, it, residual < tol,
                            "power", None, h_residual, op, lam)


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
    if name == "middle_thirds_cos":
        # sys_d's branches x/3, (x+2)/3 with a cosine weight: R e_k has
        # frequencies in (1/3)Z
        system = make_system([1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5],
                             WeightExpr.trig(1.0, [0.5]), sigma=3, n_grid=243)
        return TransferOperator(system, 243), Measure.lebesgue(243)
    if name == "unequal":
        return _full_branch_op(WeightExpr.trig(1.0, [1.0]), n=256,
                               probs=[0.25, 0.75]), Measure.lebesgue(256)
    if name == "degree_past_the_limit":
        # W = 1 + 0.5 cos 2 pi (MATRIX_DEGREE_MAX + 1) x needs one degree
        # more than the transition matrix is searched for on a grid whose
        # N/2 is below the limit
        weight = WeightExpr.trig(1.0, [0.0] * MATRIX_DEGREE_MAX + [0.5])
        return TransferOperator(doubling_system(weight, 256), 256), \
            Measure.lebesgue(256)
    if name == "uneven_trig":
        return TransferOperator(_uneven_system(WeightExpr.trig(1.0, [0.5])),
                                256), Measure.lebesgue(256)
    if name == "atoms":
        lam = Measure(np.full(128, 0.5 / 128), [(0.1, 0.2), (0.999, 0.3)])
        return TransferOperator(towb.sys_b(128), 128), lam
    if name == "other_grid":
        # lam on a coarser grid than h: the quadrature reads the iterates'
        # interpolant at lam's cell midpoints
        return TransferOperator(towb.sys_b(256), 256), Measure.lebesgue(96)
    raise KeyError(name)


def _assert_same_solution(a, b):
    assert np.array_equal(a.h.values, b.h.values)
    assert a.rho == b.rho
    assert a.residual == b.residual
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.method == b.method
    assert a.h_residual == b.h_residual


class TestArraySolveMatchesPerStepLoop:
    @pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c", "sys_d",
                                      "table_weight", "wrapping", "atoms",
                                      "other_grid"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_bitwise(self, name, seed):
        op, lam = _oracle_case(name)
        _assert_same_solution(power_iteration(op, lam, seed=seed),
                              _solve_harmonic_per_step(op, lam, seed=seed))

    def test_unconverged(self, op_b, lam_std):
        sol = power_iteration(op_b, lam_std, max_iter=3)
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
            power_iteration(op, lam)
        with pytest.raises(ConvergenceError) as slow:
            _solve_harmonic_per_step(op, lam)
        assert str(fast.value) == str(slow.value)

    def test_a_step_below_tol_ends_only_a_converged_solve(self):
        # at tol 1e-13 step 80 moves h by less than tol but leaves a
        # residual of 1.07e-13: the solve goes on, and step 81 brings the
        # residual to 7.1e-14
        op, lam = _oracle_case("unequal")
        sol = power_iteration(op, lam, tol=1e-13)
        assert (sol.iterations, sol.converged) == (81, True)
        assert sol.residual < 1e-13
        early = power_iteration(op, lam, tol=1e-13, max_iter=80)
        assert not early.converged and early.residual >= 1e-13
        _assert_same_solution(sol, _solve_harmonic_per_step(op, lam,
                                                            tol=1e-13))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_iterate_is_refused(self):
        # a table weight of 1.7e308 takes R h past the largest float
        table = GridFunction(np.full(64, 1.7e308))
        system = make_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5],
                             WeightExpr.from_table(table), sigma=2)
        with pytest.raises(DomainError,
                           match="^grid function samples must be finite$"):
            power_iteration(TransferOperator(system, 64),
                            Measure.lebesgue(64))


class TestSolveHarmonic:
    def test_sys_a_constant_solution(self, op_a, lam_std, sol_a):
        assert sol_a.converged
        assert sol_a.rho == pytest.approx(1.0, abs=1e-12)
        assert sol_a.residual < 1e-12
        assert np.max(np.abs(sol_a.h(op_a.nodes) - 1.0)) < 1e-10

    def test_sys_b_unit_eigenvalue(self, op_b, lam_std, sol_b):
        assert sol_b.converged
        assert sol_b.rho == pytest.approx(1.0, abs=1e-10)
        res = np.max(np.abs(op_b.apply(sol_b.h).values
                            - sol_b.h(op_b.nodes)))
        assert res < 1e-10

    def test_doubled_weight_doubles_eigenvalue(self, lam_std):
        op = TransferOperator(doubling_system(WeightExpr.constant(2.0), 1024),
                              1024)
        sol = towb.solve_harmonic(op, lam_std)
        assert sol.rho == pytest.approx(2.0, abs=1e-10)
        renorm = towb.normalize_weight(sol)
        sol2 = towb.solve_harmonic(TransferOperator(renorm, 1024), lam_std)
        assert sol2.rho == pytest.approx(1.0, abs=1e-10)

    def test_half_weight_normalizes(self, lam_std):
        op = TransferOperator(doubling_system(WeightExpr.constant(0.5), 1024),
                              1024)
        renorm = towb.normalize_weight(towb.solve_harmonic(op, lam_std))
        assert renorm.weight(0.3) == pytest.approx(1.0, abs=1e-10)

    def test_normalize_sys_b_is_noop(self, op_b, lam_std, sol_b):
        renorm = towb.normalize_weight(sol_b)
        xs = np.linspace(0, 1, 11, endpoint=False)
        assert np.allclose(renorm.weight(xs), op_b.system.weight(xs),
                           atol=1e-9)

    def test_scale_invariant_in_start(self, op_b, lam_std):
        # L1 normalization each step forgets the start's scale; different
        # seeds land on the same fixed function
        a = power_iteration(op_b, lam_std, seed=1)
        b = power_iteration(op_b, lam_std, seed=99)
        assert np.max(np.abs(a.h(op_b.nodes) - b.h(op_b.nodes))) < 1e-9

    def test_rejects_bad_tol(self, op_a, lam_std):
        with pytest.raises(DomainError):
            towb.solve_harmonic(op_a, lam_std, tol=0.0)

    def test_nonconvergence_flagged(self, op_b, lam_std):
        sol = power_iteration(op_b, lam_std, tol=1e-16, max_iter=3)
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

    def test_grid_h_through_the_midpoint_rule(self):
        # a power-iterated h is a grid function, whose coefficients come
        # from the midpoint rule on the operator's grid
        n = 4096
        op = TransferOperator(towb.sys_b(n), n)
        h = power_iteration(op, Measure.lebesgue(n)).h
        assert isinstance(h, GridFunction)
        assert towb.fourier_cascade_check(op, h, k_max=4, n_max=8) < 1e-6

    def test_midpoint_coefficients_match_the_direct_phase_sum(self):
        # the inverse FFT gives the coefficients of the direct midpoint sum
        # sum_j e(q x_j) h(x_j) / N: a smooth h off the cascade keeps its
        # O(1) deviation to 1e-14
        n, k_max, n_max = 4096, 2, 100
        op = TransferOperator(towb.sys_b(n), n)
        h = GridFunction.from_callable(
            lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x) ** 3, n)
        mids = (np.arange(n) + 0.5) / n
        freqs = np.arange(-n_max, n_max + 1)

        def coeffs(values, scale):
            return np.exp(2j * np.pi * scale
                          * np.multiply.outer(freqs, mids)) @ values / n

        hv, wk = h(mids), np.ones(n)
        want = 0.0
        for k in range(k_max + 1):
            if k > 0:
                wk = wk * op.system.weight((2 ** (k - 1) * mids) % 1.0)
            want = max(want, float(np.max(np.abs(
                coeffs(hv, 1) - coeffs(wk * hv, 2 ** k)))))
        assert want > 0.1
        dev = towb.fourier_cascade_check(op, h, k_max=k_max, n_max=n_max)
        assert abs(dev - want) < 1e-14

    def test_midpoint_coefficients_need_no_phase_matrix(self):
        # 2001 frequencies at 4096 cells: a phase matrix would take 131 MB
        op = TransferOperator(towb.sys_b(4096), 4096)
        h = GridFunction.constant(1.0, 4096)
        tracemalloc.start()
        try:
            towb.fourier_cascade_check(op, h, k_max=0, n_max=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sys_a_trivial(self, op_a, sol_a):
        assert towb.fourier_cascade_check(op_a, sol_a.h, 4, 8) < 1e-10

    @pytest.mark.parametrize("solve", [towb.solve_harmonic, power_iteration])
    def test_perturbed_h_fails(self, solve):
        # negative control: h (1 + 1e-3 cos 4 pi x) moves the coefficients
        # of h off the cascade of the weight by up to 8.75e-4, read alike on
        # the exact and the grid path
        n = 4096
        op = TransferOperator(towb.sys_b(n), n)
        h = solve(op, Measure.lebesgue(n)).h
        if isinstance(h, GridFunction):
            bumped = GridFunction(h.values
                                  * (1 + 1e-3 * np.cos(4 * np.pi * op.nodes)))
        else:
            bumped = h * towb.TrigPoly.from_cos_sin(1.0, [0.0, 1e-3])
        assert towb.fourier_cascade_check(op, h, 4, 8) < 1e-6
        dev = towb.fourier_cascade_check(op, bumped, 4, 8)
        assert dev == pytest.approx(8.75e-4, abs=1e-6)

    def test_first_frequency_pair_vanishes(self, lam_std):
        # for the cosine weight, h^(1) = 0 and (W_1 h)^(2) = W^(2) = 0
        n = 2048
        op = TransferOperator(towb.sys_b(n), n)
        mids = (np.arange(n) + 0.5) / n
        w = np.asarray(op.system.weight(mids))
        coeff = np.exp(2j * np.pi * 2 * mids) @ w / n
        assert abs(coeff) < 1e-12

    def test_divides_by_rho_to_the_k(self):
        # W = 2: rho = 2 and h = 1, so (W_k h)^(0) = 2^k = rho^k h^(0);
        # read without rho, the k = 4 term is off by 2^4 - 1
        op = _full_branch_op(WeightExpr.constant(2.0))
        sol = towb.solve_harmonic(op, Measure.lebesgue(op.n_grid))
        assert sol.rho == 2.0
        assert towb.fourier_cascade_check(op, sol.h, 4, 8, rho=sol.rho) == 0.0
        assert towb.fourier_cascade_check(op, sol.h, 4, 8) == 15.0

    def test_rejects_unequal_probabilities(self):
        # the identity needs p_i = 1/2: with 1/4 and 3/4 the power-iterated
        # h read through the cascade is off by 0.88, so it is not checked
        op = _full_branch_op(WeightExpr.trig(1.0, [1.0]), probs=[0.25, 0.75])
        sol = power_iteration(op, Measure.lebesgue(op.n_grid))
        with pytest.raises(DomainError, match="equal probabilities"):
            towb.fourier_cascade_check(op, sol.h, 4, 8, rho=sol.rho)

    def test_trig_h_with_unequal_probabilities_on_a_coarse_grid(self):
        # an exact h needs no grid bound, so at 64 cells (2^4 * 8 past N/4)
        # the refusal names the probabilities, not the grid
        op = _full_branch_op(WeightExpr.trig(1.0, [1.0]), n=64,
                             probs=[0.25, 0.75])
        with pytest.raises(DomainError, match="equal probabilities"):
            towb.fourier_cascade_check(op, towb.TrigPoly.constant(1.0), 4, 8)

    def test_midpoint_refusal_counts_the_weight_degree(self):
        # W = 1 + 0.5 cos 80 pi x (degree 40) at 128 cells: the exact h has
        # degree 40 too, so W_2 h reaches frequency 160 past N and aliases
        # onto the frequencies read (a false deviation of 0.0625).  Read as
        # a plain callable it is refused at k_max = 2, and still checked at
        # k_max = 1 and for a degree-20 weight at k_max = 2
        for degree, k_max, refused in ((40, 2, True), (40, 1, False),
                                       (20, 2, False)):
            op = _full_branch_op(
                WeightExpr.trig(1.0, [0.0] * (degree - 1) + [0.5]), n=128)
            h = towb.solve_harmonic(op, Measure.lebesgue(128)).h
            assert isinstance(h, towb.TrigPoly)
            if refused:
                with pytest.raises(DomainError, match="grid too coarse"):
                    towb.fourier_cascade_check(op, lambda x: h(x), k_max, 4)
            else:
                assert towb.fourier_cascade_check(
                    op, lambda x: h(x), k_max, 4) < 1e-14

    def test_rejects_non_doubling(self, op_d):
        h = GridFunction.constant(1.0, op_d.n_grid)
        with pytest.raises(DomainError):
            towb.fourier_cascade_check(op_d, h, 2, 2)


def _uneven_system(weight):
    """Branches of slopes 1/3 and 2/3 with ``sigma`` inferred."""
    return make_system([1 / 3, 2 / 3], [0.0, 1 / 3], [1 / 3, 2 / 3], weight)


def _lawton_matrix(weight, m):
    """The transition operator ``M[l, k] = w_{m l - k}`` (Lawton 1991) of
    the full branch set of ``m x mod 1`` with every ``p_i = 1/m``, on the
    frequencies ``-D..D``, ``D = ceil(d / (m - 1))`` for a weight of degree
    ``d``: the closed form of ``R e_k = sum_l w_{m l - k} e_l``."""
    w = weight.trigpoly
    d = int(w.max_freq)
    coefs = w.coefficients(np.arange(-d, d + 1))
    top = -(-d // (m - 1))
    freqs = np.arange(-top, top + 1)
    j = m * freqs[:, None] - freqs[None, :]
    return np.where(np.abs(j) <= d, coefs[np.clip(j + d, 0, 2 * d)], 0.0)


def _full_branch_op(weight, m=2, n=1024, probs=None):
    """``m x mod 1`` with its full branch set ``(x + k)/m``, unvalidated."""
    probs = [1 / m] * m if probs is None else probs
    system = make_system([1 / m] * m, [k / m for k in range(m)], probs,
                         weight, sigma=m, validate=False)
    return TransferOperator(system, n)


# W(x) + W(x + 1/2) != 2: h is not constant and rho is not 1
NON_QMF = WeightExpr.trig(1.0, [0.4, 0.2], [0.1])
LAWTON = WeightExpr.trig(1.0, [0.0, 0.0, 1.0])


class TestTransitionMatrix:
    def test_tiny_weight_keeps_its_coefficients(self):
        # 1e-20 (1 + cos 2 pi x): every coefficient is below 1e-15, and the
        # weight is still 1e-20 times a QMF weight, so rho = 1e-20, h = 1
        op = _full_branch_op(WeightExpr.trig(1e-20, [1e-20]))
        sol = towb.solve_harmonic(op, Measure.lebesgue(op.n_grid))
        assert sol.method == "transition_matrix" and sol.converged
        assert sol.rho == 1e-20
        assert list(sol.h.freqs) == [0.0] and sol.h.coefs[0] == 1.0

    @given(m=st.sampled_from([2, 3]),
           const=st.floats(0.5, 2.0),
           cos=st.lists(st.floats(-1.0, 1.0), max_size=4),
           sin=st.lists(st.floats(-1.0, 1.0), max_size=4))
    # zero odd cosines: R e_k for odd k cancels completely and leaves
    # rounding noise at half-integer frequencies, which the threshold on
    # the whole batch ignores
    @example(m=2, const=1.0, cos=[0.0, 0.5], sin=[])
    @example(m=2, const=1.0, cos=[0.0, 0.3, 0.0, 0.2], sin=[])
    @settings(max_examples=60, deadline=None)
    def test_closure_matches_lawton_formula(self, m, const, cos, sin):
        # on the full branch set with equal p_i, the matrix read off
        # apply_symbolic is the transition operator w_{m l - k}
        weight = WeightExpr.trig(const, cos, sin)
        matrix = _full_branch_op(weight, m, n=64).transition_matrix()
        want = _lawton_matrix(weight, m)
        assert matrix.shape == want.shape
        assert np.max(np.abs(matrix - want)) <= 1e-15

    @pytest.mark.parametrize("m, degree", [(2, 11), (2, 30), (3, 13),
                                           (3, 60)])
    def test_high_degree_closure_matches_lawton_formula(self, m, degree):
        # the rounding of the branch phases grows with the frequency, past
        # 1e-15 of the largest coefficient from degree 11 (m = 2) and 13
        # (m = 3) on; at degrees 30 and 60 the 61 columns take three blocks
        rng = np.random.default_rng(degree)
        weight = WeightExpr.trig(1.0, rng.uniform(-1, 1, degree),
                                 rng.uniform(-1, 1, degree))
        matrix = _full_branch_op(weight, m).transition_matrix()
        want = _lawton_matrix(weight, m)
        top = (want.shape[0] - 1) // 2
        assert matrix.shape == want.shape
        assert np.max(np.abs(matrix - want)) <= 1e-15 * (1 + degree + top)

    @pytest.mark.parametrize("name", ["unequal", "table_weight", "wrapping",
                                      "middle_thirds_cos", "uneven_trig",
                                      "degree_past_the_limit"])
    def test_other_systems_power_iterate(self, name):
        op, lam = _oracle_case(name)
        assert op.transition_matrix() is None
        _assert_same_solution(towb.solve_harmonic(op, lam),
                              power_iteration(op, lam))

    def test_degree_past_nyquist_solves_on_the_matrix(self):
        # W = 1 + 0.5 cos 40 pi x needs D = 20, past N/2 = 16 at 32 cells:
        # the grid does not pick the method, every grid gets the same rho,
        # and the word enumeration rebuilds the exact h at 32 cells
        weight = WeightExpr.trig(1.0, [0.0] * 19 + [0.5])
        sols = {}
        for cells in (32, 64, 1024):
            op = TransferOperator(doubling_system(weight, cells), cells)
            sols[cells] = towb.solve_harmonic(op, Measure.lebesgue(cells))
            assert sols[cells].method == "transition_matrix"
            assert sols[cells].converged
        assert sols[32].rho == sols[64].rho == sols[1024].rho
        op = TransferOperator(doubling_system(weight, 32), 32)
        pm = PathMeasure.build(op, sols[32].h, Measure.lebesgue(32))
        assert harmonic_from_measure(pm)[1] <= 1e-12

    @pytest.mark.parametrize("degree, cells", [(600, 256), (800, 4096)])
    def test_exact_up_to_the_limit_or_half_the_grid(self, degree, cells):
        # W = 1 + 0.5 cos 2 pi D x needs degree D: the limit admits D = 600
        # on a grid whose N/2 is below it, and past the limit D = 800 solves
        # on the matrix on a grid whose N/2 reaches it, where power
        # iteration passes its node residual with h 0.41 off
        weight = WeightExpr.trig(1.0, [0.0] * (degree - 1) + [0.5])
        op = TransferOperator(doubling_system(weight, cells), cells)
        sol = towb.solve_harmonic(op, Measure.lebesgue(cells))
        assert sol.method == "transition_matrix" and sol.converged
        pm = PathMeasure.build(op, sol.h, Measure.lebesgue(cells))
        assert harmonic_from_measure(pm)[1] <= 1e-12

    def test_sys_d_is_exactly_one(self):
        # R 1 = 1 on the middle-thirds branches: the degree-0 space is
        # invariant, and h is the constant 1 with no power step
        op, lam = _oracle_case("sys_d")
        sol = towb.solve_harmonic(op, lam)
        assert (sol.method, sol.iterations, sol.converged) == \
            ("transition_matrix", 0, True)
        assert sol.rho == 1.0 and sol.residual == 0.0
        assert isinstance(sol.h, towb.TrigPoly)
        assert sol.h.freqs.tolist() == [0.0] and sol.h.coefs.tolist() == [1]

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_constant_weight_on_uneven_branches(self, c):
        # R 1 = c on any non-wrapping branch set, whatever the p_i
        op = TransferOperator(_uneven_system(WeightExpr.constant(c)), 256)
        sol = towb.solve_harmonic(op, Measure.lebesgue(256))
        assert (sol.method, sol.rho, sol.residual) == \
            ("transition_matrix", c, 0.0)
        assert sol.h.freqs.tolist() == [0.0] and sol.h.coefs.tolist() == [1]

    def test_unequal_probabilities_power_iterate(self):
        op = _full_branch_op(NON_QMF, probs=[0.25, 0.75])
        assert op.transition_matrix() is None
        assert towb.solve_harmonic(op, Measure.lebesgue(1024)).method == \
            "power"

    @pytest.mark.parametrize("op_name", ["op_a", "op_b"])
    def test_doubling_fixtures_are_exactly_one(self, op_name, request,
                                               lam_std):
        sol = towb.solve_harmonic(request.getfixturevalue(op_name), lam_std)
        assert (sol.method, sol.iterations, sol.converged) == \
            ("transition_matrix", 0, True)
        assert sol.rho == 1.0 and sol.residual == 0.0
        assert isinstance(sol.h, towb.TrigPoly)
        assert sol.h.freqs.tolist() == [0.0] and sol.h.coefs.tolist() == [1]

    def test_non_qmf_weight(self):
        # the exact eigenpair, and power iteration within its O(N^-2) grid
        # error of it: h is off by ~1.3 / N^2 at N = 256 and 1024
        lam = Measure.lebesgue(1024)
        exact = towb.solve_harmonic(_full_branch_op(NON_QMF), lam)
        assert exact.method == "transition_matrix"
        assert exact.rho == pytest.approx(1.047715426, abs=1e-9)
        assert exact.residual <= 1e-14
        assert exact.spectral_ratio < 0.2
        distances = []
        for n in (256, 1024):
            op = _full_branch_op(NON_QMF, n=n)
            power = power_iteration(op, Measure.lebesgue(n))
            assert power.converged
            assert abs(power.rho - exact.rho) <= 2.0 / n**2
            distances.append(np.max(np.abs(power.h.values
                                           - exact.h(op.nodes))))
            assert distances[-1] <= 2.0 / n**2
        assert distances[0] / distances[1] > 8.0

    def test_three_branch_weight_matches_power_iteration(self):
        op = _full_branch_op(NON_QMF, m=3)
        lam = Measure.lebesgue(1024)
        exact, power = towb.solve_harmonic(op, lam), power_iteration(op, lam)
        assert exact.method == "transition_matrix"
        assert exact.residual <= 1e-14
        assert abs(power.rho - exact.rho) <= 2.0 / 1024**2
        assert np.max(np.abs(power.h.values - exact.h(op.nodes))) \
            <= 2.0 / 1024**2

    def test_lawton_weight_is_degenerate(self):
        # W = 1 + cos 6 pi x = |(1 + z^3)/2|^2: the eigenvalue 1 is double
        # (h = 1 and cos 2 pi x + cos 4 pi x / 2), and -1 is simple, so h is
        # not determined; power iteration wanders without converging
        op, lam = _full_branch_op(LAWTON), Measure.lebesgue(1024)
        with pytest.raises(ConvergenceError) as err:
            towb.solve_harmonic(op, lam)
        assert str(err.value) == ("leading eigenvalue 1 has multiplicity 2; "
                                  "peripheral spectrum {1, 1, -1}")
        assert not power_iteration(op, lam).converged

    def test_tol_below_the_residual_is_unconverged(self):
        # tol keeps its meaning on the exact path: the non-QMF residual is
        # rounding, above 1e-18, so the solve is flagged and cannot be
        # normalized
        op, lam = _full_branch_op(NON_QMF), Measure.lebesgue(1024)
        sol = towb.solve_harmonic(op, lam, tol=1e-18)
        assert sol.method == "transition_matrix"
        assert sol.residual >= 1e-18 and not sol.converged
        with pytest.raises(ConvergenceError, match="did not converge"):
            towb.normalize_weight(sol)

    @pytest.mark.parametrize("scale", [1e-13, 1e-10, 1e10])
    def test_peripheral_test_is_relative(self, scale):
        # sys_b's weight scaled by any factor keeps a simple leading
        # eigenvalue, the scale, with the spectrum 1, 1/2 scaled alike
        op = _full_branch_op(WeightExpr.trig(scale, [scale]))
        sol = towb.solve_harmonic(op, Measure.lebesgue(1024), tol=1e-12)
        assert sol.method == "transition_matrix"
        assert sol.rho == pytest.approx(scale, rel=1e-14)
        assert sol.spectral_ratio == pytest.approx(0.5, rel=1e-14)
        assert np.max(np.abs(sol.h(op.nodes) - 1.0)) < 1e-14

    def test_slow_power_weight_solves_exactly(self):
        # W = 1 + 0.99 cos 6 pi x has h = 1, but |lambda_2| = 0.99333 needs
        # ~3,800 power steps, more than the default 2,000
        op = _full_branch_op(WeightExpr.trig(1.0, [0.0, 0.0, 0.99]))
        lam = Measure.lebesgue(1024)
        sol = towb.solve_harmonic(op, lam)
        assert sol.rho == pytest.approx(1.0, abs=1e-14)
        assert sol.spectral_ratio == pytest.approx(0.99333, abs=1e-5)
        assert np.max(np.abs(sol.h(op.nodes) - 1.0)) < 1e-14
        assert not power_iteration(op, lam).converged

    @pytest.mark.parametrize("weight, message", [
        (WeightExpr.trig(1.0, [0.5, 0.0, 1.5]), "iterate went negative"),
        (WeightExpr.constant(0.0), "iterate collapsed to zero mass"),
        (WeightExpr.constant(-1.0), "iterate collapsed to zero mass"),
        (WeightExpr.trig(1.0, [2.0]), "leading eigenvalue 1 has "
                                      "multiplicity 3")])
    def test_convergence_errors(self, weight, message):
        with pytest.raises(ConvergenceError, match=message):
            towb.solve_harmonic(_full_branch_op(weight, n=128),
                                Measure.lebesgue(128))

    def test_perturbed_weight_flips_the_residual_check(self):
        # negative control: h solved for the normalized non-QMF weight is
        # harmonic to rounding, pointwise, even at N = 256 where a grid
        # residual would read 7.5e-6; moving one weight coefficient by 1e-5
        # after the solve makes the path measure refuse it
        n = 256
        lam = Measure.lebesgue(n)
        op = _full_branch_op(NON_QMF, n=n)
        system = towb.normalize_weight(towb.solve_harmonic(op, lam))
        op1 = TransferOperator(system, n)
        h = towb.solve_harmonic(op1, lam).h
        assert towb.PathMeasure.build(op1, h, lam).h_residual <= 1e-14
        w = system.weight
        moved = WeightExpr.trig(w.const, [w.cos_coefs[0] + 1e-5,
                                          *w.cos_coefs[1:]], w.sin_coefs)
        op2 = TransferOperator(system.with_weight(moved), n)
        with pytest.raises(DomainError, match="not harmonic enough"):
            towb.PathMeasure.build(op2, h, lam)
        loose = towb.PathMeasure.build(op2, h, lam, strict=False)
        assert loose.h_residual > 1e-6


# -- the exact solve's certificate as the path measure's trust gate ----------

_LD = np.longdouble
_TWO_PI_LD = np.arctan(_LD(1)) * 8


def _values_ld(p, y):
    """``p`` at the points ``y`` in extended precision."""
    theta = _TWO_PI_LD * (p.freqs.astype(_LD)[:, None] * y[None, :])
    return (p.coefs.real.astype(_LD)[:, None] * np.cos(theta)
            - p.coefs.imag.astype(_LD)[:, None] * np.sin(theta)).sum(axis=0)


def _evaluation_rounding(p):
    """``sum |c_k| (1 + 2 pi |f_k|)``: a term's size plus the sensitivity
    of its value to the rounding of its angle."""
    return float(np.sum(np.abs(p.coefs) * (1 + 2 * np.pi * np.abs(p.freqs))))


def _certificate_case(name):
    if name in ("sys_a", "sys_b", "sys_d"):
        return _oracle_case(name)
    lam = Measure.lebesgue(256)
    if name == "non_qmf_raw":
        return _full_branch_op(NON_QMF, n=256), lam
    if name == "non_qmf":
        op = _full_branch_op(NON_QMF, n=256)
        system = towb.normalize_weight(towb.solve_harmonic(op, lam))
        return TransferOperator(system, 256), lam
    if name == "degree_20":
        weight = WeightExpr.trig(1.0, [0.0] * 19 + [0.5])
        return _full_branch_op(weight, n=32), Measure.lebesgue(32)
    raise KeyError(name)


@pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_d", "non_qmf",
                                  "non_qmf_raw", "degree_20"])
def test_residual_bound_covers_the_whole_circle(name):
    # h_residual bounds sup |R h - h| over the circle, up to the
    # rounding of the closure's columns, each coefficient of which it
    # treats as noise up to its floor _PRUNE (1 + d + D) max |M|, and of
    # the extended-precision evaluation of R h - h at 2^16 points.  The
    # float64 evaluation's own rounding is larger than the bound (sys_b:
    # bound 0.0, float64 sup 3.3e-16), hence the extended precision; the
    # unnormalized non-QMF weight (rho != 1) is the case far above both
    # allowances
    op, lam = _certificate_case(name)
    sol = towb.solve_harmonic(op, lam)
    assert sol.method == "transition_matrix" and sol.op is op
    h, w = sol.h, op.system.weight.trigpoly
    x = np.arange(2**16, dtype=_LD) / 2**16
    rh = sum(_LD(p) * _values_ld(w, a * x + b) * _values_ld(h, a * x + b)
             for a, b, p in zip(op.slopes, op.offsets, op.probs))
    gap = float(np.max(np.abs(rh - _values_ld(h, x))))
    matrix = op.transition_matrix()
    top = (matrix.shape[0] - 1) // 2
    v_l1 = float(np.abs(h.coefficients(np.arange(-top, top + 1))).sum())
    closure = (1e-15 * (1 + w.max_freq + top) * np.abs(matrix).max()
               * w.freqs.size * op.system.n_branches * v_l1)
    evaluation = 16 * float(np.finfo(_LD).eps) * _evaluation_rounding(h) * (
        _evaluation_rounding(w) + 1)
    assert gap <= sol.h_residual + closure + evaluation
    if name == "non_qmf_raw":
        assert sol.h_residual >= gap > 1e-3


def test_from_solution_refuses_a_moved_weight():
    # the control of test_perturbed_weight_flips_the_residual_check, for
    # the solve: an exact solution is trusted on its own bound, with no
    # kernel at the nodes; after one weight coefficient is moved by 1e-5,
    # the moved system's own solve has rho off 1 and is refused
    n = 256
    lam = Measure.lebesgue(n)
    op1, _ = _certificate_case("non_qmf")
    sol = towb.solve_harmonic(op1, lam)
    pm = PathMeasure.from_solution(sol)
    assert pm.h_residual == sol.h_residual <= 1e-14
    assert (pm.op, pm.h, pm.lam) == (op1, sol.h, lam)
    assert "node_kernel" not in op1.__dict__
    w = op1.system.weight
    moved = WeightExpr.trig(w.const, [w.cos_coefs[0] + 1e-5,
                                      *w.cos_coefs[1:]], w.sin_coefs)
    op2 = TransferOperator(op1.system.with_weight(moved), n)
    moved_sol = towb.solve_harmonic(op2, lam)
    assert abs(moved_sol.rho - 1.0) > 1e-6
    with pytest.raises(DomainError, match="is not 1; divide the weight"):
        PathMeasure.from_solution(moved_sol)


def test_from_solution_refuses_what_build_refuses():
    # a residual above _H_TRUST is refused with build's message
    op, lam = _certificate_case("sys_b")
    sol = towb.solve_harmonic(op, lam)
    loose = dataclasses.replace(sol, h_residual=2e-6)
    with pytest.raises(DomainError, match=r"^h is not harmonic enough "
                                          r"\(residual 2\.000e-06\)$"):
        PathMeasure.from_solution(loose)


def _unit_case(name):
    """An oracle case with rho 1: a fixture as it is, any other case with
    its weight divided by rho."""
    op, lam = _oracle_case(name)
    if name.startswith("sys_"):
        return op, lam
    system = towb.normalize_weight(towb.solve_harmonic(op, lam))
    return TransferOperator(system, op.n_grid), lam


def test_from_solution_refuses_an_unconverged_solve():
    op, lam = _unit_case("unequal")
    sol = towb.solve_harmonic(op, lam, max_iter=3)
    assert sol.method == "power" and not sol.converged
    with pytest.raises(ConvergenceError,
                       match="^harmonic solve did not converge$"):
        PathMeasure.from_solution(sol)


@pytest.mark.parametrize("name", ["sys_b", "unequal"])
def test_from_solution_refuses_rho_off_one(name):
    # sys_b doubled solves exactly, unequal power-iterates; both have rho 2
    op, lam = _unit_case(name)
    system = op.system.with_weight(op.system.weight.scaled(2.0))
    sol = towb.solve_harmonic(TransferOperator(system, op.n_grid), lam)
    assert sol.converged and sol.rho == pytest.approx(2.0)
    with pytest.raises(DomainError, match=r"^rho = 2 is not 1; divide the "
                                          r"weight by rho first "
                                          r"\(normalize_weight\)$"):
        PathMeasure.from_solution(sol)


@pytest.mark.parametrize("name", ["table_weight", "unequal", "uneven_trig"])
def test_power_solution_gets_the_node_residual(name):
    op, lam = _unit_case(name)
    sol = towb.solve_harmonic(op, lam)
    assert sol.method == "power"
    assert sol.h_residual == PathMeasure.build(op, sol.h, lam).h_residual


@pytest.mark.parametrize("n", [243, 999, 1000])
def test_power_h_residual_on_uneven_branches(n):
    lam = Measure.lebesgue(n)
    op = TransferOperator(_uneven_system(WeightExpr.trig(1.0, [0.5])), n)
    system = towb.normalize_weight(towb.solve_harmonic(op, lam))
    op = TransferOperator(system, n)
    sol = towb.solve_harmonic(op, lam)
    assert sol.method == "power" and sol.converged
    assert sol.h_residual == PathMeasure.build(op, sol.h, lam).h_residual


@pytest.mark.parametrize("name", ["sys_b", "sys_d", "table_weight",
                                  "uneven_trig"])
def test_from_solution_applies_and_integrates_nothing(name, monkeypatch):
    # the solve vouches for h's residual and its mass against lam, so the
    # path measure of a solution neither applies R nor integrates h
    op, lam = _unit_case(name)
    sol = towb.solve_harmonic(op, lam)

    def refuse(*args, **kwargs):
        raise AssertionError("from_solution computed what the solve knows")

    monkeypatch.setattr(TransferOperator, "apply", refuse)
    monkeypatch.setattr("towb.solenoid.integrate", refuse)
    pm = PathMeasure.from_solution(sol)
    assert (pm.op, pm.h, pm.lam, pm.h_residual) == (op, sol.h, lam,
                                                    sol.h_residual)
