import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towb
from towb import GridFunction, IntervalSet, Measure, TransferOperator
from towb.config import load_config
from towb.errors import ConfigError
from towb.grid import wrap_unit
from towb.harmonic import power_iteration
from towb.system import PiecewiseAffineMap, WeightExpr, make_system
from towb.transfer import IdentityCheck, _random_intervals
from towb.trig import TrigPoly


FIXTURE_DIR = os.path.join(os.path.dirname(towb.__file__), "fixtures")


def _id(x):
    return np.asarray(x, dtype=float)


class TestApply:
    def test_constant_fixed_sys_a(self, op_a):
        out = op_a.apply(GridFunction.constant(1.0, op_a.n_grid))
        assert np.max(np.abs(out.values - 1.0)) < 1e-14

    def test_constant_fixed_sys_b(self, op_b):
        # cos^2(pi x / 2) + sin^2(pi x / 2) = 1 keeps constants fixed
        out = op_b.apply(GridFunction.constant(1.0, op_b.n_grid))
        assert np.max(np.abs(out.values - 1.0)) < 1e-14

    def test_identity_image_sys_a(self, op_a):
        out = op_a.apply(_id)
        expected = (2 * op_a.nodes + 1) / 4
        assert np.max(np.abs(out.values - expected)) < 1e-15
        assert out.values[0] == 0.25

    def test_positivity(self, op_b):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            f = GridFunction(rng.random(64))
            out = op_b.apply(f)
            assert np.min(out.values) >= -1e-14

    def test_symbolic_matches_numeric(self, op_b):
        rng = np.random.default_rng(1)
        f = TrigPoly.random(rng, degree=6)
        sym = op_b.apply_symbolic(f)
        xs = rng.random(100)
        assert np.allclose(sym(xs), op_b.apply_fn(f)(xs), atol=1e-12)


def _apply_case(name):
    if name == "table_weight":
        table = GridFunction.from_callable(lambda x: 1.5 + 0.2 * np.sin(
            2 * np.pi * x), 256)
        return make_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5],
                           WeightExpr.from_table(table), sigma=2), 256
    if name == "wrapping":
        # the second branch x/2 + 0.75 wraps past 1; sigma is 2x - 1/2 mod 1
        sigma = PiecewiseAffineMap([(0.0, 0.25, 2.0, 0.5),
                                    (0.25, 0.75, 2.0, -0.5),
                                    (0.75, 1.0, 2.0, -1.5)])
        return make_system([0.5, 0.5], [0.25, 0.75], [0.5, 0.5],
                           WeightExpr.trig(1.0, [0.3], [0.2]), sigma=sigma,
                           mod_one=True), 256
    cfg = load_config(os.path.join(FIXTURE_DIR, f"{name}.cfg"))
    return cfg.build_system(), cfg.cells


@pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c", "sys_d",
                                  "table_weight", "wrapping"])
def test_apply_matches_pointwise_action_bitwise(name):
    system, n = _apply_case(name)
    op = TransferOperator(system, n)
    rng = np.random.default_rng(0)
    for g in (GridFunction(rng.uniform(0.5, 1.5, n)),
              GridFunction.from_callable(lambda x: np.cos(6 * np.pi * x), n)):
        assert np.array_equal(op.apply(g).values, op.apply_fn(g)(op.nodes))
    assert "node_kernel" in op.__dict__


def test_apply_off_grid_function_takes_pointwise_path():
    op = TransferOperator(towb.sys_b(256), 256)
    g = GridFunction(np.random.default_rng(0).uniform(0.5, 1.5, 100))
    assert np.array_equal(op.apply(g).values, op.apply_fn(g)(op.nodes))
    assert "node_kernel" in op.__dict__


def test_harmonic_solve_evaluates_weight_once(monkeypatch):
    # the solve's ~50 applications share one assembled grid action
    op = TransferOperator(towb.sys_b(1024), 1024)
    lam = Measure.lebesgue(1024)
    calls = []
    original = WeightExpr.__call__

    def counting(self, x):
        calls.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(WeightExpr, "__call__", counting)
    sol = power_iteration(op, lam)
    assert sol.iterations == 48
    assert calls == [2 * 1024]


def test_identity_suite_kernel_work_does_not_grow_with_trials(monkeypatch):
    # the pointwise checks read the operator's one kernel at the nodes, so
    # the weight and the branch images are built as often at any trials
    system = towb.sys_b(1024)
    lam = Measure.lebesgue(1024)
    h = towb.solve_harmonic(TransferOperator(system, 1024), lam).h
    calls = []
    weight_call = WeightExpr.__call__
    branch_points = TransferOperator.branch_points

    def counting_weight(self, x):
        calls.append("weight")
        return weight_call(self, x)

    def counting_points(self, x):
        calls.append("images")
        return branch_points(self, x)

    monkeypatch.setattr(WeightExpr, "__call__", counting_weight)
    monkeypatch.setattr(TransferOperator, "branch_points", counting_points)
    counts = []
    for trials in (10, 100):
        op = TransferOperator(system, 1024)
        calls.clear()
        towb.identity_suite(op, lam, h, trials=trials)
        counts.append((calls.count("weight"), calls.count("images")))
    assert counts[0] == counts[1]
    assert counts[0][0] <= 4 and counts[0][1] <= 2


class TestAdjoint:
    def test_constant_sys_a(self, op_a):
        out = op_a.adjoint(GridFunction.constant(1.0, op_a.n_grid))
        assert np.allclose(out.values, 1.0)

    def test_composition_with_identity(self, op_a):
        out = op_a.adjoint_fn(_id)(0.3)
        assert out == pytest.approx(0.6)

    def test_weight_factor_sys_b(self, op_b):
        out = op_b.adjoint(GridFunction.constant(1.0, op_b.n_grid))
        assert out.values[0] == pytest.approx(2.0)

    def test_duality_random(self, op_b, lam_std):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = TrigPoly.random(rng)
            g = TrigPoly.random(rng)
            lhs = towb.integrate(lambda x: op_b.adjoint_fn(f)(x) * g(x),
                                 lam_std)
            rhs = towb.integrate(lambda x: f(x) * op_b.apply_fn(g)(x),
                                 lam_std)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestKernel:
    # the kernel at x: the branch images of x carrying p_i W(tau_i x)
    def test_branch_atoms_sys_a(self, op_a):
        points = op_a.branch_points(0.4)
        assert np.allclose(points, [0.2, 0.7])
        assert np.allclose(op_a.branch_masses(points), [0.5, 0.5])

    def test_zero_mass_atom_sys_b(self, op_b):
        points = op_b.branch_points(0.0)
        masses = op_b.branch_masses(points)
        assert np.allclose(points, [0.0, 0.5])
        assert masses[0] == pytest.approx(1.0)
        assert masses[1] == pytest.approx(0.0, abs=1e-15)

    def test_branch_atoms_sys_d(self, op_d):
        points = op_d.branch_points(0.0)
        assert np.allclose(points, [0.0, 2 / 3])
        assert np.allclose(op_d.branch_masses(points), [0.5, 0.5])


class TestPushMeasure:
    def test_rn_derivative_matches_weight_sys_b(self, op_b, lam_std):
        dec = op_b.rn_derivative(lam_std)
        w_mid = np.asarray(op_b.system.weight(lam_std.cell_midpoints()))
        assert np.max(np.abs(dec.density.values - w_mid)) < 1e-12
        assert dec.singular.total() == 0.0

    def test_rn_derivative_sys_d_lebesgue(self, op_d, lam_triadic):
        dec = op_d.rn_derivative(lam_triadic)
        n = lam_triadic.n_cells
        expected = np.where((np.arange(n) < n // 3) |
                            (np.arange(n) >= 2 * n // 3), 1.5, 0.0)
        assert np.max(np.abs(dec.density.values - expected)) == 0.0
        assert dec.singular.total() == 0.0

    def test_rn_derivative_atomic(self, op_a):
        delta0 = Measure.dirac(0.0, op_a.n_grid)
        dec = op_a.rn_derivative(delta0)
        assert dec.atom_density == {0.0: pytest.approx(0.5)}
        assert dec.singular.atoms == ((0.5, 0.5),)


class TestRwMultiplier:
    def test_sys_a_identity(self, op_a):
        assert np.allclose(op_a.rw_multiplier().values, 1.0)

    def test_sys_b_value(self, op_b):
        rw = op_b.rw_multiplier()
        oracle = 1.0 + np.cos(np.pi * op_b.nodes) ** 2
        assert np.max(np.abs(rw.values - oracle)) < 1e-12
        assert rw.values[0] == pytest.approx(2.0)

    def test_reciprocal_weight_averages_to_one(self, op_a, op_b, op_d):
        # sum_i p_i W(tau_i x) / W(tau_i x) = sum p_i = 1 wherever W > 0;
        # strictly positive weights admit the full node set, the cosine
        # weight only the points whose branch images miss its zero
        def check(op, pts):
            stacked = op.branch_points(pts)
            w = np.asarray(op.system.weight(stacked), dtype=float)
            assert np.min(w) > 0
            probs = np.array(op.system.probs)[:, None]
            vals = (probs * w * (1.0 / w)).sum(axis=0)
            assert np.max(np.abs(vals - 1.0)) < 1e-12

        for op in (op_a, op_d):
            check(op, op.nodes)
        mids = (np.arange(op_b.n_grid) + 0.5) / op_b.n_grid
        check(op_b, mids)


class TestIdentitySuite:
    def test_sys_a_all_pass(self, op_a, lam_std, sol_a):
        suite = towb.identity_suite(op_a, lam_std, sol_a.h, trials=25, seed=0)
        assert suite.counts() == {"PASS": 7, "FAIL": 0, "SKIPPED": 0}

    def test_sys_b_six_pass_one_skip(self, op_b, lam_std, sol_b):
        suite = towb.identity_suite(op_b, lam_std, sol_b.h, trials=25, seed=0)
        assert suite.counts() == {"PASS": 6, "FAIL": 0, "SKIPPED": 1}
        gated = suite.by_name("harmonic_support_multiplier")
        assert gated.status == "SKIPPED"
        assert "sup" in gated.note

    def test_preimage_rule_quarter_interval(self, op_a, lam_std):
        # sigma^-1([0,1/4)) = [0,1/8) u [1/2,5/8) has measure 1/4, matching
        # the multiplier integral since R(W) = 1
        region = IntervalSet([(0.0, 0.25)])
        pre = op_a.system.sigma.preimage(region)
        w_sq = op_a.system.weight.trigpoly
        lhs = towb.integrate_over(w_sq * w_sq, lam_std, pre)
        rw = op_a.apply_symbolic(w_sq)
        rhs = towb.integrate_over(rw, lam_std, region)
        assert lhs == pytest.approx(0.25, abs=1e-12)
        assert rhs == pytest.approx(0.25, abs=1e-12)

    def test_non_invariant_measure_fails_honestly(self, op_a):
        # a density-weighted measure is not fixed by the adjoint flow, so
        # the integral identities must FAIL rather than be forced
        lam = Measure.from_density(lambda x: 0.5 + x, op_a.n_grid)
        lam = lam.normalized()
        h = GridFunction.constant(1.0, op_a.n_grid)
        suite = towb.identity_suite(op_a, lam, h, trials=10, seed=0)
        assert suite.by_name("adjoint_duality").status == "FAIL"
        assert suite.by_name("sigma_invariance").status == "FAIL"

    def test_table_weight_skips_symbolic_check(self, lam_std):
        table = GridFunction.from_callable(lambda x: 1.5 + 0.2 * np.sin(
            2 * np.pi * x), 1024)
        system = make_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5],
                             WeightExpr.from_table(table), sigma=2)
        op = TransferOperator(system, 1024)
        h = GridFunction.constant(1.0, 1024)
        suite = towb.identity_suite(op, lam_std, h, trials=5, seed=0)
        assert suite.by_name("preimage_weight_square").status == "SKIPPED"


def _composed_integral(op, f, lam, factor=None):
    """``int factor (f o sigma) dlam`` for one test function, one sigma piece
    at a time, each piece over the stretch where sigma applies it."""
    pieces = op.system.sigma.pieces
    total = 0.0
    for k, (lo, _, a, b) in enumerate(pieces):
        hi = pieces[k + 1][0] if k + 1 < len(pieces) else 1.0
        integrand = f.compose_affine(a, b)
        if factor is not None:
            integrand = factor * integrand
        total += towb.integrate_over(integrand, lam,
                                     IntervalSet([(lo if k else 0.0, hi)]))
    return total


def _identity_suite_per_trial(op, lam, h, trials, seed, tol=1e-8, rho=1.0):
    """Reference: the identity battery run one test function at a time,
    each drawn by its own ``TrigPoly.random`` call, for ``R h = rho h``."""
    rng = np.random.default_rng(seed)
    nodes = op.nodes
    mids = (np.arange(op.n_grid) + 0.5) / op.n_grid
    weight = op.system.weight
    sigma = op.system.sigma

    def status(resid):
        return "PASS" if resid < tol else "FAIL"

    fs = [TrigPoly.random(rng) for _ in range(trials)]
    gs = [TrigPoly.random(rng) for _ in range(trials)]
    regions = [_random_intervals(rng) for _ in range(trials)]
    checks = []

    resid = 0.0
    for f, g in zip(fs, gs):
        lhs = op.apply_fn(lambda y, f=f, g=g:
                          np.asarray(f(sigma(y))) * np.asarray(g(y)))(nodes)
        rhs = np.asarray(f(nodes)) * op.apply_fn(g)(nodes)
        resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    checks.append(IdentityCheck("pullback_product", status(resid), resid, tol))

    resid = 0.0
    w_tp = weight.trigpoly
    for f, g in zip(fs, gs):
        rg = op.apply_symbolic(g)
        if rg is not None:
            lhs = _composed_integral(op, f, lam, w_tp * g)
            rhs = towb.integrate(f * rg, lam)
        else:
            lhs = towb.integrate(lambda y: np.asarray(weight(y)) *
                                 np.asarray(f(sigma(y))) * np.asarray(g(y)),
                                 lam)
            rhs = towb.integrate(lambda y, g=g: np.asarray(f(y)) *
                                 np.asarray(op.apply_fn(g)(y)), lam)
        resid = max(resid, abs(lhs - rhs))
    checks.append(IdentityCheck("adjoint_duality", status(resid), resid, tol))

    resid = 0.0
    rw_fn = op.apply_fn(weight)
    for f in fs:
        lhs = op.apply_fn(op.adjoint_fn(f))(nodes)
        rhs = np.asarray(rw_fn(nodes)) * np.asarray(f(nodes))
        resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    checks.append(IdentityCheck("composition_multiplier", status(resid),
                                resid, tol))

    resid = 0.0
    for f in fs:
        resid = max(resid, abs(_composed_integral(op, f, lam) -
                               towb.integrate(f, lam)))
    checks.append(IdentityCheck("sigma_invariance", status(resid), resid, tol))

    rw_sym = op.apply_symbolic(w_tp)
    if rw_sym is None:
        checks.append(IdentityCheck("preimage_weight_square", "SKIPPED",
                                    np.nan, tol))
    else:
        resid = 0.0
        for region in regions:
            lhs = towb.integrate_over(w_tp * w_tp, lam, sigma.preimage(region))
            rhs = towb.integrate_over(rw_sym, lam, region)
            resid = max(resid, abs(lhs - rhs))
        checks.append(IdentityCheck("preimage_weight_square", status(resid),
                                    resid, tol))

    rw_vals = np.concatenate([np.asarray(rw_fn(nodes), dtype=float),
                              np.asarray(rw_fn(mids), dtype=float)])
    if float(np.max(rw_vals)) > 1.0 + 1e-9 or abs(rho - 1.0) > tol:
        checks.append(IdentityCheck("harmonic_support_multiplier", "SKIPPED",
                                    np.nan, tol))
    else:
        active = np.abs(np.asarray(h(nodes))) > 1e-10
        resid = float(np.max(np.abs(np.asarray(rw_fn(nodes))[active] - 1.0))) \
            if np.any(active) else 0.0
        checks.append(IdentityCheck("harmonic_support_multiplier",
                                    status(resid), resid, tol))

    branch_nodes = op.branch_points(nodes).ravel()
    resid = 0.0
    for f in fs:
        sup_f = float(np.max(np.abs(np.concatenate(
            [np.asarray(f(branch_nodes)), np.asarray(f(nodes))]))))
        rfh = op.apply_fn(lambda y, f=f: np.asarray(f(y)) *
                          np.asarray(h(y)))(nodes)
        excess = np.abs(rfh) - sup_f * rho * np.asarray(h(nodes))
        resid = max(resid, float(np.max(excess)))
    checks.append(IdentityCheck("kernel_sup_bound", status(resid), resid, tol))
    return checks


def _oracle_case(name, n=None):
    if n is None:
        n = 243 if name == "sys_d" else 256
    if name == "table_weight":
        table = GridFunction.from_callable(lambda x: 1.5 + 0.2 * np.sin(
            2 * np.pi * x), n)
        system = make_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5],
                             WeightExpr.from_table(table), sigma=2)
    elif name == "uneven_branches":
        # sigma inferred from branches of slopes 1/3 and 2/3 is not an
        # m x mod 1 map, so f o sigma has no closed form
        system = make_system([1 / 3, 2 / 3], [0.0, 1 / 3], [1 / 3, 2 / 3],
                             WeightExpr.trig(1.0, [0.5]), n_grid=n)
    else:
        system = getattr(towb, name)(n)
    op = TransferOperator(system, n)
    lam = Measure.lebesgue(n)
    sol = towb.solve_harmonic(op, lam)
    return op, lam, sol.h, sol.rho


@pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_d", "table_weight",
                                  "uneven_branches"])
def test_batched_suite_matches_per_trial_oracle(name):
    # 30 trials span a full block and a partial one
    op, lam, h, rho = _oracle_case(name)
    suite = towb.identity_suite(op, lam, h, trials=30, seed=3, rho=rho)
    oracle = _identity_suite_per_trial(op, lam, h, trials=30, seed=3,
                                       rho=rho)
    assert [c.name for c in suite.checks] == [c.name for c in oracle]
    assert [c.status for c in suite.checks] == [c.status for c in oracle]
    for got, want in zip(suite.checks, oracle):
        assert type(got.residual) is float
        if want.status == "SKIPPED":
            assert np.isnan(got.residual)
        else:
            assert abs(got.residual - want.residual) <= 1e-12, got.name


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("name", ["table_weight", "uneven_branches"])
def test_kernel_sup_bound_holds_for_eigenvalue_off_one(name, n):
    # a correctly solved h satisfies R h = rho h with rho != 1 here, and the
    # bound sup|f| * rho * h holds for it
    op, lam, h, rho = _oracle_case(name, n)
    assert abs(rho - 1.0) > 0.01
    check = towb.identity_suite(op, lam, h, rho=rho).by_name(
        "kernel_sup_bound")
    assert check.status == "PASS", check


N_CONTROL = 256
# The residuals of lam_steps as sums over its 256 cells give them; its two
# runs of constant density must give the same.
STEPS_RESIDUALS = {"adjoint_duality": 1.0815980719662208,
                   "sigma_invariance": 0.4408001109598889,
                   "preimage_weight_square": 0.16104110518282755}


def _control_lam(broken: str | None, n: int) -> Measure:
    if broken == "lam":
        return Measure.from_density(lambda x: 0.5 + x, n).normalized()
    if broken == "lam_steps":  # density 0.5 on [0, 1/2), 1.5 on [1/2, 1)
        return Measure(np.where(np.arange(n) < n // 2, 0.5, 1.5) / n)
    if broken == "lam_ulp":  # Lebesgue, every other cell an ulp up: N runs
        return Measure(np.where(np.arange(n) % 2, np.nextafter(1 / n, 1.0),
                                1 / n))
    return Measure.lebesgue(n)


@pytest.mark.parametrize("broken, failing", [
    (None, set()),
    ("branch_offset", {"pullback_product", "composition_multiplier"}),
    ("lam", {"preimage_weight_square"}),
    ("weight", {"harmonic_support_multiplier"}),
    ("h", {"kernel_sup_bound"}),
    ("lam_steps", set(STEPS_RESIDUALS)),
    ("lam_ulp", set()),
])
def test_negative_control_fails_named_check(broken, failing):
    # each case breaks exactly one ingredient of the doubling system;
    # lam_steps breaks lam into two runs of unequal density, while lam_ulp
    # is Lebesgue measure split into N runs by ulps, and passes
    n = N_CONTROL
    offsets = [0.0, 0.49] if broken == "branch_offset" else [0.0, 0.5]
    weight = WeightExpr.constant(0.9 if broken == "weight" else 1.0)
    system = make_system([0.5, 0.5], offsets, [0.5, 0.5], weight, sigma=2,
                         n_grid=n, validate=broken != "branch_offset")
    h = (GridFunction.from_callable(
        lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x), n)
         if broken == "h" else GridFunction.constant(1.0, n))
    suite = towb.identity_suite(TransferOperator(system, n),
                                _control_lam(broken, n), h, trials=10, seed=0)
    for check in suite.checks:
        if check.name in failing:
            assert check.status == "FAIL", check
    if not failing:
        assert suite.counts() == {"PASS": 7, "FAIL": 0, "SKIPPED": 0}
    if broken == "lam_steps":
        for name, want in STEPS_RESIDUALS.items():
            assert abs(suite.by_name(name).residual - want) <= 1e-14, name


def test_preimage_rule_takes_one_evaluation_per_side(op_b, lam_std, sol_b,
                                                     monkeypatch):
    # 76 and 100 trials both run four blocks of (a) to (d), so only check
    # (e) could tell them apart: it integrates every region at once
    calls = []
    anti = TrigPoly.antiderivative_values

    def counting(self, x):
        calls.append(np.size(x))
        return anti(self, x)

    monkeypatch.setattr(TrigPoly, "antiderivative_values", counting)
    counts = []
    for trials in (76, 100):
        calls.clear()
        suite = towb.identity_suite(op_b, lam_std, sol_b.h, trials=trials)
        assert suite.by_name("preimage_weight_square").status == "PASS"
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_harmonic_support_skipped_for_eigenvalue_off_one():
    # constant weight 0.5 on the doubling map: R 1 = 0.5, sup R(W) = 0.25;
    # the lemma R(W) = 1 needs R h = h, so (f) is skipped for rho = 0.5,
    # and (g) bounds by 0.5 h
    system = towb.doubling_system(WeightExpr.constant(0.5), N_CONTROL)
    op = TransferOperator(system, N_CONTROL)
    lam = Measure.lebesgue(N_CONTROL)
    sol = towb.solve_harmonic(op, lam)
    assert sol.rho == 0.5
    suite = towb.identity_suite(op, lam, sol.h, trials=10, rho=sol.rho)
    check = suite.by_name("harmonic_support_multiplier")
    assert check.status == "SKIPPED"
    assert check.note == "lemma needs R h = h (rho = 0.5)"
    assert suite.counts() == {"PASS": 6, "FAIL": 0, "SKIPPED": 1}
    # claiming R h = 0.4 h breaks the sup bound
    assert towb.identity_suite(op, lam, sol.h, trials=10, rho=0.4).by_name(
        "kernel_sup_bound").status == "FAIL"


def test_inferred_gap_sigma_agrees_with_full_map_on_preimage_rule(
        op_d, lam_triadic):
    # the inferred middle-thirds sigma leaves [1/3, 2/3) to its first
    # piece; its preimages must be those of sigma_slope = 3
    inferred = make_system([1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5],
                           WeightExpr.constant(1.0), n_grid=243)
    assert len(inferred.sigma.pieces) == 2
    h = GridFunction.constant(1.0, 243)
    checks = [towb.identity_suite(op, lam_triadic, h, trials=20).by_name(
        "preimage_weight_square")
        for op in (op_d, TransferOperator(inferred, 243))]
    assert checks[0].status == "PASS"
    assert checks[1] == checks[0]


def test_suite_rejects_zero_trials(op_a, lam_std, sol_a):
    with pytest.raises(towb.errors.DomainError, match="trial"):
        towb.identity_suite(op_a, lam_std, sol_a.h, trials=0)


@pytest.mark.parametrize("n", [256, 1024])
def test_integral_checks_exact_when_sigma_is_not_m_x_mod_1(n):
    # sigma inferred from branches of slopes 1/3 and 2/3 has pieces of slopes
    # 3 and 3/2; Lebesgue measure is sigma-invariant and lam . R has density
    # W, so both integral identities hold exactly at every N
    system = make_system([1 / 3, 2 / 3], [0.0, 1 / 3], [1 / 3, 2 / 3],
                         WeightExpr.trig(1.0, [0.5]), n_grid=n)
    op = TransferOperator(system, n)
    lam = Measure.lebesgue(n)
    suite = towb.identity_suite(op, lam, towb.solve_harmonic(op, lam).h,
                                trials=30, seed=0)
    for name in ("adjoint_duality", "sigma_invariance"):
        assert suite.by_name(name).status == "PASS"
        assert suite.by_name(name).residual < 1e-13


# -- the stacked kernel against the per-branch forms -------------------------


def _stacked_branch_points(op, x):
    """Branch images as one ``wrap_unit(br(x))`` per branch, stacked."""
    xs = np.asarray(x, dtype=float)
    return np.stack([wrap_unit(br(xs)) for br in op.system.branches])


def _stacked_branch_masses(op, pts):
    """``p_i W(y)`` with the probabilities converted on every call."""
    probs = np.array(op.system.probs)
    return probs.reshape((-1,) + (1,) * (pts.ndim - 1)) * np.asarray(
        op.system.weight(pts), dtype=float)


def _chained_apply_symbolic(op, f):
    """``R f`` as the chained per-branch sum: ``compose_affine``, then
    ``* p_i``, then ``+``, merging after every step."""
    w = op.system.weight.trigpoly
    if w is None or any(br.mod_one for br in op.system.branches):
        return None
    wf = w * f
    terms = [wf.compose_affine(br.slope, br.offset) * p
             for br, p in zip(op.system.branches, op.system.probs)]
    return sum(terms[1:], terms[0])


_COS_WEIGHT = WeightExpr.trig(1.0, [0.3, 0.1], [0.2])
# name -> (slopes, offsets, probs, weight, mod_one)
_KERNEL_SYSTEMS = {
    "doubling": ([0.5, 0.5], [0.0, 0.5], [0.5, 0.5], _COS_WEIGHT, False),
    "three_branch": ([1 / 3] * 3, [0.0, 1 / 3, 2 / 3], [0.2, 0.3, 0.5],
                     _COS_WEIGHT, False),
    "uneven": ([1 / 3, 2 / 3], [0.0, 1 / 3], [1 / 3, 2 / 3],
               WeightExpr.trig(1.0, [0.5]), False),
    "negative_slope": ([-0.5, 0.5], [0.5, 0.5], [0.4, 0.6], _COS_WEIGHT,
                       False),
    "mod_one": ([0.5, 0.5], [0.25, 0.75], [0.5, 0.5], _COS_WEIGHT, True),
}


def _kernel_op(name, n=64):
    slopes, offsets, probs, weight, mod_one = _KERNEL_SYSTEMS[name]
    system = make_system(slopes, offsets, probs, weight, sigma=2,
                         validate=False, mod_one=mod_one)
    return TransferOperator(system, n)


@pytest.mark.parametrize("name", sorted(_KERNEL_SYSTEMS))
def test_branch_kernel_matches_per_branch_stack_bitwise(name):
    op = _kernel_op(name)
    rng = np.random.default_rng(11)
    for x in (0.3, np.float64(0.0), rng.random(17), rng.random((3, 5)),
              np.array([0.0, 0.5, 1 - 2**-53, 0.25])):
        got, want = op.branch_points(x), _stacked_branch_points(op, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        masses = op.branch_masses(got)
        oracle = _stacked_branch_masses(op, want)
        assert masses.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("name", sorted(set(_KERNEL_SYSTEMS) - {"mod_one"}))
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 8),
       trials=st.sampled_from([None, 1, 3]))
@settings(max_examples=40, deadline=None)
def test_apply_symbolic_matches_chained_sum_bitwise(name, seed, degree,
                                                   trials):
    op = _kernel_op(name)
    f = TrigPoly.random(np.random.default_rng(seed), degree, trials)
    got, want = op.apply_symbolic(f), _chained_apply_symbolic(op, f)
    assert got.freqs.tobytes() == want.freqs.tobytes()
    assert got.coefs.tobytes() == want.coefs.tobytes()


def test_apply_symbolic_refuses_wrapping_branches():
    op = _kernel_op("mod_one")
    assert op.apply_symbolic(TrigPoly.constant(1.0)) is None


def _digest_configs(tmp_path):
    """Every bundled fixture and every config the report digest generates
    that builds, as ``name -> (system, cells)``."""
    spec = importlib.util.spec_from_file_location(
        "report_digest", os.path.join(os.path.dirname(__file__), os.pardir,
                                      "tools", "report_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    paths = {name: os.path.join(FIXTURE_DIR, f"{name}.cfg")
             for name in digest.FIXTURES}
    for name, text in digest.GENERATED.items():
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text, encoding="utf-8")
    built = {}
    for name, path in paths.items():
        try:
            cfg = load_config(path)
            built[name] = cfg.build_system(), cfg.cells
        except ConfigError:
            continue
    return built


def test_transition_matrix_matches_chained_closure_on_digest_configs(
        tmp_path, monkeypatch):
    configs = _digest_configs(tmp_path)
    matrices = {name: TransferOperator(system, cells).transition_matrix()
                for name, (system, cells) in configs.items()}
    monkeypatch.setattr(TransferOperator, "apply_symbolic",
                        _chained_apply_symbolic)
    exact = 0
    for name, (system, cells) in configs.items():
        want = TransferOperator(system, cells).transition_matrix()
        got = matrices[name]
        assert (got is None) == (want is None), name
        if got is not None:
            exact += 1
            assert got.shape == want.shape and \
                got.tobytes() == want.tobytes(), name
    assert exact >= 10
