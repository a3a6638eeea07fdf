import numpy as np
import pytest

import towb
from towb import GridFunction, IntervalSet, Measure, TransferOperator
from towb.system import WeightExpr, make_system
from towb.transfer import IdentityCheck, _compose_sigma, _random_intervals
from towb.trig import TrigPoly


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
    def test_branch_atoms_sys_a(self, op_a):
        k = op_a.kernel(0.4)
        assert np.allclose(k.points, [0.2, 0.7])
        assert np.allclose(k.masses, [0.5, 0.5])

    def test_zero_mass_atom_sys_b(self, op_b):
        k = op_b.kernel(0.0)
        assert np.allclose(k.points, [0.0, 0.5])
        assert k.masses[0] == pytest.approx(1.0)
        assert k.masses[1] == pytest.approx(0.0, abs=1e-15)

    def test_branch_atoms_sys_d(self, op_d):
        k = op_d.kernel(0.0)
        assert np.allclose(k.points, [0.0, 2 / 3])
        assert np.allclose(k.masses, [0.5, 0.5])

    def test_kernel_consistent_with_apply(self, op_b):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = TrigPoly.random(rng, degree=5)
            x = float(rng.random())
            via_kernel = op_b.kernel(x).expectation(f)
            via_apply = float(op_b.apply_fn(f)(x))
            assert via_kernel == via_apply  # same arithmetic path


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
        assert op_a.is_adjoint_isometry()

    def test_sys_b_value(self, op_b):
        rw = op_b.rw_multiplier()
        oracle = 1.0 + np.cos(np.pi * op_b.nodes) ** 2
        assert np.max(np.abs(rw.values - oracle)) < 1e-12
        assert rw.values[0] == pytest.approx(2.0)
        assert not op_b.is_adjoint_isometry()

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
        w_sq = op_a.system.weight.as_trigpoly()
        lhs = towb.integrate_over(w_sq * w_sq, lam_std, pre)
        rw = op_a.rw_multiplier_symbolic()
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


def _identity_suite_per_trial(op, lam, h, trials, seed, tol=1e-8):
    """Reference: the identity battery run one test function at a time,
    each drawn by its own ``TrigPoly.random`` call."""
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
        f_sig = _compose_sigma(op, f)
        lhs = op.apply_fn(lambda y, f_sig=f_sig, g=g:
                          np.asarray(f_sig(y)) * np.asarray(g(y)))(nodes)
        rhs = np.asarray(f(nodes)) * op.apply_fn(g)(nodes)
        resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    checks.append(IdentityCheck("pullback_product", status(resid), resid, tol))

    resid = 0.0
    w_tp = weight.as_trigpoly()
    for f, g in zip(fs, gs):
        f_sig = _compose_sigma(op, f)
        rg = op.apply_symbolic(g)
        if w_tp is not None and isinstance(f_sig, TrigPoly) and rg is not None:
            lhs = towb.integrate(w_tp * f_sig * g, lam)
            rhs = towb.integrate(f * rg, lam)
        else:
            lhs = towb.integrate(lambda y: np.asarray(weight(y)) *
                                 np.asarray(f_sig(y)) * np.asarray(g(y)), lam)
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
        f_sig = _compose_sigma(op, f)
        resid = max(resid, abs(towb.integrate(f_sig, lam) -
                               towb.integrate(f, lam)))
    checks.append(IdentityCheck("sigma_invariance", status(resid), resid, tol))

    rw_sym = op.rw_multiplier_symbolic()
    if w_tp is None or rw_sym is None:
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
    if float(np.max(rw_vals)) > 1.0 + 1e-9:
        checks.append(IdentityCheck("harmonic_support_multiplier", "SKIPPED",
                                    np.nan, tol))
    else:
        active = np.abs(h.resample(op.n_grid).values) > 1e-10
        resid = float(np.max(np.abs(np.asarray(rw_fn(nodes))[active] - 1.0))) \
            if np.any(active) else 0.0
        checks.append(IdentityCheck("harmonic_support_multiplier",
                                    status(resid), resid, tol))

    h_on_grid = h.resample(op.n_grid)
    branch_nodes = op.branch_points(nodes).ravel()
    resid = 0.0
    for f in fs:
        sup_f = float(np.max(np.abs(np.concatenate(
            [np.asarray(f(branch_nodes)), np.asarray(f(nodes))]))))
        rfh = op.apply_fn(lambda y, f=f: np.asarray(f(y)) *
                          np.asarray(h_on_grid(y)))(nodes)
        excess = np.abs(rfh) - sup_f * np.asarray(h_on_grid(nodes))
        resid = max(resid, float(np.max(excess)))
    checks.append(IdentityCheck("kernel_sup_bound", status(resid), resid, tol))
    return checks


def _oracle_case(name):
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
    return op, lam, towb.solve_harmonic(op, lam).h


@pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_d", "table_weight",
                                  "uneven_branches"])
def test_batched_suite_matches_per_trial_oracle(name):
    # 30 trials span a full block and a partial one
    op, lam, h = _oracle_case(name)
    suite = towb.identity_suite(op, lam, h, trials=30, seed=3)
    oracle = _identity_suite_per_trial(op, lam, h, trials=30, seed=3)
    assert [c.name for c in suite.checks] == [c.name for c in oracle]
    assert [c.status for c in suite.checks] == [c.status for c in oracle]
    for got, want in zip(suite.checks, oracle):
        assert type(got.residual) is float
        if want.status == "SKIPPED":
            assert np.isnan(got.residual)
        else:
            assert abs(got.residual - want.residual) <= 1e-12, got.name


N_CONTROL = 256


@pytest.mark.parametrize("broken, failing", [
    (None, set()),
    ("branch_offset", {"pullback_product", "composition_multiplier"}),
    ("lam", {"preimage_weight_square"}),
    ("weight", {"harmonic_support_multiplier"}),
    ("h", {"kernel_sup_bound"}),
])
def test_negative_control_fails_named_check(broken, failing):
    # each case breaks exactly one ingredient of the doubling system
    n = N_CONTROL
    offsets = [0.0, 0.49] if broken == "branch_offset" else [0.0, 0.5]
    weight = WeightExpr.constant(0.9 if broken == "weight" else 1.0)
    system = make_system([0.5, 0.5], offsets, [0.5, 0.5], weight, sigma=2,
                         n_grid=n, validate=broken != "branch_offset")
    lam = (Measure.from_density(lambda x: 0.5 + x, n).normalized()
           if broken == "lam" else Measure.lebesgue(n))
    h = (GridFunction.from_callable(
        lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x), n)
         if broken == "h" else GridFunction.constant(1.0, n))
    suite = towb.identity_suite(TransferOperator(system, n), lam, h,
                                trials=10, seed=0)
    for check in suite.checks:
        if check.name in failing:
            assert check.status == "FAIL", check
    if broken is None:
        assert suite.counts() == {"PASS": 7, "FAIL": 0, "SKIPPED": 0}


def test_suite_rejects_zero_trials(op_a, lam_std, sol_a):
    with pytest.raises(towb.errors.DomainError, match="trial"):
        towb.identity_suite(op_a, lam_std, sol_a.h, trials=0)
