import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towb
from towb import (CylinderFunction, GridFunction, IntervalSet, Measure,
                  PathMeasure, SolPath, TransferOperator)
from towb.errors import ConfigError, DomainError
from towb.grid import integrate_regions
from towb.system import WeightExpr, make_system
from towb.transfer import kernel_sum
from towb.trig import TrigPoly


def _id(x):
    return np.asarray(x, dtype=float)


def _nested_oracle(pm, inner):
    """``R(f_1 R(f_2 ... R(f_m h)))`` as a chain of ``apply_fn`` closures."""
    k = pm.h
    for f in reversed(inner):
        prev = k
        if f is None:
            k = pm.op.apply_fn(prev)
        else:
            k = pm.op.apply_fn(lambda y, f=f, prev=prev:
                               np.asarray(f(y), dtype=float) *
                               np.asarray(prev(y), dtype=float))
    return k


def _forward_oracle(pm, x, sets):
    """Cylinder mass by enumerating the branch words outward from ``x``,
    accumulating each word's kernel weight on the way."""
    system = pm.op.system
    ys, ws = np.array([float(x)]), np.array([1.0])
    for a in sets:
        pts = pm.op.branch_points(ys)
        ws = (ws[None, :] * np.array(system.probs)[:, None] *
              np.asarray(system.weight(pts), dtype=float)).ravel()
        ys = pts.ravel()
        if a is not None:
            ws = ws * a.indicator(ys)
    return float(np.dot(ws, pm.h(ys)))


@pytest.fixture(scope="module", params=["sys_a", "sys_b", "sys_d"])
def pm_small(request):
    n = 243 if request.param == "sys_d" else 256
    op = TransferOperator(getattr(towb, request.param)(n), n)
    lam = Measure.lebesgue(n)
    return PathMeasure.build(op, towb.solve_harmonic(op, lam).h, lam)


@pytest.fixture(scope="module")
def pm_c(op_a):
    # sys_c: sys_a paired with the point mass at 0, where h = 1 is harmonic
    # but the pushed base measure has no density W against lam
    return PathMeasure.build(op_a, GridFunction.constant(1.0, op_a.n_grid),
                             Measure.dirac(0.0, op_a.n_grid))


def _random_set(rng):
    lo = rng.uniform(0.0, 0.6)
    return IntervalSet([(lo, lo + rng.uniform(0.1, 0.39))])


def _random_factor(rng):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return None
    return _random_set(rng) if kind == 1 else TrigPoly.random(rng, 3)


class TestPaths:
    def test_coordinates_doubling(self, op_a):
        path = SolPath(0.0, (1, 1))
        assert np.allclose(towb.coordinates(op_a, path), [0.0, 0.5, 0.75])

    def test_coordinates_empty_word(self, op_a):
        assert np.allclose(towb.coordinates(op_a, SolPath(0.4, ())), [0.4])

    def test_coordinates_thirds(self, op_d):
        assert np.allclose(towb.coordinates(op_d, SolPath(0.0, (1,))),
                           [0.0, 2 / 3])

    def test_backward_consistency(self, op_a):
        # every coordinate is the expanding image of the next one
        rng = np.random.default_rng(0)
        for _ in range(50):
            path = SolPath(float(rng.random()),
                           tuple(rng.integers(0, 2, 5).tolist()))
            xs = towb.coordinates(op_a, path)
            back = np.asarray(op_a.system.sigma(xs[1:]))
            assert np.max(np.abs(back - xs[:-1])) < 1e-12

    def test_shift_forward_example(self, op_a):
        out = towb.shift_forward(op_a, SolPath(0.75, ()))
        assert out.base == pytest.approx(0.5)
        assert out.digits == (1,)

    def test_shift_back_example(self, op_a):
        out = towb.shift_back(op_a, SolPath(0.2, (0,)))
        assert out.base == pytest.approx(0.1)
        assert out.digits == ()

    def test_shift_roundtrip_exact(self, op_a):
        rng = np.random.default_rng(1)
        for _ in range(200):
            path = SolPath(float(rng.random()),
                           tuple(rng.integers(0, 2, 4).tolist()))
            again = towb.shift_back(op_a, towb.shift_forward(op_a, path))
            assert again == path

    def test_boundary_tie_takes_lowest_branch(self, op_a):
        # base 0 is the image of both branch 0 (of 0) and the wrap point
        out = towb.shift_forward(op_a, SolPath(0.0, ()))
        assert out.digits[0] == 0

    def test_shift_back_needs_digits(self, op_a):
        with pytest.raises(DomainError):
            towb.shift_back(op_a, SolPath(0.3, ()))


class TestCylinderMass:
    def test_single_constraint(self, pm_a):
        spec = CylinderFunction([None, IntervalSet([(0.0, 0.25)])])
        assert towb.cylinder_mass(pm_a, 0.3, spec) == pytest.approx(0.5)
        assert towb.cylinder_mass(pm_a, 0.7, spec) == 0.0

    def test_two_constraints_single_word(self, pm_a):
        half = IntervalSet([(0.0, 0.5)])
        spec = CylinderFunction([None, half, half])
        for x in (0.05, 0.3, 0.62, 0.99):
            assert towb.cylinder_mass(pm_a, x, spec) == pytest.approx(0.25)

    def test_total_mass_is_h(self, pm_b):
        spec = CylinderFunction([None, None, None, None])
        for x in (0.0, 0.21, 0.5, 0.83):
            assert towb.cylinder_mass(pm_b, x, spec) == pytest.approx(
                float(pm_b.h(x)), abs=1e-9)

    def test_consistency_under_extension(self, pm_b):
        rng = np.random.default_rng(2)
        for _ in range(10):
            depth = int(rng.integers(1, 5))
            sets = []
            for _ in range(depth):
                lo = rng.uniform(0, 0.6)
                sets.append(IntervalSet([(lo, lo + rng.uniform(0.1, 0.39))]))
            spec = CylinderFunction([None, *sets])
            x = float(rng.random())
            m0 = towb.cylinder_mass(pm_b, x, spec)
            m1 = towb.cylinder_mass(pm_b, x, CylinderFunction(
                spec.components + (None,)))
            assert abs(m1 - m0) < 10 * max(pm_b.h_residual, 1e-15)

    def test_depth_guard(self, pm_a):
        with pytest.raises(DomainError):
            towb.cylinder_mass(pm_a, 0.1, CylinderFunction([None] * 18))

    def test_untrusted_h_is_gated_only_at_construction(self, op_a, lam_std):
        # the constructors gate the residual once; a non-strict measure of
        # an untrusted h is answered as its conditional expectation
        bad = PathMeasure.build(op_a, GridFunction.from_callable(_id, 1024),
                                lam_std, strict=False)
        assert bad.h_residual > 1e-6
        spec = CylinderFunction([None, None])
        assert towb.cylinder_mass(bad, 0.1, spec) == \
            towb.conditional_expectation(bad, spec, 0.1)

    def test_bases_are_reduced_mod_one(self):
        # on p = (1/4, 3/4) the first coordinate lies in [0, 1/2) with mass
        # 1/4 at the base 0.5; the bases 1.5 and -0.5 are the same point
        n = 256
        system = make_system([0.5, 0.5], [0.0, 0.5], [0.25, 0.75],
                             WeightExpr.constant(1.0), sigma=2)
        pm = PathMeasure.build(TransferOperator(system, n),
                               GridFunction.constant(1.0, n),
                               Measure.lebesgue(n))
        spec = CylinderFunction.parse("[0,0.5)")
        bases = np.array([0.5, 1.5, -0.5])
        masses = [towb.cylinder_mass(pm, x, spec) for x in bases]
        assert masses == [0.25] * 3
        assert np.array_equal(
            towb.conditional_expectation(pm, spec, bases), masses)
        freqs = {towb.empirical_cylinder_frequency(
            pm, x, spec, 1000, np.random.default_rng(0)) for x in bases}
        assert len(freqs) == 1

    def test_spec_parsing(self):
        spec = CylinderFunction.parse("[0,0.25);all;[0.5,0.75)u[0.8,0.9)")
        assert spec.depth == 3
        assert spec.components[0] is None
        assert spec.components[2] is None
        assert spec.components[3].intervals == ((0.5, 0.75), (0.8, 0.9))


# endpoints in [0, 1], and anywhere else: negative, above 1, nan and inf
_ENDPOINTS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]),
                       st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _spec_texts(draw):
    """A spec of up to four coordinates, each ``all`` or up to three
    ``[a,b)`` pieces joined by ``u``, and whether every piece has
    ``0 <= a < b <= 1``."""
    coords = draw(st.lists(
        st.one_of(st.none(), st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS),
                                      min_size=1, max_size=3)),
        min_size=1, max_size=4))
    text = ";".join("all" if pieces is None
                    else "u".join(f"[{a!r},{b!r})" for a, b in pieces)
                    for pieces in coords)
    valid = all(pieces is None or all(0.0 <= a < b <= 1.0 for a, b in pieces)
                for pieces in coords)
    return text, valid


@settings(max_examples=300, deadline=None)
@given(_spec_texts())
def test_spec_parse_returns_unit_intervals_or_config_error(case):
    text, valid = case
    try:
        spec = CylinderFunction.parse(text)
    except ConfigError as exc:
        assert not valid and exc.field == "sets"
        return
    assert valid
    for sets in spec.components[1:]:
        if sets is not None:
            assert all(0.0 <= lo < hi <= 1.0 for lo, hi in sets.intervals)


class TestExpectation:
    def test_base_coordinate_mean(self, pm_a):
        assert towb.expectation(pm_a, [_id]) == pytest.approx(0.5)

    def test_first_coordinate_mean(self, pm_a):
        assert towb.expectation(pm_a, [None, _id]) == \
            pytest.approx(0.5, abs=1e-12)

    def test_total_is_probability(self, pm_b):
        assert towb.expectation(pm_b, [None]) == \
            pytest.approx(1.0, abs=1e-10)

    def test_mc_agrees_with_exact(self, pm_b):
        rng = np.random.default_rng(3)
        psi = [None, TrigPoly.random(rng, 3), TrigPoly.random(rng, 3)]
        exact = towb.expectation(pm_b, psi)
        bases = towb.sample_bases(pm_b, 200_000, rng)
        _, coords = towb.sample_paths(pm_b, bases, 2, rng)
        vals = CylinderFunction(psi).eval_on_coords(coords)
        est, se = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(est - exact) < 5 * se

    def test_conditional_expectation_example(self, pm_a):
        assert towb.conditional_expectation(pm_a, [None, _id], 0.0) == \
            pytest.approx(0.25)

    def test_conditional_of_one_is_h(self, pm_b):
        for x in (0.1, 0.37, 0.9):
            assert towb.conditional_expectation(pm_b, [None], x) == \
                pytest.approx(float(pm_b.h(x)), abs=1e-10)

    def test_v0_adjoint_of_one(self, pm_b):
        out = towb.v0_adjoint(pm_b, [None])
        assert np.max(np.abs(out.values - 1.0)) < 1e-9

    def test_conditional_bound(self, pm_b):
        rng = np.random.default_rng(4)
        nodes = pm_b.op.nodes
        pts = np.concatenate([pm_b.op.branch_points(nodes).ravel(), nodes])
        for _ in range(20):
            psi = CylinderFunction([TrigPoly.random(rng, 3)
                                    for _ in range(3)])
            sup = np.prod([np.max(np.abs(f(pts))) for f in psi.components])
            for x in (0.0, 0.3, 0.77):
                val = towb.conditional_expectation(pm_b, psi, x)
                assert abs(val) <= sup * float(pm_b.h(x)) + 1e-9

    def test_v0_isometry(self, pm_a, lam_std):
        g = IntervalSet([(0.0, 0.5)]).indicator
        lifted_norm = towb.expectation(
            pm_a, [lambda x: np.asarray(g(x)) ** 2])
        base_norm = towb.integrate(lambda x: np.asarray(g(x)) ** 2 *
                                   np.asarray(pm_a.h(x)), lam_std)
        assert lifted_norm == pytest.approx(0.5, abs=1e-12)
        assert base_norm == pytest.approx(0.5, abs=1e-12)


    @pytest.mark.parametrize("atoms", [[], [(0.1, 0.2), (0.9999, 0.3)]])
    def test_grid_h_on_another_grid_integrates_by_one_rule(self, atoms):
        # h on 256 nodes against lam on 96 cells: the mass gate's integral
        # and the expectation of 1 both read h's interpolant at lam's cell
        # midpoints and atoms, and agree bit for bit
        op = TransferOperator(towb.sys_b(256), 256)
        h = GridFunction.from_callable(
            lambda x: 1 + 0.5 * np.abs(np.sin(3 * np.pi * x)), 256)
        lam = Measure(np.linspace(1.0, 2.0, 96), atoms).normalized()
        pm = PathMeasure.build(op, h, lam, strict=False)
        assert towb.integrate(h, lam) == towb.expectation(
            pm, CylinderFunction([None]))


class TestQuasiInvariance:
    def test_depth_zero_reduces_to_harmonic_residual(self, pm_a, pm_b):
        rng = np.random.default_rng(5)
        for pm in (pm_a, pm_b):
            for _ in range(5):
                psi = CylinderFunction([TrigPoly.random(rng, 5)])
                assert abs(towb.quasi_invariance_defect(pm, psi)) < 1e-10

    def test_cosine_weight_base_integral(self, pm_b, lam_std):
        # both sides of the shifted/unshifted pair integrate the base
        # coordinate to 1/2 for the cosine weight
        sigma = pm_b.op.system.sigma
        w = pm_b.op.system.weight
        lhs = towb.integrate(lambda x: np.asarray(w(x)) * _id(sigma(x)) *
                             np.asarray(pm_b.h(x)), lam_std)
        rhs = towb.integrate(lambda x: _id(x) * np.asarray(pm_b.h(x)),
                             lam_std)
        assert lhs == pytest.approx(0.5, abs=1e-9)
        assert rhs == pytest.approx(0.5, abs=1e-9)
        psi = CylinderFunction([_id])
        assert abs(towb.quasi_invariance_defect(pm_b, psi)) < 1e-10

    def test_depth_two_exact(self, pm_a):
        rng = np.random.default_rng(6)
        for _ in range(10):
            psi = CylinderFunction([TrigPoly.random(rng, 4)
                                    for _ in range(3)])
            assert abs(towb.quasi_invariance_defect(pm_a, psi)) < 1e-12

    @pytest.mark.parametrize("depth, message", [
        (18, "path depth 17 exceeds 16")])
    def test_too_deep_rejected_by_the_kernel(self, pm_a, depth, message):
        # the enumeration's own bounds refuse a cylinder too deep to sum
        with pytest.raises(DomainError, match=message):
            towb.quasi_invariance_defect(pm_a, [None] * (depth + 1))


class TestUnitary:
    def test_constant_function_norm(self, pm_b, lam_std):
        # ||U 1||^2 integrates the weight against h dlam, which is 1
        psi = CylinderFunction([None])
        u_psi = towb.u_apply(pm_b, psi)
        norm_sq = towb.expectation(pm_b, u_psi.squared())
        assert norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_unit_weight_shift_identity(self, pm_a):
        # with W = 1 the weighted shift moves a level-n factor to level n-1
        rng = np.random.default_rng(8)
        f = TrigPoly.random(rng, 4)
        psi = CylinderFunction([None, None, f])
        u_psi = towb.u_apply(pm_a, psi)
        bases = towb.sample_bases(pm_a, 100, rng)
        _, coords = towb.sample_paths(pm_a, bases, 3, rng)
        lhs = u_psi.eval_on_coords(coords)
        rhs = np.asarray(f(coords[:, 1]))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unitarity_both_fixtures(self, pm_a, pm_b):
        assert towb.unitarity_check(pm_a, trials=20, seed=0) < 1e-10
        assert towb.unitarity_check(pm_b, trials=20, seed=0) < 1e-10

    def test_norm_defect_is_quasi_invariance_defect_of_square(
            self, pm_a, pm_b, pm_c):
        # |U psi|^2 = W(x_0) |psi o shift|^2: the norm defect of U, taken
        # through u_apply, is the quasi-invariance defect of psi^2, also
        # where both are far from zero (the point mass of pm_c)
        rng = np.random.default_rng(11)
        for pm in (pm_a, pm_b, pm_c):
            for _ in range(3):
                psi = CylinderFunction([TrigPoly.random(rng, 4)
                                        for _ in range(3)])
                norm_defect = (
                    towb.expectation(pm, towb.u_apply(pm, psi).squared())
                    - towb.expectation(pm, psi.squared()))
                defect = towb.quasi_invariance_defect(pm, psi.squared())
                if pm is pm_c:
                    assert abs(defect) > 1e-6
                    assert norm_defect == pytest.approx(defect, rel=1e-12)
                else:
                    assert norm_defect == pytest.approx(defect, abs=1e-14)


def _quasi_draws(seed, trials):
    """The polynomials ``towb quasi`` draws, in its order: per trial a
    depth in 1..3, then one degree-4 polynomial per coordinate."""
    rng = np.random.default_rng(seed)
    return [[TrigPoly.random(rng, degree=4)
             for _ in range(int(rng.integers(1, 4)) + 1)]
            for _ in range(trials)]


def _unitarity_draws(seed, trials, depth=2):
    rng = np.random.default_rng(seed)
    return [[TrigPoly.random(rng, degree=4) for _ in range(depth + 1)]
            for _ in range(trials)]


def _batch_order(draws):
    """Trial indices in the order the batches of ``batch_trials`` hold them:
    depth groups in order of first occurrence, draw order within."""
    depths = dict.fromkeys(len(f) for f in draws)
    return [i for d in depths for i, f in enumerate(draws) if len(f) == d]


def _close(pm, pm_c, got, want):
    if pm is pm_c:
        assert got == pytest.approx(want, rel=1e-12)
    else:
        assert got == pytest.approx(want, abs=1e-13)


class TestTrialBatches:
    """The batched shift checks against the per-trial loop they replace,
    kept here as the oracle."""

    def test_batched_defects_match_per_trial_loop(self, pm_a, pm_b, pm_c):
        trials = 20
        draws = _quasi_draws(7, trials)
        for pm in (pm_a, pm_b, pm_c):
            oracle = [towb.quasi_invariance_defect(pm, CylinderFunction(f))
                      for f in draws]
            batched = np.concatenate([
                towb.quasi_invariance_defect(pm, psi)
                for psi in towb.batch_trials(draws)])
            assert batched.shape == (trials,)
            for got, i in zip(batched, _batch_order(draws)):
                _close(pm, pm_c, got, oracle[i])
            _close(pm, pm_c, towb.worst_quasi_defect(
                pm, towb.batch_trials(draws)), max(abs(d) for d in oracle))

    @pytest.mark.parametrize("trials", [20, 30])
    def test_unitarity_matches_per_trial_loop(self, pm_a, pm_b, pm_c,
                                              trials):
        # 30 trials span two batches of at most TRIAL_BLOCK = 25
        for pm in (pm_a, pm_b, pm_c):
            oracle = max(abs(towb.quasi_invariance_defect(
                pm, CylinderFunction(f).squared()))
                for f in _unitarity_draws(3, trials))
            _close(pm, pm_c, towb.unitarity_check(pm, trials=trials, seed=3),
                   oracle)

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_shapes_lead_with_trials(self, pm_b, monkeypatch, seed):
        # a batch of T trials puts T in front of its values, antiderivatives,
        # region integrals, kernel sums and expectations over many bases
        # (here split into chunks of two bases), and row t is the single
        # polynomial take_trials(t) to 1e-15 of the row's size: a value
        # depends on the batch it is evaluated in, so not bit for bit
        import towb.solenoid

        monkeypatch.setattr(towb.solenoid, "WORDS_MAX",
                            2 * 4 * towb.solenoid.TRIAL_BLOCK)
        rng = np.random.default_rng(seed)
        batch = TrigPoly.random(rng, 4, trials=3)
        x = rng.random((2, 5))
        regions = [IntervalSet([(0.1, 0.4)]),
                   IntervalSet([(0.0, 0.2), (0.5, 0.9)])]
        pts, masses = pm_b.op.node_kernel
        cases = [
            (lambda p: p(0.3), ()),
            (lambda p: p(np.array(0.3)), ()),
            (lambda p: p(x[0]), (5,)),
            (lambda p: p(x), (2, 5)),
            (lambda p: p.antiderivative_values(x), (2, 5)),
            (lambda p: integrate_regions(p, pm_b.lam, regions), (2,)),
            (lambda p: kernel_sum(masses, p(pts)), (pm_b.op.n_grid,)),
            (lambda p: towb.conditional_expectation(
                pm_b, CylinderFunction([p, None, p]), x[0]), (5,))]
        for evaluate, shape in cases:
            got = evaluate(batch)
            assert got.shape == (3,) + shape
            for t in range(3):
                want = np.asarray(evaluate(batch.take_trials(t)))
                assert want.shape == shape
                assert np.all(np.abs(got[t] - want)
                              <= 1e-15 * max(1.0, np.max(np.abs(want))))

    def test_batches_hold_todays_draws_bit_for_bit(self, capsys,
                                                   monkeypatch):
        # towb quasi and unitarity_check draw the polynomials the per-trial
        # loop drew, in its order; each batch factor stacks them unchanged
        import towb.cli
        import towb.solenoid

        recorded = []
        original = towb.solenoid.batch_trials

        def record(draws):
            batches = list(original(draws))
            recorded.append(batches)
            return iter(batches)

        monkeypatch.setattr(towb.cli, "batch_trials", record)
        monkeypatch.setattr(towb.solenoid, "batch_trials", record)
        cfg = os.path.join(os.path.dirname(towb.__file__), "fixtures",
                           "sys_b.cfg")
        assert towb.cli.main(["quasi", "--config", cfg]) == 0
        quasi, unitarity = recorded
        assert len(quasi) <= 3 and len(unitarity) == 1
        for batches, draws in ((quasi, _quasi_draws(7, 20)),
                               (unitarity, _unitarity_draws(7, 20))):
            assert sum(psi.components[0].coefs.shape[0]
                       for psi in batches) == len(draws)
            order = iter(_batch_order(draws))
            for psi in batches:
                trials = psi.components[0].coefs.shape[0]
                for t, i in zip(range(trials), order):
                    assert len(psi.components) == len(draws[i])
                    for batch, single in zip(psi.components, draws[i]):
                        assert np.array_equal(batch.freqs, single.freqs)
                        assert (batch.coefs[t].tobytes()
                                == single.coefs.tobytes())

    def test_single_cylinder_functions_give_floats(self, pm_b):
        # without a trials axis every exact evaluator still returns a float
        rng = np.random.default_rng(2)
        psi = CylinderFunction([TrigPoly.random(rng, 4) for _ in range(3)])
        spec = CylinderFunction([None, IntervalSet([(0.0, 0.5)]), None])
        assert isinstance(towb.conditional_expectation(pm_b, psi, 0.3), float)
        assert isinstance(towb.cylinder_mass(pm_b, 0.3, spec), float)
        assert isinstance(towb.expectation(pm_b, psi), float)
        assert isinstance(towb.quasi_invariance_defect(pm_b, psi), float)


class TestMultires:
    def test_fixtures_pass(self, pm_a, pm_b):
        for pm in (pm_a, pm_b):
            out = towb.multires_check(pm, seed=0)
            assert out.nesting_residual < 1e-12
            assert out.shift_residual < 1e-12

    def test_shift_residual_fails_on_point_mass(self, pm_c):
        # negative control: U is not an isometry of L^2(P) when lam is the
        # point mass at 0, while the levels still nest exactly
        out = towb.multires_check(pm_c, seed=0)
        assert out.nesting_residual == 0.0
        assert out.shift_residual > 1e-3

    def test_perturbed_sigma_negative_control(self, lam_std):
        from towb.system import PiecewiseAffineMap
        skewed = PiecewiseAffineMap([(0.0, 0.5, 2.01, 0.0),
                                     (0.5, 1.0, 2.01, -1.005)])
        system = towb.sys_a(1024).with_sigma(skewed)
        op = TransferOperator(system, 1024)
        h = GridFunction.constant(1.0, 1024)
        pm = PathMeasure.build(op, h, lam_std)
        out = towb.multires_check(pm, seed=0)
        assert out.nesting_residual > 1e-3


class TestMarkov:
    def test_joint_mass_drift(self, pm_a):
        a = IntervalSet([(0.0, 0.25)])
        b = IntervalSet([(0.0, 0.5)])
        m1, m2, diff = towb.markov_deviation(pm_a, a, b, 0.3, 2)
        assert m1 == 0.25
        assert m2 == 0.125
        assert diff == -0.125

    def test_degenerate_sets_constant(self, pm_a):
        half = IntervalSet([(0.0, 0.5)])
        m1, m7, _ = towb.markov_deviation(pm_a, half, half, 0.3, 7)
        assert m1 == pytest.approx(0.25, abs=1e-12)
        assert m7 == pytest.approx(0.25, abs=1e-12)

    def test_long_horizon_mixes(self, pm_a, lam_std):
        a = IntervalSet([(0.0, 0.25)])
        b = IntervalSet([(0.0, 0.5)])
        _, m10, _ = towb.markov_deviation(pm_a, a, b, 0.3, 10)
        target = a.total_length() * towb.integrate(
            lambda x: np.asarray(b.indicator(x)) * np.asarray(pm_a.h(x)),
            lam_std)
        assert abs(m10 - target) < 1e-6


class TestHarmonicFromMeasure:
    def test_reproduces_input(self, pm_a, pm_b):
        for pm in (pm_a, pm_b):
            rebuilt, residual = towb.harmonic_from_measure(pm)
            assert residual < 1e-10
            assert np.max(np.abs(rebuilt.values - pm.h(pm.op.nodes))) < 1e-9

    def test_non_harmonic_control(self, op_a, lam_std):
        # feeding the sawtooth exposes a visible fixed-point failure
        bad = PathMeasure.build(op_a, GridFunction.from_callable(_id, 1024),
                                lam_std, strict=False)
        _, residual = towb.harmonic_from_measure(bad)
        assert residual > 0.1

    def test_deeper_total_mass(self, pm_b):
        _, residual = towb.harmonic_from_measure(pm_b, depth=3)
        assert residual < 1e-9


class TestWordSumKernel:
    def test_expectations_match_nested_oracle(self, pm_small):
        rng = np.random.default_rng(11)
        nodes = pm_small.op.nodes
        hv = pm_small.h(nodes)
        for _ in range(12):
            comps = [_random_factor(rng)
                     for _ in range(int(rng.integers(1, 5)))]
            f0, inner = comps[0], comps[1:]
            k = _nested_oracle(pm_small, inner)
            x = float(rng.random())
            head = 1.0 if f0 is None else float(f0(x))
            assert towb.conditional_expectation(pm_small, comps, x) == \
                head * float(k(x))
            at_nodes = np.asarray(k(nodes), dtype=float)
            if f0 is not None:
                at_nodes = at_nodes * np.asarray(f0(nodes), dtype=float)
            assert np.array_equal(
                towb.conditional_expectation(pm_small, comps, nodes), at_nodes)
            assert np.array_equal(towb.v0_adjoint(pm_small, comps).values,
                                  at_nodes / hv)
            # a plain callable, so that both sides take the midpoint rule
            # even when k is an exact TrigPoly h
            want = towb.integrate(
                (lambda y: np.asarray(k(y), dtype=float)) if f0 is None else
                (lambda y: np.asarray(f0(y), dtype=float) *
                 np.asarray(k(y), dtype=float)), pm_small.lam)
            assert towb.expectation(pm_small, comps) == want

    def test_cylinder_mass_matches_both_oracles(self, pm_small):
        rng = np.random.default_rng(12)
        for _ in range(12):
            sets = [_random_set(rng) if rng.random() < 0.7 else None
                    for _ in range(int(rng.integers(1, 6)))]
            x = float(rng.random())
            mass = towb.cylinder_mass(pm_small, x,
                                      CylinderFunction([None, *sets]))
            assert mass == float(_nested_oracle(pm_small, sets)(x))
            forward = _forward_oracle(pm_small, x, sets)
            assert abs(mass - forward) <= 1e-15 * abs(forward)

    def test_markov_matches_nested_oracle(self, pm_small):
        rng = np.random.default_rng(13)
        for n in range(2, 8):
            a, b = _random_set(rng), _random_set(rng)
            m1 = float(_nested_oracle(pm_small, [a, b])(0.3))
            mn = float(_nested_oracle(pm_small, [None] * (n - 1) + [a, b])(0.3))
            assert towb.markov_deviation(pm_small, a, b, 0.3, n) == \
                (m1, mn, mn - m1)

    def test_harmonic_from_measure_matches_nested_oracle(self, pm_small):
        nodes = pm_small.op.nodes
        for depth in (1, 3):
            h_tilde = _nested_oracle(pm_small, [None] * depth)(nodes)
            again = _nested_oracle(pm_small, [None] * (depth + 1))(nodes)
            rebuilt, residual = towb.harmonic_from_measure(pm_small, depth)
            assert np.array_equal(rebuilt.values, h_tilde)
            assert residual == float(np.max(np.abs(again - h_tilde)))

    def test_markov_depth_guard(self, pm_a):
        half = IntervalSet([(0.0, 0.5)])
        with pytest.raises(DomainError):
            towb.markov_deviation(pm_a, half, half, 0.3, 16)

    def test_word_bound_raises_before_allocating(self, monkeypatch):
        # depth 13 passes the depth guard, but with three branches its
        # first sum asks for 3^13 > WORDS_MAX words at a single base, which
        # no chunk of bases makes smaller
        system = towb.make_system([1 / 3] * 3, [0.0, 1 / 3, 2 / 3],
                                  [1 / 3] * 3, towb.WeightExpr.constant(1.0),
                                  sigma=3, n_grid=27)
        op = TransferOperator(system, 27)
        pm = PathMeasure.build(op, GridFunction.constant(1.0, 27),
                               Measure.lebesgue(27))
        built = []
        monkeypatch.setattr(op, "branch_points", built.append)
        with pytest.raises(DomainError, match="1594323 enumerated words at "
                           "one base .* exceed WORDS_MAX"):
            towb.harmonic_from_measure(pm, depth=13)
        assert built == []

    def test_direct_sums_past_the_word_bound(self, pm_b, monkeypatch):
        # with WORDS_MAX at 2^10 a sum over the 1024 nodes takes chunks of
        # 10 bases at depth 2 and of 5 at depth 3; it agrees with the one
        # chunk of the default bound up to the batch-dependent last bits
        # of h's trig sums
        rng = np.random.default_rng(21)
        psi = [TrigPoly.random(rng, 3) for _ in range(4)]
        runs = []
        for words_max in (towb.solenoid.WORDS_MAX, 2**10):
            monkeypatch.setattr(towb.solenoid, "WORDS_MAX", words_max)
            rebuilt, residual = towb.harmonic_from_measure(pm_b)
            runs.append((rebuilt.values, residual,
                         towb.v0_adjoint(pm_b, psi).values))
        for whole, chunked in zip(*runs):
            assert np.max(np.abs(np.asarray(whole) - chunked)) <= 1e-15

    def test_word_bound_admits_its_limit(self, pm_a):
        # 2^10 words at each of the 1024 nodes is exactly WORDS_MAX
        assert 2**10 * pm_a.op.n_grid == towb.solenoid.WORDS_MAX
        total = towb.conditional_expectation(pm_a, [None] * 11, pm_a.op.nodes)
        assert total.shape == (1024,)

    def test_batched_expectation_chunks_by_trials(self, monkeypatch):
        # one batch of 25 depth-3 trials on 16384 bases holds 25 values for
        # each of its 2^17 words: chunked by trials, the defect stays under
        # 32 MiB and equals the single-chunk value
        import tracemalloc

        n = 16384
        op = TransferOperator(towb.sys_b(n), n)
        lam = Measure.lebesgue(n)
        pm = PathMeasure.build(op, towb.solve_harmonic(op, lam).h, lam)
        psi = next(towb.batch_trials(_unitarity_draws(0, 25, depth=3)))
        tracemalloc.start()
        try:
            chunked = towb.quasi_invariance_defect(pm, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        monkeypatch.setattr(towb.solenoid, "WORDS_MAX", 2**30)
        assert np.array_equal(towb.quasi_invariance_defect(pm, psi), chunked)

    def test_harmonic_from_measure_depth_guard(self):
        # depth 16 needs words of length 17, past the kernel's limit
        op = TransferOperator(towb.sys_a(8), 8)
        pm = PathMeasure.build(op, GridFunction.constant(1.0, 8),
                               Measure.lebesgue(8))
        with pytest.raises(DomainError):
            towb.harmonic_from_measure(pm, depth=16)

    @pytest.mark.parametrize("call", ["markov", "harmonic_from_measure"])
    def test_depth_refused_before_allocating(self, pm_a, call):
        # a depth of 10^7 is refused with the kernel's own message, before
        # a list of 10^7 coordinates (80 MB of pointers) is built
        import tracemalloc

        half = IntervalSet([(0.0, 0.5)])
        run = {"markov": lambda: towb.markov_deviation(
                   pm_a, half, half, 0.3, 10_000_000),
               "harmonic_from_measure": lambda: towb.harmonic_from_measure(
                   pm_a, depth=10_000_000)}[call]
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as err:
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        depth_max = towb.solenoid.DEPTH_MAX
        assert str(err.value) == f"path depth 10000001 exceeds {depth_max}"
        assert peak < 1_000_000
