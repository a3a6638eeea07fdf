import numpy as np
import pytest

import towb
from towb import (GridFunction, Measure, SigElement, TransferOperator, defect,
                  defect_search, hutchinson_iterate, l1_membership,
                  lebesgue_decompose, sig_distance_sq, sig_inner, sig_norm_sq)
from towb.errors import DomainError
from towb.sigspace import _match_atoms
from towb.system import WeightExpr, make_system


def _one(n):
    return GridFunction.constant(1.0, n)


def _defect_integrand(lam, pushed):
    """Reference defect: the square-density integrand
    ``(sqrt(a) - sqrt(min(w b, a)))^2`` summed cell by cell and atom by atom,
    plus the unmatched atoms of the push."""
    dec = lebesgue_decompose(pushed, lam)
    a = pushed.cell_masses
    ac_cells = dec.density.values * lam.cell_masses
    total = float(np.sum((np.sqrt(a) - np.sqrt(np.minimum(ac_cells, a))) ** 2))
    matched, unmatched = _match_atoms(pushed, lam)
    for lam_pos, mass, lam_mass in matched:
        ac_mass = dec.atom_density.get(lam_pos, 0.0) * lam_mass
        total += float((np.sqrt(mass) - np.sqrt(min(ac_mass, mass))) ** 2)
    return total + sum(mass for _, mass in unmatched)


class TestLebesgueDecompose:
    def test_plain_density(self):
        n = 64
        lam = Measure.lebesgue(n)
        mu = Measure(np.where(np.arange(n) < n // 2, 2.0 / n, 0.0))
        dec = lebesgue_decompose(mu, lam)
        assert np.allclose(dec.density.values[:n // 2], 2.0)
        assert np.allclose(dec.density.values[n // 2:], 0.0)
        assert dec.singular.total() == 0.0

    def test_mutually_singular(self):
        n = 32
        dec = lebesgue_decompose(Measure.dirac(0.5, n), Measure.lebesgue(n))
        assert np.allclose(dec.density.values, 0.0)
        assert dec.singular.atoms == ((0.5, 1.0),)

    def test_mixed_split(self):
        n = 32
        mu = Measure.lebesgue(n).scaled(0.5) + Measure.dirac(0.0, n, 0.5)
        dec = lebesgue_decompose(mu, Measure.lebesgue(n))
        assert np.allclose(dec.density.values, 0.5)
        assert dec.singular.atoms == ((0.0, 0.5),)

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(0)
        n = 48
        for _ in range(20):
            lam = Measure(rng.random(n) * (rng.random(n) > 0.3),
                          [(0.25, 1.0)])
            mu = Measure(rng.random(n) * (rng.random(n) > 0.3),
                         [(0.25, rng.random() + 0.1), (0.7, 0.5)])
            dec = lebesgue_decompose(mu, lam)
            rebuilt = dec.reconstruct(lam)
            assert np.max(np.abs(rebuilt.cell_masses - mu.cell_masses)) < 1e-12
            assert rebuilt.total() == pytest.approx(mu.total(), abs=1e-12)


class TestSigInner:
    def test_unit_norm(self):
        n = 64
        a = SigElement(_one(n), Measure.lebesgue(n))
        assert sig_inner(a, a) == pytest.approx(1.0)

    def test_mutually_singular_orthogonal(self):
        n = 64
        a = SigElement(_one(n), Measure.lebesgue(n))
        b = SigElement(_one(n), Measure.dirac(0.0, n))
        assert sig_inner(a, b) == 0.0

    def test_constant_density_cross_term(self):
        n = 64
        a = SigElement(_one(n), Measure.lebesgue(n))
        b = SigElement(_one(n), Measure.lebesgue(n).scaled(4.0))
        assert sig_inner(a, b) == pytest.approx(2.0)

    def test_norm_is_l2_norm(self):
        rng = np.random.default_rng(1)
        n = 64
        f = GridFunction(rng.normal(size=n))
        mu = Measure(rng.random(n), [(0.3, 0.7)])
        elt = SigElement(f, mu)
        oracle = towb.integrate(lambda x: np.asarray(f(x)) ** 2, mu)
        assert sig_norm_sq(elt) == pytest.approx(oracle, abs=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(2)
        n = 32
        for _ in range(30):
            a = SigElement(GridFunction(rng.normal(size=n)),
                           Measure(rng.random(n)))
            b = SigElement(GridFunction(rng.normal(size=n)),
                           Measure(rng.random(n)))
            assert sig_inner(a, b) ** 2 <= (sig_norm_sq(a) * sig_norm_sq(b)
                                            + 1e-12)

    def test_distance_of_equivalent_representations(self):
        # (f, mu) and (f/sqrt(2), 2 mu)... the class scales as f sqrt(dmu),
        # so halving f against a 4x measure reproduces the same element
        n = 64
        a = SigElement(_one(n), Measure.lebesgue(n))
        b = SigElement(GridFunction.constant(0.5, n),
                       Measure.lebesgue(n).scaled(4.0))
        assert sig_distance_sq(a, b) == pytest.approx(0.0, abs=1e-12)


class TestDefect:
    def test_zero_for_invariant_fixtures(self, op_a, op_b, op_d, lam_std,
                                          lam_triadic):
        assert defect(lam_std, op_a) < 1e-10
        assert defect(lam_std, op_b) < 1e-10
        assert defect(lam_triadic, op_d) < 1e-10

    def test_point_mass_defect_is_singular_mass(self, op_a):
        # the push of the origin's point mass splits half-and-half between
        # the origin (matched) and 1/2 (singular); the matched atom's
        # square-density terms cancel, so the defect is the escaped mass
        value = defect(Measure.dirac(0.0, op_a.n_grid), op_a)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_matches_square_density_integrand(self, op_a, op_b, op_d):
        # random cells with gaps plus atoms, some placed on the branch images
        # of other atoms so that pushed atoms land both on and off lam's
        rng = np.random.default_rng(5)
        n_matched = n_unmatched = n_positive = 0
        for op in (op_a, op_b, op_d):
            n = op.n_grid
            for _ in range(6):
                cells = rng.random(n) * (rng.random(n) > 0.5)
                bases = rng.random(2)
                atoms = [(p, rng.random() + 0.1) for p in bases]
                atoms += [(p, rng.random() + 0.1)
                          for p in op.branch_points(bases).ravel()
                          if rng.random() < 0.5]
                lam = Measure(cells, atoms).normalized()
                pushed = op.push_measure(lam)
                matched, unmatched = _match_atoms(pushed, lam)
                n_matched += len(matched)
                n_unmatched += len(unmatched)
                value = defect(lam, op)
                n_positive += value > 0
                assert abs(value - _defect_integrand(lam, pushed)) <= 1e-15
        assert n_matched > 0 and n_unmatched > 0 and n_positive > 0

    def test_requires_probability(self, op_a):
        with pytest.raises(DomainError):
            defect(Measure.lebesgue(op_a.n_grid).scaled(2.0), op_a)

    def test_nonnegative_on_random_measures(self, op_b):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = Measure(rng.random(op_b.n_grid)).normalized()
            assert defect(lam, op_b) >= 0.0

    def test_stable_under_refinement(self, lam_std):
        for build in (towb.sys_a, towb.sys_b):
            for n in (512, 1024, 2048):
                op = TransferOperator(build(n), n)
                assert defect(Measure.lebesgue(n), op) < 1e-10


class TestMembership:
    def test_fixture_verdicts(self, op_b, op_d, op_a, lam_std, lam_triadic):
        assert l1_membership(lam_std, op_b)[0] is True
        assert l1_membership(lam_triadic, op_d)[0] is True
        member, value = l1_membership(Measure.dirac(0.0, op_a.n_grid), op_a)
        assert member is False
        assert value == pytest.approx(0.5, abs=1e-12)


class TestHutchinson:
    def test_lebesgue_fixed_for_doubling(self, op_a, lam_std):
        out = hutchinson_iterate(op_a.system, lam_std, 5)
        assert np.max(np.abs(out.cell_masses - lam_std.cell_masses)) < 1e-15
        assert out.atoms == ()

    def test_triadic_masses_exact(self, op_d):
        n = 243
        out = hutchinson_iterate(op_d.system, Measure.lebesgue(n), 5)
        oracle = np.zeros(n)
        for bits in range(2 ** 5):
            idx = 0
            for i in range(5):
                idx = idx * 3 + (2 if (bits >> i) & 1 else 0)
            oracle[idx] = 2.0 ** -5
        assert np.array_equal(out.cell_masses, oracle)
        assert out.total() == 1.0

    def test_atom_start_converges_to_uniform(self):
        n = 256
        system = towb.sys_a(n)
        cur = Measure.dirac(0.3, n)
        steps_needed = None
        for k in range(1, 13):
            cur = hutchinson_iterate(system, cur, 1)
            if cur.tv_cell_distance(Measure.lebesgue(n)) < 0.01:
                steps_needed = k
                break
        assert steps_needed is not None and steps_needed <= 12
        assert cur.total() == pytest.approx(1.0, abs=1e-12)


class TestDefectSearch:
    def test_finds_zero_for_sys_b(self, op_b):
        _, best = defect_search(op_b, seed=0)
        assert best == 0.0

    def test_finds_zero_for_sys_d(self, op_d):
        _, best = defect_search(op_d, seed=0)
        assert best == 0.0

    def test_draw_has_full_support_and_no_atoms(self, op_a, op_b, op_d):
        # full cell support is why the push has no singular part
        for op in (op_a, op_b, op_d):
            lam, value = defect_search(op, seed=0)
            assert value == 0.0
            assert lam.is_probability()
            assert np.all(lam.cell_masses > 0)
            assert lam.atoms == ()

    def test_deterministic_given_seed(self, op_b):
        a = defect_search(op_b, seed=42)
        b = defect_search(op_b, seed=42)
        assert a[1] == b[1]
        assert np.array_equal(a[0].cell_masses, b[0].cell_masses)

    def test_single_branch_atom_flow(self):
        # one contraction toward 0: iterated point masses eventually merge
        # with the fixed point, where the defect drops to zero; the running
        # best is monotone along the way
        system = make_system([0.5], [0.0], [1.0], WeightExpr.constant(1.0),
                             sigma=2, validate=False)
        op = TransferOperator(system, 64)
        lam = Measure.dirac(0.7, 64)
        best_seen = np.inf
        history = []
        for _ in range(45):
            value = defect(lam, op)
            best_seen = min(best_seen, value)
            history.append(best_seen)
            lam = hutchinson_iterate(system, lam, 1)
        assert history == sorted(history, reverse=True)
        assert history[-1] == pytest.approx(0.0, abs=1e-12)
