import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towb
from towb import (AffineBranch, GridFunction, IntervalSet, Measure, integrate,
                  integrate_over, pushforward)
from towb.errors import DomainError
from towb.trig import TrigPoly


class TestGridFunction:
    def test_interpolation_hits_nodes(self):
        g = GridFunction([0.0, 1.0, 4.0, 9.0])
        assert g(0.25) == 1.0
        assert g(0.5) == 4.0

    def test_wraparound(self):
        g = GridFunction([0.0, 1.0, 4.0, 9.0])
        # between the last node and x_N == x_0
        assert g(0.875) == pytest.approx(4.5)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            GridFunction([0.0, np.nan, 1.0])

    def test_arithmetic(self):
        g = GridFunction([1.0, 2.0, 3.0, 4.0])
        assert np.allclose((g * 2 + 1).values, [3, 5, 7, 9])


class TestIntegrate:
    def test_total_mass(self):
        f = GridFunction.constant(1.0, 64)
        assert integrate(f, Measure.lebesgue(64)) == pytest.approx(1.0)

    def test_identity_function_symmetry(self):
        lam = Measure.lebesgue(1024)
        assert integrate(lambda x: np.asarray(x, dtype=float),
                         lam) == pytest.approx(0.5, abs=1e-6)
        # the sampled table wraps around the circle, so its interpolant
        # loses half a cell of mass at the seam
        table = GridFunction.from_callable(lambda x: x, 1024)
        assert integrate(table, lam) == pytest.approx(0.5 - 1 / 2048, abs=1e-9)

    def test_atom_evaluation(self):
        lam = Measure.dirac(0.25, 16)
        assert integrate(lambda x: np.asarray(x, dtype=float), lam) == 0.25

    def test_resamples_mismatched_grid(self):
        f = GridFunction.constant(2.0, 10)
        assert integrate(f, Measure.lebesgue(64)) == pytest.approx(2.0)

    def test_linearity_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = 32
            f = GridFunction(rng.normal(size=n))
            g = GridFunction(rng.normal(size=n))
            lam = Measure(rng.random(n), [(rng.random(), rng.random())])
            a, b = rng.normal(), rng.normal()
            lhs = integrate(f * a + g * b, lam)
            rhs = a * integrate(f, lam) + b * integrate(g, lam)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            two = integrate(f, lam.scaled(2.0))
            assert two == pytest.approx(2 * integrate(f, lam), abs=1e-12)

    def test_trig_path_matches_midpoint_for_smooth(self):
        rng = np.random.default_rng(1)
        p = TrigPoly.random(rng, degree=6)
        lam = Measure.lebesgue(512)
        assert integrate(p, lam) == pytest.approx(
            float(np.mean(p(lam.cell_midpoints()))), abs=1e-12)


class TestPushforward:
    def test_contraction_to_lower_half(self):
        lam = Measure.lebesgue(64)
        out = pushforward(lam, AffineBranch(0.5, 0.0))
        assert out.total() == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(out.cell_masses[:32], 1.0 / 32)
        assert np.allclose(out.cell_masses[32:], 0.0)

    def test_atom_maps_exactly(self):
        lam = Measure.dirac(0.4, 16)
        out = pushforward(lam, AffineBranch(0.5, 0.5))
        assert out.atoms == ((0.7, 1.0),)

    def test_thirds_change_of_variables(self):
        # averaging the two thirds-contractions sends Lebesgue to density
        # 3/2 on [0,1/3) u [2/3,1) and 0 on the middle third
        n = 243
        lam = Measure.lebesgue(n)
        left = pushforward(lam, AffineBranch(1 / 3, 0.0)).scaled(0.5)
        right = pushforward(lam, AffineBranch(1 / 3, 2 / 3)).scaled(0.5)
        out = left + right
        dens = out.cell_masses * n
        third = n // 3
        assert np.allclose(dens[:third], 1.5, atol=1e-12)
        assert np.allclose(dens[third:2 * third], 0.0)
        assert np.allclose(dens[2 * third:], 1.5, atol=1e-12)

    def test_mass_preserved_randomly(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(8, 100))
            lam = Measure(rng.random(n),
                          [(rng.random(), rng.random()) for _ in range(3)])
            a = rng.uniform(-2, 2)
            if abs(a) < 0.05:
                a = 0.5
            br = AffineBranch(a, rng.uniform(-1, 1), mod_one=True)
            out = pushforward(lam, br)
            assert out.total() == pytest.approx(lam.total(), abs=1e-12)

    def test_degenerate_branch_rejected(self):
        with pytest.raises(DomainError):
            pushforward(Measure.lebesgue(8), AffineBranch(0.0, 0.3))


class TestMeasure:
    def test_atom_merge(self):
        m = Measure(np.zeros(8), [(0.5, 1.0), (0.5 + 1e-13, 2.0)])
        assert len(m.atoms) == 1
        assert m.atoms[0][1] == pytest.approx(3.0)

    def test_zero_atoms_dropped(self):
        m = Measure(np.zeros(8), [(0.3, 0.0)])
        assert m.atoms == ()

    def test_tv_cell_distance(self):
        a = Measure.lebesgue(4)
        b = Measure.dirac(0.1, 4)
        assert a.tv_cell_distance(b) == pytest.approx(0.75)


class TestIntervalSet:
    def test_normalization_merges_overlaps(self):
        s = IntervalSet([(0.5, 0.7), (0.1, 0.3), (0.25, 0.4)])
        assert s.intervals == ((0.1, 0.4), (0.5, 0.7))

    def test_indicator_sharp(self):
        s = IntervalSet([(0.25, 0.5)])
        assert s.indicator(0.25) == 1.0
        assert s.indicator(0.5) == 0.0
        assert s.indicator(0.49999) == 1.0

    def test_integrate_over_trig_matches_dense(self):
        rng = np.random.default_rng(3)
        p = TrigPoly.random(rng, degree=5)
        lam = Measure.lebesgue(128)
        region = IntervalSet([(0.13, 0.57), (0.8, 0.93)])
        exact = integrate_over(p, lam, region)
        oracle = sum(p.integral(lo, hi) for lo, hi in region.intervals)
        assert exact == pytest.approx(oracle, abs=1e-12)


def _integrate_over_cell_loop(p: TrigPoly, mu: Measure,
                              region: IntervalSet) -> float:
    """Reference: the cell-by-cell integral over ``region``, one closed-form
    integral per cell that carries mass."""
    n = mu.n_cells
    total = 0.0
    for lo, hi in region.intervals:
        j0, j1 = int(np.floor(lo * n)), min(int(np.ceil(hi * n)), n)
        for j in range(max(j0, 0), j1):
            a, b = max(lo, j / n), min(hi, (j + 1) / n)
            if b > a and mu.cell_masses[j] > 0:
                total += p.integral(a, b) * mu.cell_masses[j] * n
    for pos, mass in mu.atoms:
        if region.indicator(pos):
            total += float(p(pos)) * mass
    return total


@st.composite
def _poly_measure_region(draw):
    n = draw(st.integers(4, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slope = draw(st.sampled_from([1.0, 0.5, 1 / 3, 2.0]))
    trials = draw(st.sampled_from([None, 3]))
    p = TrigPoly.random(rng, degree=draw(st.integers(0, 8)),
                        trials=trials).compose_affine(slope, rng.uniform())
    cells = rng.random(n) * (rng.random(n) < 0.7)  # some cells carry no mass
    edge = st.integers(0, n).map(lambda k: k / n)
    point = st.one_of(st.just(0.0), st.just(1.0), edge, st.floats(0.0, 1.0))
    atoms = draw(st.lists(st.tuples(point, st.floats(0.01, 1.0)),
                          max_size=3))
    ends = draw(st.lists(st.tuples(point, point), min_size=1, max_size=3))
    region = IntervalSet([sorted(pair) for pair in ends])
    return p, Measure(cells, atoms), region


@settings(max_examples=150, deadline=None)
@given(_poly_measure_region())
def test_integrate_over_matches_cell_loop(case):
    p, mu, region = case
    got = np.atleast_1d(integrate_over(p, mu, region))
    columns = ([p] if p.coefs.ndim == 1 else
               [p.take_trials(t) for t in range(p.coefs.shape[1])])
    want = np.array([_integrate_over_cell_loop(q, mu, region)
                     for q in columns])
    # relative to a bound on the integral: total mass times sup |p|
    scale = mu.total() * np.abs(p.coefs).sum(axis=0)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
