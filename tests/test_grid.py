import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towb
from towb import (AffineBranch, GridFunction, IntervalSet, Measure,
                  TransferOperator, hutchinson_iterate, integrate,
                  integrate_over, pushforward)
from towb.errors import DomainError
from towb.grid import (ATOM_MERGE_TOL, _EDGE_SNAP_TOL, integrate_regions,
                       push_mixture, wrap_unit)
from towb.system import IfsSystem, PiecewiseAffineMap, WeightExpr
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

    @pytest.mark.parametrize("n_f, n_mu", [(64, 64), (48, 64), (64, 27)])
    def test_grid_function_matches_pointwise_midpoint_rule(self, n_f, n_mu):
        # a grid function on any grid is integrated as a callable: its
        # interpolant at mu's cell midpoints, plus each atom
        rng = np.random.default_rng(n_f + n_mu)
        for _ in range(20):
            f = GridFunction(rng.normal(size=n_f))
            mu = Measure(rng.random(n_mu),
                         [(0.9999, rng.random())] + list(rng.random((3, 2))))
            want = np.dot(f(mu.cell_midpoints()), mu.cell_masses)
            for pos, mass in mu.atoms:
                want = want + f(pos) * mass
            assert integrate(f, mu) == want

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


def _nan_integrand(form: str, node: int):
    """``form`` of an integrand on 64 nodes that is nan at ``node`` only
    (a trig polynomial: infinite at the atom), and how to integrate it
    against ``_NAN_MU``."""
    if form == "callable":
        return lambda mu: integrate(
            lambda x: np.where(np.abs(np.asarray(x) * 64 - node) < 0.5,
                               np.nan, 1.0), mu)
    if form == "grid_function":
        g = GridFunction(np.ones(64))
        # past the constructor's check on its samples
        g.values = np.where(np.arange(64) == node, np.nan, 1.0)
        return lambda mu: integrate(g, mu)
    # finite coefficients whose sum 1e308 (1 + sin 2 pi x) overflows at
    # the atom 0.32; the cells of [0.3, 0.35) stay finite in closed form
    p = TrigPoly.from_cos_sin(1e308, [], [1e308])
    return lambda mu: integrate_over(p, mu, IntervalSet([(0.3, 0.35)]))


# Four cells and an atom at 0.32: on 64 nodes, node 8 is read at the first
# cell midpoint and node 20 only at the atom.
_NAN_MU = Measure(np.full(4, 0.125), [(0.32, 0.5)])


@pytest.mark.parametrize("form, node, message", [
    ("callable", 8, "non-finite values"),
    ("callable", 20, "non-finite values at an atom"),
    ("grid_function", 8, "non-finite values"),
    ("grid_function", 20, "non-finite values at an atom"),
    ("integrate_over", 20, "non-finite values at an atom")])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_integrand_is_located(form, node, message):
    # every quadrature refuses a nan with the same message, naming the atom
    # when it is read there; integrate_over's cells are in closed form, so
    # only its atoms are read pointwise
    with pytest.raises(DomainError, match=f"^integrand produced {message}$"):
        _nan_integrand(form, node)(_NAN_MU)


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

    @pytest.mark.parametrize("offset", [-0.25, 0.75])
    def test_image_leaving_unit_interval_rejected(self, offset):
        # without the reduction mod 1 half the image falls off [0, 1] and
        # its mass would be lost; reduced mod 1 it wraps and keeps it
        with pytest.raises(DomainError, match=r"image \[.*\] of \[0, 1\) "
                                              "leaves"):
            pushforward(Measure.lebesgue(8), AffineBranch(0.5, offset))
        out = pushforward(Measure.lebesgue(8),
                          AffineBranch(0.5, offset, mod_one=True))
        assert out.total() == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_branch_rejected(self):
        with pytest.raises(DomainError):
            pushforward(Measure.lebesgue(8), AffineBranch(0.0, 0.3))

    @pytest.mark.parametrize("slope", [12.0, -12.0, 30.0])
    def test_slope_above_grid_size_rejected(self, slope):
        # a cell's image would wrap the circle more than once; the cell loop
        # kept only the first turn (total 0.96667 at slope 12, 0.40667 at 30)
        with pytest.raises(DomainError, match=r"slope .* N=8"):
            pushforward(Measure.lebesgue(8), AffineBranch(slope, 0.1, True))

    @pytest.mark.parametrize("slope", [2.0, 8.0, -8.0])
    def test_slope_up_to_grid_size_preserves_mass(self, slope):
        lam = Measure.lebesgue(8)
        out = pushforward(lam, AffineBranch(slope, 0.1, mod_one=True))
        assert out.total() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(out.cell_masses,
                              _pushforward_loop(lam, AffineBranch(
                                  slope, 0.1, mod_one=True))[0])

    def test_zero_length_piece_lands_in_one_cell(self):
        # the image of cell 14 wraps past 1 by 1e-13: that piece, snapped to
        # an edge, has no length, and its share goes to the cell holding it
        lam = Measure.lebesgue(16)
        br = AffineBranch(0.5, 0.5 + 1 / 32 + 1e-13, mod_one=True)
        out = pushforward(lam, br)
        cells, atoms = _pushforward_loop(lam, br)
        assert np.array_equal(out.cell_masses, cells) and out.atoms == atoms
        assert out.total() == pytest.approx(1.0, abs=1e-15)


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

    def test_integrate_over_rejects_other_integrands(self):
        # only a trig polynomial integrates exactly up to the region's edges
        with pytest.raises(DomainError, match="needs a TrigPoly"):
            integrate_over(lambda x: x, Measure.lebesgue(8),
                           IntervalSet([(0.1, 0.3)]))

    def test_integrate_over_trig_matches_dense(self):
        rng = np.random.default_rng(3)
        p = TrigPoly.random(rng, degree=5)
        lam = Measure.lebesgue(128)
        region = IntervalSet([(0.13, 0.57), (0.8, 0.93)])
        exact = integrate_over(p, lam, region)
        oracle = sum(p.integral(lo, hi) for lo, hi in region.intervals)
        assert exact == pytest.approx(oracle, abs=1e-12)


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_UNIT, _UNIT), max_size=6),
       st.lists(_UNIT, max_size=8))
def test_interval_set_normalization(pairs, probes):
    # sorted, disjoint with a gap between neighbours, nonempty, and the
    # indicator of the union of the (nonempty) input intervals: checked at
    # every endpoint, between every two neighbouring endpoints and at probes
    out = IntervalSet(pairs).intervals
    assert all(lo < hi for lo, hi in out)
    assert all(a[1] < b[0] for a, b in zip(out, out[1:]))
    ends = sorted({x for pair in pairs for x in pair} | {0.0, 1.0})
    xs = np.array(ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
                  + probes)
    union = np.zeros(xs.size, dtype=bool)
    for lo, hi in pairs:
        union |= (xs >= lo) & (xs < hi)
    assert np.array_equal(IntervalSet(pairs).indicator(xs), union)


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
def _poly_measure_regions(draw):
    n = draw(st.integers(4, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slope = draw(st.sampled_from([1.0, 0.5, 1 / 3, 2.0]))
    trials = draw(st.sampled_from([None, 3]))
    p = TrigPoly.random(rng, degree=draw(st.integers(0, 8)),
                        trials=trials).compose_affine(slope, rng.uniform())
    # cell masses from at most three values, zero among them, in runs of
    # random length: one run for the whole grid, or one per cell
    levels = np.array([0.0, rng.random(), rng.random()])
    cuts = np.sort(rng.integers(1, n, size=draw(st.integers(0, n))))
    cells = levels[rng.integers(0, 3, size=cuts.size + 1)][
        np.searchsorted(cuts, np.arange(n), side="right")]
    edge = st.integers(0, n).map(lambda k: k / n)
    point = st.one_of(st.just(0.0), st.just(1.0), edge, st.floats(0.0, 1.0))
    atoms = draw(st.lists(st.tuples(point, st.floats(0.01, 1.0)),
                          max_size=3))
    ends = st.lists(st.tuples(point, point), max_size=3)
    regions = [IntervalSet([sorted(pair) for pair in pairs])
               for pairs in draw(st.lists(ends, min_size=1, max_size=4))]
    return p, Measure(cells, atoms), regions


@settings(max_examples=150, deadline=None)
@given(_poly_measure_regions())
def test_integrate_over_matches_cell_loop(case):
    # the regions together, each alone and the per-cell loop agree
    p, mu, regions = case
    together = integrate_regions(p, mu, regions)
    assert together.shape == p.coefs.shape[:-1] + (len(regions),)
    columns = ([p] if p.coefs.ndim == 1 else
               [p.take_trials(t) for t in range(p.coefs.shape[0])])
    # relative to a bound on the integral: total mass times sup |p|
    scale = mu.total() * np.abs(p.coefs).sum(axis=-1)
    for got, region in zip(together.T, regions):
        alone = integrate_over(p, mu, region)
        want = np.array([_integrate_over_cell_loop(q, mu, region)
                         for q in columns])
        assert np.all(np.abs(got - alone) <= 1e-14 * scale)
        assert np.all(np.abs(np.atleast_1d(alone) - want) <= 1e-14 * scale)


def test_trig_integral_takes_the_antiderivative_at_run_ends(monkeypatch):
    # Lebesgue measure is one run: the whole circle needs the antiderivative
    # at 0 and 1 only, and a region its interval ends; a measure whose
    # neighbouring cells all differ takes every cell edge in the region
    points = []
    anti = TrigPoly.antiderivative_values

    def counting(self, x):
        points.append(np.size(x))
        return anti(self, x)

    monkeypatch.setattr(TrigPoly, "antiderivative_values", counting)
    h = TrigPoly.from_cos_sin(1.0, [0.5])
    integrate(h, Measure.lebesgue(1024))
    integrate_over(h, Measure.lebesgue(1024), IntervalSet([(0.1, 0.2),
                                                           (0.5, 0.7)]))
    integrate_over(h, Measure(np.arange(1.0, 1025.0)), IntervalSet(
        [(0.25, 0.5)]))
    assert points == [2, 4, 257]


# -- the per-cell loop, kept as the oracle of the array code --------------


def _snap_to_edges_loop(value: float, n: int) -> float:
    nearest = round(value * n) / n
    return nearest if abs(value - nearest) <= _EDGE_SNAP_TOL else value


def _spread_interval_loop(cells: np.ndarray, lo: float, hi: float,
                          mass: float) -> None:
    """Distribute ``mass`` uniformly over ``[lo, hi)`` onto uniform cells."""
    n = cells.size
    lo, hi = _snap_to_edges_loop(lo, n), _snap_to_edges_loop(hi, n)
    length = hi - lo
    if length <= 0:
        cells[min(int(lo * n), n - 1)] += mass
        return
    j0 = max(int(np.floor(lo * n)) - 1, 0)
    j1 = min(int(np.ceil(hi * n)) + 1, n)
    for j in range(j0, j1):
        overlap = min(hi, (j + 1) / n) - max(lo, j / n)
        if overlap > 0:
            cells[j] += mass * (overlap / length)


def _normalize_atoms_loop(atoms) -> tuple[tuple[float, float], ...]:
    cleaned = []
    for pos, mass in atoms:
        if mass < 0:
            raise DomainError("atom masses must be nonnegative")
        if mass > 0:
            cleaned.append((wrap_unit(float(pos)), float(mass)))
    cleaned.sort()
    merged: list[list[float]] = []
    for pos, mass in cleaned:
        if merged and pos - merged[-1][0] <= ATOM_MERGE_TOL:
            merged[-1][1] += mass
        else:
            merged.append([pos, mass])
    if len(merged) > 1 and (1.0 - merged[-1][0]) + merged[0][0] <= ATOM_MERGE_TOL:
        merged[0][1] += merged.pop()[1]
    return tuple((p, m) for p, m in merged)


def _pushforward_loop(mu: Measure, branch: AffineBranch):
    """Cell masses and atoms of the image measure, one source cell at a
    time."""
    n = mu.n_cells
    new_cells = np.zeros(n)
    edges = np.arange(n + 1) / n
    for j in range(n):
        mass = mu.cell_masses[j]
        if mass == 0:
            continue
        pieces = branch.image_intervals(edges[j], edges[j + 1])
        full = sum(hi - lo for lo, hi in pieces)
        for lo, hi in pieces:
            share = mass if len(pieces) == 1 else mass * (hi - lo) / full
            _spread_interval_loop(new_cells, lo, hi, share)
    new_atoms = [(wrap_unit(branch(pos)), mass) for pos, mass in mu.atoms]
    return new_cells, _normalize_atoms_loop(new_atoms)


def _coarse_cells_loop(mu: Measure) -> np.ndarray:
    cells = mu.cell_masses.copy()
    for pos, mass in mu.atoms:
        cells[min(int(pos * mu.n_cells), mu.n_cells - 1)] += mass
    return cells


# offsets a hair off a cell edge exercise the snapping and zero-length pieces
_NUDGES = st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 0.9e-12, -2e-12])


@st.composite
def _measure_and_branch(draw):
    n = draw(st.one_of(st.integers(2, 64), st.sampled_from([243, 1024, 4096])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.7, 1.0]))
    cells = rng.random(n) * (rng.random(n) < density)
    point = st.one_of(st.floats(-1.0, 2.0),
                      st.integers(0, n).map(lambda k: k / n))
    atoms = draw(st.lists(st.tuples(point, st.floats(0.0, 1.0)), max_size=4))
    edge = st.integers(-n, n).map(lambda k: k / n)
    if draw(st.booleans()):
        # contracting, image inside [0, 1]
        slope = draw(st.one_of(st.floats(0.05, 1.0),
                               st.sampled_from([1 / 3, 0.5, 1.0])))
        if draw(st.booleans()):
            slope = -slope
        low = max(0.0, -slope)
        offset = draw(st.floats(low, low + 1.0 - abs(slope)))
        branch = AffineBranch(slope, offset)
    else:
        slope = draw(st.one_of(st.floats(0.05, 2.0),
                               st.sampled_from([1 / 3, 0.5, 1.0, 2.0])))
        if draw(st.booleans()):
            slope = -slope
        offset = draw(st.one_of(st.floats(-1.0, 1.0), edge)) + draw(_NUDGES)
        branch = AffineBranch(slope, offset, mod_one=True)
    return Measure(cells, atoms), branch


@settings(max_examples=300, deadline=None)
@given(_measure_and_branch())
def test_pushforward_matches_cell_loop(case):
    mu, branch = case
    out = pushforward(mu, branch)
    cells, atoms = _pushforward_loop(mu, branch)
    assert np.array_equal(out.cell_masses, cells)
    assert out.atoms == atoms
    assert np.array_equal(out.coarse_cells(), _coarse_cells_loop(out))


@st.composite
def _atom_lists(draw):
    """Clusters of atoms spaced at, just under and just over the merge
    tolerance, with duplicates, zero masses and clusters on the 1 -> 0
    wrap."""
    atoms = []
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.one_of(st.floats(-1.0, 2.0),
                             st.sampled_from([0.0, 1.0, 1 - 4e-13, -3e-13,
                                              0.5, 1 - 1e-12])))
        mass = st.one_of(st.just(0.0), st.just(0.25), st.just(1e-16),
                         st.floats(1e-3, 1.0))
        for _ in range(draw(st.integers(1, 6))):
            atoms.append((pos, draw(mass)))
            pos += draw(st.sampled_from([0.0, 0.3e-12, 0.99e-12,
                                         ATOM_MERGE_TOL, 1.01e-12, 5e-12]))
    return draw(st.permutations(atoms))


@settings(max_examples=400, deadline=None)
@given(_atom_lists())
def test_normalize_atoms_matches_loop(atoms):
    assert Measure._normalize_atoms(atoms) == _normalize_atoms_loop(atoms)


def test_normalize_atoms_chain_groups_from_first_atom():
    # each gap is under the tolerance, but the third atom is more than the
    # tolerance from the first, so it opens a group of its own
    step = 0.6 * ATOM_MERGE_TOL
    atoms = [(0.5 + k * step, 1.0 + k) for k in range(5)]
    got = Measure._normalize_atoms(atoms)
    assert got == _normalize_atoms_loop(atoms)
    assert [m for _, m in got] == [3.0, 7.0, 5.0]


def test_normalize_atoms_sums_in_sorted_order():
    # coinciding atoms add smallest mass first, as the sorted loop did:
    # 1e-16 + 1e-16 survives next to 1.0, while 1.0 + 1e-16 rounds to 1.0
    atoms = [(0.3, 1.0), (0.3, 1e-16), (0.3, 1e-16)]
    got = Measure._normalize_atoms(atoms)
    assert got == _normalize_atoms_loop(atoms) == ((0.3, 1.0 + 2**-52),)


def test_normalize_atoms_rejects_negative_mass():
    with pytest.raises(DomainError, match="nonnegative"):
        Measure(np.zeros(4), [(0.1, 1.0), (0.2, -1e-300)])


def _mixture_chain(mu: Measure, branches, probs) -> Measure:
    """Oracle: the scaled branch pushforwards added one measure at a time."""
    acc = None
    for branch, p in zip(branches, probs):
        part = pushforward(mu, branch).scaled(p)
        acc = part if acc is None else acc + part
    return acc


@st.composite
def _branch_system(draw):
    """A measure with atom clusters and two or three branches with
    probabilities.  Atoms 1-2 merge tolerances apart survive in ``mu`` and
    merge under a contracting branch; clusters start either side of the
    1 -> 0 wrap.  Three branches tile [0, 1] with their images, as a valid
    system's do; two may be any branches, wrapping ones included."""
    n = draw(st.one_of(st.integers(2, 64), st.sampled_from([243, 1024])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    cells = rng.random(n) * (rng.random(n) < density)
    atoms = []
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
            [0.0, 0.5, 1 - 1.5e-12, 1 - 3e-12, 0.4e-12])))
        for _ in range(draw(st.integers(1, 4))):
            atoms.append((pos, draw(st.floats(1e-3, 1.0))))
            pos += draw(st.sampled_from([1.0, 1.5, 2.0])) * ATOM_MERGE_TOL
    if draw(st.booleans()):
        branches = []
        for _ in range(2):
            slope = draw(st.one_of(st.floats(0.05, 2.0),
                                   st.sampled_from([1 / 3, 0.5, 2.0])))
            slope = -slope if draw(st.booleans()) else slope
            branches.append(AffineBranch(slope, draw(st.floats(-1.0, 1.0)),
                                         mod_one=True))
    else:
        k = draw(st.sampled_from([2, 3]))
        cuts = draw(st.lists(st.integers(1, 23), min_size=k - 1,
                             max_size=k - 1, unique=True))
        ends = [0.0] + sorted(c / 24 for c in cuts) + [1.0]
        branches = [AffineBranch(hi - lo, lo) if draw(st.booleans())
                    else AffineBranch(lo - hi, hi)
                    for lo, hi in zip(ends, ends[1:])]
    probs = [draw(st.floats(0.05, 1.0)) for _ in branches]
    return Measure(cells, atoms), branches, probs


def _assert_same_measure(got: Measure, want: Measure) -> None:
    assert np.array_equal(got.cell_masses, want.cell_masses)
    assert got.atoms == want.atoms


@settings(max_examples=200, deadline=None)
@given(_branch_system())
def test_push_mixture_matches_scaled_sum_chain(case):
    mu, branches, probs = case
    chain = _mixture_chain(mu, branches, probs)
    _assert_same_measure(push_mixture(mu, branches, probs), chain)

    # push_measure is the mixture reweighted by W
    weight = WeightExpr.trig(1.0, [0.3], [0.2])
    system = IfsSystem(tuple(branches), tuple(probs), weight,
                       PiecewiseAffineMap.expanding(2))
    want = Measure(
        chain.cell_masses * np.asarray(weight(chain.cell_midpoints())),
        [(pos, m * float(weight(pos))) for pos, m in chain.atoms])
    _assert_same_measure(TransferOperator(system, 8).push_measure(mu), want)

    # hutchinson_iterate repeats the mixture
    want = mu
    for _ in range(3):
        want = _mixture_chain(want, branches, probs)
    _assert_same_measure(hutchinson_iterate(system, mu, 3), want)
