"""Monte Carlo sampling against the exact cylinder oracle."""

import tracemalloc

import numpy as np
import pytest

import towb
from towb import CylinderFunction, IntervalSet, Measure, PathMeasure
from towb.errors import DomainError
from towb.system import WeightExpr, make_system


def _battery(rng, count):
    specs = []
    for _ in range(count):
        depth = int(rng.integers(1, 4))
        sets = []
        for _ in range(depth):
            lo = rng.uniform(0.0, 0.55)
            hi = lo + rng.uniform(0.2, min(0.42, 1.0 - lo))
            sets.append(IntervalSet([(lo, hi)]))
        specs.append(CylinderFunction([None, *sets]))
    return specs


class TestSamplePaths:
    def test_fair_bits_for_unit_weight(self, pm_a):
        rng = np.random.default_rng(0)
        digits, _ = towb.sample_paths(pm_a, np.full(100_000, 0.37), 1, rng)
        freq = float((digits[:, 0] == 0).mean())
        sigma = 0.5 / np.sqrt(100_000)
        assert abs(freq - 0.5) < 3 * sigma

    def test_cosine_weight_forces_first_digit_at_origin(self, pm_b):
        # the kernel mass of branch 1 is W(1/2)/2 = 0, so digit 0 is sure
        rng = np.random.default_rng(1)
        digits, _ = towb.sample_paths(pm_b, np.zeros(5000), 2, rng)
        assert np.all(digits[:, 0] == 0)

    def test_branch_probability_matches_kernel(self, pm_b):
        rng = np.random.default_rng(2)
        x = 0.42
        digits, _ = towb.sample_paths(pm_b, np.full(80_000, x), 1, rng)
        p0 = np.cos(np.pi * x / 2) ** 2
        freq = float((digits[:, 0] == 0).mean())
        assert abs(freq - p0) < 4 * np.sqrt(p0 * (1 - p0) / 80_000)

    def test_coordinates_follow_digits(self, pm_a, op_a):
        rng = np.random.default_rng(3)
        digits, coords = towb.sample_paths(pm_a, np.full(100, 0.3), 3, rng)
        for row in range(100):
            path = towb.SolPath(0.3, tuple(int(d) for d in digits[row]))
            assert np.allclose(towb.coordinates(op_a, path), coords[row])

    def test_single_path_object(self, pm_a):
        rng = np.random.default_rng(4)
        digits, _ = towb.sample_paths(pm_a, np.array([0.3]), 5, rng)
        path = towb.SolPath(0.3, tuple(int(d) for d in digits[0]))
        assert path.base == 0.3
        assert path.depth == 5

    def test_degenerate_conditioning_raises(self, op_a, lam_std):
        h = towb.GridFunction.constant(1.0, 1024)
        pm = PathMeasure.build(op_a, h, lam_std)
        rng = np.random.default_rng(5)
        with pytest.raises(DomainError):
            # sabotage: a path measure whose h is zero somewhere
            zeroed = towb.GridFunction(np.where(np.arange(1024) == 512, 0.0,
                                                1.0))
            bad = PathMeasure.build(op_a, zeroed, lam_std, strict=False)
            towb.sample_paths(bad, np.full(10, 0.5), 2, rng)
        del pm

    def test_deterministic_given_seed(self, pm_b):
        d1, c1 = towb.sample_paths(pm_b, np.full(100, 0.3), 3,
                                   np.random.default_rng(11))
        d2, c2 = towb.sample_paths(pm_b, np.full(100, 0.3), 3,
                                   np.random.default_rng(11))
        assert np.array_equal(d1, d2) and np.array_equal(c1, c2)


class TestEmpiricalVsExact:
    @pytest.mark.parametrize("fixture_name", ["pm_a", "pm_b"])
    def test_battery_within_four_sigma(self, fixture_name, request):
        pm = request.getfixturevalue(fixture_name)
        rng = np.random.default_rng(101)
        specs = _battery(rng, 20)
        x = 0.3
        hx = float(pm.h(x))
        agreeing = 0
        for spec in specs:
            p_exact = towb.cylinder_mass(pm, x, spec) / hx
            p_hat = towb.empirical_cylinder_frequency(pm, x, spec, 20_000,
                                                      rng)
            se = np.sqrt(max(p_exact * (1 - p_exact), 1e-12) / 20_000)
            agreeing += abs(p_hat - p_exact) <= 4 * max(se, 1e-12)
        assert agreeing >= 19

    def test_base_sampler_respects_density(self, pm_b):
        # bases are drawn from h dlam; with h close to 1 the histogram is
        # close to uniform
        rng = np.random.default_rng(6)
        xs = towb.sample_bases(pm_b, 200_000, rng)
        hist, _ = np.histogram(xs, bins=4, range=(0.0, 1.0))
        assert np.max(np.abs(hist / 200_000 - 0.25)) < 0.01

    def test_atomic_base_measure(self, op_a):
        lam = Measure.dirac(0.25, op_a.n_grid)
        h = towb.GridFunction.constant(1.0, op_a.n_grid)
        pm = PathMeasure.build(op_a, h, lam)
        rng = np.random.default_rng(7)
        xs = towb.sample_bases(pm, 50, rng)
        assert np.all(xs == 0.25)


def _sample_paths_per_path(pm, bases, depth, rng):
    """Reference: the kernel evaluated afresh at every path's state."""
    sys_ = pm.op.system
    ys = np.atleast_1d(np.asarray(bases, dtype=float)).copy()
    count = ys.size
    digits = np.zeros((count, depth), dtype=np.int64)
    coords = np.zeros((count, depth + 1))
    coords[:, 0] = ys
    probs = np.array(sys_.probs)
    for j in range(depth):
        hy = np.asarray(pm.h(ys), dtype=float)
        pts = pm.op.branch_points(ys)
        wv = np.asarray(sys_.weight(pts), dtype=float)
        hv = np.asarray(pm.h(pts), dtype=float)
        kernel = probs[:, None] * wv * hv / hy[None, :]
        u = rng.random(count) * kernel.sum(axis=0)
        chosen = (np.cumsum(kernel, axis=0) < u[None, :]).sum(axis=0)
        chosen = np.minimum(chosen, len(sys_.probs) - 1)
        ys = pts[chosen, np.arange(count)]
        digits[:, j] = chosen
        coords[:, j + 1] = ys
    return digits, coords


def _oracle_measure(name):
    if name == "three_branch":
        n = 243
        system = make_system([1 / 3] * 3, [0.0, 1 / 3, 2 / 3],
                             [0.2, 0.3, 0.5], WeightExpr.trig(1.0, [0.3],
                                                              [0.2]),
                             sigma=3, n_grid=n)
    else:
        n = 243 if name == "sys_d" else 1024
        system = getattr(towb, name)(n)
    op = towb.TransferOperator(system, n)
    lam = Measure.lebesgue(n)
    # the three-branch weight is not normalised (rho != 1); the sampler only
    # needs a positive h
    return PathMeasure.build(op, towb.solve_harmonic(op, lam).h, lam,
                             strict=False)


@pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_d", "three_branch"])
def test_sampler_matches_per_path_oracle_bitwise(name):
    pm = _oracle_measure(name)
    bases = {
        "one": np.full(3000, 0.3),
        "three": np.repeat([0.123, 0.3, 0.77], 1000),
        "drawn": towb.sample_bases(pm, 3000, np.random.default_rng(9)),
        "empty": np.array([]),
    }
    for label, xs in bases.items():
        for depth in (0, 1, 6):
            rng, ref_rng = (np.random.default_rng(depth),
                            np.random.default_rng(depth))
            digits, coords = towb.sample_paths(pm, xs, depth, rng)
            ref_digits, ref_coords = _sample_paths_per_path(pm, xs, depth,
                                                            ref_rng)
            where = (name, label, depth)
            assert np.array_equal(digits, ref_digits), where
            assert np.array_equal(coords, ref_coords), where
            assert (rng.bit_generator.state
                    == ref_rng.bit_generator.state), where


def _frequency_by_sampled_coordinates(pm, x, spec, paths, rng):
    """Reference: the mean of ``spec`` over the coordinates of ``paths``
    walks sampled from copies of ``x``."""
    _, coords = towb.sample_paths(pm, np.full(paths, x), spec.depth, rng)
    return float(spec.eval_on_coords(coords).mean())


def _frequency_by_plain_split(pm, x, spec, paths, rng):
    """Reference: the count split written out state by state.  A level is a
    list of ``(y, h(y), count, product)``; each state's count goes to its
    children by one ``rng.multinomial`` of its own, and the children are
    listed branch by branch, so that the generator sees the calls the
    library makes.  The products are summed as the library sums them."""
    probs = np.array(pm.op.system.probs)
    f0, *factors = spec.components
    y0 = np.array([float(x)])
    first = 1.0 if f0 is None else float(np.asarray(f0(y0), dtype=float)[0])
    level = [(float(x), float(np.asarray(pm.h(y0))[0]), paths, first)]
    for f in factors:
        ys = np.array([item[0] for item in level])
        hy = np.array([item[1] for item in level])
        pts = pm.op.branch_points(ys)
        hv = np.asarray(pm.h(pts), dtype=float)
        kernel = probs[:, None] * pm.op.system.weight(pts) * hv / hy
        splits = []
        for s, (_, _, count, _) in enumerate(level):
            p = np.maximum(kernel[:, s], 0.0)
            splits.append(rng.multinomial(count, p / p.sum()))
        children = []
        for i in range(len(probs)):
            for s, (_, _, _, prod) in enumerate(level):
                if splits[s][i] > 0:
                    y = pts[i, s]
                    if f is not None:
                        prod = prod * float(np.asarray(f(np.array([y])))[0])
                    children.append((y, hv[i, s], int(splits[s][i]), prod))
        level = children
    counts = np.array([count for _, _, count, _ in level])
    prods = np.array([prod for _, _, _, prod in level])
    return float(np.sum(counts * prods)) / paths


@pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_d", "three_branch"])
def test_count_split_matches_plain_oracle_bitwise(name):
    # the factors are pointwise (a value at x depends on x alone), and each
    # takes the value 0.5 + x on its set, so that the products are not
    # just 0 and 1
    pm = _oracle_measure(name)

    def scaled(a):
        return lambda x: a(x) * (0.5 + np.asarray(x))

    f0 = scaled(IntervalSet([(0.0, 0.7)]))
    draw = np.random.default_rng(43)
    for depth in range(6):
        for paths in (100_003, 1000, 1):
            factors = [None if draw.random() < 0.25 else
                       scaled(IntervalSet([(lo, lo + 0.45)]))
                       for lo in draw.uniform(0.0, 0.5, depth)]
            for first in (None, f0):
                spec = CylinderFunction([first, *factors])
                x, seed = float(draw.random()), int(draw.integers(2**32))
                rng, ref_rng = (np.random.default_rng(seed),
                                np.random.default_rng(seed))
                p_hat = towb.empirical_cylinder_frequency(pm, x, spec, paths,
                                                          rng)
                where = (name, depth, paths, first is None)
                assert p_hat == _frequency_by_plain_split(
                    pm, x, spec, paths, ref_rng), where
                assert (rng.bit_generator.state
                        == ref_rng.bit_generator.state), where


@pytest.mark.parametrize("name", ["sys_b", "three_branch"])
def test_count_split_draws_the_word_counts_of_sample_paths(name):
    # the count of each depth-2 word, read by the split as the frequency of
    # the event "x_1, x_2 in the images of the word's branches", has the law
    # of that word's count among as many paths of sample_paths: the same
    # mean and the same variance over repeated draws (seeded)
    pm = _oracle_measure(name)
    n = pm.op.system.n_branches
    x, paths, reps = 0.3, 400, 1000
    images = [IntervalSet([(i / n, (i + 1) / n)]) for i in range(n)]
    words = [(a, b) for a in range(n) for b in range(n)]
    rng = np.random.default_rng(2468)
    split = np.rint([[paths * towb.empirical_cylinder_frequency(
        pm, x, CylinderFunction([None, images[a], images[b]]), paths, rng)
        for a, b in words] for _ in range(reps)])
    walked = []
    for _ in range(reps):
        digits, _ = towb.sample_paths(pm, np.full(paths, x), 2, rng)
        walked.append(np.bincount(digits[:, 0] * n + digits[:, 1],
                                  minlength=n * n))
    walked = np.array(walked)
    for w, word in enumerate(words):
        a, b = split[:, w], walked[:, w]
        if not b.any():
            assert not a.any(), word
            continue
        gap = abs(a.mean() - b.mean())
        assert gap < 4 * np.sqrt((a.var() + b.var()) / reps), word
        # two sample variances of 1000 draws each differ by ~6% (one
        # standard deviation of their log ratio); 1.4 is over 5 of those
        assert 1 / 1.4 < a.var(ddof=1) / b.var(ddof=1) < 1.4, word


class _SplitRecorder:
    """A generator whose ``multinomial`` calls are recorded: the counts
    split at each step and the counts drawn."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.steps = []

    def multinomial(self, counts, pvals):
        drawn = self.rng.multinomial(counts, pvals)
        self.steps.append((np.array(counts), drawn))
        return drawn


def test_frequency_stores_no_coordinate_matrix(pm_b):
    # the (paths, depth+1) coordinates alone would take the bound; the
    # frequency keeps one count and one product per reached state, so its
    # peak does not grow with paths, and every step splits all the walks
    depth = 3
    spec = CylinderFunction([None] + [IntervalSet([(0.1, 0.6)])] * depth)

    def peak(frequency, paths, rng):
        tracemalloc.start()
        try:
            frequency(pm_b, 0.3, spec, paths, rng)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    paths = 100_000
    bound = (depth + 1) * paths * 8
    peaks = [peak(frequency, paths, np.random.default_rng(0))
             for frequency in (towb.empirical_cylinder_frequency,
                               _frequency_by_sampled_coordinates)]
    assert peaks[0] < bound < peaks[1], peaks
    few, many = (peak(towb.empirical_cylinder_frequency, paths,
                      np.random.default_rng(0)) for paths in (10**3, 10**6))
    assert many <= 2 * few, (few, many)
    for paths in (10**3, 10**6):
        rng = _SplitRecorder(5)
        towb.empirical_cylinder_frequency(pm_b, 0.3, spec, paths, rng)
        assert len(rng.steps) == depth
        for counts, drawn in rng.steps:
            assert counts.sum() == drawn.sum() == paths
            assert np.array_equal(drawn.sum(axis=1), counts)
