import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towb
from towb.errors import DomainError
from towb.grid import wrap_unit
from towb.system import (PiecewiseAffineMap, WeightExpr,
                         left_inverse_residuals, make_system, validate_system)


def _searchsorted_sigma(sigma, x):
    """Reference: a piecewise map evaluated by looking up the last piece
    starting at or before ``x``, clipped to the first piece."""
    xs = np.asarray(wrap_unit(x), dtype=float)
    los = np.array([p[0] for p in sigma.pieces])
    idx = np.clip(np.searchsorted(los, xs, side="right") - 1, 0,
                  len(sigma.pieces) - 1)
    slopes = np.array([p[2] for p in sigma.pieces])[idx]
    offs = np.array([p[3] for p in sigma.pieces])[idx]
    return wrap_unit(slopes * xs + offs)


def _node_sweep_residuals(system, n_grid):
    """Reference: the left-inverse residuals sampled at the grid nodes,
    the largest circle distance ``|sigma(tau_i x_j) - x_j|`` per branch."""
    nodes = np.arange(n_grid) / n_grid
    dist = np.abs(np.array([system.sigma(wrap_unit(br(nodes)))
                            for br in system.branches]) - nodes)
    return np.minimum(dist, 1.0 - dist).max(axis=1)


# sys_a's doubling map with 3x - 1.5 on a sliver [0.5, 0.5 + 0.3/1024)
# that holds no node of a 1,024-cell grid
SLIVER = PiecewiseAffineMap([(0.0, 0.5, 2.0, 0.0),
                             (0.5, 0.5 + 0.3 / 1024, 3.0, -1.5),
                             (0.5 + 0.3 / 1024, 1.0, 2.0, -1.0)])


@st.composite
def _piecewise_maps(draw):
    """Pieces on sorted breakpoints, each with a gap after it or none."""
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                max_size=9, unique=True)))
    gaps = draw(st.lists(st.booleans(), min_size=len(cuts) - 1,
                         max_size=len(cuts) - 1))
    pieces = []
    for lo, hi, gap in zip(cuts, cuts[1:], gaps):
        a = draw(st.floats(-5.0, 5.0).filter(lambda v: abs(v) > 0.5))
        pieces.append((lo, (lo + hi) / 2 if gap else hi, a,
                       draw(st.floats(-3.0, 3.0))))
    return PiecewiseAffineMap(pieces)


class TestWeightExpr:
    def test_constant(self):
        w = WeightExpr.constant(1.0)
        assert w(0.3) == 1.0

    def test_trig_values(self):
        w = WeightExpr.trig(1.0, [1.0])
        assert w(0.0) == pytest.approx(2.0)
        assert w(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_table(self):
        w = WeightExpr.from_table(towb.GridFunction([1.0, 2.0, 3.0, 2.0]))
        assert w(0.25) == 2.0
        assert w.trigpoly is None

    def test_constant_is_closed_form_without_coefficients(self):
        got = WeightExpr.constant(0.7).trigpoly
        want = towb.TrigPoly.constant(0.7)
        assert np.array_equal(got.freqs, want.freqs)
        assert np.array_equal(got.coefs, want.coefs)
        assert WeightExpr.constant(0.7) == WeightExpr.trig(0.7)

    def test_scaled(self):
        w = WeightExpr.trig(2.0, [1.0]).scaled(0.5)
        assert w(0.0) == pytest.approx(1.5)


class TestPiecewiseAffineMap:
    def test_doubling(self):
        s = PiecewiseAffineMap.expanding(2)
        assert s(0.3) == pytest.approx(0.6)
        assert s(0.75) == pytest.approx(0.5)

    def test_preimage_of_interval(self):
        s = PiecewiseAffineMap.expanding(2)
        pre = s.preimage(towb.IntervalSet([(0.0, 0.25)]))
        assert pre.intervals == ((0.0, 0.125), (0.5, 0.625))

    def test_inferred_from_branches(self):
        s = PiecewiseAffineMap.inverse_of_branches(
            [towb.AffineBranch(0.5, 0.0), towb.AffineBranch(0.5, 0.5)])
        assert s.pieces == PiecewiseAffineMap.expanding(2).pieces

    @settings(max_examples=200, deadline=None)
    @given(_piecewise_maps(), st.lists(st.floats(-2.0, 3.0), min_size=1,
                                       max_size=20))
    def test_call_matches_searchsorted_lookup(self, sigma, xs):
        # at the piece starts, in the gaps and off [0, 1) as well
        pts = np.array(xs + [p[0] for p in sigma.pieces]
                       + [p[1] for p in sigma.pieces] + [0.0, 1.0])
        assert sigma(pts).tobytes() == _searchsorted_sigma(sigma,
                                                           pts).tobytes()

    def test_preimage_covers_gap_stretch(self):
        # the inferred middle-thirds map leaves [1/3, 2/3) to its first
        # piece, 3x, whose image there is [1, 2): the preimage is the one
        # of the full 3x mod 1
        inferred = PiecewiseAffineMap.inverse_of_branches(
            towb.sys_d(243).branches)
        region = towb.IntervalSet([(0.1, 0.4), (0.9, 1.0)])
        assert inferred.preimage(region) == towb.sys_d(243).sigma.preimage(
            region)

    def test_preimage_ignores_rounding_sliver(self):
        # the first piece's image ends at 1.0000000000000002: the next
        # unit interval adds no sliver [0.4999999999999999, 0.5)
        s = PiecewiseAffineMap([(0.0, 0.5, 2.0000000000000004, 0.0),
                                (0.5, 1.0, 2.0, -1.0)])
        pre = s.preimage(towb.IntervalSet([(0.0, 0.25)]))
        assert pre.intervals == ((0.0, 0.25 / 2.0000000000000004),
                                 (0.5, 0.625))

    def test_preimage_keeps_short_region(self):
        pre = PiecewiseAffineMap.expanding(2).preimage(
            towb.IntervalSet([(0.5, 0.5 + 1e-13)]))
        assert pre.intervals == ((0.25, (0.5 + 1e-13) / 2),
                                 (0.75, (1.5 + 1e-13) / 2))


class TestValidation:
    def test_fixtures_validate(self):
        towb.sys_a(256)
        towb.sys_b(256)
        towb.sys_d(243)

    def test_probability_sum_enforced(self):
        with pytest.raises(DomainError, match="sum to 1"):
            make_system([0.5, 0.5], [0.0, 0.5], [0.6, 0.6],
                        WeightExpr.constant(1.0), sigma=2)

    def test_sigma_mismatch_detected(self):
        with pytest.raises(DomainError, match="left inverse"):
            make_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5],
                        WeightExpr.constant(1.0), sigma=3)

    def test_sigma_slope_perturbation_fails_right_inverse(self):
        skewed = PiecewiseAffineMap([(0.0, 0.5, 2.0 + 1e-3, 0.0),
                                     (0.5, 1.0, 2.0 + 1e-3, -1.0 - 5e-4)])
        bad = towb.sys_a(256).with_sigma(skewed)
        with pytest.raises(DomainError, match="left inverse"):
            validate_system(bad, 256)

    def test_left_inverse_residuals_on_fixtures(self):
        for system in (towb.sys_a(256), towb.sys_b(256), towb.sys_d(243)):
            residuals = left_inverse_residuals(system)
            assert residuals.shape == (2,)
            assert np.all(residuals <= 1e-15)

    def test_left_inverse_residuals_memory_does_not_grow_with_grid(self):
        # the node sweep peaked at 81 MiB at 2^20 cells; the exact check
        # reads no grid
        system = towb.sys_b(256)
        tracemalloc.start()
        try:
            residuals = left_inverse_residuals(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(residuals <= 1e-15)
        assert peak < 8 * 2**20

    def test_many_term_weight_builds_in_bounded_memory(self):
        # validation evaluates W at the 65,536 midpoints and nodes; their
        # whole basis of 200 terms took 302.5 MiB
        weight = WeightExpr.trig(1.0, [0.00225] * 200)
        tracemalloc.start()
        try:
            towb.doubling_system(weight, n_grid=2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_left_inverse_residuals_on_skewed_sigma(self):
        # the skewed map of acceptance 08: slope 2.01 on both halves
        skewed = PiecewiseAffineMap([(0.0, 0.5, 2.01, 0.0),
                                     (0.5, 1.0, 2.01, -1.005)])
        bad = towb.sys_a(1024).with_sigma(skewed)
        residuals = left_inverse_residuals(bad)
        assert residuals == pytest.approx([5e-3, 5e-3], abs=1e-5)
        with pytest.raises(DomainError,
                           match=f"branch 0, residual {residuals[0]:.3e}"):
            validate_system(bad, 1024)

    def test_sliver_sigma_refused(self):
        # the node sweep of 1,024 cells never lands in the sliver
        bad = towb.sys_a(1024).with_sigma(SLIVER)
        assert np.all(_node_sweep_residuals(bad, 1024) == 0.0)
        with pytest.raises(DomainError, match="branch 1, residual 2.930e-04"):
            validate_system(bad, 1024)

    @pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_d", "skewed",
                                      "sliver", "wrapping"])
    def test_left_inverse_residuals_bound_node_sweep(self, name):
        # wrapping: tau_i x = x/2 + 1/4, x/2 + 3/4 mod 1 under
        # sigma y = 2y - 1/2 mod 1; the second image crosses 1
        sigmas = {
            "skewed": [(0.0, 0.5, 2.01, 0.0), (0.5, 1.0, 2.01, -1.005)],
            "sliver": SLIVER.pieces,
            "wrapping": [(0.0, 0.25, 2.0, 0.5), (0.25, 0.75, 2.0, -0.5),
                         (0.75, 1.0, 2.0, -1.5)]}
        if name in sigmas:
            system = make_system(
                [0.5, 0.5], [0.25, 0.75] if name == "wrapping" else
                [0.0, 0.5], [0.5, 0.5], WeightExpr.constant(1.0),
                sigma=PiecewiseAffineMap(sigmas[name]), validate=False,
                mod_one=name == "wrapping")
        else:
            system = getattr(towb, name)(256)
        # the sweep composes two rounded maps, a few ulps of 1 off the
        # exact affine residual
        exact = left_inverse_residuals(system)
        for n in (243, 256, 1024):
            assert np.all(exact >= _node_sweep_residuals(system, n) - 1e-15)
        if name in ("sys_a", "sys_b", "sys_d", "wrapping"):
            assert np.all(exact == 0.0)

    def test_branch_slope_perturbation_breaks_tiling(self):
        with pytest.raises(DomainError, match="overlapping image"):
            make_system([0.5 + 1e-3, 0.5], [0.0, 0.5], [0.5, 0.5],
                        WeightExpr.constant(1.0), sigma=2)

    @pytest.mark.parametrize("offsets, image", [
        ([-0.25, 0.25], r"branches\[0\]: image \[-0.25, 0.25\]"),
        ([0.0, 0.75], r"branches\[1\]: image \[0.75, 1.25\]")])
    def test_branch_image_leaving_unit_interval_rejected(self, offsets,
                                                         image):
        # a branch that does not wrap must map [0, 1) into [0, 1]; the
        # images here do not overlap, and sigma is inferred from them
        with pytest.raises(DomainError, match=image + " of .* leaves"):
            make_system([0.5, 0.5], offsets, [0.5, 0.5],
                        WeightExpr.constant(1.0))

    def test_overlapping_images_rejected(self):
        with pytest.raises(DomainError, match="overlapping image"):
            make_system([0.6, 0.5], [0.0, 0.5], [0.5, 0.5],
                        WeightExpr.constant(1.0),
                        sigma=PiecewiseAffineMap(
                            [(0.0, 0.6, 1 / 0.6, 0.0), (0.6, 1.0, 2.0, -1.0)]),
                        validate=True)

    @pytest.mark.parametrize("sigma", [None, 2], ids=["inferred", "slope_2"])
    def test_one_overlap_rule(self, sigma):
        # images that overlap by 1e-13 are accepted and by 1e-11 refused,
        # whether sigma is inferred from the branches or given as 2x mod 1
        def build(overlap):
            return make_system([0.5, 0.5], [0.0, 0.5 - overlap], [0.5, 0.5],
                               WeightExpr.constant(1.0), sigma=sigma)

        build(1e-13)
        with pytest.raises(DomainError, match="overlap"):
            build(1e-11)

    def test_weight_zero_at_node_tolerated_on_even_grid(self):
        # the trig weight 1 + cos(2 pi x) vanishes at 1/2, a node of any
        # even grid; midpoint validation accepts it
        towb.sys_b(1024)

    def test_weight_zero_at_midpoint_rejected_on_odd_grid(self):
        # on an odd grid 1/2 is a cell midpoint, so the same weight fails
        # the strict positivity check there
        with pytest.raises(DomainError, match="positive at cell midpoints"):
            towb.sys_b(255)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError, match="positive at cell midpoints"):
            make_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5],
                        WeightExpr.trig(0.0, [1.0]), sigma=2)
