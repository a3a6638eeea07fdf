import tracemalloc

import numpy as np
import pytest

import towb
from towb.errors import DomainError
from towb.system import (PiecewiseAffineMap, WeightExpr,
                         left_inverse_residuals, make_system, validate_system)


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
        for system, n in ((towb.sys_a(256), 256), (towb.sys_b(256), 256),
                          (towb.sys_d(243), 243)):
            residuals = left_inverse_residuals(system, n)
            assert residuals.shape == (2,)
            assert np.all(residuals <= 1e-15)

    def test_left_inverse_residuals_memory_does_not_grow_with_grid(self):
        # all nodes and images at once peak at 81 MiB at 2^20 cells
        system = towb.sys_b(256)
        tracemalloc.start()
        try:
            residuals = left_inverse_residuals(system, 2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(residuals <= 1e-15)
        assert peak < 8 * 2**20

    def test_left_inverse_residuals_on_skewed_sigma(self):
        # the skewed map of acceptance 08: slope 2.01 on both halves
        skewed = PiecewiseAffineMap([(0.0, 0.5, 2.01, 0.0),
                                     (0.5, 1.0, 2.01, -1.005)])
        bad = towb.sys_a(1024).with_sigma(skewed)
        residuals = left_inverse_residuals(bad, 1024)
        assert residuals == pytest.approx([5e-3, 5e-3], abs=1e-5)
        with pytest.raises(DomainError,
                           match=f"branch 0, residual {residuals[0]:.3e}"):
            validate_system(bad, 1024)

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
