import numpy as np
import pytest

from mvfuzzy.antecedent import (EPS_WIDTH, AntecedentBank, Standardizer,
                                estimate_widths, firing_levels,
                                fit_antecedents, fuzzy_map,
                                log_firing_levels, varpart_centers)


class TestVarpartCenters:
    def test_two_separated_pairs(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
        centers = varpart_centers(x, 2)
        got = {tuple(c) for c in centers}
        assert got == {(0.0, 0.0), (10.0, 10.0)}

    def test_single_rule_is_column_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(17, 4))
        centers = varpart_centers(x, 1)
        assert centers.shape == (1, 4)
        np.testing.assert_array_equal(centers[0], x.mean(axis=0))

    def test_two_blobs_match_single_split_oracle(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0.0, 1.0, size=10),
                            rng.normal(100.0, 1.0, size=10)])[:, None]
        centers = varpart_centers(x, 2)
        # Oracle: the only possible split is at the global mean.
        split = x.mean()
        expected = {float(x[x < split].mean()), float(x[x >= split].mean())}
        assert {float(c) for c in centers[:, 0]} == expected

    def test_too_many_rules_rejected(self):
        with pytest.raises(ValueError):
            varpart_centers(np.zeros((3, 2)), 4)

    def test_unsplittable_duplicates_center_with_warning(self):
        x = np.ones((4, 2)) * 7.0
        with pytest.warns(RuntimeWarning):
            centers = varpart_centers(x, 2)
        np.testing.assert_array_equal(centers, np.full((2, 2), 7.0))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 5))
        first = varpart_centers(x, 4)
        second = varpart_centers(x, 4)
        np.testing.assert_array_equal(first, second)


class TestEstimateWidths:
    def test_single_rule_gives_ones(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 3))
        widths = estimate_widths(x, x.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(widths, 1.0, rtol=0, atol=0)

    def test_symmetric_pair_gives_half(self):
        x = np.array([[-1.0], [1.0]])
        centers = np.array([[-1.0], [1.0]])
        widths = estimate_widths(x, centers)
        np.testing.assert_allclose(widths, 0.5)

    def test_constant_column_floored_with_warning(self):
        x = np.column_stack([np.array([-1.0, 1.0]), np.full(2, 3.0)])
        centers = np.array([[-1.0, 3.0], [1.0, 3.0]])
        with pytest.warns(RuntimeWarning):
            widths = estimate_widths(x, centers)
        np.testing.assert_array_equal(widths[:, 1], [EPS_WIDTH, EPS_WIDTH])
        np.testing.assert_allclose(widths[:, 0], 0.5)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 6))
        centers = varpart_centers(x, 3)
        widths = estimate_widths(x, centers)
        np.testing.assert_allclose(widths.sum(axis=0), 1.0, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 3))
        centers = varpart_centers(x, 3)
        np.testing.assert_array_equal(estimate_widths(x, centers),
                                      estimate_widths(x, centers))


class TestFiringLevels:
    def test_single_rule_always_one(self):
        bank = fit_antecedents(np.random.default_rng(0).normal(size=(8, 3)), 1)
        levels = firing_levels(np.array([5.0, -2.0, 0.3]), bank)
        np.testing.assert_array_equal(levels, [1.0])

    def test_maximal_at_own_center(self):
        centers = np.array([[0.0, 0.0], [3.0, 3.0]])
        widths = np.full((2, 2), 0.5)
        bank = AntecedentBank(centers=centers, widths=widths)
        levels = firing_levels(centers[0], bank)
        assert levels[0] > levels[1]

    def test_matches_direct_product_at_small_scale(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 2))
        bank = fit_antecedents(x, 2)
        levels = firing_levels(x, bank)
        # Direct (non-log) evaluation is safe at this scale.
        raw = np.ones((6, 2))
        for k in range(2):
            for j in range(2):
                raw[:, k] *= np.exp(-(x[:, j] - bank.centers[k, j]) ** 2
                                    / (2 * bank.widths[k, j]))
        np.testing.assert_allclose(levels, raw / raw.sum(1, keepdims=True),
                                   atol=1e-12)

    def test_high_dimension_floor_widths_still_normalized(self):
        rng = np.random.default_rng(6)
        for d, width in ((300, 1e-3), (1000, EPS_WIDTH)):
            bank = AntecedentBank(centers=rng.random((3, d)),
                                  widths=np.full((3, d), width))
            x = rng.random((5, d)) + 50.0
            levels = firing_levels(x, bank)
            assert np.all(np.isfinite(levels))
            np.testing.assert_allclose(levels.sum(axis=1), 1.0, atol=1e-9)

    def test_log_levels_nonpositive_zero_only_at_center(self):
        centers = np.array([[1.0, -1.0]])
        widths = np.array([[0.2, 0.4]])
        bank = AntecedentBank(centers=centers, widths=widths)
        logs = log_firing_levels(np.vstack([centers[0], centers[0] + 0.1]),
                                 bank)
        assert logs[0, 0] == 0.0
        assert logs[1, 0] < 0.0

    def test_rejects_non_finite(self):
        bank = AntecedentBank(centers=np.zeros((1, 2)),
                              widths=np.ones((1, 2)))
        with pytest.raises(ValueError):
            firing_levels(np.array([np.nan, 0.0]), bank)


class TestFuzzyMap:
    def test_single_rule_appends_one(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        bank = fit_antecedents(x, 1)
        out = fuzzy_map(x, bank)
        np.testing.assert_allclose(out[:, 0], 1.0)
        np.testing.assert_allclose(out[:, 1:], x)

    def test_shape_contract(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2))
        out = fuzzy_map(x, fit_antecedents(x, 2))
        assert out.shape == (3, 6)

    def test_block_constants_sum_to_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(10, 4))
        out = fuzzy_map(x, fit_antecedents(x, 3))
        consts = out[:, [0, 5, 10]]
        np.testing.assert_allclose(consts.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_slot_sum_invariant_under_scaling(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 2))
        bank = fit_antecedents(x, 2)
        for scale in (1.0, 10.0):
            out = fuzzy_map(x * scale, bank)
            np.testing.assert_allclose(out[:, [0, 3]].sum(axis=1), 1.0,
                                       atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        bank = AntecedentBank(centers=np.zeros((2, 3)),
                              widths=np.ones((2, 3)))
        with pytest.raises(ValueError):
            fuzzy_map(np.zeros((4, 2)), bank)


class TestStandardizer:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(3.0, 2.0, size=(50, 3))
        std = Standardizer.fit(x)
        z = std.transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 2.5)])
        z = Standardizer.fit(x).transform(x)
        np.testing.assert_array_equal(z[:, 1], 0.0)

    def test_inexact_constant_column_maps_to_zero_with_unit_scale(self):
        # The mean of [0.1, 0.1, 0.1] rounds away from 0.1, so the std is
        # a rounding residue, not 0; the column must still be treated as
        # constant rather than divided by that residue.
        x = np.column_stack([np.arange(3.0), np.full(3, 0.1)])
        std = Standardizer.fit(x)
        assert std.mean[1] == 0.1
        assert std.scale[1] == 1.0
        np.testing.assert_array_equal(std.transform(x)[:, 1], 0.0)
        z_new = std.transform(np.array([[1.0, 0.1000001]]))
        assert z_new[0, 1] == pytest.approx(1e-7, rel=1e-6)
