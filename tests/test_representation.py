import json

import numpy as np
import pytest

from mvfuzzy.data import MultiViewDataset, make_synthetic
from mvfuzzy.representation import (_linguistic_labels, embed, export_rules,
                                    rules_predict, rules_to_text)
from mvfuzzy.solver import Hyperparams, fit


@pytest.fixture(scope="module")
def single_view_fit():
    ds = make_synthetic(n_instances=60, n_views=1, n_clusters=3,
                        noise=0.15, seed=21, dims=[5])
    state, _ = fit(ds, Hyperparams(max_iter=15, seed=2))
    return ds, state


class TestEmbed:
    def test_single_view_layout(self, single_view_fit):
        ds, state = single_view_fit
        z = embed(ds, state)
        m = state.embed_dim
        assert z.data.shape == (ds.n_instances, 2 * m)
        assert z.block_layout == ["common", "specific_1"]
        # With one view the weight is 1, so blocks are the raw products.
        from mvfuzzy.representation import view_design_matrices
        xg = view_design_matrices(ds, state)[0]
        np.testing.assert_allclose(z.data[:, :m], xg @ state.p_common[0])
        np.testing.assert_allclose(z.data[:, m:], xg @ state.p_specific[0])

    def test_zero_specific_blocks(self, blob_dataset):
        state, _ = fit(blob_dataset,
                       Hyperparams(max_iter=10, variant="common_only",
                                   seed=4))
        z = embed(blob_dataset, state)
        m = state.embed_dim
        np.testing.assert_array_equal(z.data[:, m:], 0.0)
        assert np.any(z.data[:, :m] != 0.0)

    def test_weight_annihilation(self, fitted_blob, blob_dataset):
        state, _ = fitted_blob
        m = state.embed_dim
        import copy
        hard = copy.deepcopy(state)
        hard.view_weights = np.array([1.0, 0.0])
        z = embed(blob_dataset, hard)
        from mvfuzzy.representation import view_design_matrices
        xg1 = view_design_matrices(blob_dataset, hard)[0]
        np.testing.assert_allclose(z.data[:, :m], xg1 @ hard.p_common[0])
        np.testing.assert_array_equal(z.data[:, 2 * m:], 0.0)

    def test_view_mismatch_rejected(self, fitted_blob, blob_dataset):
        state, _ = fitted_blob
        wrong = MultiViewDataset(views=[blob_dataset.views[0]])
        with pytest.raises(ValueError):
            embed(wrong, state)


class TestLinguisticLabels:
    def test_rank_three_centers(self):
        labels = _linguistic_labels(np.array([0.0858, 0.0458, 0.0760]))
        assert labels == ["High", "Low", "Middle"]

    def test_single_rule(self):
        assert _linguistic_labels(np.array([1.0])) == ["Level 1"]

    def test_ties_break_by_rule_index(self):
        labels = _linguistic_labels(np.array([2.0, 2.0]))
        assert labels == ["Level 1", "Level 2"]

    def test_labels_are_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels = _linguistic_labels(rng.normal(size=3))
            assert sorted(labels) == ["High", "Low", "Middle"]


class TestExportRules:
    def test_roundtrip_inference_matches_embed(self, fitted_blob,
                                               blob_dataset):
        state, _ = fitted_blob
        export = export_rules(state)
        direct = embed(blob_dataset, state).data
        replayed = rules_predict(export, blob_dataset.views).data
        np.testing.assert_allclose(replayed, direct, atol=1e-10)

    def test_roundtrip_survives_json(self, fitted_blob, blob_dataset):
        state, _ = fitted_blob
        export = export_rules(state)
        restored = json.loads(json.dumps(export))
        assert restored == export
        direct = embed(blob_dataset, state).data
        replayed = rules_predict(restored, blob_dataset.views).data
        np.testing.assert_allclose(replayed, direct, atol=1e-10)

    @pytest.mark.parametrize("bad, words", [
        ("one_column", "view 0: feature count mismatch"),
        ("flat", "view 1 is not a 2-D matrix"),
        ("short", "view 1 has 79 rows but view 0 has 80")])
    def test_replay_checks_the_views(self, fitted_blob, blob_dataset, bad,
                                     words):
        # A one-column view would broadcast against a wider rule base.
        views = list(blob_dataset.views)
        if bad == "one_column":
            views[0] = views[0][:, :1]
        elif bad == "flat":
            views[1] = views[1][:, 0]
        else:
            views[1] = views[1][1:]
        with pytest.raises(ValueError, match=words):
            rules_predict(export_rules(fitted_blob[0]), views)

    def test_text_structure(self, fitted_blob):
        state, _ = fitted_blob
        text = rules_to_text(export_rules(state))
        assert "Rule 1:" in text
        assert "IF: the 1th feature is" in text
        assert "Then: the 1th output is" in text
        assert "common representation" in text
        assert "specific representation" in text

    def test_consequent_table_shapes(self, fitted_blob):
        state, _ = fitted_blob
        export = export_rules(state)
        d = state.banks[0].n_features
        for rule in export["views"][0]["rules"]:
            assert np.shape(rule["common"]) == (state.embed_dim, d + 1)
            assert np.shape(rule["specific"]) == (state.embed_dim, d + 1)
            assert len(rule["antecedent"]) == d


class TestOrthogonalityPressure:
    def test_cross_coupling_shrinks_with_alpha(self, blob_dataset):
        from mvfuzzy.representation import view_design_matrices

        norms = []
        for alpha in (2.0 ** -5, 1.0, 2.0 ** 5):
            state, _ = fit(blob_dataset, Hyperparams(alpha=alpha, seed=0))
            design = view_design_matrices(blob_dataset, state)
            total = sum(
                np.linalg.norm((design[v] @ state.p_common[v]).T
                               @ (design[v] @ state.p_specific[v]))
                for v in range(state.n_views))
            norms.append(total)
        assert norms[0] >= norms[1] - 1e-12
        assert norms[1] >= norms[2] - 1e-12
