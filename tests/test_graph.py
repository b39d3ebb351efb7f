from unittest import mock

import numpy as np
import pytest

from mvfuzzy import graph
from mvfuzzy.graph import build_graph, knn_similarity, laplacian
from oracles import dense_knn_similarity, pairwise_smoothness


class TestKnnSimilarity:
    def test_coincident_points_get_unit_weight(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        s = knn_similarity(x, n_neighbors=1)
        assert s[0, 1] == 1.0 and s[1, 0] == 1.0

    def test_collinear_hand_values(self):
        x = np.array([[0.0], [1.0], [100.0]])
        s = knn_similarity(x, n_neighbors=1, bandwidth=1.0)
        np.testing.assert_allclose(s[0, 1], np.exp(-0.5))
        assert s[0, 2] == 0.0 and s[2, 0] == 0.0

    def test_kernel_range(self):
        rng = np.random.default_rng(0)
        s = knn_similarity(rng.normal(size=(40, 5)), n_neighbors=6)
        assert s.max() <= 1.0 and s.min() >= 0.0

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(1)
        s = knn_similarity(rng.normal(size=(30, 4)), n_neighbors=4).toarray()
        np.testing.assert_allclose(s, s.T, atol=0)
        np.testing.assert_array_equal(np.diag(s), 0.0)

    def test_neighbor_count_validated(self):
        x = np.zeros((5, 2))
        with pytest.raises(ValueError):
            knn_similarity(x, n_neighbors=5)
        with pytest.raises(ValueError):
            knn_similarity(x, n_neighbors=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.random.default_rng(5).normal(size=(8, 3))
        x[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            knn_similarity(x, n_neighbors=2)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            knn_similarity(np.zeros((4, 2)), n_neighbors=1, bandwidth=-1.0)

    def test_next_distance_ties_the_kth(self):
        # Row 0's distances are 1, 9, 36, 36, ...: the 4th ties the 3rd
        # while the nearer ones are distinct, so with k = 3 the tie must
        # go to column 3, not 4. Rows 1-3 pick row 0 and rows 4-7 pick
        # only among themselves.
        x = np.array([[0.0], [1.0], [3.0], [6.0], [-6.0], [-6.5], [-7.0],
                      [-7.5]])
        s = knn_similarity(x, n_neighbors=3, bandwidth=1.0)
        np.testing.assert_array_equal(s[[0], :].nonzero()[1], [1, 2, 3])
        np.testing.assert_array_equal(
            s.toarray(), dense_knn_similarity(x, 3, bandwidth=1.0))

    def test_bound_set_by_a_group_minimum_outside_the_k_nearest(self):
        # With 3 column groups, row 0's group minima are 100 (column 3),
        # 1 (column 1) and 4 (column 5), so for k = 2 the bound is 4, set
        # by column 5. Columns 4 and 5 tie at 4 and the tie goes to
        # column 4, so the column that sets the bound is not selected.
        # Rows 1, 3, 4 and 5 all pick row 0, so S[0, 5] holds only
        # row 5's half.
        x = np.array([[0.0], [1.0], [10.0], [-10.0], [2.0], [-2.0], [20.0],
                      [-20.0], [30.0], [-30.0], [40.0], [-40.0]])
        with mock.patch.object(graph, "_GROUPS", 3):
            s = knn_similarity(x, n_neighbors=2, bandwidth=1.0)
        np.testing.assert_array_equal(s[[0], :].nonzero()[1], [1, 3, 4, 5])
        assert s[0, 4] == np.exp(-2.0) and s[0, 5] == 0.5 * np.exp(-2.0)
        np.testing.assert_array_equal(
            s.toarray(), dense_knn_similarity(x, 2, bandwidth=1.0))

    def test_every_group_ties_at_the_bound(self):
        # Row 0 is at distance 1 from every other point, so all 4 group
        # minima equal the bound and the candidates are the whole row:
        # the lowest columns, 1 and 2, must win the tie.
        x = np.array([[0.0]] + [[(-1.0) ** i] for i in range(1, 17)])
        with mock.patch.object(graph, "_GROUPS", 4):
            s = knn_similarity(x, n_neighbors=2, bandwidth=1.0)
        np.testing.assert_array_equal(s[[0], :].nonzero()[1], [1, 2])
        np.testing.assert_array_equal(
            s.toarray(), dense_knn_similarity(x, 2, bandwidth=1.0))


@pytest.mark.parametrize("kind", ["dyadic", "grid"])
@pytest.mark.parametrize("k", [1, 5, 40])
def test_default_block_budget_matches_dense_oracle(kind, k):
    # At N = 1500 the unpatched 16 MB budget splits the rows into two
    # blocks. Dyadic and small-integer coordinates make every squared
    # distance exact, so S must equal the oracle bit for bit; the integer
    # grid has few distinct distances, so most rows tie at the k-th.
    rng = np.random.default_rng(17)
    if kind == "dyadic":
        x = rng.integers(-1024, 1025, size=(1500, 6)) / 16.0
    else:
        x = rng.integers(-2, 3, size=(1500, 3)).astype(float)
    assert len(graph._row_blocks(len(x))) == 3
    np.testing.assert_array_equal(knn_similarity(x, k).toarray(),
                                  dense_knn_similarity(x, k))


class TestLaplacian:
    def test_zero_similarity(self):
        g = laplacian(np.zeros((4, 4)))
        np.testing.assert_array_equal(g.laplacian.toarray(), 0.0)

    def test_two_node_graph(self):
        g = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(g.laplacian.toarray(),
                                      [[1.0, -1.0], [-1.0, 1.0]])

    def test_trace_identity_against_bruteforce(self):
        rng = np.random.default_rng(2)
        s = rng.random((50, 50))
        s = 0.5 * (s + s.T)
        np.fill_diagonal(s, 0.0)
        g = laplacian(s)
        z = rng.normal(size=(50, 3))
        quad = float(np.trace(z.T @ g.laplacian @ z))
        brute = pairwise_smoothness(s, z)
        assert abs(quad - brute) <= 1e-10 * abs(brute)

    def test_asymmetric_rejected(self):
        s = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            laplacian(s)

    def test_invariants_on_knn_graphs(self):
        rng = np.random.default_rng(3)
        for n, d, k in ((10, 2, 2), (60, 7, 5), (120, 3, 8)):
            g = build_graph(rng.normal(size=(n, d)), n_neighbors=k)
            s, lap = g.similarity.toarray(), g.laplacian.toarray()
            assert np.max(np.abs(s - s.T)) <= 1e-10
            assert np.max(np.abs(lap.sum(axis=1))) <= 1e-10
            assert np.linalg.eigvalsh(lap).min() >= -1e-8

    def test_extra_edge_never_decreases_smoothness(self):
        rng = np.random.default_rng(4)
        s = rng.random((12, 12))
        s = 0.5 * (s + s.T)
        np.fill_diagonal(s, 0.0)
        z = rng.normal(size=(12, 2))
        base = float(np.trace(z.T @ laplacian(s).laplacian @ z))
        bumped = s.copy()
        bumped[2, 7] += 0.5
        bumped[7, 2] += 0.5
        after = float(np.trace(z.T @ laplacian(bumped).laplacian @ z))
        assert after >= base - 1e-12
