import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mvfuzzy import graph, make_synthetic
from mvfuzzy.antecedent import Standardizer, fit_antecedents, fuzzy_map
from conftest import knn_dense
from mvfuzzy.graph import build_graph, knn_similarity, laplacian
from oracles import dense_knn_similarity, pairwise_smoothness


def from_dense(w):
    """The GraphLaplacian whose directed weights W are the dense w: every
    column of every row, weights = w."""
    n = len(w)
    return laplacian(np.tile(np.arange(n), (n, 1)), w)


class TestKnnSimilarity:
    def test_coincident_points_get_unit_weight(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        s = knn_dense(x, 1)
        assert s[0, 1] == 1.0 and s[1, 0] == 1.0

    def test_collinear_hand_values(self):
        x = np.array([[0.0], [1.0], [100.0]])
        s = knn_dense(x, 1, bandwidth=1.0)
        np.testing.assert_allclose(s[0, 1], np.exp(-0.5))
        assert s[0, 2] == 0.0 and s[2, 0] == 0.0

    def test_kernel_range(self):
        rng = np.random.default_rng(0)
        s = knn_dense(rng.normal(size=(40, 5)), 6)
        assert s.max() <= 1.0 and s.min() >= 0.0

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(1)
        s = knn_dense(rng.normal(size=(30, 4)), 4)
        np.testing.assert_allclose(s, s.T, atol=0)
        np.testing.assert_array_equal(np.diag(s), 0.0)

    def test_lists_hold_each_rows_neighbors_in_ascending_order(self):
        x = np.random.default_rng(8).normal(size=(30, 4))
        cols, weights = knn_similarity(x, n_neighbors=4)
        assert cols.shape == weights.shape == (30, 4)
        assert np.all(np.diff(cols, axis=1) > 0)
        assert not np.any(cols == np.arange(30)[:, None])
        assert np.all((weights > 0) & (weights <= 1))

    def test_neighbor_count_validated(self):
        x = np.zeros((5, 2))
        with pytest.raises(ValueError):
            knn_similarity(x, n_neighbors=5)
        with pytest.raises(ValueError):
            knn_similarity(x, n_neighbors=0)

    @pytest.mark.parametrize("build", [knn_similarity, build_graph])
    def test_fractional_neighbor_count_rejected(self, build):
        with pytest.raises(ValueError, match="n_neighbors"):
            build(np.zeros((5, 2)), n_neighbors=2.5)

    @pytest.mark.parametrize("build", [knn_similarity, build_graph])
    @pytest.mark.parametrize("bad", [True, "1.5"])
    def test_non_real_bandwidth_rejected(self, build, bad):
        x = np.random.default_rng(6).normal(size=(8, 3))
        with pytest.raises(ValueError, match="bandwidth"):
            build(x, n_neighbors=2, bandwidth=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.random.default_rng(5).normal(size=(8, 3))
        x[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            knn_similarity(x, n_neighbors=2)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            knn_similarity(np.zeros((4, 2)), n_neighbors=1, bandwidth=-1.0)
        x = np.random.default_rng(6).normal(size=(8, 3))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="bandwidth"):
                knn_similarity(x, n_neighbors=2, bandwidth=bad)

    def test_overflowing_distances_rejected(self):
        # Every squared row norm is finite (the largest is 1.44e308), but
        # the distance between rows 1 and 2 is not.
        x = np.random.default_rng(7).normal(size=(20, 3))
        x[:3, 0] = [1e154, 1.1e154, -1.2e154]
        assert np.all(np.isfinite((x * x).sum(axis=1)))
        with pytest.raises(ValueError, match="overflow"):
            knn_similarity(x, n_neighbors=3)

    def test_next_distance_ties_the_kth(self):
        # Row 0's distances are 1, 9, 36, 36, ...: the 4th ties the 3rd
        # while the nearer ones are distinct, so with k = 3 the tie must
        # go to column 3, not 4. Rows 1-3 pick row 0 and rows 4-7 pick
        # only among themselves.
        x = np.array([[0.0], [1.0], [3.0], [6.0], [-6.0], [-6.5], [-7.0],
                      [-7.5]])
        s = knn_dense(x, 3, bandwidth=1.0)
        np.testing.assert_array_equal(np.flatnonzero(s[0]), [1, 2, 3])
        np.testing.assert_array_equal(
            s, dense_knn_similarity(x, 3, bandwidth=1.0))

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
            s = knn_dense(x, 2, bandwidth=1.0)
        np.testing.assert_array_equal(np.flatnonzero(s[0]), [1, 3, 4, 5])
        assert s[0, 4] == np.exp(-2.0) and s[0, 5] == 0.5 * np.exp(-2.0)
        np.testing.assert_array_equal(
            s, dense_knn_similarity(x, 2, bandwidth=1.0))

    def test_every_group_ties_at_the_bound(self):
        # Row 0 is at distance 1 from every other point, so all 4 group
        # minima equal the bound and the candidates are the whole row:
        # the lowest columns, 1 and 2, must win the tie.
        x = np.array([[0.0]] + [[(-1.0) ** i] for i in range(1, 17)])
        with mock.patch.object(graph, "_GROUPS", 4):
            s = knn_dense(x, 2, bandwidth=1.0)
        np.testing.assert_array_equal(np.flatnonzero(s[0]), [1, 2])
        np.testing.assert_array_equal(
            s, dense_knn_similarity(x, 2, bandwidth=1.0))


@pytest.mark.parametrize("kind", ["dyadic", "grid"])
@pytest.mark.parametrize("k", [1, 5, 40])
def test_default_block_budget_matches_dense_oracle(kind, k):
    # At N = 1500 the unpatched 256-row cap splits the rows into six
    # blocks of 250. Dyadic and small-integer coordinates make every squared
    # distance exact, so S must equal the oracle bit for bit; the integer
    # grid has few distinct distances, so most rows tie at the k-th.
    rng = np.random.default_rng(17)
    if kind == "dyadic":
        x = rng.integers(-1024, 1025, size=(1500, 6)) / 16.0
    else:
        x = rng.integers(-2, 3, size=(1500, 3)).astype(float)
    np.testing.assert_array_equal(np.diff(graph._row_blocks(len(x))),
                                  [250] * 6)
    np.testing.assert_array_equal(knn_dense(x, k),
                                  dense_knn_similarity(x, k))


@pytest.mark.parametrize("n", [600, 1000])
def test_fuzzy_designs_pick_the_plain_distance_neighbours(n):
    # The oracle forms its distances from the same augmented product as
    # the library. On real fuzzy designs, in three or four row blocks, the
    # neighbours must also be those of a stable argsort of the plain
    # sq_i + sq_j - 2 x x^T distances, with weights equal to rounding.
    ds = make_synthetic(n_instances=n, n_views=2, n_clusters=4, noise=1.5,
                        seed=0, dims=[8, 12])
    assert len(graph._row_blocks(n)) > 3
    for view in ds.views:
        z = Standardizer.fit(view).transform(view)
        x = fuzzy_map(z, fit_antecedents(z, 3))
        cols, weights = knn_similarity(x, 5)
        sq = (x * x).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
        np.fill_diagonal(d2, np.inf)
        order = np.argsort(d2, axis=1, kind="stable")[:, :5]
        np.testing.assert_array_equal(cols, np.sort(order, axis=1))
        near = np.take_along_axis(d2, cols, axis=1)
        sigma = np.median(np.sqrt(near[near > 0]))
        np.testing.assert_allclose(weights,
                                   np.exp(-near / (2.0 * sigma * sigma)),
                                   rtol=1e-13, atol=0)


def knn_peak_mb(n):
    """tracemalloc's peak, in MB, of knn_similarity on N x 39 normal
    points with k = 5."""
    x = np.random.default_rng(23).normal(size=(n, 39))
    tracemalloc.start()
    try:
        knn_similarity(x, 5)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_memory_stays_within_one_gram_block_and_the_augmented_columns():
    # One 256-row Gram block (8 MB) plus the 4000 x 40 augmented columns
    # (1.3 MB) and the block's per-row temporaries peak at about 11 MB; a
    # 16 MB block, or a copy of the block, would not fit.
    assert knn_peak_mb(4000) < 12


def test_memory_at_n_1000_stays_within_one_2_mb_block():
    # At N = 1000 a 256-row cap leaves four 2 MB blocks (peak about
    # 4.2 MB) where a 16 MB budget would hold all 1000 rows at once.
    assert knn_peak_mb(1000) < 6


def quadratic_peak_mb(n, d):
    """tracemalloc's peak, in MB, of `GraphLaplacian.quadratic` on N x D
    normal data, with the k = 5 graph built on 20 of its columns."""
    x = np.random.default_rng(29).normal(size=(n, d))
    g = build_graph(x[:, :20], 5)
    tracemalloc.start()
    try:
        g.quadratic(x)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_quadratic_holds_one_n_by_d_and_one_d_by_d_array():
    # At N = 600, D = 1200 the (N, D) product y = diag(degree) X - W X
    # (5.5 MB) and A = X^T y (11 MB) peak at about 19 MB; the two-line
    # formula's gather, A + A^T and 0.5 * (A + A^T) reach about 33 MB.
    assert quadratic_peak_mb(600, 1200) < 22


@pytest.mark.parametrize("n", [8192, 12000, 50000])
def test_row_cap_leaves_large_n_blocks_to_the_byte_budget(n):
    # From N = 8192 on a 16 MB block holds at most 256 rows, so the row
    # cap changes nothing there.
    rows = graph._BLOCK_BYTES // (8 * n)
    n_blocks = -(-n // rows)
    assert graph._row_blocks(n) == [n * i // n_blocks
                                    for i in range(n_blocks + 1)]


class TestLaplacian:
    def test_zero_similarity(self):
        g = from_dense(np.zeros((4, 4)))
        np.testing.assert_array_equal(g.dense()[1], 0.0)
        np.testing.assert_array_equal(g.quadratic(np.ones((4, 2))), 0.0)

    def test_two_node_graph(self):
        g = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(g.dense()[1],
                                      [[1.0, -1.0], [-1.0, 1.0]])

    def test_trace_identity_against_bruteforce(self):
        rng = np.random.default_rng(2)
        s = rng.random((50, 50))
        s = 0.5 * (s + s.T)
        np.fill_diagonal(s, 0.0)
        g = from_dense(s)
        np.testing.assert_array_equal(g.dense()[0], s)
        z = rng.normal(size=(50, 3))
        quad = float(np.trace(g.quadratic(z)))
        brute = pairwise_smoothness(s, z)
        assert abs(quad - brute) <= 1e-10 * abs(brute)

    def test_asymmetric_weights_symmetrised(self):
        # W holds 1 at (0, 1) and 0.5 at (1, 0): S = (W + W^T)/2 holds
        # 0.75 at both, and each node's degree is 0.75.
        g = laplacian([[1], [0]], [[1.0], [0.5]])
        s, lap = g.dense()
        np.testing.assert_array_equal(s, [[0.0, 0.75], [0.75, 0.0]])
        np.testing.assert_array_equal(g.degree, [0.75, 0.75])
        np.testing.assert_array_equal(lap, [[0.75, -0.75], [-0.75, 0.75]])
        z = np.array([[1.0], [3.0]])
        np.testing.assert_array_equal(g.quadratic(z), [[0.75 * 4.0]])

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_bad_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights"):
            laplacian([[1], [0]], [[1.0], [bad]])

    @pytest.mark.parametrize("col", [-1, 2])
    def test_column_out_of_range_rejected(self, col):
        with pytest.raises(ValueError, match="cols"):
            laplacian([[1], [col]], [[1.0], [1.0]])

    def test_non_integer_columns_rejected(self):
        with pytest.raises(ValueError, match="cols"):
            laplacian([[1.0], [0.0]], [[1.0], [1.0]])

    @pytest.mark.parametrize("cols, weights", [
        ([[1], [0]], [[1.0, 1.0], [1.0, 1.0]]),
        ([[1], [0]], [1.0, 1.0]),
        ([1, 0], [1.0, 1.0]),
    ])
    def test_mismatched_shapes_rejected(self, cols, weights):
        with pytest.raises(ValueError, match="shape"):
            laplacian(cols, weights)

    def test_invariants_on_knn_graphs(self):
        rng = np.random.default_rng(3)
        for n, d, k in ((10, 2, 2), (60, 7, 5), (120, 3, 8)):
            g = build_graph(rng.normal(size=(n, d)), n_neighbors=k)
            s, lap = g.dense()
            assert np.max(np.abs(s - s.T)) <= 1e-10
            assert np.max(np.abs(lap.sum(axis=1))) <= 1e-10
            assert np.linalg.eigvalsh(lap).min() >= -1e-8

    def test_extra_edge_never_decreases_smoothness(self):
        rng = np.random.default_rng(4)
        s = rng.random((12, 12))
        s = 0.5 * (s + s.T)
        np.fill_diagonal(s, 0.0)
        z = rng.normal(size=(12, 2))
        base = float(np.trace(from_dense(s).quadratic(z)))
        bumped = s.copy()
        bumped[2, 7] += 0.5
        bumped[7, 2] += 0.5
        after = float(np.trace(from_dense(bumped).quadratic(z)))
        assert after >= base - 1e-12
