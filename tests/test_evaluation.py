import contextlib
from unittest import mock

import numpy as np
import pytest

from conftest import protocol_labelings, protocol_seeds
from mvfuzzy import evaluation
from mvfuzzy.evaluation import (acc, check_protocol, evaluate_embedding,
                                grid_search, kmeans, nmi, purity)
from mvfuzzy.solver import Hyperparams
from oracles import (acc_oracle, kmeans_best_sse, kmeans_oracle, lloyd_oracle,
                     nmi_oracle)

NON_FINITE = (np.nan, np.inf, -np.inf)
NOT_COUNTS = (2.5, 2.0, True, "2", None)


@pytest.fixture
def no_kmeans(monkeypatch):
    """Fail the test if anything calls `kmeans` through the module."""
    def fail(*args, **kwargs):
        raise AssertionError("kmeans called")

    monkeypatch.setattr(evaluation, "kmeans", fail)


@contextlib.contextmanager
def counted_first_argmin():
    """A list that gains one entry per `_first_argmin` call, that is per
    restart-step and per final pass."""
    calls = []
    first_argmin = evaluation._first_argmin

    def counting(scores):
        calls.append(1)
        return first_argmin(scores)

    with mock.patch.object(evaluation, "_first_argmin", counting):
        yield calls


def sse_of(points, labels):
    total = 0.0
    for c in np.unique(labels):
        member = points[labels == c]
        total += float(((member - member.mean(axis=0)) ** 2).sum())
    return total


class TestKmeans:
    def test_one_cluster_per_point(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(6, 2))
        labels = kmeans(points, 6, restarts=5, seed=1)
        assert len(np.unique(labels)) == 6
        assert sse_of(points, labels) == 0.0

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(1)
        points = np.vstack([rng.normal(0, 0.1, size=(20, 2)),
                            rng.normal(10, 0.1, size=(20, 2))])
        labels = kmeans(points, 2, restarts=5, seed=2)
        assert len(np.unique(labels[:20])) == 1
        assert len(np.unique(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_reaches_exhaustive_optimum(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        labels = kmeans(points, 2, restarts=10, seed=3)
        best = kmeans_best_sse(points, 2)
        assert best == 4.0
        assert sse_of(points, labels) == pytest.approx(best)

    def test_cluster_count_validated(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 1)), 4)

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one_rejected(self, restarts):
        points = np.random.default_rng(16).normal(size=(10, 2))
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            kmeans(points, 2, restarts=restarts)

    def test_lockstep_restarts_stop_at_different_steps(self):
        from mvfuzzy.evaluation import _lloyd, _lloyd_inputs

        points = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0],
                           [7.0], [8.0], [20.0]])
        centers = np.array([
            [[0.5], [6.0], [20.0]],   # at its partition after one step
            [[0.0], [0.5], [100.0]],  # center 2 empty: reseeded at once
            [[0.0], [1.0], [2.0]],    # walks right for six steps
        ])
        refs = [lloyd_oracle(points, c.copy()) for c in centers]
        cut = [lloyd_oracle(points, c.copy(), max_iter=2) for c in centers]
        labels, sses = _lloyd(points, centers, *_lloyd_inputs(points))
        for (ref_labels, ref_sse), restart_labels, sse in zip(refs, labels,
                                                              sses):
            np.testing.assert_array_equal(restart_labels, ref_labels)
            assert sse == ref_sse
        # All three end on one partition, but only the first has reached
        # it by step 2.
        np.testing.assert_array_equal(cut[0][0], refs[0][0])
        assert cut[2][1] > refs[2][1]

    def test_identical_restart_stops_at_the_first_ones_fixed_point(self):
        # Two identical inits in one call: the first restart takes two
        # steps to see its labels repeat, then its final pass; the second
        # reaches that recorded fixed point on its first step and reuses
        # the final pass. Each restart-step and final pass is one
        # `_first_argmin` call.
        from mvfuzzy.evaluation import _lloyd, _lloyd_inputs

        rng = np.random.default_rng(3)
        z = np.vstack([rng.normal(c, 0.1, size=(15, 2))
                       for c in ((0, 0), (10, 0), (0, 10))])
        centers = np.stack([z[[0, 15, 30]]] * 2)
        with counted_first_argmin() as calls:
            labels, sses = _lloyd(z, centers, *_lloyd_inputs(z))
        assert len(calls) == 4
        for restart_labels in labels:
            np.testing.assert_array_equal(restart_labels,
                                          np.repeat([0, 1, 2], 15))
        assert sses[0] == sses[1]

    def test_two_cycle_stops(self):
        # k exceeds the two distinct rows, so a cluster is empty after
        # every assignment, and its reseed swaps the first two points'
        # labels back and forth: [1 2 0 0] at steps 2 and 4, [2 1 0 0] at
        # step 3. The restart stops at step 4, when its labels return to
        # those of two steps before, instead of running to max_iter; a
        # two-cycle is not a fixed point, so nothing is recorded.
        from mvfuzzy.evaluation import _lloyd, _lloyd_inputs

        points = np.array([[0.1257], [-0.1321], [-0.1321], [-0.1321]])
        centers = points[[0, 1, 1]]
        ref_labels, ref_sse = lloyd_oracle(points, centers.copy())
        record = {}
        with counted_first_argmin() as calls:
            (labels,), (sse,) = _lloyd(points, centers[None],
                                       *_lloyd_inputs(points),
                                       fixed_points=record)
        assert len(calls) == 5  # four steps and the final pass
        assert record == {}
        np.testing.assert_array_equal(labels, ref_labels)
        assert sse == ref_sse
        for seed in range(3):
            np.testing.assert_array_equal(kmeans(points, 3, seed=seed),
                                          kmeans_oracle(points, 3, 10, seed))

    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_first_argmin_keeps_the_first_minimum(self, k):
        # Scores drawn from three values tie on most points.
        scores = np.random.default_rng(k).integers(0, 3, size=(k, 500))
        scores = scores.astype(float)
        np.testing.assert_array_equal(evaluation._first_argmin(scores),
                                      scores.argmin(axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 3))
        a = kmeans(points, 4, restarts=3, seed=7)
        b = kmeans(points, 4, restarts=3, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_empty_cluster_reseeded_at_farthest_point(self):
        from mvfuzzy.evaluation import _lloyd, _lloyd_inputs

        points = np.array([[0.0], [0.1], [10.0]])
        # Third center attracts nobody on the first assignment.
        centers = np.array([[0.0], [0.05], [100.0]])
        (labels,), (sse,) = _lloyd(points, centers[None],
                                   *_lloyd_inputs(points))
        assert len(np.unique(labels)) == 3
        assert sse == 0.0

    def test_reseed_that_empties_a_later_cluster_reseeds_it(self):
        from mvfuzzy.evaluation import _lloyd, _lloyd_inputs

        points = np.array([[0.0], [0.1], [0.2], [5.0]])
        # Center 0 attracts nobody. Its reseed takes the farthest point,
        # 5.0, the only member of center 1, which must then be reseeded
        # in the same pass, at 0.0.
        centers = np.array([[100.0], [8.0], [0.1]])
        ref_labels, ref_sse = lloyd_oracle(points, centers.copy())
        (labels,), (sse,) = _lloyd(points, centers[None],
                                   *_lloyd_inputs(points))
        np.testing.assert_array_equal(labels, [1, 2, 2, 0])
        np.testing.assert_array_equal(labels, ref_labels)
        assert sse == ref_sse == pytest.approx(0.005)

    def test_reseed_that_empties_an_earlier_cluster_reseeds_it(self):
        from mvfuzzy.evaluation import _lloyd, _lloyd_inputs

        points = np.array([[1.5], [-1.5], [8.0]])
        # Center 2 attracts nobody. Its reseed takes the farthest point,
        # -1.5, the only member of center 0, which must then be reseeded
        # too, at 8.0: every center ends on its own point.
        centers = np.array([[-6.5], [4.5], [16.0]])
        ref_labels, ref_sse = lloyd_oracle(points, centers.copy())
        (labels,), (sse,) = _lloyd(points, centers[None],
                                   *_lloyd_inputs(points))
        np.testing.assert_array_equal(labels, [1, 2, 0])
        np.testing.assert_array_equal(labels, ref_labels)
        assert sse == ref_sse == 0.0

    def test_large_common_offset_keeps_labels(self):
        from mvfuzzy.evaluation import _lloyd, _lloyd_inputs

        rng = np.random.default_rng(12)
        points = np.vstack([rng.normal(c, 0.4, size=(30, 2))
                            for c in ((0, 0), (3, 0), (0, 3))])
        centers = points[[0, 1, 2]]
        (labels,), _ = _lloyd(points, centers.copy()[None],
                              *_lloyd_inputs(points))
        (shifted,), _ = _lloyd(points + 1e8, (centers + 1e8)[None],
                               *_lloyd_inputs(points + 1e8))
        assert len(np.unique(labels)) == 3
        np.testing.assert_array_equal(shifted, labels)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_points_rejected(self, bad):
        points = np.random.default_rng(13).normal(size=(10, 2))
        points[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans(points, 2)

    def test_overflowing_squared_distances_rejected(self):
        points = np.random.default_rng(14).normal(size=(20, 2)) * 1e160
        with pytest.raises(ValueError, match="overflow"):
            kmeans(points, 3)

    @pytest.mark.parametrize("shape", [(10,), (10, 0), (2, 5, 2), ()])
    def test_points_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            kmeans(np.ones(shape), 1)

    @pytest.mark.parametrize("bad", NOT_COUNTS)
    def test_cluster_count_must_be_an_integer(self, bad):
        points = np.random.default_rng(17).normal(size=(10, 2))
        with pytest.raises(ValueError, match="n_clusters must be an integer"):
            kmeans(points, bad)

    @pytest.mark.parametrize("bad", NOT_COUNTS)
    def test_restarts_must_be_an_integer(self, bad):
        points = np.random.default_rng(17).normal(size=(10, 2))
        with pytest.raises(ValueError, match="restarts must be an integer"):
            kmeans(points, 2, restarts=bad)

    def test_numpy_integer_counts_accepted(self):
        points = np.random.default_rng(17).normal(size=(10, 2))
        np.testing.assert_array_equal(
            kmeans(points, np.int64(2), restarts=np.int32(3), seed=1),
            kmeans(points, 2, restarts=3, seed=1))


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_independent_partitions(self):
        assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0

    def test_matches_contingency_oracle(self):
        pred = [0, 0, 1, 1]
        true = ["a", "a", "a", "b"]
        assert nmi(pred, true) == pytest.approx(nmi_oracle(pred, true),
                                                abs=1e-12)

    def test_single_cluster_edge_cases(self):
        assert nmi([0, 0, 0], [5, 5, 5]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 4, size=40)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmi([0, 1], [0, 1, 2])


class TestAcc:
    def test_relabeled_partition_is_perfect(self):
        true = [0, 0, 1, 1, 2, 2]
        pred = [2, 2, 0, 0, 1, 1]
        assert acc(pred, true) == 1.0

    def test_alternating_half(self):
        assert acc([0, 0, 1, 1], ["a", "b", "a", "b"]) == 0.5

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            pred = rng.integers(0, int(rng.integers(1, 6)), size=n)
            true = rng.integers(0, int(rng.integers(1, 6)), size=n)
            assert acc(pred, true) == acc_oracle(pred.tolist(),
                                                 true.tolist())


class TestPurity:
    def test_renamed_clusters(self):
        assert purity([5, 5, 9, 9], [0, 0, 1, 1]) == 1.0

    def test_hand_counted(self):
        assert purity([1, 1, 1, 2], ["a", "a", "b", "b"]) == 0.75

    def test_dominates_acc(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(4, 25))
            pred = rng.integers(0, 4, size=n)
            true = rng.integers(0, 4, size=n)
            assert purity(pred, true) >= acc(pred, true) - 1e-15

    def test_metric_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pred = rng.integers(0, 3, size=15)
            true = rng.integers(0, 3, size=15)
            for metric in (nmi, acc, purity):
                assert 0.0 <= metric(pred, true) <= 1.0


class TestPermutationInvariance:
    def test_all_metrics(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            pred = rng.integers(0, 4, size=30)
            true = rng.integers(0, 3, size=30)
            pred_perm = rng.permutation(4)[pred]
            true_perm = rng.permutation(3)[true]
            for metric in (nmi, acc, purity):
                assert metric(pred, true) == pytest.approx(
                    metric(pred_perm, true_perm), abs=1e-12)


class TestEvaluateEmbedding:
    def test_report_contents(self):
        rng = np.random.default_rng(10)
        z = np.vstack([rng.normal(0, 0.1, size=(15, 2)),
                       rng.normal(8, 0.1, size=(15, 2))])
        truth = np.repeat([0, 1], 15)
        report = evaluate_embedding(z, truth, repeats=5, restarts=3, seed=0)
        assert report.nmi_runs.shape == (5,)
        assert report.nmi == 1.0 and report.acc == 1.0
        assert report.nmi_std == 0.0
        assert report.best_assignment.shape == (30,)
        assert min(report.nmi_runs.min(), report.purity_runs.min()) >= 0.0

    def test_mean_within_run_range(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(40, 3))
        truth = rng.integers(0, 3, size=40)
        report = evaluate_embedding(z, truth, repeats=8, restarts=2, seed=1)
        for runs, mean in ((report.nmi_runs, report.nmi),
                           (report.acc_runs, report.acc),
                           (report.purity_runs, report.purity)):
            assert runs.min() <= mean <= runs.max()
            assert runs.std() >= 0.0

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_rejected(self, repeats, monkeypatch):
        import mvfuzzy.evaluation as eval_mod

        def no_kmeans(*args, **kwargs):
            raise AssertionError("kmeans called")

        monkeypatch.setattr(eval_mod, "kmeans", no_kmeans)
        z = np.random.default_rng(15).normal(size=(12, 2))
        with pytest.raises(ValueError, match="repeats"):
            evaluate_embedding(z, np.arange(12) % 2, repeats=repeats)

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one_rejected(self, restarts, monkeypatch):
        import mvfuzzy.evaluation as eval_mod

        def no_kmeans(*args, **kwargs):
            raise AssertionError("kmeans called")

        monkeypatch.setattr(eval_mod, "kmeans", no_kmeans)
        z = np.random.default_rng(15).normal(size=(12, 2))
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            evaluate_embedding(z, np.arange(12) % 2, restarts=restarts)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_embedding_rejected(self, bad):
        z = np.random.default_rng(14).normal(size=(12, 2))
        z[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            evaluate_embedding(z, np.arange(12) % 2, repeats=2, restarts=1)

    @pytest.mark.parametrize("name", ["repeats", "restarts"])
    @pytest.mark.parametrize("bad", NOT_COUNTS)
    @pytest.mark.usefixtures("no_kmeans")
    def test_protocol_counts_must_be_integers(self, name, bad):
        z = np.random.default_rng(15).normal(size=(12, 2))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            evaluate_embedding(z, np.arange(12) % 2, **{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            check_protocol(**{"repeats": 2, "restarts": 2, name: bad})

    @pytest.mark.parametrize("shape", [(12,), (12, 0)])
    @pytest.mark.usefixtures("no_kmeans")
    def test_embedding_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            evaluate_embedding(np.ones(shape), np.arange(12) % 2)

    @pytest.mark.parametrize("n_labels", [11, 13])
    @pytest.mark.usefixtures("no_kmeans")
    def test_label_count_checked_before_clustering(self, n_labels):
        z = np.random.default_rng(15).normal(size=(12, 2))
        with pytest.raises(ValueError, match="labels for 12 points"):
            evaluate_embedding(z, np.arange(n_labels) % 2)

    def test_later_repeats_stop_at_recorded_fixed_points(self):
        # Three well-separated blobs: the first repeat reaches every
        # labeling of the blobs, so each restart of a later repeat reaches
        # a recorded fixed point on its first step and stops there, and
        # no final pass runs again. Without the record each restart takes
        # a second step to see that its labels repeat.
        rng = np.random.default_rng(3)
        z = np.vstack([rng.normal(c, 0.1, size=(15, 2))
                       for c in ((0, 0), (10, 0), (0, 10))])
        restarts, repeats = 10, 5
        rows = []
        first_argmin = evaluation._first_argmin

        def counting(scores):
            rows[-1] += 1
            return first_argmin(scores)

        with mock.patch.object(evaluation, "_first_argmin", counting):
            kmeans_calls = evaluation.kmeans

            def counted(*args, **kwargs):
                rows.append(0)
                return kmeans_calls(*args, **kwargs)

            with mock.patch.object(evaluation, "kmeans", counted):
                evaluate_embedding(z, np.repeat([0, 1, 2], 15),
                                   repeats=repeats, restarts=restarts)
            shared = rows[:]
            for ss in protocol_seeds(0, repeats):
                counted(z, 3, restarts=restarts, seed=ss)
            alone = rows[repeats:]
            # Without any record: each restart's init through `_lloyd`
            # on its own, as a plain `kmeans` call draws them.
            inputs = evaluation._lloyd_inputs(z)
            for ss in protocol_seeds(0, repeats):
                init_rng = np.random.default_rng(ss)
                rows.append(0)
                for _ in range(restarts):
                    init = evaluation._kmeanspp_init(inputs[2], 3, init_rng)
                    evaluation._lloyd(z, init[None], *inputs,
                                      fixed_points={})
            unrecorded = rows[2 * repeats:]
        assert shared[0] == alone[0]
        assert shared[1:] == [restarts] * (repeats - 1)
        assert all(a > 2 * restarts for a in unrecorded)

    def test_record_does_not_leak_across_embeddings(self):
        # `a` has two tight blobs, rows 0-9 and 10-19, so its protocol
        # records both labelings of that split. On `b` (same shape) the
        # split is often the first step's labeling but not a fixed point:
        # rows 10-14 then move to the left cluster. A record kept across
        # the calls would stop those restarts there, with a's tiny SSE,
        # and change b's labelings.
        a = np.concatenate([np.linspace(0.0, 0.09, 10),
                            np.linspace(10.0, 10.09, 10)])[:, None]
        b = np.concatenate([np.linspace(0.0, 0.9, 10),
                            np.linspace(5.0, 5.4, 5),
                            np.linspace(20.0, 20.4, 5)])[:, None]
        for z in (a, b, a, b):
            labelings = protocol_labelings(z, 2, 10, 10, seed=4)
            for labels, ss in zip(labelings, protocol_seeds(4, 10)):
                np.testing.assert_array_equal(
                    labels, kmeans_oracle(z, 2, 10, ss))


class TestGridSearch:
    def test_single_point_equals_direct_evaluation(self, blob_dataset):
        hp = Hyperparams(max_iter=10, seed=6)
        result = grid_search(blob_dataset, [hp], repeats=4, restarts=3,
                             seed=9)
        assert len(result.points) == 1
        assert result.best["nmi"] == 0
        assert result.points[0].report is not None

    def test_argmax_selection(self, blob_dataset):
        good = Hyperparams(max_iter=15, seed=6)
        bad = Hyperparams(max_iter=0, seed=6)
        result = grid_search(blob_dataset, [bad, good], repeats=4,
                             restarts=3, seed=9)
        scores = [p.report.nmi for p in result.points]
        assert result.best["nmi"] == int(np.argmax(scores))

    def test_deterministic_table(self, blob_dataset, tmp_path):
        hp = Hyperparams(max_iter=8, seed=2)
        paths = []
        for tag in ("a", "b"):
            result = grid_search(blob_dataset, [hp], repeats=3, restarts=2,
                                 seed=4)
            path = tmp_path / f"sweep_{tag}.csv"
            result.write_csv(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_empty_grid_rejected(self, blob_dataset):
        with pytest.raises(ValueError):
            grid_search(blob_dataset, [])

    def test_refit_per_repeat_runs(self, blob_dataset):
        hp = Hyperparams(max_iter=5, seed=3)
        result = grid_search(blob_dataset, [hp], repeats=2, restarts=2,
                             seed=5, refit_per_repeat=True)
        assert result.points[0].report.nmi_runs.shape == (2,)

    def test_failed_point_marked_without_aborting(self, blob_dataset,
                                                  monkeypatch):
        import mvfuzzy.evaluation as eval_mod
        from mvfuzzy.solver import NumericFailure

        real_fit = eval_mod.fit
        calls = {"n": 0}

        def flaky_fit(dataset, hp, prepared=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericFailure("singular", view=0, iteration=1)
            return real_fit(dataset, hp, prepared=prepared)

        monkeypatch.setattr(eval_mod, "fit", flaky_fit)
        grid = [Hyperparams(max_iter=4, seed=1),
                Hyperparams(max_iter=4, seed=2)]
        result = grid_search(blob_dataset, grid, repeats=2, restarts=2,
                             seed=0)
        assert result.points[0].error is not None
        assert result.points[0].report is None
        assert result.points[1].report is not None
        assert result.best["nmi"] == 1

    def test_points_fit_as_fresh_fits_in_grid_order(self, blob_dataset,
                                                    monkeypatch):
        """Shared preparation changes nothing: each point's model equals a
        fresh fit bit for bit, and its report and seeds are those of the
        point-by-point loop, in grid order even when groups interleave."""
        import mvfuzzy.evaluation as eval_mod
        from mvfuzzy.representation import embed
        from mvfuzzy.solver import fit

        grid = [Hyperparams(alpha=a, n_rules=r, max_iter=5, seed=2)
                for a, r in ((0.5, 2), (1.0, 3), (2.0, 2), (4.0, 3))]
        fits = []

        def recording_fit(dataset, hp, prepared=None):
            result = fit(dataset, hp, prepared=prepared)
            fits.append((hp, result))
            return result

        monkeypatch.setattr(eval_mod, "fit", recording_fit)
        result = grid_search(blob_dataset, grid, repeats=2, restarts=2,
                             seed=8)
        assert [p.index for p in result.points] == [0, 1, 2, 3]
        assert [hp.n_rules for hp, _ in fits] == [2, 2, 3, 3]
        for hp, (state, trace) in fits:
            fresh_state, fresh_trace = fit(blob_dataset, hp)
            for a, b in zip(state.p_common + state.p_specific,
                            fresh_state.p_common + fresh_state.p_specific):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(state.view_weights,
                                          fresh_state.view_weights)
            assert trace.totals().tolist() == fresh_trace.totals().tolist()

        children = np.random.SeedSequence(8).spawn(len(grid))
        for gi, hp in enumerate(grid):
            state, _ = fit(blob_dataset, hp)
            expected = evaluate_embedding(
                embed(blob_dataset, state).data, blob_dataset.labels,
                repeats=2, restarts=2, seed=children[gi])
            assert result.points[gi].hp is hp
            assert (result.points[gi].report.to_dict()
                    == expected.to_dict())

    @pytest.mark.parametrize("refit", [False, True])
    def test_repeats_below_one_rejected(self, blob_dataset, refit,
                                        monkeypatch):
        import mvfuzzy.evaluation as eval_mod

        def no_call(*args, **kwargs):
            raise AssertionError("prepared or fitted")

        monkeypatch.setattr(eval_mod, "prepare_inputs", no_call)
        monkeypatch.setattr(eval_mod, "fit", no_call)
        with pytest.raises(ValueError, match="repeats"):
            grid_search(blob_dataset, [Hyperparams(max_iter=2)], repeats=0,
                        refit_per_repeat=refit)

    @pytest.mark.parametrize("refit", [False, True])
    def test_restarts_below_one_rejected(self, blob_dataset, refit,
                                         monkeypatch):
        import mvfuzzy.evaluation as eval_mod

        def no_call(*args, **kwargs):
            raise AssertionError("prepared or fitted")

        monkeypatch.setattr(eval_mod, "prepare_inputs", no_call)
        monkeypatch.setattr(eval_mod, "fit", no_call)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            grid_search(blob_dataset, [Hyperparams(max_iter=2)], restarts=0,
                        refit_per_repeat=refit)

    def test_constant_view_fails_each_group_once(self, blob_dataset):
        from unittest import mock

        import mvfuzzy.evaluation as eval_mod
        from mvfuzzy.data import MultiViewDataset

        views = [blob_dataset.views[0], np.zeros_like(blob_dataset.views[1])]
        ds = MultiViewDataset(views=views, labels=blob_dataset.labels)
        grid = [Hyperparams(alpha=a, n_rules=r, max_iter=2)
                for a in (0.5, 2.0) for r in (2, 3)]
        with mock.patch.object(eval_mod, "prepare_inputs",
                               wraps=eval_mod.prepare_inputs) as prep:
            result = grid_search(ds, grid, repeats=2, restarts=1)
        assert prep.call_count == 2
        assert all(p.report is None and "view 1:" in p.error
                   for p in result.points)
        assert result.best == {}

    def test_metric_larger_than_five_clusters(self):
        rng = np.random.default_rng(12)
        pred = rng.integers(0, 8, size=60)
        true = rng.integers(0, 8, size=60)
        value = acc(pred, true)
        assert 0.0 <= value <= 1.0
        assert value >= (pred == true).mean() - 1e-15
