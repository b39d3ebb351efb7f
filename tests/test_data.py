import numpy as np
import pytest

from mvfuzzy.data import (DataError, MultiViewDataset, load_dataset,
                          load_labels, make_synthetic, save_dataset,
                          write_matrix_csv)

BOM = "\ufeff"


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


class TestLoadDataset:
    def test_two_views_with_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(100, 3))
        b = rng.normal(size=(100, 5))
        write_matrix_csv(a, tmp_path / "a.csv")
        write_matrix_csv(b, tmp_path / "b.csv")
        write_csv(tmp_path / "y.csv", [[i % 4] for i in range(100)])
        ds = load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"],
                          tmp_path / "y.csv")
        assert ds.n_instances == 100 and ds.n_views == 2
        assert ds.view_dims == [3, 5]
        assert ds.n_classes == 4
        np.testing.assert_allclose(ds.views[0], a)

    def test_row_count_mismatch_names_counts(self, tmp_path):
        write_csv(tmp_path / "a.csv", [[1.0]] * 100)
        write_csv(tmp_path / "b.csv", [[1.0]] * 99)
        with pytest.raises(DataError) as err:
            load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"])
        assert "100" in str(err.value) and "99" in str(err.value)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        write_csv(tmp_path / "a.csv", [[1.0, 2.0], [3.0, "oops"]])
        write_csv(tmp_path / "b.csv", [[1.0], [1.0]])
        with pytest.raises(DataError) as err:
            load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"])
        msg = str(err.value)
        assert "row 2" in msg and "column 2" in msg

    def test_rare_class_is_accepted(self, tmp_path):
        write_csv(tmp_path / "a.csv", [[float(i)] for i in range(10)])
        labels = [[0]] * 9 + [[7]]
        write_csv(tmp_path / "y.csv", labels)
        ds = load_dataset([tmp_path / "a.csv"], tmp_path / "y.csv")
        assert ds.n_classes == 2

    def test_header_skipping(self, tmp_path):
        with open(tmp_path / "a.csv", "w") as fh:
            fh.write("f1,f2\n1.0,2.0\n3.0,4.0\n")
        ds = load_dataset([tmp_path / "a.csv"], header=True)
        assert ds.n_instances == 2

    def test_first_error_in_file_order(self, tmp_path):
        # A non-numeric cell on row 2 comes before a short row 5.
        with open(tmp_path / "a.csv", "w", encoding="utf-8") as fh:
            fh.write("1,2\n3,x\n5,6\n7,8\n9\n")
        with pytest.raises(DataError,
                           match="row 2, column 2: 'x'"):
            load_dataset([tmp_path / "a.csv"])
        with open(tmp_path / "b.csv", "w", encoding="utf-8") as fh:
            fh.write("1,2\n3,4\n5,6\n7,8\n9\n10,y\n")
        with pytest.raises(DataError, match="row 5 has 1 columns, expected 2"):
            load_dataset([tmp_path / "b.csv"])

    def test_row_numbers_count_blank_lines_after_header(self, tmp_path):
        with open(tmp_path / "a.csv", "w", encoding="utf-8") as fh:
            fh.write("f1,f2\n1,2\n\n   \n3,4\n\n5,bad\n")
        with pytest.raises(DataError, match="row 6, column 2: 'bad'"):
            load_dataset([tmp_path / "a.csv"], header=True)
        with open(tmp_path / "b.csv", "w", encoding="utf-8") as fh:
            fh.write("f1,f2\n1,2\n\n3,4,5\n")
        with pytest.raises(DataError, match="row 3 has 3 columns"):
            load_dataset([tmp_path / "b.csv"], header=True)
        with open(tmp_path / "c.csv", "w", encoding="utf-8") as fh:
            fh.write("f1,f2\n\n1,2\n\n3,4\n")
        np.testing.assert_array_equal(
            load_dataset([tmp_path / "c.csv"], header=True).views[0],
            [[1.0, 2.0], [3.0, 4.0]])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "1.5,2\n3,4.25\n"
        for name, prefix in (("plain", ""), ("bom", BOM)):
            with open(tmp_path / f"{name}.csv", "w", encoding="utf-8") as fh:
                fh.write(prefix + text)
            with open(tmp_path / f"{name}_y.csv", "w",
                      encoding="utf-8") as fh:
                fh.write(prefix + "0\n1\n")
        plain = load_dataset([tmp_path / "plain.csv"],
                             tmp_path / "plain_y.csv")
        bom = load_dataset([tmp_path / "bom.csv"], tmp_path / "bom_y.csv")
        np.testing.assert_array_equal(bom.views[0], plain.views[0])
        np.testing.assert_array_equal(bom.labels, plain.labels)
        assert bom.n_classes == plain.n_classes == 2

    def test_byte_order_mark_labels_keep_their_classes(self, tmp_path):
        for name, prefix in (("plain", ""), ("bom", BOM)):
            with open(tmp_path / f"{name}.csv", "w", encoding="utf-8") as fh:
                fh.write(prefix + "0\n1\n0\n1\n")
        plain = load_labels(tmp_path / "plain.csv")
        bom = load_labels(tmp_path / "bom.csv")
        np.testing.assert_array_equal(bom, plain)
        np.testing.assert_array_equal(bom, [0, 1, 0, 1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset([tmp_path / "nope.csv"])

    def test_label_length_mismatch(self, tmp_path):
        write_csv(tmp_path / "a.csv", [[1.0], [2.0], [3.0]])
        write_csv(tmp_path / "y.csv", [[0], [1]])
        with pytest.raises(DataError):
            load_dataset([tmp_path / "a.csv"], tmp_path / "y.csv")


class TestDatasetValidation:
    def test_view_row_mismatch(self):
        with pytest.raises(DataError):
            MultiViewDataset(views=[np.zeros((3, 2)), np.zeros((4, 2))])

    def test_non_finite_rejected(self):
        bad = np.zeros((3, 2))
        bad[0, 0] = np.inf
        with pytest.raises(DataError):
            MultiViewDataset(views=[bad])

    def test_too_few_instances(self):
        with pytest.raises(DataError):
            MultiViewDataset(views=[np.zeros((1, 2))])


class TestMakeSynthetic:
    def test_reproducible_files(self, tmp_path):
        for tag in ("one", "two"):
            ds = make_synthetic(n_instances=50, n_views=2, n_clusters=4,
                                noise=0.1, seed=7)
            save_dataset(ds, tmp_path / tag, seed=7)
        for name in ("view_0.csv", "view_1.csv", "labels.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b

    def test_zero_noise_collapses_clusters(self):
        ds = make_synthetic(n_instances=30, n_views=2, n_clusters=3,
                            noise=0.0, seed=1)
        for view in ds.views:
            for c in range(3):
                member = view[ds.labels == c]
                assert np.ptp(member, axis=0).max() == 0.0

    def test_labels_cover_all_clusters(self):
        ds = make_synthetic(n_instances=25, n_clusters=4, seed=3)
        assert ds.n_classes == 4

    def test_dims_respected(self):
        ds = make_synthetic(n_instances=20, n_views=3, dims=[2, 3, 4],
                            seed=0)
        assert ds.view_dims == [2, 3, 4]

    @pytest.mark.parametrize("name", ["n_instances", "n_views", "n_clusters"])
    @pytest.mark.parametrize("bad", [0, -1, 2.0, True, "3"])
    def test_counts_must_be_positive_integers(self, name, bad):
        counts = {"n_instances": 20, "n_clusters": 1, name: bad}
        with pytest.raises(DataError, match=f"{name} must be an integer"):
            make_synthetic(**counts)

    @pytest.mark.parametrize("name", ["noise", "separation"])
    @pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf, -np.inf,
                                     True, "0.1", None])
    def test_noise_and_separation_must_be_finite_and_non_negative(self, name,
                                                                  bad):
        with pytest.raises(DataError, match=f"{name} must be a finite real"):
            make_synthetic(n_instances=20, **{name: bad})

    def test_integer_and_numpy_noise_and_separation_are_accepted(self):
        ds = make_synthetic(n_instances=20, noise=np.float64(0.5),
                            separation=4, seed=2)
        again = make_synthetic(n_instances=20, noise=0.5, separation=4.0,
                               seed=2)
        for a, b in zip(ds.views, again.views):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, True, False, 2.0, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            make_synthetic(n_instances=20, seed=bad)

    def test_numpy_integer_seed_draws_the_same_data(self):
        ds = make_synthetic(n_instances=20, seed=np.int64(0))
        again = make_synthetic(n_instances=20, seed=0)
        np.testing.assert_array_equal(ds.labels, again.labels)
        for a, b in zip(ds.views, again.views):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dims", [[0, 3], [3, -2], [2.5, 3]])
    def test_every_view_needs_a_dimension(self, dims):
        with pytest.raises(DataError, match="integer dimension >= 1"):
            make_synthetic(n_instances=20, n_views=2, dims=dims)

    @pytest.mark.parametrize("matrix", [
        np.random.default_rng(5).normal(size=(7, 4))
        * 10.0 ** np.random.default_rng(6).uniform(-300, 300, size=(7, 4)),
        np.array([[-0.0, 1e16, 5e-324], [0.1, 1 / 3, -2.5e-310]]),
        np.arange(-6, 6).reshape(3, 4) * 10 ** 15,
    ], ids=["random", "edge", "integer"])
    def test_writer_bytes_are_repr_of_each_float(self, tmp_path, matrix):
        write_matrix_csv(matrix, tmp_path / "m.csv")
        expected = "".join(",".join(repr(float(x)) for x in row) + "\n"
                           for row in matrix)
        assert (tmp_path / "m.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("labels", [[0.2, 0.7, 0.2, 0.7],
                                        ["a", "b", "a"]],
                             ids=["float", "string"])
    def test_saved_labels_keep_their_classes(self, tmp_path, labels):
        n = len(labels)
        ds = MultiViewDataset(views=[np.arange(2.0 * n).reshape(n, 2)],
                              labels=labels)
        save_dataset(ds, tmp_path)
        loaded = load_labels(tmp_path / "labels.csv")
        np.testing.assert_array_equal(
            loaded, np.unique(labels, return_inverse=True)[1])
        assert np.unique(loaded).size == 2

    def test_integer_labels_round_trip_in_numeric_order(self, tmp_path):
        # In string order "10" and "11" sort before "2".
        labels = np.arange(12)
        ds = MultiViewDataset(views=[np.arange(24.0).reshape(12, 2)],
                              labels=labels)
        save_dataset(ds, tmp_path)
        loaded = load_dataset([tmp_path / "view_0.csv"],
                              tmp_path / "labels.csv")
        np.testing.assert_array_equal(loaded.labels, labels)

    @pytest.mark.parametrize("text, codes", [
        ("3\n-2\n10\n2\n", [2, 0, 3, 1]),
        ("b\n10\n2\nb\n", [2, 0, 1, 2]),
    ], ids=["integers", "mixed"])
    def test_label_codes_follow_numeric_else_string_order(self, tmp_path,
                                                          text, codes):
        (tmp_path / "y.csv").write_text(text, encoding="utf-8")
        np.testing.assert_array_equal(load_labels(tmp_path / "y.csv"), codes)

    def test_csv_roundtrip_is_exact(self, tmp_path):
        ds = make_synthetic(n_instances=20, n_views=2, seed=9)
        save_dataset(ds, tmp_path, seed=9)
        loaded = load_dataset([tmp_path / "view_0.csv",
                               tmp_path / "view_1.csv"],
                              tmp_path / "labels.csv")
        for orig, back in zip(ds.views, loaded.views):
            np.testing.assert_array_equal(orig, back)
