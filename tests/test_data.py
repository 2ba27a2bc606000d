import math

import numpy as np
import pytest

from nldd.data import (DataError, Dataset, dataset_summary, load_csv,
                       load_sparse, save_csv, split_random, standardize_apply,
                       standardize_fit)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_partition(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "f1,f2,l1,l2\n1.0,2.0,0,1\n3.5,4.0,1,1\n0.0,-1.0,0,0\n")
        ds = load_csv(path, 2)
        assert ds.n == 3 and ds.d == 2 and ds.n_labels == 2
        assert ds.feature_names == ["f1", "f2"]
        assert ds.label_names == ["l1", "l2"]
        assert ds.labels.tolist() == [[0, 1], [1, 1], [0, 0]]

    def test_no_feature_columns(self, tmp_path):
        path = _write(tmp_path, "d.csv", "l1,l2\n0,1\n")
        with pytest.raises(DataError, match="no feature columns"):
            load_csv(path, 2)

    def test_bad_label_cell_names_line(self, tmp_path):
        path = _write(tmp_path, "d.csv", "f1,l1\n1.0,0\n2.0,2\n")
        with pytest.raises(DataError, match=":3:"):
            load_csv(path, 1)

    def test_column_count_mismatch(self, tmp_path):
        path = _write(tmp_path, "d.csv", "f1,f2,l1\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(DataError, match=":3:"):
            load_csv(path, 1)

    def test_non_numeric_feature(self, tmp_path):
        path = _write(tmp_path, "d.csv", "f1,l1\nabc,0\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path, 1)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((7, 3)),
                     rng.integers(0, 2, (7, 2)))
        path = str(tmp_path / "rt.csv")
        save_csv(ds, path)
        back = load_csv(path, 2)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


class TestLoadSparse:
    def test_expansion(self, tmp_path):
        path = _write(tmp_path, "d.sp", "1,3 2:1 5:1\n2 1:1\n")
        ds = load_sparse(path, 3)
        assert ds.d == 5
        assert ds.labels[0].tolist() == [1, 0, 1]
        assert ds.features[0].tolist() == [0, 1, 0, 0, 1]

    def test_empty_labelset(self, tmp_path):
        path = _write(tmp_path, "d.sp", " 2:1\n1 1:1\n")
        ds = load_sparse(path, 3)
        assert ds.labels[0].tolist() == [0, 0, 0]

    def test_label_out_of_range(self, tmp_path):
        path = _write(tmp_path, "d.sp", "4 1:1\n")
        with pytest.raises(DataError, match="label index out of range"):
            load_sparse(path, 3)

    def test_duplicate_index(self, tmp_path):
        path = _write(tmp_path, "d.sp", "1 2:1 2:3\n")
        with pytest.raises(DataError, match="duplicate"):
            load_sparse(path, 3)

    def test_non_numeric_value(self, tmp_path):
        path = _write(tmp_path, "d.sp", "1 2:x\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_sparse(path, 3)


class TestStandardize:
    def test_fit_hand_values(self):
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([[0], [1]]))
        stats = standardize_fit(ds)
        assert stats.means[0] == pytest.approx(2.0)
        assert stats.sds[0] == pytest.approx(math.sqrt(2))

    def test_constant_column(self):
        ds = Dataset(np.array([[5.0], [5.0], [5.0]]),
                     np.array([[0], [1], [0]]))
        stats = standardize_fit(ds)
        assert stats.means[0] == 5.0 and stats.sds[0] == 0.0
        z = standardize_apply(stats, ds.features)
        assert np.all(z == 0.0)

    def test_apply_hand_values(self):
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([[0], [1]]))
        z = standardize_apply(standardize_fit(ds), ds.features)
        assert z[:, 0] == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_identity_stats(self):
        from nldd.data import StandardizationStats
        stats = StandardizationStats(means=np.zeros(2), sds=np.ones(2))
        x = np.array([[1.5, -2.0]])
        assert np.array_equal(standardize_apply(stats, x), x)

    def test_needs_two_rows(self):
        ds = Dataset(np.array([[1.0]]), np.array([[1]]))
        with pytest.raises(DataError):
            standardize_fit(ds)

    def test_dimension_mismatch(self):
        ds = Dataset(np.array([[1.0], [2.0]]), np.array([[0], [1]]))
        stats = standardize_fit(ds)
        with pytest.raises(DataError):
            standardize_apply(stats, np.array([[1.0, 2.0]]))

    def test_self_standardization_property(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((40, 5)) * [1, 2, 3, 4, 5],
                     rng.integers(0, 2, (40, 2)))
        z = standardize_apply(standardize_fit(ds), ds.features)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((10, 3))
        a = standardize_fit(Dataset(feats, np.ones((10, 1), dtype=int)))
        b = standardize_fit(Dataset(feats.copy(), np.ones((10, 1), dtype=int)))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.sds, b.sds)


class TestSplitRandom:
    def _ds(self, n):
        return Dataset(np.arange(n, dtype=float)[:, None],
                       np.zeros((n, 1), dtype=int) | (np.arange(n)[:, None] % 2))

    def test_even_split(self):
        split = split_random(self._ds(20), seed=0)
        assert len(split.t1_indices) == 10 and len(split.t2_indices) == 10

    def test_odd_split_ceiling(self):
        split = split_random(self._ds(21), seed=0)
        assert len(split.t1_indices) == 11 and len(split.t2_indices) == 10

    def test_determinism(self):
        a = split_random(self._ds(20), seed=5)
        b = split_random(self._ds(20), seed=5)
        assert np.array_equal(a.t1_indices, b.t1_indices)
        assert np.array_equal(a.t2_indices, b.t2_indices)

    def test_partition_property(self):
        for seed in range(10):
            split = split_random(self._ds(17), seed=seed)
            both = np.concatenate([split.t1_indices, split.t2_indices])
            assert sorted(both.tolist()) == list(range(17))

    def test_too_small(self):
        with pytest.raises(DataError):
            split_random(self._ds(3), seed=0)


class TestSummary:
    def test_lcard(self):
        ds = Dataset(np.zeros((2, 1)), np.array([[1, 0], [1, 1]]))
        s = dataset_summary(ds)
        assert s["lcard"] == pytest.approx(1.5)
        assert s["distinct_labelsets"] == 2

    def test_all_zero(self):
        ds = Dataset(np.zeros((3, 1)), np.zeros((3, 2), dtype=int))
        s = dataset_summary(ds)
        assert s["lcard"] == 0.0 and s["distinct_labelsets"] == 1

    def test_repeated_labelset(self):
        ds = Dataset(np.zeros((4, 1)), np.tile([1, 0, 1], (4, 1)))
        assert dataset_summary(ds)["distinct_labelsets"] == 1

    def test_lcard_exact(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, (13, 4))
        ds = Dataset(np.zeros((13, 1)), labels)
        assert dataset_summary(ds)["lcard"] == labels.sum() / 13


class TestDatasetInvariants:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([[0], [2]]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([[0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        features = np.zeros((3, 2))
        features[1, 1] = value
        with pytest.raises(DataError, match="row 1, column 1 is not finite"):
            Dataset(features, np.array([[0], [1], [0]]))
