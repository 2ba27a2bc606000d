import numpy as np
import pytest

from nldd.br import _fit as br_fit_with_features
from nldd.br import br_fit, br_predict, br_predict_proba_matrix, smbr_predict
from nldd.data import Dataset, standardize_apply, standardize_fit
from nldd.learner import ConstantProbModel, fit_logistic, predict_proba_matrix


def _dataset(seed=0, n=60, d=3, n_labels=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    W = rng.standard_normal((d, n_labels))
    labels = (X @ W + 0.3 * rng.standard_normal((n, n_labels)) > 0).astype(int)
    return Dataset(X, labels)


class TestBrFit:
    def test_one_classifier_per_label(self):
        ds = _dataset()
        model = br_fit(ds)
        assert len(model.classifiers) == ds.n_labels

    def test_constant_label_uses_fallback(self):
        ds = _dataset()
        labels = ds.labels.copy()
        labels[:, 1] = 0
        model = br_fit(Dataset(ds.features, labels))
        assert isinstance(model.classifiers[1], ConstantProbModel)

    def test_refit_identical(self):
        ds = _dataset(1)
        a, b = br_fit(ds), br_fit(ds)
        for ca, cb in zip(a.classifiers, b.classifiers):
            assert np.array_equal(ca.weights, cb.weights)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_matches_public_fit_logistic(self, seed):
        # _fit standardises into its own design matrix and calls IRLS on
        # it directly; the weights, iterations and standardised rows are
        # the same bits as the public path's. Constant columns (1 and 4)
        # take the fallback and are left out of both fits.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((400, 20)) * rng.uniform(0.1, 10.0, 20)
        x[:, 3] = 2.5  # an sd-zero feature column
        labels = (x[:, :6] @ rng.standard_normal((6, 6)) > 0).astype(int)
        labels[:, 1], labels[:, 4] = 0, 1
        ds = Dataset(x, labels)
        model, z = br_fit_with_features(ds, 1.0)
        stats = standardize_fit(ds)
        want_z = standardize_apply(stats, x)
        assert z.tobytes() == want_z.tobytes()
        varying = [0, 2, 3, 5]
        want = fit_logistic(want_z, labels[:, varying])
        got = [model.classifiers[j] for j in varying]
        assert [c.weights.tobytes() for c in got] == \
            [w.weights.tobytes() for w in want]
        assert [(c.iterations, c.converged) for c in got] == \
            [(w.iterations, w.converged) for w in want]


class TestBrPredict:
    def test_probabilities_strictly_inside(self):
        ds = _dataset(2)
        model = br_fit(ds)
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = br_predict_proba_matrix(model, rng.standard_normal(ds.d)[None] * 10)
            assert np.all(p > 0) and np.all(p < 1)

    def test_compositional_oracle(self):
        ds = _dataset(4)
        model = br_fit(ds)
        x = np.array([0.3, -1.2, 0.7])
        z = standardize_apply(model.stats, x[None, :])[0]
        manual = [predict_proba_matrix(c, z[None])[0] for c in model.classifiers]
        assert br_predict_proba_matrix(model, x[None])[0] == pytest.approx(manual)

    def test_threshold_rule(self):
        ds = _dataset(5)
        model = br_fit(ds)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal(ds.d)[None]
            p = br_predict_proba_matrix(model, x)[0]
            assert np.array_equal(br_predict(model, x)[0], (p >= 0.5).astype(int))

    def test_dimension_mismatch(self):
        model = br_fit(_dataset(7))
        with pytest.raises(Exception):
            br_predict_proba_matrix(model, np.zeros((1, 5)))


class TestSmbr:
    def test_exact_match_wins(self):
        ds = _dataset(8)
        model = br_fit(ds)
        observed = {tuple(r) for r in ds.labels}
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.standard_normal(ds.d)[None]
            hard = tuple(br_predict(model, x)[0])
            pred = smbr_predict(model, ds, x)[0]
            if hard in observed:
                assert tuple(pred) == hard

    def test_frequency_tie_break(self):
        # Fixed classifiers force BR output (1,1,0); labelsets (1,0,0) x3 and
        # (0,1,0) x1 are both at Hamming distance 1; frequency decides.
        from nldd.br import BRModel
        from nldd.data import StandardizationStats
        train = Dataset(np.zeros((4, 1)) + np.arange(4)[:, None],
                        np.array([[1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]]))
        model = BRModel(
            classifiers=[ConstantProbModel(0.9), ConstantProbModel(0.9),
                         ConstantProbModel(0.1)],
            stats=StandardizationStats(means=np.zeros(1), sds=np.ones(1)),
            label_names=["a", "b", "c"])
        assert br_predict(model, [[0.0]]).tolist() == [[1, 1, 0]]
        assert smbr_predict(model, train, [[0.0]]).tolist() == [[1, 0, 0]]

    def test_prediction_is_training_labelset(self):
        ds = _dataset(10)
        model = br_fit(ds)
        observed = {tuple(r) for r in ds.labels}
        rng = np.random.default_rng(11)
        for _ in range(100):
            pred = smbr_predict(model, ds, rng.standard_normal(ds.d)[None])[0]
            assert tuple(pred) in observed

    def test_minimal_distance_against_full_scan(self):
        ds = _dataset(12)
        model = br_fit(ds)
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.standard_normal(ds.d)[None]
            hard = br_predict(model, x)[0]
            pred = smbr_predict(model, ds, x)[0]
            dist = np.sum(pred != hard)
            for row in ds.labels:
                assert dist <= np.sum(row != hard)


class TestQueries:
    """``_queries`` is the one path from raw query rows to standardised rows
    and probabilities; it refuses the rows it cannot represent."""

    @staticmethod
    def _model():
        from nldd.br import BRModel
        from nldd.data import StandardizationStats
        from nldd.learner import LinearProbModel
        # Column 0 has sd 0.5, column 2 sd 0 (a constant training column).
        stats = StandardizationStats(means=np.zeros(3),
                                     sds=np.array([0.5, 1.0, 0.0]))
        linear = LinearProbModel(weights=np.array([0.0, 10.0, 10.0, 1.0]),
                                 lam=1.0, converged=True, iterations=1)
        return BRModel(classifiers=[linear, ConstantProbModel(0.3)],
                       stats=stats, label_names=["a", "b"])

    def test_matches_standardize_then_predict_bitwise(self):
        from nldd.br import _queries
        model = br_fit(_dataset(14))
        x = np.random.default_rng(15).standard_normal((7, 3)) * 100
        z, p_hat = _queries(model, x)
        assert np.array_equal(z, standardize_apply(model.stats, x))
        assert np.array_equal(p_hat, np.column_stack(
            [predict_proba_matrix(c, z) for c in model.classifiers]))

    @pytest.mark.parametrize("rows, message", [
        # A NaN in the sd-zero column standardises to 0, yet is refused.
        ([[0.0, 0.0, np.nan]], "non-finite feature value in query row 1"),
        ([[1.0, 1.0, 1.0], [1.7e308, 0.0, 0.0]],
         "standardised feature value overflows in query row 2"),
        # Scores of 10 * 1e308 and 10 * -1e308 add to inf - inf.
        ([[5e307, -1e308, 0.0]], "undefined BR probability in query row 1"),
        # The first refused row is named, whatever its reason.
        ([[0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0], [np.inf, 0.0, 0.0]],
         "standardised feature value overflows in query row 2"),
        ([[5e307, -1e308, 0.0], [1.7e308, 0.0, 0.0]],
         "undefined BR probability in query row 1"),
    ])
    def test_refused_rows(self, rows, message):
        from nldd.data import DataError
        with pytest.raises(DataError, match=f"^{message}$"):
            br_predict_proba_matrix(self._model(), np.array(rows))

    def test_one_signed_overflow_saturates(self):
        # 10 * 1e308 overflows to inf in both terms: p saturates at the
        # clamp without a warning.
        p = br_predict_proba_matrix(self._model(), [[5e307, 1e308, -3.0]])
        assert p.tolist() == [[1.0 - 1e-12, 0.3]]

    def test_column_count_checked(self):
        from nldd.data import DataError
        with pytest.raises(DataError, match="feature dimension 2"):
            br_predict_proba_matrix(self._model(), np.zeros((1, 2)))
