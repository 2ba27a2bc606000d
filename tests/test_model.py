import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nldd.data import Dataset
from nldd.evaluate import generate_synthetic
from nldd.learner import TrainingError
from nldd.model import (BinomialFit, fit_binomial_glm,
                        mine_pairs, nldd_predict, nldd_train,
                        predict_with_confidence, theta)

SCENE_COEFS = (-3.5023, 0.0134, 1.8269)


def sq_dist_oracle(row, x):
    """Squared distance with the documented summation order: the squared
    differences added one after another in index order."""
    acc = 0.0
    for j in range(len(x)):
        diff = float(row[j]) - float(x[j])
        acc += diff * diff
    return acc


def sq_dists(x, mat):
    """Squared distances from row ``x`` to every row of ``mat``, vectorised
    ``sq_dist_oracle``: ``np.add.accumulate`` adds the squared differences
    in index order whatever the shapes."""
    diff = np.subtract(mat.T, x[:, None], order="C")
    diff *= diff
    return np.add.accumulate(diff, axis=0)[-1]


def pair_tuples(pairs):
    """The (dx, dy, loss) arrays of ``mine_pairs`` as a list of tuples."""
    return list(zip(*(a.tolist() for a in pairs)))


def mine_pairs_oracle(p_hat, true_labels, t1_features_std, t1_labels, x_std):
    """Independent exhaustive two-pass scan with explicit tie handling.

    Ties are decided on the squared distances, as ``mine_pairs`` documents:
    two squares one ulp apart can have the same square root.
    """
    dx = [sq_dist_oracle(t1_features_std[i], x_std)
          for i in range(len(t1_features_std))]
    dy = [sq_dist_oracle(t1_labels[i], p_hat)
          for i in range(len(t1_labels))]
    min_dx = min(dx)
    tied_x = [i for i in range(len(dx)) if dx[i] == min_dx]
    i1 = min(tied_x, key=lambda i: (dy[i], i))
    min_dy = min(dy)
    tied_y = [i for i in range(len(dy)) if dy[i] == min_dy]
    i2 = min(tied_y, key=lambda i: (dx[i], i))
    chosen = [i1] if i1 == i2 else [i1, i2]
    return [(math.sqrt(dx[i]), math.sqrt(dy[i]),
             int(np.sum(np.asarray(true_labels) != t1_labels[i])))
            for i in chosen]


class TestMinePairs:
    def test_tie_rules(self):
        # Candidates (dx, dy): row0 (1, large), row1 (1, mid), row2 (3, small).
        # The dx tie goes to row1; row2 wins the dy pass.
        t1_feats = np.array([[1.0], [-1.0], [3.0]])
        t1_labels = np.array([[0, 0], [1, 0], [1, 1]])
        p_hat = np.array([0.9, 0.9])
        dx, dy, loss = mine_pairs(p_hat[None], [[1, 1]], t1_feats, t1_labels,
                                  x_std=np.array([[0.0]]))
        assert len(dx) == len(dy) == len(loss) == 2
        assert dx[0] == pytest.approx(1.0)
        assert dy[0] == pytest.approx(math.hypot(0.1, 0.9))
        assert loss[0] == 1
        assert dx[1] == pytest.approx(3.0)
        assert dy[1] == pytest.approx(math.hypot(0.1, 0.1))
        assert loss[1] == 0

    def test_single_pair_when_both_minima_coincide(self):
        t1_feats = np.array([[0.0], [5.0]])
        t1_labels = np.array([[1, 0], [0, 1]])
        got = mine_pairs(np.array([[0.9, 0.1]]), [[1, 0]], t1_feats, t1_labels,
                         x_std=np.array([[0.1]]))
        assert [len(a) for a in got] == [1, 1, 1]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = rng.integers(2, 60)
            d = rng.integers(1, 6)
            n_labels = rng.integers(2, 5)
            t1_feats = rng.standard_normal((m, d))
            if rng.uniform() < 0.3:  # force dx ties via duplicated rows
                t1_feats[1] = t1_feats[0]
            t1_labels = rng.integers(0, 2, (m, n_labels))
            p_hat = rng.uniform(0.01, 0.99, n_labels)
            x = rng.standard_normal(d)
            true = rng.integers(0, 2, n_labels)
            got = mine_pairs(p_hat[None], true[None], t1_feats, t1_labels,
                             x_std=x[None])
            want = mine_pairs_oracle(p_hat, true, t1_feats, t1_labels, x)
            assert pair_tuples(got) == want

    def test_dy_bounded_by_sqrt_l(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_labels = rng.integers(2, 8)
            t1_labels = rng.integers(0, 2, (20, n_labels))
            p_hat = rng.uniform(0, 1, n_labels)
            _, dy, _ = mine_pairs(p_hat[None], t1_labels[:1],
                                  rng.standard_normal((20, 3)), t1_labels,
                                  x_std=rng.standard_normal(3)[None])
            for d in dy:
                assert d <= math.sqrt(n_labels) + 1e-12

    def test_empty_t1(self):
        with pytest.raises(ValueError):
            mine_pairs(np.array([[0.5]]), [[0]], np.empty((0, 1)),
                       np.empty((0, 1)), x_std=np.array([[0.0]]))


class TestBinomialGlm:
    def test_intercept_only_is_empirical_logit(self):
        losses = np.array([1, 2, 0, 3, 1])
        n_labels = 4
        fit = fit_binomial_glm(np.zeros(5), np.zeros(5), losses, n_labels)
        rate = losses.sum() / (n_labels * losses.size)
        assert fit.beta0 == pytest.approx(math.log(rate / (1 - rate)), abs=1e-8)
        assert fit.converged

    def test_degenerate_losses_raise(self):
        with pytest.raises(TrainingError):
            fit_binomial_glm(np.ones(5), np.full(5, 0.5), np.zeros(5), 3)
        with pytest.raises(TrainingError):
            fit_binomial_glm(np.ones(5), np.full(5, 0.5), np.full(5, 3), 3)

    def test_empty_or_unequal_arrays_raise(self):
        with pytest.raises(ValueError, match="no distance pairs"):
            fit_binomial_glm(np.empty(0), np.empty(0), np.empty(0), 3)
        with pytest.raises(ValueError, match="one length"):
            fit_binomial_glm(np.ones(5), np.ones(4), np.ones(5), 3)
        with pytest.raises(ValueError, match="one length"):
            fit_binomial_glm(np.ones(5), np.ones(5), np.ones(6), 3)

    def test_separable_losses_fit_without_overflow_warning(self):
        # dx separates the losses, so the scores of many pairs run far below
        # -709, where exp(-z) overflows to inf; the sigmoid's limit there is
        # 0, and tier-1 turns the overflow warning into an error.
        rng = np.random.default_rng(0)
        dx, dy = rng.uniform(0, 50, 200), rng.uniform(0, 3, 200)
        fit = fit_binomial_glm(dx, dy, (dx > 25).astype(np.int64), 1)
        assert fit.converged and fit.beta1 > 0

    def test_simulated_recovery(self):
        rng = np.random.default_rng(4)
        n, n_labels = 5000, 6
        dx = rng.uniform(0, 20, n)
        dy = rng.uniform(0, 2, n)
        th = 1 / (1 + np.exp(-(SCENE_COEFS[0] + SCENE_COEFS[1] * dx
                               + SCENE_COEFS[2] * dy)))
        losses = rng.binomial(n_labels, th)
        fit = fit_binomial_glm(dx, dy, losses, n_labels)
        assert fit.converged
        for got, want in zip((fit.beta0, fit.beta1, fit.beta2), SCENE_COEFS):
            assert abs(got - want) <= 0.10 * abs(want)

    def test_local_maximum_grid(self):
        rng = np.random.default_rng(5)
        dx, dy, losses = map(np.array, zip(*[
            (rng.uniform(0, 5), rng.uniform(0, 2), int(rng.integers(0, 4)))
            for _ in range(200)]))
        n_labels = 4
        fit = fit_binomial_glm(dx, dy, losses, n_labels)
        X = np.column_stack([np.ones(200), dx, dy])

        def loglik(beta):
            z = X @ np.asarray(beta)
            return float(np.sum(losses * z - n_labels * np.logaddexp(0, z)))

        center = np.array([fit.beta0, fit.beta1, fit.beta2])
        ll0 = loglik(center)
        deltas = np.linspace(-0.01, 0.01, 5)
        for a in deltas:
            for b in deltas:
                for c in deltas:
                    assert ll0 >= loglik(center + [a, b, c]) - 1e-9

    def test_gradient_norm_at_optimum(self):
        rng = np.random.default_rng(6)
        dx, dy, losses = map(np.array, zip(*[
            (rng.uniform(0, 3), rng.uniform(0, 1.5), int(rng.integers(0, 5)))
            for _ in range(300)]))
        tol = 1e-8
        fit = fit_binomial_glm(dx, dy, losses, 4, tol=tol)
        assert fit.converged
        assert fit.final_gradient_norm < 10 * tol

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        dx, dy, losses = map(np.array, zip(*[
            (rng.uniform(0, 3), rng.uniform(0, 1.5), int(rng.integers(0, 5)))
            for _ in range(100)]))
        n_labels = 4
        X = np.column_stack([np.ones(100), dx, dy])

        def loglik(beta):
            z = X @ beta
            return float(np.sum(losses * z - n_labels * np.logaddexp(0, z)))

        def grad(beta):
            th = 1 / (1 + np.exp(-(X @ beta)))
            return X.T @ (losses - n_labels * th)

        h = 1e-5
        for _ in range(20):
            beta = rng.uniform(-1, 1, 3)
            g = grad(beta)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (loglik(beta + e) - loglik(beta - e)) / (2 * h)
                assert abs(fd - g[j]) <= 1e-4 * max(1.0, abs(g[j]))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n_labels=st.integers(1, 6),
           tol=st.sampled_from([1e-8, 1e-6, 1e-3]))
    def test_converged_means_gradient_below_tol(self, data, n_labels, tol):
        n = data.draw(st.integers(1, 60))
        dx = data.draw(st.lists(st.one_of(st.floats(0.0, 20.0),
                                          st.sampled_from([0.0, 1.0, 2.5])),
                                min_size=n, max_size=n))
        dy = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
        loss = data.draw(st.lists(st.integers(0, n_labels), min_size=n, max_size=n))
        try:
            fit = fit_binomial_glm(np.array(dx), np.array(dy), np.array(loss),
                                   n_labels, tol=tol)
        except TrainingError:
            assume(False)  # every loss 0 or every loss n_labels
        assume(fit.converged)
        X = np.column_stack([np.ones(n), dx, dy])
        beta = np.array([fit.beta0, fit.beta1, fit.beta2])
        th = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = np.max(np.abs(X.T @ (np.array(loss) - n_labels * th)))
        assert grad < tol
        assert grad == fit.final_gradient_norm


class TestTheta:
    def test_zero_coefficients(self):
        fit = BinomialFit(0.0, 0.0, 0.0, True, 0, 0.0)
        assert theta(fit, 3.0, 1.0) == 0.5

    def test_scene_spot_check(self):
        fit = BinomialFit(*SCENE_COEFS, True, 0, 0.0)
        t = theta(fit, 0.0, 0.0)
        assert abs(t - 0.0292) <= 1e-4
        assert abs(6 * round(t, 4) - 0.1752) <= 1e-4

    def test_monotone_in_distances(self):
        fit = BinomialFit(*SCENE_COEFS, True, 0, 0.0)
        assert theta(fit, 1.0, 0.5) > theta(fit, 0.5, 0.5)
        assert theta(fit, 0.5, 1.0) > theta(fit, 0.5, 0.5)


def _train_test(seed=0, n=200, corr=0.8, noise=0.3):
    ds = generate_synthetic(n, 6, 4, corr, noise, seed=seed)
    rng = np.random.default_rng(seed + 500)
    perm = rng.permutation(n)
    cut = int(0.75 * n)
    return ds.subset(np.sort(perm[:cut])), ds.subset(np.sort(perm[cut:]))


class TestTrain:
    def test_pair_count_bounds(self):
        train, _ = _train_test()
        model = nldd_train(train, seed=0)
        half = math.ceil(train.n / 2)
        assert half <= model.pair_count <= 2 * half

    def test_determinism(self):
        train, _ = _train_test(1)
        a = nldd_train(train, seed=3)
        b = nldd_train(train, seed=3)
        assert a.fit == b.fit
        assert np.array_equal(a.train_features_std, b.train_features_std)
        assert a.pair_count == b.pair_count

    def test_distance_counter(self):
        train, _ = _train_test(2)
        model = nldd_train(train, seed=0)
        t1 = math.ceil(train.n / 2)
        assert model.distance_ops == t1 * (train.n - t1)

    def test_subsample_fraction(self):
        train, _ = _train_test(3, n=400)
        model = nldd_train(train, seed=0, subsample_fraction=0.5)
        m = round(0.5 * train.n)
        assert model.train_labelsets.shape[0] == m
        assert model.distance_ops == math.ceil(m / 2) * math.floor(m / 2)

    def test_bad_fraction(self):
        train, _ = _train_test(4)
        with pytest.raises(ValueError):
            nldd_train(train, seed=0, subsample_fraction=0.0)


class TestPredict:
    def test_duplicate_training_row_wins(self):
        train, _ = _train_test(5)
        model = nldd_train(train, seed=1)
        observed = {tuple(r) for r in train.labels}
        # An exact feature duplicate has dx=0, so its own labelset row is a
        # strong candidate; most training rows should get their labels back.
        hits = 0
        for i in range(train.n):
            pred = nldd_predict(model, train.features[i][None])[0]
            assert tuple(pred) in observed
            hits += np.array_equal(pred, train.labels[i])
        assert hits / train.n > 0.8

    def test_single_row_candidates(self):
        train, _ = _train_test(6)
        model = nldd_train(train, seed=2)
        model.train_features_std = model.train_features_std[:1]
        model.train_labelsets = model.train_labelsets[:1]
        pred = nldd_predict(model, np.zeros((1, train.d)))[0]
        assert np.array_equal(pred, model.train_labelsets[0])

    def test_brute_force_score_oracle(self):
        from nldd.br import br_predict_proba_matrix
        from nldd.data import standardize_apply
        train, test = _train_test(7)
        model = nldd_train(train, seed=3)
        for i in range(test.n):
            x = test.features[i][None]
            p_hat = br_predict_proba_matrix(model.br, x)[0]
            z = standardize_apply(model.br.stats, x)[0]
            dx = np.sqrt(((model.train_features_std - z) ** 2).sum(axis=1))
            dy = np.sqrt(((model.train_labelsets - p_hat) ** 2).sum(axis=1))
            score = model.fit.beta1 * dx + model.fit.beta2 * dy
            j = int(np.lexsort((np.arange(len(dx)), dx, dy, score))[0])
            assert np.array_equal(nldd_predict(model, x)[0],
                                  model.train_labelsets[j])

    def test_prediction_is_observed_labelset(self):
        train, test = _train_test(8)
        model = nldd_train(train, seed=4)
        observed = {tuple(r) for r in train.labels}
        for i in range(test.n):
            assert tuple(nldd_predict(model, test.features[i][None])[0]) in observed

    def test_scale_invariance_of_argmin(self):
        train, test = _train_test(9)
        model = nldd_train(train, seed=5)
        scaled = copy.copy(model)
        scaled.fit = BinomialFit(model.fit.beta0, 17.0 * model.fit.beta1,
                                 17.0 * model.fit.beta2, True, 0, 0.0)
        for i in range(test.n):
            x = test.features[i][None]
            assert np.array_equal(nldd_predict(model, x), nldd_predict(scaled, x))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 3),
           exponents=st.lists(st.integers(-30, 30), min_size=6, max_size=6))
    def test_power_of_two_feature_scaling_keeps_predictions(self, seed, exponents):
        # Scaling feature j by 2**k_j in the training and the query rows is
        # exact, so standardisation gives the same bits, and so does every
        # step after it.
        train, test = _train_test(seed, n=120)
        scale = np.ldexp(1.0, exponents)

        def fit_predict(s):
            model = nldd_train(Dataset(train.features * s, train.labels), seed=seed)
            return predict_with_confidence(model, test.features * s)

        (labels, thetas), (labels_s, thetas_s) = fit_predict(1.0), fit_predict(scale)
        assert np.array_equal(labels, labels_s)
        assert thetas.tobytes() == thetas_s.tobytes()

    def test_confidence_matches_theta_of_winner(self):
        from nldd.br import br_predict_proba_matrix
        from nldd.data import standardize_apply
        train, test = _train_test(10)
        model = nldd_train(train, seed=6)
        for i in range(10):
            x = test.features[i][None]
            (pred,), (th,) = predict_with_confidence(model, x)
            assert 0.0 < th < 1.0
            p_hat = br_predict_proba_matrix(model.br, x)[0]
            z = standardize_apply(model.br.stats, x)[0]
            mask = np.all(model.train_labelsets == pred, axis=1)
            dx = np.sqrt(((model.train_features_std[mask] - z) ** 2).sum(axis=1))
            dy = np.sqrt(((model.train_labelsets[mask] - p_hat) ** 2).sum(axis=1))
            assert any(abs(theta(model.fit, a, b) - th) < 1e-12
                       for a, b in zip(dx, dy))

    def test_confidence_filter_improves_hamming(self):
        from nldd.metrics import instance_metrics_matrix
        train, test = _train_test(11, n=400)
        model = nldd_train(train, seed=7)
        losses, thetas = [], []
        for i in range(test.n):
            (pred,), (th,) = predict_with_confidence(model, test.features[i][None])
            losses.append(instance_metrics_matrix([test.labels[i]], [pred])[0, 0])
            thetas.append(th)
        losses = np.array(losses)
        thetas = np.array(thetas)
        cutoff = np.quantile(thetas, 0.25)
        assert losses[thetas <= cutoff].mean() <= losses.mean()


class TestNonFiniteQueries:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected_by_every_predict(self, value):
        from nldd.br import br_predict, smbr_predict
        from nldd.data import DataError
        train, test = _train_test(12)
        model = nldd_train(train, seed=8)
        X = test.features[:4].copy()
        X[2, 1] = value
        predictors = [lambda x: nldd_predict(model, x),
                      lambda x: predict_with_confidence(model, x),
                      lambda x: br_predict(model.br, x),
                      lambda x: smbr_predict(model.br, train, x)]
        for predict in predictors:
            with pytest.raises(DataError, match="query row 3"):
                predict(X)
            with pytest.raises(DataError, match="query row 1"):
                predict(X[2][None])


def test_one_row_vector_is_rejected_by_every_predict():
    from nldd.br import br_predict, br_predict_proba_matrix, smbr_predict
    from nldd.data import DataError
    train, test = _train_test(13)
    model = nldd_train(train, seed=9)
    predictors = [lambda x: nldd_predict(model, x),
                  lambda x: predict_with_confidence(model, x),
                  lambda x: br_predict(model.br, x),
                  lambda x: br_predict_proba_matrix(model.br, x),
                  lambda x: smbr_predict(model.br, train, x)]
    for predict in predictors:
        with pytest.raises(DataError, match=r"\(n, d\) matrix"):
            predict(test.features[0])
