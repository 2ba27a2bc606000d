import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldd.br import br_fit
from nldd.data import Dataset, standardize_apply
from nldd.learner import (ConstantProbModel, LinearProbModel, TrainingError,
                          fit_fallback, fit_logistic, predict_proba_matrix,
                          _gradients, _logliks)


def _synthetic(seed=0, n=50, d=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = np.array([0.5, 1.5, -1.0])
    p = 1 / (1 + np.exp(-(w[0] + X @ w[1:])))
    y = (rng.uniform(size=n) < p).astype(int)
    if y.min() == y.max():  # force both classes
        y[0] = 1 - y[0]
    return X, y


def _design(X):
    """The (n, d+1) design matrix of an (n, d) feature matrix."""
    return np.column_stack([np.ones(len(X)), X])


def _penalized(X1, y, w, lam):
    """Penalized log-likelihood and gradient of one target vector ``y`` at
    one weight vector ``w``, as the stacked fit computes them."""
    Y, W = y[None], w[None]
    Z, ll = _logliks(X1, Y, W, lam)
    return ll[0], _gradients(X1, Y, Z, W, lam)[1][0]


class TestFitLogistic:
    def test_symmetric_data_zero_intercept(self):
        X = np.array([[-1.0], [1.0]] * 50)
        y = np.array([0, 1] * 50)
        (m,) = fit_logistic(_design(X), y[:, None])
        assert abs(m.weights[0]) < 1e-6

    def test_large_lambda_shrinks_slopes(self):
        X, y = _synthetic(1)
        (m,) = fit_logistic(_design(X), y[:, None], lam=1e6)
        assert np.all(np.abs(m.weights[1:]) < 1e-3)
        rate = y.mean()
        assert m.weights[0] == pytest.approx(math.log(rate / (1 - rate)), abs=1e-3)

    def test_grid_search_oracle(self):
        # Penalized log-likelihood at the fit beats every point of a
        # 51^3 grid over [-5, 5]^3.
        X, y = _synthetic(2)
        lam = 1.0
        (m,) = fit_logistic(_design(X), y[:, None], lam=lam)
        X1 = _design(X)
        ll_fit, _ = _penalized(X1, y.astype(float), m.weights, lam)
        grid = np.linspace(-5, 5, 51)
        best = -np.inf
        for b0 in grid:
            for b1 in grid:
                W = np.column_stack([np.full(51, b0), np.full(51, b1), grid])
                Z = X1 @ W.T
                ll = (y[:, None] * Z - np.logaddexp(0.0, Z)).sum(axis=0)
                ll -= 0.5 * lam * (b1 ** 2 + grid ** 2)
                best = max(best, ll.max())
        assert ll_fit >= best - 1e-9

    def test_single_class_errors(self):
        with pytest.raises(TrainingError, match="fallback"):
            fit_logistic(_design(np.zeros((4, 1))), np.zeros((4, 1)))

    def test_non_finite_features(self):
        with pytest.raises(TrainingError):
            fit_logistic(_design(np.array([[np.inf], [0.0]])), np.array([[0], [1]]))

    def test_feature_matrix_without_intercept_column_is_refused(self):
        # The (n, d) features alone are not a design matrix.
        X, y = _synthetic(11)
        with pytest.raises(ValueError, match="intercept's ones"):
            fit_logistic(X, y[:, None])
        with pytest.raises(ValueError, match="intercept's ones"):
            fit_logistic(np.zeros((len(y), 0)), y[:, None])

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_lambda_must_be_finite_and_positive(self, lam):
        X, y = _synthetic(12)
        with pytest.raises(ValueError, match="lambda must be finite and > 0"):
            fit_logistic(_design(X), y[:, None], lam=lam)

    def test_gradient_small_at_optimum(self):
        X, y = _synthetic(3)
        tol = 1e-8
        (m,) = fit_logistic(_design(X), y[:, None], tol=tol)
        X1 = _design(X)
        _, g = _penalized(X1, y.astype(float), m.weights, 1.0)
        assert np.max(np.abs(g)) < 10 * tol

    def test_gradient_matches_finite_differences(self):
        X, y = _synthetic(4, n=30)
        X1 = _design(X)
        yf = y.astype(float)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            w = rng.uniform(-2, 2, size=3)
            _, g = _penalized(X1, yf, w, 1.0)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (_penalized(X1, yf, w + e, 1.0)[0]
                      - _penalized(X1, yf, w - e, 1.0)[0]) / (2 * h)
                assert abs(fd - g[j]) <= 1e-4 * max(1.0, abs(g[j]))

    def test_determinism_bit_identical(self):
        X, y = _synthetic(6)
        (a,) = fit_logistic(_design(X), y[:, None])
        (b,) = fit_logistic(_design(X.copy()), y[:, None].copy())
        assert np.array_equal(a.weights, b.weights)
        assert a.iterations == b.iterations

    def test_monotone_in_positive_weight_feature(self):
        X, y = _synthetic(7)
        (m,) = fit_logistic(_design(X), y[:, None])
        j = int(np.argmax(m.weights[1:]))
        assert m.weights[1 + j] > 0
        x = np.zeros(X.shape[1])
        probs = []
        for t in np.linspace(-3, 3, 13):
            x[j] = t
            probs.append(predict_proba_matrix(m, x[None])[0])
        assert all(a <= b for a, b in zip(probs, probs[1:]))


class TestPredictProba:
    def test_zero_weights(self):
        from nldd.learner import LinearProbModel
        m = LinearProbModel(np.zeros(3), 1.0, True, 0)
        assert predict_proba_matrix(m, [[4.2, -1.0]])[0] == 0.5

    def test_logistic_symmetry(self):
        from nldd.learner import LinearProbModel
        m = LinearProbModel(np.array([0.0, 1.0]), 1.0, True, 0)
        assert predict_proba_matrix(m, [[0.0]])[0] == 0.5
        for t in (0.3, 1.7, 9.0):
            assert (predict_proba_matrix(m, [[t]])[0]
                    + predict_proba_matrix(m, [[-t]])[0]) == pytest.approx(1.0)

    def test_hand_score(self):
        from nldd.learner import LinearProbModel
        m = LinearProbModel(np.array([0.5, 1.5]), 1.0, True, 0)
        assert predict_proba_matrix(m, [[1.0]])[0] == pytest.approx(1 / (1 + math.exp(-2.0)))

    def test_dimension_mismatch(self):
        from nldd.learner import LinearProbModel
        m = LinearProbModel(np.zeros(3), 1.0, True, 0)
        with pytest.raises(ValueError):
            predict_proba_matrix(m, [[1.0]])

    def test_clamping(self):
        from nldd.learner import LinearProbModel
        m = LinearProbModel(np.array([0.0, 100.0]), 1.0, True, 0)
        p = predict_proba_matrix(m, [[100.0]])[0]
        assert 0.0 < p < 1.0

    def test_matrix_agrees_with_rows(self):
        from nldd.learner import LinearProbModel
        m = LinearProbModel(np.array([0.1, -0.5, 2.0]), 1.0, True, 0)
        X = np.random.default_rng(8).standard_normal((9, 2))
        batch = predict_proba_matrix(m, X)
        rows = [predict_proba_matrix(m, x[None])[0] for x in X]
        assert batch == pytest.approx(rows)


class TestFallback:
    def test_all_zero(self):
        assert fit_fallback(np.zeros(10)).p == pytest.approx(1 / 12)

    def test_all_one(self):
        assert fit_fallback(np.ones(10)).p == pytest.approx(11 / 12)

    def test_empty(self):
        assert fit_fallback(np.array([])).p == 0.5

    def test_constant_model_predicts_p(self):
        m = ConstantProbModel(p=0.25)
        assert predict_proba_matrix(m, [[1.0, 2.0]])[0] == 0.25


def fit_logistic_loop(X, y, lam=1.0, max_iter=100, tol=1e-8, start=None):
    """The single-label IRLS loop the stacked fit must reproduce bit for
    bit, from the (d+1,) weights ``start`` (zeros when None): (weights,
    iterations, converged, steps taken after 20 failed halvings)."""
    n, d = X.shape
    X1 = np.hstack([np.ones((n, 1)), X])
    y = np.asarray(y, dtype=np.float64)

    def loglik(w):
        z = X1 @ w
        ll = np.sum(y * z - np.logaddexp(0.0, z))
        return ll - 0.5 * lam * np.sum(w[1:] ** 2)

    def gradient(w):
        p = 1.0 / (1.0 + np.exp(-(X1 @ w)))
        g = X1.T @ (y - p)
        g[1:] -= lam * w[1:]
        return p, g

    w = np.zeros(d + 1) if start is None else np.array(start, dtype=np.float64)
    converged, exhausted, it = False, 0, 0
    for it in range(1, max_iter + 1):
        p, g = gradient(w)
        wt = np.clip(p * (1.0 - p), 1e-12, None)
        H = X1.T @ (wt[:, None] * X1)
        H[np.arange(1, d + 1), np.arange(1, d + 1)] += lam
        delta = np.linalg.solve(H, g)
        ll_old = loglik(w)
        step = 1.0
        w_new = w + delta
        for _ in range(20):
            if loglik(w_new) >= ll_old:
                break
            step *= 0.5
            w_new = w + step * delta
        else:
            exhausted += 1
        change = np.max(np.abs(w_new - w))
        w = w_new
        if change < tol or np.max(np.abs(gradient(w)[1])) < tol:
            converged = True
            break
    return w, it, converged, exhausted


def _assert_stacked_equals_loop(X, Y, start=None, **kw):
    """Fit the columns of Y stacked and one by one, from the (L, d+1)
    ``start`` if one is given; return the loop's (iterations, converged,
    exhausted) per column."""
    starts = [None] * Y.shape[1] if start is None else list(start)
    with np.errstate(over="ignore"):
        stacked = fit_logistic(_design(X), Y, start=start, **kw)
        loops = [fit_logistic_loop(X, Y[:, j], start=s, **kw)
                 for j, s in enumerate(starts)]
    assert len(stacked) == Y.shape[1]
    for model, (w, it, conv, _) in zip(stacked, loops):
        assert model.weights.tobytes() == w.tobytes()
        assert model.iterations == it
        assert model.converged == conv
    return [loop[1:] for loop in loops]


def _assert_stacked_equals_loop_or_fails(X, Y, start=None, **kw):
    """As ``_assert_stacked_equals_loop`` where the per-label loop ends with
    finite weights; where it meets a singular Hessian or diverges, the
    stacked fit must raise TrainingError."""
    starts = [None] * Y.shape[1] if start is None else list(start)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            loops = [fit_logistic_loop(X, Y[:, j], start=s, **kw)[0]
                     for j, s in enumerate(starts)]
        except np.linalg.LinAlgError:
            loops = None  # a singular Hessian on some column
    if loops is not None and np.isfinite(loops).all():
        _assert_stacked_equals_loop(X, Y, start=start, **kw)
    else:
        with pytest.raises(TrainingError), \
                np.errstate(over="ignore", invalid="ignore"):
            fit_logistic(_design(X), Y, start=start, **kw)


def _two_class(Y):
    Y = np.array(Y, dtype=np.int64)
    for j in range(Y.shape[1]):
        if Y[:, j].min() == Y[:, j].max():
            Y[0, j] = 1 - Y[0, j]
    return Y


@st.composite
def irls_cases(draw):
    """Features and 0/1 targets: shapes with n < d, scales from 1e-2 to
    1e2, an optional near-constant feature that makes the Hessian
    ill-conditioned, and columns from noise to separable."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d, L = draw(st.integers(2, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 5))
    X = rng.standard_normal((n, d)) * draw(st.sampled_from([1e-2, 1.0, 1e2]))
    if draw(st.booleans()):
        X[:, 0] = 1e6 + 1e-3 * rng.standard_normal(n)
    signal = draw(st.sampled_from([0.0, 1.0, 10.0, 1e3]))
    scores = signal * X[:, -1:] + rng.standard_normal((n, L))
    return X, _two_class(scores > 0)


class TestStackedIRLS:
    @settings(max_examples=60, deadline=None)
    @given(case=irls_cases(),
           lam=st.sampled_from([1e-8, 1e-3, 1.0, 100.0]),
           max_iter=st.sampled_from([1, 2, 5, 100]),
           tol=st.sampled_from([0.0, 1e-8, 1e-3]))
    def test_equals_per_label_loop(self, case, lam, max_iter, tol):
        X, Y = case
        _assert_stacked_equals_loop_or_fails(X, Y, lam=lam, max_iter=max_iter,
                                             tol=tol)

    def test_labels_stop_at_different_iterations(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 5))
        Y = _two_class(np.column_stack([
            X[:, 0] + rng.standard_normal(200) > 0,  # noisy: stops early
            X[:, 1] > 0,  # separable: runs long
            rng.standard_normal(200) > 0]))
        runs = _assert_stacked_equals_loop(X, Y, lam=1e-6)
        assert len({it for it, _, _ in runs}) == 3
        assert all(conv for _, conv, _ in runs)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_unconverged_labels(self, max_iter):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 4))
        Y = _two_class(np.column_stack([X[:, 0] > 0, X[:, 1] + X[:, 2] > 0]))
        runs = _assert_stacked_equals_loop(X, Y, lam=1e-3, max_iter=max_iter)
        assert [it for it, _, _ in runs] == [max_iter, max_iter]
        assert not any(conv for _, conv, _ in runs)

    def test_column_that_exhausts_halving(self):
        # A feature nearly constant at 1e6 makes the Hessian so
        # ill-conditioned that the solved step is no ascent direction, and
        # all 20 halvings fail.
        rng = np.random.default_rng(2)
        X = np.column_stack([1e6 + 1e-3 * rng.standard_normal(40),
                             rng.standard_normal(40)])
        Y = _two_class(rng.standard_normal((40, 3)) > 0)
        runs = _assert_stacked_equals_loop(X, Y, lam=1e-8, max_iter=10)
        assert sum(exhausted for _, _, exhausted in runs) > 0

    def test_singular_hessian_is_a_training_error(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(60)
        Y = _two_class(x[:, None] + rng.standard_normal((60, 2)) > 0)
        with pytest.raises(TrainingError, match="singular Hessian"):
            fit_logistic(_design(np.column_stack([x, x])), Y, lam=1e-300)

    def test_near_separable_columns(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 3))
        Y = _two_class(np.column_stack([X[:, 0] > 0, X[:, 0] + 1e-3 * X[:, 1] > 0,
                                        X[:, 2] > 0.5]))
        runs = _assert_stacked_equals_loop(X, Y, lam=1e-8)
        assert min(it for it, _, _ in runs) > 5

    def test_fewer_rows_than_features(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 15))
        Y = _two_class(rng.standard_normal((6, 4)) > 0)
        _assert_stacked_equals_loop(X, Y)

    def test_one_dimensional_target_is_rejected(self):
        X, y = _synthetic(8)
        with pytest.raises(ValueError, match=r"\(n, L\) matrix"):
            fit_logistic(_design(X), y)

    def test_any_single_class_column_errors(self):
        X, y = _synthetic(9)
        with pytest.raises(TrainingError, match="fallback"):
            fit_logistic(_design(X), np.column_stack([y, np.ones_like(y)]))

    def test_no_columns(self):
        X, _ = _synthetic(10)
        assert fit_logistic(_design(X), np.zeros((X.shape[0], 0))) == []

    def test_br_fit_with_constant_columns(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 4))
        Y = _two_class(np.column_stack([X[:, 0] > 0, X[:, 1] + X[:, 2] > 0]))
        labels = np.column_stack([np.zeros(80, int), Y[:, 0], np.ones(80, int), Y[:, 1]])
        train = Dataset(X, labels)
        model = br_fit(train)
        z = standardize_apply(model.stats, X)
        for j, clf in enumerate(model.classifiers):
            if j in (0, 2):
                assert clf == fit_fallback(labels[:, j])
            else:
                w, it, conv, _ = fit_logistic_loop(z, labels[:, j])
                assert clf.weights.tobytes() == w.tobytes()
                assert (clf.iterations, clf.converged) == (it, conv)


class TestStart:
    """``fit_logistic``'s ``start``: each column's Newton loop begins at its
    row of weights, with the loop and stop rule unchanged."""

    @settings(max_examples=40, deadline=None)
    @given(case=irls_cases(), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 0.1, 1.0, 3.0]),
           lam=st.sampled_from([1e-3, 1.0, 100.0]),
           max_iter=st.sampled_from([1, 3, 100]))
    def test_equals_per_label_loop(self, case, seed, scale, lam, max_iter):
        X, Y = case
        start = scale * np.random.default_rng(seed).standard_normal(
            (Y.shape[1], X.shape[1] + 1))
        _assert_stacked_equals_loop_or_fails(X, Y, start=start, lam=lam,
                                             max_iter=max_iter)

    def test_equals_per_label_loop_from_a_fixed_start(self):
        # The property above draws its starts afresh on every run.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 5))
        Y = _two_class(np.column_stack([
            X[:, 0] + rng.standard_normal(200) > 0,
            X[:, 1] > 0,
            rng.standard_normal(200) > 0]))
        start = rng.standard_normal((3, 6))
        runs = _assert_stacked_equals_loop(X, Y, start=start, lam=1e-6)
        assert all(conv for _, conv, _ in runs)

    def test_start_at_the_optimum_stops_at_once(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((150, 4))
        Y = _two_class(np.column_stack([X[:, 0] > 0.3,
                                        X[:, 1] - X[:, 2] + rng.standard_normal(150) > 0]))
        cold = fit_logistic(_design(X), Y)
        assert all(m.converged and m.iterations > 1 for m in cold)
        start = np.array([m.weights for m in cold])
        warm = fit_logistic(_design(X), Y, start=start)
        for c, w in zip(cold, warm):
            assert (w.iterations, w.converged) == (1, True)
            assert np.max(np.abs(w.weights - c.weights)) < 1e-8

    def test_start_is_not_modified(self):
        X, y = _synthetic(13)
        start = np.full((1, 3), 0.25)
        fit_logistic(_design(X), y[:, None], start=start)
        assert np.all(start == 0.25)

    @pytest.mark.parametrize("start", [
        np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2)), np.zeros((1, 3, 1))])
    def test_start_of_the_wrong_shape_is_refused(self, start):
        X, y = _synthetic(14)
        with pytest.raises(ValueError, match=r"start must be an \(1, 3\) array"):
            fit_logistic(_design(X), y[:, None], start=start)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_refused(self, bad):
        X, y = _synthetic(15)
        start = np.zeros((1, 3))
        start[0, 1] = bad
        with pytest.raises(ValueError, match="start weights must be finite"):
            fit_logistic(_design(X), y[:, None], start=start)
