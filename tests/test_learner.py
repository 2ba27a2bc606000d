import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldd import learner
from nldd.br import br_fit
from nldd.data import Dataset, standardize_apply, standardize_fit
from nldd.evaluate import generate_synthetic
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
        # For Binary Relevance; fit_logistic also takes the binomial GLM's
        # lambda = 0, the plain maximum likelihood.
        X, y = _synthetic(12)
        with pytest.raises(ValueError, match="lambda must be finite and > 0"):
            br_fit(Dataset(X, y[:, None]), lam=lam)
        if lam == 0:
            (m,) = fit_logistic(_design(X), y[:, None], lam=lam)
            _, g = _penalized(_design(X), y.astype(float), m.weights, 0.0)
            assert m.converged and np.max(np.abs(g)) < 1e-8
        else:
            with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
                fit_logistic(_design(X), y[:, None], lam=lam)

    @pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
    def test_targets_must_be_rates(self, bad):
        X, y = _synthetic(16)
        targets = y[:, None].astype(float)
        targets[3, 0] = bad
        with pytest.raises(ValueError, match=r"rates in \[0, 1\]"):
            fit_logistic(_design(X), targets)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the oracle needs an extended long double")
    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 0.1])
    def test_small_step_gains_keep_their_digits(self, scale):
        # The difference of two penalized log-likelihoods, each rounded at
        # about 1e-14 here, keeps few digits of a step of 1e-9's gain (2e-7
        # relative error); the gain formed from the score change keeps
        # them. The oracle takes the difference in extended precision.
        X, y = _synthetic(19, n=300)
        X1, lam = _design(X), 0.5
        rng = np.random.default_rng(19)
        W = rng.standard_normal((2, 3))
        Wn = W + scale * rng.standard_normal((2, 3))
        Y = np.array([y, np.full(300, 0.25)], dtype=np.float64)
        P = 1.0 / (1.0 + np.exp(-(W @ X1.T)))
        gains = learner._small_step_gains(X1, Y, P, W, Wn, lam)

        def loglik(w, t):
            z = X1.astype(np.longdouble) @ w.astype(np.longdouble)
            return (np.sum(t * z - np.logaddexp(np.longdouble(0), z))
                    - lam / 2 * np.sum(w[1:].astype(np.longdouble) ** 2))

        for gain, w, wn, t in zip(gains, W, Wn, Y):
            want = float(loglik(wn, t) - loglik(w, t))
            assert abs(gain - want) <= 1e-8 * abs(want)

    def test_small_step_gains_leave_large_steps_to_the_log_likelihoods(self):
        X, y = _synthetic(20)
        X1 = _design(X)
        W = np.zeros((1, 3))
        gains = learner._small_step_gains(X1, y[None].astype(float),
                                          np.full((1, len(y)), 0.5), W,
                                          W + 0.8, 1.0)
        assert np.isnan(gains).all()

    def test_constant_fractional_column_fits_its_logit(self):
        # Only all-0 or all-1 targets are a single class; a column of
        # rates 1/3 is the MLE of an intercept of logit(1/3).
        X, _ = _synthetic(17)
        (m,) = fit_logistic(_design(X), np.full((len(X), 1), 1 / 3))
        assert m.converged
        assert m.weights[0] == pytest.approx(math.log(0.5), abs=1e-8)
        assert np.all(np.abs(m.weights[1:]) < 1e-8)

    def test_fractional_targets_are_the_binomial_fit(self):
        # k successes of m trials: the rate k/m's log-likelihood is 1/m of
        # the binomial one, so it matches m 0/1 rows per trial.
        X, y = _synthetic(18, n=40)
        k = (y + np.arange(40) % 2).astype(float)  # 0, 1 or 2 of 2 trials
        (rates,) = fit_logistic(_design(X), (k / 2)[:, None], lam=0.5)
        rows = np.repeat(X, 2, axis=0)
        trials = (np.arange(80) % 2 < np.repeat(k, 2)).astype(float)
        (ones,) = fit_logistic(_design(rows), trials[:, None], lam=1.0)
        assert rates.converged and ones.converged
        assert np.allclose(rates.weights, ones.weights, rtol=0, atol=1e-7)

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
    """The single-label Newton loop with exact solves, the oracle of the
    optimum, from the (d+1,) weights ``start`` (zeros when None):
    (weights, iterations, converged, whether a step taken untested after
    20 failed halvings lowered the log-likelihood)."""
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
    converged, fell, it = False, False, 0
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
            fell |= _fell(ll_old, loglik(w_new))
        change = np.max(np.abs(w_new - w))
        w = w_new
        if change < tol or np.max(np.abs(gradient(w)[1])) < tol:
            converged = True
            break
    return w, it, converged, fell


def _fell(ll_old, ll_new):
    """Whether a step lowered the penalized log-likelihood by more than
    rounding, which only a step taken untested can do."""
    return ll_new < ll_old - 1e-9 * (1 + abs(ll_old))


def _fit_fell(X1, Y, start, j, **kw):
    """Whether column j's log-likelihood ever fell along the stacked fit's
    path, read one iteration at a time by refitting with max_iter = 1, 2,
    and so on: the labels stop at the same iterations each time."""
    y = Y[:, j].astype(float)
    w = np.zeros(X1.shape[1]) if start is None else start[j]
    ll = _penalized(X1, y, w, kw["lam"])[0]
    for k in range(1, kw["max_iter"] + 1):
        with np.errstate(over="ignore"):
            w = fit_logistic(X1, Y, start=start, **dict(kw, max_iter=k))[j].weights
        ll_next = _penalized(X1, y, w, kw["lam"])[0]
        if _fell(ll, ll_next):
            return True
        ll = ll_next
    return False


def _curvatures(X1, w, lam):
    """Least and greatest eigenvalues of the penalized Hessian at ``w``."""
    p = 1.0 / (1.0 + np.exp(-(X1 @ w)))
    H = X1.T @ (np.clip(p * (1.0 - p), 1e-12, None)[:, None] * X1)
    H[np.arange(1, len(w)), np.arange(1, len(w))] += lam
    eig = np.linalg.eigvalsh(H)
    return eig[0], eig[-1]


def _assert_matches_loop(X, Y, start=None, lam=1.0, max_iter=100, tol=1e-8):
    """Fit the columns of Y stacked, and each alone by the exact-Newton
    ``fit_logistic_loop``, from the (L, d+1) ``start`` if one is given.

    Convergence flags: in both fits a label that did not converge ran
    ``max_iter`` iterations, and where the loop converges within 100
    iterations the stacked fit converges too, unless a step taken untested
    after 20 failed halvings lowered either fit's log-likelihood. Such a
    step lands anywhere (it can start a cycle of such steps), so whether
    and when a path then converges is a matter of where it landed.

    Log-likelihoods: where both converge, their penalized
    log-likelihoods agree up to what the stop rule leaves open: 10 tol
    (1+|ll|), plus (d+1) tol²/lam for a gradient below tol on a flat
    optimum, where the slopes' least curvature is about lam. The loop's
    stop pins its own log-likelihood less: on an uncentred design its
    last exact step may move less than tol along a stiff direction, or
    its gradient fall below tol along a nearly flat one. So it may stop up
    to (d+1) tol² max(e_max, 1/e_min) below the optimum, with e_min and
    e_max the least and greatest eigenvalues of the penalized Hessian,
    and the stacked fit may exceed it by that much. Where only the
    stacked fit converges, it is no worse than the loop's last weights.

    Weights: where the optimum is pinned (the penalized Hessian's least
    eigenvalue there is at least 1, so a gradient below tol fixes the
    weights to about tol) and tol = 1e-8, both fits' weights agree within
    1e-7(1+|w|). Returns the stacked models and the loop's (iterations,
    converged, fell) per column.
    """
    n_labels, d = Y.shape[1], X.shape[1]
    starts = np.zeros((n_labels, d + 1)) if start is None else start
    kw = dict(lam=lam, max_iter=max_iter, tol=tol)
    with np.errstate(over="ignore"):
        stacked = fit_logistic(_design(X), Y, start=start, **kw)
        loops = [fit_logistic_loop(X, Y[:, j], start=s, **kw)
                 for j, s in enumerate(starts)]
    assert len(stacked) == n_labels
    X1 = _design(X)
    for j, (model, (w, it, conv, fell)) in enumerate(zip(stacked, loops)):
        assert np.isfinite(model.weights).all()
        assert model.converged or model.iterations == max_iter
        assert conv or it == max_iter
        y = Y[:, j].astype(float)
        ll_fit, _ = _penalized(X1, y, model.weights, lam)
        ll_loop, _ = _penalized(X1, y, w, lam)
        if conv and max_iter == 100 and not fell and not model.converged:
            assert _fit_fell(X1, Y, start, j, **kw)
        if not model.converged:
            continue
        slack = 10 * tol * (1 + abs(ll_loop)) + (d + 1) * tol**2 / lam
        assert ll_loop - ll_fit <= slack
        if not conv:
            continue
        with np.errstate(over="ignore"):
            least, greatest = _curvatures(X1, w, lam)
        flat = 1 / least if least > 0 else math.inf
        assert ll_fit - ll_loop <= slack + (d + 1) * tol**2 * max(greatest, flat)
        if least >= 1.0 and tol == 1e-8:
            assert np.all(np.abs(model.weights - w) <= 1e-7 * (1 + np.abs(w)))
    return stacked, [loop[1:] for loop in loops]


def _assert_matches_loop_or_fails(X, Y, start=None, **kw):
    """As ``_assert_matches_loop`` where the exact-Newton loop ends with
    finite weights. Where it meets a singular Hessian or diverges, the
    stacked fit either raises TrainingError or ends with finite weights,
    each label converged or run to ``max_iter``."""
    starts = [None] * Y.shape[1] if start is None else list(start)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            loops = [fit_logistic_loop(X, Y[:, j], start=s, **kw)[0]
                     for j, s in enumerate(starts)]
        except np.linalg.LinAlgError:
            loops = None  # a singular Hessian on some column
    if loops is not None and np.isfinite(loops).all():
        _assert_matches_loop(X, Y, start=start, **kw)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            models = fit_logistic(_design(X), Y, start=start, **kw)
        except TrainingError:
            return
    max_iter = kw.get("max_iter", 100)
    for model in models:
        assert np.isfinite(model.weights).all()
        assert model.converged or model.iterations == max_iter


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
        # The exact-Newton loop's optimum and convergence, up to what the
        # stop rule leaves open (see _assert_matches_loop).
        X, Y = case
        _assert_matches_loop_or_fails(X, Y, lam=lam, max_iter=max_iter,
                                      tol=tol)

    def test_matches_exact_newton_at_a_fold_shape(self):
        # Standardised features and lambda = 1 pin every optimum, so all
        # of _assert_matches_loop's checks apply to every label.
        data = generate_synthetic(500, 20, 6, 0.8, 0.3, seed=1)
        z = standardize_apply(standardize_fit(data), data.features)
        models, _ = _assert_matches_loop(z, data.labels)
        for model, j in zip(models, range(6)):
            w, _, conv, _ = fit_logistic_loop(z, data.labels[:, j])
            assert conv and model.converged
            assert _curvatures(_design(z), w, 1.0)[0] >= 1.0
            assert np.all(np.abs(model.weights - w) <= 1e-7 * (1 + np.abs(w)))

    def test_stacked_matches_each_column_alone(self):
        # A matrix product over a batch of labels may round a column
        # differently with the batch's width. At this shape, standardised
        # with lambda = 1, that leaves each column's iterations and flag as
        # alone, and its weights within the stop tolerance.
        data = generate_synthetic(500, 20, 6, 0.8, 0.3, seed=1)
        X1 = _design(standardize_apply(standardize_fit(data), data.features))
        stacked = fit_logistic(X1, data.labels)
        for j, model in enumerate(stacked):
            (alone,) = fit_logistic(X1, data.labels[:, [j]])
            assert (model.iterations, model.converged) == \
                (alone.iterations, alone.converged)
            assert model.converged
            assert np.all(np.abs(model.weights - alone.weights)
                          <= 1e-8 * (1 + np.abs(alone.weights)))

    def test_offset_feature_converges_at_the_optimum(self):
        # A feature near 1e6 that barely varies, beside the intercept's
        # ones. Without centring, CG's first steps follow the stiff
        # direction the offset makes, and a tiny truncated step met
        # change < tol after 2 iterations, 2.07 below the optimum's
        # penalized log-likelihood.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        X[:, 0] = 1e6 + 1e-3 * rng.standard_normal(30)
        Y = _two_class(X[:, 1:2] + rng.standard_normal((30, 1)) > 0)
        (model,), ((_, conv, _),) = _assert_matches_loop(X, Y)
        assert model.converged and conv
        X1, y = _design(X), Y[:, 0].astype(float)
        w, _, _, _ = fit_logistic_loop(X, y)
        ll_fit, _ = _penalized(X1, y, model.weights, 1.0)
        ll_loop, _ = _penalized(X1, y, w, 1.0)
        assert abs(ll_fit - ll_loop) <= 1e-9 * (1 + abs(ll_loop))

    def test_tiny_truncated_step_does_not_stop_the_fit(self):
        # Features at scales 1e5 and 1e-3. A CG step cut short at its
        # forcing term follows the stiff feature and moved the weights by
        # less than tol far from the optimum; taken as converged, it left
        # the fit 0.084 below the optimum's penalized log-likelihood.
        rng = np.random.default_rng(43)
        X = rng.standard_normal((40, 3)) * [1e5, 1e-3, 1.0]
        Y = _two_class(X[:, 1:2] * 1e3 + 0.5 * rng.standard_normal((40, 1)) > 0)
        (model,), ((_, conv, _),) = _assert_matches_loop(X, Y, lam=1e-3)
        assert model.converged and conv

    def test_separable_column_converges(self):
        # 26 rows in 11 dimensions are separable, and lambda = 1e-8 leaves
        # the Newton systems badly conditioned. With CG capped at d+1
        # steps, rounding kept it short of the floor, and the fit had not
        # converged after 100 iterations where exact Newton takes 27.
        rng = np.random.default_rng(42)
        X = rng.standard_normal((26, 11)) * 100.0
        Y = _two_class(rng.standard_normal((26, 1)) > 0)
        (model,), ((_, conv, _),) = _assert_matches_loop(X, Y, lam=1e-8)
        assert model.converged and conv

    def test_labels_stop_at_different_iterations(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 5))
        Y = _two_class(np.column_stack([
            X[:, 0] + rng.standard_normal(200) > 0,  # noisy: stops early
            X[:, 1] > 0,  # separable: runs long
            rng.standard_normal(200) > 0]))
        models, runs = _assert_matches_loop(X, Y, lam=1e-6)
        assert len({m.iterations for m in models}) == 3
        assert all(m.converged for m in models)
        assert all(conv for _, conv, _ in runs)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_unconverged_labels(self, max_iter):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 4))
        Y = _two_class(np.column_stack([X[:, 0] > 0, X[:, 1] + X[:, 2] > 0]))
        models, runs = _assert_matches_loop(X, Y, lam=1e-3, max_iter=max_iter)
        assert [it for it, _, _ in runs] == [max_iter, max_iter]
        assert [m.iterations for m in models] == [max_iter, max_iter]
        assert not any(conv for _, conv, _ in runs)
        assert not any(m.converged for m in models)

    def test_column_that_exhausts_halving(self, monkeypatch):
        # A step that is no ascent direction fails all 20 halvings, and the
        # candidate after the 20th is taken untested, as in the loop.
        # Against the gradient, the penalized log-likelihood (concave)
        # falls at every step length.
        X, y = _synthetic(2)
        X1 = _design(X)
        monkeypatch.setattr(learner, "_newton_steps",
                            lambda Xc, mu, wt, G, *rest: (-G, np.ones(len(G), bool)))
        (model,) = fit_logistic(X1, y[:, None], max_iter=1)
        _, g = _penalized(X1, y.astype(float), np.zeros(3), 1.0)
        assert model.weights.tobytes() == (0.5 ** 20 * -g).tobytes()
        assert (model.iterations, model.converged) == (1, False)

    def test_non_finite_weights_are_a_training_error(self, monkeypatch):
        # An infinite step survives every halving and is taken untested;
        # the fit refuses the weights it leads to instead of returning them.
        X, y = _synthetic(2)
        monkeypatch.setattr(learner, "_newton_steps", lambda Xc, mu, wt, G, *rest:
                            (np.full_like(G, np.inf), np.ones(len(G), bool)))
        with pytest.raises(TrainingError, match="^logistic fit diverged to "
                                                "non-finite weights$"), \
                np.errstate(all="ignore"):
            fit_logistic(_design(X), y[:, None], max_iter=1)

    def test_duplicated_feature_trains_with_equal_weights(self):
        # Exact Newton meets a singular Hessian here, with lambda too small
        # to change its diagonal. CG never leaves the span of the gradients,
        # in which the two copies of the feature get the same weight.
        rng = np.random.default_rng(6)
        x = rng.standard_normal(60)
        Y = _two_class(x[:, None] + rng.standard_normal((60, 2)) > 0)
        with pytest.raises(np.linalg.LinAlgError):
            fit_logistic_loop(np.column_stack([x, x]), Y[:, 0], lam=1e-300)
        models = fit_logistic(_design(np.column_stack([x, x])), Y, lam=1e-300)
        for model, j in zip(models, range(2)):
            assert model.converged
            assert model.weights[1] == model.weights[2]
            (single,) = fit_logistic(_design(x[:, None]), Y[:, [j]], lam=1e-300)
            # The two copies share the single feature's weight.
            assert model.weights[1] + model.weights[2] == \
                pytest.approx(single.weights[1], rel=1e-6)

    @pytest.mark.parametrize("scale, match", [
        (1e100, "curvature"), (1e160, "gradient overflows")])
    def test_overflowing_newton_system_is_a_training_error(self, scale, match):
        # Features this large overflow the CG products or the gradient's
        # norm; the fit refuses them instead of taking a zero step.
        X, y = _synthetic(2)
        with pytest.raises(TrainingError, match=match), \
                np.errstate(over="ignore", invalid="ignore"):
            fit_logistic(_design(X * scale), y[:, None])

    def test_near_separable_columns(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 3))
        Y = _two_class(np.column_stack([X[:, 0] > 0, X[:, 0] + 1e-3 * X[:, 1] > 0,
                                        X[:, 2] > 0.5]))
        models, runs = _assert_matches_loop(X, Y, lam=1e-8)
        assert min(m.iterations for m in models) > 5
        assert min(it for it, _, _ in runs) > 5

    def test_fewer_rows_than_features(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 15))
        Y = _two_class(rng.standard_normal((6, 4)) > 0)
        models, _ = _assert_matches_loop(X, Y)
        assert all(m.converged for m in models)

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
                w, _, conv, _ = fit_logistic_loop(z, labels[:, j])
                assert clf.converged and conv
                assert np.all(np.abs(clf.weights - w) <= 1e-7 * (1 + np.abs(w)))

    def test_peak_memory_is_bounded(self):
        # No Hessian is formed: a CG step holds two (L, n) and a few
        # (L, d+1) arrays beside the (n, d+1) design matrix and its centred
        # copy. At this wide shape a BR fit peaks at 3.11 times the
        # features' bytes, the two design matrices included.
        n, d, n_labels = 500, 500, 25
        data = generate_synthetic(n, d, n_labels, 0.5, 0.3, seed=0)
        tracemalloc.start()
        try:
            br_fit(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * data.features.nbytes


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
        _assert_matches_loop_or_fails(X, Y, start=start, lam=lam,
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
        models, runs = _assert_matches_loop(X, Y, start=start, lam=1e-6)
        assert all(m.converged for m in models)
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
