import contextlib
import copy
import functools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nldd import br as br_module, kernels, learner, model as model_module
from nldd.br import QueryRowError, br_fit
from nldd.data import Dataset, split_random, standardize_apply
from nldd.evaluate import generate_synthetic
from nldd.learner import LinearProbModel, TrainingError
from nldd.model import (BinomialFit, fit_binomial_glm,
                        mine_pairs, nldd_predict, nldd_train,
                        predict_with_confidence, theta)
from test_learner import _penalized, fit_logistic_loop

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

    @staticmethod
    def _args():
        # n = 4 queries, N = 5 T1 rows, d = 3 features and L = 2 labels.
        rng = np.random.default_rng(0)
        return dict(p_hat=rng.uniform(0, 1, (4, 2)),
                    true_labels=rng.integers(0, 2, (4, 2)),
                    t1_features_std=rng.standard_normal((5, 3)),
                    t1_labels=rng.integers(0, 2, (5, 2)),
                    x_std=rng.standard_normal((4, 3)))

    @pytest.mark.parametrize("name", ["x_std", "p_hat"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused_by_its_row(self, name, bad):
        # A NaN or an infinity did not overflow: the reason says what it is.
        args = self._args()
        args[name][2, 1] = bad
        with pytest.raises(QueryRowError, match="^non-finite x_std or p_hat "
                           "value in query row 3$") as exc:
            mine_pairs(**args)
        assert exc.value.row == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_t1_row_is_refused_by_its_row(self, bad):
        # Such a T1 row could never be mined: its dx is NaN or inf whatever
        # the query. The call names the first one instead of skipping it.
        args = self._args()
        args["t1_features_std"][3, 2] = bad
        args["t1_features_std"][4, 0] = bad
        with pytest.raises(ValueError, match="^non-finite t1_features_std "
                           "value in T1 row 4$") as exc:
            mine_pairs(**args)
        assert type(exc.value) is ValueError  # not a query row's DataError

    def test_overflowing_finite_row_is_refused_as_overflowing(self):
        # 1e200 is finite, but every squared dx of its row overflows to inf.
        args = self._args()
        args["x_std"][1, 0] = 1e200
        with pytest.raises(QueryRowError, match="^mined distance overflows "
                           "in query row 2$") as exc:
            mine_pairs(**args)
        assert exc.value.row == 1

    @pytest.mark.parametrize("name, shape", [
        ("x_std", (4,)), ("x_std", (4, 2)), ("x_std", (3, 3)),
        ("t1_features_std", (6, 3)), ("t1_features_std", (5, 2)),
        ("t1_features_std", (5, 3, 1)),
        ("p_hat", (1, 2)), ("p_hat", (7, 2)), ("p_hat", (2, 2)),
        ("p_hat", (4, 3)), ("true_labels", (1, 2)), ("true_labels", (4,)),
        ("t1_labels", (6, 2)), ("t1_labels", (5, 1))])
    def test_mismatched_shapes_raise(self, name, shape):
        # Every array has the shape it should but one.
        args = self._args()
        assert len(mine_pairs(**args)[0]) >= 4
        args[name] = np.resize(args[name], shape)
        with pytest.raises(ValueError, match="mine_pairs needs"):
            mine_pairs(**args)


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
        with pytest.raises(ValueError, match="max_iter"):
            fit_binomial_glm(np.ones(5), np.full(5, 0.5), np.ones(5), 3,
                             max_iter=-1)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="dx and dy must be finite"):
                fit_binomial_glm(np.r_[np.ones(4), bad], np.full(5, 0.5),
                                 np.ones(5), 3)
            with pytest.raises(ValueError, match="dx and dy must be finite"):
                fit_binomial_glm(np.ones(5), np.r_[bad, np.full(4, 0.5)],
                                 np.ones(5), 3)
        for bad in (np.nan, -1, 4, 5):
            with pytest.raises(ValueError, match=r"losses must be in \[0, n_labels\]"):
                fit_binomial_glm(np.ones(5), np.full(5, 0.5),
                                 np.r_[1, 0, bad, 2, 3], 3)

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

    @pytest.mark.parametrize("case, calls", [
        ("full steps", 6), ("steep dy", 7), ("halvings", 31)])
    def test_accepted_log_likelihood_is_not_recomputed(self, case, calls):
        # One evaluation at the start, one per Newton step and one per
        # halving round: the accepted step's value is the next iteration's
        # baseline. Recomputing it would add one call per Newton step.
        rng = np.random.default_rng({"full steps": 4, "steep dy": 22,
                                     "halvings": 0}[case])
        if case == "full steps":
            dx, dy = rng.uniform(0, 20, 5000), rng.uniform(0, 2, 5000)
            losses = rng.binomial(6, 1 / (1 + np.exp(3.0 - 0.1 * dx - 1.5 * dy)))
            n_labels, iterations = 6, 5
        elif case == "steep dy":  # dy spans 0.01, so beta2 runs to ~100
            n, n_labels = int(rng.integers(5, 40)), int(rng.integers(1, 4))
            dx = rng.uniform(0, 1, n) * 10.0 ** rng.integers(-2, 4)
            dy = rng.uniform(0, 1, n) * 10.0 ** rng.integers(-2, 3)
            losses, iterations = rng.integers(0, n_labels + 1, n), 6
        else:  # dy all but separates losses of 0 and 2, the MLE far out
            dx, dy = rng.uniform(0, 1, 200), rng.uniform(0, 0.1, 200)
            z = 100.0 + 130.0 * (dy - dy.mean()) / dy.std()
            losses = rng.binomial(2, 1 / (1 + np.exp(-np.clip(z, -50, 50))))
            n_labels, iterations = 2, 27
        with mock.patch.object(learner, "_logliks",
                               wraps=learner._logliks) as loglik:
            fit = fit_binomial_glm(dx, dy, losses, n_labels)
        assert fit.converged and fit.iterations == iterations
        assert loglik.call_count == calls

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
        # The GLM is fit_logistic's fit of the rates loss / n_labels with
        # lambda = 0 and tol / n_labels, so the exact-Newton loop on that
        # problem, from the same start, is its oracle.
        n = data.draw(st.integers(1, 60))
        dx = data.draw(st.lists(st.one_of(st.floats(0.0, 20.0),
                                          st.sampled_from([0.0, 1.0, 2.5])),
                                min_size=n, max_size=n))
        dy = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
        loss = np.array(data.draw(st.lists(st.integers(0, n_labels),
                                           min_size=n, max_size=n)))
        assume(0 < loss.sum() < n_labels * n)  # else degenerate losses
        fit = fit_binomial_glm(np.array(dx), np.array(dy), loss, n_labels,
                               tol=tol)
        X = np.column_stack([np.ones(n), dx, dy])
        beta = np.array([fit.beta0, fit.beta1, fit.beta2])
        with np.errstate(over="ignore"):  # exp(-z) = inf gives the limit 0
            th = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = np.max(np.abs(X.T @ (loss - n_labels * th)))
        assert grad == fit.final_gradient_norm
        assert fit.converged or fit.iterations == 50

        rates, t = loss / n_labels, tol / n_labels
        rate = loss.sum() / (n_labels * n)
        start = [math.log(rate / (1 - rate)), 0.0, 0.0]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                w, _, conv, fell = fit_logistic_loop(
                    X[:, 1:], rates, lam=0.0, max_iter=50, tol=t, start=start)
            except np.linalg.LinAlgError:
                return  # an exactly singular Hessian: no verdict
        if not (conv and np.isfinite(w).all()):
            return
        # A step the loop took untested lands anywhere (_assert_matches_loop).
        assert fit.converged or fell
        if not fit.converged:
            return
        # The rates' log-likelihoods agree up to the stop rule's slack, as
        # in _assert_matches_loop, with the least curvature for lambda.
        ll_fit, _ = _penalized(X, rates, beta, 0.0)
        ll_loop, _ = _penalized(X, rates, w, 0.0)
        least, greatest = _glm_curvatures(X, w)
        with np.errstate(divide="ignore"):  # a curvature below the floats
            flat = 1 / least
        slack = 10 * t * (1 + abs(ll_loop)) + 3 * t**2 * flat
        assert ll_loop - ll_fit <= slack
        assert ll_fit - ll_loop <= slack + 3 * t**2 * max(greatest, flat)

    @pytest.mark.parametrize("seed", range(6))
    def test_last_bit_of_dx_does_not_move_the_iterations(self, seed):
        # At a fold's shape the last Newton steps gain less than the
        # log-likelihood's own rounding. Judged by that rounding, such a
        # step was halved at random: a one-ulp change of dx took the
        # exact-Newton loop from 7 to 22 iterations (seed 2), and the CG
        # fit to a stop at a halved step, 1e-7 from the optimum.
        data = generate_synthetic(900, 20, 6, 0.8, 0.3, seed)
        with mock.patch.object(model_module, "fit_binomial_glm",
                               wraps=fit_binomial_glm) as glm:
            nldd_train(data, seed)
        dx, dy, losses, n_labels = glm.call_args.args
        flip = np.random.default_rng(seed).integers(0, 2, dx.size) == 1
        fits = [fit_binomial_glm(v, dy, losses, n_labels) for v in (
            dx, np.nextafter(dx, np.inf), np.nextafter(dx, -np.inf),
            np.where(flip, np.nextafter(dx, np.inf), dx))]
        assert len({fit.iterations for fit in fits}) == 1
        assert all(fit.converged and fit.final_gradient_norm < 1e-8
                   for fit in fits)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_collinear_distances_converge(self, scale):
        # dy = scale * dx leaves the Hessian singular, so an exact Newton
        # solve has no step; the MLE's log-likelihood is still attained.
        rng = np.random.default_rng(3)
        dx = rng.uniform(0, 5, 400)
        losses = rng.binomial(4, 1 / (1 + np.exp(2.0 - 0.5 * dx)))
        fit = fit_binomial_glm(dx, scale * dx, losses, 4)
        assert fit.converged and fit.final_gradient_norm < 1e-8


def _glm_curvatures(X, beta):
    """Least and greatest curvature of the rates' log-likelihood at ``beta``
    (with the oracle's clipped IRLS weights w) off the design's exact null
    space: the extreme eigenvalues of Xᵀ diag(w) X on the directions
    orthogonal to those that X maps to zero. Along such a direction, of
    collinear or constant distance columns, the likelihood is flat and
    its gradient has no component. X's columns are scaled to unit norm
    before ``np.linalg.matrix_rank``'s tolerance finds them, so that a
    column of tiny distances, whose curvature is tiny but real, is not
    taken for one. The eigenvalues are squared singular values of
    diag(√w) X Q, Q the orthonormal complement, so that a small one is
    not lost in the rounding of the largest."""
    norms = np.linalg.norm(X, axis=0)
    _, s, vt = np.linalg.svd(X / np.where(norms > 0, norms, 1.0))
    rank = np.sum(s > s[0] * max(X.shape) * np.finfo(np.float64).eps)
    null = vt[rank:] / np.where(norms > 0, norms, 1.0)  # in beta's coordinates
    Q = np.linalg.svd(null)[2][len(null):].T if len(null) else np.eye(X.shape[1])
    with np.errstate(over="ignore"):
        th = 1.0 / (1.0 + np.exp(-(X @ beta)))
    root = np.sqrt(np.clip(th * (1 - th), 1e-12, None))
    s = np.linalg.svd(root[:, None] * (X @ Q), compute_uv=False)
    with np.errstate(under="ignore"):
        return s[-1] ** 2, s[0] ** 2


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

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_refused_t2_row_named_by_its_training_row(self, fraction):
        # One cell of 1.7e308 at a time: a row left out of the subsample
        # trains, a T1 row trains (T1's sd of column 0 is then about 2.5e307,
        # from the column scaled by its max-abs), and a T2 row is refused by
        # its row in the data given to nldd_train, through the split and the
        # subsample. Column 0 is scaled to an sd well below 1, so that the
        # cell's standardised value overflows.
        from nldd.data import DataError
        ds = generate_synthetic(90, 4, 3, 0.8, 0.3, seed=1)
        t1 = split_random(ds, 0)[0]
        named = trained = 0
        for row in range(16):
            features = ds.features.copy()
            features[:, 0] *= 0.25
            features[row, 0] = 1.7e308
            try:
                model = nldd_train(Dataset(features, ds.labels), seed=0,
                                   subsample_fraction=fraction)
            except DataError as exc:
                assert str(exc) == (
                    "T2 half of the training split: standardised feature "
                    f"value overflows in training row {row + 1}")
                named += 1
            else:
                if fraction == 1.0:
                    assert row in t1
                    assert model.br.stats.sds[0] > 1e306
                    trained += 1
        assert named >= 4
        assert trained >= 4 or fraction < 1.0

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_mined_distance_named_by_its_training_row(self,
                                                                  fraction):
        # One cell of 1e200 at a time. Its standardised value is finite, so
        # the query boundary passes a T2 row, but its squared distances to
        # T1 overflow: the row is refused by its row in the data given to
        # nldd_train before the GLM sees an inf dx. A T1 row trains (T1's sd
        # of column 0 is then about 1.5e199), and so does a row left out of
        # the subsample.
        from nldd.data import DataError
        ds = generate_synthetic(90, 4, 3, 0.8, 0.3, seed=1)
        t1 = split_random(ds, 0)[0]
        named = trained = 0
        for row in range(16):
            features = ds.features.copy()
            features[row, 0] = 1e200
            try:
                model = nldd_train(Dataset(features, ds.labels), seed=0,
                                   subsample_fraction=fraction)
            except DataError as exc:
                assert str(exc) == (
                    "T2 half of the training split: mined distance "
                    f"overflows in training row {row + 1}")
                named += 1
            else:
                if fraction == 1.0:
                    assert row in t1
                    assert model.br.stats.sds[0] > 1e198
                    trained += 1
        assert named >= 4
        assert trained >= 4 or fraction < 1.0

    @pytest.mark.parametrize("overflow", [False, True])
    def test_one_engine_run(self, overflow):
        # Training runs the block engine once, over T2, also when a mined
        # distance overflows and its training row has to be named.
        from nldd.data import DataError, split_random
        ds = generate_synthetic(90, 4, 3, 0.8, 0.3, seed=1)
        features = ds.features.copy()
        row = split_random(ds, 0)[1][0]
        if overflow:
            features[row, 0] = 1e200
        expect = (pytest.raises(DataError, match="mined distance overflows "
                                f"in training row {row + 1}$")
                  if overflow else contextlib.nullcontext())
        with mock.patch.object(model_module, "_argmin_rows",
                               wraps=model_module._argmin_rows) as engine, \
                mock.patch.object(model_module, "mine_pairs",
                                  wraps=model_module.mine_pairs) as mining:
            with expect:
                nldd_train(Dataset(features, ds.labels), seed=0)
        # Through mine_pairs, the function the benchmark times as mining.
        assert (engine.call_count, mining.call_count) == (1, 1)

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

    def test_stored_features_are_the_final_fits_standardisation(self):
        train, _ = _train_test(5)
        model = nldd_train(train, seed=0)
        want = standardize_apply(model.br.stats, train.features)
        assert model.train_features_std.tobytes() == want.tobytes()

    def test_glm_fallback_warning_names_the_caller(self):
        # One Newton step leaves the GLM unconverged, so training falls back
        # to label-space weights and warns at the line that called it.
        train, _ = _train_test(6)

        def one_step(*args, **kwargs):
            return fit_binomial_glm(*args, max_iter=1, **kwargs)

        with mock.patch.object(model_module, "fit_binomial_glm", one_step), \
                pytest.warns(RuntimeWarning, match="did not converge") as record:
            model = nldd_train(train, seed=0)
        assert [w.filename for w in record] == [__file__]
        assert (model.fit.beta1, model.fit.beta2) == (0.0, 1.0)
        assert not model.fit.converged

    def test_peak_memory_is_bounded(self):
        # T1, T2, their standardised copies, p-hat and the mined pairs die
        # before the final BR fit, and each BR fit standardises its rows
        # straight into its one design matrix, of which the logistic fit
        # makes one centred copy. At this size that peaks at 3.9x the
        # features' bytes, and the final BR fit sets the peak (pair mining
        # peaks at 3.1x). Under the exact-Newton fit, which peaked at 3.7x,
        # copying the standardised rows into a second design matrix peaked
        # at 4.9x, and keeping the split's arrays alive through the final
        # fit at 7.3x. Smaller engine blocks keep its fixed-size (block, N)
        # arrays from masking the difference.
        data = generate_synthetic(2000, 50, 10, 0.8, 0.3, seed=3)
        with mock.patch.object(kernels, "BLOCK_BYTES", 256 * 1024):
            tracemalloc.start()
            try:
                nldd_train(data, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4.2 * data.features.nbytes


class TestFinalBrFit:
    """nldd_train's final BR fit starts at the weights of the BR fit on T1:
    the optimum of a fit from zeros, within the stop rule's tolerance, in
    fewer iterations."""

    @pytest.mark.parametrize("seed, fraction", [(0, 1.0), (1, 1.0), (2, 0.5)])
    def test_matches_a_cold_fit(self, seed, fraction):
        data = generate_synthetic(600, 10, 5, 0.8, 0.3, seed=seed)
        with mock.patch.object(model_module, "br_fit",
                               wraps=model_module.br_fit) as fits:
            model = nldd_train(data, seed=seed, subsample_fraction=fraction)
        sub = fits.call_args_list[-1].args[0]  # the rows nldd trained on
        assert sub.n == (data.n if fraction == 1.0 else round(fraction * data.n))
        cold = br_fit(sub)
        assert model.br.stats.means.tobytes() == cold.stats.means.tobytes()
        assert model.br.stats.sds.tobytes() == cold.stats.sds.tobytes()
        for warm, ref in zip(model.br.classifiers, cold.classifiers):
            assert warm.converged and ref.converged
            assert warm.iterations <= ref.iterations
            assert np.max(np.abs(warm.weights - ref.weights)) < 1e-6
        assert (sum(c.iterations for c in model.br.classifiers)
                < sum(c.iterations for c in cold.classifiers))

    @pytest.mark.parametrize("seed", range(8))
    def test_every_label_ends_within_tol_of_its_optimum(self, seed):
        # The warm final fit takes tiny steps. Judged by the rounding of
        # the log-likelihood, such a step was halved until change < tol
        # stopped the label, with a gradient near 1e-7.
        data = generate_synthetic(400, 10, 6, 0.8, 0.3, seed=seed)
        fitted = []

        def fit(train, *args, **kwargs):
            fitted.append((train, br_fit(train, *args, **kwargs)))
            return fitted[-1][1]

        with mock.patch.object(model_module, "br_fit", fit):
            nldd_train(data, seed=seed)
        assert len(fitted) == 2  # on T1, and the final fit
        for train, model in fitted:
            X1 = np.column_stack([np.ones(train.n), standardize_apply(
                model.stats, train.features)])
            W = np.array([clf.weights for clf in model.classifiers])
            P = 1.0 / (1.0 + np.exp(-(W @ X1.T)))
            G = (train.labels.T - P) @ X1
            G[:, 1:] -= W[:, 1:]
            assert np.max(np.abs(G)) < 2e-8

    def test_final_fit_starts_at_the_t1_weights(self):
        data = generate_synthetic(300, 6, 4, 0.8, 0.3, seed=4)
        with mock.patch.object(br_module, "fit_logistic",
                               wraps=br_module.fit_logistic) as fits:
            nldd_train(data, seed=4)
        first, final = fits.call_args_list
        assert first.kwargs["start"] is None
        t1 = br_fit(data.subset(split_random(data, 4)[0]))
        want = np.array([clf.weights for clf in t1.classifiers])
        assert final.kwargs["start"].tobytes() == want.tobytes()

    def test_label_constant_in_t1_starts_from_zeros(self):
        # Label 2 is 1 in three T2 rows only: T1 fits it as a constant, the
        # final fit as a varying label, from zero weights.
        data = generate_synthetic(120, 5, 3, 0.8, 0.3, seed=5)
        t2 = split_random(data, 0)[1]
        labels = data.labels.copy()
        labels[:, 2] = 0
        labels[t2[:3], 2] = 1
        data = Dataset(data.features, labels)
        with mock.patch.object(br_module, "fit_logistic",
                               wraps=br_module.fit_logistic) as fits:
            model = nldd_train(data, seed=0)
        first, final = fits.call_args_list
        assert first.args[1].shape[1] == 2  # label 2 is constant on T1
        start = final.kwargs["start"]
        assert start.shape == (3, 6)
        assert np.all(start[2] == 0.0) and np.all(start[:2] != 0.0)
        clf = model.br.classifiers[2]
        assert isinstance(clf, LinearProbModel) and clf.converged
        ref = br_fit(data).classifiers[2]
        assert np.max(np.abs(clf.weights - ref.weights)) < 1e-6


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


# Query cells: ordinary values, and magnitudes whose standardised values or
# score products can overflow, among them NaN and the infinities.
_QUERY_CELLS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([sign * v for v in (1e6, 1e200, 1.5e308, 1.7e308)
                     for sign in (1.0, -1.0)] + [np.nan, np.inf, -np.inf]))


@functools.cache
def _wide_scale_model():
    """Training rows whose columns have sds from about 0.5 to 1.7, plus a
    constant column, and an nldd model trained on them. A cell of 1.5e308
    overflows column 0's standardised value but not the others'."""
    ds = generate_synthetic(120, 5, 3, 0.8, 0.3, seed=21)
    features = np.column_stack([ds.features * [0.5, 1.0, 1.0, 1.0, 2.0],
                                np.full(ds.n, 7.0)])
    train = Dataset(features, ds.labels)
    return train, nldd_train(train, seed=3)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(_QUERY_CELLS, min_size=6, max_size=6),
                     min_size=1, max_size=4))
# Scores of opposite signs that overflow; a NaN, and a cell of 1.7e308, in
# the constant column.
@example(rows=[[0.0, 1.5e308, -1.5e308, 0.0, 0.0, 0.0]])
@example(rows=[[0.0] * 5 + [np.nan]])
@example(rows=[[0.0] * 5 + [1.7e308]])
def test_extreme_query_rows_are_refused_or_predicted(rows):
    """Every predict either refuses a batch with a DataError that names a
    row holding a non-finite or near-maximal cell, the first row refused on
    its own, or returns labelsets (training labelsets for nldd and smbr)
    and theta-hats within the clamp; never a RuntimeWarning."""
    from nldd.br import br_predict, smbr_predict
    from nldd.data import DataError
    train, model = _wide_scale_model()
    observed = {tuple(r) for r in train.labels.tolist()}
    predictors = [lambda x: nldd_predict(model, x),
                  lambda x: predict_with_confidence(model, x),
                  lambda x: br_predict(model.br, x),
                  lambda x: smbr_predict(model.br, train, x)]

    def outcome(predict, x):
        try:
            return predict(x)
        except DataError as exc:
            return str(exc)

    X = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = [outcome(predict, X) for predict in predictors]
        refusals = {o for o in outcomes if isinstance(o, str)}
        if refusals:
            (message,) = refusals
            assert all(isinstance(o, str) for o in outcomes)
            i = int(message.rsplit("query row ", 1)[1]) - 1
            assert (~np.isfinite(X[i]) | (np.abs(X[i]) >= 1.5e308)).any()
            for predict in predictors:
                assert outcome(predict, X[i:i + 1]) == message.replace(
                    f"row {i + 1}", "row 1")
                for j in range(i):
                    assert not isinstance(outcome(predict, X[j:j + 1]), str)
            return
    assert np.isfinite(X).all()
    nldd_sets, (conf_sets, thetas), hard, smbr_sets = outcomes
    assert np.array_equal(nldd_sets, conf_sets)
    assert {tuple(r) for r in nldd_sets.tolist()} <= observed
    assert {tuple(r) for r in smbr_sets.tolist()} <= observed
    assert hard.shape == X.shape[:1] + (train.n_labels,)
    assert np.isin(hard, (0, 1)).all()
    assert ((thetas >= 1e-12) & (thetas <= 1 - 1e-12)).all()


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
