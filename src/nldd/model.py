"""Core nearest-labelset method: double-distance pair mining, binomial
regression of the per-label misclassification probability, and prediction
by minimum expected loss."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .br import _one_or_batch, br_fit, br_predict_proba_matrix
from .data import split_random, standardize_apply
from .learner import TrainingError


@dataclass
class DistancePair:
    dx: float  # Euclidean distance in standardized feature space
    dy: float  # Euclidean distance between p-hat and a labelset vertex
    loss: int  # mismatched labels against the true labelset


@dataclass
class BinomialFit:
    beta0: float
    beta1: float
    beta2: float
    converged: bool
    iterations: int
    final_gradient_norm: float


@dataclass
class NlddModel:
    br: object  # BRModel fit on the full (possibly subsampled) training data
    fit: BinomialFit
    train_features_std: np.ndarray
    train_labelsets: np.ndarray  # int64
    stats: object
    pair_count: int  # |S|
    distance_ops: int  # pairwise distance computations during mining


def _labelset_table(labels):
    """Distinct labelsets as a float64 (K, L) table, and each row's index
    into it."""
    table, inverse = np.unique(labels, axis=0, return_inverse=True)
    return np.asarray(table, dtype=np.float64), inverse.ravel()


def _survivors(keep):
    """(query row, training row) index arrays of the True entries of a
    (block, N) mask, in row-major order."""
    return np.divmod(np.flatnonzero(keep), keep.shape[1])


def _first_per_row(query, keys):
    """Index of the smallest ``keys`` tuple (most significant first) among
    the survivors of each query row; ``query`` is sorted and covers every
    row of the block."""
    order = np.lexsort(tuple(reversed(keys)) + (query,))
    q = query[order]
    return order[np.r_[True, q[1:] != q[:-1]]]


def _nearest_rows(x_std, p_hat, t1_std, labelsets, inverse):
    """Per query row, the T1 row minimizing (dx², dy², row) and the one
    minimizing (dy², dx², row), with their exact squared distances: three
    (2, n) arrays."""
    n = x_std.shape[0]
    rows = np.empty((2, n), dtype=np.intp)
    dxsq, dysq = np.empty((2, n)), np.empty((2, n))
    for block in kernels.blocks(n, t1_std.shape[0]):
        rows[:, block], dxsq[:, block], dysq[:, block] = _nearest_in_block(
            x_std[block], p_hat[block], t1_std, labelsets, inverse)
    return rows, dxsq, dysq


def _nearest_in_block(x, p_hat, t1_std, labelsets, inverse):
    """``_nearest_rows`` for one block of query rows."""
    G, margin = kernels.screen(x, t1_std)
    dy_table = kernels.cross_sq_dists(p_hat, labelsets)
    y_cand = (dy_table == dy_table.min(axis=1, keepdims=True))[:, inverse]
    # Rows the G screen leaves in the running: among all rows, then among
    # the rows of the dy-nearest labelsets (G masked in place).
    keep_x = G <= (G.min(axis=1) + margin)[:, None]
    np.copyto(G, np.inf, where=~y_cand)
    keep_y = G <= (G.min(axis=1) + margin)[:, None]
    out = []
    for k, keep in enumerate((keep_x, keep_y)):
        q, j = _survivors(keep)
        dx = kernels.paired_sq_dists(x, t1_std, q, j)
        dy = dy_table[q, inverse[j]]
        first = _first_per_row(q, (dx, dy, j) if k == 0 else (dy, dx, j))
        out.append((j[first], dx[first], dy[first]))
    return tuple(np.stack(arrays) for arrays in zip(*out))


def mine_pairs(p_hat, true_labels, t1_features_std, t1_labels, x_std):
    """Select the two informative (dx, dy) pairs for each validation instance.

    The first pair minimizes dx (ties broken by smaller dy), the second
    minimizes dy (ties broken by smaller dx); remaining ties go to the
    lowest row index. When both selections hit the same row, a single
    pair is returned. For an (n, .) batch the pairs of row 0, then of
    row 1, and so on, come in one list; a 1-D row is a batch of one.

    The ties are decided on the exact squared distances of the
    ``kernels`` module (per row, the squared differences added in feature
    or label order with one accumulator); the GEMM screen only decides
    which rows need them.
    """
    if t1_features_std.shape[0] == 0:
        raise ValueError("empty T1")
    p_hat = np.atleast_2d(np.asarray(p_hat, dtype=np.float64))
    x_std = np.atleast_2d(np.asarray(x_std, dtype=np.float64))
    true_labels = np.atleast_2d(np.asarray(true_labels))
    t1_features_std = np.asarray(t1_features_std, dtype=np.float64)
    t1_labels = np.asarray(t1_labels)
    labelsets, inverse = _labelset_table(t1_labels)
    rows, dxsq, dysq = _nearest_rows(x_std, p_hat, t1_features_std,
                                     labelsets, inverse)
    losses = np.sum(true_labels[None] != t1_labels[rows], axis=2)

    pairs = []
    for i in range(x_std.shape[0]):
        for k in ((0,) if rows[0, i] == rows[1, i] else (0, 1)):
            pairs.append(DistancePair(dx=math.sqrt(dxsq[k, i]),
                                      dy=math.sqrt(dysq[k, i]),
                                      loss=int(losses[k, i])))
    return pairs


def _binomial_loglik(X, losses, n_trials, beta):
    z = X @ beta
    return float(np.sum(losses * z - n_trials * np.logaddexp(0.0, z)))


def fit_binomial_glm(pairs, n_labels, max_iter=50, tol=1e-8):
    """Newton-Raphson MLE of the logit-link binomial regression of the loss
    count (out of ``n_labels`` trials) on (dx, dy).

    Raises TrainingError when every loss is 0 or every loss is n_labels.
    Non-convergence is reported via ``converged=False``, not an exception.
    """
    if not pairs:
        raise ValueError("no distance pairs")
    losses = np.array([p.loss for p in pairs], dtype=np.float64)
    X = np.column_stack([np.ones(len(pairs)),
                         np.array([p.dx for p in pairs]),
                         np.array([p.dy for p in pairs])])
    total = losses.sum()
    if total == 0 or total == n_labels * len(pairs):
        raise TrainingError("degenerate losses: all 0 or all L, "
                            "binomial regression is unidentifiable")

    rate = total / (n_labels * len(pairs))
    beta = np.array([math.log(rate / (1.0 - rate)), 0.0, 0.0])
    converged = False
    grad_norm = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        theta_i = 1.0 / (1.0 + np.exp(-(X @ beta)))
        g = X.T @ (losses - n_labels * theta_i)
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm < tol:
            converged = True
            break
        wt = np.clip(n_labels * theta_i * (1.0 - theta_i), 1e-12, None)
        H = X.T @ (wt[:, None] * X)
        try:
            delta = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        ll_old = _binomial_loglik(X, losses, n_labels, beta)
        step = 1.0
        beta_new = beta + delta
        for _ in range(20):
            if (np.isfinite(beta_new).all()
                    and _binomial_loglik(X, losses, n_labels, beta_new) >= ll_old):
                break
            step *= 0.5
            beta_new = beta + step * delta
        beta = beta_new
        if not np.isfinite(beta).all():
            break
    if not np.isfinite(beta).all():
        converged = False
        beta = np.where(np.isfinite(beta), beta, 0.0)
    else:
        theta_i = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad_norm = float(np.max(np.abs(X.T @ (losses - n_labels * theta_i))))
        if grad_norm < tol:
            converged = True
    return BinomialFit(beta0=float(beta[0]), beta1=float(beta[1]),
                       beta2=float(beta[2]), converged=converged,
                       iterations=it, final_gradient_norm=grad_norm)


def theta(fit, dx, dy):
    """Per-label misclassification probability at the given distances."""
    z = fit.beta0 + fit.beta1 * dx + fit.beta2 * dy
    t = 1.0 / (1.0 + math.exp(-z)) if z > -700 else 0.0
    return float(min(max(t, 1e-12), 1.0 - 1e-12))


def nldd_train(train, seed, lam=1.0, subsample_fraction=1.0,
               glm_max_iter=50, glm_tol=1e-8):
    """Full training pipeline: optional subsample, T1/T2 split, pair mining
    on T2 against T1, binomial regression, and a final fit on all rows."""
    if not 0.0 < subsample_fraction <= 1.0:
        raise ValueError("subsample_fraction must be in (0, 1]")
    sub = train
    if subsample_fraction < 1.0:
        rng = np.random.default_rng(seed)
        m = max(4, int(round(subsample_fraction * train.n)))
        keep = np.sort(rng.permutation(train.n)[:m])
        sub = train.subset(keep)

    split = split_random(sub, seed)
    t1 = sub.subset(split.t1_indices)
    t2 = sub.subset(split.t2_indices)

    br_star = br_fit(t1, lam=lam)
    t1_std = standardize_apply(br_star.stats, t1.features)
    t2_std = standardize_apply(br_star.stats, t2.features)
    p_hat = br_predict_proba_matrix(br_star, t2.features)

    pairs = mine_pairs(p_hat, t2.labels, t1_std, t1.labels, x_std=t2_std)
    distance_ops = t1.n * t2.n

    try:
        fit = fit_binomial_glm(pairs, sub.n_labels,
                               max_iter=glm_max_iter, tol=glm_tol)
    except TrainingError as exc:
        raise TrainingError(f"binomial regression failed on mined pairs: {exc}") from exc
    if not fit.converged:
        # Pure label-space nearest labelset keeps the pipeline usable.
        warnings.warn("binomial regression did not converge; falling back to "
                      "label-space-only weights (beta1=0, beta2=1)",
                      RuntimeWarning, stacklevel=2)
        rate = sum(p.loss for p in pairs) / (sub.n_labels * len(pairs))
        rate = min(max(rate, 1e-12), 1.0 - 1e-12)
        fit = BinomialFit(beta0=math.log(rate / (1.0 - rate)), beta1=0.0,
                          beta2=1.0, converged=False, iterations=fit.iterations,
                          final_gradient_norm=fit.final_gradient_norm)

    br_full = br_fit(sub, lam=lam)
    return NlddModel(br=br_full, fit=fit,
                     train_features_std=standardize_apply(br_full.stats,
                                                          sub.features),
                     train_labelsets=np.array(sub.labels),
                     stats=br_full.stats,
                     pair_count=len(pairs),
                     distance_ops=distance_ops)


def _best_rows(model, features):
    """Winning training row, dx and dy for each row of an (n, d) batch.

    The winner minimizes the score beta1*dx + beta2*dy (theta is monotone
    in it); ties among the minimizers break by smaller dy, then dx, then
    row index.
    """
    p_hat = br_predict_proba_matrix(model.br, features)
    x_std = standardize_apply(model.stats, features)
    labelsets, inverse = _labelset_table(model.train_labelsets)
    n = x_std.shape[0]
    rows = np.empty(n, dtype=np.intp)
    best_dx, best_dy = np.empty(n), np.empty(n)
    for block in kernels.blocks(n, model.train_features_std.shape[0]):
        rows[block], best_dx[block], best_dy[block] = _best_in_block(
            model, x_std[block], p_hat[block], labelsets, inverse)
    return rows, best_dx, best_dy


def _best_in_block(model, x, p_hat, labelsets, inverse):
    """dy is exact per distinct labelset. Rounded sqrt, products and sums
    are monotone, so the score at dx = sqrt(max(G - m, 0)) and at
    dx = sqrt(G + m) brackets each row's exact score; only rows whose lower
    bound reaches the smallest upper bound get their exact dx."""
    beta1, beta2 = model.fit.beta1, model.fit.beta2
    G, margin = kernels.screen(x, model.train_features_std)
    dy_table = np.sqrt(kernels.cross_sq_dists(p_hat, labelsets))
    y_term = (beta2 * dy_table)[:, inverse]
    # In place, so that a block holds three (block, N) arrays.
    bounds = (np.subtract(G, margin[:, None]), np.add(G, margin[:, None], out=G))
    np.maximum(bounds[0], 0.0, out=bounds[0])
    with np.errstate(invalid="ignore"):
        for bound in bounds:
            np.sqrt(bound, out=bound)
            bound *= beta1
            bound += y_term
    lo, hi = bounds if beta1 >= 0 else bounds[::-1]
    keep = lo <= hi.min(axis=1, keepdims=True)
    keep[np.isinf(margin)] = True  # no usable screen: the full scan
    q, j = _survivors(keep)
    dx = np.sqrt(kernels.paired_sq_dists(x, model.train_features_std, q, j))
    dy = dy_table[q, inverse[j]]
    first = _first_per_row(q, (beta1 * dx + beta2 * dy, dy, dx, j))
    return j[first], dx[first], dy[first]


def nldd_predict(model, x):
    """Labelset of the training row minimizing the estimated loss, for an
    (n, d) batch, (n, L), or one (d,) row, (L,)."""
    rows, _, _ = _best_rows(model, np.atleast_2d(x))
    return _one_or_batch(x, model.train_labelsets[rows])


def predict_with_confidence(model, x):
    """(labelset, theta-hat) of the winning training row: for an (n, d)
    batch an (n, L) array and an (n,) array, for one (d,) row an (L,) array
    and a float."""
    rows, dx, dy = _best_rows(model, np.atleast_2d(x))
    # The scalar theta() on each winner, so theta-hat does not depend on
    # how the rows were batched.
    thetas = [theta(model.fit, a, b) for a, b in zip(dx, dy)]
    labelsets = model.train_labelsets[rows]
    if np.ndim(x) == 1:
        return labelsets[0], thetas[0]
    return labelsets, np.array(thetas)
