"""Core nearest-labelset method: double-distance pair mining, binomial
regression of the per-label misclassification probability, and prediction
by minimum expected loss."""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .br import QueryRowError, _queries, _tagged, br_fit
from .data import split_random, standardize_apply
from .kernels import _argmin_rows, _score
from .learner import PROB_CLAMP, TrainingError, _sigmoid, fit_logistic


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
    pair_count: int  # |S|
    # |T1| * |T2|, the distances an exhaustive mining scan would compute;
    # the screened engine computes far fewer exactly.
    distance_ops: int


def mine_pairs(p_hat, true_labels, t1_features_std, t1_labels, x_std):
    """Select the two informative (dx, dy) pairs for each validation instance.

    The first pair minimizes dx (ties broken by smaller dy), the second
    minimizes dy (ties broken by smaller dx); remaining ties go to the
    lowest row index. When both selections hit the same row, a single
    pair is kept. Returns ``(dx, dy, loss)``, three 1-D arrays: dx is the
    Euclidean distance in standardized feature space, dy the one between
    p-hat and the chosen labelset vertex, loss the count of labels that
    vertex gets wrong. ``p_hat``, ``true_labels`` and ``x_std`` hold one
    row per validation instance; the pairs of row 0 come first, then those
    of row 1, and so on.

    The ties are decided on the exact squared distances of the
    ``kernels`` module (per row, the squared differences added in feature
    or label order with one accumulator); the GEMM screen only decides
    which rows need them.

    Raises ValueError for an empty T1, for a NaN or an infinity in
    ``t1_features_std`` (naming the first such T1 row, 1-based) or unless
    ``p_hat`` and ``true_labels`` are (n, L), ``t1_features_std`` (N, d),
    ``t1_labels`` (N, L) and ``x_std`` (n, d); and QueryRowError, a
    DataError, naming the first query row with a NaN or an infinity in
    ``x_std`` or ``p_hat`` or, when there is none, the first whose mined dx
    or dy overflows.
    """
    p_hat, x_std, t1_features_std = (np.asarray(a, dtype=np.float64)
                                     for a in (p_hat, x_std, t1_features_std))
    true_labels, t1_labels = np.asarray(true_labels), np.asarray(t1_labels)
    shapes = [a.shape for a in (p_hat, true_labels, t1_features_std,
                                t1_labels, x_std)]
    n, L, N, d = (shapes[0] + shapes[2] if len(shapes[0]) == len(shapes[2]) == 2
                  else (None,) * 4)
    if shapes != [(n, L), (n, L), (N, d), (N, L), (n, d)]:
        raise ValueError("mine_pairs needs p_hat and true_labels (n, L), "
                         "t1_features_std (N, d), t1_labels (N, L) and x_std "
                         f"(n, d); got {', '.join(map(str, shapes))}")
    if t1_features_std.shape[0] == 0:
        raise ValueError("empty T1")
    finite = np.isfinite(t1_features_std).all(axis=1)
    if not finite.all():
        raise ValueError("non-finite t1_features_std value in T1 row "
                         f"{int(np.argmin(finite)) + 1}")
    finite = np.isfinite(x_std).all(axis=1) & np.isfinite(p_hat).all(axis=1)
    if not finite.all():
        raise QueryRowError("non-finite x_std or p_hat value",
                            int(np.argmin(finite)))
    # The (beta1, beta2) of the two pairs: the smallest dx, the smallest dy.
    rows, dxsq, dysq = _argmin_rows(x_std, p_hat, t1_features_std, t1_labels,
                                    ((1.0, 0.0), (0.0, 1.0)), squared=True)
    finite = np.isfinite(dxsq).all(axis=0) & np.isfinite(dysq).all(axis=0)
    if not finite.all():
        raise QueryRowError("mined distance overflows", int(np.argmin(finite)))
    losses = np.sum(true_labels[None] != t1_labels[rows], axis=2)
    # Masking the (n, 2) transposes takes row 0's pairs, then row 1's, ...
    keep = np.column_stack([np.ones(rows.shape[1], dtype=bool),
                            rows[0] != rows[1]])
    return np.sqrt(dxsq.T[keep]), np.sqrt(dysq.T[keep]), losses.T[keep]


def fit_binomial_glm(dx, dy, losses, n_labels, max_iter=50, tol=1e-8):
    """MLE of the logit-link binomial regression of the loss count (out of
    ``n_labels`` trials) on (dx, dy), three equal-length 1-D arrays as
    ``mine_pairs`` returns them: the logistic fit of the rates losses /
    n_labels (``fit_logistic``, unpenalized, from the empirical logit, tol
    / n_labels so the gradient test is in counts), whose stop rule gives
    ``converged``. Collinear distance columns converge to one of the MLEs.
    ``final_gradient_norm`` is max |Xᵀ(losses - n_labels θ)|.

    Raises ValueError on empty or unequal-length arrays, a dx or dy that is
    not finite, a loss that is NaN or outside [0, n_labels], or a negative
    ``max_iter``; TrainingError when every loss is 0 or every loss is
    n_labels, or where the fit fails (non-finite β, say). Non-convergence
    is reported via ``converged=False``, not an exception.
    """
    dx, dy = np.asarray(dx, dtype=np.float64), np.asarray(dy, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if dx.ndim != 1 or dx.shape != dy.shape or dx.shape != losses.shape:
        raise ValueError("dx, dy and losses must be 1-D arrays of one length")
    n = losses.shape[0]
    if n == 0:
        raise ValueError("no distance pairs")
    if not (np.isfinite(dx).all() and np.isfinite(dy).all()):
        raise ValueError("dx and dy must be finite")
    if not ((losses >= 0) & (losses <= n_labels)).all():
        raise ValueError("losses must be in [0, n_labels]")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    X = np.column_stack([np.ones(n), dx, dy])
    total = losses.sum()
    if total == 0 or total == n_labels * n:
        raise TrainingError("degenerate losses: all 0 or all L, "
                            "binomial regression is unidentifiable")

    rate = total / (n_labels * n)
    start = np.array([[math.log(rate / (1.0 - rate)), 0.0, 0.0]])
    (fit,) = fit_logistic(X, (losses / n_labels)[:, None], lam=0.0,
                          max_iter=max_iter, tol=tol / n_labels, start=start)
    g = X.T @ (losses - n_labels * _sigmoid(X @ fit.weights))
    return BinomialFit(*map(float, fit.weights), fit.converged, fit.iterations,
                       final_gradient_norm=float(np.max(np.abs(g))))


def theta(fit, dx, dy):
    """Per-label misclassification probability at the distances, elementwise:
    sigmoid(beta0 + beta1*dx + beta2*dy), clamped as BR's probabilities are."""
    return np.clip(_sigmoid(fit.beta0 + _score(fit.beta1, fit.beta2, dx, dy)),
                   PROB_CLAMP, 1.0 - PROB_CLAMP)


def nldd_train(train, seed, lam=1.0, subsample_fraction=1.0):
    """Full training pipeline: optional subsample, T1/T2 split, pair mining
    on T2 against T1, binomial regression, and a final BR fit on all rows,
    started at the weights of the BR fit on T1."""
    if not 0.0 < subsample_fraction <= 1.0:
        raise ValueError("subsample_fraction must be in (0, 1]")
    sub = train
    if subsample_fraction < 1.0:
        rng = np.random.default_rng(seed)
        m = max(4, int(round(subsample_fraction * train.n)))
        sub = train.subset(np.sort(rng.permutation(train.n)[:m]))

    # The split's arrays die with the helper's frame, before the final fit.
    fit, pair_count, distance_ops, br_star = _fit_pair_model(sub, seed, lam)
    # The final fit solves nearly T1's problem, so it starts at T1's optimum.
    br_full = br_fit(sub, lam, start=br_star)
    train_std = standardize_apply(br_full.stats, sub.features)
    return NlddModel(br=br_full, fit=fit, train_features_std=train_std,
                     train_labelsets=np.array(sub.labels),
                     pair_count=pair_count, distance_ops=distance_ops)


def _fit_pair_model(sub, seed, lam):
    """Steps 1-3 of ``nldd_train``: BR on T1, T2's pairs mined against T1,
    and the binomial regression on them. Returns ``(fit, pair_count,
    distance_ops, br_star)``, ``br_star`` being the BR fit on T1. A T2 row
    refused by ``_queries``, or whose mined dx or dy is not finite, is
    named by its ``row_ids`` entry, 1-based."""
    t1_indices, t2_indices = split_random(sub, seed)
    # Mining needs the split's features standardised only, so no raw copy
    # of them outlives the BR fit on T1 or the standardisation of T2.
    br_star = br_fit(sub.subset(t1_indices), lam)
    t1_std = standardize_apply(br_star.stats, sub.features[t1_indices])
    with _tagged("T2 half of the training split", sub.row_ids[t2_indices],
                 "training row"):
        t2_std, p_hat = _queries(br_star, sub.features[t2_indices])
        dx, dy, losses = mine_pairs(p_hat, sub.labels[t2_indices], t1_std,
                                    sub.labels[t1_indices], t2_std)

    with _tagged("binomial regression failed on mined pairs"):
        fit = fit_binomial_glm(dx, dy, losses, sub.n_labels)
    if not fit.converged:
        # Pure label-space nearest labelset keeps the pipeline usable.
        warnings.warn("binomial regression did not converge; falling back to "
                      "label-space-only weights (beta1=0, beta2=1)",
                      RuntimeWarning, stacklevel=3)  # nldd_train's caller
        rate = int(losses.sum()) / (sub.n_labels * losses.size)
        fit = replace(fit, beta0=math.log(rate / (1.0 - rate)), beta1=0.0,
                      beta2=1.0)
    return fit, losses.size, len(t1_indices) * len(t2_indices), br_star


def _best_rows(model, features):
    """Winning training row, dx and dy for each row of an (n, d) batch.

    The winner minimizes the score beta1*dx + beta2*dy (theta is monotone
    in it); ties among the minimizers break by smaller dy, then dx, then
    row index.
    """
    x_std, p_hat = _queries(model.br, features)
    weights = ((model.fit.beta1, model.fit.beta2),)
    rows, dx, dy = _argmin_rows(x_std, p_hat, model.train_features_std,
                                model.train_labelsets, weights, squared=False)
    return rows[0], dx[0], dy[0]


def nldd_predict(model, x):
    """Labelsets, (n, L), of the training rows minimizing the estimated loss
    for an (n, d) batch."""
    rows, _, _ = _best_rows(model, x)
    return model.train_labelsets[rows]


def predict_with_confidence(model, x):
    """(labelsets, theta-hats) of the winning training rows of an (n, d)
    batch: an (n, L) array and an (n,) array."""
    rows, dx, dy = _best_rows(model, x)
    return model.train_labelsets[rows], theta(model.fit, dx, dy)
