"""Core nearest-labelset method: double-distance pair mining, binomial
regression of the per-label misclassification probability, and prediction
by minimum expected loss."""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .br import QueryRowError, _queries, br_fit
from .data import DataError, _labelset_groups, split_random, standardize_apply
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


def _first_per_row(query, keys):
    """Index of the smallest ``keys`` tuple (most significant first) among
    the survivors of each query row; ``query`` is sorted and covers every
    row of the block."""
    order = np.lexsort(tuple(reversed(keys)) + (query,))
    q = query[order]
    return order[np.r_[True, q[1:] != q[:-1]]]


def _score(beta1, beta2, dx, dy):
    """beta1*dx + beta2*dy without the term of a zero weight, so that an
    overflowed dx = inf under beta1 = 0 adds nothing instead of NaN."""
    if beta1 == 0:
        return beta2 * dy
    if beta2 == 0:
        return beta1 * dx
    return beta1 * dx + beta2 * dy


def _survivors(beta1, beta2, dx_ends, dy_ends):
    """Which labelsets of a block can hold the winner, from the (near, far)
    ends of dx and of dy, (block, K) arrays: the ends that lower the score
    bound every row's in the labelset from below, the others its best from
    above; a labelset survives iff its lower bound is <= the least upper one."""
    dxs = dx_ends if beta1 >= 0 else dx_ends[::-1]
    dys = dy_ends if beta2 >= 0 else dy_ends[::-1]
    lo, hi = (_score(beta1, beta2, dx, dy) for dx, dy in zip(dxs, dys))
    return lo <= hi.min(axis=1, keepdims=True)


def _argmin_rows(x, p_hat, features, labels, weights, squared):
    """For each (beta1, beta2) of the tuple ``weights`` and each query row,
    the training row minimizing (beta1*dx + beta2*dy, dy, dx, row index),
    with its dx and dy: three (len(weights), n) arrays. dx goes from ``x``
    to ``features``, dy from ``p_hat`` to ``labels``; with ``squared`` both
    are the exact squared distances of ``kernels``, else their square roots.

    ``kernels.screen`` puts dx² within m of G per row, and dy², one value
    per labelset, within m_y of Gy, p-hat against the table (d = L). With g
    the labelset's smallest G (largest when beta1 < 0), ``_survivors`` takes
    the ends max(g - m, 0) and g + m of dx², and max(Gy - m_y, 0) and
    Gy + m_y of dy²; rounded sqrt and the score are monotone. Within a
    labelset the winner on (score, dy, dx) is, for beta1 >= 0, a row of
    smallest exact dx, which the screen places within m/2 of g (the
    ``kernels`` argument with the labelset's rows for all rows), so its
    bound is g + m; for beta1 < 0 a rounding tie in the score can let a row
    of smaller dx win, so its bound is +inf. Each weighting's bound is -inf
    on the labelsets it drops. A full-scan row has G = 0 and m = inf: every
    labelset survives when beta1 != 0, and when beta1 = 0 dy alone brackets
    the score (p-hat in [0, 1] keeps m_y finite).

    Per block one bound, the elementwise max of the weightings', keeps the
    rows; only those get their exact dx and dy, once, and each weighting
    picks its winner among all of them. A row that only another
    weighting's bound keeps loses strictly. In a labelset that survives,
    beta1 >= 0 (a bound of +inf keeps every row) and the row's G exceeds
    g + m, so its exact dx² is more than m/2 above the labelset's least
    (|G - E| <= m/4), far beyond the sqrt's rounding; its dy is the
    labelset's, so it loses on the score or, at a rounding tie, on dx. In
    a dropped labelset its score is at least the labelset's lower bound,
    above another labelset's upper bound.
    """
    table, order, starts, sizes = _labelset_groups(labels)
    # The rows in labelset order, and the labelsets, as the screen reads
    # them; the exact kernel reads the same copies.
    train = kernels.augment(features, order)
    vertices = kernels.augment(table)
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    dist = (lambda sq: sq) if squared else (lambda sq: np.sqrt(sq, out=sq))  # in place
    n = x.shape[0]
    rows = np.empty((len(weights), n), dtype=np.intp)
    dx_out, dy_out = np.empty((2, len(weights), n))

    def fill(block):
        # A function, so that each block's (block, N) arrays die before the next's.
        G, margin = kernels.screen(x[block], train)
        # dy's interval ends; the far end is Gy + m_y, formed in Gy.
        Gy, margin_y = kernels.screen(p_hat[block], vertices)
        m_y = margin_y[:, None]
        dy_ends = dist(np.maximum(Gy - m_y, 0.0)), dist(np.add(Gy, m_y, out=Gy))
        # Each labelset's smallest G (largest for beta1 < 0), once per block.
        extreme = {f: f.reduceat(G, starts, axis=1) for f in
                   {np.minimum if beta1 >= 0 else np.maximum for beta1, _ in weights}}
        m = margin[:, None]
        bound = -np.inf
        for beta1, beta2 in weights:
            g = extreme[np.minimum if beta1 >= 0 else np.maximum]
            survive = _survivors(beta1, beta2, (dist(np.maximum(g - m, 0.0)),
                                                dist(g + m)), dy_ends)
            bound = np.maximum(bound, np.where(
                survive, g + m if beta1 >= 0 else np.inf, -np.inf))
        keep = G <= np.repeat(bound, sizes, axis=1)
        q, pos = np.divmod(np.flatnonzero(keep), keep.shape[1])
        dx = dist(kernels.paired_sq_dists(x[block], train.rows, q, pos))
        dy = dist(kernels.paired_sq_dists(p_hat[block], vertices.rows, q,
                                          group_of[pos]))
        j = order[pos]
        for w, (beta1, beta2) in enumerate(weights):
            first = _first_per_row(q, (_score(beta1, beta2, dx, dy), dy, dx, j))
            rows[w, block], dx_out[w, block], dy_out[w, block] = (
                j[first], dx[first], dy[first])

    for block in kernels.blocks(n, features.shape[0]):
        fill(block)
    return rows, dx_out, dy_out


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
    try:
        t2_std, p_hat = _queries(br_star, sub.features[t2_indices])
        dx, dy, losses = mine_pairs(p_hat, sub.labels[t2_indices], t1_std,
                                    sub.labels[t1_indices], t2_std)
    except QueryRowError as exc:  # T2's rows, queried against T1 and mined
        row = sub.row_ids[t2_indices[exc.row]]
        raise DataError(f"T2 half of the training split: {exc.problem} in "
                        f"training row {row + 1}") from None

    try:
        fit = fit_binomial_glm(dx, dy, losses, sub.n_labels)
    except TrainingError as exc:
        raise TrainingError(f"binomial regression failed on mined pairs: {exc}") from exc
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
