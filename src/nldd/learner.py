"""L2-regularized logistic regression fit by IRLS, plus a constant fallback
for degenerate (single-class) label columns."""

from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-12


class TrainingError(RuntimeError):
    """Model fitting failed."""


@dataclass
class LinearProbModel:
    weights: np.ndarray  # length d+1, intercept first
    lam: float
    converged: bool
    iterations: int


@dataclass
class ConstantProbModel:
    p: float


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _penalized_loglik(X1, y, w, lam):
    # X1 carries the intercept column; the intercept is unpenalized.
    z = X1 @ w
    # log(1+e^z) computed stably
    ll = np.sum(y * z - np.logaddexp(0.0, z))
    return ll - 0.5 * lam * np.sum(w[1:] ** 2)


def _penalized_gradient(X1, y, w, lam):
    p = _sigmoid(X1 @ w)
    g = X1.T @ (y - p)
    g[1:] -= lam * w[1:]
    return g


def fit_logistic(features, targets, lam=1.0, max_iter=100, tol=1e-8):
    """Maximize the L2-penalized Bernoulli log-likelihood by Newton/IRLS.

    Step halving (up to 20 halvings) keeps the ascent monotone. The intercept
    is unpenalized. Raises TrainingError for single-class targets.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features rows must match targets")
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature values")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    if y.min() == y.max():
        raise TrainingError("targets contain a single class; use fit_fallback")

    n, d = X.shape
    X1 = np.hstack([np.ones((n, 1)), X])
    w = np.zeros(d + 1)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        p = _sigmoid(X1 @ w)
        g = X1.T @ (y - p)
        g[1:] -= lam * w[1:]
        wt = np.clip(p * (1.0 - p), 1e-12, None)
        H = X1.T @ (wt[:, None] * X1)
        H[np.arange(1, d + 1), np.arange(1, d + 1)] += lam
        delta = np.linalg.solve(H, g)

        ll_old = _penalized_loglik(X1, y, w, lam)
        step = 1.0
        w_new = w + delta
        for _ in range(20):
            if _penalized_loglik(X1, y, w_new, lam) >= ll_old:
                break
            step *= 0.5
            w_new = w + step * delta
        change = np.max(np.abs(w_new - w))
        w = w_new
        grad_norm = np.max(np.abs(_penalized_gradient(X1, y, w, lam)))
        if change < tol or grad_norm < tol:
            converged = True
            break
    if not np.isfinite(w).all():
        raise TrainingError("logistic fit diverged to non-finite weights")
    return LinearProbModel(weights=w, lam=lam, converged=converged, iterations=it)


def fit_fallback(targets):
    """Laplace-smoothed constant model: p = (k+1)/(n+2)."""
    y = np.asarray(targets)
    n = y.shape[0]
    if n == 0:
        return ConstantProbModel(p=0.5)
    k = int(np.sum(y))
    return ConstantProbModel(p=(k + 1) / (n + 2))


def predict_proba(model, features):
    """Probability of the positive class for a single feature row."""
    return float(predict_proba_matrix(model, np.ravel(features))[0])


def predict_proba_matrix(model, features):
    """Probability of the positive class for each row of an (n, d) matrix;
    a (d,) row is a batch of one.

    The linear score adds ``x[j] * w[j+1]`` in feature order, j = 0 to d-1,
    into one accumulator per row, and then the intercept, like the distance
    kernel. A BLAS product would add in an order that depends on the batch
    size, so a row's probability would depend on the rows batched with it.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if isinstance(model, ConstantProbModel):
        return np.full(X.shape[0], model.p)
    w = model.weights
    if X.shape[1] != w.shape[0] - 1:
        raise ValueError(f"feature dimension {X.shape[1]} does not match "
                         f"model dimension {w.shape[0] - 1}")
    # One row of products per feature. Reducing the C-contiguous (d, n)
    # array over axis 0 adds the rows in feature order; a single row needs
    # accumulate, as in the distance kernel, or NumPy would sum pairwise.
    prod = np.multiply(X.T, w[1:, None], order="C")
    if prod.shape[1] == 1:
        acc = np.add.accumulate(prod, axis=0)[-1]
    else:
        acc = np.add.reduce(prod, axis=0)
    p = _sigmoid(w[0] + acc)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
