"""L2-regularized logistic regression fit by IRLS, plus a constant fallback
for degenerate (single-class) label columns."""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import add_rows

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
    # exp(-z) overflows to inf for z < -709, which gives the right limit 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _scores(X1, W):
    # One gemv per row of W: the call X1 @ w makes for a single label.
    return (X1[None] @ W[:, :, None])[:, :, 0]


def _logliks(X1, Y, W, lam):
    """Scores and penalized log-likelihoods of the (a, d+1) weight rows
    ``W`` against the (a, n) target rows ``Y``."""
    # X1 carries the intercept column; the intercept is unpenalized.
    Z = _scores(X1, W)
    # log(1+e^z) computed stably
    ll = np.sum(Y * Z - np.logaddexp(0.0, Z), axis=1)
    return Z, ll - 0.5 * lam * np.sum(W[:, 1:] ** 2, axis=1)


def _gradients(X1, Y, Z, W, lam):
    """Probabilities and penalized gradients at the scores ``Z = X1 @ W``."""
    P = _sigmoid(Z)
    G = (X1.T[None] @ (Y - P)[:, :, None])[:, :, 0]
    G[:, 1:] -= lam * W[:, 1:]
    return P, G


def fit_logistic(X1, targets, lam=1.0, max_iter=100, tol=1e-8, start=None):
    """Maximize the L2-penalized Bernoulli log-likelihood by Newton/IRLS.

    ``X1`` is the (n, d+1) design matrix, column 0 the intercept's ones; it
    is not copied. ``targets`` is an (n, L) 0/1 matrix, copied unless its
    transpose is C-contiguous float64. The result is a list of L
    LinearProbModels, one per column, fit in one Newton loop. Each label
    runs the single-label iteration on its own, with its own step halving
    and stop rule, so its weights, iterations and convergence are the same
    bits as a fit of that column alone.

    ``start``, an (L, d+1) array of finite weights, one row per column,
    is where each column's Newton loop begins (zeros when it is None).
    The loop and its stop rule are unchanged, so a start near the optimum
    saves iterations, and ``iterations`` counts from the start.

    Step halving (up to 20 halvings) keeps the ascent monotone. The
    intercept is unpenalized. Raises ValueError for bad shapes, a column 0
    that is not all ones, a ``lam`` that is not finite and > 0 or a
    ``start`` that is not a finite (L, d+1) array, and
    TrainingError for non-finite features, single-class targets and a
    Hessian that is singular to working precision.
    """
    X1 = np.asarray(X1, dtype=np.float64)
    targets = np.asarray(targets)
    if X1.ndim != 2 or targets.ndim != 2 or X1.shape[0] != targets.shape[0]:
        raise ValueError("targets must be an (n, L) matrix with one row "
                         "per design-matrix row")
    if X1.shape[1] == 0 or not (X1[:, 0] == 1.0).all():
        raise ValueError("column 0 of the design matrix must be the "
                         "intercept's ones")
    if not np.isfinite(X1).all():
        raise TrainingError("non-finite feature values")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    # One C-contiguous row of float targets per label, as the loop reads them.
    Y = np.ascontiguousarray(targets.T, dtype=np.float64)
    if (Y.min(axis=1) == Y.max(axis=1)).any():
        raise TrainingError("targets contain a single class; use fit_fallback")

    n_labels, d = Y.shape[0], X1.shape[1] - 1
    weights = np.zeros((n_labels, d + 1))
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != weights.shape:
            raise ValueError(f"start must be an ({n_labels}, {d + 1}) array "
                             f"of weights, got shape {start.shape}")
        if not np.isfinite(start).all():
            raise ValueError("start weights must be finite")
        weights[:] = start
    iterations = np.zeros(n_labels, dtype=np.int64)
    converged = np.zeros(n_labels, dtype=bool)
    diag = np.arange(1, d + 1)

    # State of the labels still iterating: their ids and targets, and their
    # weights with the log-likelihoods, probabilities and gradients there.
    active, Ya, W = np.arange(n_labels), Y, weights.copy()
    Z, LL = _logliks(X1, Ya, W, lam)
    P, G = _gradients(X1, Ya, Z, W, lam)
    for it in range(1, max_iter + 1):
        if not active.size:
            break
        wt = np.clip(P * (1.0 - P), 1e-12, None)
        # One Hessian per label, written in place into the stack: a stacked
        # (a, n, d+1) temporary would cost a times the memory of X1.
        H = np.empty((active.size, d + 1, d + 1))
        for k, w in enumerate(wt):
            np.matmul(X1.T, w[:, None] * X1, out=H[k])
        H[:, diag, diag] += lam
        try:
            delta = np.linalg.solve(H, G[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise TrainingError(f"singular Hessian at IRLS iteration {it}; "
                                "try a larger lambda") from None

        step = np.ones(active.size)
        Wn = W + delta
        Z, LLn = _logliks(X1, Ya, Wn, lam)
        pending = np.arange(active.size)
        for _ in range(20):
            pending = pending[~(LLn[pending] >= LL[pending])]
            if not pending.size:
                break
            step[pending] *= 0.5
            Wn[pending] = W[pending] + step[pending, None] * delta[pending]
            # After the 20th halving the candidate is taken untested; it is
            # evaluated all the same, for the next iteration's values.
            Z[pending], LLn[pending] = _logliks(X1, Ya[pending], Wn[pending], lam)
        change = np.max(np.abs(Wn - W), axis=1)
        W, LL = Wn, LLn
        P, G = _gradients(X1, Ya, Z, W, lam)
        iterations[active] = it

        stop = (change < tol) | (np.max(np.abs(G), axis=1) < tol)
        converged[active[stop]] = True
        weights[active[stop]] = W[stop]
        go = ~stop
        active, Ya, W, LL, P, G = active[go], Ya[go], W[go], LL[go], P[go], G[go]
    weights[active] = W
    if not np.isfinite(weights).all():
        raise TrainingError("logistic fit diverged to non-finite weights")
    return [LinearProbModel(weights=w, lam=lam, converged=bool(c),
                            iterations=int(i))
            for w, c, i in zip(weights, converged, iterations)]


def fit_fallback(targets):
    """Laplace-smoothed constant model: p = (k+1)/(n+2)."""
    y = np.asarray(targets)
    n = y.shape[0]
    k = int(np.sum(y))
    return ConstantProbModel(p=(k + 1) / (n + 2))


def predict_proba_matrix(model, features):
    """Probability of the positive class for each row of an (n, d) matrix.

    The linear score adds ``x[j] * w[j+1]`` in feature order, j = 0 to d-1,
    into one accumulator per row (``kernels.add_rows``), and then the
    intercept. A BLAS product would add in an order that depends on the
    batch size, so a row's probability would depend on the rows batched
    with it.
    """
    X = np.asarray(features, dtype=np.float64)
    if isinstance(model, ConstantProbModel):
        return np.full(X.shape[0], model.p)
    w = model.weights
    if X.shape[1] != w.shape[0] - 1:
        raise ValueError(f"feature dimension {X.shape[1]} does not match "
                         f"model dimension {w.shape[0] - 1}")
    # One row of products per feature. An overflow of one sign saturates p
    # at the clamp; of both signs it gives NaN, which the caller refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.multiply(X.T, w[1:, None], order="C")
        score = w[0] + add_rows(prod)
    p = _sigmoid(score)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
