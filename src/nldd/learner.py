"""L2-regularized logistic regression fit by truncated Newton, plus a
constant fallback for degenerate (single-class) label columns."""

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


def _logliks(X1, Y, W, lam):
    """Scores and penalized log-likelihoods of the (a, d+1) weight rows
    ``W`` against the (a, n) target rows ``Y``."""
    # X1 carries the intercept column; the intercept is unpenalized.
    Z = W @ X1.T
    # log(1+e^z) stably; faster than np.logaddexp(0, z), and no bigger
    softplus = np.log1p(np.exp(-np.abs(Z)))
    softplus += np.maximum(Z, 0.0)
    ll = np.sum(Y * Z - softplus, axis=1)
    return Z, ll - 0.5 * lam * np.sum(W[:, 1:] ** 2, axis=1)


def _small_step_gains(X1, Y, P, W, Wn, lam):
    """Penalized log-likelihood gains of the steps from the weight rows
    ``W``, where the probabilities are ``P``, to ``Wn``, summed row by row
    from the score change dz: y·dz - log1p(σ(z)·expm1(dz)), the softplus
    difference, taken as dz + log1p(σ(-z)·expm1(-dz)) for dz > 0. Where
    every |dz| <= 1 log1p's argument stays in (-0.64, 0], so a gain far
    below the log-likelihoods' rounding keeps its sign; other rows get NaN."""
    step = Wn - W
    dZ = step @ X1.T
    small = np.abs(dZ).max(axis=1) <= 1.0
    dZ, P = dZ[small], P[small]
    diff = np.log1p(np.where(dZ > 0, 1.0 - P, P) * np.expm1(-np.abs(dZ)))
    diff += np.maximum(dZ, 0.0)
    ridge = np.sum(step[small, 1:] * (Wn + W)[small, 1:], axis=1)
    gains = np.full(len(W), np.nan)
    gains[small] = np.sum(Y[small] * dZ - diff, axis=1) - 0.5 * lam * ridge
    return gains


def _gradients(X1, Y, Z, W, lam):
    """Probabilities and penalized gradients at the scores ``Z = W @ X1.T``."""
    P = _sigmoid(Z)
    G = (Y - P) @ X1
    G[:, 1:] -= lam * W[:, 1:]
    return P, G


def _newton_steps(Xc, mu, wt, G, penalty, floor, tight, it):
    """Truncated Newton steps: row k solves label k's system H δ = g inexactly.

    Row k of ``wt`` holds the label's IRLS weights p(1-p) and row k of
    ``G`` its gradient g. The system is solved in centred weights: the
    intercept b' = b + mu·w, for the feature means ``mu``, beside the
    slopes w. There the design is ``Xc``, the features less their means,
    the gradient is (g_0, g_w - mu g_0), and the Hessian is H = Xcᵀ
    diag(wt[k]) Xc + diag(``penalty``), never formed. Beside the
    intercept's ones, a feature far from zero that barely varies would
    give the uncentred Hessian curvatures too far apart for CG to resolve.

    Conjugate gradients start at δ = 0 and run on each label until the
    residual r = g - Hδ meets ‖r‖ ≤ max(η‖g‖, ``floor``) with the forcing
    term η = min(0.1, ‖g‖²), or for 3(d+1) steps at most: in exact
    arithmetic CG ends within d+1 steps, but rounding on an
    ill-conditioned system (a near-separable column, say) delays it. A
    label flagged in ``tight`` drops the forcing term and runs to the
    floor. The fit passes tol/2 as the floor: after a full step the
    gradient is about r, so a smaller residual would only pass the stop
    rule's gradient test by a wider margin. One CG step of the labels
    still running is two matrix products with Xc (Lin, Weng & Keerthi,
    "Trust region Newton method for large-scale logistic regression",
    JMLR 9, 2008). ``it`` numbers the Newton iteration for the error
    message. Returns the steps, in the weights of the uncentred design,
    and per label whether its CG ran to the floor (or to its step cap)
    rather than stopping at η‖g‖.
    """
    # In centred weights, b' = b + mu·w, the gradient is (g_0, g_w - mu g_0).
    G = G.copy()
    G[:, 1:] -= G[:, :1] * mu
    sq = np.einsum("ij,ij->i", G, G)
    if not np.isfinite(sq).all():
        raise TrainingError(f"gradient overflows at Newton iteration {it}; "
                            "rescale the features")
    bound = np.where(tight, 0.0, np.minimum(0.1, sq) ** 2 * sq)
    exact = bound <= floor * floor
    bound = np.maximum(bound, floor * floor)  # ‖r‖²
    delta = np.zeros_like(G)
    run = np.flatnonzero(sq > bound)
    # The running labels' iterate, residual, direction, ‖r‖², weights and
    # bound.
    D, R, P, rr, Wt, bound = delta[run], G[run], G[run], sq[run], wt[run], bound[run]
    for _ in range(3 * G.shape[1]):
        if not run.size:
            break
        U = P @ Xc.T
        U *= Wt
        HP = U @ Xc
        HP += penalty * P
        curv = np.einsum("ij,ij->i", P, HP)
        if not 0 < curv.min() <= curv.max() < math.inf:
            raise TrainingError(f"CG curvature p'Hp is not finite and > 0 "
                                f"at Newton iteration {it}; rescale the "
                                "features or try a larger lambda")
        alpha = (rr / curv)[:, None]
        D += alpha * P
        R -= alpha * HP
        rr_next = np.einsum("ij,ij->i", R, R)
        done = rr_next <= bound
        if done.any():
            delta[run[done]] = D[done]
            go = ~done
            run, D, R, P, Wt = run[go], D[go], R[go], P[go], Wt[go]
            rr, rr_next, bound = rr[go], rr_next[go], bound[go]
        P *= (rr_next / rr)[:, None]
        P += R
        rr = rr_next
    delta[run] = D
    delta[:, 0] -= delta[:, 1:] @ mu  # back to the weights of X1
    return delta, exact


def fit_logistic(X1, targets, lam=1.0, max_iter=100, tol=1e-8, start=None):
    """Maximize the L2-penalized Bernoulli log-likelihood by truncated Newton.

    ``X1`` is the (n, d+1) design matrix, column 0 the intercept's ones.
    ``targets`` is an (n, L) matrix of rates in [0, 1] (0/1 labels, or k/m
    for k of m binomial trials), copied unless its transpose is C-contiguous
    float64. The result is a list of L LinearProbModels, one per column,
    fit in one Newton loop. Each label runs the single-label
    iteration on its own, with its own Newton steps, step halving and stop
    rule, so its fit is that of the column alone, up to rounding: a
    matrix product over the batch may round a column differently with the
    batch's width. Each Newton step solves the label's system by conjugate
    gradients on Hessian-vector products (``_newton_steps``), the labels
    batched into one pair of matrix products per CG step. Those products
    read a centred copy of the features, the one copy of ``X1`` the fit
    makes. A step whose CG stopped at its forcing term may be short, so
    ``change < tol`` ends a label only after a step whose CG ran to the
    floor: a tiny truncated step is followed by one that is not truncated.

    ``start``, an (L, d+1) array of finite weights, one row per column,
    is where each column's Newton loop begins (zeros when it is None).
    The loop and its stop rule are unchanged, so a start near the optimum
    saves iterations, and ``iterations`` counts from the start.

    Step halving (up to 20 halvings) keeps the ascent monotone; a step
    that fails all 20 is taken untested at its last length. A fall of the
    rounded log-likelihood is checked by ``_small_step_gains``: near the
    optimum a step gains far less than that rounding. The intercept is
    unpenalized, and ``lam`` = 0 fits the plain maximum likelihood.
    Raises ValueError for bad shapes, a column 0 that is not all ones, a
    target outside [0, 1], a ``lam`` that is not finite and >= 0 or a
    ``start`` that is not a finite (L, d+1) array, and TrainingError for
    non-finite features, a column whose targets are all 0 or all 1, a
    gradient or CG curvature that overflows or is not > 0, and non-finite
    weights.
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
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    # One C-contiguous row of float targets per label, as the loop reads them.
    Y = np.ascontiguousarray(targets.T, dtype=np.float64)
    if not ((Y >= 0) & (Y <= 1)).all():
        raise ValueError("targets must be rates in [0, 1]")
    if ((Y.max(axis=1) == 0) | (Y.min(axis=1) == 1)).any():
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
    penalty = np.full(d + 1, lam)
    penalty[0] = 0.0

    # The features less their means, for the CG steps.
    mu = X1[:, 1:].mean(axis=0)
    Xc = X1.copy()
    Xc[:, 1:] -= mu

    # State of the labels still iterating: their ids and targets, their
    # weights with the log-likelihoods, probabilities and gradients there,
    # and whether their next CG runs to the floor.
    active, Ya, W = np.arange(n_labels), Y, weights.copy()
    Z, LL = _logliks(X1, Ya, W, lam)
    P, G = _gradients(X1, Ya, Z, W, lam)
    tight = np.zeros(n_labels, dtype=bool)
    for it in range(1, max_iter + 1):
        if not active.size:
            break
        wt = np.clip(P * (1.0 - P), 1e-12, None)
        delta, exact = _newton_steps(Xc, mu, wt, G, penalty, tol / 2, tight, it)

        step = np.ones(active.size)
        Wn = W + delta
        Z, LLn = _logliks(X1, Ya, Wn, lam)
        pending = np.arange(active.size)
        for _ in range(20):
            pending = pending[~(LLn[pending] >= LL[pending])]
            if pending.size:  # a fall, unless the step's own gain says not
                gains = _small_step_gains(X1, Ya[pending], P[pending],
                                          W[pending], Wn[pending], lam)
                pending = pending[~(gains >= 0)]
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

        small = change < tol
        stop = (small & exact) | (np.max(np.abs(G), axis=1) < tol)
        converged[active[stop]] = True
        weights[active[stop]] = W[stop]
        go = ~stop
        active, Ya, W, LL, P, G = active[go], Ya[go], W[go], LL[go], P[go], G[go]
        tight = small[go]
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
