"""Per-instance multi-label evaluation metrics and their aggregation."""

from dataclasses import dataclass, asdict

import numpy as np


@dataclass
class MetricsReport:
    hamming: float
    zero_one: float
    jaccard: float
    f_measure: float
    n_instances: int

    def as_dict(self):
        return asdict(self)


def _check(y, yhat):
    y = np.asarray(y).ravel()
    yhat = np.asarray(yhat).ravel()
    if y.shape[0] != yhat.shape[0]:
        raise ValueError(f"length mismatch: {y.shape[0]} vs {yhat.shape[0]}")
    if y.shape[0] < 1:
        raise ValueError("empty label vectors")
    return y, yhat


def hamming_loss(y, yhat):
    """Fraction of label positions predicted incorrectly."""
    y, yhat = _check(y, yhat)
    return float(np.sum(y != yhat)) / y.shape[0]


def zero_one_loss(y, yhat):
    """0 iff the labelsets match exactly, else 1."""
    y, yhat = _check(y, yhat)
    return 0.0 if np.array_equal(y, yhat) else 1.0


def jaccard(y, yhat):
    """|intersection| / |union| of the positive labels; both-empty -> 1."""
    y, yhat = _check(y, yhat)
    union = np.sum((y == 1) | (yhat == 1))
    if union == 0:
        return 1.0
    inter = np.sum((y == 1) & (yhat == 1))
    return float(inter) / float(union)


def f_measure(y, yhat):
    """2|intersection| / (|y| + |yhat|); both-empty -> 1."""
    y, yhat = _check(y, yhat)
    denom = np.sum(y == 1) + np.sum(yhat == 1)
    if denom == 0:
        return 1.0
    inter = np.sum((y == 1) & (yhat == 1))
    return 2.0 * float(inter) / float(denom)


def instance_metrics(y, yhat):
    """(hamming, zero_one, jaccard, f_measure) for one instance."""
    return (hamming_loss(y, yhat), zero_one_loss(y, yhat),
            jaccard(y, yhat), f_measure(y, yhat))


def instance_metrics_matrix(y, yhat):
    """(n, 4) array of (hamming, zero_one, jaccard, f_measure) per row of
    two (n, L) labelset matrices; row i equals ``instance_metrics(y[i],
    yhat[i])`` exactly."""
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    if y.ndim != 2 or y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    if y.shape[1] < 1:
        raise ValueError("empty label vectors")
    pos, pos_hat = y == 1, yhat == 1
    inter = np.sum(pos & pos_hat, axis=1)
    union = np.sum(pos | pos_hat, axis=1)
    denom = np.sum(pos, axis=1) + np.sum(pos_hat, axis=1)
    wrong = y != yhat
    # np.maximum keeps the unused branch of each np.where free of 0/0.
    return np.column_stack([
        np.sum(wrong, axis=1) / y.shape[1],
        np.any(wrong, axis=1).astype(np.float64),
        np.where(union == 0, 1.0, inter / np.maximum(union, 1)),
        np.where(denom == 0, 1.0, 2.0 * inter / np.maximum(denom, 1)),
    ])


def aggregate(per_instance):
    """Arithmetic mean of per-instance metric tuples, or of the rows of an
    (n, 4) array."""
    if len(per_instance) == 0:
        raise ValueError("no instances to aggregate")
    arr = np.asarray(per_instance, dtype=np.float64)
    means = arr.mean(axis=0)
    return MetricsReport(hamming=float(means[0]), zero_one=float(means[1]),
                         jaccard=float(means[2]), f_measure=float(means[3]),
                         n_instances=arr.shape[0])
