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


def instance_metrics_matrix(y, yhat):
    """(n, 4) array of (hamming, zero_one, jaccard, f_measure) per row of
    two (n, L) labelset matrices.

    hamming is the fraction of label positions predicted wrong, zero_one 0
    iff the labelsets match exactly, jaccard |intersection| / |union| of
    the positive labels and f_measure 2|intersection| / (|y| + |yhat|);
    jaccard and f_measure are 1 when both labelsets are empty.
    """
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
    """Arithmetic mean of the rows of an (n, 4) per-instance metric array
    (or a sequence of 4-tuples)."""
    if len(per_instance) == 0:
        raise ValueError("no instances to aggregate")
    arr = np.asarray(per_instance, dtype=np.float64)
    means = arr.mean(axis=0)
    return MetricsReport(hamming=float(means[0]), zero_one=float(means[1]),
                         jaccard=float(means[2]), f_measure=float(means[3]),
                         n_instances=arr.shape[0])
