"""Binary Relevance layer and the Subset-Mapping (SMBR) baseline."""

from dataclasses import dataclass

import numpy as np

from .data import (DataError, _labelset_groups, standardize_apply,
                   standardize_fit)
from .learner import (ConstantProbModel, fit_fallback, fit_logistic,
                      predict_proba_matrix)


@dataclass
class BRModel:
    classifiers: list  # one LinearProbModel or ConstantProbModel per label
    stats: object  # StandardizationStats
    label_names: list


def br_fit(train, lam=1.0):
    """One probabilistic classifier per label, fit on standardized features.

    Constant label columns fall back to the Laplace-smoothed constant model.
    """
    stats = standardize_fit(train)
    z = standardize_apply(stats, train.features)
    labels = train.labels
    constant = labels.min(axis=0) == labels.max(axis=0)
    # Every varying column in one stacked IRLS loop.
    fitted = iter(fit_logistic(z, labels[:, ~constant], lam=lam))
    classifiers = [fit_fallback(labels[:, j]) if constant[j] else next(fitted)
                   for j in range(train.n_labels)]
    return BRModel(classifiers=classifiers, stats=stats,
                   label_names=list(train.label_names))


def br_predict_proba_matrix(model, features):
    """(n, L) probability matrix for an (n, d) batch of raw feature rows.

    Raises DataError when the batch is not 2-D or a row holds a NaN or an
    infinity.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DataError(f"query rows must be an (n, d) matrix, got shape "
                        f"{features.shape}")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite feature value in query row "
                        f"{int(np.argmin(finite)) + 1}")
    z = standardize_apply(model.stats, features)
    cols = [predict_proba_matrix(clf, z) for clf in model.classifiers]
    return np.column_stack(cols)


def br_predict(model, x):
    """Hard BR prediction, (n, L), for an (n, d) batch: threshold each
    probability at 0.5 (>= maps to 1)."""
    return (br_predict_proba_matrix(model, x) >= 0.5).astype(np.int64)


def smbr_predict(model, train, x):
    """Map the hard BR output of an (n, d) batch to the nearest observed
    training labelsets, (n, L).

    Ties in Hamming distance go to the more frequent training labelset,
    then the lexicographically smallest.
    """
    hard = br_predict(model, x)
    # Distinct labelsets in lexicographic order, so argmin's first-index
    # rule picks the smallest among equal keys.
    labelsets, _, _, counts = _labelset_groups(train.labels)
    dist = hard @ (1 - labelsets).T + (1 - hard) @ labelsets.T  # (n, K) Hamming
    # counts <= N, so this orders by distance first, then by frequency.
    best = np.argmin(dist * (train.n + 1) - counts, axis=1)
    return labelsets[best]
