"""Binary Relevance layer and the Subset-Mapping (SMBR) baseline."""

from dataclasses import dataclass

import numpy as np

from . import kernels
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
    return _fit(train, lam)[0]


def _fit(train, lam):
    """``br_fit``'s model and the standardized training features it was fit on."""
    stats = standardize_fit(train)
    z = standardize_apply(stats, train.features)
    labels = train.labels
    constant = labels.min(axis=0) == labels.max(axis=0)
    # Every varying column in one stacked IRLS loop.
    fitted = iter(fit_logistic(z, labels[:, ~constant], lam=lam))
    classifiers = [fit_fallback(labels[:, j]) if constant[j] else next(fitted)
                   for j in range(train.n_labels)]
    return BRModel(classifiers=classifiers, stats=stats,
                   label_names=list(train.label_names)), z


def br_predict_proba_matrix(model, features):
    """(n, L) probability matrix for an (n, d) batch of raw feature rows.

    Raises DataError when the batch is not 2-D or a row holds a NaN or an
    infinity.
    """
    return _proba(model, _standardize_queries(model, features))


def _standardize_queries(model, features):
    """The (n, d) batch of raw query rows standardized by the model's
    training statistics, after the checks of ``br_predict_proba_matrix``."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DataError(f"query rows must be an (n, d) matrix, got shape "
                        f"{features.shape}")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite feature value in query row "
                        f"{int(np.argmin(finite)) + 1}")
    return standardize_apply(model.stats, features)


def _proba(model, z):
    """(n, L) probabilities of the standardized rows ``z``."""
    return np.column_stack([predict_proba_matrix(clf, z)
                            for clf in model.classifiers])


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
    ones, zeros = labelsets.T, (1 - labelsets).T
    best = np.empty(len(hard), dtype=np.intp)
    # Blocks of rows bound the (block, K) Hamming and key arrays.
    for block in kernels.blocks(len(hard), len(labelsets)):
        h = hard[block]
        dist = h @ zeros + (1 - h) @ ones  # Hamming distances
        # counts <= N, so this orders by distance first, then by frequency.
        best[block] = np.argmin(dist * (train.n + 1) - counts, axis=1)
    return labelsets[best]
