"""Binary Relevance layer and the Subset-Mapping (SMBR) baseline."""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import DataError, standardize_apply, standardize_fit
from .kernels import _labelset_groups
from .learner import (LinearProbModel, fit_fallback, fit_logistic,
                      predict_proba_matrix)


class QueryRowError(DataError):
    """A refused query row: ``problem`` says what is wrong with the batch's
    0-based row ``row``. ``_queries`` raises it, and so does ``mine_pairs``
    for a query row with a non-finite input cell or whose mined distance
    overflows."""

    def __init__(self, problem, row):
        super().__init__(f"{problem} in query row {row + 1}")
        self.problem, self.row = problem, row


@dataclass
class BRModel:
    classifiers: list  # one LinearProbModel or ConstantProbModel per label
    stats: object  # StandardizationStats
    label_names: list


def br_fit(train, lam=1.0, start=None):
    """One probabilistic classifier per label, fit on standardized features.

    Constant label columns fall back to the Laplace-smoothed constant model;
    the varying ones are fit together by one ``fit_logistic`` call. With a
    ``start`` BRModel of the same labels and features, each varying label's
    Newton loop begins at that model's weights for it, taken as they are
    (in the start model's standardisation), or at zeros where the start
    model holds a constant classifier. Raises ValueError for a ``lam``
    that is not finite and > 0: every BR classifier is penalized.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    stats = standardize_fit(train)
    # Standardised straight into the design matrix beside its intercept
    # column, and the float targets laid out as the Newton loop reads them
    # (one C-contiguous row per label): fit_logistic copies neither.
    X1 = np.empty((train.n, train.d + 1))
    X1[:, 0] = 1.0
    standardize_apply(stats, train.features, out=X1[:, 1:])
    labels = train.labels
    constant = labels.min(axis=0) == labels.max(axis=0)
    targets = np.ascontiguousarray(labels.T[~constant], dtype=np.float64).T
    if start is not None:
        if len(start.classifiers) != train.n_labels:
            raise ValueError(f"the start model has {len(start.classifiers)} "
                             f"labels, the training data {train.n_labels}")
        zeros = np.zeros(train.d + 1)
        start = np.array([clf.weights if isinstance(clf, LinearProbModel)
                          else zeros for clf in start.classifiers],
                         dtype=np.float64)[~constant]
    fitted = iter(fit_logistic(X1, targets, lam, start=start))
    classifiers = [fit_fallback(labels[:, j]) if constant[j] else next(fitted)
                   for j in range(train.n_labels)]
    return BRModel(classifiers=classifiers, stats=stats,
                   label_names=list(train.label_names))


def br_predict_proba_matrix(model, features):
    """(n, L) probability matrix for an (n, d) batch of raw feature rows.

    Raises DataError, naming the query row, when the batch is not an (n, d)
    matrix, a row holds a NaN or an infinity, its standardised features
    overflow, or its probabilities are undefined (see ``_queries``).
    """
    return _queries(model, features)[1]


def _queries(model, features):
    """``(z, p_hat)`` of an (n, d) batch of raw query rows: the rows
    standardised by the model's training statistics and their (n, L) BR
    probabilities. Every raw row reaches either only through here.

    A batch is refused, with a QueryRowError naming its first such 1-based
    query row, when a row has a raw or standardised feature that is not
    finite (a finite cell near the float64 maximum can overflow) or a NaN
    probability (score terms of both signs that overflow add to inf - inf).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DataError(f"query rows must be an (n, d) matrix, got shape "
                        f"{features.shape}")
    with np.errstate(over="ignore"):
        z = standardize_apply(model.stats, features)
    p_hat = np.column_stack([predict_proba_matrix(clf, z)
                             for clf in model.classifiers])
    # An sd-zero column maps even a NaN to 0, so the raw rows are checked too.
    raw = np.isfinite(features).all(axis=1)
    standardised = np.isfinite(z).all(axis=1)
    ok = raw & standardised & ~np.isnan(p_hat).any(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        problem = ("non-finite feature value" if not raw[i]
                   else "standardised feature value overflows"
                   if not standardised[i] else "undefined BR probability")
        raise QueryRowError(problem, i)
    return z, p_hat


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
