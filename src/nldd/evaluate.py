"""Experiment harness: cross-validation, holdout evaluation, the exact
Wilcoxon signed-rank test, synthetic data generation, and the
training-subsample scaling experiment."""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .br import _tagged, br_fit, br_predict, smbr_predict
from .data import DataError, Dataset
from .metrics import aggregate, instance_metrics_matrix
from .model import nldd_predict, nldd_train

METHODS = ("br", "smbr", "nldd")


@dataclass
class WilcoxonResult:
    statistic: float  # W+, sum of positive-difference ranks
    p_value: float
    n_effective: int
    exact: bool


def make_folds(n, k, seed):
    """Seeded fold assignment: the fold id in [0, k) of each of the n rows,
    with fold sizes differing by at most 1."""
    if k < 2 or k > n:
        raise ValueError(f"k must be in [2, {n}]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.arange(n) % k
    return assignments


def _check_methods(methods, subsample_fraction):
    """ValueError for a method id outside METHODS, for one listed twice, or
    for a training subsample when nldd, the only method that reads it, is
    not among ``methods``."""
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is listed twice")
    if subsample_fraction != 1.0 and "nldd" not in methods:
        raise ValueError("a training subsample applies to nldd only")


def cross_validate(data, methods, k, seed, lam=1.0, subsample_fraction=1.0):
    """k-fold CV of each method id of the tuple ``methods``; returns a dict
    by id of (per-fold reports, mean report). Each fold is one
    ``holdout_eval`` of its training rows against its test rows.

    Errors raised inside a fold name the fold, and a refused test or
    training row is named by its ``row_ids`` entry, 1-based: its row of
    ``data`` when ``data`` is not itself a subset. The method ids and the
    subsample rule are checked once, before the first fold."""
    _check_methods(methods, subsample_fraction)
    folds = make_folds(data.n, k, seed)
    fold_reports = {m: [] for m in methods}
    for fold in range(k):
        test = data.subset(np.flatnonzero(folds == fold))
        with _tagged(f"fold {fold}"):
            reports = holdout_eval(
                data.subset(np.flatnonzero(folds != fold)), test, methods,
                seed=seed, lam=lam, subsample_fraction=subsample_fraction)
        for m in methods:
            fold_reports[m].append(reports[m])
    results = {}
    for m, reports in fold_reports.items():
        rows = [(r.hamming, r.zero_one, r.jaccard, r.f_measure) for r in reports]
        # The mean over folds, reported against all of the data's rows.
        results[m] = (reports, replace(aggregate(rows), n_instances=data.n))
    return results


def holdout_eval(train, test, methods, seed=0, lam=1.0,
                 subsample_fraction=1.0):
    """Train each method id of the tuple ``methods`` on ``train``, then
    predict ``test`` with each; returns a dict by id of the report
    aggregated over all ``test`` rows.

    Every method is trained before any of them predicts. The methods share
    one Binary Relevance fit on ``train``: the one inside the nldd model
    when nldd trains on every row (its final fit, started at the weights of
    its BR fit on T1), else one ``br_fit`` from zero weights. Raises
    DataError when ``train`` and ``test`` differ in features or labels, or
    for a refused test row, named by its ``row_ids`` entry, 1-based; and
    ValueError for a training subsample when nldd, the only method that
    reads it, is not among ``methods``.
    """
    if train.d != test.d or train.n_labels != test.n_labels:
        raise DataError("train/test dimension mismatch")
    _check_methods(methods, subsample_fraction)
    nldd = br = None
    if "nldd" in methods:
        nldd = nldd_train(train, seed, lam=lam,
                          subsample_fraction=subsample_fraction)
        if subsample_fraction == 1.0:
            # br_fit(train, lam) up to the stop rule's tolerance: the same
            # optimum, reached from T1's weights.
            br = nldd.br
    if br is None and ("br" in methods or "smbr" in methods):
        br = br_fit(train, lam=lam)
    reports = {}
    for m in methods:
        with _tagged(row_ids=test.row_ids):  # a test row, against the fit
            if m == "nldd":
                pred = nldd_predict(nldd, test.features)
            elif m == "br":
                pred = br_predict(br, test.features)
            else:
                pred = smbr_predict(br, train, test.features)
        reports[m] = aggregate(instance_metrics_matrix(test.labels, pred))
    return reports


def average_ranks(values):
    """1-based ranks of the 1-D array ``values`` in ascending order; tied
    values share the mean of the ranks they span (``rankdata``'s "average"
    method)."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    # NumPy 2.0.0 returned ``inverse`` in the input's shape.
    return (ends - (counts - 1) / 2.0)[inverse.reshape(-1)]


def _exact_sf_distribution(ranks2):
    # Count of sign assignments achieving each doubled rank sum.
    total = int(ranks2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in ranks2:
        new = counts.copy()
        new[r:] += counts[:total + 1 - r]
        counts = new
    return counts


def wilcoxon_signed_rank(a, b, alternative="two_sided"):
    """Wilcoxon signed-rank test of paired samples.

    Zero differences are dropped; tied absolute differences get average
    ranks. The p-value is exact (full sign enumeration) for up to 20
    nonzero differences, a tie-corrected normal approximation beyond.
    """
    if alternative not in ("less", "greater", "two_sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 1:
        raise ValueError("samples must be nonempty and of equal length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    diffs = a - b
    nz = diffs[diffs != 0]
    n = nz.size
    if n == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, n_effective=0, exact=True)
    ranks = average_ranks(np.abs(nz))
    w_plus = float(ranks[nz > 0].sum())

    if n <= 20:
        ranks2 = np.rint(2 * ranks).astype(np.int64)
        counts = _exact_sf_distribution(ranks2)
        denom = 2.0 ** n
        w2 = int(round(2 * w_plus))
        p_greater = counts[w2:].sum() / denom
        p_less = counts[:w2 + 1].sum() / denom
        exact = True
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(np.abs(nz), return_counts=True)
        var -= np.sum(tie_counts * (tie_counts ** 2 - 1)) / 48.0
        z = (w_plus - mu) / np.sqrt(var)
        # Upper and lower tails of the standard normal at z.
        p_greater = 0.5 * math.erfc(z / math.sqrt(2))
        p_less = 0.5 * math.erfc(-z / math.sqrt(2))
        exact = False

    if alternative == "greater":
        p = p_greater
    elif alternative == "less":
        p = p_less
    else:
        p = min(1.0, 2.0 * min(p_greater, p_less))
    return WilcoxonResult(statistic=w_plus, p_value=float(p),
                          n_effective=n, exact=exact)


def generate_synthetic(n, d, n_labels, correlation, noise, seed):
    """Gaussian features with labels thresholded from mixed linear scores.

    Each label's score mixes one shared direction with a label-specific one;
    ``correlation`` in [0, 1] is the shared weight, so 1 collapses all labels
    onto a single score (at most 2 distinct labelsets) and 0 makes labels
    independent given the features.
    """
    if n < 8 or d < 2 or n_labels < 2:
        raise ValueError("need n >= 8, d >= 2, L >= 2")
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w_shared = rng.standard_normal(d)
    w_own = rng.standard_normal((d, n_labels))
    eps_shared = rng.standard_normal(n)
    eps_own = rng.standard_normal((n, n_labels))
    shared = (X @ w_shared + noise * np.sqrt(d) * eps_shared)[:, None]
    own = X @ w_own + noise * np.sqrt(d) * eps_own
    scores = correlation * shared + (1.0 - correlation) * own
    labels = (scores > 0).astype(np.int64)
    return Dataset(X, labels)


def scaling_experiment(data, fractions, seed, lam=1.0):
    """75/25 split, then train+test the core method at each training fraction.

    Returns one record per fraction with the deterministic mining distance
    counter, the measured wall time, and L * mean Hamming loss (the average
    number of mismatched labels). A refused training or test row is named
    by its ``row_ids`` entry, 1-based.
    """
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"fraction {f} outside (0, 1]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    n_train = int(round(0.75 * data.n))
    train = data.subset(np.sort(perm[:n_train]))
    test = data.subset(np.sort(perm[n_train:]))

    rows = []
    for f in fractions:
        t0 = time.perf_counter()
        model = nldd_train(train, seed, lam=lam, subsample_fraction=f)
        with _tagged(row_ids=test.row_ids):
            pred = nldd_predict(model, test.features)
        hl = np.mean(instance_metrics_matrix(test.labels, pred)[:, 0])
        rows.append({
            "fraction": f,
            "distance_ops": model.distance_ops,
            "wall_time": time.perf_counter() - t0,
            "mean_mismatched_labels": float(hl) * data.n_labels,
        })
    return rows
