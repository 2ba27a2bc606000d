"""Properties of the batched predict and evaluation paths.

A batch gives every row the result it gets on its own, however the batch is
cut into blocks; batched SMBR and the vectorised metrics equal their
row-by-row oracles exactly; the screened mining and predict equal exact
full scans.
"""

import contextlib
import copy
import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nldd import kernels
from nldd.br import BRModel, br_fit, br_predict, br_predict_proba_matrix, smbr_predict
from nldd.data import (DataError, Dataset, StandardizationStats,
                       standardize_apply)
from nldd.evaluate import generate_synthetic
from nldd.learner import (PROB_CLAMP, LinearProbModel, TrainingError,
                          predict_proba_matrix)
from nldd.metrics import instance_metrics_matrix
from nldd.kernels import _argmin_rows
from nldd.model import (BinomialFit, NlddModel, _best_rows, mine_pairs,
                        nldd_predict, nldd_train, predict_with_confidence,
                        theta)
from nldd.persist import load_model, save_model
from test_metrics import set_oracle
from test_model import mine_pairs_oracle, pair_tuples, sq_dists

PROPERTY = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def fitted():
    train = generate_synthetic(200, 6, 4, 0.8, 0.3, seed=0)
    # Exact duplicate rows make score ties that only dy, dx and the row
    # index can break.
    train = Dataset(np.vstack([train.features, train.features[:20]]),
                    np.vstack([train.labels, train.labels[:20]]))
    return train, nldd_train(train, seed=1)


def _queries(draw, train, max_rows=12):
    """Query rows: random values, coarse values that repeat, and copies of
    training rows (dx = 0)."""
    n = draw(st.integers(1, max_rows))
    values = st.one_of(st.floats(-4.0, 4.0, allow_nan=False),
                       st.sampled_from([-1.0, 0.0, 0.5, 2.0]))
    rows = draw(arrays(np.float64, (n, train.d), elements=values))
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, train.n - 1)), max_size=n))
    for i, j in copies:
        rows[i] = train.features[j]
    return rows


def _blocks(draw, n):
    cuts = draw(st.lists(st.integers(1, n), max_size=4))
    edges = [0] + sorted(set(cuts) - {n}) + [n]
    return list(zip(edges, edges[1:]))


@PROPERTY
@given(data=st.data())
def test_blocks_equal_rows(fitted, data):
    train, model = fitted
    X = _queries(data.draw, train)
    blocks = _blocks(data.draw, X.shape[0])
    predictors = {
        "br_predict": lambda x: br_predict(model.br, x),
        "smbr_predict": lambda x: smbr_predict(model.br, train, x),
        "nldd_predict": lambda x: nldd_predict(model, x),
    }
    for name, predict in predictors.items():
        rows = np.vstack([predict(x[None]) for x in X])
        batched = np.vstack([predict(X[a:b]) for a, b in blocks])
        assert np.array_equal(rows, batched), name

    singles = [predict_with_confidence(model, x[None]) for x in X]
    assert all(th.shape == (1,) for _, th in singles)
    parts = [predict_with_confidence(model, X[a:b]) for a, b in blocks]
    assert np.array_equal(np.vstack([p for p, _ in singles]),
                          np.vstack([p for p, _ in parts]))
    assert np.concatenate([th for _, th in singles]).tolist() == np.concatenate(
        [th for _, th in parts]).tolist()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(40, 120), d=st.integers(2, 5),
       n_labels=st.integers(2, 4), fraction=st.sampled_from([1.0, 0.6]),
       data=st.data())
def test_predicted_labelsets_are_training_labelsets(seed, n, d, n_labels,
                                                    fraction, data):
    train = generate_synthetic(n, d, n_labels, 0.5, 0.5, seed=seed)
    try:
        model = nldd_train(train, seed, subsample_fraction=fraction)
    except TrainingError:
        assume(False)  # degenerate mined losses on a tiny training set
    X = _queries(data.draw, train)
    X[0] *= data.draw(st.sampled_from([1.0, 1e3, -1e6]))
    seen = {tuple(row) for row in train.labels}
    model_rows = {tuple(row) for row in model.train_labelsets}
    assert model_rows <= seen
    for labelset in nldd_predict(model, X):
        assert tuple(labelset) in model_rows


@pytest.fixture(scope="module")
def wide_br():
    return br_fit(generate_synthetic(300, 50, 10, 0.8, 0.3, seed=2))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(65, 150))
def test_br_probabilities_do_not_depend_on_block_size(wide_br, seed, n):
    X = np.random.default_rng(seed).standard_normal((n, 50)) * 2.0
    whole = br_predict_proba_matrix(wide_br, X)
    for size in (1, 2, 3, 7, 64):
        blocks = [br_predict_proba_matrix(wide_br, X[i:i + size])
                  for i in range(0, n, size)]
        assert np.array_equal(np.vstack(blocks), whole), size


def smbr_oracle(hard, train_labels):
    """The dict-and-tuple scan: smallest (Hamming distance, -frequency,
    labelset) over the distinct training labelsets."""
    counts = {}
    for row in train_labels:
        key = tuple(int(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    best = None
    for labelset, freq in counts.items():
        dist = int(np.sum(hard != np.array(labelset)))
        key = (dist, -freq, labelset)
        if best is None or key < best[0]:
            best = (key, labelset)
    return np.array(best[1], dtype=np.int64)


def _identity_br(n_labels):
    """BR whose hard output for the query 2*h - 1 is the 0/1 vector h."""
    eye = np.eye(n_labels)
    return BRModel(
        classifiers=[LinearProbModel(np.concatenate([[0.0], eye[j]]), 1.0, True, 0)
                     for j in range(n_labels)],
        stats=StandardizationStats(means=np.zeros(n_labels),
                                   sds=np.ones(n_labels)),
        label_names=[f"l{j}" for j in range(n_labels)])


@PROPERTY
@given(data=st.data())
def test_smbr_matches_dict_oracle(data):
    # Few labels and few training rows, so that equal distances and equal
    # frequencies are common and the lexicographic rule decides often.
    n_labels = data.draw(st.integers(1, 4))
    binary = st.integers(0, 1)
    labels = data.draw(arrays(np.int64, (data.draw(st.integers(1, 12)), n_labels),
                              elements=binary))
    hard = data.draw(arrays(np.int64, (data.draw(st.integers(1, 10)), n_labels),
                            elements=binary))
    train = Dataset(np.zeros((labels.shape[0], n_labels)), labels)
    model = _identity_br(n_labels)
    queries = 2.0 * hard - 1.0
    assert np.array_equal(br_predict(model, queries), hard)
    n_labelsets = len(np.unique(labels, axis=0))
    rows_per_block = data.draw(st.sampled_from([1, 3, None]))
    with mock.patch.object(kernels, "BLOCK_BYTES",
                           _block_bytes(n_labelsets, rows_per_block)):
        batched = smbr_predict(model, train, queries)
    for i in range(hard.shape[0]):
        want = smbr_oracle(hard[i], labels)
        assert np.array_equal(batched[i], want)
        assert np.array_equal(smbr_predict(model, train, queries[i][None])[0], want)


def test_smbr_lexicographic_tie():
    # BR output (1,1,0): (1,0,0) and (0,1,0) are both at distance 1 and
    # both seen once, so the lexicographically smaller (0,1,0) wins.
    train = Dataset(np.zeros((3, 3)), np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    model = _identity_br(3)
    assert smbr_predict(model, train, [[1.0, 1.0, -1.0]]).tolist() == [[0, 1, 0]]


@PROPERTY
@given(data=st.data())
def test_metrics_matrix_matches_set_oracle(data):
    shape = (data.draw(st.integers(1, 20)), data.draw(st.integers(1, 6)))
    # Mostly-zero rows, so empty labelsets on one or both sides are common.
    sparse = st.sampled_from([0, 0, 0, 1])
    y = data.draw(arrays(np.int64, shape, elements=sparse))
    yhat = data.draw(arrays(np.int64, shape, elements=sparse))
    got = instance_metrics_matrix(y, yhat)
    want = [set_oracle(y[i], yhat[i]) for i in range(shape[0])]
    assert [tuple(row) for row in got.tolist()] == want


def test_metrics_matrix_shape_mismatch():
    with pytest.raises(ValueError):
        instance_metrics_matrix(np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("n, d", [(1, 1), (1, 50), (2, 50), (3, 9), (7, 8), (300, 50)])
def test_linear_score_adds_in_feature_order(n, d):
    rng = np.random.default_rng(n * 100 + d)
    model = LinearProbModel(rng.standard_normal(d + 1), 1.0, True, 0)
    X = rng.standard_normal((n, d))
    want = []
    for x in X:
        acc = 0.0
        for j in range(d):
            acc += float(x[j]) * float(model.weights[j + 1])
        want.append(model.weights[0] + acc)
    p = 1.0 / (1.0 + np.exp(-np.array(want)))
    assert np.array_equal(predict_proba_matrix(model, X),
                          np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))


@pytest.mark.parametrize("beta1, beta2", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
def test_ties_break_by_dy_then_dx_then_row(fitted, beta1, beta2):
    # Zeroed weights make whole groups of rows tie on the score: with both
    # zero every row ties, with beta1 = 0 rows sharing a labelset tie, and
    # the duplicated training rows tie on everything but the row index.
    train, model = fitted
    tied = copy.copy(model)
    tied.fit = BinomialFit(model.fit.beta0, beta1, beta2, True, 0, 0.0)
    X = generate_synthetic(30, train.d, train.n_labels, 0.8, 0.3, seed=5).features
    X = np.vstack([X, train.features[:5]])
    p_hat = br_predict_proba_matrix(model.br, X)
    z = standardize_apply(model.br.stats, X)
    want = []
    for i in range(X.shape[0]):
        dx = np.sqrt(sq_dists(z[i], model.train_features_std))
        dy = np.sqrt(sq_dists(p_hat[i], model.train_labelsets.astype(float)))
        score = beta1 * dx + beta2 * dy
        want.append(np.lexsort((np.arange(dx.shape[0]), dx, dy, score))[0])
    rows, _, _ = _best_rows(tied, X)
    assert rows.tolist() == want


def best_rows_loop(model, features):
    """The per-row exact scan that the screened ``_best_rows`` replaces:
    both distances to every training row, then the smallest score, with
    ties among the minimizers broken by dy, then dx, then row index."""
    p_hat = br_predict_proba_matrix(model.br, features)
    x_std = standardize_apply(model.br.stats, features)
    train_labelsets = np.asarray(model.train_labelsets, dtype=np.float64)
    beta1, beta2 = model.fit.beta1, model.fit.beta2
    n = x_std.shape[0]
    rows = np.empty(n, dtype=np.intp)
    best_dx, best_dy = np.empty(n), np.empty(n)
    for i in range(n):
        dx = np.sqrt(sq_dists(x_std[i], model.train_features_std))
        dy = np.sqrt(sq_dists(p_hat[i], train_labelsets))
        score = beta1 * dx + beta2 * dy
        cand = np.flatnonzero(score == score.min())
        for key in (dy, dx):
            if cand.size > 1:
                cand = cand[key[cand] == key[cand].min()]
        j = cand[0]
        rows[i], best_dx[i], best_dy[i] = j, dx[j], dy[j]
    return rows, best_dx, best_dy


def _block_bytes(n_train, rows_per_block):
    """BLOCK_BYTES that makes the screen take ``rows_per_block`` query rows
    at a time (None: the whole batch at once)."""
    return 8 * n_train * (10**6 if rows_per_block is None else rows_per_block)


@st.composite
def engine_cases(draw, huge=False):
    """Standardised training rows and query rows that stress the screen:
    an offset of 1e4 (G cancels), duplicated training rows, rows one ulp
    apart, queries that copy a training row, and few labels (dy ties);
    with ``huge``, also query features of +-1e154 (4S overflows, so the
    row takes the full scan, but dx does not) or, in other batches, near
    1e155, 1e200 and 1.7e308 (G overflows to inf, or to inf - inf = NaN,
    and so does dx)."""
    d = draw(st.integers(1, 6))
    n_labels = draw(st.integers(1, 3))
    offset = draw(st.sampled_from([0.0, 1e4, -1e4]))
    values = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                       st.sampled_from([-1.0, 0.0, 0.5]))
    huge_values = (draw(st.sampled_from([(1e154, -1e154),
                                         (1e155, -1e155, 1e200, 1.7e308)]))
                   if huge else ())
    train = draw(arrays(np.float64, (draw(st.integers(1, 30)), d),
                        elements=values)) + offset
    queries = draw(arrays(np.float64, (draw(st.integers(1, 10)), d),
                          elements=values)) + offset
    for rows in (train, queries):
        kinds = ["own", "copy", "ulp"] + (["huge"] if huge and rows is queries else [])
        for i in range(rows.shape[0]):
            kind = draw(st.sampled_from(kinds))
            j = draw(st.integers(0, train.shape[0] - 1))
            if kind == "copy":
                rows[i] = train[j]
            elif kind == "ulp":
                rows[i] = np.nextafter(train[j], draw(st.sampled_from([-np.inf, np.inf])))
            elif kind == "huge":
                rows[i, draw(st.integers(0, d - 1))] = draw(
                    st.sampled_from(huge_values))
    labels = draw(arrays(np.int64, (train.shape[0], n_labels),
                         elements=st.integers(0, 1)))
    return train, labels, queries


@PROPERTY
@pytest.mark.parametrize("rows_per_block", [1, 2, 7, None])
@given(case=engine_cases(huge=True), data=st.data())
def test_screened_mining_equals_exhaustive_oracle(rows_per_block, case, data):
    t1, t1_labels, x = case
    n, n_labels = x.shape[0], t1_labels.shape[1]
    # p-hat on the labelset vertices and midpoints, so dy ties are common.
    p_hat = data.draw(arrays(np.float64, (n, n_labels), elements=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.01, 0.99))))
    true = data.draw(arrays(np.int64, (n, n_labels), elements=st.integers(0, 1)))
    want = [mine_pairs_oracle(p_hat[i], true[i], t1, t1_labels, x[i])
            for i in range(n)]
    # A batch is refused at its first row whose mined dx or dy is inf.
    overflows = [i for i, pairs in enumerate(want)
                 if not np.isfinite([pair[:2] for pair in pairs]).all()]
    expect = (pytest.raises(DataError, match="mined distance overflows in "
                            f"query row {overflows[0] + 1}$")
              if overflows else contextlib.nullcontext())
    with mock.patch.object(kernels, "BLOCK_BYTES",
                           _block_bytes(t1.shape[0], rows_per_block)), expect:
        got = mine_pairs(p_hat, true, np.asfortranarray(t1), t1_labels, x_std=x)
    if not overflows:
        assert pair_tuples(got) == sum(want, [])


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
def test_mining_computes_kept_rows_once_per_block(rows_per_block):
    # Both weightings pick their winners from one set of kept rows, so each
    # block runs the exact kernel twice, once for dx and once for dy.
    rng = np.random.default_rng(5)
    t1, t1_labels = rng.standard_normal((40, 3)), rng.integers(0, 2, (40, 2))
    x, p_hat, true = (rng.standard_normal((10, 3)), rng.random((10, 2)),
                      rng.integers(0, 2, (10, 2)))
    with mock.patch.object(kernels, "BLOCK_BYTES", _block_bytes(40, rows_per_block)), \
            mock.patch.object(kernels, "paired_sq_dists",
                              wraps=kernels.paired_sq_dists) as exact:
        got = mine_pairs(p_hat, true, t1, t1_labels, x_std=x)
        n_blocks = len(kernels.blocks(10, 40))
    assert n_blocks == {1: 10, 3: 4, None: 1}[rows_per_block]
    assert exact.call_count == 2 * n_blocks
    assert pair_tuples(got) == sum((mine_pairs_oracle(p_hat[i], true[i], t1,
                                                      t1_labels, x[i])
                                    for i in range(10)), [])


@PROPERTY
@pytest.mark.parametrize("rows_per_block", [1, 3, None])
@given(case=engine_cases(huge=True), data=st.data())
def test_each_weighting_wins_as_it_would_alone(rows_per_block, case, data):
    # One bound per block keeps the rows of every weighting at once; a row
    # that only another weighting needs must never change a winner.
    train, labels, x = case
    p_hat = data.draw(arrays(np.float64, (x.shape[0], labels.shape[1]),
                             elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                                st.floats(0.01, 0.99))))
    beta = st.sampled_from([-1.3, -0.5, -1e-20, 0.0, 0.5, 1.0, 2.0])
    weights = tuple(data.draw(st.lists(st.tuples(beta, beta), min_size=2,
                                       max_size=4)))
    squared = data.draw(st.booleans())
    # A squared dx near 1e308 (a query feature of 1e154) times beta = 2
    # overflows the score to inf, which ranks like any other score.
    with mock.patch.object(kernels, "BLOCK_BYTES",
                           _block_bytes(train.shape[0], rows_per_block)), \
            np.errstate(over="ignore"):
        together = _argmin_rows(x, p_hat, train, labels, weights, squared)
        for w, weighting in enumerate(weights):
            alone = _argmin_rows(x, p_hat, train, labels, (weighting,), squared)
            for got, want in zip(together, alone):
                assert np.array_equal(got[w], want[0]), weighting


def _linear_br(weights):
    """BR of one logistic model per row of ``weights`` on unscaled features."""
    d = weights.shape[1] - 1
    return BRModel(
        classifiers=[LinearProbModel(w, 1.0, True, 0) for w in weights],
        stats=StandardizationStats(means=np.zeros(d), sds=np.ones(d)),
        label_names=[f"l{j}" for j in range(weights.shape[0])])


@PROPERTY
@pytest.mark.parametrize("rows_per_block", [1, 2, 7, None])
@given(case=engine_cases(), data=st.data())
def test_screened_predict_equals_row_loop(rows_per_block, case, data):
    train, labels, X = case
    d, n_labels = train.shape[1], labels.shape[1]
    coef = st.sampled_from([-2.0, -0.3, 0.0, 0.7, 1.9])
    weights = data.draw(arrays(np.float64, (n_labels, d + 1), elements=st.one_of(
        coef, st.floats(-1.0, 1.0))))
    br = _linear_br(weights)
    model = NlddModel(br=br,
                      fit=BinomialFit(-2.0, data.draw(coef), data.draw(coef),
                                      True, 0, 0.0),
                      train_features_std=np.asfortranarray(train),
                      train_labelsets=np.asfortranarray(labels),
                      pair_count=0, distance_ops=0)
    # Queries 1e4 away saturate the logistic models' exp.
    with mock.patch.object(kernels, "BLOCK_BYTES",
                           _block_bytes(train.shape[0], rows_per_block)), \
            np.errstate(over="ignore"):
        got = _best_rows(model, X)
        want = best_rows_loop(model, X)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _near(draw, row, source):
    """``row``, a copy of a row of ``source``, or a row one ulp from one."""
    kind = draw(st.sampled_from(["own", "copy", "ulp"]))
    other = source[draw(st.integers(0, len(source) - 1))]
    if kind == "copy":
        return other
    if kind == "ulp":
        return np.nextafter(other, draw(st.sampled_from([-np.inf, np.inf])))
    return row


@st.composite
def dominant_cases(draw):
    """The benchmark's shape in small: about 80% of the training rows share
    one labelset, with exact duplicates and rows one ulp apart inside it,
    and the rows are shuffled so that labelset order is not row order.
    Query rows copy training rows, sit one ulp from them, or are random."""
    d, n_labels, n = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                      draw(st.integers(5, 40)))
    values = st.floats(-3.0, 3.0, allow_nan=False)
    train = draw(arrays(np.float64, (n, d), elements=values))
    big = (4 * n) // 5
    for i in range(1, big):
        train[i] = _near(draw, train[i], train[:i])
    labels = draw(arrays(np.int64, (n, n_labels), elements=st.integers(0, 1)))
    labels[:big] = labels[0]
    perm = np.array(draw(st.permutations(range(n))))
    train, labels = train[perm], labels[perm]
    queries = draw(arrays(np.float64, (draw(st.integers(1, 10)), d), elements=values))
    for i in range(queries.shape[0]):
        queries[i] = _near(draw, queries[i], train)
    return train, labels, queries


@PROPERTY
@pytest.mark.parametrize("rows_per_block", [1, None])
# At beta1 = -1e-20 the dx term vanishes in the rounded score, so the rows
# of a labelset tie on it and the smallest dx wins, not the largest.
@pytest.mark.parametrize("beta1", [-0.3, -1e-20, 0.0, 0.7])
@given(case=dominant_cases(), data=st.data())
def test_dominant_labelset_predict_equals_row_loop(beta1, rows_per_block, case,
                                                   data):
    train, labels, X = case
    d, n_labels = train.shape[1], labels.shape[1]
    weights = data.draw(arrays(np.float64, (n_labels, d + 1),
                               elements=st.floats(-1.0, 1.0)))
    beta2 = data.draw(st.sampled_from([-0.3, 0.0, 0.7, 1.9]))
    model = NlddModel(br=_linear_br(weights),
                      fit=BinomialFit(-2.0, beta1, beta2, True, 0, 0.0),
                      train_features_std=train, train_labelsets=labels,
                      pair_count=0, distance_ops=0)
    with mock.patch.object(kernels, "BLOCK_BYTES",
                           _block_bytes(train.shape[0], rows_per_block)):
        got = _best_rows(model, X)
    for g, w in zip(got, best_rows_loop(model, X)):
        assert np.array_equal(g, w)


@PROPERTY
@pytest.mark.parametrize("rows_per_block", [1, None])
@given(case=dominant_cases(), data=st.data())
def test_dominant_labelset_mining_equals_exhaustive_oracle(rows_per_block, case,
                                                           data):
    t1, t1_labels, x = case
    n, n_labels = x.shape[0], t1_labels.shape[1]
    p_hat = data.draw(arrays(np.float64, (n, n_labels), elements=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.01, 0.99))))
    true = data.draw(arrays(np.int64, (n, n_labels), elements=st.integers(0, 1)))
    with mock.patch.object(kernels, "BLOCK_BYTES",
                           _block_bytes(t1.shape[0], rows_per_block)):
        got = mine_pairs(p_hat, true, t1, t1_labels, x_std=x)
    want = []
    for i in range(n):
        want += mine_pairs_oracle(p_hat[i], true[i], t1, t1_labels, x[i])
    assert pair_tuples(got) == want


def _queries_with_ties(train, seed):
    X = generate_synthetic(40, train.d, train.n_labels, 0.8, 0.3, seed=seed).features
    return np.vstack([X, train.features[:10], train.features[200:205]])


@pytest.mark.parametrize("rows_per_block", [1, 2, 7, None])
def test_fitted_model_predict_equals_row_loop(fitted, rows_per_block):
    train, model = fitted
    X = _queries_with_ties(train, seed=6)
    with mock.patch.object(kernels, "BLOCK_BYTES",
                           _block_bytes(train.n, rows_per_block)):
        got = _best_rows(model, X)
    for g, w in zip(got, best_rows_loop(model, X)):
        assert np.array_equal(g, w)


def test_reloaded_model_predicts_identical_bits(fitted, tmp_path):
    train, model = fitted
    X = _queries_with_ties(train, seed=7)
    save_model(model, tmp_path / "m.json")
    _, back = load_model(tmp_path / "m.json")
    labelsets, thetas = predict_with_confidence(model, X)
    back_labelsets, back_thetas = predict_with_confidence(back, X)
    assert np.array_equal(labelsets, back_labelsets)
    assert thetas.tobytes() == back_thetas.tobytes()


@pytest.mark.parametrize("huge", [1e154, 1e155, 1e200])
def test_huge_finite_query_rows_get_the_full_scan(fitted, huge):
    # A standardised feature near 1e154 overflows the screen's 4 S, so the
    # screen has nothing to go on. At 1e154 the exact dx stays finite; from
    # 1e155 every distance of the row is inf, all rows tie on the score and
    # dy decides, as in the row loop. The bracket alone must keep the
    # winner for every sign of beta1; beta1 = 0 only where dx is finite,
    # since the loop's 0 * inf is NaN.
    train, model = fitted
    X = _queries_with_ties(train, seed=8)[:12]
    X[3, 0] = huge
    X[7, 2] = -huge
    betas = [model.fit.beta1, -0.3, 0.7] + ([0.0] if huge == 1e154 else [])
    for beta1 in betas:
        edited = copy.copy(model)
        edited.fit = dataclasses.replace(model.fit, beta1=beta1)
        labelsets, thetas = predict_with_confidence(edited, X)
        with warnings.catch_warnings():
            # The loop's own squares overflow; the library's must not warn.
            warnings.simplefilter("ignore", RuntimeWarning)
            rows, dx, dy = best_rows_loop(edited, X)
        assert np.array_equal(labelsets, edited.train_labelsets[rows]), beta1
        assert thetas.tolist() == [theta(edited.fit, a, b)
                                   for a, b in zip(dx, dy)], beta1
        assert np.isfinite(dx[3]) == np.isfinite(dx[7]) == (huge == 1e154)
        if huge > 1e154:  # theta-hat saturates with the sign of beta1
            want = 1.0 - PROB_CLAMP if beta1 > 0 else PROB_CLAMP
            assert thetas[3] == thetas[7] == want


def test_label_space_weights_ignore_an_overflowing_dx(fitted):
    # The GLM fallback's weights (beta1, beta2) = (0, 1) on a row whose dx
    # overflows to inf: the dx term adds nothing, so the row gets the
    # dy-nearest labelset and, all its dx being inf, its lowest row index.
    # (best_rows_loop is no oracle here: its 0 * inf score is NaN.)
    train, model = fitted
    fallback = copy.copy(model)
    fallback.fit = BinomialFit(model.fit.beta0, 0.0, 1.0, False, 0, 0.0)
    X = _queries_with_ties(train, seed=9)[:4]
    X[2, 1] = 1e200
    rows, dx, dy = _best_rows(fallback, X)
    p_hat = br_predict_proba_matrix(model.br, X[2:3])[0]
    dys = np.sqrt(sq_dists(p_hat, model.train_labelsets.astype(float)))
    assert rows[2] == np.flatnonzero(dys == dys.min())[0]
    assert dx[2] == np.inf and dy[2] == dys.min()
    # theta-hat drops the dx term too: sigmoid(beta0 + dy), not 0 * inf.
    _, thetas = predict_with_confidence(fallback, X)
    want = 1.0 / (1.0 + math.exp(-(model.fit.beta0 + dy[2])))
    want = min(max(want, PROB_CLAMP), 1.0 - PROB_CLAMP)
    assert thetas[2] == pytest.approx(want, rel=1e-12, abs=0.0)
