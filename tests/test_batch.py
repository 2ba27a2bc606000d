"""Properties of the batched predict and evaluation paths.

A batch gives every row the result it gets on its own, however the batch is
cut into blocks; batched SMBR and the vectorised metrics equal their
row-by-row oracles exactly.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nldd import kernels
from nldd.br import BRModel, br_fit, br_predict, br_predict_proba_matrix, smbr_predict
from nldd.data import Dataset, StandardizationStats, standardize_apply
from nldd.evaluate import generate_synthetic
from nldd.learner import PROB_CLAMP, LinearProbModel, predict_proba_matrix
from nldd.metrics import instance_metrics, instance_metrics_matrix
from nldd.model import (BinomialFit, _best_rows, nldd_predict, nldd_train,
                        predict_with_confidence)

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
        rows = np.array([predict(x) for x in X])
        batched = np.vstack([predict(X[a:b]) for a, b in blocks])
        assert np.array_equal(rows, batched), name

    singles = [predict_with_confidence(model, x) for x in X]
    assert all(isinstance(th, float) for _, th in singles)
    parts = [predict_with_confidence(model, X[a:b]) for a, b in blocks]
    assert np.array_equal(np.array([p for p, _ in singles]),
                          np.vstack([p for p, _ in parts]))
    assert [th for _, th in singles] == np.concatenate(
        [th for _, th in parts]).tolist()


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
    batched = smbr_predict(model, train, queries)
    for i in range(hard.shape[0]):
        want = smbr_oracle(hard[i], labels)
        assert np.array_equal(batched[i], want)
        assert np.array_equal(smbr_predict(model, train, queries[i]), want)


def test_smbr_lexicographic_tie():
    # BR output (1,1,0): (1,0,0) and (0,1,0) are both at distance 1 and
    # both seen once, so the lexicographically smaller (0,1,0) wins.
    train = Dataset(np.zeros((3, 3)), np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    model = _identity_br(3)
    assert smbr_predict(model, train, [1.0, 1.0, -1.0]).tolist() == [0, 1, 0]


@PROPERTY
@given(data=st.data())
def test_metrics_matrix_matches_instance_metrics(data):
    shape = (data.draw(st.integers(1, 20)), data.draw(st.integers(1, 6)))
    # Mostly-zero rows, so empty labelsets on one or both sides are common.
    sparse = st.sampled_from([0, 0, 0, 1])
    y = data.draw(arrays(np.int64, shape, elements=sparse))
    yhat = data.draw(arrays(np.int64, shape, elements=sparse))
    got = instance_metrics_matrix(y, yhat)
    want = [instance_metrics(y[i], yhat[i]) for i in range(shape[0])]
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
    z = standardize_apply(model.stats, X)
    want = []
    for i in range(X.shape[0]):
        dx = np.sqrt(kernels.sq_dists(z[i], model.train_features_std))
        dy = np.sqrt(kernels.sq_dists(p_hat[i], model.train_labelsets.astype(float)))
        score = beta1 * dx + beta2 * dy
        want.append(np.lexsort((np.arange(dx.shape[0]), dx, dy, score))[0])
    rows, _, _ = _best_rows(tied, X)
    assert rows.tolist() == want
