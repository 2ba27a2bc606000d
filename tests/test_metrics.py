import itertools

import numpy as np
import pytest

from nldd.metrics import aggregate, instance_metrics_matrix


def set_oracle(y, yhat):
    """Brute-force metric computation via explicit index sets."""
    y = list(y)
    yhat = list(yhat)
    n = len(y)
    s1 = {i for i in range(n) if y[i] == 1}
    s2 = {i for i in range(n) if yhat[i] == 1}
    ham = sum(1 for i in range(n) if y[i] != yhat[i]) / n
    zo = 0.0 if y == yhat else 1.0
    union = s1 | s2
    jac = len(s1 & s2) / len(union) if union else 1.0
    denom = len(s1) + len(s2)
    f = 2 * len(s1 & s2) / denom if denom else 1.0
    return ham, zo, jac, f


def one_row(y, yhat):
    """(hamming, zero_one, jaccard, f_measure) of one labelset pair: the
    one-row ``instance_metrics_matrix``."""
    return tuple(instance_metrics_matrix([y], [yhat])[0])


class TestHamming:
    def test_identical(self):
        assert one_row([1, 0, 1, 0], [1, 0, 1, 0])[0] == 0.0

    def test_complete_mismatch(self):
        assert one_row([1, 1, 1], [0, 0, 0])[0] == 1.0

    def test_one_third(self):
        assert one_row([1, 0, 1], [1, 1, 1])[0] == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            one_row([1, 0], [1])

    def test_empty_label_vectors(self):
        with pytest.raises(ValueError, match="empty"):
            one_row([], [])


class TestZeroOne:
    def test_identical(self):
        assert one_row([0, 1], [0, 1])[1] == 0.0

    def test_single_mismatch(self):
        assert one_row([0, 1, 1], [0, 1, 0])[1] == 1.0

    def test_indicator_of_hamming(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            L = rng.integers(1, 8)
            y = rng.integers(0, 2, L)
            yhat = rng.integers(0, 2, L)
            assert one_row(y, yhat)[1] == float(one_row(y, yhat)[0] > 0)


class TestJaccard:
    def test_identical_nonempty(self):
        assert one_row([1, 0, 1], [1, 0, 1])[2] == 1.0

    def test_partial_overlap(self):
        assert one_row([1, 1, 0], [0, 1, 1])[2] == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert one_row([0, 0], [0, 0])[2] == 1.0


class TestFMeasure:
    def test_partial_overlap(self):
        assert one_row([1, 1, 0], [0, 1, 1])[3] == pytest.approx(0.5)

    def test_disjoint(self):
        assert one_row([1, 0, 0], [0, 1, 1])[3] == 0.0

    def test_both_empty(self):
        assert one_row([0, 0, 0], [0, 0, 0])[3] == 1.0


class TestAggregate:
    def test_single_instance(self):
        rep = aggregate([(0.25, 1.0, 0.5, 0.6)])
        assert (rep.hamming, rep.zero_one, rep.jaccard, rep.f_measure) == \
            (0.25, 1.0, 0.5, 0.6)
        assert rep.n_instances == 1

    def test_midpoint(self):
        rep = aggregate([(0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0, 0.0)])
        assert rep.hamming == 0.5 and rep.zero_one == 0.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_matches_oracle_over_random_pairs(self):
        rng = np.random.default_rng(1)
        per_instance = []
        oracle = []
        for _ in range(1000):
            L = rng.integers(1, 11)
            y = rng.integers(0, 2, L)
            yhat = rng.integers(0, 2, L)
            per_instance.append(one_row(y, yhat))
            oracle.append(set_oracle(y, yhat))
        rep = aggregate(per_instance)
        want = np.array(oracle).mean(axis=0)
        assert (rep.hamming, rep.zero_one, rep.jaccard, rep.f_measure) == \
            pytest.approx(tuple(want))


class TestProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            L = rng.integers(1, 7)
            y = rng.integers(0, 2, L)
            yhat = rng.integers(0, 2, L)
            assert one_row(y, yhat) == one_row(yhat, y)

    def test_jaccard_below_f_measure_exhaustive(self):
        for L in range(1, 5):
            for y in itertools.product((0, 1), repeat=L):
                for yhat in itertools.product((0, 1), repeat=L):
                    assert one_row(y, yhat)[2] <= one_row(y, yhat)[3] + 1e-12

    def test_zero_one_zero_implies_extremal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.integers(0, 2, 5)
            ham, zo, jac, f = one_row(y, y)
            assert zo == 0.0 and ham == 0.0 and jac == 1.0 and f == 1.0

    def test_zero_one_dominates_hamming(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            L = rng.integers(1, 9)
            y = rng.integers(0, 2, L)
            yhat = rng.integers(0, 2, L)
            assert one_row(y, yhat)[1] >= one_row(y, yhat)[0]
