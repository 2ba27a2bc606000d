import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nldd import cli
from nldd.data import DataError, Dataset, dataset_summary
from nldd import br as br_module
from nldd.br import QueryRowError
from nldd.evaluate import (METHODS, average_ranks, cross_validate,
                           generate_synthetic, holdout_eval, make_folds,
                           scaling_experiment, wilcoxon_signed_rank)
from nldd.learner import TrainingError


@pytest.fixture(scope="module")
def scipy_stats():
    """SciPy is a test-only oracle: the four tests that compare against it
    take it from here and skip where it is not installed."""
    return pytest.importorskip("scipy.stats")


def _ranks_by_scan(values):
    """Average 1-based ranks: sort, then give each run of equal values the
    mean of its positions. Independent of the library's ``average_ranks``."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = np.empty(len(values))
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and values[order[end]] == values[order[start]]:
            end += 1
        for i in order[start:end]:
            ranks[i] = (start + 1 + end) / 2
        start = end
    return ranks


def wilcoxon_oracle(a, b, alternative):
    """Full 2^n sign enumeration, independent of the DP in the library."""
    diffs = np.asarray(a, float) - np.asarray(b, float)
    nz = diffs[diffs != 0]
    n = nz.size
    ranks = _ranks_by_scan(np.abs(nz))
    w_obs = ranks[nz > 0].sum()
    ge = le = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        ge += w >= w_obs - 1e-12
        le += w <= w_obs + 1e-12
    p_greater = ge / 2 ** n
    p_less = le / 2 ** n
    if alternative == "greater":
        return p_greater
    if alternative == "less":
        return p_less
    return min(1.0, 2 * min(p_greater, p_less))


# Heavy ties (small integers, signed zeros) mixed with arbitrary floats.
rank_inputs = st.lists(st.one_of(st.integers(-3, 3).map(float), st.just(-0.0),
                                 st.floats(allow_nan=False)),
                       min_size=1, max_size=60)


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(values=rank_inputs)
    @example(values=[5.0])
    @example(values=[2.5] * 7)
    @example(values=[1.0, -1.0, 1.0, -1.0, 1.0, 0.0, 1.0, 1.0])
    @example(values=[-3.0, -1e-300, -7.5, -3.0])
    @example(values=[0.0, -0.0, 1.0, -0.0, 0.0])
    def test_equals_rankdata(self, values, scipy_stats):
        v = np.array(values)
        assert average_ranks(v).tobytes() == scipy_stats.rankdata(v).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(values=rank_inputs, higher_is_better=st.booleans())
    def test_cli_rank_puts_the_best_first(self, values, higher_is_better,
                                          scipy_stats):
        v = np.array(values)
        expected = scipy_stats.rankdata(-v if higher_is_better else v)
        assert cli._rank(values, higher_is_better).tobytes() == expected.tobytes()


class TestWilcoxon:
    def test_all_positive_n5(self):
        res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 2, 3, 4, 5],
                                   alternative="greater")
        assert res.statistic == 15.0
        assert res.p_value == pytest.approx(1 / 32)
        assert res.exact

    def test_identical_samples(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.p_value == 1.0
        assert res.statistic == 0.0
        assert res.n_effective == 0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 13))
            a = rng.integers(0, 5, n).astype(float)  # integers force ties
            b = rng.integers(0, 5, n).astype(float)
            if np.all(a == b):
                a[0] += 1
            for alt in ("greater", "less", "two_sided"):
                res = wilcoxon_signed_rank(a, b, alternative=alt)
                assert res.p_value == pytest.approx(
                    wilcoxon_oracle(a, b, alt)), (trial, alt)

    def test_statistic_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            res = wilcoxon_signed_rank(a, b)
            assert 0 <= res.statistic <= res.n_effective * (res.n_effective + 1) / 2

    def test_normal_approximation_branch(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(40) + 0.8
        b = rng.standard_normal(40)
        res = wilcoxon_signed_rank(a, b, alternative="greater")
        assert not res.exact
        assert res.p_value < 0.01

    @settings(max_examples=100, deadline=None)
    @given(diffs=st.integers(21, 60).flatmap(lambda n: st.one_of(
        st.lists(st.integers(-6, 6).filter(bool), min_size=n, max_size=n),
        st.lists(st.integers(-1000, 1000).filter(bool), min_size=n,
                 max_size=n, unique_by=abs))))
    def test_normal_path_tails_match_scipy(self, diffs, scipy_stats):
        # n = 21..60 nonzero differences, with and without ties: the normal
        # path's p-values against scipy's normal tails at the same z.
        d = np.array(diffs, dtype=float)
        n = d.size
        ranks = scipy_stats.rankdata(np.abs(d))
        _, ties = np.unique(np.abs(d), return_counts=True)
        var = n * (n + 1) * (2 * n + 1) / 24.0 - np.sum(ties * (ties ** 2 - 1)) / 48.0
        z = (ranks[d > 0].sum() - n * (n + 1) / 4.0) / np.sqrt(var)
        upper, lower = scipy_stats.norm.sf(z), scipy_stats.norm.cdf(z)
        for alt, want in (("greater", upper), ("less", lower),
                          ("two_sided", min(1.0, 2.0 * min(upper, lower)))):
            res = wilcoxon_signed_rank(d, np.zeros(n), alternative=alt)
            assert not res.exact
            assert res.p_value == pytest.approx(want, rel=1e-12, abs=0), alt

    def test_bad_alternative(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [2.0], alternative="both")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_sample_refused(self, value, side):
        # A NaN difference is neither zero nor ranked, and inf - inf warns.
        samples = {"a": [1.0, 1.0, 2.0], "b": [0.0, 0.0, 0.0]}
        samples[side][0] = value
        with pytest.raises(ValueError, match="^samples must be finite$"):
            wilcoxon_signed_rank(samples["a"], samples["b"])

    @settings(max_examples=60, deadline=None)
    @given(diffs=st.integers(15, 20).flatmap(lambda n: st.lists(
        st.integers(-1000, 1000).filter(bool), min_size=n, max_size=n,
        unique_by=abs)))
    def test_exact_path_near_its_limit(self, diffs, scipy_stats):
        # Tie-free differences, n = 15..20: the last sizes that take the
        # exact path. It equals scipy's exact test bit for bit and stays
        # close to the normal approximation used from n = 21 on.
        a, b = np.array(diffs, dtype=float), np.zeros(len(diffs))
        for alt in ("greater", "less", "two_sided"):
            res = wilcoxon_signed_rank(a, b, alternative=alt)
            scipy_alt = alt.replace("_", "-")
            assert res.exact
            assert res.p_value == scipy_stats.wilcoxon(
                a, b, alternative=scipy_alt, method="exact").pvalue
            approx = scipy_stats.wilcoxon(
                a, b, alternative=scipy_alt, method="approx",
                correction=False).pvalue
            assert abs(res.p_value - approx) <= 0.04


class TestFolds:
    def test_partition_and_balance(self):
        for seed in range(5):
            folds = make_folds(23, 4, seed)
            sizes = np.bincount(folds, minlength=4)
            assert sizes.sum() == 23
            assert sizes.max() - sizes.min() <= 1

    def test_determinism(self):
        a = make_folds(30, 10, 7)
        b = make_folds(30, 10, 7)
        assert np.array_equal(a, b)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            make_folds(10, 1, 0)
        with pytest.raises(ValueError):
            make_folds(10, 11, 0)


class TestCrossValidate:
    def test_structure_and_mean(self):
        ds = generate_synthetic(60, 4, 3, 0.7, 0.3, seed=0)
        reports, mean = cross_validate(ds, ("br",), k=5, seed=0)["br"]
        assert len(reports) == 5
        for metric in ("hamming", "zero_one", "jaccard", "f_measure"):
            want = np.mean([getattr(r, metric) for r in reports])
            assert getattr(mean, metric) == pytest.approx(want)
        assert mean.n_instances == 60

    def test_determinism(self):
        ds = generate_synthetic(60, 4, 3, 0.7, 0.3, seed=1)
        _, a = cross_validate(ds, ("smbr",), k=3, seed=2)["smbr"]
        _, b = cross_validate(ds, ("smbr",), k=3, seed=2)["smbr"]
        assert a == b

    def test_unknown_method(self):
        ds = generate_synthetic(30, 4, 3, 0.7, 0.3, seed=2)
        with pytest.raises(ValueError):
            cross_validate(ds, ("rakel",), k=3, seed=0)

    @pytest.mark.parametrize("methods, params, message", [
        (("rakel",), None, "^unknown method 'rakel'"),
        (("br", "smbr"), {"subsample_fraction": 0.5},
         "^a training subsample applies to nldd only$")])
    def test_method_errors_name_no_fold(self, methods, params, message):
        # They concern the call, not a fold, and are raised before any fit.
        ds = generate_synthetic(30, 4, 3, 0.7, 0.3, seed=2)
        with mock.patch("nldd.evaluate.make_folds") as folds, \
                pytest.raises(ValueError, match=message):
            cross_validate(ds, methods, k=3, seed=0, **(params or {}))
        folds.assert_not_called()

    def test_params_dict_is_refused(self):
        # Training options are keyword arguments; a free-form dict of them
        # would let a misspelt key train with the default silently.
        ds = generate_synthetic(30, 4, 3, 0.7, 0.3, seed=2)
        with pytest.raises(TypeError):
            cross_validate(ds, ("br",), 3, 0, params={"lambda": 50.0})


class TestHoldout:
    def test_memorizing_configuration(self):
        # Every test row duplicates a training row; the double-duplicate
        # property drives the expected loss to its minimum.
        ds = generate_synthetic(80, 4, 3, 0.9, 0.0, seed=3)
        rep = holdout_eval(ds, ds, ("nldd",), seed=0)["nldd"]
        # dx=0 for every row, but a rival labelset with smaller dy can still
        # edge out a handful of instances, so allow a small margin
        assert rep.hamming < 0.02
        assert rep.zero_one < 0.05

    @pytest.mark.parametrize("d, n_labels", [(5, 3), (4, 4)],
                             ids=["features", "labels"])
    def test_dimension_mismatch(self, d, n_labels):
        a = generate_synthetic(30, 4, 3, 0.7, 0.3, seed=4)
        b = generate_synthetic(30, d, n_labels, 0.7, 0.3, seed=4)
        with pytest.raises(DataError):
            holdout_eval(a, b, ("br",))

    def test_matches_per_instance_oracle(self):
        from nldd.br import br_fit, br_predict
        from nldd.metrics import instance_metrics_matrix, aggregate
        tr = generate_synthetic(60, 4, 3, 0.7, 0.3, seed=5)
        te = generate_synthetic(20, 4, 3, 0.7, 0.3, seed=6)
        rep = holdout_eval(tr, te, ("br",))["br"]
        model = br_fit(tr)
        want = aggregate([instance_metrics_matrix(
                              [te.labels[i]], br_predict(model, te.features[i][None]))[0]
                          for i in range(te.n)])
        assert rep == want


class TestGenerateSynthetic:
    def test_full_correlation_two_labelsets(self):
        ds = generate_synthetic(100, 4, 5, 1.0, 0.2, seed=0)
        assert dataset_summary(ds)["distinct_labelsets"] <= 2

    def test_zero_correlation_many_labelsets(self):
        hi = generate_synthetic(200, 6, 4, 1.0, 0.2, seed=1)
        lo = generate_synthetic(200, 6, 4, 0.0, 0.2, seed=1)
        assert dataset_summary(lo)["distinct_labelsets"] > \
            dataset_summary(hi)["distinct_labelsets"]

    def test_correlation_monotone(self):
        def mean_abs_corr(c):
            vals = []
            for seed in range(10):
                ds = generate_synthetic(300, 6, 4, c, 0.2, seed=seed)
                cm = np.corrcoef(ds.labels.T)
                vals.append(np.abs(cm[np.triu_indices(4, 1)]).mean())
            return np.mean(vals)

        c0, c5, c1 = mean_abs_corr(0.0), mean_abs_corr(0.5), mean_abs_corr(1.0)
        assert c0 < c5 < c1

    def test_determinism(self):
        a = generate_synthetic(50, 4, 3, 0.5, 0.2, seed=9)
        b = generate_synthetic(50, 4, 3, 0.5, 0.2, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            generate_synthetic(4, 4, 3, 0.5, 0.2, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(50, 4, 3, 1.5, 0.2, seed=0)


class TestScaling:
    def test_counter_quadratic_law(self):
        ds = generate_synthetic(80, 4, 3, 0.8, 0.3, seed=0)
        rows = scaling_experiment(ds, [0.5, 1.0], seed=0)
        n_train = 60
        for row in rows:
            m = round(row["fraction"] * n_train)
            assert row["distance_ops"] == math.ceil(m / 2) * math.floor(m / 2)
        ratio = rows[1]["distance_ops"] / rows[0]["distance_ops"]
        assert ratio == pytest.approx(4.0, rel=0.1)

    def test_bad_fraction(self):
        ds = generate_synthetic(80, 4, 3, 0.8, 0.3, seed=1)
        with pytest.raises(ValueError):
            scaling_experiment(ds, [0.0], seed=0)

    @pytest.mark.parametrize("row, message", [
        (41, "T2 half of the training split: mined distance overflows in "
             "training row 41"),
        (61, "T2 half of the training split: mined distance overflows in "
             "training row 61"),
        (78, "standardised feature value overflows in data row 78")])
    def test_refused_row_named_by_its_data_row(self, row, message):
        # Rows 41 and 61 (1-based) fall in the 75% training split, row 78
        # in the test split; each is named by its row of the data.
        ds = _poisoned(row - 1)
        with pytest.raises(DataError) as err:
            scaling_experiment(ds, [1.0], 0)
        assert type(err.value) is DataError
        assert str(err.value) == message


def _poisoned(row):
    """The 80-row synthetic data of seed 0 with feature cell (row, 0), a
    0-based row, set to 1.7e308."""
    ds = generate_synthetic(80, 4, 3, 0.7, 0.3, seed=0)
    features = ds.features.copy()
    features[row, 0] = 1.7e308
    return Dataset(features, ds.labels)


class TestRefusedTrainingRows:
    """A T2 row refused inside a fold is named by its row of the data,
    through the fold and nldd's training subsample."""

    def test_named_through_the_fold(self):
        with pytest.raises(DataError) as err:
            cross_validate(_poisoned(40), ("nldd",), 4, 0)
        assert str(err.value) == (
            "fold 2: T2 half of the training split: standardised feature "
            "value overflows in training row 41")

    def test_named_through_the_fold_and_the_subsample(self):
        # Data row 10 is the 7th training row of fold 0 and the 6th row of
        # that fold's subsample.
        with pytest.raises(DataError) as err:
            cross_validate(_poisoned(9), ("nldd",), 4, 0,
                           subsample_fraction=0.5)
        assert str(err.value) == (
            "fold 0: T2 half of the training split: standardised feature "
            "value overflows in training row 10")

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_every_refused_training_row_named(self, fraction):
        named = 0
        for row in range(0, 80, 2):
            try:
                cross_validate(_poisoned(row), ("nldd",), 4, 0,
                               subsample_fraction=fraction)
            except DataError as exc:
                if "training row" in str(exc):
                    assert str(exc).endswith(f" training row {row + 1}")
                    named += 1
        assert named >= 8


class TestFoldErrors:
    def _fail_with(self, monkeypatch, exc):
        def holdout_eval(*args, **kwargs):
            raise exc
        monkeypatch.setattr("nldd.evaluate.holdout_eval", holdout_eval)

    @pytest.mark.parametrize("exc_type", [DataError, TrainingError, ValueError])
    def test_tagged_with_fold(self, monkeypatch, exc_type):
        self._fail_with(monkeypatch, exc_type("boom"))
        ds = generate_synthetic(30, 4, 3, 0.7, 0.3, seed=2)
        with pytest.raises(exc_type, match="^fold 0: boom$") as info:
            cross_validate(ds, ("br",), k=3, seed=0)
        assert type(info.value) is exc_type

    def test_other_constructors_propagate_unchanged(self, monkeypatch):
        # UnicodeDecodeError is a ValueError whose constructor takes five
        # arguments; rebuilding it from a message would raise TypeError.
        original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
        self._fail_with(monkeypatch, original)
        ds = generate_synthetic(30, 4, 3, 0.7, 0.3, seed=2)
        with pytest.raises(UnicodeDecodeError) as info:
            cross_validate(ds, ("br",), k=3, seed=0)
        assert info.value is original


class TestBatchedEvaluation:
    @pytest.mark.parametrize("method", ["br", "smbr", "nldd"])
    def test_holdout_equals_row_by_row(self, method):
        from nldd.br import br_fit, br_predict, smbr_predict
        from nldd.metrics import aggregate, instance_metrics_matrix
        from nldd.model import nldd_predict, nldd_train
        ds = generate_synthetic(90, 4, 3, 0.7, 0.3, seed=4)
        tr, te = ds.subset(np.arange(60)), ds.subset(np.arange(60, 90))
        if method == "nldd":
            model = nldd_train(tr, 1)
            predict = lambda x: nldd_predict(model, x)
        elif method == "br":
            model = br_fit(tr)
            predict = lambda x: br_predict(model, x)
        else:
            model = br_fit(tr)
            predict = lambda x: smbr_predict(model, tr, x)
        want = aggregate([instance_metrics_matrix([te.labels[i]],
                                                  predict(te.features[i][None]))[0]
                          for i in range(te.n)])
        assert holdout_eval(tr, te, (method,), seed=1)[method] == want


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DataError, TrainingError, ValueError) as exc:
        return type(exc), str(exc)


class TestFoldsAreHoldouts:
    """cross_validate scores each fold as holdout_eval scores that fold's
    make_folds split, and a failing split fails its fold with the same
    error type. A feature cell near the float64 maximum, in a training or
    a test row, makes some splits fail."""

    @settings(max_examples=16, deadline=None)
    @given(seed=st.integers(0, 2**16), fraction=st.sampled_from([1.0, 0.5]),
           methods=st.permutations(METHODS), size=st.integers(1, 3),
           poison=st.one_of(st.none(), st.integers(0, 79)))
    # A refused test row in fold 0, and a training row refused in fold 2.
    @example(seed=1, fraction=1.0, methods=["br", "smbr", "nldd"], size=1,
             poison=40)
    @example(seed=0, fraction=1.0, methods=["nldd", "smbr", "br"], size=2,
             poison=40)
    def test_each_fold_is_a_holdout(self, seed, fraction, methods, size,
                                    poison):
        ds = generate_synthetic(80, 4, 3, 0.7, 0.3, seed=seed)
        if poison is not None:
            features = ds.features.copy()
            features[poison, 0] = 1.7e308
            ds = Dataset(features, ds.labels)
        methods = tuple(methods[:size])
        folds = make_folds(ds.n, 4, seed)
        splits = []
        for fold in range(4):
            splits.append(_outcome(
                holdout_eval, ds.subset(np.flatnonzero(folds != fold)),
                ds.subset(np.flatnonzero(folds == fold)), methods, seed=seed,
                lam=1.0, subsample_fraction=fraction))
            if not isinstance(splits[-1], dict):
                break
        got = _outcome(cross_validate, ds, methods, 4, seed, lam=1.0,
                       subsample_fraction=fraction)
        if isinstance(splits[-1], dict):
            assert list(got) == list(methods)
            for m in methods:
                assert got[m][0] == [split[m] for split in splits]
        elif fraction != 1.0 and "nldd" not in methods:
            # The call's own error, raised before the first fold.
            assert got == splits[-1]
        else:
            fold, (exc_type, message) = len(splits) - 1, splits[-1]
            if exc_type is QueryRowError:  # a test row, named by its data row
                assert got[0] is DataError
                assert got[1].startswith(f"fold {fold}: ")
            else:
                assert got == (exc_type, f"fold {fold}: {message}")


class TestSharedBrFit:
    """One BR fit per fold serves every requested method, and changes no
    result: a batch of methods equals one run per method, each with its
    own BR fit."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), fraction=st.sampled_from([1.0, 0.5]),
           methods=st.permutations(METHODS), size=st.integers(1, 3))
    def test_batch_equals_single_method_runs(self, seed, fraction, methods, size):
        ds = generate_synthetic(80, 4, 3, 0.7, 0.3, seed=seed)
        methods = tuple(methods[:size])
        got = _outcome(cross_validate, ds, methods, 4, seed, lam=1.0,
                       subsample_fraction=fraction)
        # The subsample is nldd's alone: br and smbr run alone train on
        # every row, and a batch without nldd rejects a subsample.
        want = {m: _outcome(cross_validate, ds, (m,), 4, seed, lam=1.0,
                            subsample_fraction=fraction if m == "nldd" else 1.0)
                for m in methods}
        if fraction != 1.0 and "nldd" not in methods:
            assert got == (ValueError,
                           "a training subsample applies to nldd only")
        elif isinstance(got, dict):
            assert list(got) == list(methods)
            assert got == {m: want[m][m] for m in methods}
        else:  # a fold failed: the same error as the first failing method's
            assert got in want.values()

    @pytest.mark.parametrize("fraction, br_fits", [(1.0, 2), (0.5, 3)])
    def test_br_fits_per_fold(self, fraction, br_fits):
        # nldd fits BR on T1 and on all rows; at fraction 1 the latter
        # also serves br and smbr.
        ds = generate_synthetic(80, 4, 3, 0.7, 0.3, seed=3)
        with mock.patch.object(br_module, "fit_logistic",
                               wraps=br_module.fit_logistic) as fits:
            cross_validate(ds, METHODS, 4, 0, subsample_fraction=fraction)
        assert fits.call_count == 4 * br_fits

    def test_refused_test_row_names_fold_and_data_row(self):
        # Data row 16 (0-based) is the 6th test row of fold 0; its
        # standardised value overflows under that fold's statistics.
        ds = generate_synthetic(60, 3, 3, 0.8, 0.3, seed=1)
        assert make_folds(60, 3, 0)[16] == 0
        features = ds.features.copy()
        features[16, 0] = 1.7e308
        with pytest.raises(DataError) as err:
            cross_validate(Dataset(features, ds.labels), ("nldd",), 3, 0)
        assert str(err.value) == ("fold 0: standardised feature value "
                                  "overflows in data row 17")

    def test_single_method_returns_pair(self):
        ds = generate_synthetic(60, 4, 3, 0.7, 0.3, seed=0)
        results = cross_validate(ds, ("br",), k=3, seed=0)
        assert list(results) == ["br"]
        reports, mean = results["br"]
        assert len(reports) == 3 and mean.n_instances == 60

    def test_unknown_method_in_batch(self):
        ds = generate_synthetic(30, 4, 3, 0.7, 0.3, seed=2)
        with pytest.raises(ValueError, match="rakel"):
            cross_validate(ds, ("br", "rakel"), k=3, seed=0)
