import dataclasses
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nldd.br import BRModel, br_fit, br_predict, br_predict_proba_matrix
from nldd.data import DataError, Dataset, StandardizationStats
from nldd.evaluate import generate_synthetic
from nldd.learner import ConstantProbModel, LinearProbModel
from nldd.model import BinomialFit, NlddModel, nldd_train, predict_with_confidence
from nldd.persist import FORMAT_VERSION, load_model, save_model


@pytest.fixture
def dataset():
    return generate_synthetic(120, 5, 3, 0.8, 0.3, seed=0)


def test_br_round_trip_bit_exact(dataset, tmp_path):
    model = br_fit(dataset)
    path = str(tmp_path / "br.json")
    save_model(model, path)
    method, back = load_model(path)
    assert method == "br"
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(dataset.d)[None]
        assert np.array_equal(br_predict_proba_matrix(model, x),
                              br_predict_proba_matrix(back, x))


def test_nldd_round_trip_bit_exact(dataset, tmp_path):
    model = nldd_train(dataset, seed=2)
    path = str(tmp_path / "m.json")
    save_model(model, path)
    method, back = load_model(path)
    assert method == "nldd"
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.standard_normal(dataset.d)[None]
        pa, ta = predict_with_confidence(model, x)
        pb, tb = predict_with_confidence(back, x)
        assert np.array_equal(pa, pb)
        assert np.array_equal(ta, tb)


@pytest.mark.parametrize("method", ["br", "nldd"])
def test_constant_label_column_round_trip(dataset, tmp_path, method):
    # A label column that never varies is saved as a constant classifier.
    labels = dataset.labels.copy()
    labels[:, 1] = 1
    data = Dataset(dataset.features, labels)
    model = br_fit(data) if method == "br" else nldd_train(data, seed=2)
    path = str(tmp_path / "m.json")
    save_model(model, path)
    loaded, back = load_model(path)
    assert loaded == method
    br, br_back = (model, back) if method == "br" else (model.br, back.br)
    assert isinstance(br_back.classifiers[1], ConstantProbModel)
    x = np.random.default_rng(5).standard_normal((50, dataset.d))
    assert (br_predict_proba_matrix(br_back, x).tobytes()
            == br_predict_proba_matrix(br, x).tobytes())
    if method == "br":
        assert br_predict(back, x).tobytes() == br_predict(model, x).tobytes()
    else:
        (want, want_theta), (got, got_theta) = (
            predict_with_confidence(m, x) for m in (model, back))
        assert got.tobytes() == want.tobytes()
        assert got_theta.tobytes() == want_theta.tobytes()


def test_tuples_load_as_lists(dataset, tmp_path):
    # json writes a tuple of classifiers or label names as a list.
    model = br_fit(dataset)
    path = str(tmp_path / "br.json")
    save_model(dataclasses.replace(model, classifiers=tuple(model.classifiers),
                                   label_names=tuple(model.label_names)), path)
    _assert_same_bits(model, load_model(path)[1])


def test_save_deterministic_bytes(dataset, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(nldd_train(dataset, seed=4), a)
    save_model(nldd_train(dataset, seed=4), b)
    assert open(a, "rb").read() == open(b, "rb").read()


def _br_json(br):
    return {
        "stats": {"means": br.stats.means.tolist(),
                  "sds": br.stats.sds.tolist()},
        "classifiers": [
            {"type": "constant", "p": clf.p}
            if isinstance(clf, ConstantProbModel) else
            {"type": "linear", "weights": clf.weights.tolist(), "lam": clf.lam,
             "converged": clf.converged, "iterations": clf.iterations}
            for clf in br.classifiers],
        "label_names": br.label_names,
    }


def save_model_json_dump(model, path):
    """Oracle: the whole document built with lists from the model's fields,
    then one json.dump."""
    if isinstance(model, BRModel):
        doc = {"format_version": FORMAT_VERSION, "method": "br",
               "br": _br_json(model)}
    else:
        doc = {
            "format_version": FORMAT_VERSION,
            "method": "nldd",
            "br": _br_json(model.br),
            "fit": {"beta0": model.fit.beta0, "beta1": model.fit.beta1,
                    "beta2": model.fit.beta2, "converged": model.fit.converged,
                    "iterations": model.fit.iterations,
                    "final_gradient_norm": model.fit.final_gradient_norm},
            "train_features_std": model.train_features_std.tolist(),
            "train_labelsets": model.train_labelsets.tolist(),
            "pair_count": model.pair_count,
            "distance_ops": model.distance_ops,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def _edge_rows(model):
    features = model.train_features_std.copy()
    features[0, :5] = [-0.0, 5e-324, 1e308, 0.1, 2.0]
    features[1, :5] = [-5e-324, -1e308, 1e-7, 1e16, 123456789.0]
    return dataclasses.replace(model, train_features_std=features)


def _one_row_one_label(model):
    br = dataclasses.replace(model.br, classifiers=model.br.classifiers[:1],
                             label_names=model.br.label_names[:1])
    return dataclasses.replace(model, br=br,
                               train_features_std=model.train_features_std[:1],
                               train_labelsets=model.train_labelsets[:1, :1])


@pytest.mark.parametrize("make", [
    lambda ds: br_fit(ds),
    lambda ds: nldd_train(ds, seed=2),
    lambda ds: _edge_rows(nldd_train(ds, seed=2)),
    lambda ds: _one_row_one_label(nldd_train(ds, seed=2)),
], ids=["br", "nldd", "edge_floats", "one_row_one_label"])
def test_save_matches_json_dump_bytes(dataset, tmp_path, make):
    model = make(dataset)
    streamed, dumped = tmp_path / "streamed.json", tmp_path / "dumped.json"
    save_model(model, str(streamed))
    save_model_json_dump(model, str(dumped))
    assert streamed.read_bytes() == dumped.read_bytes()


def _first_classifier(model, edit):
    """``model`` with its BR's first classifier replaced by ``edit(it)``."""
    br = model if isinstance(model, BRModel) else model.br
    br = dataclasses.replace(br, classifiers=[edit(br.classifiers[0]),
                                              *br.classifiers[1:]])
    return br if isinstance(model, BRModel) else dataclasses.replace(model, br=br)


def _br_of(model, **changes):
    """``model``, or an NlddModel's BR, with ``changes`` to its fields."""
    if isinstance(model, BRModel):
        return dataclasses.replace(model, **changes)
    return dataclasses.replace(model, br=dataclasses.replace(model.br, **changes))


def _replaced_in(model, name, index, value):
    """``model`` with a copy of its array field ``name``, ``index`` set."""
    array = getattr(model, name).copy()
    array[index] = value
    return dataclasses.replace(model, **{name: array})


def _assert_not_saved(model, tmp_path, message):
    """save_model refuses ``model`` with a ValueError whose message is load's
    for the same value, before it opens the file."""
    path = tmp_path / "m.json"
    with pytest.raises(ValueError) as info:
        save_model(model, str(path))
    assert type(info.value) is ValueError
    assert str(info.value) == message
    assert not path.exists()


@pytest.mark.parametrize("make, message", [
    (lambda nldd, br: _br_of(nldd, label_names=["l1", 2, "l3"]),
     "label_names must be a list of 3 strings, one per classifier"),
    (lambda nldd, br: _br_of(nldd, label_names=["l1", "l2"]),
     "label_names must be a list of 3 strings, one per classifier"),
    (lambda nldd, br: _replaced_in(nldd, "train_labelsets", (3, 1), 2),
     "train_labelsets entries must be 0 or 1"),
    (lambda nldd, br: _first_classifier(nldd, lambda clf: dataclasses.replace(
        clf, weights=clf.weights[:-1])),
     "classifier has 5 weights for 5 features (expected 6)"),
    (lambda nldd, br: dataclasses.replace(
        nldd, train_labelsets=nldd.train_labelsets[:-5]),
     "120 feature rows but 115 labelset rows"),
    (lambda nldd, br: dataclasses.replace(
        nldd, train_features_std=nldd.train_features_std[:, :-1]),
     "train_features_std has 4 columns for 5 features"),
    (lambda nldd, br: dataclasses.replace(nldd,
                                          train_features_std=np.empty((0, 5))),
     "train_features_std must be a non-empty 2-D list"),
    (lambda nldd, br: _br_of(nldd, stats=StandardizationStats(
        nldd.br.stats.means, nldd.br.stats.sds[:-1])), "5 means but 4 sds"),
    (lambda nldd, br: _br_of(br, classifiers=[]),
     "classifiers must be a non-empty list"),
    (lambda nldd, br: dataclasses.replace(nldd, pair_count=np.int64(7)),
     "pair_count must be an integer"),
    (lambda nldd, br: dataclasses.replace(nldd, pair_count=None),
     "pair_count must be an integer"),
    (lambda nldd, br: _first_classifier(nldd, lambda clf: dataclasses.replace(
        clf, converged=np.bool_(True))), "converged must be true or false"),
    (lambda nldd, br: _first_classifier(br, lambda clf: dataclasses.replace(
        clf, iterations=3.0)), "iterations must be an integer"),
    (lambda nldd, br: dataclasses.replace(nldd, fit=dataclasses.replace(
        nldd.fit, iterations=True)), "iterations must be an integer"),
    (lambda nldd, br: _replaced_in(nldd, "train_features_std", (0, slice(3)),
                                   [np.nan, np.inf, -np.inf]),
     "train_features_std must hold finite numbers only"),
    (lambda nldd, br: _first_classifier(br, lambda clf: _replaced_in(
        clf, "weights", 1, np.inf)),
     "classifier weights must hold finite numbers only"),
    (lambda nldd, br: dataclasses.replace(nldd, fit=dataclasses.replace(
        nldd.fit, beta2=np.nan)), "beta2 must be a finite real number"),
    # The writer would put True and False, which are not JSON, in the file.
    (lambda nldd, br: dataclasses.replace(
        nldd, train_labelsets=nldd.train_labelsets.astype(bool)),
     "train_labelsets is not a numeric array"),
], ids=["label_name_int", "too_few_label_names", "labelset_entry_2",
        "short_weights", "mismatched_rows", "mismatched_feature_columns",
        "empty_train_features_std", "one_sd_short", "br_without_classifiers",
        "pair_count_numpy_int", "pair_count_none", "converged_numpy_bool",
        "iterations_float", "fit_iterations_bool", "train_features_std_nan",
        "br_weight_inf", "coefficient_nan", "labelset_bools"])
def test_model_that_load_refuses_not_saved(dataset, tmp_path, make, message):
    model = make(nldd_train(dataset, seed=2), br_fit(dataset))
    _assert_not_saved(model, tmp_path, message)


@pytest.mark.parametrize("method", ["br", "nldd"])
@pytest.mark.parametrize("edit, message", [
    *((lambda clf, p=p: ConstantProbModel(p=p), "p must be a probability in [0, 1]")
      for p in (np.nan, -0.25, 1.5)),
    *((lambda clf, lam=lam: dataclasses.replace(clf, lam=lam),
       "lam must be a finite number > 0")
      for lam in (np.inf, np.nan, 0.0, -1.0)),
], ids=["p_nan", "p_negative", "p_above_1",
        "lam_inf", "lam_nan", "lam_zero", "lam_negative"])
def test_classifier_that_load_refuses_not_saved(dataset, tmp_path, method,
                                                edit, message):
    model = br_fit(dataset) if method == "br" else nldd_train(dataset, seed=2)
    _assert_not_saved(_first_classifier(model, edit), tmp_path, message)


def test_save_refuses_an_object_that_is_not_a_model(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(TypeError, match="^cannot serialize dict$"):
        save_model({"method": "br"}, str(path))
    assert not path.exists()


def test_unknown_format_version_rejected(tmp_path):
    # true and 1.0 equal 1 in Python but are no format version.
    path = tmp_path / "bad.json"
    for version in ("99", "true", "1.0"):
        path.write_text(f'{{"format_version":{version},"method":"br"}}')
        with pytest.raises(DataError, match="unsupported format_version"):
            load_model(str(path))


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(DataError):
        load_model(str(path))


def _nldd_doc(dataset, tmp_path):
    path = tmp_path / "m.json"
    save_model(nldd_train(dataset, seed=2), str(path))
    return json.loads(path.read_text())


def _load_doc(doc, tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return load_model(str(path))


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("fit"), "missing field 'fit'"),
    (lambda doc: doc["fit"].pop("beta2"), "missing field 'beta2'"),
    (lambda doc: doc["br"].pop("stats"), "missing field 'stats'"),
    (lambda doc: doc.pop("train_labelsets"), "missing field 'train_labelsets'"),
    (lambda doc: doc.__setitem__("train_labelsets", doc["train_labelsets"][:-5]),
     "feature rows but"),
    (lambda doc: doc.__setitem__("train_features_std",
                                 [r[:-1] for r in doc["train_features_std"]]),
     "columns for 5 features"),
    (lambda doc: doc.__setitem__("train_labelsets",
                                 [r[:-1] for r in doc["train_labelsets"]]),
     "columns for 3 classifiers"),
    (lambda doc: doc["br"]["classifiers"].pop(), "columns for 2 classifiers"),
    (lambda doc: doc["br"]["classifiers"][0]["weights"].pop(), "weights for 5"),
    (lambda doc: doc.__setitem__("train_labelsets", [[0, 1], [1]]),
     "not a numeric array"),
    (lambda doc: doc["train_labelsets"][3].__setitem__(1, 2),
     "entries must be 0 or 1"),
    (lambda doc: doc["train_labelsets"][0].__setitem__(0, 0.5),
     "entries must be 0 or 1"),
    (lambda doc: doc["fit"].__setitem__("beta1", "abc"),
     "beta1 must be a finite real number"),
    (lambda doc: doc["fit"].__setitem__("beta1", None),
     "beta1 must be a finite real number"),
    (lambda doc: doc["fit"].__setitem__("beta1", [1]),
     "beta1 must be a finite real number"),
    (lambda doc: doc["fit"].__setitem__("beta2", True),
     "beta2 must be a finite real number"),
    (lambda doc: doc["fit"].__setitem__("beta0", float("nan")),
     "beta0 must be a finite real number"),
    (lambda doc: doc["fit"].__setitem__("beta2", float("-inf")),
     "beta2 must be a finite real number"),
    (lambda doc: doc["fit"].__setitem__("beta1", 10**400),
     "beta1 must be a finite real number"),
    (lambda doc: doc["br"]["classifiers"].__setitem__(
        0, {"type": "constant", "p": "x"}), "p must be a real number"),
    (lambda doc: doc["br"]["classifiers"][1].__setitem__("lam", None),
     "lam must be a real number"),
    (lambda doc: doc["br"]["classifiers"][1].__setitem__("iterations", 2.0),
     "iterations must be an integer"),
    (lambda doc: doc["fit"].__setitem__("iterations", True),
     "iterations must be an integer"),
    (lambda doc: doc.__setitem__("pair_count", 1.5),
     "pair_count must be an integer"),
    (lambda doc: doc.__setitem__("distance_ops", "7"),
     "distance_ops must be an integer"),
    # json reads NaN and Infinity; no array or probability may hold them.
    (lambda doc: doc["br"]["stats"]["means"].__setitem__(2, float("inf")),
     "means must hold finite numbers only"),
    (lambda doc: doc["br"]["stats"]["sds"].__setitem__(0, float("nan")),
     "sds must hold finite numbers only"),
    (lambda doc: doc["br"]["classifiers"][0]["weights"].__setitem__(
        0, float("nan")), "classifier weights must hold finite numbers only"),
    (lambda doc: doc["train_features_std"][4].__setitem__(1, float("inf")),
     "train_features_std must hold finite numbers only"),
    (lambda doc: doc["br"]["classifiers"].__setitem__(
        0, {"type": "constant", "p": float("nan")}),
     "p must be a probability in"),
    (lambda doc: doc["br"].__setitem__("label_names", 5),
     "label_names must be a list of 3 strings"),
    (lambda doc: doc["br"].__setitem__("label_names", "abc"),
     "label_names must be a list of 3 strings"),
    (lambda doc: doc["br"]["label_names"].pop(),
     "label_names must be a list of 3 strings"),
    (lambda doc: doc["br"]["label_names"].__setitem__(1, 2),
     "label_names must be a list of 3 strings"),
    (lambda doc: doc["fit"].__setitem__("converged", "maybe"),
     "converged must be true or false"),
    (lambda doc: doc["fit"].__setitem__("converged", 1),
     "converged must be true or false"),
    (lambda doc: doc["br"]["classifiers"][1].__setitem__("converged", None),
     "converged must be true or false"),
    (lambda doc: doc["fit"].__setitem__("final_gradient_norm", "abc"),
     "final_gradient_norm must be a real number"),
    (lambda doc: doc["fit"].__setitem__("final_gradient_norm", False),
     "final_gradient_norm must be a real number"),
    (lambda doc: doc["br"]["classifiers"][1].__setitem__("lam", float("nan")),
     "lam must be a finite number > 0"),
    (lambda doc: doc["br"]["classifiers"][1].__setitem__("lam", float("inf")),
     "lam must be a finite number > 0"),
    (lambda doc: doc["br"]["classifiers"][1].__setitem__("lam", 0),
     "lam must be a finite number > 0"),
    (lambda doc: doc["br"]["classifiers"][1].__setitem__("lam", -1.0),
     "lam must be a finite number > 0"),
    (lambda doc: doc["br"]["classifiers"][2].__setitem__("type", "tree"),
     "unknown classifier type 'tree'"),
    (lambda doc: doc["br"]["stats"]["sds"].pop(), "5 means but 4 sds"),
    (lambda doc: doc["br"].__setitem__("classifiers", []),
     "classifiers must be a non-empty list"),
    (lambda doc: doc.__setitem__("train_features_std", []),
     "train_features_std must be a non-empty 2-D list"),
    (lambda doc: doc.__setitem__("method", "knn"), "unknown method 'knn'"),
    # An int past the float range, which json reads, is no float either.
    (lambda doc: doc["br"]["stats"]["means"].__setitem__(0, 10**400),
     "means is not a numeric array"),
    (lambda doc: doc["train_labelsets"][0].__setitem__(0, 10**400),
     "train_labelsets is not a numeric array"),
])
def test_malformed_nldd_model_rejected(dataset, tmp_path, edit, message):
    doc = _nldd_doc(dataset, tmp_path)
    edit(doc)
    with pytest.raises(DataError, match=message):
        _load_doc(doc, tmp_path)


# A list holding cells of each array field; float64 would read a cell that
# is a string or a JSON boolean as readily as a number.
_CELL_ROWS = {
    "means": lambda doc: doc["br"]["stats"]["means"],
    "sds": lambda doc: doc["br"]["stats"]["sds"],
    "classifier weights": lambda doc: doc["br"]["classifiers"][0]["weights"],
    "train_features_std": lambda doc: doc["train_features_std"][4],
    "train_labelsets": lambda doc: doc["train_labelsets"][3],
}


@pytest.mark.parametrize("field", _CELL_ROWS)
def test_string_cell_rejected(dataset, tmp_path, field):
    doc = _nldd_doc(dataset, tmp_path)
    row = _CELL_ROWS[field](doc)
    row[0] = repr(row[0])  # the same number, as a string
    with pytest.raises(DataError, match=f"{field} is not a numeric array"):
        _load_doc(doc, tmp_path)


@pytest.mark.parametrize("field", _CELL_ROWS)
def test_boolean_cell_rejected(dataset, tmp_path, field):
    doc = _nldd_doc(dataset, tmp_path)
    _CELL_ROWS[field](doc)[0] = True
    with pytest.raises(DataError, match=f"{field} is not a numeric array"):
        _load_doc(doc, tmp_path)


def test_integer_cells_load(dataset, tmp_path):
    doc = _nldd_doc(dataset, tmp_path)
    for row in _CELL_ROWS.values():
        row(doc)[0] = 1
    _, back = _load_doc(doc, tmp_path)
    for got in (back.br.stats.means, back.br.stats.sds,
                back.br.classifiers[0].weights, back.train_features_std[4],
                back.train_labelsets[3]):
        assert got[0] == 1


def test_non_finite_gradient_norm_loads(dataset, tmp_path):
    # A fit that stopped before its first gradient reports an infinite norm.
    doc = _nldd_doc(dataset, tmp_path)
    doc["fit"]["final_gradient_norm"] = float("inf")
    _, back = _load_doc(doc, tmp_path)
    assert back.fit.final_gradient_norm == float("inf")


def test_non_object_document_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(DataError, match="not a valid model file"):
        load_model(str(path))


def test_loaded_labelsets_are_int64(dataset, tmp_path):
    _, back = _load_doc(_nldd_doc(dataset, tmp_path), tmp_path)
    assert back.train_labelsets.dtype == np.int64


_FIELDS = ("means", "sds", "classifiers", "p", "weights", "lam", "converged",
           "iterations", "label_names", "beta", "fit_converged",
           "fit_iterations", "final_gradient_norm", "train_features_std",
           "train_labelsets", "pair_count", "distance_ops")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NON_FINITE = (np.nan, np.inf, -np.inf)


@st.composite
def _models(draw):
    """A BR or NLDD model from random fields, up to two of them broken: NaN
    or +-inf in an array or a coefficient, a p outside [0, 1], a lam <= 0 or
    not finite, a NumPy scalar where json needs a Python one, a bool, float
    or None where a count or flag belongs, or an array of the wrong shape."""
    nldd = draw(st.booleans())
    fields = st.sampled_from(_FIELDS if nldd else _FIELDS[:9])
    broken = {draw(fields) for _ in range(draw(st.integers(0, 2)))}

    def pick(field, good, bad):
        return draw(bad if field in broken else good)

    def real(field, good, *bad):
        return pick(field, st.one_of(good, good.map(np.float64)),
                    st.sampled_from([np.float32(0.5), np.int64(1), True, None,
                                     "1", 10**400, *bad]))

    def count(field):
        return pick(field, st.integers(-2**70, 2**70),
                    st.sampled_from([np.int64(3), 3.0, True, None]))

    def flag(field):
        return pick(field, st.booleans(),
                    st.sampled_from([np.bool_(True), 1, None]))

    def array(field, shape, dtype=np.float64, elements=_FINITE,
              bad=_NON_FINITE):
        shape, reshaped = list(shape), field in broken and draw(st.booleans())
        if reshaped:  # one axis one too short or too long
            shape[draw(st.integers(0, len(shape) - 1))] += draw(
                st.sampled_from([-1, 1]))
        arr = draw(arrays(dtype, shape, elements=elements))
        if field in broken and not reshaped and arr.size:
            arr.flat[draw(st.integers(0, arr.size - 1))] = draw(
                st.sampled_from(bad))
        return arr

    d, n_labels, n = (draw(st.integers(1, 3)) for _ in range(3))
    n_classifiers = pick("classifiers", st.just(n_labels),
                         st.sampled_from([0, n_labels + 1]))
    classifiers = [
        ConstantProbModel(p=real("p", st.floats(0, 1), np.nan, -0.5, 1.5))
        if draw(st.booleans()) else
        LinearProbModel(weights=array("weights", [d + 1]),
                        lam=real("lam", st.floats(min_value=0, exclude_min=True,
                                                  allow_infinity=False),
                                 0.0, -1.0, *_NON_FINITE),
                        converged=flag("converged"),
                        iterations=count("iterations"))
        for _ in range(n_classifiers)]
    names = pick("label_names",
                 st.lists(st.text(), min_size=n_labels, max_size=n_labels),
                 st.sampled_from([["a"] * (n_labels + 1), [1] * n_labels,
                                  "abc"[:n_labels]]))
    br = BRModel(classifiers=classifiers, label_names=names,
                 stats=StandardizationStats(array("means", [d]),
                                            array("sds", [d])))
    if not nldd:
        return br
    fit = BinomialFit(*(real("beta", _FINITE, *_NON_FINITE) for _ in range(3)),
                      converged=flag("fit_converged"),
                      iterations=count("fit_iterations"),
                      final_gradient_norm=real("final_gradient_norm",
                                               st.floats()))
    return NlddModel(
        br=br, fit=fit, train_features_std=array("train_features_std", [n, d]),
        train_labelsets=array("train_labelsets", [n, n_labels], np.int64,
                              st.integers(0, 1), (2, -1)),
        pair_count=count("pair_count"), distance_ops=count("distance_ops"))


def _assert_same_bits(want, got):
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for field in dataclasses.fields(want):
            _assert_same_bits(getattr(want, field.name), getattr(got, field.name))
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, list):
        assert len(got) == len(want)
        for a, b in zip(want, got):
            _assert_same_bits(a, b)
    else:
        assert got == want or (got != got and want != want)


@settings(max_examples=300, deadline=None)
@given(model=_models())
def test_save_refuses_or_round_trips(model):
    # save_model either refuses the model, with a ValueError and no file, or
    # writes a file that loads back to the same bits. Either way, the same
    # document written by json.dump loads back with the same outcome: load
    # refuses it with save's message, or the two files are equal.
    with tempfile.TemporaryDirectory() as tmp:
        path, dumped = os.path.join(tmp, "m.json"), os.path.join(tmp, "d.json")
        try:
            save_model(model, path)
        except ValueError as exc:
            assert not os.path.exists(path)
            refused = str(exc)
        else:
            refused = None
            method, back = load_model(path)
            assert method == ("br" if isinstance(model, BRModel) else "nldd")
            _assert_same_bits(model, back)
        try:
            save_model_json_dump(model, dumped)
        except TypeError:  # json writes no NumPy integer, bool or float32
            assert refused is not None
            return
        if refused is None:
            with open(path, "rb") as a, open(dumped, "rb") as b:
                assert a.read() == b.read()
        else:
            with pytest.raises(DataError) as info:
                load_model(dumped)
            assert str(info.value).endswith(f": malformed model file: {refused}")


# A format-1 model file written before the reader grew strict, with query
# rows and the labelsets and theta-hats (as repr) that its writer predicted
# for them: generate_synthetic(40, 3, 3, 0.8, 0.3, seed=0) trained by
# nldd_train(data, seed=0). A later reader must load it to the same bits.
_FIXTURE = Path(__file__).parent / "data" / "format1_nldd.json"


def test_format1_fixture_predicts_the_same_bits():
    method, model = load_model(str(_FIXTURE))
    assert method == "nldd"
    want = json.loads(_FIXTURE.with_name("format1_nldd_predictions.json")
                      .read_text())
    labelsets, theta = predict_with_confidence(model,
                                               np.array(want["queries"]))
    assert labelsets.tolist() == want["labelsets"]
    assert [repr(t) for t in theta.tolist()] == want["theta"]


def test_format1_fixture_rewrites_byte_for_byte(tmp_path):
    _, model = load_model(str(_FIXTURE))
    path = tmp_path / "again.json"
    save_model(model, str(path))
    assert path.read_bytes() == _FIXTURE.read_bytes()
