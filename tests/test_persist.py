import dataclasses
import json

import numpy as np
import pytest

from nldd.br import BRModel, br_fit, br_predict, br_predict_proba_matrix
from nldd.data import DataError, Dataset
from nldd.evaluate import generate_synthetic
from nldd.learner import ConstantProbModel
from nldd.model import nldd_train, predict_with_confidence
from nldd.persist import FORMAT_VERSION, _br_doc, load_model, save_model


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


def test_save_deterministic_bytes(dataset, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(nldd_train(dataset, seed=4), a)
    save_model(nldd_train(dataset, seed=4), b)
    assert open(a, "rb").read() == open(b, "rb").read()


def save_model_json_dump(model, path):
    """Oracle: the whole document built with lists, then one json.dump."""
    if isinstance(model, BRModel):
        doc = {"format_version": FORMAT_VERSION, "method": "br",
               "br": _br_doc(model)}
    else:
        doc = {
            "format_version": FORMAT_VERSION,
            "method": "nldd",
            "br": _br_doc(model.br),
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


def _non_finite_rows(model):
    features = model.train_features_std.copy()
    features[0, :3] = [np.nan, np.inf, -np.inf]
    return dataclasses.replace(model, train_features_std=features)


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


def _inf_weight(model):
    weights = model.classifiers[0].weights.copy()
    weights[1] = np.inf
    classifiers = [dataclasses.replace(model.classifiers[0], weights=weights),
                   *model.classifiers[1:]]
    return dataclasses.replace(model, classifiers=classifiers)


def _nan_coefficient(model):
    return dataclasses.replace(model, fit=dataclasses.replace(model.fit,
                                                              beta2=np.nan))


@pytest.mark.parametrize("make, name", [
    (lambda ds: _non_finite_rows(nldd_train(ds, seed=2)), "train_features_std"),
    (lambda ds: _inf_weight(br_fit(ds)), "classifier weights"),
    (lambda ds: _nan_coefficient(nldd_train(ds, seed=2)), "coefficients"),
], ids=["train_features_std", "br_weight", "coefficient"])
def test_non_finite_model_not_saved(dataset, tmp_path, make, name):
    # load_model refuses every such value, so no file is written.
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match=f"whose {name} is not finite"):
        save_model(make(dataset), str(path))
    assert not path.exists()


def _first_classifier(model, edit):
    """``model`` with its BR's first classifier replaced by ``edit(it)``."""
    br = model if isinstance(model, BRModel) else model.br
    br = dataclasses.replace(br, classifiers=[edit(br.classifiers[0]),
                                              *br.classifiers[1:]])
    return br if isinstance(model, BRModel) else dataclasses.replace(model, br=br)


@pytest.mark.parametrize("method", ["br", "nldd"])
@pytest.mark.parametrize("edit, message", [
    *((lambda clf, p=p: ConstantProbModel(p=p), r"p must be a probability")
      for p in (np.nan, -0.25, 1.5)),
    *((lambda clf, lam=lam: dataclasses.replace(clf, lam=lam),
       r"lam must be a finite number > 0")
      for lam in (np.inf, np.nan, 0.0, -1.0)),
], ids=["p_nan", "p_negative", "p_above_1",
        "lam_inf", "lam_nan", "lam_zero", "lam_negative"])
def test_classifier_that_load_refuses_not_saved(dataset, tmp_path, method,
                                                edit, message):
    # load_model refuses a constant classifier's p outside [0, 1] and a lam
    # that is not finite and > 0; save_model refuses them before it opens
    # the file, so no file is written.
    model = br_fit(dataset) if method == "br" else nldd_train(dataset, seed=2)
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match=message):
        save_model(_first_classifier(model, edit), str(path))
    assert not path.exists()


def test_unknown_format_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version":99,"method":"br"}')
    with pytest.raises(DataError, match="format_version"):
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
])
def test_malformed_nldd_model_rejected(dataset, tmp_path, edit, message):
    doc = _nldd_doc(dataset, tmp_path)
    edit(doc)
    with pytest.raises(DataError, match=message):
        _load_doc(doc, tmp_path)


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
