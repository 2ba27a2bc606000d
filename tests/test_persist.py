import dataclasses
import json

import numpy as np
import pytest

from nldd.br import BRModel, br_fit, br_predict_proba_matrix
from nldd.data import DataError
from nldd.evaluate import generate_synthetic
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
    lambda ds: _non_finite_rows(nldd_train(ds, seed=2)),
], ids=["br", "nldd", "edge_floats", "one_row_one_label", "non_finite"])
def test_save_matches_json_dump_bytes(dataset, tmp_path, make):
    model = make(dataset)
    streamed, dumped = tmp_path / "streamed.json", tmp_path / "dumped.json"
    save_model(model, str(streamed))
    save_model_json_dump(model, str(dumped))
    assert streamed.read_bytes() == dumped.read_bytes()


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
])
def test_malformed_nldd_model_rejected(dataset, tmp_path, edit, message):
    doc = _nldd_doc(dataset, tmp_path)
    edit(doc)
    with pytest.raises(DataError, match=message):
        _load_doc(doc, tmp_path)


def test_non_object_document_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(DataError, match="not a valid model file"):
        load_model(str(path))


def test_loaded_labelsets_are_int64(dataset, tmp_path):
    _, back = _load_doc(_nldd_doc(dataset, tmp_path), tmp_path)
    assert back.train_labelsets.dtype == np.int64
