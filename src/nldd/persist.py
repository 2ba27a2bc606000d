"""Versioned JSON persistence for fitted models."""

import dataclasses
import json

import numpy as np

from .br import BRModel
from .data import DataError, StandardizationStats
from .learner import ConstantProbModel, LinearProbModel
from .model import BinomialFit, NlddModel

FORMAT_VERSION = 1


def _stats_doc(stats):
    return {"means": stats.means.tolist(), "sds": stats.sds.tolist()}


def _get(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"missing field {key!r}")
    return doc[key]


def _array(value, name, ndim, dtype=np.float64):
    try:
        arr = np.array(value, dtype=dtype)
    except (TypeError, ValueError):
        raise DataError(f"{name} is not a numeric array") from None
    if arr.ndim != ndim or 0 in arr.shape:
        raise DataError(f"{name} must be a non-empty {ndim}-D list")
    return arr


def _stats_from(doc):
    stats = StandardizationStats(means=_array(_get(doc, "means"), "means", 1),
                                 sds=_array(_get(doc, "sds"), "sds", 1))
    if stats.means.shape != stats.sds.shape:
        raise DataError(f"{stats.means.shape[0]} means but "
                        f"{stats.sds.shape[0]} sds")
    return stats


def _classifier_doc(clf):
    if isinstance(clf, ConstantProbModel):
        return {"type": "constant", "p": clf.p}
    return {"type": "linear", "weights": clf.weights.tolist(), "lam": clf.lam,
            "converged": clf.converged, "iterations": clf.iterations}


def _classifier_from(doc, d):
    kind = _get(doc, "type")
    if kind == "constant":
        return ConstantProbModel(p=_get(doc, "p"))
    if kind != "linear":
        raise DataError(f"unknown classifier type {kind!r}")
    weights = _array(_get(doc, "weights"), "classifier weights", 1)
    if weights.shape[0] != d + 1:
        raise DataError(f"classifier has {weights.shape[0]} weights for "
                        f"{d} features (expected {d + 1})")
    return LinearProbModel(weights=weights, lam=_get(doc, "lam"),
                           converged=_get(doc, "converged"),
                           iterations=_get(doc, "iterations"))


def _br_doc(br):
    return {"stats": _stats_doc(br.stats),
            "classifiers": [_classifier_doc(c) for c in br.classifiers],
            "label_names": list(br.label_names)}


def _br_from(doc):
    stats = _stats_from(_get(doc, "stats"))
    classifiers = _get(doc, "classifiers")
    if not isinstance(classifiers, list) or not classifiers:
        raise DataError("classifiers must be a non-empty list")
    d = stats.means.shape[0]
    return BRModel(classifiers=[_classifier_from(c, d) for c in classifiers],
                   stats=stats, label_names=list(_get(doc, "label_names")))


def _nldd_from(doc):
    br = _br_from(_get(doc, "br"))
    fit_doc = _get(doc, "fit")
    fit_keys = [f.name for f in dataclasses.fields(BinomialFit)]
    fit = BinomialFit(**{key: _get(fit_doc, key) for key in fit_keys})
    features = _array(_get(doc, "train_features_std"), "train_features_std", 2)
    labelsets = _array(_get(doc, "train_labelsets"), "train_labelsets", 2,
                       dtype=np.int64)
    if features.shape[0] != labelsets.shape[0]:
        raise DataError(f"{features.shape[0]} feature rows but "
                        f"{labelsets.shape[0]} labelset rows")
    if features.shape[1] != br.stats.means.shape[0]:
        raise DataError(f"train_features_std has {features.shape[1]} columns "
                        f"for {br.stats.means.shape[0]} features")
    if labelsets.shape[1] != len(br.classifiers):
        raise DataError(f"train_labelsets has {labelsets.shape[1]} columns "
                        f"for {len(br.classifiers)} classifiers")
    return NlddModel(br=br, fit=fit, train_features_std=features,
                     train_labelsets=labelsets,
                     pair_count=_get(doc, "pair_count"),
                     distance_ops=_get(doc, "distance_ops"))


def save_model(model, path):
    """Write a BR or nearest-labelset model as a versioned JSON document."""
    if isinstance(model, BRModel):
        doc = {"format_version": FORMAT_VERSION, "method": "br",
               "br": _br_doc(model)}
    elif isinstance(model, NlddModel):
        doc = {
            "format_version": FORMAT_VERSION,
            "method": "nldd",
            "br": _br_doc(model.br),
            "fit": {"beta0": model.fit.beta0, "beta1": model.fit.beta1,
                    "beta2": model.fit.beta2, "converged": model.fit.converged,
                    "iterations": model.fit.iterations,
                    "final_gradient_norm": model.fit.final_gradient_norm},
            "train_features_std": model.train_features_std,
            "train_labelsets": model.train_labelsets,
            "pair_count": model.pair_count,
            "distance_ops": model.distance_ops,
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        _write_doc(fh, doc)


def _write_doc(fh, doc):
    """Write ``doc`` as ``json.dump(doc, fh, separators=(",", ":"))`` would
    with its arrays as lists, and a newline; the 2-D arrays go row by row,
    so the whole document is never held as text."""
    sep = "{"
    for key, value in doc.items():
        fh.write(sep + json.dumps(key) + ":")
        sep = ","
        if not isinstance(value, np.ndarray):
            fh.write(json.dumps(value, separators=(",", ":")))
            continue
        # repr is json's text for an int or a finite float; json.dumps
        # writes NaN and Infinity, which repr spells differently.
        cell = repr if np.isfinite(value).all() else json.dumps
        fh.write("[")
        for i, row in enumerate(value):
            fh.write(("," if i else "") + "[" + ",".join(map(cell, row.tolist())) + "]")
        fh.write("]")
    fh.write("}\n")


def load_model(path):
    """Read a model file; returns (method, model).

    Raises DataError when the file is not a model document of this format:
    a required field is missing, or the arrays' shapes disagree.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a valid model file: not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {version!r}")
    method = doc.get("method")
    try:
        if method == "br":
            return "br", _br_from(_get(doc, "br"))
        if method == "nldd":
            return "nldd", _nldd_from(doc)
    except DataError as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from None
    raise DataError(f"{path}: unknown method {method!r}")
