"""Versioned JSON persistence for fitted models."""

import json
import math
from dataclasses import asdict

import numpy as np

from .br import BRModel
from .data import DataError, StandardizationStats
from .learner import ConstantProbModel, LinearProbModel
from .model import BinomialFit, NlddModel

FORMAT_VERSION = 1


def _finite(name, values):
    """``values`` if every one is finite, as ``load_model`` requires;
    ValueError otherwise."""
    if not np.isfinite(values).all():
        raise ValueError(f"cannot save a model whose {name} is not finite")
    return values


def _stats_doc(stats):
    return {"means": _finite("means", stats.means).tolist(),
            "sds": _finite("sds", stats.sds).tolist()}


def _get(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"missing field {key!r}")
    return doc[key]


def _real(doc, key, finite=False):
    """``doc[key]`` if it is a real number (not a bool) within the float
    range, and finite when ``finite``; DataError otherwise."""
    value = _get(doc, key)
    try:  # OverflowError: an int past the float range
        if type(value) in (int, float) and (math.isfinite(value) or not finite):
            return value
    except OverflowError:
        pass
    raise DataError(f"{key} must be a {'finite ' if finite else ''}real number")


def _bool(doc, key):
    if type(_get(doc, key)) is not bool:  # nor is 0 or 1 a flag
        raise DataError(f"{key} must be true or false")
    return doc[key]


def _integer(doc, key):
    if type(_get(doc, key)) is not int:  # a bool is no count either
        raise DataError(f"{key} must be an integer")
    return doc[key]


def _array(value, name, ndim):
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(f"{name} is not a numeric array") from None
    if arr.ndim != ndim or 0 in arr.shape:
        raise DataError(f"{name} must be a non-empty {ndim}-D list")
    if not np.isfinite(arr).all():  # json reads NaN and Infinity
        raise DataError(f"{name} must hold finite numbers only")
    return arr


def _stats_from(doc):
    stats = StandardizationStats(means=_array(_get(doc, "means"), "means", 1),
                                 sds=_array(_get(doc, "sds"), "sds", 1))
    if stats.means.shape != stats.sds.shape:
        raise DataError(f"{stats.means.shape[0]} means but "
                        f"{stats.sds.shape[0]} sds")
    return stats


def _checked(clf, error):
    """``clf`` if ``load_model`` accepts its p or lam; ``error`` otherwise."""
    if isinstance(clf, ConstantProbModel) and not 0.0 <= clf.p <= 1.0:  # NaN too
        raise error("p must be a probability in [0, 1]")
    if isinstance(clf, LinearProbModel) and not (math.isfinite(clf.lam) and clf.lam > 0):
        raise error("lam must be a finite number > 0")
    return clf


def _classifier_doc(clf):
    if isinstance(_checked(clf, ValueError), ConstantProbModel):
        return {"type": "constant", "p": clf.p}
    return {"type": "linear",
            "weights": _finite("classifier weights", clf.weights).tolist(),
            "lam": clf.lam,
            "converged": clf.converged, "iterations": clf.iterations}


def _classifier_from(doc, d):
    kind = _get(doc, "type")
    if kind == "constant":
        return _checked(ConstantProbModel(p=_real(doc, "p")), DataError)
    if kind != "linear":
        raise DataError(f"unknown classifier type {kind!r}")
    weights = _array(_get(doc, "weights"), "classifier weights", 1)
    if weights.shape[0] != d + 1:
        raise DataError(f"classifier has {weights.shape[0]} weights for "
                        f"{d} features (expected {d + 1})")
    return _checked(LinearProbModel(weights=weights, lam=_real(doc, "lam"),
                                    converged=_bool(doc, "converged"),
                                    iterations=_integer(doc, "iterations")), DataError)


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
                   stats=stats, label_names=_get(doc, "label_names"))


def _named(br):
    """``br`` once its label_names are a list of one string per classifier;
    checked after the shapes, which name a missing classifier better."""
    names, n_labels = br.label_names, len(br.classifiers)
    if (not isinstance(names, list) or len(names) != n_labels
            or not all(isinstance(name, str) for name in names)):
        raise DataError(f"label_names must be a list of {n_labels} strings, "
                        "one per classifier")
    return br


def _nldd_from(doc):
    br = _br_from(_get(doc, "br"))
    fit_doc = _get(doc, "fit")
    fit = BinomialFit(*(_real(fit_doc, key, finite=True)
                        for key in ("beta0", "beta1", "beta2")),
                      converged=_bool(fit_doc, "converged"),
                      iterations=_integer(fit_doc, "iterations"),
                      final_gradient_norm=_real(fit_doc, "final_gradient_norm"))
    features = _array(_get(doc, "train_features_std"), "train_features_std", 2)
    labelsets = _array(_get(doc, "train_labelsets"), "train_labelsets", 2)
    if not np.isin(labelsets, (0, 1)).all():
        raise DataError("train_labelsets entries must be 0 or 1")
    if features.shape[0] != labelsets.shape[0]:
        raise DataError(f"{features.shape[0]} feature rows but "
                        f"{labelsets.shape[0]} labelset rows")
    if features.shape[1] != br.stats.means.shape[0]:
        raise DataError(f"train_features_std has {features.shape[1]} columns "
                        f"for {br.stats.means.shape[0]} features")
    if labelsets.shape[1] != len(br.classifiers):
        raise DataError(f"train_labelsets has {labelsets.shape[1]} columns "
                        f"for {len(br.classifiers)} classifiers")
    return NlddModel(br=_named(br), fit=fit, train_features_std=features,
                     train_labelsets=labelsets.astype(np.int64),
                     pair_count=_integer(doc, "pair_count"),
                     distance_ops=_integer(doc, "distance_ops"))


def save_model(model, path):
    """Write a BR or nearest-labelset model as a versioned JSON document.

    Raises ValueError, before the file is opened, for a model that
    ``load_model`` would refuse for one of its values."""
    if isinstance(model, BRModel):
        doc = {"format_version": FORMAT_VERSION, "method": "br",
               "br": _br_doc(model)}
    elif isinstance(model, NlddModel):
        fit = model.fit
        _finite("coefficients", (fit.beta0, fit.beta1, fit.beta2))
        doc = {
            "format_version": FORMAT_VERSION,
            "method": "nldd",
            "br": _br_doc(model.br),
            "fit": asdict(fit),
            "train_features_std": _finite("train_features_std",
                                          model.train_features_std),
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
        # repr is json's text for an int or a finite float.
        fh.write("[")
        for i, row in enumerate(value):
            fh.write(("," if i else "") + "[" + ",".join(map(repr, row.tolist())) + "]")
        fh.write("]")
    fh.write("}\n")


def load_model(path):
    """Read a model file; returns (method, model).

    Raises DataError when the file is not a model document of this format:
    a required field is missing or mistyped, or the arrays' shapes disagree.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not a valid model file: {exc}") from exc
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a valid model file: not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {version!r}")
    method = doc.get("method")
    try:
        if method == "br":
            return "br", _named(_br_from(_get(doc, "br")))
        if method == "nldd":
            return "nldd", _nldd_from(doc)
    except DataError as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from None
    raise DataError(f"{path}: unknown method {method!r}")
