"""Versioned JSON persistence for fitted models."""

import json
import math
from dataclasses import asdict
from itertools import chain

import numpy as np

from .br import BRModel
from .data import DataError, StandardizationStats
from .learner import ConstantProbModel, LinearProbModel
from .model import BinomialFit, NlddModel

FORMAT_VERSION = 1


def _real(value, name, finite=False):
    """``value`` if it is a float or an int, not a bool or NumPy integer,
    within the float range, and finite when ``finite``; ValueError otherwise."""
    try:  # OverflowError: an int past the float range
        if ((isinstance(value, float) or type(value) is int)
                and (math.isfinite(value) or not finite)):
            return value
    except OverflowError:
        pass
    raise ValueError(f"{name} must be a {'finite ' if finite else ''}real number")


def _flag(value, name):
    if type(value) is not bool:  # nor is 0, 1 or a NumPy bool a flag
        raise ValueError(f"{name} must be true or false")


def _count(value, name):
    if type(value) is not int:  # a bool or a NumPy integer is no count either
        raise ValueError(f"{name} must be an integer")


def _array(arr, name, ndim):
    if arr.dtype.kind not in "iuf":  # repr of a bool or complex is not JSON
        raise ValueError(f"{name} is not a numeric array")
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"{name} must be a non-empty {ndim}-D list")
    if not np.isfinite(arr).all():  # json reads NaN and Infinity
        raise ValueError(f"{name} must hold finite numbers only")
    return arr


def _check(model):
    """``model``, a BRModel or an NlddModel, if ``save_model`` can write each
    of its values and ``load_model`` read it back; ValueError otherwise."""
    nldd = isinstance(model, NlddModel)
    br = model.br if nldd else model
    means = _array(br.stats.means, "means", 1)
    sds = _array(br.stats.sds, "sds", 1)
    if means.shape != sds.shape:
        raise ValueError(f"{means.shape[0]} means but {sds.shape[0]} sds")
    d, classifiers = means.shape[0], br.classifiers
    if not isinstance(classifiers, (list, tuple)) or not classifiers:
        raise ValueError("classifiers must be a non-empty list")
    for clf in classifiers:
        if isinstance(clf, ConstantProbModel):
            if not 0.0 <= _real(clf.p, "p") <= 1.0:  # NaN too
                raise ValueError("p must be a probability in [0, 1]")
            continue
        weights = _array(clf.weights, "classifier weights", 1)
        if weights.shape[0] != d + 1:
            raise ValueError(f"classifier has {weights.shape[0]} weights for "
                             f"{d} features (expected {d + 1})")
        if not (math.isfinite(_real(clf.lam, "lam")) and clf.lam > 0):
            raise ValueError("lam must be a finite number > 0")
        _flag(clf.converged, "converged")
        _count(clf.iterations, "iterations")
    if nldd:
        fit = model.fit
        for key in ("beta0", "beta1", "beta2"):
            _real(getattr(fit, key), key, finite=True)
        _flag(fit.converged, "converged")
        _count(fit.iterations, "iterations")
        _real(fit.final_gradient_norm, "final_gradient_norm")
        features = _array(model.train_features_std, "train_features_std", 2)
        labelsets = _array(model.train_labelsets, "train_labelsets", 2)
        if not np.isin(labelsets, (0, 1)).all():
            raise ValueError("train_labelsets entries must be 0 or 1")
        if features.shape[0] != labelsets.shape[0]:
            raise ValueError(f"{features.shape[0]} feature rows but "
                             f"{labelsets.shape[0]} labelset rows")
        if features.shape[1] != d:
            raise ValueError(f"train_features_std has {features.shape[1]} "
                             f"columns for {d} features")
        if labelsets.shape[1] != len(classifiers):
            raise ValueError(f"train_labelsets has {labelsets.shape[1]} columns "
                             f"for {len(classifiers)} classifiers")
        _count(model.pair_count, "pair_count")
        _count(model.distance_ops, "distance_ops")
    # After the shapes, which name a missing classifier better.
    names = br.label_names
    if (not isinstance(names, (list, tuple)) or len(names) != len(classifiers)
            or not all(isinstance(name, str) for name in names)):
        raise ValueError(f"label_names must be a list of {len(classifiers)} "
                         "strings, one per classifier")
    return model


def _get(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"missing field {key!r}")
    return doc[key]


def _floats(doc, key, name=None):
    """``doc[key]`` as a float64 array; DataError if it is not numeric or a
    cell is not a JSON number."""
    value = _get(doc, key)
    try:  # OverflowError: an int past the float range
        arr = np.array(value, dtype=np.float64)
        # float64 reads "1.5" or true as a number; save_model writes neither.
        cells = chain.from_iterable(value) if arr.ndim == 2 else value
        if arr.ndim not in (1, 2) or set(map(type, cells)) <= {float, int}:
            return arr  # _check refuses a shape other than 1-D or 2-D
    except (TypeError, ValueError, OverflowError):
        pass
    raise DataError(f"{name or key} is not a numeric array")


def _classifier_doc(clf):
    if isinstance(clf, ConstantProbModel):
        return {"type": "constant", "p": clf.p}
    return {"type": "linear", "weights": clf.weights.tolist(), "lam": clf.lam,
            "converged": clf.converged, "iterations": clf.iterations}


def _classifier_from(doc):
    kind = _get(doc, "type")
    if kind == "constant":
        return ConstantProbModel(p=_get(doc, "p"))
    if kind != "linear":
        raise DataError(f"unknown classifier type {kind!r}")
    return LinearProbModel(weights=_floats(doc, "weights", "classifier weights"),
                           lam=_get(doc, "lam"), converged=_get(doc, "converged"),
                           iterations=_get(doc, "iterations"))


def _br_doc(br):
    return {"stats": {"means": br.stats.means.tolist(),
                      "sds": br.stats.sds.tolist()},
            "classifiers": [_classifier_doc(c) for c in br.classifiers],
            "label_names": br.label_names}


def _br_from(doc):
    stats = _get(doc, "stats")
    classifiers = _get(doc, "classifiers")
    if isinstance(classifiers, list):  # _check refuses any other value
        classifiers = [_classifier_from(c) for c in classifiers]
    return BRModel(classifiers=classifiers,
                   stats=StandardizationStats(means=_floats(stats, "means"),
                                              sds=_floats(stats, "sds")),
                   label_names=_get(doc, "label_names"))


def _nldd_from(doc):
    br = _br_from(_get(doc, "br"))
    fit = _get(doc, "fit")
    keys = ("beta0", "beta1", "beta2", "converged", "iterations",
            "final_gradient_norm")
    return NlddModel(br=br, fit=BinomialFit(*(_get(fit, key) for key in keys)),
                     train_features_std=_floats(doc, "train_features_std"),
                     train_labelsets=_floats(doc, "train_labelsets"),
                     pair_count=_get(doc, "pair_count"),
                     distance_ops=_get(doc, "distance_ops"))


def save_model(model, path):
    """Write a BR or nearest-labelset model as a versioned JSON document.

    Raises ValueError, before the file is opened, for a model that
    ``load_model`` would refuse for one of its values."""
    if not isinstance(model, (BRModel, NlddModel)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    _check(model)
    if isinstance(model, BRModel):
        doc = {"format_version": FORMAT_VERSION, "method": "br",
               "br": _br_doc(model)}
    else:
        doc = {
            "format_version": FORMAT_VERSION,
            "method": "nldd",
            "br": _br_doc(model.br),
            "fit": asdict(model.fit),
            "train_features_std": model.train_features_std,
            "train_labelsets": model.train_labelsets,
            "pair_count": model.pair_count,
            "distance_ops": model.distance_ops,
        }
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
    if type(version) is not int or version != FORMAT_VERSION:  # nor true, 1.0
        raise DataError(f"{path}: unsupported format_version {version!r}")
    method = doc.get("method")
    if method not in ("br", "nldd"):
        raise DataError(f"{path}: unknown method {method!r}")
    try:  # DataError from the parsing, ValueError from _check
        model = _check(_br_from(_get(doc, "br")) if method == "br"
                       else _nldd_from(doc))
    except ValueError as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from None
    if method == "nldd":  # only once _check has found them 0 or 1
        model.train_labelsets = model.train_labelsets.astype(np.int64)
    return method, model
