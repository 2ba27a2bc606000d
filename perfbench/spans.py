"""In-memory spans around nldd's layer boundaries, installed from outside.

The traced run replaces each target function, on every ``nldd`` module that
binds it, with a wrapper that records a span (id, name, start, end, parent,
operation id) and reads counts from the call's arguments and return value.
Nothing inside ``src/nldd`` is changed. A target that no longer exists, or a
counter whose source attribute is gone, is reported as absent rather than
failing the run, so the traced run survives renames in the program's API.
"""

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

ROOT_SPAN = "cli"


def _rows_scanned(args, kwargs, result):
    # sq_dists(x, mat): one distance per (query row, matrix row) pair.
    queries, mat = np.asarray(args[0]), np.asarray(args[1])
    return (1 if queries.ndim == 1 else queries.shape[0]) * mat.shape[0]


def _bytes_computed(args, kwargs, result):
    return _rows_scanned(args, kwargs, result) * np.asarray(args[1]).shape[1] * 8


def _file_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[-1]
    return os.path.getsize(path)


def _cv_span(args, kwargs):
    method = kwargs["method"] if "method" in kwargs else args[1]
    return f"evaluate.cv.{method}"


@dataclass
class Target:
    """One function to wrap: ``module:attr``, its span name (or a function
    of the call's arguments giving it) and the counters read per call."""
    ref: str
    span: object
    counters: dict = field(default_factory=dict)
    spans: tuple = ()  # every span name the target can produce


TARGETS = [
    Target("nldd.kernels:sq_dists", "kernels.sq_dists",
           {"kernels.rows_scanned": _rows_scanned,
            "kernels.bytes_computed": _bytes_computed}),
    Target("nldd.model:nldd_train", "model.nldd_train",
           {"model.pairs": lambda a, k, r: r.pair_count,
            "model.distance_ops": lambda a, k, r: r.distance_ops}),
    Target("nldd.model:mine_pairs", "model.mine_pairs"),
    Target("nldd.model:fit_binomial_glm", "model.glm",
           {"model.glm_iterations": lambda a, k, r: r.iterations}),
    Target("nldd.model:nldd_predict", "model.predict"),
    Target("nldd.model:predict_with_confidence", "model.predict"),
    Target("nldd.br:br_predict_proba", "br.proba"),
    Target("nldd.br:br_predict_proba_matrix", "br.proba"),
    Target("nldd.br:smbr_predict", "br.smbr_predict"),
    Target("nldd.br:br_fit", "br.br_fit"),
    Target("nldd.learner:fit_logistic", "learner.fit_logistic",
           {"learner.irls_iterations": lambda a, k, r: r.iterations,
            "learner.unconverged": lambda a, k, r: int(not r.converged)}),
    Target("nldd.learner:fit_fallback", "learner.fit_fallback"),
    Target("nldd.metrics:instance_metrics", "metrics.instance"),
    Target("nldd.metrics:aggregate", "metrics.aggregate"),
    Target("nldd.evaluate:cross_validate", _cv_span,
           spans=("evaluate.cv.br", "evaluate.cv.smbr", "evaluate.cv.nldd")),
    Target("nldd.evaluate:wilcoxon_signed_rank", "evaluate.wilcoxon"),
    Target("nldd.data:load_csv", "data.load",
           {"data.rows_parsed": lambda a, k, r: r.n}),
    Target("nldd.data:load_sparse", "data.load",
           {"data.rows_parsed": lambda a, k, r: r.n}),
    Target("nldd.data:standardize_fit", "data.standardize"),
    Target("nldd.data:standardize_apply", "data.standardize"),
    Target("nldd.persist:save_model", "persist.save",
           {"persist.model_bytes": _file_bytes}),
    Target("nldd.persist:load_model", "persist.load",
           {"persist.model_bytes": _file_bytes}),
]

# Per-layer metric -> (unit, kind, source). "self" is the summed self time of
# a span name, "calls" its number of spans, "count" a counter.
PER_LAYER = {
    "kernels.sq_dists_s": ("s", "self", "kernels.sq_dists"),
    "kernels.sq_dists.calls": ("count", "calls", "kernels.sq_dists"),
    "kernels.rows_scanned": ("count", "count", "kernels.rows_scanned"),
    "kernels.bytes_computed": ("bytes", "count", "kernels.bytes_computed"),
    "model.nldd_train_s": ("s", "self", "model.nldd_train"),
    "model.mine_pairs_s": ("s", "self", "model.mine_pairs"),
    "model.mine_pairs.calls": ("count", "calls", "model.mine_pairs"),
    "model.pairs": ("count", "count", "model.pairs"),
    "model.distance_ops": ("count", "count", "model.distance_ops"),
    "model.glm_s": ("s", "self", "model.glm"),
    "model.glm_iterations": ("count", "count", "model.glm_iterations"),
    "model.glm_fallbacks": ("count", "count", "model.glm_fallbacks"),
    "model.predict_s": ("s", "self", "model.predict"),
    "model.predict.calls": ("count", "calls", "model.predict"),
    "br.proba_s": ("s", "self", "br.proba"),
    "br.smbr_predict_s": ("s", "self", "br.smbr_predict"),
    "br.smbr_predict.calls": ("count", "calls", "br.smbr_predict"),
    "br.br_fit_s": ("s", "self", "br.br_fit"),
    "br.br_fit.calls": ("count", "calls", "br.br_fit"),
    "learner.fit_logistic_s": ("s", "self", "learner.fit_logistic"),
    "learner.fit_logistic.calls": ("count", "calls", "learner.fit_logistic"),
    "learner.irls_iterations": ("count", "count", "learner.irls_iterations"),
    "learner.unconverged": ("count", "count", "learner.unconverged"),
    "learner.fallbacks": ("count", "calls", "learner.fit_fallback"),
    "metrics.instance_s": ("s", "self", "metrics.instance"),
    "metrics.instance.calls": ("count", "calls", "metrics.instance"),
    "metrics.aggregate_s": ("s", "self", "metrics.aggregate"),
    "evaluate.cv.br_s": ("s", "self", "evaluate.cv.br"),
    "evaluate.cv.smbr_s": ("s", "self", "evaluate.cv.smbr"),
    "evaluate.cv.nldd_s": ("s", "self", "evaluate.cv.nldd"),
    "evaluate.wilcoxon_s": ("s", "self", "evaluate.wilcoxon"),
    "data.load_s": ("s", "self", "data.load"),
    "data.rows_parsed": ("count", "count", "data.rows_parsed"),
    "data.standardize_s": ("s", "self", "data.standardize"),
    "persist.save_s": ("s", "self", "persist.save"),
    "persist.load_s": ("s", "self", "persist.load"),
    "persist.model_bytes": ("bytes", "count", "persist.model_bytes"),
    "cli.self_s": ("s", "self", ROOT_SPAN),
}


class Tracer:
    """Records spans and per-operation counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # (span_id, name, start_ns, end_ns, parent_id, op_id)
        self.counts = defaultdict(int)  # (op_id, counter) -> total
        self.absent = set()  # span and counter names whose source is gone
        self.op_id = None
        self._ids = itertools.count()
        self._stack = []
        self._installed = []  # (module, attr, original)

    def call(self, name, fn, args, kwargs):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    def count(self, counter, value):
        self.counts[(self.op_id, counter)] += int(value)

    def _wrapper(self, target, original):
        def wrapper(*args, **kwargs):
            name = target.span(args, kwargs) if callable(target.span) else target.span
            result = self.call(name, original, args, kwargs)
            for counter, read in target.counters.items():
                try:
                    self.count(counter, read(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError, OSError):
                    self.absent.add(counter)
            return result
        return functools.wraps(original)(wrapper)

    def install(self, targets=TARGETS):
        """Wrap every target on every loaded ``nldd`` module that binds it."""
        for target in targets:
            module_name, attr = target.ref.split(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                names = target.spans or (target.span,)
                self.absent.update(names)
                self.absent.update(target.counters)
                continue
            wrapper = self._wrapper(target, original)
            for mod in _nldd_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    def op_metrics(self, op_id):
        """Per-layer values of one operation: self times, calls and counts."""
        spans = [s for s in self.spans if s[5] == op_id]
        child_ns = defaultdict(int)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_ns, calls = defaultdict(int), defaultdict(int)
        for span_id, name, start, end, _, _ in spans:
            self_ns[name] += end - start - child_ns[span_id]
            calls[name] += 1
        out = {}
        for metric, (_, kind, source) in PER_LAYER.items():
            if kind == "self":
                out[metric] = self_ns[source] / 1e9
            elif kind == "calls":
                out[metric] = calls[source]
            else:
                out[metric] = self.counts[(op_id, source)]
        return out

    def absent_metrics(self):
        return sorted(m for m, (_, _, source) in PER_LAYER.items()
                      if source in self.absent)

    def write_spans(self, path):
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _nldd_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "nldd" or name.startswith("nldd."))]
