"""Dataset representation, file ingestion, standardization and splitting."""

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Malformed input data or incompatible dimensions."""


@dataclass
class Dataset:
    features: np.ndarray  # (N, d) float64
    labels: np.ndarray  # (N, L) 0/1 int
    feature_names: list = field(default_factory=list)
    label_names: list = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise DataError("features and labels must be 2-dimensional")
        n, d = self.features.shape
        nl, l = self.labels.shape
        if n != nl:
            raise DataError(f"row count mismatch: {n} feature rows, {nl} label rows")
        if n < 1 or d < 1 or l < 1:
            raise DataError("need at least one row, one feature and one label")
        bad = (self.labels != 0) & (self.labels != 1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(f"label entry at row {i}, column {j} is not 0/1")
        bad = ~np.isfinite(self.features)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(f"feature entry at row {i}, column {j} is not finite")
        if not self.feature_names:
            self.feature_names = [f"f{i + 1}" for i in range(d)]
        if not self.label_names:
            self.label_names = [f"l{i + 1}" for i in range(l)]
        if len(self.feature_names) != d:
            raise DataError("feature_names length does not match feature count")
        if len(self.label_names) != l:
            raise DataError("label_names length does not match label count")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    @property
    def n_labels(self):
        return self.labels.shape[1]

    def subset(self, indices):
        """New Dataset restricted to the given row indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx],
                       list(self.feature_names), list(self.label_names))


@dataclass
class StandardizationStats:
    means: np.ndarray
    sds: np.ndarray


# The characters of a CSV body that np.loadtxt and float() read alike. Cells
# of other characters can differ: loadtxt strips \x1c-\x1f as whitespace,
# float() takes "1_0" and non-ASCII digits, csv.reader splits quoted cells.
_FAST_CSV_CHARS = b"0123456789+-.eE, \t\r\n"


def load_csv(path, label_count):
    """Load a dense CSV file; the last ``label_count`` columns are labels."""
    if label_count < 1:
        raise DataError("label_count must be >= 1")
    header, features, labels = read_dense_csv(path, label_count)
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        # Data row i is on line i + 2, after the header, as in the readers.
        raise DataError(f"{path}:{int(np.argmax(bad)) + 2}: non-finite feature cell")
    d = len(header) - label_count
    return Dataset(features, labels, header[:d], header[d:])


def read_dense_csv(path, label_count):
    """Header, (N, d) float features and (N, label_count) 0/1 int labels.

    Feature cells are anything ``float()`` parses; label cells are ``0`` or
    ``1`` after stripping whitespace. ``label_count`` may be 0. Raises
    DataError, with the file's line number, on a malformed file.
    """
    parsed = _read_csv_fast(path, label_count)
    if parsed is None:
        parsed = _read_csv_cells(path, label_count)
    return parsed


def _read_csv_fast(path, label_count):
    """What ``_read_csv_cells`` returns, parsed by np.loadtxt; None for a
    file on which the two could differ, malformed files among them."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
            body = fh.read()
        except (StopIteration, UnicodeDecodeError, csv.Error):
            return None
    ncols = len(header)
    d = ncols - label_count
    # Lone "\r" ends a csv record but not a loadtxt line.
    if (d < 1 or not body.isascii()
            or body.encode("ascii").translate(None, _FAST_CSV_CHARS)
            or body.count("\r") != body.count("\r\n")):
        return None
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    # loadtxt skips blank lines, which csv.reader reads as rows of 0 cells,
    # and has no limit on a field's length.
    if (not lines or not all(map(str.strip, lines))
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    if not {cell.strip() for line in lines
            for cell in line.rsplit(",", label_count)[1:]} <= {"0", "1"}:
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(lines), ncols):
        return None
    return (header, np.ascontiguousarray(values[:, :d]),
            values[:, d:].astype(np.int64))


def _read_csv_cells(path, label_count):
    """The cell-by-cell reader: ``csv.reader`` rows, ``float()`` per feature."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        ncols = len(header)
        d = ncols - label_count
        if d < 1:
            raise DataError(f"{path}: no feature columns "
                            f"(label_count={label_count}, columns={ncols})")
        feat_rows, label_rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != ncols:
                raise DataError(f"{path}:{lineno}: expected {ncols} columns, got {len(row)}")
            try:
                feats = [float(v) for v in row[:d]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric feature cell") from None
            labs = []
            for v in row[d:]:
                if v.strip() not in ("0", "1"):
                    raise DataError(f"{path}:{lineno}: label cell {v!r} not in {{0,1}}")
                labs.append(int(v))
            feat_rows.append(feats)
            label_rows.append(labs)
    if not feat_rows:
        raise DataError(f"{path}: no data rows")
    return header, np.array(feat_rows), np.array(label_rows, dtype=np.int64)


def save_csv(data, path):
    """Write a Dataset back to CSV (floats in shortest round-trip form)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.feature_names) + list(data.label_names))
        for i in range(data.n):
            row = [repr(float(v)) for v in data.features[i]]
            row += [str(int(v)) for v in data.labels[i]]
            writer.writerow(row)


def load_sparse(path, label_count):
    """Load the sparse format: "lbl[,lbl...] idx:val idx:val ..." per line.

    Label identifiers and feature indices are 1-based; a leading space means
    the empty labelset. Absent features are 0.
    """
    if label_count < 1:
        raise DataError("label_count must be >= 1")
    rows = []
    max_idx = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith(" "):
                label_field, feat_field = "", line[1:]
            else:
                parts = line.split(" ", 1)
                label_field = parts[0]
                feat_field = parts[1] if len(parts) > 1 else ""
            labels = set()
            if label_field:
                for tok in label_field.split(","):
                    try:
                        lab = int(tok)
                    except ValueError:
                        raise DataError(f"{path}:{lineno}: bad label {tok!r}") from None
                    if not 1 <= lab <= label_count:
                        raise DataError(f"{path}:{lineno}: label index out of range: {lab}")
                    labels.add(lab)
            feats = {}
            for tok in feat_field.split():
                if ":" not in tok:
                    raise DataError(f"{path}:{lineno}: bad feature token {tok!r}")
                idx_s, val_s = tok.split(":", 1)
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric token {tok!r}") from None
                if idx < 1:
                    raise DataError(f"{path}:{lineno}: feature index out of range: {idx}")
                if idx in feats:
                    raise DataError(f"{path}:{lineno}: duplicate feature index {idx}")
                feats[idx] = val
                max_idx = max(max_idx, idx)
            rows.append((labels, feats))
    if not rows:
        raise DataError(f"{path}: no data rows")
    if max_idx == 0:
        raise DataError(f"{path}: no feature columns")
    features = np.zeros((len(rows), max_idx))
    labels = np.zeros((len(rows), label_count), dtype=np.int64)
    for i, (labs, feats) in enumerate(rows):
        for idx, val in feats.items():
            features[i, idx - 1] = val
        for lab in labs:
            labels[i, lab - 1] = 1
    return Dataset(features, labels)


def standardize_fit(train):
    """Per-feature mean and sample (N-1) standard deviation over training rows."""
    if train.n < 2:
        raise DataError("standardization needs at least 2 rows")
    means = train.features.mean(axis=0)
    sds = train.features.std(axis=0, ddof=1)
    return StandardizationStats(means=means, sds=sds)


def standardize_apply(stats, features):
    """z = (x - mean)/sd per column of an (n, d) matrix; sd-zero columns
    map to all zeros."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != stats.means.shape[0]:
        raise DataError(f"feature dimension {features.shape[1]} does not match "
                        f"stats dimension {stats.means.shape[0]}")
    sds = np.where(stats.sds > 0, stats.sds, 1.0)
    z = (features - stats.means) / sds
    z[:, stats.sds == 0] = 0.0
    return z


def split_random(train, seed):
    """Seeded shuffle: ``(t1, t2)`` index arrays, the first ceil(N/2)
    indices and the rest."""
    n = train.n
    if n < 4:
        raise DataError("split needs at least 4 rows")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    half = math.ceil(n / 2)
    return perm[:half], perm[half:]


def dataset_summary(data):
    """N, d, L, label cardinality and distinct labelset count."""
    return {
        "n": data.n,
        "d": data.d,
        "labels": data.n_labels,
        "lcard": float(data.labels.sum()) / data.n,
        "distinct_labelsets": len(np.unique(data.labels, axis=0)),
    }
