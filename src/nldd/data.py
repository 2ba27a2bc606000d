"""Dataset representation, file ingestion, standardization and splitting."""

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import _labelset_groups


class DataError(ValueError):
    """Malformed input data or incompatible dimensions."""


@dataclass
class Dataset:
    features: np.ndarray  # (N, d) float64
    labels: np.ndarray  # (N, L) 0/1 int
    feature_names: list = field(default_factory=list)
    label_names: list = field(default_factory=list)
    # Each row's 0-based row in the Dataset first built; subset keeps it.
    row_ids: np.ndarray = field(init=False, repr=False, compare=False)

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
            raise DataError(f"label entry at row {i + 1}, column {j + 1} is not 0/1")
        bad = ~np.isfinite(self.features)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(f"feature entry at row {i + 1}, column {j + 1} is not finite")
        if not self.feature_names:
            self.feature_names = [f"f{i + 1}" for i in range(d)]
        if not self.label_names:
            self.label_names = [f"l{i + 1}" for i in range(l)]
        if len(self.feature_names) != d:
            raise DataError("feature_names length does not match feature count")
        if len(self.label_names) != l:
            raise DataError("label_names length does not match label count")
        self.row_ids = np.arange(n)

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
        """New Dataset restricted to the given row indices; its rows keep
        their ``row_ids``."""
        idx = np.asarray(indices, dtype=np.int64)
        sub = Dataset(self.features[idx], self.labels[idx],
                      list(self.feature_names), list(self.label_names))
        sub.row_ids = self.row_ids[idx]
        return sub


@dataclass
class StandardizationStats:
    means: np.ndarray
    sds: np.ndarray


# The characters of a CSV body that np.loadtxt and float() read alike. Cells
# of other characters can differ: loadtxt strips \x1c-\x1f as whitespace,
# float() takes "1_0" and non-ASCII digits, csv.reader splits quoted cells.
_FAST_CSV_CHARS = b"0123456789+-.eE, \t\r\n"
_BITS = frozenset(("0", "1"))


def load_csv(path, label_count):
    """Load a dense CSV file; the last ``label_count`` columns are labels."""
    if label_count < 1:
        raise DataError("label_count must be >= 1")
    header, features, labels = read_dense_csv(path, label_count)
    d = len(header) - label_count
    return Dataset(features, labels, header[:d], header[d:])


def read_dense_csv(path, label_count):
    """Header, (N, d) float features and (N, label_count) 0/1 int labels.

    Feature cells are anything ``float()`` parses to a finite value; label
    cells are ``0`` or ``1`` after stripping whitespace. ``label_count``
    may be 0. Raises DataError, with the file's line number, on a malformed
    file or a non-finite feature cell, and for a negative ``label_count``.
    """
    if label_count < 0:
        raise DataError("label_count must be >= 0")
    parsed = _read_csv_fast(path, label_count)
    if parsed is None:
        parsed = _read_csv_cells(path, label_count)
    bad = ~np.isfinite(parsed[1]).all(axis=1)
    if bad.any():
        # Data row i is on line i + 2, after the header, as in the readers.
        raise DataError(f"{path}:{int(np.argmax(bad)) + 2}: non-finite feature cell")
    return parsed


def _read_csv_fast(path, label_count):
    """What ``_read_csv_cells`` returns, parsed by np.loadtxt; None for a
    file on which the two could differ, malformed files among them.

    The body streams from the file into one np.loadtxt call, each line
    checked as it is read; a line that fails stops the parse.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
            first = next(fh, None)
        except (StopIteration, UnicodeDecodeError, csv.Error):
            return None
        ncols = len(header)
        d = ncols - label_count
        # With no body line, loadtxt would warn about empty input.
        if d < 1 or first is None:
            return None
        rows = 0

        def checked_lines():
            nonlocal rows
            limit = csv.field_size_limit()
            for rows, line in enumerate(itertools.chain([first], fh), start=1):
                if not _loadtxt_reads_alike(line, label_count, limit):
                    raise ValueError("line needs the cell reader")
                yield line

        try:
            # A UnicodeDecodeError while reading is a ValueError too.
            values = np.loadtxt(checked_lines(), delimiter=",", comments=None,
                                ndmin=2)
        except ValueError:
            return None
    if values.shape != (rows, ncols):
        return None
    return (header, np.ascontiguousarray(values[:, :d]),
            values[:, d:].astype(np.int64))


def _loadtxt_reads_alike(line, label_count, limit):
    """Whether np.loadtxt reads a body line, as a ``newline=""`` file yields
    it, to the cells that ``_read_csv_cells`` reads from it."""
    # Such a file ends a line at a lone "\r", which ends a csv record but
    # not a loadtxt line; no other "\r" than that of "\r\n" can remain.
    if (line.endswith("\r") or not line.isascii()
            or line.encode("ascii").translate(None, _FAST_CSV_CHARS)):
        return False
    text = line[:-1] if line.endswith("\n") else line
    # loadtxt skips blank lines, which csv.reader reads as rows of 0 cells,
    # and has no limit on a field's length.
    if not text or text.isspace() or len(text) > limit:
        return False
    return _BITS.issuperset(map(str.strip, text.rsplit(",", label_count)[1:]))


def _text_lines(fh, path):
    """The lines of the text file ``fh``; DataError if it is not UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _csv_rows(fh, path):
    """``csv.reader``'s rows of the lines ``_text_lines`` reads; DataError,
    with the line number, for a field longer than ``csv.field_size_limit()``."""
    reader = csv.reader(_text_lines(fh, path))
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _read_csv_cells(path, label_count):
    """The cell-by-cell reader: ``csv.reader`` rows, ``float()`` per feature."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh, path)
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


def load_sparse(path, label_count, n_features=None):
    """Load the sparse format: "lbl[,lbl...] idx:val idx:val ..." per line.

    Label identifiers and feature indices are 1-based; a leading space means
    the empty labelset. Absent features are 0. The rows are ``n_features``
    wide, and a larger index is refused; without it, as wide as the largest
    index in the file.
    """
    if label_count < 1:
        raise DataError("label_count must be >= 1")
    rows = []
    max_idx = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(_text_lines(fh, path), start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            label_field, _, feat_field = line.partition(" ")
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
                if idx < 1 or n_features is not None and idx > n_features:
                    raise DataError(f"{path}:{lineno}: feature index out of range: {idx}")
                if idx in feats:
                    raise DataError(f"{path}:{lineno}: duplicate feature index {idx}")
                if not math.isfinite(val):
                    raise DataError(f"{path}:{lineno}: non-finite feature value")
                feats[idx] = val
                max_idx = max(max_idx, idx)
            rows.append((labels, feats))
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = max_idx if n_features is None else n_features
    if width == 0:
        raise DataError(f"{path}: no feature columns")
    features = np.zeros((len(rows), width))
    labels = np.zeros((len(rows), label_count), dtype=np.int64)
    for i, (labs, feats) in enumerate(rows):
        for idx, val in feats.items():
            features[i, idx - 1] = val
        for lab in labs:
            labels[i, lab - 1] = 1
    return Dataset(features, labels)


def standardize_fit(train):
    """Per-feature mean and sample (N-1) standard deviation over training rows.

    A column whose sum overflows takes its mean, and a column spread beyond
    about 1e154 (whose squared deviations overflow) its sd, from the column
    divided by its largest magnitude, and scaled back. Every other column's
    mean and sd are the plain computation's.

    Raises DataError, naming the first such column, when a standard
    deviation or a training value's deviation from the mean overflows
    (finite values near the float64 maximum)."""
    if train.n < 2:
        raise DataError("standardization needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        means = train.features.mean(axis=0)
        big = np.flatnonzero(~np.isfinite(means))
        if big.size:
            cols = train.features[:, big]
            scale = np.abs(cols).max(axis=0)
            means[big] = (cols / scale).mean(axis=0) * scale
        sds = train.features.std(axis=0, ddof=1)
        wide = np.flatnonzero(np.isfinite(means) & ~np.isfinite(sds))
        if wide.size:
            cols = train.features[:, wide]
            scale = np.abs(cols).max(axis=0)
            sds[wide] = (cols / scale).std(axis=0, ddof=1) * scale
            # x - mean, as standardize_apply forms it, must stay finite.
            ends = np.stack([cols.max(axis=0), cols.min(axis=0)]) - means[wide]
            sds[wide[~np.isfinite(ends).all(axis=0)]] = np.inf
    finite = np.isfinite(means) & np.isfinite(sds)
    if not finite.all():
        j = int(np.argmin(finite))
        raise DataError(f"feature column {j + 1} ({train.feature_names[j]}) "
                        "is too large to standardise: its standard "
                        "deviation or a deviation from the mean overflows")
    return StandardizationStats(means=means, sds=sds)


def standardize_apply(stats, features):
    """z = (x - mean)/sd per column of an (n, d) matrix; sd-zero columns
    map to all zeros."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != stats.means.shape[0]:
        raise DataError(f"feature dimension {features.shape[1]} does not match "
                        f"stats dimension {stats.means.shape[0]}")
    sds = np.where(stats.sds > 0, stats.sds, 1.0)
    z = features - stats.means
    np.divide(z, sds, out=z)
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
        "distinct_labelsets": len(_labelset_groups(data.labels)[0]),
    }
