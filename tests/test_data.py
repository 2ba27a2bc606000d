import csv
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nldd import data as data_module
from nldd.cli import _load_features
from nldd.data import (DataError, Dataset, _labelset_groups, dataset_summary,
                       load_csv, load_sparse, read_dense_csv, save_csv,
                       split_random, standardize_apply, standardize_fit)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_partition(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "f1,f2,l1,l2\n1.0,2.0,0,1\n3.5,4.0,1,1\n0.0,-1.0,0,0\n")
        ds = load_csv(path, 2)
        assert ds.n == 3 and ds.d == 2 and ds.n_labels == 2
        assert ds.feature_names == ["f1", "f2"]
        assert ds.label_names == ["l1", "l2"]
        assert ds.labels.tolist() == [[0, 1], [1, 1], [0, 0]]

    def test_no_feature_columns(self, tmp_path):
        path = _write(tmp_path, "d.csv", "l1,l2\n0,1\n")
        with pytest.raises(DataError, match="no feature columns"):
            load_csv(path, 2)

    def test_bad_label_cell_names_line(self, tmp_path):
        path = _write(tmp_path, "d.csv", "f1,l1\n1.0,0\n2.0,2\n")
        with pytest.raises(DataError, match=":3:"):
            load_csv(path, 1)

    def test_column_count_mismatch(self, tmp_path):
        path = _write(tmp_path, "d.csv", "f1,f2,l1\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(DataError, match=":3:"):
            load_csv(path, 1)

    def test_non_numeric_feature(self, tmp_path):
        path = _write(tmp_path, "d.csv", "f1,l1\nabc,0\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path, 1)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((7, 3)),
                     rng.integers(0, 2, (7, 2)))
        path = str(tmp_path / "rt.csv")
        save_csv(ds, path)
        back = load_csv(path, 2)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


def load_csv_cells(path, label_count):
    """Oracle: the cell-by-cell reader, a csv.reader row and float() per
    feature cell, as load_csv was before its np.loadtxt path; label_count
    may be 0, which gives the features alone."""
    with open(path, "rb") as fh:
        try:
            fh.read().decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
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
    if not label_count:
        return np.array(feat_rows)
    for lineno, feats in enumerate(feat_rows, start=2):
        if not all(map(math.isfinite, feats)):
            raise DataError(f"{path}:{lineno}: non-finite feature cell")
    return Dataset(np.array(feat_rows), np.array(label_rows),
                   header[:d], header[d:])


def _outcome(read, path, label_count):
    """What ``read`` returns, as comparable bytes, or its exception."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read(path, label_count)
    except Exception as exc:  # compared by type and message
        return ("error", type(exc), str(exc))
    if isinstance(got, Dataset):
        return ("ok", got.features.dtype, got.features.shape,
                got.features.tobytes(), got.labels.dtype, got.labels.tobytes(),
                got.feature_names, got.label_names)
    return ("ok", got.dtype, got.shape, got.tobytes())


_SPECIAL_CELLS = ["0", "1", "-0", "+1", "1.0", "01", " 1 ", "1e0", "0.", "1_0",
                  "\u0661", "0x1p3", "", " ", "\t", '"1"', '"1,0"', '""', "nan",
                  "-inf", "Infinity", "1e5000", "5e-324", "#3", "abc", "\x1c1",
                  "\xa02", "0.1000000000000000055511151231257827", "1e", ".e1"]
_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(_SPECIAL_CELLS),
    st.text(alphabet="0123456789.eE+- _", max_size=6),
    st.tuples(st.sampled_from(["", " ", "\t"]), st.floats(-1e3, 1e3).map(repr),
              st.sampled_from(["", " ", "\t"])).map("".join))
_LABEL_CELLS = st.one_of(st.sampled_from(["0", "1"]), _CELLS)
_PAD = st.sampled_from(["", " ", "\t"])
_CLEAN_CELLS = st.tuples(_PAD, st.floats(allow_nan=False, allow_infinity=False)
                         .map(repr), _PAD).map("".join)
_CLEAN_LABEL_CELLS = st.tuples(_PAD, st.sampled_from(["0", "1"]), _PAD).map("".join)


@st.composite
def csv_files(draw):
    """A CSV file as bytes and its label count. Half the files hold only
    finite float and 0/1 cells; the rest draw any cell and add the blank,
    comment, short and undecodable lines that the fast reader must refer to
    the cell-by-cell reader."""
    d, n_labels = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    clean = draw(st.booleans())
    cells, label_cells = ((_CLEAN_CELLS, _CLEAN_LABEL_CELLS) if clean
                          else (_CELLS, _LABEL_CELLS))
    header = [f"f{j}" for j in range(d)] + [f"l{j}" for j in range(n_labels)]
    if draw(st.integers(0, 3)) == 0:
        header[0] = '"f,0"'
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        row = ([draw(cells) for _ in range(d)]
               + [draw(label_cells) for _ in range(n_labels)])
        if not clean and draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
    for _ in range(0 if clean else draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(["", " ", "# note", "\r"]))
        lines.insert(draw(st.integers(1, len(lines))), extra)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, "", eol + eol]))
    raw = text.encode("utf-8")
    if not clean and draw(st.integers(0, 9)) == 0:
        raw += b"\xff"
    return raw, n_labels


def _read_as_cli(path, label_count):
    """The reader a CLI call uses: ``--labels 0`` reads features alone."""
    if label_count:
        return load_csv(path, label_count)
    return _load_features(path, 0, "csv")


def _parsed(read, path, label_count):
    """``read``'s header and arrays, as comparable bytes, or its DataError."""
    try:
        header, features, labels = read(path, label_count)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", header, features.dtype, features.shape, features.tobytes(),
            labels.dtype, labels.shape, labels.tobytes())


class TestDenseCsvReader:
    """The np.loadtxt reader against the cell-by-cell oracle."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_files())
    # A non-finite cell that the fast reader parses: load_csv, not either
    # reader, refuses it.
    @example(case=(b'"f,0",f1,f2,l0,l1\n0.0,0.0,1E309,0,0\n', 2))
    def test_matches_cell_loop(self, tmp_path, case):
        raw, n_labels = case
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        path = str(path)
        expected = _outcome(load_csv_cells, path, n_labels)
        assert _outcome(_read_as_cli, path, n_labels) == expected
        if data_module._read_csv_fast(path, n_labels) is not None:
            assert (_parsed(data_module._read_csv_fast, path, n_labels)
                    == _parsed(data_module._read_csv_cells, path, n_labels))

    @pytest.mark.parametrize("label_count", [0, 2])
    def test_clean_files_take_loadtxt(self, tmp_path, label_count):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.standard_normal((30, 4)) * 10.0 ** rng.integers(-300, 300, (30, 4)),
                     rng.integers(0, 2, (30, 2)))
        path = str(tmp_path / "d.csv")
        save_csv(ds, path)
        fast = data_module._read_csv_fast(path, label_count)
        assert fast is not None
        header, features, labels = fast
        d = 6 - label_count
        assert features.flags["C_CONTIGUOUS"] and labels.dtype == np.int64
        expected = np.hstack([ds.features, ds.labels])
        assert features.tobytes() == expected[:, :d].tobytes()
        assert labels.tolist() == expected[:, d:].astype(int).tolist()

    def test_crlf_file_takes_loadtxt(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"f1,l1\r\n 2.5 ,1\r\n-0.0,0")
        assert data_module._read_csv_fast(str(path), 1) is not None
        ds = load_csv(str(path), 1)
        assert ds.features.tobytes() == np.array([[2.5], [-0.0]]).tobytes()
        assert ds.labels.tolist() == [[1], [0]]

    @pytest.mark.parametrize("raw, fast", [
        (b"f1,l1\n1.5,1\r2.5,0\n", False),  # a lone "\r" mid-file
        (b"f1,l1\r\n1.5,1\r\n2.5,0\r\n", True),  # CRLF
        (b"f1,l1\n1.5,1\n2.5,0", True),  # no final newline
        (b"f1,l1\n1.5,1\n2.5,0\n\n", False),  # a blank last line
        (b"f1,l1\n", False),  # the header alone
        ("f1,l1\n1.5,1\n\u0662.5,0\n".encode(), False),  # non-ASCII digit, last row
    ])
    def test_streamed_lines_match_cell_reader(self, tmp_path, raw, fast):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        path = str(path)
        assert (data_module._read_csv_fast(path, 1) is not None) == fast
        assert (_parsed(read_dense_csv, path, 1)
                == _parsed(data_module._read_csv_cells, path, 1))

    @pytest.mark.parametrize("spare, fast", [(0, True), (-1, False)])
    def test_line_over_field_size_limit_takes_cell_reader(self, tmp_path,
                                                          spare, fast):
        # csv.reader limits each field and loadtxt nothing, so a line longer
        # than the limit goes to the cell reader, which reads its short cells.
        line = ",".join(["0.25"] * 20) + ",1"
        path = _write(tmp_path, "d.csv",
                      ",".join(f"f{j}" for j in range(20)) + ",l1\n" + line + "\n")
        old = csv.field_size_limit(len(line) + spare)
        try:
            assert (data_module._read_csv_fast(path, 1) is not None) == fast
            got = _parsed(read_dense_csv, path, 1)
            assert got == _parsed(data_module._read_csv_cells, path, 1)
        finally:
            csv.field_size_limit(old)
        assert got[0] == "ok"

    def test_cell_over_field_size_limit_names_its_line(self, tmp_path):
        path = _write(tmp_path, "d.csv", "f1,l1\n0.25,1\n" + "1" * 11 + ",0\n")
        old = csv.field_size_limit(10)
        try:
            with pytest.raises(DataError, match=re.escape(
                    f"{path}:3: field larger than field limit (10)")):
                load_csv(path, 1)
        finally:
            csv.field_size_limit(old)

    def test_peak_memory_is_bounded(self, tmp_path):
        # The body streams into np.loadtxt; neither the file's text nor a
        # list of its lines is ever whole. At this size that peaks at 2.0x
        # the returned arrays' bytes; reading the whole body first, 6.3x.
        rng = np.random.default_rng(3)
        path = str(tmp_path / "d.csv")
        save_csv(Dataset(rng.standard_normal((2000, 50)),
                         rng.integers(0, 2, (2000, 10))), path)
        tracemalloc.start()
        try:
            got = load_csv(path, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * (got.features.nbytes + got.labels.nbytes)

    @pytest.mark.parametrize("cell, value", [
        ("1_0", 10.0), ("\u0661", 1.0), ("\xa02\u2003", 2.0), ("1e5000", None)])
    def test_cells_only_float_reads(self, tmp_path, cell, value):
        path = _write(tmp_path, "d.csv", f"f1,l1\n{cell},1\n")
        if value is None:  # parsed, then refused as not finite
            with pytest.raises(DataError, match=":2: non-finite feature cell"):
                load_csv(path, 1)
        else:
            assert load_csv(path, 1).features.tolist() == [[value]]

    @pytest.mark.parametrize("body, message", [
        ("1.0,1\n\n2.0,0\n", ":3: expected 2 columns, got 0"),
        ("\x1c1,1\n", ":2: non-numeric feature cell"),
        ("0x1p3,1\n", ":2: non-numeric feature cell"),
        ("1.0,1.0\n", ":2: label cell '1.0' not in {0,1}"),
        ("1.0,+1\n", ":2: label cell '+1' not in {0,1}"),
        ('"1.0",1\n2.0\n', ":3: expected 2 columns, got 1"),
        ("1.0\n2.0\n", ":2: expected 2 columns, got 1"),
        ("1.0,1,0\n", ":2: expected 2 columns, got 3"),
    ])
    def test_malformed_cells_keep_their_messages(self, tmp_path, body, message):
        path = _write(tmp_path, "d.csv", "f1,l1\n" + body)
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(path, 1)


class TestLoadSparse:
    def test_expansion(self, tmp_path):
        path = _write(tmp_path, "d.sp", "1,3 2:1 5:1\n2 1:1\n")
        ds = load_sparse(path, 3)
        assert ds.d == 5
        assert ds.labels[0].tolist() == [1, 0, 1]
        assert ds.features[0].tolist() == [0, 1, 0, 0, 1]

    def test_empty_labelset(self, tmp_path):
        path = _write(tmp_path, "d.sp", " 2:1\n1 1:1\n")
        ds = load_sparse(path, 3)
        assert ds.labels[0].tolist() == [0, 0, 0]

    def test_label_out_of_range(self, tmp_path):
        path = _write(tmp_path, "d.sp", "4 1:1\n")
        with pytest.raises(DataError, match="label index out of range"):
            load_sparse(path, 3)

    def test_duplicate_index(self, tmp_path):
        path = _write(tmp_path, "d.sp", "1 2:1 2:3\n")
        with pytest.raises(DataError, match="duplicate"):
            load_sparse(path, 3)

    def test_non_numeric_value(self, tmp_path):
        path = _write(tmp_path, "d.sp", "1 2:x\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_sparse(path, 3)

    @pytest.mark.parametrize("line, message", [
        ("1,x 2:1", "bad label 'x'"),
        ("1 2:1 3", "bad feature token '3'"),
        ("1 0:1", "feature index out of range: 0"),
        ("1 1:1 2:nan", "non-finite feature value"),
        ("1 2:1e999", "non-finite feature value")])
    def test_malformed_line_is_named(self, tmp_path, line, message):
        path = _write(tmp_path, "d.sp", f"2 1:1\n{line}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: {message}")):
            load_sparse(path, 3)

    def test_width_pads_rows_and_bounds_indices(self, tmp_path):
        path = _write(tmp_path, "d.sp", "1 2:1\n2 1:3\n")
        ds = load_sparse(path, 3, n_features=4)
        assert ds.features.tolist() == [[0, 1, 0, 0], [3, 0, 0, 0]]
        path = _write(tmp_path, "e.sp", "1 2:1\n2 5:1\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:2: feature index out of range: 5")):
            load_sparse(path, 3, n_features=4)

    def test_blank_line_is_skipped(self, tmp_path):
        # Skipped, but still counted in the line numbers of later errors.
        path = _write(tmp_path, "d.sp", "1 1:1\n\n  \n2 2:1\n")
        ds = load_sparse(path, 3)
        assert ds.labels.tolist() == [[1, 0, 0], [0, 1, 0]]
        assert ds.features.tolist() == [[1, 0], [0, 1]]
        path = _write(tmp_path, "e.sp", "1 1:1\n\n4 1:1\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: label index")):
            load_sparse(path, 3)


class TestStandardize:
    def test_fit_hand_values(self):
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([[0], [1]]))
        stats = standardize_fit(ds)
        assert stats.means[0] == pytest.approx(2.0)
        assert stats.sds[0] == pytest.approx(math.sqrt(2))

    def test_constant_column(self):
        ds = Dataset(np.array([[5.0], [5.0], [5.0]]),
                     np.array([[0], [1], [0]]))
        stats = standardize_fit(ds)
        assert stats.means[0] == 5.0 and stats.sds[0] == 0.0
        z = standardize_apply(stats, ds.features)
        assert np.all(z == 0.0)

    def test_apply_hand_values(self):
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([[0], [1]]))
        z = standardize_apply(standardize_fit(ds), ds.features)
        assert z[:, 0] == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_identity_stats(self):
        from nldd.data import StandardizationStats
        stats = StandardizationStats(means=np.zeros(2), sds=np.ones(2))
        x = np.array([[1.5, -2.0]])
        assert np.array_equal(standardize_apply(stats, x), x)

    def test_apply_into_out_view(self):
        # Writing into a view of a wider matrix gives the same bits as a new
        # array, zeroes sd-zero columns there too, and touches no other column.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4)) * [1.0, 1e3, 1e-3, 7.0]
        x[:, 2] = 0.5
        stats = standardize_fit(Dataset(x, rng.integers(0, 2, (30, 1))))
        wide = np.full((30, 5), 9.0)
        z = standardize_apply(stats, x, out=wide[:, 1:])
        assert z.base is wide
        assert z.tobytes() == standardize_apply(stats, x).tobytes()
        assert np.all(wide[:, 0] == 9.0) and np.all(wide[:, 3] == 0.0)

    def test_needs_two_rows(self):
        ds = Dataset(np.array([[1.0]]), np.array([[1]]))
        with pytest.raises(DataError):
            standardize_fit(ds)

    @pytest.mark.parametrize("column", [
        # The sum overflows, so the mean (8e307) is taken from the scaled
        # column; the sd (1.7e308) is finite, but the last value's deviation
        # from the mean is not.
        [1.7e308, 1.7e308, -1e308],
        # The mean (7.3e306) and the sd (1.6e308) are finite, but the first
        # value's deviation from the mean, as standardising forms it, is not.
        [-1.78e308, 1e308, 1e308],
    ])
    def test_overflowing_statistics_name_the_column(self, column):
        features = np.column_stack([[1.0, 2.0, 4.0], column])
        ds = Dataset(features, np.array([[0], [1], [0]]),
                     feature_names=["a", "big"])
        with pytest.raises(DataError, match=r"^feature column 2 \(big\) is "
                           "too large to standardise"):
            standardize_fit(ds)

    @pytest.mark.parametrize("column, mean, sd", [
        ([1.7e308, 1.7e308, 0.0], 1.7e308 / 3 * 2, 1.7e308 / 3 ** 0.5),
        ([-1.7e308, -1.7e308, -1.7e308], -1.7e308, 0.0),
    ])
    def test_column_whose_sum_overflows_trains(self, column, mean, sd):
        # The plain mean is inf; the mean is taken from the column scaled by
        # its max-abs, and the other columns keep the plain mean's bits.
        rng = np.random.default_rng(6)
        plain = rng.standard_normal((3, 2)) * [1.0, 1e300]
        features = np.column_stack([plain[:, 0], column, plain[:, 1]])
        stats = standardize_fit(Dataset(features, np.array([[0], [1], [0]])))
        want = standardize_fit(Dataset(plain, np.array([[0], [1], [0]])))
        assert stats.means[[0, 2]].tobytes() == want.means.tobytes()
        assert stats.sds[[0, 2]].tobytes() == want.sds.tobytes()
        assert stats.means[1] == pytest.approx(mean, rel=1e-15)
        assert stats.sds[1] == pytest.approx(sd, rel=1e-15)
        assert np.isfinite(standardize_apply(stats, features)).all()

    def test_overflowing_sd_names_the_column(self):
        # Scaled to [-1, 1] the sd is sqrt(2); scaled back it overflows.
        ds = Dataset(np.array([[1.0, 1.7e308], [2.0, -1.7e308]]),
                     np.array([[0], [1]]), feature_names=["a", "big"])
        with pytest.raises(DataError, match=r"^feature column 2 \(big\) is "
                           "too large to standardise"):
            standardize_fit(ds)

    @pytest.mark.parametrize("column, sd", [
        ([1e200, -1e200, 0.0], 1e200),
        ([1.7e308, -1.7e308, 0.0], 1.7e308),
        ([3e160, 1e160, 2e160], 1e160),
    ])
    def test_column_of_squared_deviations_past_the_maximum(self, column, sd):
        # The squared deviations overflow, but the sd is representable: it is
        # taken from the column scaled by its max-abs, and the other columns
        # keep the plain computation's bits.
        rng = np.random.default_rng(5)
        plain = rng.standard_normal((3, 3)) * [1.0, 1e150, 1e-3]
        features = np.column_stack([plain[:, :2], column, plain[:, 2]])
        stats = standardize_fit(Dataset(features, np.array([[0], [1], [0]])))
        want = standardize_fit(Dataset(plain, np.array([[0], [1], [0]])))
        assert stats.sds[[0, 1, 3]].tobytes() == want.sds.tobytes()
        assert stats.means[[0, 1, 3]].tobytes() == want.means.tobytes()
        assert stats.sds[2] == pytest.approx(sd, rel=1e-15)
        z = standardize_apply(stats, features)
        assert np.isfinite(z).all()
        assert z[:, 2] == pytest.approx((np.array(column) - stats.means[2]) / sd)

    def test_dimension_mismatch(self):
        ds = Dataset(np.array([[1.0], [2.0]]), np.array([[0], [1]]))
        stats = standardize_fit(ds)
        with pytest.raises(DataError):
            standardize_apply(stats, np.array([[1.0, 2.0]]))

    def test_self_standardization_property(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((40, 5)) * [1, 2, 3, 4, 5],
                     rng.integers(0, 2, (40, 2)))
        z = standardize_apply(standardize_fit(ds), ds.features)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((10, 3))
        a = standardize_fit(Dataset(feats, np.ones((10, 1), dtype=int)))
        b = standardize_fit(Dataset(feats.copy(), np.ones((10, 1), dtype=int)))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.sds, b.sds)


class TestSplitRandom:
    def _ds(self, n):
        return Dataset(np.arange(n, dtype=float)[:, None],
                       np.zeros((n, 1), dtype=int) | (np.arange(n)[:, None] % 2))

    def test_even_split(self):
        t1, t2 = split_random(self._ds(20), seed=0)
        assert len(t1) == 10 and len(t2) == 10

    def test_odd_split_ceiling(self):
        t1, t2 = split_random(self._ds(21), seed=0)
        assert len(t1) == 11 and len(t2) == 10

    def test_determinism(self):
        a = split_random(self._ds(20), seed=5)
        b = split_random(self._ds(20), seed=5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_partition_property(self):
        for seed in range(10):
            both = np.concatenate(split_random(self._ds(17), seed=seed))
            assert sorted(both.tolist()) == list(range(17))

    def test_too_small(self):
        with pytest.raises(DataError):
            split_random(self._ds(3), seed=0)


class TestSummary:
    def test_lcard(self):
        ds = Dataset(np.zeros((2, 1)), np.array([[1, 0], [1, 1]]))
        s = dataset_summary(ds)
        assert s["lcard"] == pytest.approx(1.5)
        assert s["distinct_labelsets"] == 2

    def test_all_zero(self):
        ds = Dataset(np.zeros((3, 1)), np.zeros((3, 2), dtype=int))
        s = dataset_summary(ds)
        assert s["lcard"] == 0.0 and s["distinct_labelsets"] == 1

    def test_repeated_labelset(self):
        ds = Dataset(np.zeros((4, 1)), np.tile([1, 0, 1], (4, 1)))
        assert dataset_summary(ds)["distinct_labelsets"] == 1

    def test_lcard_exact(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, (13, 4))
        ds = Dataset(np.zeros((13, 1)), labels)
        assert dataset_summary(ds)["lcard"] == labels.sum() / 13

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), n_labels=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_distinct_labelsets_equal_tuple_set(self, n, n_labels, seed):
        labels = np.random.default_rng(seed).integers(0, 2, (n, n_labels))
        ds = Dataset(np.zeros((n, 1)), labels)
        assert dataset_summary(ds)["distinct_labelsets"] == len(
            {tuple(row) for row in labels})


@st.composite
def label_matrices(draw):
    """0/1 (N, L) label matrices, N in 1..40 and L in 1..4; sometimes every
    row shares one labelset."""
    n, n_labels = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    rows = st.lists(st.integers(0, 1), min_size=n_labels, max_size=n_labels)
    if draw(st.booleans()):
        return np.array([draw(rows)] * n, dtype=np.int64)
    return np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.int64)


class TestLabelsetGroups:
    @settings(max_examples=200, deadline=None)
    @given(labels=label_matrices())
    def test_matches_unique(self, labels):
        table, order, starts, sizes = _labelset_groups(labels)
        want, inverse, counts = np.unique(labels, axis=0, return_inverse=True,
                                          return_counts=True)
        assert np.array_equal(table, want) and table.dtype == labels.dtype
        assert sizes.tolist() == counts.tolist()
        assert starts.tolist() == np.r_[0, np.cumsum(sizes)[:-1]].tolist()
        group = np.repeat(np.arange(len(sizes)), sizes)
        assert np.array_equal(group[np.argsort(order)], inverse.ravel())
        for start, size in zip(starts, sizes):
            ids = order[start:start + size]
            assert (np.diff(ids) > 0).all()
            assert (labels[ids] == table[group[start]]).all()


class TestDatasetInvariants:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([[0], [2]]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([[0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        features = np.zeros((3, 2))
        features[1, 1] = value
        with pytest.raises(DataError, match="row 2, column 2 is not finite"):
            Dataset(features, np.array([[0], [1], [0]]))

    def test_label_entry_named_one_based(self):
        labels = np.zeros((3, 2), dtype=np.int64)
        labels[2, 1] = 2
        with pytest.raises(DataError, match="^label entry at row 3, column 2 "
                                            "is not 0/1$"):
            Dataset(np.zeros((3, 1)), labels)


class TestRowIds:
    """Every Dataset knows each row's 0-based row in the Dataset first
    built, through any chain of subsets."""

    def test_built_dataset_numbers_its_rows(self):
        ds = Dataset(np.zeros((4, 1)), np.zeros((4, 1)))
        assert ds.row_ids.tolist() == [0, 1, 2, 3]
        assert "row_ids" not in repr(ds)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), draws=st.data())
    def test_nested_subsets_compose(self, n, draws):
        a = np.array(draws.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                         max_size=20)))
        b = np.array(draws.draw(st.lists(st.integers(0, len(a) - 1),
                                         min_size=1, max_size=20)))
        ds = Dataset(np.arange(n, dtype=float)[:, None],
                     np.zeros((n, 1), dtype=np.int64))
        sub = ds.subset(a).subset(b)
        assert np.array_equal(sub.row_ids, a[b])
        assert np.array_equal(sub.features[:, 0], a[b])
