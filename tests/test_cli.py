import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nldd
from nldd.cli import main
from nldd.data import Dataset, save_csv, split_random
from nldd.evaluate import generate_synthetic


@pytest.fixture
def csv_path(tmp_path):
    ds = generate_synthetic(120, 5, 3, 0.8, 0.3, seed=0)
    path = str(tmp_path / "data.csv")
    save_csv(ds, path)
    return path


def _train(csv_path, tmp_path, method="nldd", seed="0", name="m.json"):
    model_path = str(tmp_path / name)
    rc = main(["train", "--data", csv_path, "--labels", "3",
               "--method", method, "--model", model_path, "--seed", seed])
    assert rc == 0
    return model_path


class TestTrain:
    def test_writes_model_and_summary(self, csv_path, tmp_path, capsys):
        model_path = _train(csv_path, tmp_path)
        out = capsys.readouterr().out
        assert "N=120" in out and "L=3" in out and "beta1=" in out
        doc = json.loads(open(model_path).read())
        assert doc["format_version"] == 1 and doc["method"] == "nldd"

    def test_missing_labels_usage_error(self, csv_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", csv_path, "--method", "br",
                  "--model", str(tmp_path / "m.json")])
        assert err.value.code == 2

    def test_missing_file_data_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--labels", "3", "--method", "br",
                   "--model", str(tmp_path / "m.json")])
        assert rc == 3

    def test_bad_label_cell_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,l1\n1.0,2\n")
        rc = main(["train", "--data", str(bad), "--labels", "1",
                   "--method", "br", "--model", str(tmp_path / "m.json")])
        assert rc == 3

    def test_same_seed_byte_identical(self, csv_path, tmp_path):
        a = _train(csv_path, tmp_path, seed="7", name="a.json")
        b = _train(csv_path, tmp_path, seed="7", name="b.json")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_singular_hessian_training_error(self, tmp_path, capsys):
        # A duplicated feature makes the IRLS Hessian exactly singular once
        # lambda is too small to change its diagonal.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(60)
        labels = (x[:, None] + rng.standard_normal((60, 2)) > 0).astype(int)
        path = str(tmp_path / "dup.csv")
        save_csv(Dataset(np.column_stack([x, x, rng.standard_normal(60)]),
                         labels), path)
        rc = main(["train", "--data", path, "--labels", "2", "--method", "br",
                   "--lambda", "1e-300", "--model", str(tmp_path / "m.json")])
        assert rc == 4
        assert "singular Hessian" in capsys.readouterr().err

    def test_refused_t2_row_named_by_its_training_row(self, tmp_path, capsys):
        # Two cells of 1.7e308 in column 0, both in T2 at seed 0, so T1's
        # statistics stay finite and each row's standardised value
        # overflows. The first refused is the first in T2's order; the
        # error names its data row, not its position in T2.
        ds = generate_synthetic(90, 4, 3, 0.8, 0.3, seed=1)
        _, t2 = split_random(ds, 0)
        first, second = t2[6], t2[9]
        assert first != 6
        features = ds.features.copy()
        features[[first, second], 0] = 1.7e308
        path = str(tmp_path / "tiny.csv")
        save_csv(Dataset(features, ds.labels), path)
        rc = main(["train", "--data", path, "--labels", "3", "--method",
                   "nldd", "--model", str(tmp_path / "m.json")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: T2 half of the training split: standardised feature "
            f"value overflows in training row {first + 1}\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mined_distance_named_by_its_training_row(
            self, tmp_path, capsys):
        # T1's sd keeps the row's standardised value finite (1.756e308),
        # so the query boundary passes it, but its squared distances to T1
        # overflow. Training stops there, before the GLM sees an inf dx.
        ds = generate_synthetic(90, 4, 3, 0.8, 0.3, seed=1)
        features = ds.features.copy()
        features[2, 0] = 1.7e308
        path = str(tmp_path / "tiny.csv")
        save_csv(Dataset(features, ds.labels), path)
        rc = main(["train", "--data", path, "--labels", "3", "--method",
                   "nldd", "--model", str(tmp_path / "m.json"),
                   "--subsample", "0.5"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: T2 half of the training split: mined distance overflows "
            "in training row 3\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("method", ["br", "nldd"])
    @pytest.mark.parametrize("lam", ["nan", "inf"])
    @pytest.mark.filterwarnings("error")
    def test_lambda_not_finite_and_positive_usage_error(
            self, csv_path, tmp_path, capsys, method, lam):
        rc = main(["train", "--data", csv_path, "--labels", "3",
                   "--method", method, "--model", str(tmp_path / "m.json"),
                   "--lambda", lam])
        assert rc == 2
        assert "lambda must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_bad_subsample_usage_error(self, csv_path, tmp_path):
        rc = main(["train", "--data", csv_path, "--labels", "3",
                   "--method", "nldd", "--model", str(tmp_path / "m.json"),
                   "--subsample", "1.5"])
        assert rc == 2


class TestPredict:
    def test_line_count_and_content(self, csv_path, tmp_path):
        model_path = _train(csv_path, tmp_path)
        out_path = str(tmp_path / "pred.txt")
        rc = main(["predict", "--model", model_path, "--data", csv_path,
                   "--labels", "3", "--out", out_path])
        assert rc == 0
        lines = open(out_path).read().splitlines()
        assert len(lines) == 120
        for line in lines:
            assert set(line.split(",")) <= {"0", "1"}

    def test_duplicate_training_rows_are_memorized(self, csv_path, tmp_path):
        model_path = _train(csv_path, tmp_path)
        out_path = str(tmp_path / "pred.txt")
        main(["predict", "--model", model_path, "--data", csv_path,
              "--labels", "3", "--out", out_path])
        ds = generate_synthetic(120, 5, 3, 0.8, 0.3, seed=0)
        preds = np.array([[int(v) for v in line.split(",")]
                          for line in open(out_path).read().splitlines()])
        # a feature duplicate of a training row usually recovers that labelset
        assert np.mean(np.all(preds == ds.labels, axis=1)) > 0.8

    def test_confidence_column(self, csv_path, tmp_path):
        model_path = _train(csv_path, tmp_path)
        out_path = str(tmp_path / "pred.txt")
        rc = main(["predict", "--model", model_path, "--data", csv_path,
                   "--labels", "3", "--out", out_path, "--confidence"])
        assert rc == 0
        for line in open(out_path).read().splitlines():
            parts = line.split(",")
            assert len(parts) == 4
            assert 0.0 < float(parts[-1]) < 1.0

    def test_dimension_mismatch_exit_3(self, csv_path, tmp_path):
        model_path = _train(csv_path, tmp_path)
        other = generate_synthetic(10, 7, 3, 0.8, 0.3, seed=1)
        other_path = str(tmp_path / "other.csv")
        save_csv(other, other_path)
        rc = main(["predict", "--model", model_path, "--data", other_path,
                   "--labels", "3"])
        assert rc == 3

    def test_split_file_matches_whole_file(self, tmp_path):
        # Predicting a file in two parts gives the whole file's output byte
        # for byte. This model has beta1 < 0, the engine's path that keeps
        # every row of a surviving labelset.
        path = tmp_path / "tiny.csv"
        save_csv(generate_synthetic(90, 4, 3, 0.8, 0.3, seed=1), str(path))
        model_path = _train(str(path), tmp_path)
        assert json.loads(open(model_path).read())["fit"]["beta1"] < 0
        header, *rows = path.read_text().splitlines()
        outputs = []
        for name, body in (("whole", rows), ("part1", rows[:39]),
                           ("part2", rows[39:])):
            query = tmp_path / f"{name}.csv"
            query.write_text("\n".join([header] + body) + "\n")
            out_path = tmp_path / f"{name}.txt"
            rc = main(["predict", "--model", model_path, "--data", str(query),
                       "--labels", "3", "--out", str(out_path), "--confidence"])
            assert rc == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] + outputs[2]
        assert len(outputs[0].splitlines()) == 90


class TestEval:
    def test_cv_structure(self, csv_path, tmp_path, capsys):
        out_path = str(tmp_path / "report.jsonl")
        rc = main(["eval", "--data", csv_path, "--labels", "3",
                   "--method", "br", "--cv", "5", "--out", out_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("fold") == 5 and "mean" in out
        records = [json.loads(line) for line in open(out_path)]
        assert len(records) == 6
        assert records[-1]["split"] == "mean"

    def test_report_round_trip(self, csv_path, tmp_path):
        out_path = str(tmp_path / "report.jsonl")
        main(["eval", "--data", csv_path, "--labels", "3",
              "--method", "br", "--cv", "3", "--out", out_path])
        records = [json.loads(line) for line in open(out_path)]
        folds = [r for r in records if r["split"] != "mean"]
        mean = records[-1]
        for metric in ("hamming", "zero_one", "jaccard", "f_measure"):
            want = np.mean([r[metric] for r in folds])
            assert mean[metric] == pytest.approx(want)

    def test_requires_test_or_cv(self, csv_path):
        rc = main(["eval", "--data", csv_path, "--labels", "3",
                   "--method", "br"])
        assert rc == 2

    def test_refused_test_row_named_by_fold_and_data_row(self, tmp_path,
                                                         capsys):
        # Data row 17 is in fold 0's test rows, and its standardised value
        # overflows under that fold's statistics.
        ds = generate_synthetic(60, 3, 3, 0.8, 0.3, seed=1)
        features = ds.features.copy()
        features[16, 0] = 1.7e308
        path = str(tmp_path / "cv.csv")
        save_csv(Dataset(features, ds.labels), path)
        rc = main(["eval", "--data", path, "--labels", "3",
                   "--method", "nldd", "--cv", "3"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: fold 0: standardised feature value overflows in data "
            "row 17\n")

    def test_holdout(self, csv_path, tmp_path):
        test = generate_synthetic(30, 5, 3, 0.8, 0.3, seed=5)
        test_path = str(tmp_path / "test.csv")
        save_csv(test, test_path)
        rc = main(["eval", "--data", csv_path, "--labels", "3",
                   "--method", "nldd", "--test", test_path])
        assert rc == 0


class TestCompare:
    def test_duplicate_method_is_refused(self, csv_path, capsys):
        # A method compared with itself always gives p = 1.
        rc = main(["compare", "--data", csv_path, "--labels", "3",
                   "--methods", "br,smbr,br", "--cv", "3"])
        assert rc == 2
        assert "method 'br' is listed twice" in capsys.readouterr().err

    def test_repeated_data_flags_compare_dataset_means(self, csv_path,
                                                       tmp_path, capsys):
        # Each --data adds a dataset; with two, the Wilcoxon pairs are the
        # per-dataset means, one observation per dataset.
        other = str(tmp_path / "other.csv")
        save_csv(generate_synthetic(90, 5, 3, 0.6, 0.2, seed=4), other)
        out_path = str(tmp_path / "cmp.jsonl")
        rc = main(["compare", "--data", csv_path, "--data", other,
                   "--labels", "3", "--methods", "br,nldd", "--cv", "3",
                   "--out", out_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ds0" in out and "ds1" in out
        records = [json.loads(line) for line in open(out_path)]
        pairs = records[1:]
        assert len(pairs) == 4
        assert all(r["n_effective"] <= 2 and r["exact"] for r in pairs)
        # The same table as one --data flag given both files.
        capsys.readouterr()
        rc = main(["compare", "--data", csv_path, other, "--labels", "3",
                   "--methods", "br,nldd", "--cv", "3"])
        assert rc == 0
        assert capsys.readouterr().out == out

    def test_three_methods(self, csv_path, tmp_path):
        out_path = str(tmp_path / "cmp.jsonl")
        rc = main(["compare", "--data", csv_path, "--labels", "3",
                   "--methods", "br,smbr,nldd", "--cv", "3",
                   "--out", out_path])
        assert rc == 0
        records = [json.loads(line) for line in open(out_path)]
        assert "average_ranks" in records[0]
        pair_records = records[1:]
        assert len(pair_records) == 4 * 3  # 4 metrics x 3 method pairs

    def test_refused_row_names_its_file(self, csv_path, tmp_path, capsys):
        # Data row 17 of the second file is a test row of fold 0 whose
        # standardised value overflows; the error names that file.
        ds = generate_synthetic(60, 3, 3, 0.8, 0.3, seed=1)
        features = ds.features.copy()
        features[16, 0] = 1.7e308
        other = str(tmp_path / "b.csv")
        save_csv(Dataset(features, ds.labels), other)
        rc = main(["compare", "--data", csv_path, other, "--labels", "3",
                   "--methods", "br,nldd", "--cv", "3"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {other}: fold 0: standardised feature value overflows "
            "in data row 17\n")

    def test_single_method_usage_error(self, csv_path):
        rc = main(["compare", "--data", csv_path, "--labels", "3",
                   "--methods", "br", "--cv", "3"])
        assert rc == 2

    @pytest.mark.parametrize("extra, message", [
        (["--methods", "br,knn"], "unknown method 'knn'"),
        (["--methods", "br,smbr", "--subsample", "0.5"], "nldd only")])
    def test_methods_checked_before_data_is_read(self, tmp_path, capsys,
                                                 extra, message):
        rc = main(["compare", "--data", str(tmp_path / "missing.csv"),
                   "--labels", "3", "--cv", "3"] + extra)
        assert rc == 2
        assert message in capsys.readouterr().err


def test_cli_does_not_import_scipy(csv_path, tmp_path):
    # A fresh process, so that no earlier import hides one made by nldd.
    model_path = str(tmp_path / "m.json")
    runs = [["train", "--data", csv_path, "--labels", "3", "--method", "nldd",
             "--model", model_path],
            ["predict", "--data", csv_path, "--labels", "3", "--model",
             model_path, "--confidence", "--out", str(tmp_path / "p.txt")],
            ["compare", "--data", csv_path, "--labels", "3",
             "--methods", "br,smbr,nldd", "--cv", "3"]]
    script = (
        "import sys\n"
        "import nldd.cli\n"
        f"for argv in {runs!r}:\n"
        "    assert nldd.cli.main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n")
    src = os.path.dirname(os.path.dirname(nldd.__file__))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


class TestScalingAndSummary:
    def test_scaling_table(self, csv_path, tmp_path, capsys):
        out_path = str(tmp_path / "scaling.jsonl")
        rc = main(["scaling", "--data", csv_path, "--labels", "3",
                   "--fractions", "0.5,1.0", "--out", out_path])
        assert rc == 0
        records = [json.loads(line) for line in open(out_path)]
        assert len(records) == 2
        assert records[1]["distance_ops"] > records[0]["distance_ops"]

    def test_summary(self, csv_path, capsys):
        rc = main(["summary", "--data", csv_path, "--labels", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n: 120" in out and "lcard:" in out

    def test_sparse_format(self, tmp_path, capsys):
        path = tmp_path / "d.sp"
        path.write_text("1,3 2:1 5:1\n2 1:1\n 4:2\n1 3:1\n")
        rc = main(["summary", "--data", str(path), "--labels", "3",
                   "--format", "sparse"])
        assert rc == 0
        assert "n: 4" in capsys.readouterr().out


def _save_sparse(data, path, width):
    """``data`` in the sparse format, each row naming features 1..width."""
    with open(path, "w", encoding="utf-8") as fh:
        for feats, labs in zip(data.features.tolist(), data.labels):
            label_field = ",".join(str(j + 1) for j in np.flatnonzero(labs))
            cells = " ".join(f"{j + 1}:{v!r}"
                             for j, v in enumerate(feats[:width]))
            fh.write(f"{label_field} {cells}\n")


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_sparse_file_narrower_than_training(tmp_path, capsys, command):
    # Absent sparse features are 0: a file whose indices stop at 3 is padded
    # to the 5 features of the training file and its model, and gives the
    # output of the same rows with "4:0 5:0" written out. An index past 5 is
    # refused.
    train_path = str(tmp_path / "train.sp")
    _save_sparse(generate_synthetic(120, 5, 3, 0.8, 0.3, seed=0), train_path, 5)
    model_path = str(tmp_path / "m.json")
    assert main(["train", "--data", train_path, "--labels", "3", "--format",
                 "sparse", "--method", "nldd", "--model", model_path]) == 0
    if command == "predict":
        argv = ["predict", "--model", model_path, "--confidence", "--data"]
    else:
        argv = ["eval", "--data", train_path, "--method", "nldd", "--test"]
    query = generate_synthetic(40, 5, 3, 0.8, 0.3, seed=1)
    query.features[:, 3:] = 0.0
    outputs = []
    for width in (3, 5):
        query_path = str(tmp_path / f"q{width}.sp")
        _save_sparse(query, query_path, width)
        out_path = tmp_path / f"out{width}.txt"
        assert main(argv + [query_path, "--labels", "3", "--format", "sparse",
                            "--out", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    wide = tmp_path / "wide.sp"
    wide.write_text("1 1:1\n2 6:1\n")
    assert main(argv + [str(wide), "--labels", "3", "--format", "sparse"]) == 3
    assert capsys.readouterr().err == (
        f"error: {wide}:2: feature index out of range: 6\n")


_SUMMARY = ["summary", "--labels", "1", "--data"]
_SPARSE_SUMMARY = ["summary", "--labels", "3", "--format", "sparse", "--data"]
_CONSTANT_LABELS = "f1,f2,l1,l2\n" + "".join(f"{i},{i % 3},0,1\n" for i in range(8))


@pytest.mark.parametrize("name, raw, argv, rc, message", [
    ("d.csv", b"f1,l1\n\xe9,1\n", _SUMMARY, 3, "{path}: not UTF-8 text"),
    ("d.sp", b"1 1:\xe9\n", _SPARSE_SUMMARY, 3, "{path}: not UTF-8 text"),
    ("m.json", b'{"format_version":1}\xff',
     ["predict", "--data", "{dir}/unread.csv", "--model"], 3,
     "{path}: not UTF-8 text"),
    ("d.csv", b"", _SUMMARY, 3, "{path}: empty file"),
    ("d.sp", b"\n  \n", _SPARSE_SUMMARY, 3, "{path}: no data rows"),
    ("d.sp", b"1\n2,3\n", _SPARSE_SUMMARY, 3, "{path}: no feature columns"),
    ("d.csv", _CONSTANT_LABELS.encode(),
     ["train", "--labels", "2", "--method", "nldd", "--model", "{dir}/m.json",
      "--data"], 4,
     "binomial regression failed on mined pairs: degenerate losses: all 0 "
     "or all L, binomial regression is unidentifiable"),
], ids=["csv_not_utf8", "sparse_not_utf8", "model_not_utf8", "empty_csv",
        "sparse_blank_lines", "sparse_labels_only", "constant_labels"])
def test_unusable_input_file_refused(tmp_path, capsys, name, raw, argv, rc,
                                     message):
    path = tmp_path / name
    path.write_bytes(raw)
    argv = [a.format(dir=tmp_path) for a in argv] + [str(path)]
    assert main(argv) == rc
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


class TestBoundaries:
    def test_threads_flag_removed(self, csv_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", csv_path, "--labels", "3", "--method", "br",
                  "--model", str(tmp_path / "m.json"), "--threads", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["predict", "--model", "m.json", "--seed", "1"],
        ["summary", "--lambda", "1"],
        ["scaling", "--subsample", "0.5"]])
    def test_options_the_command_does_not_read_are_rejected(self, csv_path, argv):
        with pytest.raises(SystemExit) as err:
            main(argv[:1] + ["--data", csv_path, "--labels", "3"] + argv[1:])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--method", "br", "--model", "m.json", "--subsample", "1.5"],
        ["eval", "--method", "smbr", "--cv", "3", "--subsample", "1.5"],
        ["eval", "--method", "br", "--test", "TEST", "--subsample", "0.5"]])
    def test_subsample_without_nldd_usage_error(self, csv_path, tmp_path,
                                                capsys, argv):
        argv = [str(tmp_path / a) if a == "m.json" else csv_path if a == "TEST"
                else a for a in argv]
        rc = main(argv[:1] + ["--data", csv_path, "--labels", "3"] + argv[1:])
        assert rc == 2
        assert "nldd only" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_cv_subsample_error_names_no_fold(self, csv_path, capsys):
        rc = main(["eval", "--data", csv_path, "--labels", "3", "--method",
                   "smbr", "--cv", "3", "--subsample", "1.5"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: a training subsample applies to nldd only\n")

    @pytest.mark.parametrize("argv", [
        ["train", "--method", "br", "--model", "m.json"],
        ["eval", "--method", "br", "--test", "TEST"],
        ["eval", "--method", "smbr", "--test", "TEST"]])
    def test_seed_without_nldd_or_folds_usage_error(self, csv_path, tmp_path,
                                                    capsys, argv):
        # Nothing in these runs draws a random number, so a seed would
        # change nothing.
        argv = [str(tmp_path / a) if a == "m.json" else csv_path if a == "TEST"
                else a for a in argv]
        base = argv[:1] + ["--data", csv_path, "--labels", "3"] + argv[1:]
        assert main(base + ["--seed", "9"]) == 2
        assert "--seed applies to" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()
        assert main(base + ["--seed", "0"]) == 0

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_query_row_exit_3(self, csv_path, tmp_path, capsys, cell):
        model_path = _train(csv_path, tmp_path)
        query = tmp_path / "q.csv"
        query.write_text(f"a,b,c,d,e\n1,2,3,4,5\n1,{cell},3,4,5\n")
        out_path = tmp_path / "pred.txt"
        rc = main(["predict", "--model", model_path, "--data", str(query),
                   "--out", str(out_path), "--confidence"])
        assert rc == 3
        assert "query row 2" in capsys.readouterr().err
        assert not out_path.exists()

    def test_huge_feature_predicts_without_warnings(self, csv_path, tmp_path):
        # Features of +-1e6 drive logistic scores far beyond exp's range;
        # the probabilities saturate, which is nothing to warn about. A
        # feature of 1e200 overflows its squared distances to inf, the
        # full scan's value. A separate process, so that stderr is what a
        # user would see.
        model_path = _train(csv_path, tmp_path)
        query = tmp_path / "q.csv"
        query.write_text("a,b,c,d,e\n1e6,-1e6,3,4,5\n-1e6,1e6,-1e6,4,1e6\n"
                         "1e200,0,0,0,0\n")
        src = os.path.dirname(os.path.dirname(nldd.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "nldd.cli", "predict",
             "--model", model_path, "--data", str(query), "--confidence"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 3

    @pytest.mark.parametrize("row, rc, err", [
        # z = 1.7e308 / 0.897 overflows.
        ("1.7e308,0,0,0,0", 3,
         "error: standardised feature value overflows in query row 1\n"),
        # Features 1 and 3 have weights of opposite signs, and both their
        # products overflow: the scores are inf - inf.
        ("0,1.5e308,0,1.5e308,0", 3,
         "error: undefined BR probability in query row 1\n"),
        # Products overflow to one sign at most: the probabilities saturate.
        ("1e308,-1e308,0,0,0", 0, "")])
    def test_extreme_finite_query_under_warnings_as_errors(
            self, csv_path, tmp_path, row, rc, err):
        model_path = _train(csv_path, tmp_path)
        query = tmp_path / "q.csv"
        query.write_text(f"a,b,c,d,e\n{row}\n")
        src = os.path.dirname(os.path.dirname(nldd.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nldd.cli", "predict",
             "--model", model_path, "--data", str(query), "--confidence"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (rc, err)
        assert len(proc.stdout.splitlines()) == (1 if rc == 0 else 0)

    @pytest.mark.parametrize("argv, rc, message", [
        (["predict", "--model", "br.json", "--labels", "3", "--confidence"],
         3, "--confidence requires an nldd model"),
        (["predict", "--model", "nldd.json", "--format", "sparse",
          "--labels", "0"], 3, "sparse input requires --labels >= 1"),
        (["compare", "--methods", "br,nldd", "--labels", "3", "--cv", "1"],
         2, "--cv must be >= 2"),
        # Refused before any file is loaded: the second file does not exist.
        (["compare", "--methods", "br,nldd", "--labels", "3", "--cv", "1",
          "--data", "missing.csv"], 2, "--cv must be >= 2")])
    def test_option_combinations_refused(self, csv_path, tmp_path, capsys,
                                         argv, rc, message):
        methods = {"br.json": "br", "nldd.json": "nldd"}
        argv = [_train(csv_path, tmp_path, methods[a], name=a)
                if a in methods else a for a in argv]
        out_path = tmp_path / "out.txt"
        assert main(argv[:1] + ["--data", csv_path, "--out", str(out_path)]
                    + argv[1:]) == rc
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_path.exists()

    def test_model_without_fit_exit_3(self, csv_path, tmp_path):
        model_path = _train(csv_path, tmp_path)
        doc = json.loads(open(model_path).read())
        del doc["fit"]
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        rc = main(["predict", "--model", model_path, "--data", csv_path,
                   "--labels", "3"])
        assert rc == 3

    def test_non_numeric_coefficient_exit_3(self, csv_path, tmp_path, capsys):
        model_path = _train(csv_path, tmp_path)
        doc = json.loads(open(model_path).read())
        doc["fit"]["beta1"] = "abc"
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        rc = main(["predict", "--model", model_path, "--data", csv_path,
                   "--labels", "3"])
        assert rc == 3
        assert "beta1 must be a finite real number" in capsys.readouterr().err

    def test_truncated_labelsets_exit_3(self, csv_path, tmp_path):
        model_path = _train(csv_path, tmp_path)
        doc = json.loads(open(model_path).read())
        doc["train_labelsets"] = doc["train_labelsets"][:-5]
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        rc = main(["predict", "--model", model_path, "--data", csv_path,
                   "--labels", "3"])
        assert rc == 3

    def test_batch_output_matches_row_api(self, csv_path, tmp_path):
        from nldd.model import predict_with_confidence
        from nldd.persist import load_model
        model_path = _train(csv_path, tmp_path)
        out_path = str(tmp_path / "pred.txt")
        assert main(["predict", "--model", model_path, "--data", csv_path,
                     "--labels", "3", "--out", out_path, "--confidence"]) == 0
        _, model = load_model(model_path)
        ds = generate_synthetic(120, 5, 3, 0.8, 0.3, seed=0)
        want = []
        for x in ds.features:
            labelsets, thetas = predict_with_confidence(model, x[None])
            (pred,), (th,) = labelsets.tolist(), thetas.tolist()
            want.append(",".join(str(int(v)) for v in pred) + f",{th!r}")
        assert open(out_path).read().splitlines() == want

    @pytest.mark.parametrize("method", ["br", "nldd"])
    def test_overflowing_training_column_exit_3(self, tmp_path, capsys, method):
        # Five cells of 1e308 and one of -1.78e308 in column 1: its mean
        # (3.6e306) and sd (3e307) are finite, but the last cell's deviation
        # from the mean is not.
        ds = generate_synthetic(90, 4, 3, 0.8, 0.3, seed=1)
        ds.features[:6, 0] = [1e308] * 5 + [-1.78e308]
        data = str(tmp_path / "big.csv")
        save_csv(ds, data)
        rc = main(["train", "--data", data, "--labels", "3", "--method",
                   method, "--model", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        if method == "br":
            assert "feature column 1 (f1) is too large to standardise" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("method", ["br", "nldd"])
    @pytest.mark.filterwarnings("error")
    def test_wide_training_column_trains(self, tmp_path, capsys, method):
        # Cells of 1e200 and -1e200 in two T1 rows: the squared deviations
        # of column 1 overflow but its sd (about 1.5e199) does not, so the
        # column trains, and the same rows predict as queries.
        ds = generate_synthetic(90, 4, 3, 0.8, 0.3, seed=1)
        ds.features[split_random(ds, 0)[0][:2], 0] = [1e200, -1e200]
        data, model = str(tmp_path / "wide.csv"), str(tmp_path / "m.json")
        save_csv(ds, data)
        assert main(["train", "--data", data, "--labels", "3", "--method",
                     method, "--model", model]) == 0
        out = tmp_path / "p.txt"
        assert main(["predict", "--data", data, "--labels", "3", "--model",
                     model, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 90
        assert "error" not in capsys.readouterr().err

    def test_non_finite_training_row_exit_3(self, tmp_path, capsys):
        data = tmp_path / "nf.csv"
        data.write_text("a,b,l1,l2\n1,2,0,1\nnan,3,1,0\n2,1,1,1\n0,0,0,0\n"
                        "3,1,1,0\n1,1,0,1\n")
        for argv in (["train", "--method", "nldd", "--model", str(tmp_path / "m.json")],
                     ["eval", "--method", "smbr", "--cv", "2"]):
            rc = main(argv[:1] + ["--data", str(data), "--labels", "2"] + argv[1:])
            assert rc == 3
            assert f"{data}:3: non-finite feature cell" in capsys.readouterr().err
