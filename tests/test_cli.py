import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nldd
from nldd.cli import main
from nldd.data import Dataset, save_csv
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

    def test_holdout(self, csv_path, tmp_path):
        test = generate_synthetic(30, 5, 3, 0.8, 0.3, seed=5)
        test_path = str(tmp_path / "test.csv")
        save_csv(test, test_path)
        rc = main(["eval", "--data", csv_path, "--labels", "3",
                   "--method", "nldd", "--test", test_path])
        assert rc == 0


class TestCompare:
    def test_self_comparison_p_one(self, csv_path, tmp_path, capsys):
        rc = main(["compare", "--data", csv_path, "--labels", "3",
                   "--methods", "br,br", "--cv", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p=1.00000" in out

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

    def test_single_method_usage_error(self, csv_path):
        rc = main(["compare", "--data", csv_path, "--labels", "3",
                   "--methods", "br", "--cv", "3"])
        assert rc == 2


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
        # separate process, so that stderr is what a user would see.
        model_path = _train(csv_path, tmp_path)
        query = tmp_path / "q.csv"
        query.write_text("a,b,c,d,e\n1e6,-1e6,3,4,5\n-1e6,1e6,-1e6,4,1e6\n")
        src = os.path.dirname(os.path.dirname(nldd.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "nldd.cli", "predict",
             "--model", model_path, "--data", str(query), "--confidence"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 2

    def test_model_without_fit_exit_3(self, csv_path, tmp_path):
        model_path = _train(csv_path, tmp_path)
        doc = json.loads(open(model_path).read())
        del doc["fit"]
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        rc = main(["predict", "--model", model_path, "--data", csv_path,
                   "--labels", "3"])
        assert rc == 3

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

    def test_non_finite_training_row_exit_3(self, tmp_path, capsys):
        data = tmp_path / "nf.csv"
        data.write_text("a,b,l1,l2\n1,2,0,1\nnan,3,1,0\n2,1,1,1\n0,0,0,0\n"
                        "3,1,1,0\n1,1,0,1\n")
        for argv in (["train", "--method", "nldd", "--model", str(tmp_path / "m.json")],
                     ["eval", "--method", "smbr", "--cv", "2"]):
            rc = main(argv[:1] + ["--data", str(data), "--labels", "2"] + argv[1:])
            assert rc == 3
            assert f"{data}:3: non-finite feature cell" in capsys.readouterr().err
