"""The benchmark's workloads: inputs made in set-up, the CLI call that is
timed, and the checks made on each call's output.

Every input comes from ``generate_synthetic(n, d, L, 0.8, 0.3, seed)`` and
reaches the program only as CSV files. Why each workload exists is written
in README.md next to this file.

The prediction losses are reported relative to a baseline that the benchmark
computes itself from the data alone, so no change to the program can move it:
Binary Relevance by ordinary least squares (one linear model per label on the
raw features with an intercept, a label is 1 when its fitted value is at
least 0.5). It cancels most of how hard each seed's synthetic problem is.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from oracle import PredictOracle

CORRELATION, NOISE = 0.8, 0.3
ORACLE_SAMPLE_STEP = 40  # the oracle re-checks every 40th query row

SHAPES = {
    "train": {"n": 8000, "d": 50, "labels": 10, "holdout": 1000},
    "predict": {"n": 4000, "d": 50, "labels": 10, "queries": 2000},
    "cv_compare": {"n": 1000, "d": 20, "labels": 6, "folds": 10},
}


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs."""


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_json(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_csv(path, features, labels):
    """Dense CSV as the CLI reads it: features, then 0/1 label columns."""
    d, n_labels = features.shape[1], labels.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i + 1}" for i in range(d)]
                        + [f"l{j + 1}" for j in range(n_labels)])
        for x, y in zip(features.tolist(), labels.tolist()):
            writer.writerow([repr(v) for v in x] + [str(v) for v in y])


def read_predictions(path, n_labels):
    """Rows of ints (and a trailing theta-hat when present) from a predict file."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) not in (n_labels, n_labels + 1):
                raise ValueError(f"prediction line has {len(cells)} cells")
            rows.append(cells)
    return rows


def label_losses(pred, truth):
    """(Hamming loss, 0/1 loss) of predicted against true (n, L) labelsets."""
    wrong = pred != truth
    return float(wrong.mean()), float(wrong.any(axis=1).mean())


def lstsq_predict(train_x, train_y, query_x):
    """Least-squares Binary Relevance labelsets of ``query_x``."""
    design = np.column_stack([np.ones(len(train_x)), train_x])
    weights = np.linalg.lstsq(design, train_y, rcond=None)[0]
    fitted = np.column_stack([np.ones(len(query_x)), query_x]) @ weights
    return (fitted >= 0.5).astype(np.int64)


class Workload:
    """One timed CLI call on inputs made in set-up."""

    name = ""

    def __init__(self, shape, seed, work, cli_main):
        self.shape = shape
        self.seed = seed
        self.work = Path(work)
        self.cli_main = cli_main
        self.first_digest = None
        self.baseline = None  # least-squares BR (hamming, zero_one) losses

    def generate(self, n):
        from nldd.evaluate import generate_synthetic
        return generate_synthetic(n, self.shape["d"], self.shape["labels"],
                                  CORRELATION, NOISE, self.seed)

    def setup(self, dest):
        """Make the inputs in directory ``dest``. The timed calls use the
        ones made in ``self.work``; repeats elsewhere only measure set-up."""
        raise NotImplementedError

    def prepare_checks(self):
        """Untimed work after set-up that the output checks and the loss
        baseline need. It keeps only what the checks read, so the process
        holds little besides the program's own memory during a call."""
        raise NotImplementedError

    def argv(self):
        raise NotImplementedError

    def outputs(self):
        """Files the call writes; removed before each call so that a stale
        file from an earlier call can never pass the check."""
        raise NotImplementedError

    def rows(self):
        """Rows handled by one call, the numerator of rows_per_s."""
        raise NotImplementedError

    def check(self, stdout):
        """Problems found in the output of the call that just returned 0."""
        raise NotImplementedError

    def quality(self):
        """Losses of NLDD and of the program's own BR on the rows that
        ``self.baseline`` was scored on, each a (hamming, zero_one) pair or
        None when unavailable, and problems."""
        raise NotImplementedError

    def digests(self):
        raise NotImplementedError

    def counts(self):
        """Counts read from the persisted model, when the workload has one."""
        return {}

    def _check_model(self, path):
        """Read the saved model; keep its counts and its fit digest only."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.model_counts = {"model.pairs": doc["pair_count"],
                             "model.distance_ops": doc["distance_ops"]}
        self.fit_digest = sha256_json(doc["fit"])
        return doc

    def _same_output(self, digest):
        # The program promises byte-identical output for identical inputs.
        if self.first_digest is None:
            self.first_digest = digest
            return []
        if digest != self.first_digest:
            return [f"output digest {digest} differs from first call's "
                    f"{self.first_digest}"]
        return []


class TrainWorkload(Workload):
    """``nldd train --method nldd``: pair mining dominates, no predict."""

    name = "train"

    def __init__(self, *args):
        super().__init__(*args)
        self.train_csv = self.work / "train.csv"
        self.holdout_csv = self.work / "holdout.csv"
        self.model_path = self.work / "model.json"

    def setup(self, dest):
        n = self.shape["n"]
        data = self.generate(n + self.shape["holdout"])
        write_csv(dest / self.train_csv.name, data.features[:n], data.labels[:n])
        write_csv(dest / self.holdout_csv.name, data.features[n:], data.labels[n:])

    def prepare_checks(self):
        n = self.shape["n"]
        data = self.generate(n + self.shape["holdout"])
        self.holdout_features = data.features[n:]
        self.holdout_truth = data.labels[n:]
        self.baseline = label_losses(
            lstsq_predict(data.features[:n], data.labels[:n], data.features[n:]),
            self.holdout_truth)

    def argv(self):
        return ["train", "--data", str(self.train_csv),
                "--labels", str(self.shape["labels"]), "--method", "nldd",
                "--model", str(self.model_path), "--seed", str(self.seed)]

    def outputs(self):
        return [self.model_path]

    def rows(self):
        return self.shape["n"]

    def check(self, stdout):
        doc = self._check_model(self.model_path)
        problems = []
        if doc.get("method") != "nldd":
            problems.append(f"model method {doc.get('method')!r}")
        fit = doc["fit"]
        if not all(math.isfinite(fit[k]) for k in ("beta0", "beta1", "beta2")):
            problems.append(f"non-finite coefficients {fit}")
        n = self.shape["n"]
        t1, t2 = math.ceil(n / 2), n // 2
        if doc["distance_ops"] != t1 * t2:
            problems.append(f"distance_ops {doc['distance_ops']} != {t1 * t2}")
        if not t2 <= doc["pair_count"] <= 2 * t2:
            problems.append(f"pair_count {doc['pair_count']} outside [{t2}, {2 * t2}]")
        return problems + self._same_output(self.fit_digest)

    def quality(self):
        # Untimed: predict the held-out rows with the last trained model.
        preds_path = self.work / "holdout_preds.txt"
        rc = self.cli_main(["predict", "--model", str(self.model_path),
                            "--data", str(self.holdout_csv),
                            "--labels", str(self.shape["labels"]),
                            "--out", str(preds_path)])
        with open(self.model_path, encoding="utf-8") as fh:
            oracle = PredictOracle(json.load(fh))
        br = label_losses(oracle.br_predict(self.holdout_features),
                          self.holdout_truth)
        if rc != 0:
            return None, br, [f"held-out predict exited with {rc}"]
        rows = read_predictions(preds_path, self.shape["labels"])
        if len(rows) != self.holdout_truth.shape[0]:
            return None, br, [f"{len(rows)} held-out predictions for "
                              f"{self.holdout_truth.shape[0]} rows"]
        pred = np.array([[int(v) for v in r] for r in rows], dtype=np.int64)
        return label_losses(pred, self.holdout_truth), br, []

    def digests(self):
        return {"model_fit": self.first_digest}

    def counts(self):
        return self.model_counts


class PredictWorkload(Workload):
    """``nldd predict --confidence``: per-row predict path, no mining."""

    name = "predict"

    def __init__(self, *args):
        super().__init__(*args)
        self.train_csv = self.work / "train.csv"
        self.query_csv = self.work / "queries.csv"
        self.model_path = self.work / "model.json"
        self.preds_path = self.work / "preds.txt"

    def setup(self, dest):
        n = self.shape["n"]
        data = self.generate(n + self.shape["queries"])
        train_csv = dest / self.train_csv.name
        write_csv(train_csv, data.features[:n], data.labels[:n])
        write_csv(dest / self.query_csv.name, data.features[n:], data.labels[n:])
        rc = self.cli_main(["train", "--data", str(train_csv),
                            "--labels", str(self.shape["labels"]),
                            "--method", "nldd",
                            "--model", str(dest / self.model_path.name),
                            "--seed", str(self.seed)])
        if rc != 0:
            raise SetupError(f"nldd train exited with {rc}")

    def prepare_checks(self):
        """The oracle and the training labelsets, from the saved model."""
        n = self.shape["n"]
        data = self.generate(n + self.shape["queries"])
        self.query_features = data.features[n:]
        self.query_truth = data.labels[n:]
        self.baseline = label_losses(
            lstsq_predict(data.features[:n], data.labels[:n], data.features[n:]),
            self.query_truth)
        self.oracle = PredictOracle(self._check_model(self.model_path))
        self.train_labelsets = {tuple(r) for r in self.oracle.train_labels.tolist()}
        self.sample = list(range(0, self.shape["queries"], ORACLE_SAMPLE_STEP))

    def argv(self):
        return ["predict", "--model", str(self.model_path),
                "--data", str(self.query_csv),
                "--labels", str(self.shape["labels"]),
                "--out", str(self.preds_path), "--confidence"]

    def outputs(self):
        return [self.preds_path]

    def rows(self):
        return self.shape["queries"]

    def check(self, stdout):
        n_labels = self.shape["labels"]
        rows = read_predictions(self.preds_path, n_labels)
        problems = []
        if len(rows) != self.shape["queries"]:
            problems.append(f"{len(rows)} prediction lines for "
                            f"{self.shape['queries']} query rows")
        parsed = []
        for i, cells in enumerate(rows):
            if len(cells) != n_labels + 1:
                problems.append(f"line {i + 1}: no theta-hat")
                continue
            labelset = tuple(int(v) for v in cells[:n_labels])
            theta = float(cells[n_labels])
            if labelset not in self.train_labelsets:
                problems.append(f"line {i + 1}: labelset {labelset} not in training set")
            if not 0.0 < theta < 1.0:
                problems.append(f"line {i + 1}: theta-hat {theta!r} outside (0, 1)")
            parsed.append((labelset, theta))
        if len(parsed) == self.shape["queries"]:
            for i in self.sample:
                mismatch = self.oracle.agrees(self.query_features[i], *parsed[i])
                if mismatch:
                    problems.append(f"query row {i}: {mismatch}")
            self.last_pred = np.array([p[0] for p in parsed], dtype=np.int64)
        return problems[:20] + self._same_output(sha256_file(self.preds_path))

    def quality(self):
        br = label_losses(self.oracle.br_predict(self.query_features),
                          self.query_truth)
        return label_losses(self.last_pred, self.query_truth), br, []

    def digests(self):
        return {"model_fit": self.fit_digest, "predictions": self.first_digest}

    def counts(self):
        return self.model_counts


class CompareWorkload(Workload):
    """``nldd compare --methods br,smbr,nldd --cv 10``: many small fits and
    per-row evaluation, dominated by SMBR predict."""

    name = "cv_compare"
    METHODS = ("br", "smbr", "nldd")
    METRICS = ("hamming", "zero_one", "jaccard", "f_measure")

    def __init__(self, *args):
        super().__init__(*args)
        self.data_csv = self.work / "data.csv"
        self.report_path = self.work / "report.jsonl"

    def setup(self, dest):
        data = self.generate(self.shape["n"])
        write_csv(dest / self.data_csv.name, data.features, data.labels)

    def prepare_checks(self):
        """The baseline's mean losses over the benchmark's own folds: ten
        contiguous blocks of rows, each predicted from the other nine."""
        data = self.generate(self.shape["n"])
        rows = np.arange(self.shape["n"])
        losses = []
        for fold in np.array_split(rows, self.shape["folds"]):
            fit = np.setdiff1d(rows, fold)
            losses.append(label_losses(
                lstsq_predict(data.features[fit], data.labels[fit],
                              data.features[fold]), data.labels[fold]))
        self.baseline = tuple(float(v) for v in np.mean(losses, axis=0))

    def argv(self):
        return ["compare", "--data", str(self.data_csv),
                "--labels", str(self.shape["labels"]),
                "--methods", ",".join(self.METHODS),
                "--cv", str(self.shape["folds"]), "--seed", str(self.seed),
                "--out", str(self.report_path)]

    def outputs(self):
        return [self.report_path]

    def rows(self):
        return len(self.METHODS) * self.shape["n"]

    def check(self, stdout):
        problems = []
        with open(self.report_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        tests = [r for r in records if "p_value" in r]
        n_pairs = len(self.METHODS) * (len(self.METHODS) - 1) // 2
        if len(tests) != n_pairs * len(self.METRICS):
            problems.append(f"{len(tests)} Wilcoxon records, expected "
                            f"{n_pairs * len(self.METRICS)}")
        for r in tests:
            if not 0.0 <= r["p_value"] <= 1.0:
                problems.append(f"p-value {r['p_value']!r} outside [0, 1]")
        self.means = {m: _table_row(stdout, m) for m in ("nldd", "br")}
        problems.extend(f"no {m} row in the means table"
                        for m, row in self.means.items() if row is None)
        return problems + self._same_output(sha256_file(self.report_path))

    def quality(self):
        nldd, br = self.means["nldd"], self.means["br"]
        return ((nldd["hamming"], nldd["zero_one"]),
                (br["hamming"], br["zero_one"]), [])

    def digests(self):
        return {"compare_report": self.first_digest}


def _table_row(stdout, method):
    """The per-dataset means row of ``method`` from compare's printed table."""
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) == 6 and cells[0] == method:
            try:
                values = [float(v) for v in cells[1:5]]
            except ValueError:
                continue
            return dict(zip(CompareWorkload.METRICS, values))
    return None


WORKLOADS = {w.name: w for w in (TrainWorkload, PredictWorkload, CompareWorkload)}
