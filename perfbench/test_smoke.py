"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "train": {"n": 120, "d": 4, "labels": 3, "holdout": 40},
    "predict": {"n": 120, "d": 4, "labels": 3, "queries": 80},
    "cv_compare": {"n": 60, "d": 4, "labels": 3, "folds": 10},
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                       "--trace", str(trace)], shapes=TINY)
    assert rc == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_corrupted_prediction_fails_the_check(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import nldd.cli
    import workloads
    w = workloads.PredictWorkload(TINY["predict"], 5, tmp_path, nldd.cli.main)
    with contextlib.redirect_stdout(io.StringIO()):
        w.setup(tmp_path)
    w.prepare_checks()
    assert nldd.cli.main(w.argv()) == 0
    assert w.check("") == []
    lines = w.preds_path.read_text().splitlines()
    cells = lines[0].split(",")
    labelset = [int(v) for v in cells[:-1]]
    others = [list(s) for s in w.train_labelsets if list(s) != labelset]
    lines[0] = ",".join(str(v) for v in others[0]) + "," + cells[-1]
    w.preds_path.write_text("\n".join(lines) + "\n")
    problems = w.check("")
    assert any("query row 0" in p for p in problems)
    assert any("differs from first call" in p for p in problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
