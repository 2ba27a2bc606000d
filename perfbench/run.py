"""End-to-end benchmark of the nldd CLI.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The program under test is the
checkout's own ``src/nldd``, driven in-process through ``nldd.cli.main(argv)``
by one client in a closed loop: each call starts after the previous one
returns. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it describe the run; the full record, with run metadata, counts and output
digests, is written to ``.perfbench/BENCH_<workload>_seed<n>_trace<t>.json``.
"""

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import workloads
from spans import PER_LAYER, ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# After each CLI call, set-up repeats until the repeats have taken this long.
SETUP_SLOT_S = 0.5
MIN_TIMED = 3  # timed calls after the warm-up, unless that overruns 2x --seconds
GLM_FALLBACK_MESSAGE = "binomial regression did not converge"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "predict", "cv_compare"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root):
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def reset_peak_rss():
    """Restart this process's resident-memory high-water mark (Linux VmHWM),
    so that the next reading covers only what runs after the reset.

    Heap memory that is free but still resident, left by set-up or by an
    earlier call, is given back to the system first (glibc ``malloc_trim``),
    so the reading starts from the memory the process really holds.
    """
    malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if malloc_trim is not None:
        malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def read_peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def can_reset_peak_rss():
    try:
        reset_peak_rss()
        read_peak_rss_mb()
    except OSError:
        return False
    return True


def metadata(per_call_rss):
    import numpy
    import scipy
    import nldd.kernels
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernels_backend": getattr(nldd.kernels, "BACKEND", "absent"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "peak_rss_source": "VmHWM reset before each call" if per_call_rss
                           else "ru_maxrss of the whole process",
    }


class Op:
    """Outcome of one CLI call."""

    def __init__(self, seconds, rc, stdout, error, glm_fallbacks):
        self.seconds = seconds
        self.peak_rss_mb = None  # process high-water mark during the call
        self.base_rss_mb = None  # resident memory just before the call
        self.rc = rc
        self.stdout = stdout
        self.error = error
        self.glm_fallbacks = glm_fallbacks
        self.problems = []
        self.traced = False


def call_cli(cli_main, argv, tracer=None):
    """Time one ``main(argv)`` call, capturing its output and warnings."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.call(ROOT_SPAN, cli_main, (argv,), {})
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the loop must go on; the call counts as failed
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    fallbacks = sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
                    and GLM_FALLBACK_MESSAGE in str(w.message))
    return Op(seconds, rc, out.getvalue(), error or err.getvalue(), fallbacks)


def check_op(workload, op):
    if op.rc != 0:
        op.problems.append(f"exit code {op.rc}: {op.error.strip()[-500:]}")
        return
    try:
        op.problems.extend(workload.check(op.stdout))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        op.problems.append(f"output check raised {exc!r}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    lo, hi = quartiles(values)
    return {"median": statistics.median(values), "q1": lo, "q3": hi,
            "n": len(values), "samples": values}


def run_loop(workload, cli_main, seconds, tracer, per_call_rss, setup_dir):
    """Closed loop for about ``seconds`` of CLI calls, the first a warm-up,
    each followed by a slot of set-up repeats.

    Set-up is measured between the calls rather than in one block, so that
    ``setup_s`` and ``op_s`` sample the machine over the same window. With a
    tracer, calls after the warm-up alternate untraced and traced, so the run
    measures the tracing overhead as well as the layers.
    """
    ops, setup_times, slots = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 0 and len(ops) > 0
        for path in workload.outputs():
            path.unlink(missing_ok=True)
        gc.collect()
        if traced:
            tracer.op_id = len(ops)
            tracer.install()
        if per_call_rss:
            reset_peak_rss()
            base_rss_mb = read_peak_rss_mb()
        try:
            op = call_cli(cli_main, workload.argv(), tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if per_call_rss:
            op.peak_rss_mb, op.base_rss_mb = read_peak_rss_mb(), base_rss_mb
        op.traced = traced
        if traced:
            tracer.count("model.glm_fallbacks", op.glm_fallbacks)
        check_op(workload, op)
        ops.append(op)
        slot = setup_slot(workload, setup_dir)
        setup_times.extend(slot)
        slots.append(sum(slot))
        timed = len(ops) - 1
        elapsed = time.perf_counter() - start
        projected = (elapsed + statistics.median(o.seconds for o in ops)
                     + statistics.median(slots))
        if timed >= 1 and projected > seconds and (
                timed >= MIN_TIMED or projected > 2 * seconds):
            if tracer is None or any(o.traced for o in ops):
                return ops, setup_times


def setup_slot(workload, dest):
    """Times of set-up repeats into ``dest``, until they add up to
    SETUP_SLOT_S. Each repeat starts from an empty directory."""
    times = []
    gc.collect()
    while sum(times) < SETUP_SLOT_S:
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            workload.setup(dest)
        times.append(time.perf_counter() - start)
    return times


def score(workload, ops):
    """(NLDD losses, program's BR losses), each (hamming, zero_one).

    Predictions that cannot be scored count as every label wrong.
    """
    nldd_loss = br_loss = None
    if not any(op.problems for op in ops):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                nldd_loss, br_loss, problems = workload.quality()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"scoring raised {exc!r}"]
        ops[-1].problems.extend(problems)
    return nldd_loss or (1.0, 1.0), br_loss or (1.0, 1.0)


def layer_metrics(tracer, ops, untraced_op_s):
    """Per-layer metrics: median self times and the counts of the traced calls,
    which must repeat exactly from call to call."""
    traced = [i for i, op in enumerate(ops) if op.traced]
    per_op = {i: tracer.op_metrics(i) for i in traced}
    counts = {i: {m: v for m, v in per_op[i].items() if PER_LAYER[m][0] != "s"}
              for i in traced}
    for i in traced[1:]:
        if counts[i] != counts[traced[0]]:
            ops[i].problems.append("per-layer counts differ from the first "
                                   "traced call's")
    values = {m: statistics.median(per_op[i][m] for i in traced)
              for m, (unit, _, _) in PER_LAYER.items() if unit == "s"}
    values.update(counts[traced[0]])
    traced_s = summary([ops[i].seconds for i in traced])
    metrics = {m: {"value": v, "unit": PER_LAYER[m][0]} for m, v in values.items()}
    metrics["trace.op_s"] = {"value": traced_s["median"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s["median"] - untraced_op_s,
                                   "unit": "s"}
    return metrics, counts[traced[0]], traced_s


def run(args, shapes=None):
    import nldd.cli

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shape = (shapes or workloads.SHAPES)[args.workload]
    workload = workloads.WORKLOADS[args.workload](shape, args.seed, work,
                                                  nldd.cli.main)
    tracer = Tracer() if args.trace else None
    per_call_rss = can_reset_peak_rss()
    try:
        # The first set-up makes the inputs the calls use. It is a warm-up:
        # setup_s is measured by the repeats between the calls.
        with contextlib.redirect_stdout(io.StringIO()):
            workload.setup(work)
        workload.prepare_checks()
        ops, setup_times = run_loop(workload, nldd.cli.main, args.seconds,
                                    tracer, per_call_rss, work / "setup-repeat")
        untimed = [op for op in ops[1:] if not op.traced]
        op_s = summary([op.seconds for op in untimed])
        if per_call_rss:
            peak_rss_mb = statistics.median(op.peak_rss_mb for op in untimed)
            base_rss_mb = statistics.median(op.base_rss_mb for op in untimed)
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            base_rss_mb = None
        if tracer is not None:
            metrics, layer_counts, traced_s = layer_metrics(tracer, ops,
                                                            op_s["median"])
        nldd_loss, br_loss = score(workload, ops)
        failed = sum(1 for op in ops if op.problems)
        counts = dict(workload.counts() if not failed else {},
                      **{"model.glm_fallbacks": ops[-1].glm_fallbacks})
        digests = workload.digests() if not failed else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "shape": shape, "meta": metadata(per_call_rss),
        "attempted": len(ops), "failed": failed,
        "problems": [p for op in ops for p in op.problems][:50],
        "setup_s": summary(setup_times), "op_s": op_s,
        "rss_mb": {"peak": peak_rss_mb, "before_call": base_rss_mb},
        "losses": {name: dict(zip(("hamming", "zero_one"), loss))
                   for name, loss in (("nldd", nldd_loss), ("br", br_loss),
                                      ("lstsq", workload.baseline))},
        "digests": digests, "counts": counts,
    }
    if tracer is not None:
        record["counts"].update(layer_counts)
        record["traced_op_s"] = traced_s
        record["absent"] = tracer.absent_metrics()
        tracer.write_spans(out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "op_s": {"value": op_s["median"], "unit": "s"},
            "rows_per_s": {"value": workload.rows() / op_s["median"],
                           "unit": "rows/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_ratio": {"value": (len(ops) - failed) / len(ops), "unit": "ratio"},
            "hamming_loss_vs_lstsq": {"value": nldd_loss[0] / workload.baseline[0],
                                      "unit": "ratio"},
            "zero_one_loss_vs_lstsq": {"value": nldd_loss[1] / workload.baseline[1],
                                       "unit": "ratio"},
        }
    record["metrics"] = metrics
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print_result(record)
    return 0


def print_result(record):
    attempted, failed = record["attempted"], record["failed"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"calls={attempted} (1 warm-up) failed={failed} "
          f"fail_ratio={failed / attempted}")
    for key in ("setup_s", "op_s", "traced_op_s"):
        if key in record:
            s = record[key]
            print(f"# {key}: median {s['median']:.4f} s, q1 {s['q1']:.4f}, "
                  f"q3 {s['q3']:.4f}, n={s['n']}")
    for problem in record["problems"][:10]:
        print(f"# problem: {problem}")
    for key in ("meta", "counts", "rss_mb", "losses", "digests", "absent"):
        if key in record:
            print(f"# {key} " + json.dumps(record[key], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))


def main(argv=None, shapes=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "nldd" / "cli.py").is_file():
        print(f"error: no nldd sources under {src}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        return run(args, shapes)
    except Exception:  # set-up failed: no result line, non-zero exit
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
