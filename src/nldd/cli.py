"""Command-line interface: train, predict, eval, compare, scaling, summary.

Exit codes: 2 usage errors, 3 data errors, 4 training failures.
"""

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .br import br_fit, br_predict
from .data import (DataError, dataset_summary, load_csv, load_sparse,
                   read_dense_csv)
from .evaluate import (_FOLD_TAGGED, _check_methods, average_ranks,
                       cross_validate, holdout_eval, scaling_experiment,
                       wilcoxon_signed_rank, METHODS)
from .learner import TrainingError
from .model import nldd_predict, nldd_train, predict_with_confidence
from .persist import load_model, save_model

LOSS_METRICS = ("hamming", "zero_one")
SCORE_METRICS = ("jaccard", "f_measure")
ALL_METRICS = LOSS_METRICS + SCORE_METRICS


def _load_dataset(path, labels, fmt, n_features=None):
    # A sparse file leaves its trailing zero features out: a known width
    # (the model's, or the training file's) pads its rows to that width.
    if fmt == "sparse":
        return load_sparse(path, labels, n_features)
    return load_csv(path, labels)


def _load_features(path, labels, fmt, n_features=None):
    if labels > 0:
        return _load_dataset(path, labels, fmt, n_features).features
    if fmt == "sparse":
        raise DataError("sparse input requires --labels >= 1")
    return read_dense_csv(path, 0)[1]


def _write_report(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _print_metrics_table(rows, header="split"):
    print(f"{header:>10}  {'hamming':>9}  {'zero_one':>9}  "
          f"{'jaccard':>9}  {'f_measure':>9}  {'n':>6}")
    for name, rep in rows:
        print(f"{name:>10}  {rep.hamming:9.4f}  {rep.zero_one:9.4f}  "
              f"{rep.jaccard:9.4f}  {rep.f_measure:9.4f}  {rep.n_instances:6d}")


def cmd_train(args):
    _check_methods((args.method,), args.subsample)
    if args.method == "br" and args.seed != 0:
        raise ValueError("--seed applies to --method nldd only")
    data = _load_dataset(args.data, args.labels, args.format)
    if args.method == "nldd":
        model = nldd_train(data, args.seed, lam=args.lam,
                           subsample_fraction=args.subsample)
        save_model(model, args.model)
        f = model.fit
        print(f"trained nldd: N={data.n} d={data.d} L={data.n_labels} "
              f"pairs={model.pair_count}")
        print(f"coefficients: beta0={f.beta0:.6f} beta1={f.beta1:.6f} "
              f"beta2={f.beta2:.6f} converged={f.converged}")
    else:
        model = br_fit(data, lam=args.lam)
        save_model(model, args.model)
        print(f"trained br: N={data.n} d={data.d} L={data.n_labels}")
    print(f"model written to {args.model}")
    return 0


def cmd_predict(args):
    method, model = load_model(args.model)
    if args.confidence and method != "nldd":
        raise DataError("--confidence requires an nldd model")
    stats = (model.br if method == "nldd" else model).stats
    features = _load_features(args.data, args.labels, args.format,
                              stats.means.size)
    if method == "nldd" and args.confidence:
        preds, thetas = predict_with_confidence(model, features)
        lines = (",".join(map(str, pred)) + f",{th!r}"
                 for pred, th in zip(preds.tolist(), thetas.tolist()))
    else:
        predict = nldd_predict if method == "nldd" else br_predict
        lines = (",".join(map(str, pred))
                 for pred in predict(model, features).tolist())
    # The predictions exist before the output opens; each line is written
    # as it is formatted.
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_eval(args):
    if (args.test is None) == (args.cv is None):
        raise ValueError("provide exactly one of --test or --cv")
    if args.test is not None and args.method != "nldd" and args.seed != 0:
        raise ValueError("--seed applies to --method nldd or to --cv only")
    data = _load_dataset(args.data, args.labels, args.format)
    if args.cv is not None:
        fold_reports, mean_report = cross_validate(
            data, (args.method,), args.cv, args.seed, lam=args.lam,
            subsample_fraction=args.subsample)[args.method]
        rows = [(f"fold {i}", rep) for i, rep in enumerate(fold_reports)]
        rows.append(("mean", mean_report))
    else:
        test = _load_dataset(args.test, args.labels, args.format, data.d)
        report = holdout_eval(data, test, (args.method,), seed=args.seed,
                              lam=args.lam,
                              subsample_fraction=args.subsample)[args.method]
        rows = [("test", report)]
    _print_metrics_table(rows)
    if args.out:
        _write_report(args.out, (dict(split=name.replace(" ", ""), **asdict(rep))
                                 for name, rep in rows))
    return 0


def _rank(values, higher_is_better):
    # Rank 1 is best; ties share the average rank.
    vals = np.asarray(values, dtype=np.float64)
    return average_ranks(-vals if higher_is_better else vals)


def cmd_compare(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise ValueError("--methods needs at least 2 method ids")
    _check_methods(methods, args.subsample)
    if args.cv < 2:
        raise ValueError("--cv must be >= 2")
    datasets = [_load_dataset(p, args.labels, args.format) for p in args.data]

    # Per dataset, each method's (fold reports, mean report).
    results = []
    for path, data in zip(args.data, datasets):
        try:
            results.append(cross_validate(
                data, tuple(methods), args.cv, args.seed, lam=args.lam,
                subsample_fraction=args.subsample))
        except _FOLD_TAGGED as exc:  # as cross_validate names a fold
            if type(exc) not in _FOLD_TAGGED:
                raise
            raise type(exc)(f"{path}: {exc}") from exc

    print("per-method per-dataset means:")
    for di, by_method in enumerate(results):
        _print_metrics_table([(m, by_method[m][1]) for m in methods],
                             header=f"ds{di}")

    records = []
    print("\naverage ranks (1 = best):")
    avg_ranks = {}
    for metric in ALL_METRICS:
        ranks = np.zeros(len(methods))
        for by_method in results:
            vals = [getattr(by_method[m][1], metric) for m in methods]
            ranks += _rank(vals, metric in SCORE_METRICS)
        ranks /= len(datasets)
        avg_ranks[metric] = dict(zip(methods, ranks))
        print(f"  {metric:>10}: " + "  ".join(
            f"{m}={r:.2f}" for m, r in zip(methods, ranks)))
    records.append({"average_ranks": avg_ranks})

    # Paired observations: dataset means when comparing across datasets,
    # per-fold values when only one dataset is given.
    def observations(m, metric):
        if len(datasets) >= 2:
            return [getattr(by_method[m][1], metric) for by_method in results]
        return [getattr(rep, metric) for rep in results[0][m][0]]

    print("\none-sided Wilcoxon p-values (row method better than column):")
    for metric in ALL_METRICS:
        for i, m1 in enumerate(methods):
            for m2 in methods[i + 1:]:
                a = observations(m1, metric)
                b = observations(m2, metric)
                alt = "greater" if metric in SCORE_METRICS else "less"
                res = wilcoxon_signed_rank(a, b, alternative=alt)
                sig = " *" if res.p_value <= 0.05 else ""
                print(f"  {metric}: {m1} vs {m2}: p={res.p_value:.5f}{sig}")
                records.append({"metric": metric, "method_a": m1,
                                "method_b": m2, "p_value": res.p_value,
                                "statistic": res.statistic,
                                "n_effective": res.n_effective,
                                "exact": res.exact})
    if args.out:
        _write_report(args.out, records)
    return 0


def cmd_scaling(args):
    data = _load_dataset(args.data, args.labels, args.format)
    fractions = [float(f) for f in args.fractions.split(",")]
    rows = scaling_experiment(data, fractions, args.seed, lam=args.lam)
    print(f"{'fraction':>9}  {'dist_ops':>10}  {'wall_time':>10}  {'mismatched':>10}")
    for row in rows:
        print(f"{row['fraction']:9.2f}  {row['distance_ops']:10d}  "
              f"{row['wall_time']:10.3f}  {row['mean_mismatched_labels']:10.4f}")
    if args.out:
        _write_report(args.out, rows)
    return 0


def cmd_summary(args):
    data = _load_dataset(args.data, args.labels, args.format)
    summary = dataset_summary(data)
    for key, value in summary.items():
        print(f"{key}: {value}")
    return 0


def _add_input(p, labels_required=True, multi_data=False):
    if multi_data:
        # Repeated flags add up: --data a.csv --data b.csv.
        p.add_argument("--data", required=True, nargs="+", action="extend")
    else:
        p.add_argument("--data", required=True)
    p.add_argument("--labels", type=int, required=labels_required, default=0)
    p.add_argument("--format", choices=("csv", "sparse"), default="csv")


def _add_training(p, subsample=True):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    if subsample:
        p.add_argument("--subsample", type=float, default=1.0,
                       help="fraction of the training rows nldd trains on")


def build_parser():
    parser = argparse.ArgumentParser(prog="nldd",
                                     description="Multi-label classification "
                                     "by nearest labelset with double distances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it to disk")
    _add_input(p)
    _add_training(p)
    p.add_argument("--method", choices=("br", "nldd"), required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labelsets for new rows")
    _add_input(p, labels_required=False)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.add_argument("--confidence", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="holdout or cross-validated metrics")
    _add_input(p)
    _add_training(p)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--test")
    p.add_argument("--cv", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="compare methods with Wilcoxon tests")
    _add_input(p, multi_data=True)
    _add_training(p)
    p.add_argument("--methods", required=True,
                   help="comma-separated method ids")
    p.add_argument("--cv", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("scaling", help="training-fraction scaling experiment")
    _add_input(p)
    _add_training(p, subsample=False)
    p.add_argument("--fractions",
                   default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("summary", help="dataset summary statistics")
    _add_input(p)
    p.set_defaults(func=cmd_summary)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # DataError is a ValueError, so it is tested before ValueError.
        return (4 if isinstance(exc, TrainingError) else
                3 if isinstance(exc, (DataError, OSError)) else 2)


if __name__ == "__main__":
    sys.exit(main())
