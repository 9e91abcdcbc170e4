"""Command-line surface.

Subcommands: ``simulate`` (write benchmark CSVs), ``fit`` (train a model
from CSV and save it as JSON), ``predict`` (apply a saved model),
``benchmark`` (simulation or cross-validation comparison of classifiers),
and ``oracle`` (brute-force risk minimization, the block-variance
structure check, and the consistency experiment).

Exit codes: 0 success, 2 bad input or arguments, 3 algorithmic failure
(every restart of the fit failed).  All randomness derives from ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import rng as rngmod
from .classifier import load_model, predict_many, save_model
from .data import read_feature_csv, read_labeled_csv, write_labeled_csv
from .evaluate import (
    RUNNABLE_CLASSIFIERS,
    CvConfig,
    HarnessOptions,
    run_cv_benchmark,
    run_simulation_benchmark,
)
from .kmeans import FitConfig, FitFailedError, fit_best
from .oracle import (
    _check_enumeration_size,
    block_spec,
    brute_force_minimizer,
    check_diagonal_optimality,
    consistency_experiment,
)
from .simulate import generate, preset

DEFAULT_SEED = 20240807


def _one_mode(flags: dict[str, bool]) -> str:
    """The one flag of ``flags`` that is set; ValueError when none or several are."""
    chosen = [name for name, on in flags.items() if on]
    if len(chosen) != 1:
        raise ValueError(f"need exactly one of {', '.join(flags)}"
                       + (f", got {' and '.join(chosen)}" if chosen else ""))
    return chosen[0]


def cmd_simulate(args) -> int:
    config = preset(args.sim, args.level, args.r if args.sim == 4 else args.d)
    train = generate(config, rngmod.generator(args.seed, "simulate", "train"))
    test = generate(config, rngmod.generator(args.seed, "simulate", "test"))
    write_labeled_csv(args.out_train, train, label_col=args.label_col)
    write_labeled_csv(args.out_test, test, label_col=args.label_col)
    print(f"wrote {args.out_train} and {args.out_test}: "
          f"{train.n} rows, {train.p} features, k={train.k}")
    return 0


def cmd_fit(args) -> int:
    ds = read_labeled_csv(args.train_csv, label_col=args.label_col)
    if args.k is not None:
        if args.k != ds.k:
            raise ValueError(f"--k {args.k} disagrees with labels (k={ds.k})")
    config = FitConfig(restarts=args.restarts, lam=args.lam, seed=args.seed)
    _, model, err = fit_best(ds, config)
    save_model(model, args.out)
    print(f"training error: {err!r}")
    print(f"selected features: {model.selected_feature_count} of {model.p}")
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model_json)
    x, _, header, raw_rows = read_feature_csv(args.data_csv, label_col=args.label_col)
    if x.shape[1] != model.p:
        raise ValueError(f"model expects {model.p} features, data has {x.shape[1]}")
    predicted = predict_many(model, x)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header + ["predicted"])
        writer.writerows(row + [label] for row, label in zip(raw_rows, predicted.tolist()))
    print(f"wrote {len(predicted)} predictions to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    classifiers = [c for c in args.classifiers.split(",") if c]
    options = HarnessOptions(tune_restarts=args.tune_restarts,
                             final_restarts=args.restarts)
    if _one_mode({"--data": args.data is not None, "--sim": args.sim is not None}) == "--data":
        ds = read_labeled_csv(args.data, label_col=args.label_col)
        cv = CvConfig(folds=args.folds, seed=args.seed)
        report = run_cv_benchmark(ds, classifiers, cv, options=options,
                                  setting=str(args.data), threads=args.threads)
    else:
        if args.level is None:
            raise ValueError("--sim needs --level")
        d_or_r = args.r if args.sim == 4 else args.d
        if d_or_r is None:
            raise ValueError("--d is required for sims 1-3, --r for sim 4")
        report = run_simulation_benchmark(args.sim, args.level, d_or_r,
                                          reps=args.reps, classifiers=classifiers,
                                          seed=args.seed, options=options,
                                          threads=args.threads)
    print("\n".join(report.table_lines()))
    if args.out is not None:
        report.write_csv(args.out)
        print(f"report CSV written to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    mode = _one_mode({"--data": args.data is not None, "--corollary": args.corollary,
                      "--consistency": args.consistency})
    if mode == "--data":
        ds = read_labeled_csv(args.data, label_col=args.label_col)
        part, w_star = brute_force_minimizer(ds)
        for j, group in enumerate(part.groups_1based(), start=1):
            print(f"I_{j}: {group}")
        print(f"W*: {w_star!r}")
        return 0
    # refuse a one-class spec (it has only one partition, so there is
    # nothing to compare; k < 1 is block_spec's to refuse) and an oversized
    # enumeration before the k x (k * d) spec is built
    if args.k == 1:
        what = "the diagonal check" if mode == "--corollary" else "the consistency experiment"
        raise ValueError(f"{what} needs k >= 2 classes, got k=1: "
                         "a one-class spec has only one partition")
    _check_enumeration_size(args.k * args.d, args.k)
    spec = block_spec(args.k, args.d, args.sigma1, args.sigma2, mu1=args.mu1, mu2=args.mu2)
    if mode == "--corollary":
        report = check_diagonal_optimality(spec, args.d)
        print(f"{'PASS' if report.passed else 'FAIL'}: {report.reason}")
        print(f"diagonal risk {report.diagonal_risk!r}, best risk {report.best_risk!r}")
        return 0
    n_grid = [int(v) for v in args.n_grid.split(",") if v]
    result = consistency_experiment(spec, n_grid, reps=args.reps,
                                    seed=args.seed, fit_restarts=args.restarts,
                                    fitter=args.fitter)
    print("\n".join(result.tsv_lines()))
    for n in n_grid:
        print(f"# mean gap at n={n}: {result.mean_gap(n)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndc",
        description="nearest disjoint centroid classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--label-col", default="label")

    p = sub.add_parser("simulate", help="write train/test CSVs for a benchmark preset")
    p.add_argument("--sim", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--out-train", default="train.csv")
    p.add_argument("--out-test", default="test.csv")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model on a labeled CSV")
    p.add_argument("train_csv")
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=float, default=math.inf,
                   help="special-group multiplier; omit or 'inf' for no feature selection")
    p.add_argument("--restarts", type=int, default=FitConfig.restarts)
    p.add_argument("--out", default="model.json")
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="apply a saved model to a CSV")
    p.add_argument("model_json")
    p.add_argument("data_csv")
    p.add_argument("--out", default="predictions.csv")
    common(p, seed=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", help="compare classifiers on a preset or a CSV")
    p.add_argument("--sim", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--level", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--data", help="labeled CSV for a cross-validation benchmark")
    p.add_argument("--folds", type=int, default=CvConfig.folds)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--classifiers", default=",".join(RUNNABLE_CLASSIFIERS))
    p.add_argument("--restarts", type=int, default=HarnessOptions.final_restarts)
    p.add_argument("--tune-restarts", type=int, default=HarnessOptions.tune_restarts)
    p.add_argument("--threads", type=int, default=None,
                   help="worker process cap (default: every usable core); 1 runs "
                   "the repetitions or folds in this process")
    p.add_argument("--out", help="write the machine-readable report CSV here")
    common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("oracle", help="brute-force and closed-form ground truth")
    p.add_argument("--data", help="labeled CSV: print the exact risk minimizer")
    p.add_argument("--corollary", action="store_true",
                   help="check that the diagonal partition is optimal")
    p.add_argument("--consistency", action="store_true",
                   help="risk-gap experiment over growing sample sizes")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--sigma1", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=2.0)
    p.add_argument("--mu1", type=float, default=0.0)
    p.add_argument("--mu2", type=float, default=0.0)
    p.add_argument("--n-grid", default="50,2000")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--restarts", type=int, default=FitConfig.restarts)
    p.add_argument("--fitter", choices=("lloyd", "exact"), default="lloyd",
                   help="heuristic fit or the brute-force risk minimizer")
    common(p)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitFailedError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
