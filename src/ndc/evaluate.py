"""Benchmark harness: misclassification measurement, stratified k-fold
splits, nested-CV hyperparameter tuning, and the simulation/CV benchmark
runners with text-table and CSV reporting.

Hyperparameters are tuned per training set by nested cross-validation:
the special-group multiplier for the feature-selecting fit and the
shrinkage threshold for the shrunken-centroid baseline.  Tuning fits use
a reduced restart budget; final fits use the full one.

The heavier comparators from the literature (LDA, SVM, L1 logistic
regression) are not part of this build; reports list them as
unavailable so result tables stay comparable.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .baselines import (
    knn_fit,
    knn_predict_many,
    nc_fit,
    nc_predict_many,
    nsc_delta_grid,
    nsc_fit,
    nsc_predict_many,
)
from .classifier import predict_many
from .data import LabeledDataset
from .kmeans import (
    EmptyGroupError,
    FitConfig,
    FitFailedError,
    RestartsExhaustedError,
    fit_best,
)
from .simulate import generate, preset

DEFAULT_LAMBDA_GRID = (0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, math.inf)

RUNNABLE_CLASSIFIERS = ("ndc", "ndc-s", "nc", "nsc", "knn")
UNAVAILABLE_CLASSIFIERS = ("lda", "svm", "logistic")
_ALIASES = {"ndcs": "ndc-s", "ndc_s": "ndc-s"}

# What a fit raises on data it cannot handle; a benchmark unit or tuning
# candidate that raises one of these is counted as failed.  Anything else
# is a programming error and propagates.
_FIT_FAILURES = (EmptyGroupError, RestartsExhaustedError, FitFailedError, ValueError)


def canonical_classifier(name: str) -> str:
    name = name.strip().lower()
    name = _ALIASES.get(name, name)
    if name in RUNNABLE_CLASSIFIERS:
        return name
    if name in UNAVAILABLE_CLASSIFIERS:
        raise ValueError(f"classifier '{name}' is not available in this build")
    raise ValueError(f"unknown classifier '{name}'")


def misclassification_rate(predicted, actual) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ValueError("predicted and actual labels must have equal, non-zero length")
    return float(np.mean(predicted != actual))


@dataclass(frozen=True)
class CvConfig:
    folds: int = 3
    nested_folds: int = 3
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2 or self.nested_folds < 2:
            raise ValueError("fold counts must be >= 2")


def k_fold_split(ds: LabeledDataset, cv: CvConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint covering folds as (train_idx, test_idx) pairs.

    Stratified splitting shuffles each class separately and deals its
    rows round-robin, so per-class counts differ by at most one across
    folds; every class therefore needs at least ``folds`` samples.
    """
    rng = rngmod.generator(cv.seed, "kfold")
    fold_of = np.empty(ds.n, dtype=np.int64)
    if cv.stratified:
        for j in range(1, ds.k + 1):
            rows = np.flatnonzero(ds.labels == j)
            if len(rows) < cv.folds:
                raise ValueError(
                    f"class {j} has {len(rows)} samples, fewer than {cv.folds} folds")
            rows = rng.permutation(rows)
            fold_of[rows] = np.arange(len(rows)) % cv.folds
    else:
        order = rng.permutation(ds.n)
        fold_of[order] = np.arange(ds.n) % cv.folds
    splits = []
    for f in range(cv.folds):
        test = np.flatnonzero(fold_of == f)
        train = np.flatnonzero(fold_of != f)
        splits.append((train, test))
    return splits


def _subset(ds: LabeledDataset, rows: np.ndarray) -> LabeledDataset:
    return LabeledDataset.from_arrays(ds.x[rows], ds.labels[rows], k=ds.k)


@dataclass(frozen=True)
class HarnessOptions:
    """Tuning and fitting knobs shared by the benchmark runners."""

    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    tune_restarts: int = 25
    final_restarts: int = 100
    knn_neighbors: int = 15
    delta_grid_size: int = 30


def tune_lambda(train: LabeledDataset, grid, cv: CvConfig,
                restarts: int = 25) -> tuple[float, dict[float, float]]:
    """Pick the special-group multiplier by nested CV misclassification.

    Candidates whose fits fail on every nested fold are skipped; ties go
    to the largest multiplier (feature selection is sacrificed last).
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError("empty multiplier grid")
    if len(grid) == 1:
        return grid[0], {grid[0]: float("nan")}
    nested = CvConfig(folds=cv.nested_folds, nested_folds=cv.nested_folds,
                      stratified=cv.stratified,
                      seed=rngmod.child_seed(cv.seed, "nested-lambda"))
    splits = k_fold_split(train, nested)
    mean_errors: dict[float, float] = {}
    for i, lam in enumerate(grid):
        fold_errors = []
        for f, (tr, va) in enumerate(splits):
            config = FitConfig(restarts=restarts, lam=lam,
                               seed=rngmod.child_seed(nested.seed, "lam", i, "fold", f))
            try:
                _, model, _ = fit_best(_subset(train, tr), config)
            except _FIT_FAILURES:
                continue
            fold_errors.append(misclassification_rate(
                predict_many(model, train.x[va]), train.labels[va]))
        if fold_errors:
            mean_errors[lam] = float(np.mean(fold_errors))
    if not mean_errors:
        raise FitFailedError("every multiplier candidate failed all nested fits")
    best_err = min(mean_errors.values())
    best = max(lam for lam, err in mean_errors.items() if err == best_err)
    return best, mean_errors


def tune_delta(train: LabeledDataset, cv: CvConfig,
               grid_size: int = 30) -> tuple[float, dict[float, float]]:
    """Pick the shrinkage threshold by nested CV misclassification; ties
    go to the largest threshold (fewest features)."""
    grid = nsc_delta_grid(train, size=grid_size)
    nested = CvConfig(folds=cv.nested_folds, nested_folds=cv.nested_folds,
                      stratified=cv.stratified,
                      seed=rngmod.child_seed(cv.seed, "nested-delta"))
    splits = k_fold_split(train, nested)
    mean_errors: dict[float, float] = {}
    for delta in grid:
        fold_errors = []
        for tr, va in splits:
            try:
                model = nsc_fit(_subset(train, tr), float(delta))
            except _FIT_FAILURES:
                continue
            fold_errors.append(misclassification_rate(
                nsc_predict_many(model, train.x[va]), train.labels[va]))
        if fold_errors:
            mean_errors[float(delta)] = float(np.mean(fold_errors))
    if not mean_errors:
        raise FitFailedError("every shrinkage candidate failed all nested fits")
    best_err = min(mean_errors.values())
    best = max(d for d, err in mean_errors.items() if err == best_err)
    return best, mean_errors


def _fit_and_score(name: str, train: LabeledDataset, test_x: np.ndarray,
                   test_labels: np.ndarray, seed: int,
                   options: HarnessOptions) -> tuple[float, float, dict]:
    """Fit one classifier on ``train``, score on the test block.

    Returns (error, features_used, chosen_params).  Tuned classifiers run
    their nested CV on the training data only.
    """
    tune_cv = CvConfig(seed=rngmod.child_seed(seed, "tune", name))
    if name == "ndc":
        config = FitConfig(restarts=options.final_restarts, lam=math.inf,
                           seed=rngmod.child_seed(seed, "fit", "ndc"))
        _, model, _ = fit_best(train, config)
        err = misclassification_rate(predict_many(model, test_x), test_labels)
        return err, float(train.p), {}
    if name == "ndc-s":
        lam, _ = tune_lambda(train, options.lambda_grid, tune_cv,
                             restarts=options.tune_restarts)
        config = FitConfig(restarts=options.final_restarts, lam=lam,
                           seed=rngmod.child_seed(seed, "fit", "ndc"))
        _, model, _ = fit_best(train, config)
        err = misclassification_rate(predict_many(model, test_x), test_labels)
        return err, float(model.selected_feature_count), {"lambda": lam}
    if name == "nc":
        model = nc_fit(train)
        err = misclassification_rate(nc_predict_many(model, test_x), test_labels)
        return err, float(train.p), {}
    if name == "nsc":
        delta, _ = tune_delta(train, tune_cv, grid_size=options.delta_grid_size)
        model = nsc_fit(train, delta)
        err = misclassification_rate(nsc_predict_many(model, test_x), test_labels)
        return err, float(model.selected_feature_count), {"delta": delta}
    if name == "knn":
        model = knn_fit(train, m=min(options.knn_neighbors, train.n))
        err = misclassification_rate(knn_predict_many(model, test_x), test_labels)
        return err, float(train.p), {"m": model.m}
    raise ValueError(f"unknown classifier '{name}'")


@dataclass
class ClassifierStats:
    name: str
    errors: list[float] = field(default_factory=list)
    features: list[float] = field(default_factory=list)
    params: list[dict] = field(default_factory=list)
    failures: int = 0

    @property
    def n_units(self) -> int:
        return len(self.errors)

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.errors)) if self.errors else float("nan")

    @property
    def se_error(self) -> float:
        return _standard_error(self.errors)

    @property
    def mean_features(self) -> float:
        return float(np.mean(self.features)) if self.features else float("nan")

    @property
    def se_features(self) -> float:
        return _standard_error(self.features)


def _standard_error(values) -> float:
    if len(values) < 2:
        return float("nan")
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


@dataclass
class EvalReport:
    setting: str
    unit: str  # "rep" for simulations, "fold" for CV runs
    stats: list[ClassifierStats]
    notes: tuple[str, ...] = ()
    unavailable: tuple[str, ...] = UNAVAILABLE_CLASSIFIERS

    def table_lines(self) -> list[str]:
        header = f"{'classifier':<10} {'mean_error':>11} {'se_error':>9} {'mean_feat':>10} {'se_feat':>8} {self.unit + 's':>6}"
        lines = [f"setting: {self.setting}", header, "-" * len(header)]
        for s in self.stats:
            lines.append(
                f"{s.name:<10} {s.mean_error:>11.4f} {s.se_error:>9.4f} "
                f"{s.mean_features:>10.1f} {s.se_features:>8.2f} {s.n_units:>6}"
                + (f"  [{s.failures} failed]" if s.failures else ""))
        for note in self.notes:
            lines.append(note)
        if self.unavailable:
            lines.append("not available in this build: " + ", ".join(self.unavailable))
        return lines

    def csv_rows(self) -> list[list]:
        rows = [["classifier", "setting", "mean_error", "se_error",
                 "mean_features", "se_features", "reps"]]
        for s in self.stats:
            rows.append([s.name, self.setting, repr(s.mean_error), repr(s.se_error),
                         repr(s.mean_features), repr(s.se_features), s.n_units])
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(self.csv_rows())


def _notes(names, options: HarnessOptions) -> tuple[str, ...]:
    notes = []
    if "ndc-s" in names or "ndc" in names:
        notes.append(f"partition fits: {options.final_restarts} restarts "
                     f"({options.tune_restarts} while tuning)")
    if "nsc" in names:
        notes.append("nsc scores include the empirical-prior correction term")
    return tuple(notes)


def _sim_rep(args) -> list[tuple[str, float | None, float, dict, str]]:
    """One simulation repetition: draw train/test, fit and score every
    requested classifier.  Runs in a worker process when parallel."""
    sim_id, level, d_or_r, rep, names, seed, options = args
    config = preset(sim_id, level, d_or_r)
    train = generate(config, rngmod.generator(seed, "rep", rep, "train"))
    test = generate(config, rngmod.generator(seed, "rep", rep, "test"))
    out = []
    for name in names:
        rep_seed = rngmod.child_seed(seed, "rep", rep)
        try:
            err, feats, params = _fit_and_score(name, train, test.x, test.labels,
                                                rep_seed, options)
            out.append((name, err, feats, params, ""))
        except _FIT_FAILURES as exc:
            out.append((name, None, 0.0, {}, f"{type(exc).__name__}: {exc}"))
    return out


def run_simulation_benchmark(sim_id: int, level: float, d_or_r: int, reps: int,
                             classifiers, seed: int,
                             options: HarnessOptions | None = None,
                             threads: int | None = None) -> EvalReport:
    """Repeatedly draw independent train/test matrices from a preset and
    aggregate per-classifier error and feature-count statistics.

    Repetitions are independent and may run in parallel worker processes;
    every repetition derives its own streams from ``seed``, so results do
    not depend on the worker count.
    """
    if reps < 2:
        raise ValueError("need at least 2 repetitions")
    names = [canonical_classifier(c) for c in classifiers]
    options = options or HarnessOptions()
    jobs = [(sim_id, level, d_or_r, rep, names, seed, options) for rep in range(reps)]
    if threads is None:
        threads = os.cpu_count() or 1
    if threads > 1 and reps > 1:
        with ProcessPoolExecutor(max_workers=min(threads, reps)) as pool:
            per_rep = list(pool.map(_sim_rep, jobs))
    else:
        per_rep = [_sim_rep(job) for job in jobs]
    stats = {name: ClassifierStats(name) for name in names}
    for rep_result in per_rep:
        for name, err, feats, params, failure in rep_result:
            if failure:
                stats[name].failures += 1
                continue
            stats[name].errors.append(err)
            stats[name].features.append(feats)
            stats[name].params.append(params)
    setting = f"sim{sim_id} level={level} " + (f"r={d_or_r}" if sim_id == 4 else f"d={d_or_r}")
    return EvalReport(setting=setting, unit="rep", stats=[stats[n] for n in names],
                      notes=_notes(names, options))


def run_cv_benchmark(ds: LabeledDataset, classifiers, cv: CvConfig,
                     options: HarnessOptions | None = None,
                     setting: str = "cv") -> EvalReport:
    """Cross-validated benchmark on a fixed dataset: tune on each training
    fold (nested CV), fit, and score on the held-out fold."""
    names = [canonical_classifier(c) for c in classifiers]
    options = options or HarnessOptions()
    splits = k_fold_split(ds, cv)
    stats = {name: ClassifierStats(name) for name in names}
    for f, (tr, te) in enumerate(splits):
        train = _subset(ds, tr)
        fold_seed = rngmod.child_seed(cv.seed, "fold", f)
        for name in names:
            try:
                err, feats, params = _fit_and_score(
                    name, train, ds.x[te], ds.labels[te], fold_seed, options)
            except _FIT_FAILURES:
                stats[name].failures += 1
                continue
            stats[name].errors.append(err)
            stats[name].features.append(feats)
            stats[name].params.append(params)
    return EvalReport(setting=f"{setting} folds={cv.folds}", unit="fold",
                      stats=[stats[n] for n in names], notes=_notes(names, options))
