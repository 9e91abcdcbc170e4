"""Benchmark harness: misclassification measurement, stratified k-fold
splits, nested-CV hyperparameter tuning, and the simulation/CV benchmark
runners with text-table and CSV reporting.

Each runnable classifier is one registry entry,
``fit(train, seed, options) -> (predict, features, params)``, which
tunes on the training set if it has a hyperparameter, fits, and returns
a row labeller, the number of features used and the chosen parameters.
ndc is the ndc-s fit with feature selection off and no tuning.  Both
runners score each unit (a simulation repetition or a CV fold) with one
unit scorer and build the report with one aggregator.  Both hand their
jobs (a repetition; an outer fold and classifier) to `_map_in_workers`,
the one place that decides where jobs run: in this process at one
worker, else in a pool of worker processes.  One nested-CV
scorer, over `NESTED_FOLDS` stratified folds of the training data, tunes
the special-group multiplier for ndc-s and the shrinkage threshold for
nsc; tuning fits use a reduced restart budget, final fits the full one.

The heavier comparators from the literature (LDA, SVM, L1 logistic
regression) are not part of this build; reports list them as
unavailable so result tables stay comparable.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import rng as rngmod
from .baselines import (
    knn_fit,
    knn_predict_many,
    nc_fit,
    nc_predict_many,
    nsc_delta_grid,
    nsc_fit,
    nsc_fit_grid,
    nsc_predict_many,
)
from .classifier import predict_many
from .data import LabeledDataset
from .kmeans import FitConfig, FitFailedError, fit_best, fit_grid
from .simulate import generate, preset

DEFAULT_LAMBDA_GRID = (0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, math.inf)
# Folds of the nested CV that tunes a hyperparameter on a training set.
NESTED_FOLDS = 3

UNAVAILABLE_CLASSIFIERS = ("lda", "svm", "logistic")
_ALIASES = {"ndcs": "ndc-s", "ndc_s": "ndc-s"}

# Native thread pools a worker process would otherwise size to every core.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What a fit raises on data it cannot handle: FitFailedError when no
# restart or tuning candidate fitted, and ValueError for selection with
# k + 1 > p, a class with fewer rows than `NESTED_FOLDS` in a nested
# split, or data that nsc's checks find degenerate.  A benchmark unit
# that raises one of these is counted as failed, and a nested fold's
# shrinkage fit that raises one fails every threshold on that fold (a
# multiplier candidate fails as `fit_grid`'s None).  Anything else is a
# programming error and propagates.
_FIT_FAILURES = (FitFailedError, ValueError)


def misclassification_rate(predicted, actual) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ValueError("predicted and actual labels must have equal, non-zero length")
    return float(np.mean(predicted != actual))


@dataclass(frozen=True)
class CvConfig:
    folds: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


def k_fold_split(ds: LabeledDataset, cv: CvConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint covering stratified folds as (train_idx, test_idx) pairs.

    Each class is shuffled separately and its rows dealt round-robin, so
    per-class counts differ by at most one across folds; every class
    therefore needs at least ``folds`` samples.
    """
    rng = rngmod.generator(cv.seed, "kfold")
    fold_of = np.empty(ds.n, dtype=np.int64)
    for j in range(1, ds.k + 1):
        rows = np.flatnonzero(ds.labels == j)
        if len(rows) < cv.folds:
            raise ValueError(
                f"class {j} has {len(rows)} samples, fewer than {cv.folds} folds")
        rows = rng.permutation(rows)
        fold_of[rows] = np.arange(len(rows)) % cv.folds
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
    final_restarts: int = FitConfig.restarts
    knn_neighbors: int = 15
    delta_grid_size: int = 30

    def __post_init__(self):
        if self.tune_restarts < 1 or self.final_restarts < 1:
            raise ValueError("restart counts must be >= 1")
        if not self.lambda_grid or not all(lam > 0 for lam in self.lambda_grid):
            raise ValueError("lambda_grid must hold at least one positive multiplier")
        if self.knn_neighbors < 1:
            raise ValueError("knn_neighbors must be >= 1")
        if self.delta_grid_size < 1:
            raise ValueError("delta_grid_size must be >= 1")


def _tune(train: LabeledDataset, grid, seed: int, stream: str, what: str,
          fit_fold) -> tuple[float, dict[float, float]]:
    """Pick the grid value with the lowest nested-CV misclassification.

    An empty grid raises ValueError, and a single value is returned
    without fitting (its error as NaN).  The `NESTED_FOLDS` nested folds
    are drawn from ``seed``'s child ``stream``; each fold's training
    set and validation rows are built once and shared by every candidate.
    ``fit_fold(data, f, seed)`` fits every candidate on ``data``, the
    training part of nested fold ``f`` (``seed`` being the nested folds'
    seed), and returns per candidate a function that labels rows, or
    None where that candidate's fit failed.  A candidate whose fits fail
    on every nested fold is skipped; ties go to the largest value.
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError(f"empty {what} grid")
    if len(grid) == 1:
        return grid[0], {grid[0]: float("nan")}
    nested = CvConfig(folds=NESTED_FOLDS, seed=rngmod.child_seed(seed, stream))
    fold_errors = [[] for _ in grid]
    for f, (tr, va) in enumerate(k_fold_split(train, nested)):
        x_va, labels_va = train.x[va], train.labels[va]
        for errors, predict in zip(fold_errors, fit_fold(_subset(train, tr), f, nested.seed)):
            if predict is not None:
                errors.append(misclassification_rate(predict(x_va), labels_va))
    mean_errors = {value: float(np.mean(errors))
                   for value, errors in zip(grid, fold_errors) if errors}
    if not mean_errors:
        raise FitFailedError(f"every {what} candidate failed all nested fits")
    best_err = min(mean_errors.values())
    best = max(v for v, err in mean_errors.items() if err == best_err)
    return best, mean_errors


def tune_lambda(train: LabeledDataset, grid, seed: int,
                restarts: int) -> tuple[float, dict[float, float]]:
    """Pick the special-group multiplier by nested CV misclassification.

    Each candidate fits with ``restarts`` restarts, and every candidate's
    restarts on a nested fold share one `fit_grid` queue.  Candidates
    whose fits fail on every nested fold are skipped; ties go to the
    largest multiplier (feature selection is sacrificed last).
    """
    grid = tuple(grid)
    configs = [FitConfig(restarts=restarts, lam=lam) for lam in grid]

    def fit_fold(data, f, nested_seed):
        fits = fit_grid(data, [replace(config, seed=rngmod.child_seed(nested_seed, "lam", i,
                                                                      "fold", f))
                               for i, config in enumerate(configs)])
        return [None if fit is None else partial(predict_many, fit[1]) for fit in fits]

    return _tune(train, grid, seed, "nested-lambda", "multiplier", fit_fold)


def tune_delta(train: LabeledDataset, seed: int,
               grid_size: int) -> tuple[float, dict[float, float]]:
    """Pick one of ``grid_size`` shrinkage thresholds by nested CV
    misclassification; ties go to the largest (fewest features).

    Each nested fold's statistics are computed once and shrunk to every
    threshold (`nsc_fit_grid`), so data that nsc finds degenerate fails
    every threshold on that fold.
    """
    grid = [float(delta) for delta in nsc_delta_grid(train, size=grid_size)]

    def fit_fold(data, f, nested_seed):
        try:
            models = nsc_fit_grid(data, grid)
        except _FIT_FAILURES:
            return [None] * len(grid)
        return [partial(nsc_predict_many, model) for model in models]

    return _tune(train, grid, seed, "nested-delta", "shrinkage", fit_fold)


# The registry's entries look up the fit and predict functions by their
# module names at call time, so that rebinding a name reaches every unit.

def _fit_partition(train: LabeledDataset, seed: int, options: HarnessOptions, lam: float):
    config = FitConfig(restarts=options.final_restarts, lam=lam,
                       seed=rngmod.child_seed(seed, "fit", "ndc"))
    _, model, _ = fit_best(train, config)
    return (lambda x: predict_many(model, x)), model.selected_feature_count


def _ndc(train, seed, options):
    return *_fit_partition(train, seed, options, math.inf), {}


def _ndc_s(train, seed, options):
    lam, _ = tune_lambda(train, options.lambda_grid, rngmod.child_seed(seed, "tune", "ndc-s"),
                         options.tune_restarts)
    return *_fit_partition(train, seed, options, lam), {"lambda": lam}


def _nc(train, seed, options):
    model = nc_fit(train)
    return (lambda x: nc_predict_many(model, x)), train.p, {}


def _nsc(train, seed, options):
    delta, _ = tune_delta(train, rngmod.child_seed(seed, "tune", "nsc"), options.delta_grid_size)
    model = nsc_fit(train, delta)
    return (lambda x: nsc_predict_many(model, x)), model.selected_feature_count, {"delta": delta}


def _knn(train, seed, options):
    model = knn_fit(train, m=min(options.knn_neighbors, train.n))
    return (lambda x: knn_predict_many(model, x)), train.p, {"m": model.m}


_REGISTRY = {"ndc": _ndc, "ndc-s": _ndc_s, "nc": _nc, "nsc": _nsc, "knn": _knn}
RUNNABLE_CLASSIFIERS = tuple(_REGISTRY)
# The tuned classifiers, longest first: a CV benchmark queues their jobs
# ahead of the others', so that in a pool no long job starts last.
_QUEUE_FIRST = {"ndc-s": 0, "nsc": 1}


def canonical_classifier(name: str) -> str:
    name = name.strip().lower()
    name = _ALIASES.get(name, name)
    if name in RUNNABLE_CLASSIFIERS:
        return name
    if name in UNAVAILABLE_CLASSIFIERS:
        raise ValueError(f"classifier '{name}' is not available in this build")
    raise ValueError(f"unknown classifier '{name}'")


def _classifier_names(classifiers) -> list[str]:
    """The canonical names of ``classifiers``; ValueError when there are none."""
    names = [canonical_classifier(c) for c in classifiers]
    if not names:
        raise ValueError("no classifiers given")
    return names


def _score_unit(names, train: LabeledDataset, test_x: np.ndarray, test_labels: np.ndarray,
                seed: int, options: HarnessOptions) -> list[tuple[float, float, dict] | None]:
    """Fit every named classifier on ``train`` and score it on the test
    block: (error, features_used, chosen_params) per name, or None where
    the fit failed.  Tuned classifiers run their nested CV on the
    training data only."""
    out = []
    for name in names:
        try:
            predict, features, params = _REGISTRY[name](train, seed, options)
            out.append((misclassification_rate(predict(test_x), test_labels),
                        float(features), params))
        except _FIT_FAILURES:
            out.append(None)
    return out


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
        lines.append("not available in this build: " + ", ".join(UNAVAILABLE_CLASSIFIERS))
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


def _report(setting: str, unit: str, names, units, options: HarnessOptions) -> EvalReport:
    """Aggregate the per-unit results of `_score_unit` into a report."""
    stats = [ClassifierStats(name) for name in names]
    for results in units:
        for s, result in zip(stats, results):
            if result is None:
                s.failures += 1
                continue
            err, feats, params = result
            s.errors.append(err)
            s.features.append(feats)
            s.params.append(params)
    notes = []
    if "ndc-s" in names or "ndc" in names:
        notes.append(f"partition fits: {options.final_restarts} restarts "
                     f"({options.tune_restarts} while tuning)")
    if "nsc" in names:
        notes.append("nsc scores include the empirical-prior correction term")
    return EvalReport(setting=setting, unit=unit, stats=stats, notes=tuple(notes))


def _sim_rep(shared, rep: int) -> list[tuple[float, float, dict] | None]:
    """Repetition ``rep`` of a simulation benchmark: draw train/test from
    the shared preset, then score it."""
    config, names, seed, options = shared
    train = generate(config, rngmod.generator(seed, "rep", rep, "train"))
    test = generate(config, rngmod.generator(seed, "rep", rep, "test"))
    return _score_unit(names, train, test.x, test.labels,
                       rngmod.child_seed(seed, "rep", rep), options)


def _openblas_function(name: str):
    """``openblas_<name>`` of the OpenBLAS loaded in this process, or None.

    numpy's bundled ``libscipy_openblas64_`` exports it as
    ``scipy_openblas_<name>64_``, a system OpenBLAS as ``openblas_<name>``.
    The library is found among the files this process has mapped, so the
    lookup needs Linux's ``/proc``; elsewhere it returns None.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = (line.split(None, 5) for line in fh)
            paths = {f[5].rstrip("\n") for f in fields if len(f) == 6}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


# The job function and its shared argument, which `_map_in_workers`
# hands each worker once, through the pool's initializer.
_shared = None


def _init_worker(shared, pin_blas: bool) -> None:
    global _shared
    _shared = shared
    if pin_blas:
        set_threads = _openblas_function("set_num_threads")
        if set_threads is not None:
            set_threads(1)


def _run_job(job):
    fn, shared = _shared
    return fn(shared, job)


def _map_in_workers(fn, shared, jobs, threads: int | None) -> list:
    """``[fn(shared, job) for job in jobs]``, in job order, in up to
    ``threads`` processes.

    This is where every benchmark job runs.  ``threads`` defaults to the
    cores this process may run on (its CPU affinity where the platform
    reports one, else every core); below 1 raises ValueError.  Capped at
    the job count, one worker runs the jobs here, in this process.  More
    start a pool, and ``fn`` and ``shared`` reach each worker once, so a
    job need carry only what differs between jobs.  On Linux the workers
    are forked: they inherit the loaded modules and ``shared`` and start
    in milliseconds.  Elsewhere they are spawned: ``fn`` must be a
    module-level function, ``shared`` is pickled once per worker, and the
    caller's script must guard its entry point with
    ``if __name__ == "__main__":``.

    The pool already fills the cores, so each worker runs its BLAS with
    one thread unless the caller's environment says otherwise: a BLAS
    pool per worker oversubscribes the cores, and OpenBLAS threads spin
    between products.  A spawned worker's libraries read the thread
    variables set here when they load; a forked one inherits the
    parent's loaded OpenBLAS, which its initializer sets to one thread.
    """
    if threads is None:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    jobs = list(jobs)
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [fn(shared, job) for job in jobs]
    unset = [var for var in _THREAD_VARS if var not in os.environ]
    method = "fork" if sys.platform.startswith("linux") else "spawn"
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context(method),
                                 initializer=_init_worker,
                                 initargs=((fn, shared), "OPENBLAS_NUM_THREADS" in unset)) as pool:
            return list(pool.map(_run_job, jobs))
    finally:
        for var in unset:
            del os.environ[var]


def run_simulation_benchmark(sim_id: int, level: float, d_or_r: int, reps: int,
                             classifiers, seed: int,
                             options: HarnessOptions | None = None,
                             threads: int | None = None) -> EvalReport:
    """Repeatedly draw independent train/test matrices from a preset and
    aggregate per-classifier error and feature-count statistics.

    Repetitions are independent, one job each, and run in up to
    ``threads`` worker processes (default: every usable core; 1 runs them
    in this process); every repetition derives its own streams from
    ``seed``, so results do not depend on the worker count.  A bad preset
    raises ValueError before any job runs.  See `_map_in_workers` for
    where the jobs run.
    """
    if reps < 2:
        raise ValueError("need at least 2 repetitions")
    names = _classifier_names(classifiers)
    config = preset(sim_id, level, d_or_r)
    options = options or HarnessOptions()
    per_rep = _map_in_workers(_sim_rep, (config, names, seed, options), range(reps), threads)
    setting = f"sim{sim_id} level={level} " + (f"r={d_or_r}" if sim_id == 4 else f"d={d_or_r}")
    return _report(setting, "rep", names, per_rep, options)


def _cv_job(shared, job) -> tuple[float, float, dict] | None:
    """One (outer fold, classifier) of a CV benchmark, on the shared
    dataset, splits, seed and options."""
    ds, splits, seed, options = shared
    f, name = job
    tr, te = splits[f]
    return _score_unit([name], _subset(ds, tr), ds.x[te], ds.labels[te],
                       rngmod.child_seed(seed, "fold", f), options)[0]


def run_cv_benchmark(ds: LabeledDataset, classifiers, cv: CvConfig,
                     options: HarnessOptions | None = None,
                     setting: str = "cv", threads: int | None = None) -> EvalReport:
    """Cross-validated benchmark on a fixed dataset: tune on each training
    fold (nested CV), fit, and score on the held-out fold.

    Each (outer fold, classifier) is one job, and the jobs run in up to
    ``threads`` worker processes (default: every usable core; 1 runs the
    same jobs in this process).  The tuned classifiers' jobs, the
    longest, are queued first.  A job draws from its fold's seed wherever
    it runs, so results do not depend on the worker count.
    """
    names = _classifier_names(classifiers)
    options = options or HarnessOptions()
    splits = k_fold_split(ds, cv)
    ordered = sorted(dict.fromkeys(names),
                     key=lambda name: _QUEUE_FIRST.get(name, len(_QUEUE_FIRST)))
    jobs = [(f, name) for name in ordered for f in range(cv.folds)]
    done = dict(zip(jobs, _map_in_workers(_cv_job, (ds, splits, cv.seed, options), jobs,
                                          threads)))
    per_fold = [[done[f, name] for name in names] for f in range(cv.folds)]
    return _report(f"{setting} folds={cv.folds}", "fold", names, per_fold, options)
