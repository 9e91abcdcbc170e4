import math
import multiprocessing
import os
import sys

import numpy as np
import pytest

from conftest import block_dataset, random_dataset
from ndc.data import LabeledDataset
from ndc.evaluate import (
    CvConfig,
    HarnessOptions,
    canonical_classifier,
    k_fold_split,
    misclassification_rate,
    run_cv_benchmark,
    run_simulation_benchmark,
    tune_delta,
    tune_lambda,
)
from ndc.evaluate import _THREAD_VARS, _map_in_workers, _openblas_function


def test_misclassification_examples():
    assert misclassification_rate([1, 2, 1], [1, 2, 1]) == 0.0
    assert misclassification_rate([1, 1, 1, 1], [2, 2, 2, 2]) == 1.0
    assert misclassification_rate([1, 2, 1, 2], [1, 2, 2, 2]) == 0.25
    with pytest.raises(ValueError):
        misclassification_rate([1], [1, 2])
    with pytest.raises(ValueError):
        misclassification_rate([], [])


def test_k_fold_balanced_dealing():
    ds = LabeledDataset.from_arrays(np.arange(12.0).reshape(6, 2),
                                    [1, 1, 1, 2, 2, 2])
    splits = k_fold_split(ds, CvConfig(folds=3, seed=0))
    for train, test in splits:
        assert len(test) == 2
        assert sorted(ds.labels[test].tolist()) == [1, 2]


def test_k_fold_disjoint_covering_and_deterministic():
    rng = np.random.default_rng(50)
    ds = random_dataset(rng, k=3, p=4, n_per_class=7)
    cv = CvConfig(folds=3, seed=123)
    splits_a = k_fold_split(ds, cv)
    splits_b = k_fold_split(ds, cv)
    for (tra, tea), (trb, teb) in zip(splits_a, splits_b):
        np.testing.assert_array_equal(tea, teb)
        np.testing.assert_array_equal(tra, trb)
    all_test = np.concatenate([t for _, t in splits_a])
    assert sorted(all_test.tolist()) == list(range(ds.n))
    # stratification keeps per-class counts within one of each other
    for j in range(1, ds.k + 1):
        counts = [int((ds.labels[t] == j).sum()) for _, t in splits_a]
        assert max(counts) - min(counts) <= 1


def test_k_fold_small_class_rejected():
    ds = LabeledDataset.from_arrays(np.arange(8.0).reshape(4, 2), [1, 1, 1, 2])
    with pytest.raises(ValueError, match="fewer than"):
        k_fold_split(ds, CvConfig(folds=2, seed=0))


def test_tune_lambda_singleton_grid(toy_ds):
    lam, _ = tune_lambda(toy_ds, (math.inf,), 0, 25)
    assert lam == math.inf


def test_tune_lambda_prefers_dominant_multiplier():
    # irrelevant features dilute the no-selection fit, so the finite
    # multiplier wins the nested CV on this design
    rng = np.random.default_rng(101)
    ds = block_dataset(rng, k=2, n_per_class=30, d=2, mu1=1.2, mu2=0.0,
                       sigma1=1.0, sigma2=2.2, r=12)
    lam, errors = tune_lambda(ds, (0.8, math.inf), 1, 10)
    assert lam == 0.8
    assert errors[0.8] < errors[math.inf]


def test_tune_lambda_skips_always_failing_candidate():
    # only two distinct feature profiles exist, so the selection variant
    # can never fill k + 1 clusters: every finite-multiplier fit fails
    # and the surviving candidate is returned
    ind = np.array([1.0] * 6 + [-1.0] * 6)
    x = np.stack([ind, ind, np.full(12, 0.5), np.full(12, 0.5)], axis=1)
    ds = LabeledDataset.from_arrays(x, [1] * 6 + [2] * 6)
    lam, errors = tune_lambda(ds, (0.5, math.inf), 2, 5)
    assert lam == math.inf
    assert 0.5 not in errors


def test_tune_lambda_skips_candidate_with_too_few_features():
    # p = 2 features cannot hold k + 1 = 3 groups, so every finite
    # multiplier fails its up-front check and counts as a failed candidate
    x = np.array([[0.0, 5.0], [1.0, 4.0], [0.5, 4.5], [5.0, 0.0], [4.0, 1.0], [4.5, 0.5]] * 2)
    ds = LabeledDataset.from_arrays(x, [1, 1, 1, 2, 2, 2] * 2)
    lam, errors = tune_lambda(ds, (0.9, math.inf), 2, 3)
    assert lam == math.inf
    assert list(errors) == [math.inf]


@pytest.mark.parametrize("grid, restarts", [((0.0, math.inf), 2), ((math.nan, math.inf), 2),
                                            ((0.9, math.inf), 0), ((math.inf,), 0)])
def test_tune_lambda_refuses_bad_arguments(grid, restarts):
    # a bad multiplier or restart count is an input error, not a failed
    # candidate, even for a grid of one value that is never fitted
    ds = block_dataset(np.random.default_rng(104), k=2, n_per_class=9, d=2, sigma2=1.5, r=2)
    with pytest.raises(ValueError, match="must be"):
        tune_lambda(ds, grid, 0, restarts)


def test_tune_lambda_lets_programming_errors_escape(monkeypatch, toy_ds):
    import ndc.evaluate

    def broken_fit(ds, configs):
        raise TypeError("broken fit")

    monkeypatch.setattr(ndc.evaluate, "fit_grid", broken_fit)
    ds = LabeledDataset.from_arrays(np.tile(toy_ds.x, (3, 1)), np.tile(toy_ds.labels, 3))
    with pytest.raises(TypeError, match="broken fit"):
        tune_lambda(ds, (0.8, math.inf), 0, 25)


def test_tune_delta_picks_largest_on_ties():
    rng = np.random.default_rng(103)
    # strongly separated classes: many thresholds reach zero CV error and
    # the largest one must win
    x = np.vstack([rng.normal(size=(12, 3)) + 8.0, rng.normal(size=(12, 3)) - 8.0])
    ds = LabeledDataset.from_arrays(x, [1] * 12 + [2] * 12)
    delta, errors = tune_delta(ds, 3, 30)
    zero_error = [d for d, e in errors.items() if e == min(errors.values())]
    assert delta == max(zero_error)


def test_tune_delta_refuses_an_empty_grid():
    ds = LabeledDataset.from_arrays(np.arange(24.0).reshape(12, 2), [1] * 6 + [2] * 6)
    with pytest.raises(ValueError, match="empty shrinkage grid"):
        tune_delta(ds, 0, 0)
    with pytest.raises(ValueError, match="empty multiplier grid"):
        tune_lambda(ds, (), 0, 25)


def test_tune_delta_single_candidate_is_returned_without_fitting(monkeypatch):
    import ndc.evaluate

    def no_fit(ds, deltas):
        raise AssertionError("a single candidate needs no nested fit")

    monkeypatch.setattr(ndc.evaluate, "nsc_fit_grid", no_fit)
    ds = LabeledDataset.from_arrays(np.arange(24.0).reshape(12, 2), [1] * 6 + [2] * 6)
    delta, errors = tune_delta(ds, 0, 1)
    assert delta == 0.0
    assert list(errors) == [0.0] and math.isnan(errors[0.0])


def test_tune_delta_fails_every_threshold_on_a_degenerate_nested_fold():
    import ndc.evaluate
    from ndc.baselines import nsc_fit, nsc_predict_many

    # every row but one equals its class's constant, so the nested fold
    # that holds that row out has zero pooled sd everywhere
    x = np.repeat([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]], 9, axis=0)
    x[0] += [0.5, -0.25, 1.0]
    ds = LabeledDataset.from_arrays(x, [1] * 9 + [2] * 9)
    grid = [float(d) for d in ndc.evaluate.nsc_delta_grid(ds, size=5)]
    nested = CvConfig(folds=ndc.evaluate.NESTED_FOLDS,
                      seed=ndc.rng.child_seed(11, "nested-delta"))
    expected = {delta: [] for delta in grid}
    failed = []
    for f, (tr, va) in enumerate(k_fold_split(ds, nested)):
        data = ndc.evaluate._subset(ds, tr)
        for delta in grid:
            try:
                model = nsc_fit(data, delta)
            except ValueError:
                failed.append(f)
                continue
            expected[delta].append(misclassification_rate(nsc_predict_many(model, ds.x[va]),
                                                          ds.labels[va]))
    assert len(failed) == len(grid) and len(set(failed)) == 1  # one fold, every threshold
    _, errors = tune_delta(ds, 11, 5)
    assert errors == {delta: float(np.mean(errs)) for delta, errs in expected.items()}


def test_tuning_builds_each_nested_training_set_once(monkeypatch):
    import ndc.evaluate

    built = []
    subset = ndc.evaluate._subset
    monkeypatch.setattr(ndc.evaluate, "_subset",
                        lambda ds, rows: built.append(len(rows)) or subset(ds, rows))
    rng = np.random.default_rng(104)
    x = np.vstack([rng.normal(size=(12, 3)) + 2.0, rng.normal(size=(12, 3)) - 2.0])
    ds = LabeledDataset.from_arrays(x, [1] * 12 + [2] * 12)
    tune_delta(ds, 3, 5)
    assert len(built) == 3  # one per nested fold, not one per candidate and fold
    built.clear()
    tune_lambda(ds, (0.9, math.inf), 3, 2)
    assert len(built) == 3


def test_tuning_fits_every_multiplier_of_a_nested_fold_in_one_grid_fit(monkeypatch):
    import ndc.evaluate

    calls = []
    fit_grid = ndc.evaluate.fit_grid
    monkeypatch.setattr(ndc.evaluate, "fit_grid",
                        lambda ds, configs: calls.append(configs) or fit_grid(ds, configs))
    monkeypatch.setattr(ndc.evaluate, "fit_best", _no_draw)
    rng = np.random.default_rng(104)
    x = np.vstack([rng.normal(size=(12, 4)) + 2.0, rng.normal(size=(12, 4)) - 2.0])
    ds = LabeledDataset.from_arrays(x, [1] * 12 + [2] * 12)
    grid = (0.9, 1.5, math.inf)
    tune_lambda(ds, grid, 3, 2)
    assert len(calls) == 3  # one per nested fold, not one per candidate and fold
    for configs in calls:
        assert [(c.lam, c.restarts) for c in configs] == [(lam, 2) for lam in grid]
    assert len({c.seed for configs in calls for c in configs}) == 9


def test_cv_benchmark_separable_toy(toy_ds):
    x = np.tile(toy_ds.x, (6, 1))
    labels = np.tile(toy_ds.labels, 6)
    ds = LabeledDataset.from_arrays(x, labels)
    options = HarnessOptions(final_restarts=10, tune_restarts=5)
    report = run_cv_benchmark(ds, ["ndc", "nc"], CvConfig(folds=3, seed=4),
                              options=options)
    by_name = {s.name: s for s in report.stats}
    assert by_name["ndc"].mean_error == 0.0
    assert by_name["nc"].mean_error == 0.0
    assert by_name["ndc"].n_units == 3


def test_cv_benchmark_constant_features():
    # every row identical: all centroids coincide, ties go to class 1,
    # so the error is one minus the class-1 share of each test fold
    x = np.tile([5.0, 7.0], (12, 1))
    ds = LabeledDataset.from_arrays(x, [1] * 8 + [2] * 4)
    options = HarnessOptions(final_restarts=5)
    report = run_cv_benchmark(ds, ["ndc", "nc", "nsc"], CvConfig(folds=2, seed=5),
                              options=options)
    by_name = {s.name: s for s in report.stats}
    assert by_name["ndc"].mean_error == pytest.approx(1 / 3)
    assert by_name["nc"].mean_error == pytest.approx(1 / 3)
    # the shrunken-centroid fit is degenerate on constant data and is
    # recorded as a failure instead of a number
    assert by_name["nsc"].failures == 2
    assert by_name["nsc"].n_units == 0


def test_simulation_benchmark_report_shape_and_se():
    report = run_simulation_benchmark(
        2, 0.9, 3, reps=3, classifiers=["nc", "knn"], seed=11,
        options=HarnessOptions(final_restarts=5, tune_restarts=3), threads=1)
    assert report.unit == "rep"
    for s in report.stats:
        assert s.n_units == 3
        assert 0.0 <= s.mean_error <= 1.0
        expected_se = float(np.std(s.errors, ddof=1) / np.sqrt(len(s.errors)))
        assert s.se_error == pytest.approx(expected_se, rel=1e-12)
        assert s.mean_features == 12.0
    rows = report.csv_rows()
    assert rows[0] == ["classifier", "setting", "mean_error", "se_error",
                       "mean_features", "se_features", "reps"]
    assert len(rows) == 3
    table = "\n".join(report.table_lines())
    assert "lda" in table and "svm" in table and "logistic" in table


def test_ndc_equals_ndcs_with_inf_only_grid():
    options = HarnessOptions(lambda_grid=(math.inf,), final_restarts=5,
                             tune_restarts=3)
    report = run_simulation_benchmark(
        2, 0.9, 3, reps=2, classifiers=["ndc", "ndc-s"], seed=12,
        options=options, threads=1)
    ndc, ndcs = report.stats
    assert ndc.errors == ndcs.errors
    assert ndc.features == ndcs.features


def test_simulation_benchmark_deterministic_and_thread_independent():
    options = HarnessOptions(final_restarts=4, tune_restarts=3)
    a = run_simulation_benchmark(1, 0.3, 3, reps=2, classifiers=["nc", "ndc"],
                                 seed=13, options=options, threads=1)
    b = run_simulation_benchmark(1, 0.3, 3, reps=2, classifiers=["nc", "ndc"],
                                 seed=13, options=options, threads=2)
    for sa, sb in zip(a.stats, b.stats):
        assert sa.errors == sb.errors
        assert sa.features == sb.features


def test_classifier_name_handling():
    assert canonical_classifier("NDCS") == "ndc-s"
    assert canonical_classifier(" nc ") == "nc"
    with pytest.raises(ValueError, match="not available"):
        canonical_classifier("lda")
    with pytest.raises(ValueError, match="unknown"):
        canonical_classifier("mystery")
    with pytest.raises(ValueError):
        run_simulation_benchmark(1, 0.3, 3, reps=1, classifiers=["nc"], seed=0)


def _no_draw(*args):
    raise AssertionError("no data may be drawn for an empty classifier list")


def test_simulation_benchmark_refuses_no_classifiers(monkeypatch):
    import ndc.evaluate

    monkeypatch.setattr(ndc.evaluate, "generate", _no_draw)
    with pytest.raises(ValueError, match="no classifiers"):
        run_simulation_benchmark(2, 0.9, 10, reps=2, classifiers=[], seed=0, threads=1)


def test_cv_benchmark_refuses_no_classifiers(monkeypatch, toy_ds):
    import ndc.evaluate

    monkeypatch.setattr(ndc.evaluate, "k_fold_split", _no_draw)
    with pytest.raises(ValueError, match="no classifiers"):
        run_cv_benchmark(toy_ds, [], CvConfig(seed=0))


@pytest.mark.parametrize("threads", [0, -3])
def test_simulation_benchmark_refuses_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        run_simulation_benchmark(2, 0.9, 3, reps=2, classifiers=["nc"], seed=0,
                                 threads=threads)


@pytest.mark.parametrize("bad", [
    {"tune_restarts": 0},
    {"final_restarts": 0},
    {"lambda_grid": ()},
    {"lambda_grid": (0.9, 0.0)},
    {"lambda_grid": (-1.0, math.inf)},
    {"lambda_grid": (math.nan,)},
    {"knn_neighbors": 0},
    {"delta_grid_size": 0},
])
def test_harness_options_rejected(bad):
    with pytest.raises(ValueError):
        HarnessOptions(**bad)


def test_pool_workers_get_one_blas_thread_unless_set(monkeypatch):
    # each worker reports its own environment; the caller's is left as it was
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    seen = _map_in_workers(os.getenv, list(_THREAD_VARS), workers=2)
    assert dict(zip(_THREAD_VARS, seen)) == {"OPENBLAS_NUM_THREADS": "1",
                                             "OMP_NUM_THREADS": "1",
                                             "MKL_NUM_THREADS": "3"}
    assert "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ
    assert os.environ["MKL_NUM_THREADS"] == "3"


def _outcomes(report):
    return [(s.name, s.errors, s.features, s.params, s.failures) for s in report.stats]


@pytest.mark.parametrize("constant", [False, True])
def test_cv_benchmark_is_the_same_at_any_worker_count(constant):
    # every classifier, and on constant data nsc fails on every fold
    rng = np.random.default_rng(31)
    labels = np.repeat([1, 2, 3], 6)
    x = np.tile([5.0, 7.0, 1.0, 2.0, 3.0], (18, 1)) if constant else (
        rng.normal(size=(18, 5)) + 2.0 * np.eye(3, 5)[labels - 1])
    ds = LabeledDataset.from_arrays(x, labels)
    options = HarnessOptions(lambda_grid=(0.9, math.inf), tune_restarts=2, final_restarts=3,
                             knn_neighbors=3, delta_grid_size=4)
    names = ["knn", "ndc", "nsc", "nc", "ndc-s"]
    reports = [run_cv_benchmark(ds, names, CvConfig(folds=3, seed=8), options=options,
                                threads=threads) for threads in (1, 2, 3)]
    assert _outcomes(reports[0]) == _outcomes(reports[1]) == _outcomes(reports[2])
    assert [s.name for s in reports[0].stats] == names
    assert dict((s.name, s.failures) for s in reports[0].stats)["nsc"] == (3 if constant else 0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [0, -3])
def test_cv_benchmark_refuses_fewer_than_one_thread(toy_ds, threads):
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        run_cv_benchmark(toy_ds, ["nc"], CvConfig(folds=2, seed=0), threads=threads)


class _Broken(Exception):
    pass


def _broken(train, seed, options):
    raise _Broken(f"broken fit on {train.n} rows")


def test_cv_benchmark_passes_on_a_programming_error_from_a_worker(monkeypatch):
    # not a fit failure, so no unit counts it: it reaches the caller as a
    # serial run raises it, and no worker is left behind
    import ndc.evaluate

    monkeypatch.setitem(ndc.evaluate._REGISTRY, "nc", _broken)
    rng = np.random.default_rng(32)
    labels = np.repeat([1, 2], 6)
    ds = LabeledDataset.from_arrays(rng.normal(size=(12, 4)) + np.eye(2, 4)[labels - 1], labels)
    raised = []
    for threads in (1, 2):
        with pytest.raises(_Broken) as info:
            run_cv_benchmark(ds, ["knn", "nc"], CvConfig(folds=3, seed=1), threads=threads)
        raised.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    assert raised[0] == raised[1] == (_Broken, "broken fit on 8 rows")


def _blas_threads(job):
    return _openblas_function("get_num_threads")()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers are forked on Linux")
def test_forked_workers_run_openblas_on_one_thread_unless_set(monkeypatch):
    get_threads = _openblas_function("get_num_threads")
    set_threads = _openblas_function("set_num_threads")
    if get_threads is None or set_threads is None:
        pytest.skip("no OpenBLAS thread-count symbols found in this process")
    before = get_threads()
    set_threads(2)  # a forked worker inherits this pool, as on an unpinned 2-core host
    try:
        if get_threads() != 2:
            pytest.skip("OpenBLAS would not take 2 threads here")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert _map_in_workers(_blas_threads, [0, 1], workers=2) == [1, 1]
        assert get_threads() == 2  # the caller's own pool is left as it was
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert _map_in_workers(_blas_threads, [0, 1], workers=2) == [2, 2]
    finally:
        set_threads(before)
    assert multiprocessing.active_children() == []
