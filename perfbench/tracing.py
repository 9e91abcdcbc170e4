"""Per-layer tracing by wrapping ndc's public functions.

``Tracer.install`` replaces each target function with a timing wrapper
in every ``ndc`` module that binds it, so re-imported names such as
``ndc.evaluate.fit_best`` or ``ndc.cli.predict_many`` are traced too.
Spans (name, start, end, parent, count, error) stay in memory until
``write`` and ``layer_metrics`` turn them into per-layer figures.
Counts come from what the calls return or raise: ``refine_partition``
returns its iteration count, ``EmptyGroupError`` marks an emptied
group, and ``iter_assignments`` yields one item per assignment.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

SPAN_FIELDS = ("name", "start", "end", "parent", "count", "error")

# (module, function, span name, count taken from (result, args))
TARGETS = (
    ("ndc.kmeans", "fit_best", "kmeans.fit_best", None),
    ("ndc.kmeans", "lloyd_fit", "kmeans.lloyd_fit", None),
    ("ndc.kmeans", "init_partition", "kmeans.init", None),
    ("ndc.kmeans", "refine_partition", "kmeans.refine", lambda res, args: res[1]),
    ("ndc.kmeans", "update_centers", "kmeans.update", None),
    ("ndc.kmeans", "assign_rows", "kmeans.assign", None),
    ("ndc.evaluate", "run_simulation_benchmark", "evaluate.run_simulation_benchmark", None),
    ("ndc.evaluate", "run_cv_benchmark", "evaluate.run_cv_benchmark", None),
    ("ndc.evaluate", "tune_lambda", "evaluate.tune_lambda", None),
    ("ndc.evaluate", "tune_delta", "evaluate.tune_delta", None),
    ("ndc.evaluate", "k_fold_split", "evaluate.k_fold_split", None),
    ("ndc.baselines", "knn_fit", "baselines.knn", None),
    ("ndc.baselines", "knn_predict_many", "baselines.knn_predict", None),
    ("ndc.baselines", "nc_fit", "baselines.nc", None),
    ("ndc.baselines", "nc_predict_many", "baselines.nc", None),
    ("ndc.baselines", "nsc_fit", "baselines.nsc", None),
    ("ndc.baselines", "nsc_predict_many", "baselines.nsc", None),
    ("ndc.baselines", "nsc_delta_grid", "baselines.nsc", None),
    ("ndc.classifier", "compute_centroids", "classifier.centroids", None),
    ("ndc.classifier", "empirical_risk", "classifier.risk", None),
    ("ndc.classifier", "training_error", "classifier.train_error", None),
    ("ndc.classifier", "predict_many", "classifier.predict", lambda res, args: len(res)),
    ("ndc.classifier", "load_model", "classifier.load_model", None),
    ("ndc.data", "read_labeled_csv", "data.read_csv", lambda res, args: res.n),
    ("ndc.data", "read_feature_csv", "data.read_csv", lambda res, args: len(res[0])),
    ("ndc.data", "write_labeled_csv", "data.write_csv", lambda res, args: args[1].n),
    ("ndc.simulate", "generate", "simulate.generate", None),
    ("ndc.oracle", "brute_force_minimizer", "oracle.brute", None),
    ("ndc.oracle", "check_diagonal_optimality", "oracle.diag_check", None),
    ("ndc.cli", "main", "cli.main", None),
    ("ndc.cli", "cmd_simulate", "cli.simulate", None),
    ("ndc.cli", "cmd_predict", "cli.predict", None),
    ("ndc.cli", "cmd_benchmark", "cli.benchmark", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _wrap(self, fn, name: str, count, peak_memory: bool = False):
        """A timing wrapper.  With ``peak_memory`` the span's count is the
        peak KiB allocated during the call itself, numpy buffers included
        (numpy reports them to tracemalloc), whatever the process held
        or had peaked at before."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if peak_memory:
                tracemalloc.start()
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if peak_memory:
                    span[4] = tracemalloc.get_traced_memory()[1] // 1024
                    tracemalloc.stop()
            if count is not None:
                span[4] = count(result, args)
            return result
        return traced

    def _counting_generator(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            owner = self.spans[self._stack[-1]] if self._stack else None
            for item in fn(*args, **kwargs):
                if owner is not None:
                    owner[4] += 1
                yield item
        return counted

    def _replace(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` wherever an ndc module
        binds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ndc" or modname.startswith("ndc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        for modname, fname, name, count in TARGETS:
            fn = getattr(importlib.import_module(modname), fname)
            self._replace(fn, self._wrap(fn, name, count,
                                         peak_memory=fname == "knn_predict_many"))
        oracle = sys.modules["ndc.oracle"]
        self._replace(oracle.iter_assignments,
                      self._counting_generator(oracle.iter_assignments))
        dataset_cls = sys.modules["ndc.data"].LabeledDataset
        descriptor = dataset_cls.__dict__["from_arrays"]
        traced = self._wrap(descriptor.__func__, "data.dataset", None)
        dataset_cls.from_arrays = classmethod(traced)
        self._restore.append((dataset_cls, "from_arrays", descriptor))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round (ratios and peaks are not
    divided).  A layer's self time is its spans' time not covered by
    their direct child spans."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls, secs, counts, errors = Counter(), defaultdict(float), Counter(), Counter()
    self_s = defaultdict(float)
    knn_growth_kb = 0
    for i, (name, start, end, parent, count, error) in enumerate(spans):
        calls[name] += 1
        secs[name] += end - start
        counts[name] += count
        if error:
            errors[name, error] += 1
        self_s[name.split(".")[0]] += (end - start) - child_s[i]
        if name == "baselines.knn_predict":
            knn_growth_kb = max(knn_growth_kb, count)

    def ratio(num, den):
        return num / den if den else 0.0

    refine_calls = calls["kmeans.refine"]
    refine_empty = errors["kmeans.refine", "EmptyGroupError"]
    per_round = {
        "kmeans.fit_best.calls": calls["kmeans.fit_best"],
        "kmeans.fit_best.s": secs["kmeans.fit_best"],
        "kmeans.restarts": calls["kmeans.lloyd_fit"],
        "kmeans.init.calls": calls["kmeans.init"],
        "kmeans.init.s": secs["kmeans.init"],
        "kmeans.refine.calls": refine_calls,
        "kmeans.refine.s": secs["kmeans.refine"],
        "kmeans.refine.iters": counts["kmeans.refine"],
        "kmeans.refine.empty": refine_empty,
        "kmeans.update.s": secs["kmeans.update"],
        "kmeans.assign.s": secs["kmeans.assign"],
        "kmeans.exhausted": errors["kmeans.lloyd_fit", "RestartsExhaustedError"],
        "evaluate.tune_lambda.calls": calls["evaluate.tune_lambda"],
        "evaluate.tune_lambda.s": secs["evaluate.tune_lambda"],
        "evaluate.tune_delta.s": secs["evaluate.tune_delta"],
        "evaluate.self_s": self_s["evaluate"],
        "baselines.knn.s": secs["baselines.knn"] + secs["baselines.knn_predict"],
        "baselines.nsc.s": secs["baselines.nsc"],
        "baselines.nc.s": secs["baselines.nc"],
        "classifier.centroids.calls": calls["classifier.centroids"],
        "classifier.centroids.s": secs["classifier.centroids"],
        "classifier.risk.calls": calls["classifier.risk"],
        "classifier.risk.s": secs["classifier.risk"],
        "classifier.train_error.s": secs["classifier.train_error"],
        "classifier.predict.rows": counts["classifier.predict"],
        "classifier.predict.s": secs["classifier.predict"],
        "classifier.load_model.s": secs["classifier.load_model"],
        "data.read_csv.rows": counts["data.read_csv"],
        "data.read_csv.s": secs["data.read_csv"],
        "data.write_csv.rows": counts["data.write_csv"],
        "data.write_csv.s": secs["data.write_csv"],
        "data.dataset.calls": calls["data.dataset"],
        "data.dataset.s": secs["data.dataset"],
        "simulate.generate.s": secs["simulate.generate"],
        "oracle.assignments": counts["oracle.brute"],
        "oracle.brute.s": secs["oracle.brute"],
        "oracle.diag_check.s": secs["oracle.diag_check"],
        "cli.simulate.s": secs["cli.simulate"],
        "cli.predict.s": secs["cli.predict"],
        "cli.benchmark.s": secs["cli.benchmark"],
        "cli.self_s": self_s["cli"],
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    metrics["kmeans.refine.useful_share"] = ratio(refine_calls - refine_empty, refine_calls)
    metrics["baselines.knn.rss_growth_mb"] = knn_growth_kb / 1024
    metrics["data.read_csv.rows_per_s"] = ratio(counts["data.read_csv"], secs["data.read_csv"])
    metrics["oracle.assignments_per_s"] = ratio(counts["oracle.brute"], secs["oracle.brute"])
    return metrics
