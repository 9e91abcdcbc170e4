"""The benchmark's per-layer tracer rebinds ndc's functions by name.  A
refactor that stops calling a traced function through the name the
tracer rebinds would make its layer metrics read 0; this guards the
names the harness must keep calling, and that uninstalling restores
every rebound name."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import ndc
import ndc.cli  # noqa: F401 - bound before install, as the benchmark's worker does
import ndc.oracle  # noqa: F401
from ndc.data import LabeledDataset
from ndc.evaluate import CvConfig, HarnessOptions

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in an ndc module, plus the dataset constructor."""
    out = {(modname, attr): value
           for modname, module in list(sys.modules.items())
           if module is not None and (modname == "ndc" or modname.startswith("ndc."))
           for attr, value in vars(module).items()}
    out["from_arrays"] = LabeledDataset.__dict__["from_arrays"]
    return out


def test_tracer_sees_tuning_and_baselines_and_restores_names():
    tracing = _load_tracing()
    rng = np.random.default_rng(70)
    labels = np.repeat([1, 2], 9)
    x = rng.normal(size=(18, 6))
    x[labels == 1, :2] += 3.0
    x[labels == 2, 2:4] += 3.0
    ds = LabeledDataset.from_arrays(x, labels)
    options = HarnessOptions(lambda_grid=(0.9, np.inf), tune_restarts=2,
                             final_restarts=2, knn_neighbors=3, delta_grid_size=3)

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ndc.evaluate.tune_lambda is not before["ndc.evaluate", "tune_lambda"]
        # the tracer records in this process only, not in pool workers
        report = ndc.evaluate.run_cv_benchmark(ds, ["ndc-s", "nc", "nsc", "knn"],
                                               CvConfig(folds=2, seed=3), options=options,
                                               threads=1)
    finally:
        tracer.uninstall()

    assert all(s.n_units == 2 for s in report.stats)
    names = {span[0] for span in tracer.spans}
    for layer in ("evaluate.tune_lambda", "evaluate.tune_delta",
                  "baselines.nc", "baselines.nsc", "baselines.knn"):
        assert layer in names, layer
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["evaluate.tune_lambda.calls"] == 2
    for metric in ("evaluate.tune_delta.s", "baselines.nc.s", "baselines.nsc.s",
                   "baselines.knn.s", "kmeans.fit_best.s"):
        assert metrics[metric] > 0, metric
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
