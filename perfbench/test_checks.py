"""Each checker accepts what ndc produces and rejects a corrupted copy:
one flipped label, one perturbed risk, one dropped row.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

import csv
import itertools
import json

import numpy as np
import pytest

import ndc
from ndc.cli import main

import checks


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def sim4_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim4")
    train, test = d / "train.csv", d / "test.csv"
    assert main(["simulate", "--sim", "4", "--level", "0.9", "--r", "80", "--seed", "7",
                 "--out-train", str(train), "--out-test", str(test)]) == 0
    model = d / "model.json"
    p = 100
    model.write_text(json.dumps({
        "format_version": 1, "k": 4, "p": p, "has_special": True,
        "partition": [list(range(21, p + 1))] + [list(range(5 * j + 1, 5 * j + 6))
                                                 for j in range(4)],
        "centroids": [[]] + [[0.9] * 5 for _ in range(4)]}))
    pred = d / "pred.csv"
    assert main(["predict", str(model), str(test), "--out", str(pred)]) == 0
    return train, test, model, pred


SIM4 = dict(k=4, n_per_class=250, d=5, r=80, mu1=0.9, sigma1=1.0, sigma2=1.9)


def test_simulated_csv_accepted_and_corruptions_rejected(sim4_files, tmp_path):
    train = sim4_files[0]
    assert checks.check_simulated(train, **SIM4) == []
    rows = _rows(train)
    dropped = tmp_path / "dropped.csv"
    _write_rows(dropped, rows[:100] + rows[101:])
    assert checks.check_simulated(dropped, **SIM4)
    flipped = tmp_path / "flipped.csv"
    rows[5][0] = "2"
    _write_rows(flipped, rows)
    assert checks.check_simulated(flipped, **SIM4)


def test_dn_predictor_matches_ndc_and_rejects_corruptions(sim4_files, tmp_path):
    _, test, model, pred = sim4_files
    assert checks.check_predictions(test, pred, model) == []
    _, _, _, x = checks.read_labeled(test)
    assert np.array_equal(checks.dn_predict(model, x),
                          ndc.predict_many(ndc.load_model(model), x))
    rows = _rows(pred)
    dropped = tmp_path / "dropped.csv"
    _write_rows(dropped, rows[:10] + rows[11:])
    assert checks.check_predictions(test, dropped, model)
    flipped = tmp_path / "flipped.csv"
    rows[10][-1] = str(int(rows[10][-1]) % 4 + 1)
    _write_rows(flipped, rows)
    assert checks.check_predictions(test, flipped, model)


def test_cv_errors_match_ndc_and_reject_corruptions(tmp_path):
    rng = np.random.default_rng(3)
    labels = np.repeat([1, 2, 3], 8)
    x = rng.standard_normal((24, 30))
    x[:, :3] += labels[:, None]
    data = tmp_path / "wide.csv"
    checks.write_labeled(data, x, labels, [f"g{i}" for i in range(1, 31)])
    report = tmp_path / "report.csv"
    assert main(["benchmark", "--data", str(data), "--folds", "3", "--classifiers", "nc,knn",
                 "--seed", "11", "--out", str(report)]) == 0
    folds = ndc.k_fold_split(ndc.LabeledDataset.from_arrays(x, labels),
                             ndc.CvConfig(folds=3, seed=11))
    nc_err, knn_err = checks.nc_knn_cv_errors(x, labels, folds, m=15)
    expected = {"nc": nc_err, "knn": knn_err}
    rows = checks.read_report(report)
    assert checks.check_cv_report(rows, 3, ("nc", "knn"), expected) == []
    # one flipped test label moves one fold's error by 1/|fold|
    flipped = {name: dict(r) for name, r in rows.items()}
    flipped["knn"]["mean_error"] = repr(knn_err + 1 / len(folds[0][1]) / 3)
    assert checks.check_cv_report(flipped, 3, ("nc", "knn"), expected)
    dropped = {"nc": rows["nc"]}
    assert checks.check_cv_report(dropped, 3, ("nc", "knn"), expected)


def _block_problem(seed, widths, per_class=6):
    k = len(widths)
    labels = np.repeat(np.arange(1, k + 1), per_class)
    owner = np.repeat(np.arange(1, k + 1), widths)
    sd = np.where(labels[:, None] == owner[None, :], 1.0, 2.0)
    x = sd * np.random.default_rng(seed).standard_normal(sd.shape)
    return k, x, labels, ndc.LabeledDataset.from_arrays(x, labels, k=k)


def test_enumeration_matches_empirical_risk_of_every_assignment():
    k, x, labels, ds = _block_problem(0, (2, 2, 1))
    digits, risks = checks.assignment_risks(x, labels, k)
    expected = [a for a in itertools.product(range(k), repeat=x.shape[1]) if len(set(a)) == k]
    assert [tuple(d) for d in digits] == expected
    for a, risk in zip(expected, risks):
        groups = tuple(np.flatnonzero(np.asarray(a) == j) for j in range(k))
        model = ndc.compute_centroids(ds, ndc.FeaturePartition(groups))
        assert risk == pytest.approx(ndc.empirical_risk(ds, model), rel=1e-12)


def test_exact_check_accepts_oracle_and_rejects_perturbed_risk():
    k, x, labels, ds = _block_problem(1, (3, 3))
    part, w_star = ndc.brute_force_minimizer(ds)
    groups = list(part.groups)
    fit_part, _, _ = ndc.fit_best(ds, ndc.FitConfig(restarts=5, seed=2))
    assert checks.check_exact(x, labels, k, w_star, groups, [list(fit_part.groups)]) == []
    assert checks.check_exact(x, labels, k, w_star * (1 + 1e-6), groups)
    swapped = [np.array([0, 1, 3]), np.array([2, 4, 5])]
    assert checks.check_exact(x, labels, k, w_star, swapped)


def test_diagonal_check_accepts_oracle_and_rejects_perturbed_risk():
    spec = ndc.block_spec(2, 3, 1.0, 2.0)
    report = ndc.check_diagonal_optimality(spec, 3)
    probs = spec.class_probs
    assert checks.check_diagonal(report.passed, report.diagonal_risk, 1.0, 2.0, probs) == []
    assert checks.check_diagonal(report.passed, report.diagonal_risk * (1 + 1e-6), 1.0, 2.0,
                                 probs)
    assert checks.check_diagonal(True, 4.0, 2.0, 1.0, probs)
