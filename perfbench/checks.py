"""Independent checkers for the benchmark's outputs.

None of these calls the ndc function whose output it checks.  Each one
recomputes the expected result from the workload's inputs with the
standard library and numpy, following the definitions in the paper:

- ``dn_predict`` scores a model JSON by squared dn-distance;
- ``nc_knn_cv_errors`` recomputes nearest-centroid and m-NN fold errors;
- ``assignment_risks`` enumerates every feature-to-class assignment's
  empirical risk from per-class, per-feature within-class sums of
  squares;
- ``diagonal_population_risk`` is the closed form of the block-diagonal
  partition's population risk;
- ``read_labeled`` reads the CSV files ``ndc simulate`` writes.

The ``check_*`` functions return a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

REL_TOL = 1e-9


def read_labeled(path, label_col: str = "label"):
    """Header, raw rows, integer labels and float features of a CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    li = header.index(label_col)
    feat = [i for i in range(len(header)) if i != li]
    labels = np.array([int(r[li]) for r in body], dtype=np.int64)
    x = np.array([[float(r[i]) for i in feat] for r in body], dtype=np.float64)
    return header, body, labels, x.reshape(len(body), len(feat))


def write_labeled(path, x, labels, names) -> None:
    """Write the ingestion format: label column first, values by repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + list(names))
        for label, row in zip(labels, x):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# ndc simulate output (sim 4)
# ---------------------------------------------------------------------------

def check_simulated(path, k: int, n_per_class: int, d: int, r: int,
                    mu1: float, sigma1: float, sigma2: float) -> list[str]:
    """Shape, labels and block moments of a sim-4 CSV.

    Own blocks are N(mu1, sigma1^2), off-blocks N(0, sigma2^2) and the r
    extra columns N(0, 1).  Each sample mean and variance must lie within
    six standard errors of the preset.
    """
    header, _, labels, x = read_labeled(path)
    problems = []
    p = k * d + r
    if header[0] != "label" or len(header) != p + 1:
        problems.append(f"{path}: header has {len(header)} columns, expected label + {p}")
        return problems
    expected_labels = np.repeat(np.arange(1, k + 1), n_per_class)
    if labels.shape != expected_labels.shape or np.any(labels != expected_labels):
        counts = np.bincount(labels, minlength=k + 1)[1:].tolist()
        problems.append(f"{path}: rows per class {counts}, expected {n_per_class} each "
                        "in contiguous blocks")
        return problems
    if not np.all(np.isfinite(x)):
        problems.append(f"{path}: non-finite values")
        return problems
    for j in range(k):
        rows = x[labels == j + 1]
        own = rows[:, j * d:(j + 1) * d]
        off = np.delete(rows[:, :k * d], np.s_[j * d:(j + 1) * d], axis=1)
        extra = rows[:, k * d:]
        for what, cells, mean, sd in (("own block", own, mu1, sigma1),
                                      ("off block", off, 0.0, sigma2),
                                      ("extra columns", extra, 0.0, 1.0)):
            if cells.size == 0:
                continue
            m = cells.size
            if abs(cells.mean() - mean) > 6 * sd / math.sqrt(m):
                problems.append(f"{path}: class {j + 1} {what} mean {cells.mean():.4f}, "
                                f"expected {mean}")
            var = cells.var(ddof=1)
            if abs(var - sd ** 2) > 6 * sd ** 2 * math.sqrt(2 / (m - 1)):
                problems.append(f"{path}: class {j + 1} {what} variance {var:.4f}, "
                                f"expected {sd ** 2}")
    return problems


# ---------------------------------------------------------------------------
# dn-distance predictor
# ---------------------------------------------------------------------------

def dn_predict(model_path, x: np.ndarray) -> np.ndarray:
    """Labels a model JSON gives the rows of ``x``: nearest class centroid
    in mean squared residual over the class's own features, ties to the
    smallest class."""
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    groups, centroids = doc["partition"], doc["centroids"]
    if doc["has_special"]:
        groups, centroids = groups[1:], centroids[1:]
    scores = np.column_stack([
        np.square(x[:, np.asarray(g, dtype=np.int64) - 1] - np.asarray(c)).mean(axis=1)
        for g, c in zip(groups, centroids)])
    return scores.argmin(axis=1) + 1


def check_predictions(input_csv, output_csv, model_path) -> list[str]:
    """The output repeats every input row verbatim and appends the
    checker's label."""
    header, body, _, x = read_labeled(input_csv)
    with open(output_csv, newline="", encoding="utf-8") as fh:
        out = list(csv.reader(fh))
    if out[0] != header + ["predicted"]:
        return [f"{output_csv}: header is not the input header plus 'predicted'"]
    out_body = [r for r in out[1:] if r]
    if len(out_body) != len(body):
        return [f"{output_csv}: {len(out_body)} rows, input has {len(body)}"]
    expected = dn_predict(model_path, x)
    for i, (row, got, want) in enumerate(zip(body, out_body, expected)):
        if got[:-1] != row:
            return [f"{output_csv}: row {i + 2} does not repeat the input row"]
        if got[-1] != str(int(want)):
            return [f"{output_csv}: row {i + 2} predicted {got[-1]}, checker says {want}"]
    return []


# ---------------------------------------------------------------------------
# Nearest-centroid and m-NN cross-validation errors
# ---------------------------------------------------------------------------

def nc_knn_cv_errors(x: np.ndarray, labels: np.ndarray, folds, m: int = 15):
    """Mean fold error of nearest centroid and of m-NN (distance ties to
    the earlier training row, vote ties to the smallest class)."""
    k = int(labels.max())
    nc_errors, knn_errors = [], []
    for train, test in folds:
        xtr, ytr, xte, yte = x[train], labels[train], x[test], labels[test]
        means = np.stack([xtr[ytr == j].mean(axis=0) for j in range(1, k + 1)])
        d2 = np.square(xte[:, None, :] - means[None, :, :]).sum(axis=2)
        nc_errors.append(float(np.mean(d2.argmin(axis=1) + 1 != yte)))
        d2 = np.square(xte[:, None, :] - xtr[None, :, :]).sum(axis=2)
        votes = ytr[np.argsort(d2, axis=1, kind="stable")[:, :min(m, len(train))]]
        counts = (votes[:, :, None] == np.arange(1, k + 1)).sum(axis=1)
        knn_errors.append(float(np.mean(counts.argmax(axis=1) + 1 != yte)))
    return float(np.mean(nc_errors)), float(np.mean(knn_errors))


def read_report(report_csv) -> dict[str, dict]:
    """Rows of an ``ndc benchmark`` report CSV, by classifier."""
    with open(report_csv, newline="", encoding="utf-8") as fh:
        return {r["classifier"]: r for r in csv.DictReader(fh)}


def check_cv_report(rows: dict, folds: int, classifiers, expected: dict) -> list[str]:
    """Every classifier is scored on every fold, and the errors named in
    ``expected`` (classifier -> mean error) match the checker's."""
    problems = []
    for name in classifiers:
        row = rows.get(name)
        if row is None:
            problems.append(f"no report row for {name}")
            continue
        if int(row["reps"]) != folds:
            problems.append(f"{name} scored on {row['reps']} of {folds} folds")
        err = float(row["mean_error"])
        if not 0.0 <= err <= 1.0:
            problems.append(f"{name} error {err} outside [0, 1]")
        if name in expected and abs(err - expected[name]) > 1e-12:
            problems.append(f"{name} error {err!r}, checker says {expected[name]!r}")
    return problems


# ---------------------------------------------------------------------------
# Exact empirical risk by enumeration
# ---------------------------------------------------------------------------

def within_class_ss(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """k x p within-class sums of squares of each feature."""
    return np.stack([np.square(x[labels == j] - x[labels == j].mean(axis=0)).sum(axis=0)
                     for j in range(1, k + 1)])


def assignment_risks(x: np.ndarray, labels: np.ndarray, k: int):
    """Every assignment of the p features to k non-empty classes, in
    lexicographic order, with its empirical risk.

    With centroids at the class means on the class's own features, the
    risk is (1/n) sum_j (1/|I_j|) sum_{i in I_j} WSS_ji.
    """
    n, p = x.shape
    codes = np.arange(k ** p)
    digits = (codes[:, None] // k ** np.arange(p - 1, -1, -1)) % k
    onehot = digits[:, :, None] == np.arange(k)
    counts = onehot.sum(axis=1)
    valid = (counts > 0).all(axis=1)
    sums = np.einsum("mpk,kp->mk", onehot[valid], within_class_ss(x, labels, k))
    return digits[valid], (sums / counts[valid]).sum(axis=1) / n


def partition_risk(x: np.ndarray, labels: np.ndarray, groups) -> float:
    """Empirical risk of a partition given as k 0-based feature groups."""
    wss = within_class_ss(x, labels, len(groups))
    return float(sum(wss[j, g].mean() for j, g in enumerate(groups)) / x.shape[0])


def check_exact(x, labels, k, w_star: float, groups, fit_groups=()) -> list[str]:
    """W* and the risk of the returned partition equal the enumeration's
    minimum, and no heuristic fit's risk falls below it."""
    _, risks = assignment_risks(x, labels, k)
    best = float(risks.min())
    problems = []
    if abs(w_star - best) > REL_TOL * best:
        problems.append(f"W* {w_star!r}, enumeration gives {best!r}")
    got = partition_risk(x, labels, groups)
    if abs(got - best) > REL_TOL * best:
        problems.append(f"returned partition has risk {got!r}, minimum is {best!r}")
    for fg in fit_groups:
        risk = partition_risk(x, labels, fg)
        if risk < best * (1 - REL_TOL):
            problems.append(f"fit_best risk {risk!r} below W* {best!r}")
    return problems


# ---------------------------------------------------------------------------
# Closed-form diagonal population risk
# ---------------------------------------------------------------------------

def diagonal_population_risk(sigma1: float, class_probs) -> float:
    """Population risk of the block-diagonal partition at the true means:
    every class sees only its own-block variance sigma1^2."""
    return float(sum(float(pi) * sigma1 ** 2 for pi in class_probs))


def check_diagonal(passed: bool, diagonal_risk: float, sigma1: float, sigma2: float,
                   class_probs) -> list[str]:
    problems = []
    if passed != (sigma1 < sigma2):
        problems.append(f"diagonal check passed={passed} for sigma1={sigma1}, sigma2={sigma2}")
    want = diagonal_population_risk(sigma1, class_probs)
    if abs(diagonal_risk - want) > REL_TOL * want:
        problems.append(f"diagonal risk {diagonal_risk!r}, closed form gives {want!r}")
    return problems
