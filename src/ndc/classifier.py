"""Disjoint-centroid models: fitting centroids on a partition, prediction
under the dimensionality-normalized norm, and the empirical risk.

Given a feature partition I_1..I_k, the class-j centroid is the mean of
the class-j training rows restricted to I_j.  A point is classified to
the class whose centroid is nearest in squared dn-distance, i.e. the mean
squared residual over that class's own feature group; features in the
special group I_0 are never consulted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import (FeaturePartition, LabeledDataset, feature_rows, nearest_class,
                   validate_partition)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NdcModel:
    """A fitted partition plus per-class centroids on their own features.

    ``lambda_used`` is the special-group multiplier of the fit, or None
    without feature selection; an infinite multiplier is stored as None.
    """

    partition: FeaturePartition
    centroids: tuple[np.ndarray, ...]
    k: int
    p: int
    lambda_used: float | None = None

    def __post_init__(self):
        if self.lambda_used is not None and math.isinf(self.lambda_used):
            object.__setattr__(self, "lambda_used", None)
        problem = validate_partition(self.partition, self.p, self.k)
        if problem is not None:
            raise ValueError(f"invalid partition: {problem}")
        if len(self.centroids) != self.k:
            raise ValueError("need one centroid per class")
        for g, c in zip(self.partition.class_groups, self.centroids):
            if len(c) != len(g):
                raise ValueError("centroid length must match its feature group")

    @property
    def selected_feature_count(self) -> int:
        return sum(len(g) for g in self.partition.class_groups)


def compute_centroids(ds: LabeledDataset, part: FeaturePartition) -> NdcModel:
    """Per-class mean of the rows restricted to that class's feature group."""
    centroids = []
    for g, xs in zip(part.class_groups, ds.class_x):
        # ``take`` gathers a row-major block; numpy would sum the
        # column-major ``xs[:, g]`` in another order.
        centroids.append(xs.take(g, axis=1).mean(axis=0))
    return NdcModel(part, tuple(centroids), k=ds.k, p=ds.p)


def with_lambda(model: NdcModel, lam: float | None) -> NdcModel:
    """Record the multiplier the model was fitted with (None or infinity
    both mean no feature selection was in play)."""
    return replace(model, lambda_used=lam)


def predict_scores_many(model: NdcModel, x: np.ndarray) -> np.ndarray:
    """Squared dn-distance of each row of ``x`` to each class centroid.

    A score whose squares overflow is infinite, without a warning: the
    caller decides what such a row means.
    """
    x = feature_rows(x, model.p)
    scores = np.empty((x.shape[0], model.k))
    with np.errstate(over="ignore"):
        for j, (g, c) in enumerate(zip(model.partition.class_groups, model.centroids)):
            scores[:, j] = np.square(x[:, g] - c).mean(axis=1)
    return scores


def predict_many(model: NdcModel, x: np.ndarray) -> np.ndarray:
    """Class labels for the rows of ``x``; ties go to the smallest class.

    Raises ValueError on the first row (1-based) with no finite class
    score, as when all its squared distances overflow: such a row has no
    nearest centroid, and a tie-broken label would be a guess.  A row
    with one finite score keeps its label, since an overflowed score is
    larger than any finite one.

    A score of 0 is exact when the row equals that centroid on the
    class's features, and has underflowed otherwise.  A row whose
    smallest score is 0 goes to the smallest class scoring an exact 0;
    where two or more classes score 0 and every one of them has
    underflowed, they cannot be told apart, and the row raises
    ValueError.
    """
    scores = predict_scores_many(model, x)
    labels = nearest_class(scores)
    zero_rows = np.flatnonzero(scores.min(axis=1) == 0)
    if zero_rows.size:
        x = feature_rows(x, model.p)
        pairs = list(zip(model.partition.class_groups, model.centroids))
        for i in zero_rows:
            zero = np.flatnonzero(scores[i] == 0)
            exact = [j for j in zero if np.array_equal(x[i, pairs[j][0]], pairs[j][1])]
            if exact:
                labels[i] = exact[0] + 1
            elif len(zero) > 1:
                raise ValueError(f"row {i + 1}: {len(zero)} class scores underflow to 0 "
                                 "(its squared distances are below the float range)")
    return labels


def empirical_risk(ds: LabeledDataset, model: NdcModel) -> float:
    """Average squared dn-distance of each row to its own class centroid."""
    if ds.p != model.p or ds.k != model.k:
        raise ValueError("model and dataset dimensions disagree")
    total = 0.0
    for xs, g, c in zip(ds.class_x, model.partition.class_groups, model.centroids):
        total += np.square(xs.take(g, axis=1) - c).mean(axis=1).sum()
    return float(total) / ds.n


def training_error(ds: LabeledDataset, model: NdcModel) -> float:
    """Fraction of training rows whose prediction differs from the label."""
    return float(np.mean(predict_many(model, ds.x) != ds.labels))


def save_model(model: NdcModel, path) -> None:
    """Write the model file: JSON with 1-based feature indices.

    The partition and centroid arrays are aligned; when the special group
    is present it occupies slot 0 and its centroid slot is an empty array.
    """
    partition = model.partition.groups_1based()
    centroids = [c.tolist() for c in model.centroids]
    if model.partition.has_special:
        centroids = [[]] + centroids
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "k": model.k,
        "p": model.p,
        "has_special": model.partition.has_special,
        "partition": partition,
        "centroids": centroids,
    }
    if model.lambda_used is not None:
        doc["lambda"] = model.lambda_used
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> NdcModel:
    """Read a model file written by `save_model`.

    The whole document is checked before the model is built; text that
    is not JSON, or any missing key, wrong type, unsorted group,
    non-finite centroid value or length mismatch, raises ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not a JSON model file ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    version = doc.get("format_version")
    if not (_is_int(version) and version == MODEL_FORMAT_VERSION):
        raise ValueError(f"unsupported model format version {version!r}")
    missing = [key for key in ("k", "p", "has_special", "partition", "centroids")
               if key not in doc]
    if missing:
        raise ValueError(f"model file lacks {', '.join(missing)}")
    k, p, has_special = doc["k"], doc["p"], doc["has_special"]
    if not (_is_int(k) and _is_int(p) and k >= 1 and p >= 1):
        raise ValueError("model k and p must be positive integers")
    if not isinstance(has_special, bool):
        raise ValueError("model has_special must be true or false")
    slots = k + has_special
    for key in ("partition", "centroids"):
        if not (isinstance(doc[key], list) and len(doc[key]) == slots):
            raise ValueError(f"model {key} must be a list of {slots} arrays")
    groups, centroids = [], []
    for pos, (g, c) in enumerate(zip(doc["partition"], doc["centroids"])):
        if not (isinstance(g, list) and all(_is_int(i) for i in g)):
            raise ValueError(f"model partition slot {pos} must hold integer feature indices")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError(f"model partition slot {pos} must list its indices in increasing order")
        if g and not (1 <= g[0] and g[-1] <= p):
            raise ValueError(f"model partition slot {pos}: feature index out of range 1..{p}")
        if not (isinstance(c, list) and all(_is_number(v) for v in c)):
            raise ValueError(f"model centroid slot {pos} must hold numbers")
        want = 0 if has_special and pos == 0 else len(g)
        if len(c) != want:
            raise ValueError(f"model centroid slot {pos} has {len(c)} values, expected {want}")
        centroid = np.asarray(c, dtype=np.float64)
        if not np.isfinite(centroid).all():
            raise ValueError(f"model centroid slot {pos} holds a NaN or infinite value")
        groups.append(np.asarray(g, dtype=np.int64) - 1)
        centroids.append(centroid)
    listed = sum(len(g) for g in groups)
    if listed < p:  # checked before validation builds anything of length p
        raise ValueError(f"model partition lists {listed} feature indices, fewer than p={p}")
    lam = doc.get("lambda")
    if lam == "inf":
        lam = math.inf
    elif lam is not None and not (_is_number(lam) and lam > 0):
        raise ValueError(f"model lambda must be a positive number or \"inf\", got {lam!r}")
    part = FeaturePartition(tuple(groups), has_special=has_special)
    if has_special:
        centroids = centroids[1:]
    return NdcModel(part, tuple(centroids), k=k, p=p, lambda_used=lam)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that a float64 can hold: not a bool, and not an
    integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True
