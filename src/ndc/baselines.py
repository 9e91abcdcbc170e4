"""Reference classifiers: nearest centroid, nearest shrunken centroid,
and k-nearest neighbors.

All tie-breaking is deterministic: equal scores go to the smallest class
index, and equal neighbor distances to the smaller training-row index.
A row whose squared distances overflow gets no label: nc and nsc raise
ValueError on the first row with no finite class score, kNN on the
first row without m training rows at a finite distance.  At the other
end, nc raises on a row whose squared distances to two or more
centroids underflow to 0, and nsc refuses to fit data whose pooled
within-class sd underflows to 0.  kNN's Gram-form distances reach 0 by
cancellation too, so a 0 there says nothing about underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, feature_rows, nearest_class, row_sq_norms, sq_distances


# ---------------------------------------------------------------------------
# Nearest centroid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NcModel:
    centroids: np.ndarray  # k x p class means
    k: int
    p: int


def nc_fit(ds: LabeledDataset) -> NcModel:
    return NcModel(ds.class_means, k=ds.k, p=ds.p)


def nc_predict_many(model: NcModel, x: np.ndarray) -> np.ndarray:
    x = feature_rows(x, model.p)
    with np.errstate(over="ignore"):
        d2 = np.square(x[:, None, :] - model.centroids[None, :, :]).sum(axis=2)
    # a difference is 0 only where the row equals the centroid, so a 0
    # score is exact or its squares underflowed
    return nearest_class(d2, lambda i, j: np.array_equal(x[i], model.centroids[j]))


# ---------------------------------------------------------------------------
# Nearest shrunken centroid
# ---------------------------------------------------------------------------

DELTA_GRID_SIZE = 30  # thresholds in `nsc_delta_grid`, and in tuning by default


@dataclass(frozen=True)
class NscModel:
    """Soft-thresholded class centroids in pooled-sd units.

    ``shrunken`` holds the k x p shrunken class centroids, ``d_shrunk``
    the thresholded standardized differences (a feature is selected iff
    some class keeps a nonzero one), ``scale`` the per-feature
    denominators s_i + s0, and ``priors`` the empirical class proportions
    entering the score's -2 log prior term.
    """

    overall: np.ndarray
    shrunken: np.ndarray
    d_shrunk: np.ndarray
    scale: np.ndarray
    s0: float
    priors: np.ndarray
    delta: float
    k: int
    p: int

    @property
    def selected_feature_count(self) -> int:
        return int(np.any(self.d_shrunk != 0.0, axis=0).sum())


def _nsc_stats(ds: LabeledDataset):
    if ds.k < 2:
        raise ValueError("shrunken centroids need at least two classes")
    if ds.n <= ds.k:
        raise ValueError("pooled within-class sd needs n > k")
    overall = ds.x.mean(axis=0)
    within_ss = np.zeros(ds.p)
    with np.errstate(over="ignore"):
        for ss in ds.class_ss:
            within_ss += ss
    s_i = np.sqrt(within_ss / (ds.n - ds.k))
    if not np.isfinite(s_i).all():
        raise ValueError("pooled within-class sd is not finite (the sums of squares overflow)")
    s0 = float(np.median(s_i))
    scale = s_i + s0
    zero = scale == 0
    if zero.any():
        # rows that differ from their class means have sums of squares
        # that underflowed; only rows equal to them make constant data
        if any(np.any(xs[:, zero] != mean[zero]) for xs, mean in zip(ds.class_x, ds.class_means)):
            raise ValueError("pooled within-class sd underflows to 0 "
                             "(the sums of squares are below the float range)")
        raise ValueError("degenerate constant data: zero pooled sd and zero s0")
    counts = np.array([len(xs) for xs in ds.class_x], dtype=np.float64)
    m_k = np.sqrt(1.0 / counts - 1.0 / ds.n)
    d = (ds.class_means - overall) / (m_k[:, None] * scale[None, :])
    return overall, scale, s0, counts, m_k, d


def nsc_fit_grid(ds: LabeledDataset, deltas) -> list[NscModel]:
    """One model per shrinkage threshold in ``deltas``, all shrunk from
    one computation of the threshold-free statistics."""
    deltas = list(deltas)
    if any(delta < 0 for delta in deltas):
        raise ValueError("shrinkage threshold must be >= 0")
    overall, scale, s0, counts, m_k, d = _nsc_stats(ds)
    priors = counts / ds.n
    models = []
    for delta in deltas:
        d_shrunk = np.sign(d) * np.maximum(np.abs(d) - delta, 0.0)
        shrunken = overall[None, :] + m_k[:, None] * scale[None, :] * d_shrunk
        models.append(NscModel(overall=overall, shrunken=shrunken, d_shrunk=d_shrunk,
                               scale=scale, s0=s0, priors=priors, delta=delta,
                               k=ds.k, p=ds.p))
    return models


def nsc_fit(ds: LabeledDataset, delta: float) -> NscModel:
    return nsc_fit_grid(ds, [delta])[0]


def nsc_scores_many(model: NscModel, x: np.ndarray) -> np.ndarray:
    """Discriminant score per class: standardized squared distance to the
    shrunken centroid minus twice the log prior (smaller is better).  A
    score whose squares overflow is infinite, without a warning."""
    x = feature_rows(x, model.p)
    with np.errstate(over="ignore"):
        z = np.subtract(x[:, None, :], model.shrunken[None, :, :])  # the one (rows x k x p) cube
        z /= model.scale
        return np.square(z, out=z).sum(axis=2) - 2.0 * np.log(model.priors)[None, :]


def nsc_predict_many(model: NscModel, x: np.ndarray) -> np.ndarray:
    return nearest_class(nsc_scores_many(model, x))


def nsc_delta_grid(ds: LabeledDataset, size: int = DELTA_GRID_SIZE) -> np.ndarray:
    """Evenly spaced shrinkage thresholds from 0 (no shrinkage) to the
    largest standardized difference (everything shrunk away)."""
    *_, d = _nsc_stats(ds)
    return np.linspace(0.0, float(np.abs(d).max()), size)


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnnModel:
    x: np.ndarray
    labels: np.ndarray
    m: int
    k: int
    p: int


def knn_fit(ds: LabeledDataset, m: int) -> KnnModel:
    if not (1 <= m <= ds.n):
        raise ValueError("neighbor count must be in 1..n")
    return KnnModel(ds.x, ds.labels, m=m, k=ds.k, p=ds.p)


def knn_predict_many(model: KnnModel, x: np.ndarray) -> np.ndarray:
    x = feature_rows(x, model.p)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed norm makes inf or NaN
        d2 = sq_distances(x, row_sq_norms(x), model.x, row_sq_norms(model.x))
    # The m nearest training rows: every row closer than the m-th
    # smallest distance t, then rows at exactly t in training-row order,
    # so equal distances resolve to the smaller training row.  A NaN
    # sorts last, so a finite t leaves it out, as it does an inf.
    t = np.partition(d2, model.m - 1, axis=1)[:, [model.m - 1]]
    bad = np.flatnonzero(~np.isfinite(t[:, 0]))
    if bad.size:
        raise ValueError(f"row {bad[0] + 1}: no finite distance to {model.m} training rows "
                         "(its squared distances overflow)")
    nearer = d2 < t
    at_t = d2 == t
    # Freeing the distances and counting ties in int32 keeps the peak
    # memory at np.partition's copy of the distance matrix.
    del d2
    room = model.m - np.count_nonzero(nearer, axis=1)
    chosen = nearer | at_t
    # Only a row with more rows at t than room left needs its ties counted.
    over = np.flatnonzero(np.count_nonzero(at_t, axis=1) > room)
    if len(over):
        ties = at_t[over]
        chosen[over] = nearer[over] | (ties & (np.cumsum(ties, axis=1, dtype=np.int32)
                                               <= room[over, None]))
    counts = chosen @ (model.labels[:, None] == np.arange(1, model.k + 1)).astype(np.float64)
    return counts.argmax(axis=1) + 1
