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

from .data import (LabeledDataset, feature_rows, nearest_class, row_blocks, row_sq_norms,
                   sq_distances)


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


def _sq_sums(x: np.ndarray, centers: np.ndarray, scale=None) -> np.ndarray:
    """The (rows x k) sums over the features of ((x - center) / scale)^2,
    built one block of the rows x k x p cube at a time (`row_blocks`).
    Each sum is its own row's elementwise work and one contiguous sum, so
    the blocks change no bit.  A sum whose squares overflow is infinite,
    without a warning."""
    sums = np.empty((len(x), len(centers)))
    with np.errstate(over="ignore"):
        for rows in row_blocks(len(x), 8 * centers.size):
            z = np.subtract(x[rows, None, :], centers[None, :, :])
            if scale is not None:
                z /= scale
            sums[rows] = np.square(z, out=z).sum(axis=2)
    return sums


def nc_predict_many(model: NcModel, x: np.ndarray) -> np.ndarray:
    x = feature_rows(x, model.p)
    d2 = _sq_sums(x, model.centroids)
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
    return _sq_sums(x, model.shrunken, model.scale) - 2.0 * np.log(model.priors)[None, :]


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


def _gemm_rows(n_train: int) -> int:
    """The multiple of rows a kNN block takes, so that its Gram product
    rounds each distance as the whole product does.

    Measured on OpenBLAS 0.3.31 at one thread (an AVX-512 Xeon): a product
    of one test row runs through gemv; one of at most 1200 test x train
    entries (at p >= 32) through a small-matrix kernel; and a block that
    is not a multiple of 12 rows computes its last rows with an edge
    kernel.  Each rounds some distances otherwise: with 1000 test rows,
    667 training rows and p = 100, blocks of 131 rows changed distances in
    37 rows, all among each block's last 11.
    Blocks of a multiple of 48 rows, and over 1200 entries, kept every bit
    at every shape tried.  Where BLAS runs on several threads, a block's
    product may split among them otherwise, and distances may differ in
    their last bits.
    """
    return 48 * (1 + 1200 // (48 * n_train))


def knn_predict_many(model: KnnModel, x: np.ndarray) -> np.ndarray:
    x = feature_rows(x, model.p)
    n_train = len(model.x)
    votes = (model.labels[:, None] == np.arange(1, model.k + 1)).astype(np.float64)
    labels = np.empty(len(x), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed norm makes inf or NaN
        x_sq, train_sq = row_sq_norms(x), row_sq_norms(model.x)
    for rows in row_blocks(len(x), 8 * n_train, _gemm_rows(n_train)):
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = sq_distances(x[rows], x_sq[rows], model.x, train_sq)
        # The m nearest training rows: every row closer than the m-th
        # smallest distance t, then rows at exactly t in training-row order,
        # so equal distances resolve to the smaller training row.  A NaN
        # sorts last, so a finite t leaves it out, as it does an inf.
        t = np.partition(d2, model.m - 1, axis=1)[:, [model.m - 1]]
        bad = np.flatnonzero(~np.isfinite(t[:, 0]))
        if bad.size:
            raise ValueError(f"row {rows.start + bad[0] + 1}: no finite distance to {model.m} "
                             "training rows (its squared distances overflow)")
        nearer = d2 < t
        at_t = d2 == t
        room = model.m - np.count_nonzero(nearer, axis=1)
        chosen = nearer | at_t
        # Only a row with more rows at t than room left needs its ties counted.
        over = np.flatnonzero(np.count_nonzero(at_t, axis=1) > room)
        if len(over):
            ties = at_t[over]
            chosen[over] = nearer[over] | (ties & (np.cumsum(ties, axis=1, dtype=np.int32)
                                                   <= room[over, None]))
        labels[rows] = (chosen @ votes).argmax(axis=1) + 1
    return labels
