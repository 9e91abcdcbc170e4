"""Fitting the feature partition by k-means on the transposed data matrix.

The p features are treated as points: feature i is the column vector
T_i of its n sample values.  An initial partition comes from standard
Euclidean k-means (k-means++ seeding) over those points.  The partition
is then refined by an adapted Lloyd alternation in which the center of
group j lives only on the rows of class j:

    update:  m_j[s] = mean over features i in I_j of X[s, i],  s in S_j
    assign:  feature i joins the group j minimizing the dn-distance
             between T_i restricted to S_j and m_j

With feature selection a special group I_0 takes part, whose center m_0
is defined on all rows; its assignment distance is scaled by the
multiplier ``lam``.  Small ``lam`` pulls features into I_0 (they are then
excluded from prediction); ``lam = inf`` disables the special group
entirely, which recovers the no-selection algorithm.

The alternation monotonically decreases its own clustering objective
(`clustering_objective`); the classification risk the partition is
ultimately judged by is only targeted heuristically, which is why
`fit_best` reruns the whole procedure from many seeds and keeps the
partition with the lowest training error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .classifier import NdcModel, compute_centroids, training_error, with_lambda
from .data import FeaturePartition, LabeledDataset, class_index_sets, row_sq_norms, sq_distances


class EmptyGroupError(ValueError):
    """A class group lost all its features; the run must restart."""


class RestartsExhaustedError(RuntimeError):
    """Every attempted run ended with an empty class group."""

    def __init__(self, attempts: int):
        super().__init__(f"gave up after {attempts} attempts that all produced an empty group")
        self.attempts = attempts


class FitFailedError(RuntimeError):
    """No fit succeeded: all restarts of fit_best, or every candidate of a
    nested-CV tuning grid, failed."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the partition fit.

    ``lam`` is the special-group distance multiplier; ``math.inf`` (the
    default) disables feature selection.  ``max_restart_attempts_on_empty``
    bounds how many fresh initializations one run may burn through when a
    class group empties out.
    """

    restarts: int = 100
    max_iters: int = 100
    lam: float = math.inf
    seed: int = 0
    max_restart_attempts_on_empty: int = 50

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.lam > 0):
            raise ValueError("lam must be positive (use math.inf for no selection)")
        if self.max_restart_attempts_on_empty < 1:
            raise ValueError("max_restart_attempts_on_empty must be >= 1")

    @property
    def with_selection(self) -> bool:
        return not math.isinf(self.lam)


@dataclass(frozen=True)
class ClusterCenters:
    """Alternation centers, aligned with the partition's groups.

    ``centers[0]`` is m_0 on all n rows when the special group is active
    (None while I_0 is empty); the remaining centers live on their class's
    rows.
    """

    centers: tuple[np.ndarray | None, ...]
    has_special: bool = False


@dataclass(frozen=True)
class FitData:
    """Per-dataset quantities that every restart of a fit shares.

    ``points`` is the transposed data matrix (one row per feature) and
    ``point_sq`` the squared norms of those rows.  ``class_x[j]`` holds
    the rows of class j + 1 as one contiguous block, in their original
    order, and ``class_sq[j]`` the squared norms of its columns.
    """

    points: np.ndarray
    point_sq: np.ndarray
    class_x: tuple[np.ndarray, ...]
    class_sq: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, ds: LabeledDataset) -> "FitData":
        points = np.ascontiguousarray(ds.x.T)
        class_x = tuple(ds.x[s] for s in class_index_sets(ds))
        return cls(points, row_sq_norms(points), class_x,
                   tuple(row_sq_norms(xs.T) for xs in class_x))


def kmeans_rows(points: np.ndarray, n_clusters: int, rng: np.random.Generator,
                max_iters: int = 100, point_sq: np.ndarray | None = None) -> np.ndarray:
    """Standard Euclidean k-means (k-means++ seeding, Lloyd iterations).

    ``point_sq`` holds the squared row norms when the caller has them.
    Returns the cluster label of each row; clusters may come out empty.
    """
    n = points.shape[0]
    if n_clusters > n:
        raise ValueError("more clusters than points")
    if point_sq is None:
        point_sq = row_sq_norms(points)

    def sq_distances_to(i):
        return sq_distances(points, point_sq, points[i:i + 1], point_sq[i:i + 1])[:, 0]

    centers = np.empty((n_clusters, points.shape[1]))
    idx = rng.integers(n)
    centers[0] = points[idx]
    d2 = sq_distances_to(idx)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, sq_distances_to(idx))
    labels = None
    for _ in range(max_iters):
        dist = sq_distances(points, point_sq, centers, row_sq_norms(centers))
        new_labels = dist.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(n_clusters):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels


def init_partition(ds: LabeledDataset, n_groups: int, rng: np.random.Generator,
                   max_attempts: int = 50, *, fit_data: FitData | None = None
                   ) -> FeaturePartition:
    """Initial partition from k-means over the transposed data matrix.

    ``n_groups`` is k for the no-selection algorithm and k + 1 with
    feature selection, in which case the most populated cluster is
    designated the special group (ties to the smallest cluster index).
    Seeding is retried when k-means leaves a cluster empty.  ``fit_data``
    (here and in the functions below) is ``FitData.of(ds)``, built by the
    caller once per dataset.
    """
    if n_groups not in (ds.k, ds.k + 1):
        raise ValueError("n_groups must be k or k + 1")
    if n_groups > ds.p:
        raise ValueError("cannot form more groups than features")
    has_special = n_groups == ds.k + 1
    if fit_data is None:
        fit_data = FitData.of(ds)
    for _ in range(max_attempts):
        labels = kmeans_rows(fit_data.points, n_groups, rng, point_sq=fit_data.point_sq)
        sizes = np.bincount(labels, minlength=n_groups)
        if sizes.min() > 0:
            break
    else:
        raise RestartsExhaustedError(max_attempts)
    order = np.arange(n_groups)
    if has_special:
        special = int(sizes.argmax())
        order = np.concatenate(([special], np.delete(order, special)))
    groups = tuple(np.flatnonzero(labels == j) for j in order)
    return FeaturePartition(groups, has_special=has_special)


def update_centers(ds: LabeledDataset, part: FeaturePartition, *,
                   fit_data: FitData | None = None) -> ClusterCenters:
    """Recompute the alternation centers for the current partition."""
    if fit_data is None:
        fit_data = FitData.of(ds)
    centers: list[np.ndarray | None] = []
    if part.has_special:
        special = part.special
        centers.append(ds.x[:, special].mean(axis=1) if len(special) else None)
    for g, xs in zip(part.class_groups, fit_data.class_x):
        if len(g) == 0:
            raise EmptyGroupError("empty class group; the run must restart")
        centers.append(xs[:, g].mean(axis=1))
    return ClusterCenters(tuple(centers), has_special=part.has_special)


def _dn_distances(fit_data: FitData, centers: ClusterCenters, lam: float) -> np.ndarray:
    """The (p x groups) matrix that `assign_rows` minimizes over: each
    feature's dn-distance to each center on that center's rows, the
    special column scaled by ``lam`` (inf where the special group is
    barred or has no center)."""
    def dn(cols, cols_sq, m):
        d2 = sq_distances(cols, cols_sq, m[None, :], row_sq_norms(m[None, :]))[:, 0]
        return np.sqrt(d2 / len(m))

    dist = np.full((len(fit_data.points), len(centers.centers)), np.inf)
    offset = 1 if centers.has_special else 0
    if centers.has_special:
        m0 = centers.centers[0]
        if m0 is not None and not math.isinf(lam):
            dist[:, 0] = lam * dn(fit_data.points, fit_data.point_sq, m0)
    for j, (xs, xs_sq) in enumerate(zip(fit_data.class_x, fit_data.class_sq)):
        dist[:, j + offset] = dn(xs.T, xs_sq, centers.centers[j + offset])
    return dist


def assign_rows(ds: LabeledDataset, centers: ClusterCenters, lam: float, *,
                fit_data: FitData | None = None) -> FeaturePartition:
    """Reassign every feature to its nearest center.

    Distances are dn-distances on each group's own rows; the special
    center's distance is scaled by ``lam`` (``inf`` bars assignment to the
    special group outright).  Ties go to the smallest group index, the
    special group being index 0.
    """
    if fit_data is None:
        fit_data = FitData.of(ds)
    assignment = _dn_distances(fit_data, centers, lam).argmin(axis=1)
    groups = tuple(np.flatnonzero(assignment == j) for j in range(len(centers.centers)))
    return FeaturePartition(groups, has_special=centers.has_special)


def clustering_objective(ds: LabeledDataset, part: FeaturePartition) -> float:
    """The alternation's own objective: total squared dn-distance of each
    feature to its group's freshly recomputed center (special group
    included, unscaled).  Non-increasing across update/assign rounds."""
    fit_data = FitData.of(ds)
    centers = update_centers(ds, part, fit_data=fit_data)
    total = 0.0
    if part.has_special and len(part.special):
        m0 = centers.centers[0]
        total += np.square(ds.x[:, part.special] - m0[:, None]).mean(axis=0).sum()
    offset = 1 if part.has_special else 0
    for j, (g, xs) in enumerate(zip(part.class_groups, fit_data.class_x)):
        m = centers.centers[j + offset]
        total += np.square(xs[:, g] - m[:, None]).mean(axis=0).sum()
    return float(total)


def refine_partition(ds: LabeledDataset, part: FeaturePartition, config: FitConfig, *,
                     fit_data: FitData | None = None):
    """Run the update/assign alternation from ``part`` until the partition
    repeats or ``max_iters`` is hit.

    Returns ``(partition, iterations)``; raises EmptyGroupError if a
    class group empties (the caller restarts from a fresh initialization).
    """
    if fit_data is None:
        fit_data = FitData.of(ds)
    current = part
    for it in range(1, config.max_iters + 1):
        centers = update_centers(ds, current, fit_data=fit_data)
        new = assign_rows(ds, centers, config.lam, fit_data=fit_data)
        for g in new.class_groups:
            if len(g) == 0:
                raise EmptyGroupError("empty class group during alternation")
        if all(np.array_equal(a, b) for a, b in zip(new.groups, current.groups)):
            return new, it
        current = new
    return current, config.max_iters


def lloyd_fit(ds: LabeledDataset, config: FitConfig, rng: np.random.Generator, *,
              fit_data: FitData | None = None) -> FeaturePartition:
    """One full run: initialize, then alternate to convergence.

    Runs that hit an empty class group are abandoned and re-initialized,
    up to ``config.max_restart_attempts_on_empty`` total attempts.
    """
    n_groups = ds.k + (1 if config.with_selection else 0)
    if fit_data is None:
        fit_data = FitData.of(ds)
    attempts = 0
    while attempts < config.max_restart_attempts_on_empty:
        attempts += 1
        try:
            part = init_partition(ds, n_groups, rng, max_attempts=1, fit_data=fit_data)
            refined, _ = refine_partition(ds, part, config, fit_data=fit_data)
            return refined
        except (RestartsExhaustedError, EmptyGroupError):
            continue
    raise RestartsExhaustedError(attempts)


def fit_best(ds: LabeledDataset, config: FitConfig):
    """Run ``config.restarts`` independent fits and keep the best.

    Every restart gets its own derived stream; the winner is the model
    with the lowest training error, ties to the earliest restart.
    Returns ``(partition, model, training_error)``.  Feature selection
    needs k + 1 groups, so it raises ValueError up front when k + 1 > p.
    """
    if config.with_selection and ds.k + 1 > ds.p:
        raise ValueError(f"feature selection at lambda={config.lam!r} needs k + 1 = "
                         f"{ds.k + 1} feature groups, but there are only p = {ds.p} features")
    best: tuple[float, int, FeaturePartition, NdcModel] | None = None
    failures = 0
    fit_data = FitData.of(ds)
    for r in range(config.restarts):
        stream = rngmod.generator(config.seed, "restart", r)
        try:
            part = lloyd_fit(ds, config, stream, fit_data=fit_data)
        except RestartsExhaustedError:
            failures += 1
            continue
        model = with_lambda(compute_centroids(ds, part), config.lam)
        err = training_error(ds, model)
        if best is None or err < best[0]:
            best = (err, r, part, model)
    if best is None:
        raise FitFailedError(f"all {config.restarts} restarts failed "
                             f"({failures} exhausted their empty-group attempts)")
    err, _, part, model = best
    return part, model, err
