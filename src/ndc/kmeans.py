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

`fit_best` runs its restarts in lockstep.  Each restart is a lane: one
row of a (lanes x p) label matrix, holding every feature's group.  Every
lane has k + 1 groups: group 0 is I_0 and group j is class j's.  At
``lam = inf`` group 0's distance is inf, so it stays empty and the lane
is the no-selection fit.  A Lloyd step of all live lanes is one Gram
product for the distances and one one-hot product for the centers, so
the Python work per step does not grow with the number of restarts.  A
lane leaves when its labels repeat or after `MAX_ITERS` steps.  A lane
whose initialization leaves a cluster empty, or whose class group
empties during the alternation, draws a fresh initialization from its
own stream, up to `MAX_ATTEMPTS` attempts, so every stream is consumed
in the order of a lone run.  At most `LANE_BLOCK` lanes run at a time,
which bounds the (lanes x p x groups) distance block and its one-hot
on wide data; a restart that converges or gives up hands its lane to
the next one.  Each round's converged lanes are scored in one pass over
the class means.  `init_partition`, `update_centers`,
`assign_rows`, `refine_partition` and `lloyd_fit` run the same kernels
on one lane; they and `fit_best` alone convert between the lane layout
and the k- or (k + 1)-group `FeaturePartition` and `ClusterCenters`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .classifier import compute_centroids, training_error, with_lambda
from .data import FeaturePartition, LabeledDataset, class_blocks, row_sq_norms, sq_distances

# Lanes fitted at once; a restart's lane goes to the next restart when it
# converges or gives up.  At p = 20 000 features and k + 1 = 4 groups the
# lanes' distance array and one-hot hold 8 * 20 000 * 4 float64 each,
# about 5 MB.  More lanes fit small problems faster (a 100-restart fit on
# sim 4 takes about 0.10 s at 8 lanes, 0.08 s at 16 and 0.06 s at 32, one
# thread on a 2-vCPU x86 host) but grow those arrays in proportion.
LANE_BLOCK = 8
# Lloyd steps of one k-means or one alternation before a lane stops.
MAX_ITERS = 100
# Initializations one restart may draw before it counts as failed, each
# tried after the previous one left a cluster or a class group empty.
MAX_ATTEMPTS = 50


class EmptyGroupError(ValueError):
    """A class group lost all its features; the run must restart."""


class FitFailedError(RuntimeError):
    """No fit succeeded: a restart of lloyd_fit, all restarts of fit_best,
    or every candidate of a nested-CV tuning grid, failed."""


@dataclass(frozen=True)
class FitConfig:
    """The partition fit's settings: the number of restarts, the
    special-group distance multiplier ``lam`` (``math.inf``, the default,
    disables feature selection) and the seed of the restart streams.
    """

    restarts: int = 100
    lam: float = math.inf
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (self.lam > 0):
            raise ValueError("lam must be positive (use math.inf for no selection)")

    @property
    def with_selection(self) -> bool:
        return not math.isinf(self.lam)


@dataclass(frozen=True)
class ClusterCenters:
    """One lane's alternation centers, aligned with the partition's groups.

    ``centers[0]`` is m_0 on all n rows when the special group is active
    (None while I_0 is empty); the remaining centers live on their class's
    rows.
    """

    centers: tuple[np.ndarray | None, ...]
    has_special: bool = False


@dataclass(frozen=True)
class FitData:
    """Per-dataset quantities that every lane of a fit shares.

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
        class_x = class_blocks(ds)
        return cls(points, row_sq_norms(points), class_x,
                   tuple(row_sq_norms(xs.T) for xs in class_x))


def _onehot(labels: np.ndarray, n_labels: int) -> np.ndarray:
    """The (lanes x labels x p) 0/1 indicator of each lane's labels."""
    return (labels[:, None, :] == np.arange(n_labels)[:, None]).astype(np.float64)


def _group_sizes(labels: np.ndarray, n_labels: int) -> np.ndarray:
    """The (lanes x labels) member counts of each lane's labels."""
    lanes = len(labels)
    flat = (labels + n_labels * np.arange(lanes)[:, None]).ravel()
    return np.bincount(flat, minlength=lanes * n_labels).reshape(lanes, n_labels)


def _labels(part: FeaturePartition, p: int) -> np.ndarray:
    """One lane's label row: the group index of every feature (-1 for a
    feature in no group).  Class j's group is index j whether or not the
    partition carries the special group."""
    labels = np.full(p, -1, dtype=np.intp)
    for j, g in enumerate(part.groups, start=int(not part.has_special)):
        labels[g] = j
    return labels


def _partition(labels: np.ndarray, k: int, has_special: bool) -> FeaturePartition:
    """One lane's label row as a partition; group 0 is dropped without ``has_special``."""
    return FeaturePartition(tuple(np.flatnonzero(labels == j)
                                  for j in range(int(not has_special), k + 1)),
                            has_special=has_special)


def _seed_lanes(points: np.ndarray, point_sq: np.ndarray, n_clusters: int,
                streams: list[np.random.Generator]) -> np.ndarray:
    """k-means++ seeds of every lane, as a (lanes x n_clusters x dim) array.

    Each lane draws from its own stream exactly as a lone run would; the
    distances of all lanes' newest seeds are one product.
    """
    n = len(points)
    if n_clusters > n:
        raise ValueError("more clusters than points")
    idx = np.array([stream.integers(n) for stream in streams])
    centers = np.empty((len(streams), n_clusters, points.shape[1]))
    centers[:, 0] = points[idx]
    d2 = sq_distances(points, point_sq, points[idx], point_sq[idx])
    for j in range(1, n_clusters):
        for lane, stream in enumerate(streams):
            total = d2[:, lane].sum()
            if total > 0:
                idx[lane] = stream.choice(n, p=d2[:, lane] / total)
            else:
                idx[lane] = stream.integers(n)
        centers[:, j] = points[idx]
        d2 = np.minimum(d2, sq_distances(points, point_sq, points[idx], point_sq[idx]))
    return centers


def _lloyd_lanes(points: np.ndarray, point_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Standard Lloyd iterations of every lane from its seeds.

    Returns the (lanes x n_points) labels.  A lane stops when its labels
    repeat or after `MAX_ITERS` steps; an emptied cluster keeps its
    previous center.
    """
    n_clusters, dim = centers.shape[1:]
    labels = np.empty((len(centers), len(points)), dtype=np.intp)
    live = np.arange(len(centers))
    current = None
    for it in range(MAX_ITERS):
        flat = centers.reshape(-1, dim)
        dist = sq_distances(points, point_sq, flat, row_sq_norms(flat))
        new = dist.reshape(len(points), len(live), n_clusters).argmin(axis=2).T
        labels[live] = new
        if current is not None:
            moved = (new != current).any(axis=1)
            live, new, centers = live[moved], new[moved], centers[moved]
        if not len(live) or it == MAX_ITERS - 1:
            break
        onehot = _onehot(new, n_clusters)
        sizes = onehot.sum(axis=2)[:, :, None]
        sums = (onehot.reshape(-1, len(points)) @ points).reshape(centers.shape)
        np.divide(sums, sizes, out=centers, where=sizes > 0)
        current = new
    return labels


def _init_lanes(fit_data: FitData, selection: bool,
                streams: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """One initialization attempt per lane: k-means over the transposed
    matrix into k clusters, or k + 1 with ``selection``.  Without
    selection cluster c becomes group c + 1 and group 0 stays empty; with
    it each lane's most populated cluster becomes group 0 (ties to the
    smallest cluster index) and the clusters before it move up by one.
    Returns ``(labels, ok)``; ``ok`` is False in a lane whose k-means left
    a cluster empty."""
    n_clusters = len(fit_data.class_x) + selection
    centers = _seed_lanes(fit_data.points, fit_data.point_sq, n_clusters, streams)
    labels = _lloyd_lanes(fit_data.points, fit_data.point_sq, centers)
    sizes = _group_sizes(labels, n_clusters)
    # no label equals n_clusters, so without selection every cluster moves up
    special = sizes.argmax(axis=1)[:, None] if selection else n_clusters
    labels = np.where(labels == special, 0, labels + (labels < special))
    return labels, sizes.min(axis=1) > 0


def _lane_centers(fit_data: FitData, labels: np.ndarray):
    """Every lane's alternation centers, as one-hot products.

    Returns ``(special, classes)``.  ``classes[j - 1]`` is the (n_j x
    lanes) matrix of class j's centers on its rows.  ``special`` is the
    (n x lanes) matrix of m_0 on all rows, NaN in a lane whose I_0 is
    empty, or None when I_0 is empty in every lane.
    """
    onehot = _onehot(labels, len(fit_data.class_x) + 1)
    sizes = onehot.sum(axis=2)
    classes = tuple(xs @ onehot[:, j].T / sizes[:, j]
                    for j, xs in enumerate(fit_data.class_x, start=1))
    special = None
    if sizes[:, 0].any():
        sums = fit_data.points.T @ onehot[:, 0].T
        special = np.divide(sums, sizes[:, 0], out=np.full_like(sums, np.nan),
                            where=sizes[:, 0] > 0)
    return special, classes


def _lane_distances(fit_data: FitData, special: np.ndarray | None,
                    classes: tuple[np.ndarray, ...], lam: float) -> np.ndarray:
    """The (groups x p x lanes) dn-distances that the assign step
    minimizes over: each feature's distance to each lane's centers on
    their rows.  The special row is scaled by ``lam`` and is inf where
    ``lam`` is inf or the lane's m_0 is absent (None or NaN)."""
    dist = np.full((len(classes) + 1, len(fit_data.points), classes[0].shape[1]), np.inf)
    if special is not None and not math.isinf(lam):
        present = ~np.isnan(special[0])
        m0 = special[:, present].T
        d2 = sq_distances(fit_data.points, fit_data.point_sq, m0, row_sq_norms(m0))
        dist[0][:, present] = lam * np.sqrt(d2 / len(special))
    for d, xs, xs_sq, m in zip(dist[1:], fit_data.class_x, fit_data.class_sq, classes):
        d[:] = np.sqrt(sq_distances(xs.T, xs_sq, m.T, row_sq_norms(m.T)) / len(m))
    return dist


def _refine_lanes(fit_data: FitData, labels: np.ndarray,
                  lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adapted alternation of every lane from its (lanes x p) labels,
    group 0 being the special group.

    Each step recomputes the centers and reassigns every feature to its
    nearest one, ties to the smallest group index.  A lane leaves when its
    labels repeat, after `MAX_ITERS` steps, or when a class group empties.
    Returns ``(labels, iterations, emptied)`` per lane.
    """
    out = labels.copy()
    iterations = np.zeros(len(labels), dtype=np.intp)
    emptied = np.zeros(len(labels), dtype=bool)
    live, current = np.arange(len(labels)), labels
    for it in range(1, MAX_ITERS + 1):
        if not len(live):
            break
        special, classes = _lane_centers(fit_data, current)
        new = _lane_distances(fit_data, special, classes, lam).argmin(axis=0).T
        empty = (_group_sizes(new, len(classes) + 1)[:, 1:] == 0).any(axis=1)
        out[live] = new
        iterations[live] = it
        emptied[live[empty]] = True
        moving = ~empty & (new != current).any(axis=1)
        live, current = live[moving], new[moving]
    return out, iterations, emptied


def _fit_lanes(fit_data: FitData, config: FitConfig, streams):
    """Initialize and refine restarts to convergence in at most
    `LANE_BLOCK` lanes, drawing each restart's stream from ``streams`` as
    it first enters a lane.

    Each round gives the first `LANE_BLOCK` waiting restarts one attempt:
    an initialization from the restart's stream, then the alternation.  A
    restart whose initialization leaves a cluster empty or whose class
    group empties waits for another attempt, up to `MAX_ATTEMPTS`; one
    that converges or gives up hands its lane to the next restart.
    Yields ``(restarts, labels)`` each round: the ascending indices of the
    converged restarts and their (lanes x p) labels.
    """
    queue, lanes, attempts = enumerate(streams), [], np.zeros(0, dtype=np.intp)
    while lanes := lanes + list(itertools.islice(queue, LANE_BLOCK - len(lanes))):
        attempts = np.append(attempts, np.zeros(len(lanes) - len(attempts), np.intp)) + 1
        start, seeded = _init_lanes(fit_data, config.with_selection, [s for _, s in lanes])
        refined, _, emptied = _refine_lanes(fit_data, start[seeded], config.lam)
        done = seeded.copy()
        done[seeded] = ~emptied
        if done.any():
            yield np.array([r for r, _ in lanes])[done], refined[~emptied]
        keep = ~done & (attempts < MAX_ATTEMPTS)
        lanes, attempts = [lane for lane, kept in zip(lanes, keep) if kept], attempts[keep]


def _lane_errors(ds: LabeledDataset, fit_data: FitData, labels: np.ndarray) -> np.ndarray:
    """Training error of every lane's model in one pass.

    Class j's centroid on I_j is the class-j mean mu_j of every feature
    restricted to I_j, so the score of each row against class j is
    (x - mu_j)^2 @ onehot_j / |I_j|; ties go to the smallest class, as in
    `predict_many`.
    """
    members = _onehot(labels, ds.k + 1)[:, 1:]
    scores = np.empty((ds.k, ds.n, len(labels)))
    for j, xs in enumerate(fit_data.class_x):
        member = members[:, j]
        scores[j] = np.square(ds.x - xs.mean(axis=0)) @ member.T / member.sum(axis=1)
    return (scores.argmin(axis=0) + 1 != ds.labels[:, None]).mean(axis=0)


def init_partition(ds: LabeledDataset, n_groups: int,
                   rng: np.random.Generator) -> FeaturePartition:
    """Initial partition from k-means over the transposed data matrix.

    ``n_groups`` is k for the no-selection algorithm and k + 1 with
    feature selection, in which case the most populated cluster is
    designated the special group (ties to the smallest cluster index).
    Raises EmptyGroupError when k-means leaves a cluster empty.
    """
    if n_groups not in (ds.k, ds.k + 1):
        raise ValueError("n_groups must be k or k + 1")
    if n_groups > ds.p:
        raise ValueError("cannot form more groups than features")
    has_special = n_groups == ds.k + 1
    labels, ok = _init_lanes(FitData.of(ds), has_special, [rng])
    if not ok[0]:
        raise EmptyGroupError("k-means left a cluster empty; draw a new initialization")
    return _partition(labels[0], ds.k, has_special)


def _check_class_groups(part: FeaturePartition) -> None:
    if any(len(g) == 0 for g in part.class_groups):
        raise EmptyGroupError("empty class group; the run must restart")


def update_centers(ds: LabeledDataset, part: FeaturePartition) -> ClusterCenters:
    """Recompute the alternation centers for the current partition."""
    _check_class_groups(part)
    special, classes = _lane_centers(FitData.of(ds), _labels(part, ds.p)[None])
    centers = [m[:, 0] for m in classes]
    if part.has_special:
        centers.insert(0, None if special is None else special[:, 0])
    return ClusterCenters(tuple(centers), has_special=part.has_special)


def _dn_distances(fit_data: FitData, centers: ClusterCenters, lam: float) -> np.ndarray:
    """The (p x groups) matrix that `assign_rows` minimizes over, for one
    lane's centers; the special column is inf without m_0."""
    m0, *classes = centers.centers if centers.has_special else (None, *centers.centers)
    dist = _lane_distances(fit_data, None if m0 is None else m0[:, None],
                           tuple(m[:, None] for m in classes), lam)
    return dist[int(not centers.has_special):, :, 0].T


def assign_rows(ds: LabeledDataset, centers: ClusterCenters, lam: float) -> FeaturePartition:
    """Reassign every feature to its nearest center.

    Distances are dn-distances on each group's own rows; the special
    center's distance is scaled by ``lam`` (``inf`` bars assignment to the
    special group outright).  Ties go to the smallest group index, the
    special group being index 0.
    """
    assignment = _dn_distances(FitData.of(ds), centers, lam).argmin(axis=1)
    return _partition(assignment + (not centers.has_special), ds.k, centers.has_special)


def clustering_objective(ds: LabeledDataset, part: FeaturePartition) -> float:
    """The alternation's own objective: total squared dn-distance of each
    feature to its group's freshly recomputed center (special group
    included, unscaled).  Non-increasing across update/assign rounds."""
    centers = update_centers(ds, part)
    total = 0.0
    if part.has_special and len(part.special):
        m0 = centers.centers[0]
        total += np.square(ds.x[:, part.special] - m0[:, None]).mean(axis=0).sum()
    for g, xs, m in zip(part.class_groups, class_blocks(ds),
                        centers.centers[int(part.has_special):]):
        total += np.square(xs.take(g, axis=1) - m[:, None]).mean(axis=0).sum()
    return float(total)


def refine_partition(ds: LabeledDataset, part: FeaturePartition, config: FitConfig):
    """Run the update/assign alternation from ``part`` until the partition
    repeats or `MAX_ITERS` steps have run.

    Returns ``(partition, iterations)``; raises EmptyGroupError if a
    class group empties (the caller restarts from a fresh initialization).
    """
    _check_class_groups(part)
    labels, iterations, emptied = _refine_lanes(FitData.of(ds), _labels(part, ds.p)[None],
                                                config.lam)
    if emptied[0]:
        raise EmptyGroupError("empty class group during alternation")
    return _partition(labels[0], ds.k, part.has_special), int(iterations[0])


def lloyd_fit(ds: LabeledDataset, config: FitConfig,
              rng: np.random.Generator) -> FeaturePartition:
    """One full run: initialize, then alternate to convergence.

    Runs that hit an empty group are abandoned and re-initialized; after
    `MAX_ATTEMPTS` attempts it raises FitFailedError.
    """
    for _, labels in _fit_lanes(FitData.of(ds), config, [rng]):
        return _partition(labels[0], ds.k, config.with_selection)
    raise FitFailedError(f"gave up after {MAX_ATTEMPTS} attempts "
                         "that all produced an empty group")


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
    fit_data = FitData.of(ds)
    streams = (rngmod.generator(config.seed, "restart", r) for r in range(config.restarts))
    best, best_labels = (math.inf, 0), None
    for restarts, labels in _fit_lanes(fit_data, config, streams):
        errors = _lane_errors(ds, fit_data, labels)
        # restarts ascend within a round, so argmin breaks ties to the earliest
        lane = int(errors.argmin())
        if (errors[lane], restarts[lane]) < best:
            best, best_labels = (errors[lane], restarts[lane]), labels[lane]
    if best_labels is None:
        raise FitFailedError(f"all {config.restarts} restarts failed "
                             f"({config.restarts} exhausted their empty-group attempts)")
    part = _partition(best_labels, ds.k, config.with_selection)
    model = with_lambda(compute_centroids(ds, part), config.lam)
    # The one-pass scores sum in another order than predict_many, so the
    # reported error is the model's own.
    return part, model, training_error(ds, model)
