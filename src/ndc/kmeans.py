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
lane has k + 1 groups: group 0 is I_0 and group j is class j's.  Each
lane carries its own ``lam``; at ``lam = inf`` group 0's distance is
inf, so it stays empty and the lane is the no-selection fit.  One queue
may therefore mix the restarts of several multipliers: `fit_grid` runs
every candidate of a tuning grid over one `FitData`, and `fit_best` is
its one-config case.  A Lloyd step of all live lanes is one one-hot
product for the centers and one kernel call for the distances, so the
Python work per step does not grow with the number of restarts.  On tall
data (k * p < n) `FitData` holds Gram matrices instead of the data, and
a step costs O(p^2) per center instead of O(n p); see `FitData.of`.  In
both Lloyd iterations a lane leaves by one rule (`_lloyd`): when its
labels repeat, its step fails, or after `MAX_ITERS` steps.  A lane
whose initialization leaves a cluster empty, or whose class group
empties during the alternation, draws a fresh initialization from its
own stream, up to `MAX_ATTEMPTS` attempts, so every stream is consumed
in the order of a lone run.  As many lanes run at a time as
`LANE_BYTES` allows each lane's largest arrays (`_lane_width`), so a
small fit runs all its restarts in one round while wide data keeps its
distance blocks and one-hots near 5 MB; a restart that converges or
gives up hands its lane to the next one.  The restarts that converge in
a round are scored together by `_lane_errors`, their models' training
errors from one product per class, and `fit_grid` builds a model only
for each config's winner.  `init_partition`, `update_centers`,
`assign_rows`, `refine_partition` and `lloyd_fit` run the same kernels
on one lane; they and `fit_grid` alone convert between the lane layout
and the k- or (k + 1)-group `FeaturePartition` and `ClusterCenters`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .classifier import compute_centroids, with_lambda
from .data import FeaturePartition, LabeledDataset, row_sq_norms, sq_distances

# Bytes the lanes fitted at once may give each of their largest arrays
# (see `_lane_width`).  At p = 20 000 features and k = 3 a lane's holds
# 4 * 20 000 float64, so 8 lanes fit, about 5 MB.
LANE_BYTES = 5 << 20
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


def _check_lam(lam: float) -> None:
    if not (lam > 0):
        raise ValueError("lambda must be positive (inf for no selection)")


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
        _check_lam(self.lam)

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
    """Per-dataset quantities that every lane of a fit shares, in one of
    two forms that `of` picks from the shapes.

    A group's center is the mean of its member features: the product of a
    one-hot with ``points`` (one row per feature) or with ``class_x[j]``
    (one column per feature, for the rows of class j + 1), over the
    group's size.  ``point_sq`` and ``class_sq[j]`` are the features'
    squared norms on all rows and on class j + 1's, and ``n_rows`` holds
    n, n_1, ..., n_k, which scale the dn-distances.

    - Direct form: ``points`` is the transposed data matrix and
      ``class_x[j]`` holds the rows of class j + 1 as one contiguous block,
      in their original order, so a center is its coordinates on the rows.
    - Gram form (``gram``): ``points`` is the Gram matrix X^T X of the
      features and ``class_x[j]`` the Gram matrix of class j + 1's rows.
      Both are symmetric p x p, so the same products give a center's inner
      products with every feature.  A center is then a weight vector over
      the features, carried as those products, and is never formed on the
      rows.

    `center_sq` and `sq_distances_to` are the only code that reads the form.
    """

    points: np.ndarray
    point_sq: np.ndarray
    class_x: tuple[np.ndarray, ...]
    class_sq: tuple[np.ndarray, ...]
    n_rows: tuple[int, ...]
    gram: bool

    @classmethod
    def of(cls, ds: LabeledDataset) -> "FitData":
        """The form that costs less on ``ds``'s shape.

        A distance or center step over m centers costs m * p * n
        multiply-adds in the direct form on all rows and m * p * n_j on
        class j's rows, against m * p * p in the Gram form on either.  So
        the all-row products pay when p < n, and the class products, with
        n_j about n / k, when k * p < n.  Then the (k + 1) * p * p floats of
        the Gram matrices are also less than twice the data.
        """
        if ds.k * ds.p >= ds.n:
            return cls.direct(ds)
        grams = tuple(xs.T @ xs for xs in ds.class_x)
        gram = sum(grams)
        return cls(gram, np.diagonal(gram).copy(), grams,
                   tuple(np.diagonal(g).copy() for g in grams), _n_rows(ds), gram=True)

    @classmethod
    def direct(cls, ds: LabeledDataset) -> "FitData":
        """The direct form, whatever the shape.  `ClusterCenters` holds
        coordinates, so the one-lane steps that take or return centers
        use it."""
        points = np.ascontiguousarray(ds.x.T)
        return cls(points, row_sq_norms(points), ds.class_x,
                   tuple(row_sq_norms(xs.T) for xs in ds.class_x), _n_rows(ds), gram=False)

    def center_sq(self, centers: np.ndarray, onehot: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The squared norms of ``centers``, one center per row, each the
        mean of the ``sizes`` features in its ``onehot`` row.  In the Gram
        form that is the mean of the center's products with its members,
        NaN for a center without members."""
        if not self.gram:
            return row_sq_norms(centers)
        dots = np.einsum("ij,ij->i", onehot, centers)
        return np.divide(dots, sizes, out=np.full_like(dots, np.nan), where=sizes > 0)

    def sq_distances_to(self, group: int, centers: np.ndarray, centers_sq: np.ndarray) -> np.ndarray:
        """The (p x centers) squared distances from every feature to
        ``centers``, one per row with squared norms ``centers_sq``, on
        ``group``'s rows: all rows for group 0, class j's for group j."""
        point_sq = self.point_sq if group == 0 else self.class_sq[group - 1]
        if not self.gram:
            points = self.points if group == 0 else self.class_x[group - 1].T
            return sq_distances(points, point_sq, centers, centers_sq)
        d2 = centers.T * -2.0  # each center's row holds its products with the features
        d2 += point_sq[:, None]
        d2 += centers_sq[None, :]
        return np.maximum(d2, 0.0, out=d2)


def _n_rows(ds: LabeledDataset) -> tuple[int, ...]:
    return (ds.n, *(len(xs) for xs in ds.class_x))


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


def _seed_lanes(fit_data: FitData, n_clusters: int,
                streams: list[np.random.Generator]) -> np.ndarray:
    """k-means++ seeds of every lane, as the (lanes x n_clusters) indices
    of the features drawn.

    Each lane draws from its own stream exactly as a lone run would; the
    distances of all lanes' newest seeds are one kernel call, and every
    lane's next draw is one `_draw_lanes` call.
    """
    points, point_sq = fit_data.points, fit_data.point_sq
    n = len(points)
    if n_clusters > n:
        raise ValueError("more clusters than points")
    seeds = np.empty((len(streams), n_clusters), dtype=np.intp)
    seeds[:, 0] = idx = np.array([stream.integers(n) for stream in streams])
    d2 = np.ascontiguousarray(fit_data.sq_distances_to(0, points[idx], point_sq[idx]).T)
    for j in range(1, n_clusters):
        seeds[:, j] = idx = _draw_lanes(d2, streams)
        np.minimum(d2, fit_data.sq_distances_to(0, points[idx], point_sq[idx]).T, out=d2)
    return seeds


def _draw_lanes(d2: np.ndarray, streams: list[np.random.Generator]) -> np.ndarray:
    """One k-means++ draw per lane from its row of the (lanes x n) squared
    distances ``d2``, exactly as ``stream.choice(n, p=row / row.sum())``
    draws, or ``stream.integers(n)`` where the row sums to 0.

    ``choice`` counts the steps of ``cumsum(p) / cumsum(p)[-1]`` at or below
    one ``random()``; here each lane takes its ``random()`` and one
    cumsum and one count serve all lanes.  A row is contiguous, so its sum
    is the same pairwise sum as a lone row's.  Raises ValueError where a
    sum is not finite, which ``choice`` would refuse or never reach.
    """
    total = d2.sum(axis=1)
    if not np.isfinite(total).all():
        raise ValueError("k-means++ distances are not finite: the data's scale "
                         "is beyond the float range")
    drawing = total > 0
    idx, u = np.empty(len(d2), dtype=np.intp), np.empty(len(d2))
    for lane, stream in enumerate(streams):
        if drawing[lane]:
            u[lane] = stream.random()
        else:
            idx[lane] = stream.integers(d2.shape[1])
    cdf = np.cumsum(d2[drawing] / total[drawing, None], axis=1)
    cdf /= cdf[:, -1:]
    idx[drawing] = (cdf <= u[drawing, None]).sum(axis=1)
    return idx


def _lloyd(step, labels: np.ndarray, *state: np.ndarray):
    """Run ``step(labels, *state) -> (new labels, failed)`` on the live
    lanes from their (lanes x p) ``labels``; it may update the per-lane
    ``state`` arrays in place.  A lane leaves, taking its rows of
    ``state``, when its labels repeat, when its step fails, or after
    `MAX_ITERS` steps.  Returns ``(labels, steps, failed)`` per lane."""
    out, steps, failed = labels.copy(), np.zeros(len(labels), np.intp), np.zeros(len(labels), bool)
    live = np.arange(len(labels))
    for it in range(1, MAX_ITERS + 1):
        if not len(live):
            break
        new, fail = step(labels, *state)
        out[live], steps[live], failed[live] = new, it, fail
        moving = ~fail & (new != labels).any(axis=1)
        live, labels, state = live[moving], new[moving], [s[moving] for s in state]
    return out, steps, failed


def _lloyd_lanes(fit_data: FitData, seeds: np.ndarray) -> np.ndarray:
    """Standard Lloyd iterations of every lane from the seed features that
    `_seed_lanes` drew, as (lanes x n_points) labels.  A `_lloyd` step
    updates the centers, an emptied cluster keeping its own, then assigns;
    the first, from labels of -1, assigns to the seeds, so a lane assigns
    at most `MAX_ITERS` times.  No step fails.
    """
    points = fit_data.points
    n_clusters, dim = seeds.shape[1], points.shape[1]

    def step(labels, centers, centers_sq):
        if labels[0, 0] >= 0:  # -1 in every lane before the first step
            onehot = _onehot(labels, n_clusters).reshape(-1, len(points))
            sizes = onehot.sum(axis=1)
            flat, filled = centers.reshape(-1, dim), sizes > 0
            np.divide(onehot @ points, sizes[:, None], out=flat, where=filled[:, None])
            np.copyto(centers_sq.reshape(-1), fit_data.center_sq(flat, onehot, sizes), where=filled)
        dist = fit_data.sq_distances_to(0, centers.reshape(-1, dim), centers_sq.ravel())
        new = dist.reshape(len(points), len(labels), n_clusters).argmin(axis=2).T
        return new, np.zeros(len(labels), dtype=bool)

    start = np.full((len(seeds), len(points)), -1, dtype=np.intp)
    return _lloyd(step, start, points[seeds], fit_data.point_sq[seeds])[0]


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
    labels = _lloyd_lanes(fit_data, _seed_lanes(fit_data, n_clusters, streams))
    sizes = _group_sizes(labels, n_clusters)
    # no label equals n_clusters, so without selection every cluster moves up
    special = sizes.argmax(axis=1)[:, None] if selection else n_clusters
    labels = np.where(labels == special, 0, labels + (labels < special))
    return labels, sizes.min(axis=1) > 0


def _lane_centers(fit_data: FitData, labels: np.ndarray):
    """Every lane's alternation centers, as one-hot products (see
    `FitData`), with their squared norms.

    Returns ``(special, classes)``.  ``classes[j - 1]`` is the pair
    ``(m, m_sq)`` of class j's centers, one lane's per column of ``m``
    (on class j's rows in the direct form), and their squared norms.
    ``special`` is None when I_0 is empty in every lane, and otherwise
    ``(filled, m, m_sq)``: the mask of the lanes whose I_0 has members,
    and their m_0 (on all rows in the direct form) and squared norms.
    """
    onehot = _onehot(labels, len(fit_data.class_x) + 1)
    sizes = onehot.sum(axis=2)
    classes = []
    for j, xs in enumerate(fit_data.class_x, start=1):
        m = xs @ onehot[:, j].T / sizes[:, j]
        classes.append((m, fit_data.center_sq(m.T, onehot[:, j], sizes[:, j])))
    special = None
    filled = sizes[:, 0] > 0
    if filled.any():
        m0 = (fit_data.points.T @ onehot[:, 0].T)[:, filled] / sizes[filled, 0]
        special = filled, m0, fit_data.center_sq(m0.T, onehot[filled, 0], sizes[filled, 0])
    return special, tuple(classes)


def _lane_distances(fit_data: FitData, special, classes, lam: np.ndarray) -> np.ndarray:
    """The (groups x p x lanes) dn-distances that the assign step
    minimizes over: each feature's distance to each lane's centers, given
    as `_lane_centers` gives them, on their rows.  Each lane's special row
    is scaled by its own ``lam`` and is inf where that ``lam`` is inf or
    the lane has no m_0; such a lane forms no m_0 product, so no inf
    meets a 0."""
    dist = np.full((len(classes) + 1, len(fit_data.points), len(lam)), np.inf)
    if special is not None:
        filled, m0, m0_sq = special
        present = filled & np.isfinite(lam)
        keep = present[filled]
        d2 = fit_data.sq_distances_to(0, m0[:, keep].T, m0_sq[keep])
        dist[0][:, present] = lam[present] * np.sqrt(d2 / fit_data.n_rows[0])
    for j, (d, (m, m_sq)) in enumerate(zip(dist[1:], classes), start=1):
        d[:] = np.sqrt(fit_data.sq_distances_to(j, m.T, m_sq) / fit_data.n_rows[j])
    return dist


def _refine_lanes(fit_data: FitData, labels: np.ndarray,
                  lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adapted alternation of every lane from its (lanes x p) labels,
    group 0 being the special group, lane i at multiplier ``lam[i]``.  A
    `_lloyd` step recomputes the centers and reassigns every feature to
    its nearest one, ties to the smallest group index, and fails when a
    class group empties.  Returns ``(labels, iterations, emptied)``.
    """
    def step(labels, lam):
        special, classes = _lane_centers(fit_data, labels)
        new = _lane_distances(fit_data, special, classes, lam).argmin(axis=0).T
        return new, (_group_sizes(new, len(classes) + 1)[:, 1:] == 0).any(axis=1)

    return _lloyd(step, labels, lam)


def _lane_width(fit_data: FitData) -> int:
    """How many lanes fit `LANE_BYTES`, and at least one.

    A lane's largest arrays hold k + 1 float64 rows of length p or of the
    form's center length (n in the direct form, p in the Gram form): the
    alternation's (groups x p) distances and one-hot, its centers, and the
    init k-means' (clusters x p) one-hot and distances and its centers.
    """
    p, dim = fit_data.points.shape
    return max(1, LANE_BYTES // (8 * (len(fit_data.class_x) + 1) * max(dim, p)))


def _fit_lanes(fit_data: FitData, restarts):
    """Initialize and refine restarts to convergence in at most
    `_lane_width` lanes, drawing each restart's ``(lam, stream)`` from
    ``restarts`` as it first enters a lane.

    Each round gives the first `_lane_width` waiting restarts one attempt:
    an initialization from the restart's stream, then the alternation at
    its own multiplier.  The round's selection lanes init k + 1 clusters
    and its ``lam = inf`` lanes k, in one `_init_lanes` call each; one
    `_refine_lanes` call then runs them all.  A restart whose
    initialization leaves a cluster empty or whose class group empties
    waits for another attempt, up to `MAX_ATTEMPTS`; one that converges
    or gives up hands its lane to the next restart.  Yields
    ``(restarts, labels)`` each round: the ascending indices of the
    converged restarts and their (lanes x p) labels.
    """
    queue, lanes, attempts = enumerate(restarts), [], np.zeros(0, dtype=np.intp)
    width = _lane_width(fit_data)
    while lanes := lanes + list(itertools.islice(queue, width - len(lanes))):
        attempts = np.append(attempts, np.zeros(len(lanes) - len(attempts), np.intp)) + 1
        lam = np.array([lane_lam for _, (lane_lam, _) in lanes])
        start = np.empty((len(lanes), len(fit_data.points)), dtype=np.intp)
        seeded = np.empty(len(lanes), dtype=bool)
        for selection in (True, False):
            group = np.isfinite(lam) == selection
            if group.any():
                streams = [stream for (_, (_, stream)), g in zip(lanes, group) if g]
                start[group], seeded[group] = _init_lanes(fit_data, selection, streams)
        refined, _, emptied = _refine_lanes(fit_data, start[seeded], lam[seeded])
        done = seeded.copy()
        done[seeded] = ~emptied
        if done.any():
            yield np.array([r for r, _ in lanes])[done], refined[~emptied]
        keep = ~done & (attempts < MAX_ATTEMPTS)
        lanes, attempts = [lane for lane, kept in zip(lanes, keep) if kept], attempts[keep]


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
    special, classes = _lane_centers(FitData.direct(ds), _labels(part, ds.p)[None])
    centers = [m[:, 0] for m, _ in classes]
    if part.has_special:
        centers.insert(0, None if special is None else special[1][:, 0])
    return ClusterCenters(tuple(centers), has_special=part.has_special)


def _dn_distances(ds: LabeledDataset, centers: ClusterCenters, lam: float) -> np.ndarray:
    """The (p x groups) matrix that `assign_rows` minimizes over, for one
    lane's centers, in the direct form; the special column is inf without
    m_0."""
    def column(m):
        return m[:, None], row_sq_norms(m[None])

    m0, *classes = centers.centers if centers.has_special else (None, *centers.centers)
    special = None if m0 is None else (np.array([True]), *column(m0))
    dist = _lane_distances(FitData.direct(ds), special, tuple(map(column, classes)),
                           np.array([lam]))
    return dist[int(not centers.has_special):, :, 0].T


def assign_rows(ds: LabeledDataset, centers: ClusterCenters, lam: float) -> FeaturePartition:
    """Reassign every feature to its nearest center.

    Distances are dn-distances on each group's own rows; the special
    center's distance is scaled by ``lam`` (``inf`` bars assignment to the
    special group outright).  Ties go to the smallest group index, the
    special group being index 0.
    """
    _check_lam(lam)
    assignment = _dn_distances(ds, centers, lam).argmin(axis=1)
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
    for g, xs, m in zip(part.class_groups, ds.class_x,
                        centers.centers[int(part.has_special):]):
        total += np.square(xs.take(g, axis=1) - m[:, None]).mean(axis=0).sum()
    return float(total)


def refine_partition(ds: LabeledDataset, part: FeaturePartition, lam: float):
    """Run the update/assign alternation from ``part`` at multiplier
    ``lam`` until the partition repeats or `MAX_ITERS` steps have run.

    Returns ``(partition, iterations)``; raises EmptyGroupError if a
    class group empties (the caller restarts from a fresh initialization).
    """
    _check_lam(lam)
    _check_class_groups(part)
    labels, iterations, emptied = _refine_lanes(FitData.of(ds), _labels(part, ds.p)[None],
                                                np.array([lam]))
    if emptied[0]:
        raise EmptyGroupError("empty class group during alternation")
    return _partition(labels[0], ds.k, part.has_special), int(iterations[0])


def lloyd_fit(ds: LabeledDataset, lam: float, rng: np.random.Generator) -> FeaturePartition:
    """One full run at multiplier ``lam`` (``math.inf`` for no selection):
    initialize, then alternate to convergence.

    Runs that hit an empty group are abandoned and re-initialized; after
    `MAX_ATTEMPTS` attempts it raises FitFailedError.
    """
    _check_lam(lam)
    for _, labels in _fit_lanes(FitData.of(ds), [(lam, rng)]):
        return _partition(labels[0], ds.k, not math.isinf(lam))
    raise FitFailedError(f"gave up after {MAX_ATTEMPTS} attempts "
                         "that all produced an empty group")


def _too_few_features(ds: LabeledDataset, config: FitConfig) -> bool:
    """Whether ``config`` selects features, which needs k + 1 groups, on
    fewer than k + 1 features."""
    return config.with_selection and ds.k + 1 > ds.p


def _lane_errors(ds: LabeledDataset, labels: np.ndarray) -> np.ndarray:
    """The training error of every lane's model, as `training_error` of
    `compute_centroids` on the lane's partition gives it.

    Class j's centroid on I_j is the class mean ``ds.class_means[j - 1]``
    restricted to I_j, so every row's score against class j in every lane
    is one (n x p) @ (p x lanes) product: the squared residuals
    (x - mu_j)^2 times each lane's 0/1 membership of I_j, over |I_j|.  The
    residuals are formed in place, one class at a time.  Ties go to the
    smallest class, as in `predict_many`.
    """
    scores = np.empty((ds.k, ds.n, len(labels)))
    residuals = np.empty_like(ds.x)
    for j, (mean, score) in enumerate(zip(ds.class_means, scores), start=1):
        member = (labels == j).astype(np.float64)
        np.square(np.subtract(ds.x, mean, out=residuals), out=residuals)
        np.matmul(residuals, member.T, out=score)
        score /= member.sum(axis=1)
    return (scores.argmin(axis=0) + 1 != ds.labels[:, None]).mean(axis=0)


def fit_grid(ds: LabeledDataset, configs):
    """Run the restarts of every config in ``configs`` in one queue over
    ``ds`` and keep each config's best, as `fit_best` would.

    Returns one ``(partition, model, training_error)`` per config, or
    None where that config failed: feature selection with k + 1 > p, or
    every restart exhausted its attempts.  Each restart draws from the
    stream its config's `fit_best` would give it, so every fit is the
    one `fit_best` makes alone.  Each round's converged restarts are
    ranked by `_lane_errors`, ties to the earliest restart, and only the
    winners' labels are kept; one model per config is built at the end.
    """
    configs = list(configs)
    jobs = [(i, r) for i, config in enumerate(configs) if not _too_few_features(ds, config)
            for r in range(config.restarts)]
    restarts = ((configs[i].lam, rngmod.generator(configs[i].seed, "restart", r))
                for i, r in jobs)
    best = [(math.inf, 0, None)] * len(configs)
    for indices, labels in _fit_lanes(FitData.of(ds), restarts):
        for index, row, error in zip(indices, labels, _lane_errors(ds, labels)):
            i, restart = jobs[index]
            if (error, restart) < best[i][:2]:
                best[i] = (error, restart, row)
    fits = []
    for config, (error, _, row) in zip(configs, best):
        if row is None:
            fits.append(None)
            continue
        part = _partition(row, ds.k, config.with_selection)
        fits.append((part, with_lambda(compute_centroids(ds, part), config.lam), float(error)))
    return fits


def fit_best(ds: LabeledDataset, config: FitConfig):
    """Run ``config.restarts`` independent fits and keep the best.

    Every restart gets its own derived stream; the winner is the model
    with the lowest training error, ties to the earliest restart.
    Returns ``(partition, model, training_error)``.  Feature selection
    needs k + 1 groups, so it raises ValueError up front when k + 1 > p.
    """
    if _too_few_features(ds, config):
        raise ValueError(f"feature selection at lambda={config.lam!r} needs k + 1 = "
                         f"{ds.k + 1} feature groups, but there are only p = {ds.p} features")
    fit, = fit_grid(ds, [config])
    if fit is None:
        raise FitFailedError(f"all {config.restarts} restarts failed "
                             f"({config.restarts} exhausted their empty-group attempts)")
    return fit
