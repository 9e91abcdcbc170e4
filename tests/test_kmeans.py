"""The partition fit.  The lockstep fit is compared with the per-restart
loop it replaced, which is kept below as it was: one restart at a time,
one center and one distance column per group, and a Python loop over
the clusters for the k-means center update."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ndc.kmeans
from conftest import block_dataset, random_dataset
from ndc.classifier import compute_centroids, training_error
from ndc.data import FeaturePartition, LabeledDataset, row_sq_norms, sq_distances, validate_partition
from ndc.kmeans import (
    ClusterCenters,
    EmptyGroupError,
    FitConfig,
    FitData,
    FitFailedError,
    _fit_lanes,
    _group_sizes,
    _init_lanes,
    _labels,
    _lane_errors,
    _partition,
    _refine_lanes,
    assign_rows,
    clustering_objective,
    fit_best,
    fit_grid,
    init_partition,
    lloyd_fit,
    refine_partition,
    update_centers,
)
from ndc import rng as rngmod
from ndc.evaluate import DEFAULT_LAMBDA_GRID
from ndc.simulate import generate, preset


def ref_kmeans_rows(points, point_sq, n_clusters, rng):
    n = points.shape[0]

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
    for _ in range(ndc.kmeans.MAX_ITERS):
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


def ref_init(fd, n_groups, has_special, rng):
    """One initialization attempt: the groups, or None on an empty cluster."""
    labels = ref_kmeans_rows(fd.points, fd.point_sq, n_groups, rng)
    sizes = np.bincount(labels, minlength=n_groups)
    if sizes.min() == 0:
        return None
    order = np.arange(n_groups)
    if has_special:
        special = int(sizes.argmax())
        order = np.concatenate(([special], np.delete(order, special)))
    return [np.flatnonzero(labels == j) for j in order]


def ref_centers(ds, fd, groups, has_special):
    centers = []
    if has_special:
        centers.append(ds.x[:, groups[0]].mean(axis=1) if len(groups[0]) else None)
    for g, xs in zip(groups[int(has_special):], fd.class_x):
        centers.append(xs[:, g].mean(axis=1))
    return centers


def ref_assign(fd, centers, has_special, lam):
    def dn(cols, cols_sq, m):
        d2 = sq_distances(cols, cols_sq, m[None, :], row_sq_norms(m[None, :]))[:, 0]
        return np.sqrt(d2 / len(m))

    dist = np.full((len(fd.points), len(centers)), np.inf)
    offset = int(has_special)
    if has_special and centers[0] is not None and not math.isinf(lam):
        dist[:, 0] = lam * dn(fd.points, fd.point_sq, centers[0])
    for j, (xs, xs_sq) in enumerate(zip(fd.class_x, fd.class_sq)):
        dist[:, j + offset] = dn(xs.T, xs_sq, centers[j + offset])
    assignment = dist.argmin(axis=1)
    return [np.flatnonzero(assignment == j) for j in range(len(centers))]


def ref_refine(ds, fd, groups, has_special, config):
    """The alternation: the final groups, or None when a class group empties."""
    for _ in range(ndc.kmeans.MAX_ITERS):
        new = ref_assign(fd, ref_centers(ds, fd, groups, has_special), has_special, config.lam)
        if any(len(g) == 0 for g in new[int(has_special):]):
            return None
        if all(np.array_equal(a, b) for a, b in zip(new, groups)):
            return new
        groups = new
    return groups


def ref_lloyd_fit(ds, fd, config, rng):
    """One restart: ``(groups or None, attempts used)``."""
    has_special = config.with_selection
    for attempt in range(1, ndc.kmeans.MAX_ATTEMPTS + 1):
        groups = ref_init(fd, ds.k + has_special, has_special, rng)
        if groups is not None:
            groups = ref_refine(ds, fd, groups, has_special, config)
        if groups is not None:
            return groups, attempt
    return None, ndc.kmeans.MAX_ATTEMPTS


def ref_fit_best(ds, config):
    """Every restart's ``(groups or None, attempts, training error)`` and
    the winner's index, ties to the earliest restart."""
    fd = FitData.direct(ds)
    runs, winner = [], None
    for r in range(config.restarts):
        groups, attempts = ref_lloyd_fit(ds, fd, config,
                                         rngmod.generator(config.seed, "restart", r))
        err = None
        if groups is not None:
            part = FeaturePartition(tuple(groups), has_special=config.with_selection)
            err = training_error(ds, compute_centroids(ds, part))
            if winner is None or err < runs[winner][2]:
                winner = r
        runs.append((groups, attempts, err))
    if winner is None:
        raise FitFailedError(f"all {config.restarts} restarts failed "
                             f"({config.restarts} exhausted their empty-group attempts)")
    return runs, winner


def groups_as_sets(part):
    return {frozenset(g.tolist()) for g in part.groups}


def test_init_partition_separates_distant_features(toy_ds):
    # the two transposed rows are far apart; 2-clustering must split them
    part = init_partition(toy_ds, 2, rngmod.generator(0, "init"))
    assert groups_as_sets(part) == {frozenset({0}), frozenset({1})}


def test_init_partition_each_feature_own_group():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 4)) * 5
    ds = LabeledDataset.from_arrays(x, [1, 2, 3, 4])
    part = init_partition(ds, 4, rngmod.generator(1, "init"))
    assert groups_as_sets(part) == {frozenset({i}) for i in range(4)}


def test_init_partition_single_group():
    ds = LabeledDataset.from_arrays(np.arange(12.0).reshape(3, 4), [1, 1, 1])
    part = init_partition(ds, 1, rngmod.generator(2, "init"))
    assert part.groups[0].tolist() == [0, 1, 2, 3]


def test_init_partition_special_is_largest_cluster():
    rng = np.random.default_rng(12)
    # 2 tight feature clusters of unequal size plus class structure
    base = rng.normal(size=(10, 1))
    big = base + 0.01 * rng.normal(size=(10, 6))
    far = 50.0 + 0.01 * rng.normal(size=(10, 2))
    ds = LabeledDataset.from_arrays(np.hstack([big, far]), [1] * 5 + [2] * 5)
    part = init_partition(ds, 3, rngmod.generator(3, "init"))
    assert part.has_special
    # the 6-feature bundle can only be split by the third cluster; the
    # special group must still be the most populated one
    sizes = [len(g) for g in part.groups]
    assert sizes[0] == max(sizes)


def test_update_centers_toy(toy_ds, toy_partition):
    centers = update_centers(toy_ds, toy_partition)
    assert centers.centers[0].tolist() == [0.0, 0.0]
    assert centers.centers[1].tolist() == [6.0, 6.0]


def test_update_centers_single_feature_group():
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, k=2, p=3, n_per_class=4)
    part = FeaturePartition((np.array([2]), np.array([0, 1])))
    centers = update_centers(ds, part)
    np.testing.assert_allclose(centers.centers[0], ds.x[ds.labels == 1, 2])


def test_update_centers_special_all_features():
    rng = np.random.default_rng(14)
    ds = random_dataset(rng, k=2, p=4, n_per_class=3)
    part = FeaturePartition(
        (np.arange(4), np.array([], dtype=int), np.array([], dtype=int)),
        has_special=True)
    # class groups empty -> must raise; special-only centers need the rest
    with pytest.raises(ValueError):
        update_centers(ds, part)
    part2 = FeaturePartition((np.array([0, 1]), np.array([2]), np.array([3])),
                             has_special=True)
    centers = update_centers(ds, part2)
    np.testing.assert_allclose(centers.centers[0], ds.x[:, [0, 1]].mean(axis=1))


def _two_row_centers(a, b, d0, d1, d2):
    """Centers for a 2-sample, 2-class dataset hitting the given raw
    dn-distances for the single probe feature (a, b)."""
    m0 = np.array([a - d0, b - d0])
    m1 = np.array([a - d1])
    m2 = np.array([b - d2])
    return ClusterCenters((m0, m1, m2), has_special=True)


def test_assign_rows_lambda_rules():
    # dyadic distances so comparisons and ties are float-exact
    ds = LabeledDataset.from_arrays([[2.0, 1.0], [3.0, 1.0]], [1, 2])
    centers = _two_row_centers(2.0, 3.0, 1.0, 0.75, 0.875)
    lam_half = assign_rows(ds, centers, 0.5)
    assert 0 in lam_half.special  # effective 0.5 < 0.75 < 0.875
    lam_inf = assign_rows(ds, centers, math.inf)
    assert 0 in lam_inf.groups[1]  # special barred, 0.75 wins
    tie = _two_row_centers(2.0, 3.0, 1.0, 0.75, 0.75)
    assert 0 in assign_rows(ds, tie, math.inf).groups[1]  # d1 == d2 -> class 1


def test_assign_rows_special_tie_goes_to_special():
    ds = LabeledDataset.from_arrays([[2.0, 1.0], [3.0, 1.0]], [1, 2])
    centers = _two_row_centers(2.0, 3.0, 0.75, 0.75, 0.875)
    part = assign_rows(ds, centers, 1.0)
    assert 0 in part.special  # effective d0 == d1 -> smallest index wins


def test_assign_rows_absent_special_center():
    ds = LabeledDataset.from_arrays([[2.0, 1.0], [3.0, 1.0]], [1, 2])
    centers = ClusterCenters((None, np.array([1.0]), np.array([5.0])), has_special=True)
    part = assign_rows(ds, centers, 0.1)
    assert len(part.special) == 0  # nothing can join an absent center


def test_assign_rows_lambda_monotone_special_growth():
    rng = np.random.default_rng(15)
    for _ in range(20):
        ds = random_dataset(rng, k=2, p=int(rng.integers(4, 9)))
        part = init_partition(ds, 3, rngmod.generator(int(rng.integers(1 << 30)), "i"))
        centers = update_centers(ds, part)
        lams = sorted(rng.uniform(0.2, 2.5, size=4))
        specials = [set(assign_rows(ds, centers, lam).special.tolist()) for lam in lams]
        for small, large in zip(specials[:-1], specials[1:]):
            assert large <= small  # shrinking lambda only grows the special set


def test_assignment_always_valid_partition():
    rng = np.random.default_rng(16)
    for _ in range(25):
        ds = random_dataset(rng)
        with_special = bool(rng.integers(2))
        n_groups = ds.k + (1 if with_special else 0)
        if n_groups > ds.p:
            continue
        part = init_partition(ds, n_groups, rngmod.generator(int(rng.integers(1 << 30)), "x"))
        centers = update_centers(ds, part)
        new = assign_rows(ds, centers, rng.uniform(0.5, 2.0))
        seen = np.concatenate(new.groups)
        assert len(seen) == ds.p and len(np.unique(seen)) == ds.p


def test_refine_toy_fixed_points(toy_ds, toy_partition, toy_partition_swapped):
    refined, iters = refine_partition(toy_ds, toy_partition, math.inf)
    assert iters == 1  # already stable
    assert groups_as_sets(refined) == groups_as_sets(toy_partition)
    assert refined.groups[0].tolist() == [0]
    # the swapped labeling is also a fixed point, with higher risk; the
    # restart selection is what rejects it
    swapped, _ = refine_partition(toy_ds, toy_partition_swapped, math.inf)
    assert swapped.groups[0].tolist() == [1]


def test_lloyd_converges_on_toy(toy_ds):
    part = lloyd_fit(toy_ds, math.inf, rngmod.generator(21, "run"))
    assert groups_as_sets(part) == {frozenset({0}), frozenset({1})}


def test_symmetric_identity_partition_is_fixed_point():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    ds = LabeledDataset.from_arrays(x, [1, 1, 2, 2])
    part = FeaturePartition((np.array([0]), np.array([1])))
    refined, iters = refine_partition(ds, part, math.inf)
    assert iters == 1
    assert refined.groups[0].tolist() == [0]
    assert refined.groups[1].tolist() == [1]


def test_max_iters_caps_alternation(monkeypatch):
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, k=3, p=8, n_per_class=6)
    start = init_partition(ds, 3, rngmod.generator(22, "run"))
    one_pass = assign_rows(ds, update_centers(ds, start), math.inf)
    monkeypatch.setattr(ndc.kmeans, "MAX_ITERS", 1)
    capped, iters = refine_partition(ds, start, math.inf)
    assert iters == 1
    for a, b in zip(capped.groups, one_pass.groups):
        np.testing.assert_array_equal(a, b)


def test_clustering_objective_monotone_random_data():
    rng = np.random.default_rng(18)
    for trial in range(30):
        ds = random_dataset(rng)
        config = FitConfig(restarts=1, lam=math.inf)
        part = init_partition(ds, ds.k, rngmod.generator(trial, "mono"))
        values = [clustering_objective(ds, part)]
        for _ in range(60):
            new = assign_rows(ds, update_centers(ds, part), config.lam)
            if any(len(g) == 0 for g in new.class_groups):
                break
            values.append(clustering_objective(ds, new))
            if all(np.array_equal(a, b) for a, b in zip(new.groups, part.groups)):
                break
            part = new
        diffs = np.diff(values)
        assert (diffs <= 1e-9).all()


def test_clustering_objective_monotone_block_data():
    rng = np.random.default_rng(19)
    for trial in range(10):
        ds = block_dataset(rng, k=3, n_per_class=20, d=3, sigma2=1.9)
        part = init_partition(ds, 3, rngmod.generator(trial, "mono2"))
        values = [clustering_objective(ds, part)]
        for _ in range(60):
            new = assign_rows(ds, update_centers(ds, part), math.inf)
            if any(len(g) == 0 for g in new.class_groups):
                break
            values.append(clustering_objective(ds, new))
            if all(np.array_equal(a, b) for a, b in zip(new.groups, part.groups)):
                break
            part = new
        assert (np.diff(values) <= 1e-9).all()


def test_lloyd_deterministic_given_seed():
    rng = np.random.default_rng(20)
    ds = random_dataset(rng, k=2, p=6, n_per_class=8)
    a = lloyd_fit(ds, math.inf, rngmod.generator(77, "restart", 0))
    b = lloyd_fit(ds, math.inf, rngmod.generator(77, "restart", 0))
    for ga, gb in zip(a.groups, b.groups):
        np.testing.assert_array_equal(ga, gb)


def test_fit_best_restarts_one_equals_single_lloyd(toy_ds):
    config = FitConfig(restarts=1, seed=5)
    part, model, err = fit_best(toy_ds, config)
    direct = lloyd_fit(toy_ds, config.lam, rngmod.generator(5, "restart", 0))
    for a, b in zip(part.groups, direct.groups):
        np.testing.assert_array_equal(a, b)
    direct_model = compute_centroids(toy_ds, direct)
    assert err == training_error(toy_ds, direct_model)
    for a, b in zip(model.centroids, direct_model.centroids):
        np.testing.assert_array_equal(a, b)


def test_fit_best_toy_reaches_zero_error(toy_ds):
    part, model, err = fit_best(toy_ds, FitConfig(restarts=10, seed=1))
    assert err == 0.0
    assert part.groups[0].tolist() == [0]
    assert part.groups[1].tolist() == [1]


def test_fit_best_deterministic(toy_ds):
    rng = np.random.default_rng(23)
    ds = random_dataset(rng, k=3, p=7, n_per_class=6)
    config = FitConfig(restarts=8, seed=99)
    r1 = fit_best(ds, config)
    r2 = fit_best(ds, config)
    assert r1[2] == r2[2]
    for a, b in zip(r1[1].centroids, r2[1].centroids):
        np.testing.assert_array_equal(a, b)


def test_lambda_inf_is_no_selection_algorithm(toy_ds):
    cfg_inf = FitConfig(restarts=5, lam=math.inf, seed=3)
    cfg_default = FitConfig(restarts=5, seed=3)
    p1, m1, e1 = fit_best(toy_ds, cfg_inf)
    p2, m2, e2 = fit_best(toy_ds, cfg_default)
    assert not p1.has_special and not p2.has_special
    assert e1 == e2
    for a, b in zip(m1.centroids, m2.centroids):
        np.testing.assert_array_equal(a, b)
    assert m1.lambda_used is None


def test_finite_lambda_fits_special_partition():
    rng = np.random.default_rng(24)
    ds = block_dataset(rng, k=2, n_per_class=20, d=2, sigma2=2.5, r=4)
    config = FitConfig(restarts=10, lam=0.9, seed=6)
    part, model, err = fit_best(ds, config)
    assert part.has_special
    assert model.lambda_used == 0.9
    assert model.selected_feature_count == ds.p - len(part.special)


def test_duplicate_features_exhaust_restarts(monkeypatch):
    ds = LabeledDataset.from_arrays([[1.0, 1.0], [2.0, 2.0]], [1, 2])
    config = FitConfig(restarts=1)
    monkeypatch.setattr(ndc.kmeans, "MAX_ATTEMPTS", 7)
    with pytest.raises(FitFailedError, match="gave up after 7 attempts"):
        lloyd_fit(ds, config.lam, rngmod.generator(0, "dup"))
    assert ref_lloyd_fit(ds, FitData.direct(ds), config, rngmod.generator(0, "dup")) == (None, 7)
    monkeypatch.setattr(ndc.kmeans, "MAX_ATTEMPTS", 5)
    config = FitConfig(restarts=3)
    with pytest.raises(FitFailedError) as want:
        ref_fit_best(ds, config)
    with pytest.raises(FitFailedError) as got:
        fit_best(ds, config)
    assert str(got.value) == str(want.value)


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(restarts=0)
    with pytest.raises(ValueError):
        FitConfig(lam=0.0)
    with pytest.raises(ValueError):
        FitConfig(lam=-1.0)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_one_lane_entries_refuse_a_non_positive_lambda(lam):
    # the one-lane entries refuse lambda up front, with FitConfig's message
    ds = block_dataset(np.random.default_rng(40), k=2, n_per_class=9, d=2, sigma2=1.5, r=2)
    part = init_partition(ds, ds.k + 1, rngmod.generator(0, "init"))
    with pytest.raises(ValueError, match="lambda must be positive") as want:
        FitConfig(lam=lam)
    for call in (lambda: assign_rows(ds, update_centers(ds, part), lam),
                 lambda: refine_partition(ds, part, lam),
                 lambda: lloyd_fit(ds, lam, rngmod.generator(0, "run"))):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)


def test_selection_needs_more_features_than_classes():
    # k + 1 = 3 groups cannot be formed from p = 2 features; the check
    # runs before any restart and names the multiplier, k + 1 and p
    ds = LabeledDataset.from_arrays([[0.0, 5.0], [1.0, 4.0], [5.0, 0.0], [4.0, 1.0]],
                                    [1, 1, 2, 2])
    with pytest.raises(ValueError, match=r"lambda=0\.9 needs k \+ 1 = 3 .* p = 2 features"):
        fit_best(ds, FitConfig(restarts=1, lam=0.9))
    _, model, _ = fit_best(ds, FitConfig(restarts=1))  # no selection: k = p fits
    assert model.selected_feature_count == 2


def _groups(part):
    return [g.tolist() for g in part.groups]


def restart_rounds(ds, config):
    """Each round of `_fit_lanes` over the restart streams of ``config``:
    the converged restarts' indices and labels."""
    restarts = ((config.lam, rngmod.generator(config.seed, "restart", r))
                for r in range(config.restarts))
    return [(indices.tolist(), labels) for indices, labels in _fit_lanes(FitData.of(ds), restarts)]


def assert_lockstep_matches_reference(ds, config):
    """Every lane of the lockstep fit equals the reference's restart of the
    same index, and `fit_best` keeps the reference's winner and error."""
    runs, winner = ref_fit_best(ds, config)
    labels = np.zeros((config.restarts, ds.p), dtype=np.intp)
    fitted = np.zeros(config.restarts, dtype=bool)
    for restarts, rows in restart_rounds(ds, config):
        labels[restarts], fitted[restarts] = rows, True
    assert fitted.tolist() == [groups is not None for groups, _, _ in runs]
    fitted_runs = [(r, groups, err) for r, (groups, _, err) in enumerate(runs) if groups is not None]
    first = int(not config.with_selection)  # group 0 stays empty without selection
    for (r, groups, _), row in zip(fitted_runs, labels[fitted]):
        assert [np.flatnonzero(row == j).tolist() for j in range(first, ds.k + 1)] == \
            [g.tolist() for g in groups], f"restart {r}"
        assert first == 0 or not (row == 0).any()
    part, model, err = fit_best(ds, config)
    assert _groups(part) == [g.tolist() for g in runs[winner][0]]
    assert err == runs[winner][2] == training_error(ds, model)


@pytest.mark.parametrize("restarts", [1, 4, 20])
@pytest.mark.parametrize("lam", [math.inf, 0.9, 0.6])
def test_lockstep_fit_matches_per_restart_reference(lam, restarts):
    rng = np.random.default_rng(31)
    for trial in range(3):
        ds = block_dataset(rng, k=int(rng.integers(2, 4)), n_per_class=int(rng.integers(6, 15)),
                           d=int(rng.integers(2, 4)), sigma2=1.8, r=int(rng.integers(0, 8)))
        assert_lockstep_matches_reference(ds, FitConfig(restarts=restarts, lam=lam, seed=trial))


def test_lockstep_fit_matches_reference_at_one_iteration(monkeypatch):
    rng = np.random.default_rng(32)
    monkeypatch.setattr(ndc.kmeans, "MAX_ITERS", 1)
    for lam in (math.inf, 0.9):
        ds = block_dataset(rng, k=3, n_per_class=10, d=3, sigma2=1.8, r=5)
        assert_lockstep_matches_reference(ds, FitConfig(restarts=8, lam=lam, seed=4))


def set_lane_width(monkeypatch, ds, lanes):
    """Set `LANE_BYTES` so that fits on ``ds`` run ``lanes`` lanes at a time:
    a lane's largest arrays hold k + 1 rows of max(n, p) floats in the
    direct form and of p in the Gram form."""
    fd = FitData.of(ds)
    length = ds.p if fd.gram else max(ds.n, ds.p)
    monkeypatch.setattr(ndc.kmeans, "LANE_BYTES", lanes * 8 * (ds.k + 1) * length)
    assert ndc.kmeans._lane_width(fd) == lanes


def test_lockstep_fit_matches_reference_through_empty_group_retries(monkeypatch):
    # at lam = 0.6 the special group swallows a class group in most first
    # attempts; with two attempts per restart some restarts give up.  All
    # 20 restarts share one round, and at 3 lanes the retries queue.
    ds = block_dataset(np.random.default_rng(1), k=3, n_per_class=8, d=2, sigma2=1.5, r=6)
    config = FitConfig(restarts=20, lam=0.6, seed=1)
    runs, _ = ref_fit_best(ds, config)
    assert max(attempts for _, attempts, _ in runs) > 1
    assert_lockstep_matches_reference(ds, config)
    set_lane_width(monkeypatch, ds, 3)
    assert_lockstep_matches_reference(ds, config)
    monkeypatch.setattr(ndc.kmeans, "MAX_ATTEMPTS", 2)
    runs, _ = ref_fit_best(ds, config)
    assert 0 < sum(groups is None for groups, _, _ in runs) < config.restarts
    assert_lockstep_matches_reference(ds, config)


@pytest.mark.parametrize("block", [1, 2, 3, 10])
def test_lane_blocks_do_not_change_the_fit(monkeypatch, block):
    # 10 lanes hold all 10 restarts, as the default budget does on this shape
    rng = np.random.default_rng(33)
    cases = [(block_dataset(rng, k=3, n_per_class=10, d=2, sigma2=1.8, r=6), lam)
             for lam in (math.inf, 0.9, 0.6)]
    want = [fit_best(ds, FitConfig(restarts=10, lam=lam, seed=2)) for ds, lam in cases]
    assert ndc.kmeans._lane_width(FitData.of(cases[0][0])) >= 10
    set_lane_width(monkeypatch, cases[0][0], block)
    calls = fail_lanes(monkeypatch)
    for (ds, lam), (part, model, err) in zip(cases, want):
        got_part, got_model, got_err = fit_best(ds, FitConfig(restarts=10, lam=lam, seed=2))
        assert _groups(got_part) == _groups(part) and got_err == err
        for a, b in zip(got_model.centroids, model.centroids):
            np.testing.assert_array_equal(a, b)
    assert max(calls) == block


def test_lane_width_follows_the_byte_budget(monkeypatch):
    # k = 3 at p = 20 000: each lane's distance block and one-hot hold
    # 4 x 20 000 float64, so the default budget runs 8 lanes
    ds = LabeledDataset.from_arrays(np.eye(6, 20_000), [1, 1, 2, 2, 3, 3])
    assert ndc.kmeans._lane_width(FitData.of(ds)) == 8
    # with more rows than features, in the direct form, the k-means
    # centers, (k + 1) x n per lane, are the largest
    tall = LabeledDataset.from_arrays(np.eye(8, 3), [1, 2, 3] * 2 + [1, 2])
    assert not FitData.of(tall).gram
    assert ndc.kmeans._lane_width(FitData.of(tall)) == ndc.kmeans.LANE_BYTES // (8 * 4 * 8)
    # once k * p < n the Gram form holds every lane's arrays at length p
    taller = LabeledDataset.from_arrays(np.eye(4000, 3), [1, 2, 3] * 1333 + [1])
    assert FitData.of(taller).gram
    assert ndc.kmeans._lane_width(FitData.of(taller)) == ndc.kmeans.LANE_BYTES // (8 * 4 * 3)
    # a lane over the budget still runs, alone
    monkeypatch.setattr(ndc.kmeans, "LANE_BYTES", 8 * 4 * 20_000 - 1)
    assert ndc.kmeans._lane_width(FitData.of(ds)) == 1
    monkeypatch.setattr(ndc.kmeans, "LANE_BYTES", 1)
    assert ndc.kmeans._lane_width(FitData.of(ds)) == 1


def test_lane_arrays_stay_within_the_byte_budget(monkeypatch):
    # at p = 20 000 and k = 3 a 9-restart fit runs 8 lanes, then 1; no
    # distance matrix or one-hot of theirs outgrows the budget
    ds = LabeledDataset.from_arrays(np.random.default_rng(42).normal(size=(6, 20_000)),
                                    [1, 1, 2, 2, 3, 3])
    monkeypatch.setattr(ndc.kmeans, "MAX_ITERS", 2)
    sizes = []

    def recorded(fn):
        def wrapper(*args):
            out = fn(*args)
            sizes.append(out.nbytes)
            return out
        return wrapper

    for name in ("sq_distances", "_onehot", "_lane_distances"):
        monkeypatch.setattr(ndc.kmeans, name, recorded(getattr(ndc.kmeans, name)))
    calls = fail_lanes(monkeypatch)
    fit_best(ds, FitConfig(restarts=9, lam=0.9))
    assert calls[:2] == [8, 1]
    assert max(sizes) == 8 * 8 * 4 * 20_000 <= ndc.kmeans.LANE_BYTES


def fail_lanes(monkeypatch, *plan):
    """Make the i-th `_init_lanes` call report the lanes in ``plan[i]`` as
    failed, lanes holding the waiting restarts in ascending order; returns
    every call's lane count."""
    calls = []

    def init_lanes(fd, selection, streams):
        labels, ok = _init_lanes(fd, selection, streams)
        calls.append(len(streams))
        if len(calls) <= len(plan):
            ok[list(plan[len(calls) - 1])] = False
        return labels, ok

    monkeypatch.setattr(ndc.kmeans, "_init_lanes", init_lanes)
    return calls


def fail_first_lane(monkeypatch, times):
    """Make the first ``times`` `_init_lanes` calls report lane 0, the
    earliest waiting restart, as failed; returns every call's lane count."""
    return fail_lanes(monkeypatch, *[[0]] * times)


def test_freed_lanes_go_to_waiting_restarts(monkeypatch):
    # restart 0 fails three times while restarts 1-3 converge at once, so
    # each takes the freed second lane in turn: every round runs
    # min(lane width, waiting restarts) lanes
    ds = block_dataset(np.random.default_rng(38), k=2, n_per_class=10, d=3, sigma2=1.5, r=2)
    config = FitConfig(restarts=4, seed=3)
    assert [attempts for _, attempts, _ in ref_fit_best(ds, config)[0]] == [1, 1, 1, 1]
    set_lane_width(monkeypatch, ds, 2)
    calls = fail_first_lane(monkeypatch, 3)
    assert [restarts for restarts, _ in restart_rounds(ds, config)] == [[1], [2], [3], [0]]
    assert calls == [2, 2, 2, 1]


def test_tied_errors_go_to_the_earliest_restart_across_rounds(monkeypatch):
    # restart 0 retries once, so restart 1 converges a round before it;
    # restart 1 has the lower training error, but with every restart's
    # score tied, restart 0 wins
    ds = random_dataset(np.random.default_rng(39), k=2, p=8, n_per_class=6)
    config = FitConfig(restarts=2, seed=6)
    fail_first_lane(monkeypatch, 1)
    rounds = restart_rounds(ds, config)
    assert [restarts for restarts, _ in rounds] == [[1], [0]]
    first, second = rounds[1][1][0], rounds[0][1][0]
    errors = [training_error(ds, compute_centroids(ds, FeaturePartition(
        tuple(np.flatnonzero(row == j) for j in range(1, ds.k + 1))))) for row in (first, second)]
    assert errors[1] < errors[0]
    monkeypatch.setattr(ndc.kmeans, "_lane_errors", lambda ds, labels: np.zeros(len(labels)))
    fail_first_lane(monkeypatch, 1)
    part, _, _ = fit_best(ds, config)
    assert _groups(part) == [np.flatnonzero(first == j).tolist() for j in range(1, ds.k + 1)]


def test_a_restart_that_repeats_the_winner_still_takes_the_tie(monkeypatch):
    # restarts 0 and 1 retry, so restart 2 converges first; restart 0 then
    # repeats its partition and restart 1 gives another, all three scores
    # tied: restart 0 is the earliest, so its partition wins
    ds = random_dataset(np.random.default_rng(40), k=2, p=8, n_per_class=6)
    config = FitConfig(restarts=3, seed=9)
    fail_lanes(monkeypatch, [0, 1], [1])
    rounds = restart_rounds(ds, config)
    assert [restarts for restarts, _ in rounds] == [[2], [0], [1]]
    (_, (winner,)), (_, (repeat,)), (_, (other,)) = rounds
    assert np.array_equal(repeat, winner) and not np.array_equal(other, winner)
    monkeypatch.setattr(ndc.kmeans, "_lane_errors", lambda ds, labels: np.zeros(len(labels)))
    fail_lanes(monkeypatch, [0, 1], [1])
    part, _, _ = fit_best(ds, config)
    assert _groups(part) == [np.flatnonzero(winner == j).tolist() for j in range(1, ds.k + 1)]


def test_restarts_that_converge_to_one_partition_build_one_model(monkeypatch):
    # every restart converges to the same partition; they are all scored
    # together, and only the winner's model is built
    ds = block_dataset(np.random.default_rng(41), k=2, n_per_class=20, d=5, sigma2=4.0)
    config = FitConfig(restarts=10, seed=1)
    rows = [row.tobytes() for _, labels in restart_rounds(ds, config) for row in labels]
    assert len(rows) == 10 and len(set(rows)) == 1
    built = []
    monkeypatch.setattr(ndc.kmeans, "compute_centroids",
                        lambda ds, part: built.append(part) or compute_centroids(ds, part))
    _, model, err = fit_best(ds, config)
    assert len(built) == 1 and err == training_error(ds, model)


def random_lane_labels(rng, p, k, lanes):
    """``lanes`` random label rows over groups 0..k with every class group
    filled; in about a third of them one class group is a single feature."""
    labels = rng.integers(0, k + 1, size=(lanes, p))
    for row in labels:
        own = rng.choice(p, size=k, replace=False)
        if rng.random() < 1 / 3:
            row[row == rng.integers(1, k + 1)] = 0
        row[own] = np.arange(1, k + 1)
    return labels


@pytest.mark.parametrize("shape", ["sim4", "wide", "oracle", "one class"])
def test_lane_errors_equal_each_models_training_error(shape):
    rng = np.random.default_rng(44)
    if shape == "sim4":
        ds = generate(preset(4, 0.9, 80), rng)
    elif shape == "wide":
        ds = block_dataset(rng, k=3, n_per_class=20, d=10, sigma2=1.5, r=970)
    elif shape == "oracle":
        ds = block_dataset(rng, k=3, n_per_class=20, d=2, r=2)
    else:
        ds = LabeledDataset.from_arrays(rng.normal(size=(7, 5)), [1] * 7)
    labels = random_lane_labels(rng, ds.p, ds.k, 40)
    assert (_group_sizes(labels, ds.k + 1)[:, 1:].min(axis=1) == 1).any()
    for row, err in zip(labels, _lane_errors(ds, labels)):
        assert err == training_error(ds, compute_centroids(ds, _partition(row, ds.k, True)))


def test_one_pass_errors_break_score_ties_like_predict():
    # small integers on four rows per class keep every mean, residual and
    # score exact in any summation order, so tied scores are exact ties
    rng = np.random.default_rng(37)
    for has_special in (False, True):
        ds = LabeledDataset.from_arrays(rng.integers(0, 3, size=(12, 8)).astype(float),
                                        np.repeat([1, 2, 3], 4))
        n_groups = ds.k + has_special
        labels = np.array([rng.permutation(np.arange(ds.p) % n_groups) for _ in range(40)])
        got = _lane_errors(ds, labels + (not has_special))
        for row, err in zip(labels, got):
            part = FeaturePartition(tuple(np.flatnonzero(row == j) for j in range(n_groups)),
                                    has_special=has_special)
            assert err == training_error(ds, compute_centroids(ds, part))


def assert_same_fit(got, want):
    """Two ``(partition, model, error)`` fits are equal bit for bit."""
    (part, model, err), (want_part, want_model, want_err) = got, want
    assert _groups(part) == _groups(want_part) and part.has_special == want_part.has_special
    assert err == want_err and model.lambda_used == want_model.lambda_used
    for a, b in zip(model.centroids, want_model.centroids, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lanes", [1, 2, 3, None])
def test_grid_fit_equals_one_fit_per_config(monkeypatch, lanes):
    # the default multiplier grid, each candidate on its own seed as in
    # tuning; at lam = 0.6 restarts retry after emptied class groups.
    # None keeps the default width, which runs every restart in one round.
    ds = block_dataset(np.random.default_rng(1), k=3, n_per_class=8, d=2, sigma2=1.5, r=6)
    configs = [FitConfig(restarts=5, lam=lam, seed=10 + i)
               for i, lam in enumerate(DEFAULT_LAMBDA_GRID)]
    assert max(attempts for _, attempts, _ in ref_fit_best(ds, configs[0])[0]) > 1
    want = [fit_best(ds, config) for config in configs]
    if lanes is None:
        assert ndc.kmeans._lane_width(FitData.of(ds)) >= 5 * len(configs)
    else:
        set_lane_width(monkeypatch, ds, lanes)
    refine = ndc.kmeans._refine_lanes
    mixes = []
    monkeypatch.setattr(ndc.kmeans, "_refine_lanes", lambda fd, labels, lam: mixes.append(
        (np.isfinite(lam).any(), np.isinf(lam).any())) or refine(fd, labels, lam))
    got = fit_grid(ds, configs)
    assert len(got) == len(configs)
    for fit, wanted in zip(got, want):
        assert_same_fit(fit, wanted)
    if lanes != 1:  # some round refines selection and no-selection lanes together
        assert (True, True) in mixes


def test_grid_fit_skips_selection_with_too_few_features():
    # p = 2 cannot hold k + 1 = 3 groups, so only the lam = inf config fits
    ds = LabeledDataset.from_arrays([[0.0, 5.0], [1.0, 4.0], [5.0, 0.0], [4.0, 1.0]],
                                    [1, 1, 2, 2])
    configs = [FitConfig(restarts=2, lam=0.9, seed=1), FitConfig(restarts=2, seed=2)]
    selection, plain = fit_grid(ds, configs)
    assert selection is None
    assert_same_fit(plain, fit_best(ds, configs[1]))


def test_grid_fit_returns_none_for_an_always_failing_candidate():
    # two distinct feature profiles never fill k + 1 = 3 clusters, so
    # every finite-multiplier restart exhausts its attempts
    ind = np.array([1.0] * 6 + [-1.0] * 6)
    x = np.stack([ind, ind, np.full(12, 0.5), np.full(12, 0.5)], axis=1)
    ds = LabeledDataset.from_arrays(x, [1] * 6 + [2] * 6)
    configs = [FitConfig(restarts=3, lam=0.5, seed=4), FitConfig(restarts=3, seed=5)]
    with pytest.raises(FitFailedError):
        fit_best(ds, configs[0])
    failing, plain = fit_grid(ds, configs)
    assert failing is None
    assert_same_fit(plain, fit_best(ds, configs[1]))


def test_refine_lanes_runs_each_lane_at_its_own_multiplier():
    # selection starts at three multipliers beside lam = inf lanes: one
    # from a no-selection start, one from a start whose group 0 holds a
    # single feature, so that its m_0 lies at distance 0 from it
    rng = np.random.default_rng(43)
    ds = random_dataset(rng, k=3, p=9, n_per_class=6)
    fd = FitData.of(ds)
    streams = [rngmod.generator(43, "lane", r) for r in range(6)]
    selected, ok = _init_lanes(fd, True, streams[:4])
    plain, plain_ok = _init_lanes(fd, False, streams[4:])
    assert ok.all() and plain_ok.all()
    lone = plain[1].copy()
    lone[np.flatnonzero(lone == 1)[0]] = 0
    assert (lone == 1).any()
    labels = np.vstack([selected, plain[0], lone])
    lam = np.array([0.6, 0.9, 1.5, 0.9, math.inf, math.inf])
    out, iterations, emptied = _refine_lanes(fd, labels, lam)
    for i in range(len(labels)):
        alone = _refine_lanes(fd, labels[[i]], lam[[i]])
        assert out[i].tolist() == alone[0][0].tolist(), f"lane {i}"
        assert (iterations[i], emptied[i]) == (alone[1][0], alone[2][0]), f"lane {i}"
    assert not (out[4:] == 0).any()


def test_fit_with_as_many_features_as_classes():
    ds = random_dataset(np.random.default_rng(34), k=3, p=3, n_per_class=6)
    part, model, _ = fit_best(ds, FitConfig(restarts=5, seed=1))
    assert sorted(len(g) for g in part.groups) == [1, 1, 1]
    assert validate_partition(part, ds.p, ds.k) is None


def test_one_row_per_class_fits_with_zero_training_error():
    rng = np.random.default_rng(35)
    for lam in (math.inf, 0.9):
        ds = LabeledDataset.from_arrays(rng.normal(size=(3, 7)), [1, 2, 3])
        part, model, err = fit_best(ds, FitConfig(restarts=5, lam=lam, seed=3))
        assert err == 0.0
        assert validate_partition(part, ds.p, ds.k) is None


def test_constant_and_duplicate_columns_fit():
    rng = np.random.default_rng(36)
    base = block_dataset(rng, k=2, n_per_class=10, d=3, sigma2=2.0, r=2)
    x = np.hstack([base.x, np.full((base.n, 1), 4.0), base.x[:, [0, 0, 5]]])
    ds = LabeledDataset.from_arrays(x, base.labels)
    for lam in (math.inf, 0.9):
        part, model, err = fit_best(ds, FitConfig(restarts=10, lam=lam, seed=5))
        assert validate_partition(part, ds.p, ds.k) is None
        assert 0.0 <= err <= 0.5


def test_all_constant_matrix_fails_after_every_attempt(monkeypatch):
    # every feature is the same point, so k-means never fills both
    # groups; `ndc fit` maps the failure to exit code 3 (tests/test_cli.py)
    ds = LabeledDataset.from_arrays(np.ones((6, 3)), [1, 1, 1, 2, 2, 2])
    seeded = []
    init_lanes = ndc.kmeans._init_lanes
    monkeypatch.setattr(ndc.kmeans, "_init_lanes",
                        lambda fd, selection, streams: seeded.append(len(streams))
                        or init_lanes(fd, selection, streams))
    monkeypatch.setattr(ndc.kmeans, "MAX_ATTEMPTS", 4)
    with pytest.raises(FitFailedError, match="all 3 restarts failed"):
        fit_best(ds, FitConfig(restarts=3))
    assert sum(seeded) == 3 * 4


@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([math.inf, 0.9]))
def test_fit_best_partition_ignores_row_order(seed, lam):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, p=int(rng.integers(4, 9)))
    order = rng.permutation(ds.n)
    shuffled = LabeledDataset.from_arrays(ds.x[order], ds.labels[order], k=ds.k)
    config = FitConfig(restarts=4, lam=lam, seed=seed % 1000)
    try:
        part, _, err = fit_best(ds, config)
    except FitFailedError:
        with pytest.raises(FitFailedError):
            fit_best(shuffled, config)
        return
    got, _, got_err = fit_best(shuffled, config)
    assert _groups(got) == _groups(part) and got_err == err


@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-6, 6),
       lam=st.sampled_from([math.inf, 0.9]))
def test_fit_best_partition_ignores_power_of_two_scaling(seed, power, lam):
    # scaling by 2^power is exact in every sum, product, square root and
    # probability of the fit, so the partition must not move at all
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, p=int(rng.integers(4, 9)))
    scaled = LabeledDataset.from_arrays(ds.x * 2.0 ** power, ds.labels, k=ds.k)
    config = FitConfig(restarts=4, lam=lam, seed=seed % 1000)
    try:
        part, _, err = fit_best(ds, config)
    except FitFailedError:
        with pytest.raises(FitFailedError):
            fit_best(scaled, config)
        return
    got, _, got_err = fit_best(scaled, config)
    assert _groups(got) == _groups(part) and got_err == err


def test_fit_best_names_a_scale_whose_distances_overflow():
    # at 2^520 the k-means++ distances overflow, so no draw is defined; the
    # fit names the scale rather than failing every restart as if its
    # groups emptied.  numpy warns of the overflow as it would in a fit
    ds = random_dataset(np.random.default_rng(8), p=6)
    scaled = LabeledDataset.from_arrays(ds.x * 2.0 ** 520, ds.labels, k=ds.k)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="distances are not finite: the data's scale"):
        fit_best(scaled, FitConfig(restarts=3))


@given(seed=st.integers(0, 2**32 - 1))
def test_lockstep_refine_objective_never_increases_with_special_group(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, k=int(rng.integers(2, 4)), p=int(rng.integers(5, 10)))
    starts = []
    for r in range(4):
        try:
            starts.append(_labels(init_partition(ds, ds.k + 1, rngmod.generator(seed, "obj", r)),
                                  ds.p))
        except EmptyGroupError:
            pass
    if not starts:
        return
    fd = FitData.of(ds)

    def objectives(rows):
        return [clustering_objective(ds, FeaturePartition(
            tuple(np.flatnonzero(row == j) for j in range(ds.k + 1)), has_special=True))
            for row in rows]

    labels = np.array(starts)
    values = objectives(labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ndc.kmeans, "MAX_ITERS", 1)  # one alternation step per call
        for _ in range(30):
            labels, _, emptied = _refine_lanes(fd, labels, np.ones(len(labels)))
            labels, values = labels[~emptied], np.asarray(values)[~emptied]
            if not len(labels):
                break
            new_values = np.array(objectives(labels))
            assert (new_values <= values + 1e-9).all()
            values = new_values


@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]),
       lam=st.sampled_from([math.inf, 0.9]))
def test_fit_steps_permute_with_the_columns(seed, k, lam):
    # small integers keep every center sum exact in any order, so
    # permuting the columns permutes the partition and nothing else;
    # fit_best is not covered, as its k-means++ draws pick features by index
    rng = np.random.default_rng(seed)
    has_special = not math.isinf(lam)
    n_groups = k + has_special
    p = int(rng.integers(n_groups, 12))
    n_per_class = int(rng.integers(2, 6))
    x = rng.integers(-4, 5, size=(k * n_per_class, p)).astype(np.float64)
    labels = np.repeat(np.arange(1, k + 1), n_per_class)
    order = rng.permutation(p)
    ds = LabeledDataset.from_arrays(x, labels)
    permuted = LabeledDataset.from_arrays(x[:, order], labels)
    start = rng.permutation(np.arange(p) % n_groups)

    def partition(row):
        return FeaturePartition(tuple(np.flatnonzero(row == j) for j in range(n_groups)),
                                has_special=has_special)

    part, permuted_part = partition(start), partition(start[order])
    try:
        want, _ = refine_partition(ds, part, lam)
    except EmptyGroupError:
        with pytest.raises(EmptyGroupError):
            refine_partition(permuted, permuted_part, lam)
    else:
        got, _ = refine_partition(permuted, permuted_part, lam)
        assert _labels(got, p).tolist() == _labels(want, p)[order].tolist()
    step = assign_rows(ds, update_centers(ds, part), lam)
    permuted_step = assign_rows(permuted, update_centers(permuted, permuted_part), lam)
    assert _labels(permuted_step, p).tolist() == _labels(step, p)[order].tolist()
