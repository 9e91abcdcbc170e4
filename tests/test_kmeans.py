import math

import numpy as np
import pytest

from conftest import block_dataset, random_dataset
from ndc.classifier import compute_centroids, training_error
from ndc.data import FeaturePartition, LabeledDataset
from ndc.kmeans import (
    ClusterCenters,
    FitConfig,
    FitFailedError,
    RestartsExhaustedError,
    assign_rows,
    clustering_objective,
    fit_best,
    init_partition,
    lloyd_fit,
    refine_partition,
    update_centers,
)
from ndc import rng as rngmod


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
    config = FitConfig(restarts=1)
    refined, iters = refine_partition(toy_ds, toy_partition, config)
    assert iters == 1  # already stable
    assert groups_as_sets(refined) == groups_as_sets(toy_partition)
    assert refined.groups[0].tolist() == [0]
    # the swapped labeling is also a fixed point, with higher risk; the
    # restart selection is what rejects it
    swapped, _ = refine_partition(toy_ds, toy_partition_swapped, config)
    assert swapped.groups[0].tolist() == [1]


def test_lloyd_converges_on_toy(toy_ds):
    part = lloyd_fit(toy_ds, FitConfig(restarts=1), rngmod.generator(21, "run"))
    assert groups_as_sets(part) == {frozenset({0}), frozenset({1})}


def test_symmetric_identity_partition_is_fixed_point():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    ds = LabeledDataset.from_arrays(x, [1, 1, 2, 2])
    part = FeaturePartition((np.array([0]), np.array([1])))
    refined, iters = refine_partition(ds, part, FitConfig(restarts=1))
    assert iters == 1
    assert refined.groups[0].tolist() == [0]
    assert refined.groups[1].tolist() == [1]


def test_max_iters_caps_alternation():
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, k=3, p=8, n_per_class=6)
    start = init_partition(ds, 3, rngmod.generator(22, "run"))
    one_pass = assign_rows(ds, update_centers(ds, start), math.inf)
    capped, iters = refine_partition(ds, start, FitConfig(restarts=1, max_iters=1))
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
    config = FitConfig(restarts=1, seed=77)
    a = lloyd_fit(ds, config, rngmod.generator(config.seed, "restart", 0))
    b = lloyd_fit(ds, config, rngmod.generator(config.seed, "restart", 0))
    for ga, gb in zip(a.groups, b.groups):
        np.testing.assert_array_equal(ga, gb)


def test_fit_best_restarts_one_equals_single_lloyd(toy_ds):
    config = FitConfig(restarts=1, seed=5)
    part, model, err = fit_best(toy_ds, config)
    direct = lloyd_fit(toy_ds, config, rngmod.generator(5, "restart", 0))
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


def test_duplicate_features_exhaust_restarts():
    ds = LabeledDataset.from_arrays([[1.0, 1.0], [2.0, 2.0]], [1, 2])
    with pytest.raises(RestartsExhaustedError) as info:
        lloyd_fit(ds, FitConfig(restarts=1, max_restart_attempts_on_empty=7),
                  rngmod.generator(0, "dup"))
    assert info.value.attempts == 7
    with pytest.raises(FitFailedError):
        fit_best(ds, FitConfig(restarts=3, max_restart_attempts_on_empty=5))


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(restarts=0)
    with pytest.raises(ValueError):
        FitConfig(lam=0.0)
    with pytest.raises(ValueError):
        FitConfig(lam=-1.0)
    with pytest.raises(ValueError):
        FitConfig(max_iters=0)


def test_selection_needs_more_features_than_classes():
    # k + 1 = 3 groups cannot be formed from p = 2 features; the check
    # runs before any restart and names the multiplier, k + 1 and p
    ds = LabeledDataset.from_arrays([[0.0, 5.0], [1.0, 4.0], [5.0, 0.0], [4.0, 1.0]],
                                    [1, 1, 2, 2])
    with pytest.raises(ValueError, match=r"lambda=0\.9 needs k \+ 1 = 3 .* p = 2 features"):
        fit_best(ds, FitConfig(restarts=1, lam=0.9))
    _, model, _ = fit_best(ds, FitConfig(restarts=1))  # no selection: k = p fits
    assert model.selected_feature_count == 2
