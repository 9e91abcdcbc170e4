"""The Gram-form distance kernels against the broadcast forms they replaced.

The reference functions below are the earlier implementations, kept as
they were: each builds the full difference array and sums its squares.
The Gram form sums in another order, so distances are compared with a
relative tolerance fixed from float64 rounding, and labels exactly.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_dataset, random_dataset
from ndc import rng as rngmod
from ndc.baselines import knn_fit, knn_predict_many
from ndc.classifier import compute_centroids, predict_many
from ndc.data import FeaturePartition, LabeledDataset
from ndc.kmeans import (
    ClusterCenters,
    FitData,
    _dn_distances,
    _lane_centers,
    _lane_distances,
    _lloyd_lanes,
    _seed_lanes,
    assign_rows,
    init_partition,
    update_centers,
)


def ref_knn_predict_many(model, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d2 = np.square(x[:, None, :] - model.x[None, :, :]).sum(axis=2)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :model.m]
    votes = model.labels[neighbors]
    out = np.empty(x.shape[0], dtype=np.int64)
    for r in range(x.shape[0]):
        counts = np.bincount(votes[r], minlength=model.k + 1)
        out[r] = counts[1:].argmax() + 1
    return out


def ref_kmeans_rows(points, n_clusters, rng, max_iters=100):
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.square(points - centers[0]).sum(axis=1)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.square(points - centers[j]).sum(axis=1))
    labels = None
    for _ in range(max_iters):
        dist = np.square(points[:, None, :] - centers[None, :, :]).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(n_clusters):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels


def ref_dn_distances(ds, centers, lam):
    class_rows = [np.flatnonzero(ds.labels == j) for j in range(1, ds.k + 1)]
    dist = np.full((ds.p, len(centers.centers)), np.inf)
    offset = 1 if centers.has_special else 0
    if centers.has_special:
        m0 = centers.centers[0]
        if m0 is not None and not math.isinf(lam):
            dist[:, 0] = lam * np.sqrt(np.square(ds.x - m0[:, None]).mean(axis=0))
    for j, s in enumerate(class_rows):
        m = centers.centers[j + offset]
        dist[:, j + offset] = np.sqrt(np.square(ds.x[s, :] - m[:, None]).mean(axis=0))
    return dist


def test_knn_matches_cube_form():
    rng = np.random.default_rng(101)
    for _ in range(10):
        train = random_dataset(rng, k=3, p=int(rng.integers(2, 12)), n_per_class=20)
        x = rng.normal(size=(50, train.p)) + train.x.mean(axis=0)
        for m in (1, 4, 15):
            model = knn_fit(train, m=m)
            np.testing.assert_array_equal(knn_predict_many(model, x),
                                          ref_knn_predict_many(model, x))


def test_knn_duplicated_training_rows_go_to_earlier_row():
    rng = np.random.default_rng(102)
    for _ in range(10):
        base = rng.normal(size=(12, 6)) * 3.0
        # every row appears twice, the copies carrying the other label
        x = np.vstack([base, base])
        labels = np.concatenate([np.repeat([1, 2], 6), np.repeat([2, 1], 6)])
        model = knn_fit(LabeledDataset.from_arrays(x, labels), m=1)
        probes = np.vstack([base, base + 0.01 * rng.normal(size=base.shape)])
        got = knn_predict_many(model, probes)
        np.testing.assert_array_equal(got, ref_knn_predict_many(model, probes))
        # a probe equal to a row finds the earlier copy first
        np.testing.assert_array_equal(got[:12], labels[:12])


def test_knn_ties_at_the_mth_distance_match_stable_sort():
    # small-integer rows: many training rows share the m-th smallest
    # distance, and only the earliest of them may vote
    rng = np.random.default_rng(105)
    for _ in range(10):
        x = rng.integers(0, 3, size=(90, 3)).astype(np.float64)
        labels = np.tile([1, 2, 3], 30)
        probes = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
        for m in (1, 2, 7, 16, 90):
            model = knn_fit(LabeledDataset.from_arrays(x, labels), m=m)
            np.testing.assert_array_equal(knn_predict_many(model, probes),
                                          ref_knn_predict_many(model, probes))


def test_kmeans_lanes_match_reference():
    rng = np.random.default_rng(103)
    for trial in range(12):
        ds = block_dataset(rng, k=3, n_per_class=int(rng.integers(5, 40)),
                           d=int(rng.integers(2, 6)), sigma2=1.8, r=int(rng.integers(0, 8)))
        points = np.ascontiguousarray(ds.x.T)
        n_clusters = int(rng.integers(1, min(6, len(points)) + 1))
        want = ref_kmeans_rows(points, n_clusters, rngmod.generator(trial, "km"))
        for fd in (FitData.of(ds), FitData.direct(ds)):
            seeds = _seed_lanes(fd, n_clusters, [rngmod.generator(trial, "km")])
            got = _lloyd_lanes(fd, seeds)[0]
            np.testing.assert_array_equal(got, want)


def test_kmeans_lanes_keep_an_emptied_center():
    # five equal columns: k-means++ draws a duplicate seed once no
    # distance is left, and its cluster empties at the first assignment
    rng = np.random.default_rng(5)
    col = rng.normal(size=(40, 1))
    ds = LabeledDataset.from_arrays(np.hstack([col] * 5 + [rng.normal(size=(40, 1)), col + 3.0]),
                                    np.arange(40) % 2 + 1)
    points = np.ascontiguousarray(ds.x.T)
    for fd in (FitData.of(ds), FitData.direct(ds)):
        for trial in range(10):
            seeds = _seed_lanes(fd, 4, [rngmod.generator(trial, "empty")])
            assert len(np.unique(points[seeds[0]], axis=0)) < 4
            np.testing.assert_array_equal(_lloyd_lanes(fd, seeds)[0],
                                          ref_kmeans_rows(points, 4, rngmod.generator(trial, "empty")))


def test_assign_distances_match_reference():
    rng = np.random.default_rng(104)
    for trial in range(20):
        ds = random_dataset(rng, k=int(rng.integers(2, 4)), p=int(rng.integers(6, 15)))
        n_groups = ds.k + int(rng.integers(2))
        part = init_partition(ds, n_groups, rngmod.generator(trial, "assign"))
        centers = update_centers(ds, part)
        for lam in (0.7, 1.3, math.inf):
            got = _dn_distances(ds, centers, lam)
            want = ref_dn_distances(ds, centers, lam)
            np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            got, want = got[finite], want[finite]
            # The Gram form holds a squared dn-distance only to about
            # n * eps * (mean square of the column + of the center), at
            # most 2 max x^2 (times lam^2 in the special column), so a
            # feature alone in its group sits near 1e-8 instead of at 0.
            # Distances clear of that floor agree to 1e-12 relative.
            lam_sq = 1.0 if math.isinf(lam) else max(lam, 1.0) ** 2
            floor = 4 * ds.n * np.finfo(float).eps * 2 * (ds.x ** 2).max() * lam_sq
            np.testing.assert_allclose(got ** 2, want ** 2, rtol=1e-12, atol=floor)
            clear = want > 0.1
            assert clear.mean() > 0.5
            np.testing.assert_allclose(got[clear], want[clear], rtol=1e-12, atol=0)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]))
def test_gram_form_distances_match_the_direct_form(seed, k):
    # tall data (k * p < n): the Gram form's k-means and alternation
    # distances against the direct form's, with the floor and tolerance
    # of test_assign_distances_match_reference
    rng = np.random.default_rng(seed)
    p = int(rng.integers(k + 1, 12))
    ds = random_dataset(rng, k=k, p=p, n_per_class=int(rng.integers(p + 1, 4 * p)))
    gram, direct = FitData.of(ds), FitData.direct(ds)
    assert gram.gram and not direct.gram
    floor = 4 * ds.n * np.finfo(float).eps * 2 * (ds.x ** 2).max()

    def assert_close(got, want, lam_sq=1.0):
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        got, want = got[np.isfinite(want)], want[np.isfinite(want)]
        np.testing.assert_allclose(got ** 2, want ** 2, rtol=1e-12, atol=floor * lam_sq)
        clear = want ** 2 > 1e3 * floor * lam_sq
        assert clear.mean() > 0.5
        np.testing.assert_allclose(got[clear], want[clear], rtol=1e-12, atol=0)

    # k-means: every group's mean, and a lone feature, over all rows
    labels = rng.permutation(np.arange(p) % (k + 1))
    onehot = (labels == np.arange(k + 1)[:, None]).astype(float)
    onehot = np.vstack([onehot, np.eye(p)[[int(rng.integers(p))]]])
    sizes = onehot.sum(axis=1)
    d2 = []
    for fd in (gram, direct):
        centers = onehot @ fd.points / sizes[:, None]
        d2.append(fd.sq_distances_to(0, centers, fd.center_sq(centers, onehot, sizes)))
    assert_close(np.sqrt(d2[0]), np.sqrt(d2[1]))
    # the alternation: lanes with and without a special group, at three
    # multipliers and none
    lanes = np.array([rng.permutation(np.arange(p) % (k + 1)) for _ in range(3)]
                     + [rng.permutation(np.arange(p) % k) + 1])
    lam = np.array([0.7, 1.3, 1.0, math.inf])
    got, want = (_lane_distances(fd, *_lane_centers(fd, lanes), lam) for fd in (gram, direct))
    for group in range(k + 1):
        assert_close(got[group], want[group], 1.3 ** 2 if group == 0 else 1.0)


def test_wide_data_keeps_the_direct_form():
    # wide-cv's shape: k = 3 and 1000 features on 40 training rows, 27 in
    # a nested fold; the direct form holds the data as it is
    rng = np.random.default_rng(105)
    for n in (27, 40):
        ds = LabeledDataset.from_arrays(rng.normal(size=(n, 1000)), np.arange(n) % 3 + 1)
        fd = FitData.of(ds)
        assert not fd.gram
        np.testing.assert_array_equal(fd.points, ds.x.T)
        for xs, block in zip(fd.class_x, ds.class_x):
            assert xs is block
    # the Gram form starts at k * p < n
    for n, gram in ((10, False), (11, True)):
        ds = LabeledDataset.from_arrays(rng.normal(size=(n, 5)), np.arange(n) % 2 + 1)
        assert FitData.of(ds).gram == gram


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9))
def test_predictions_follow_permuted_test_rows(seed, m):
    rng = np.random.default_rng(seed)
    train = random_dataset(rng, k=3, n_per_class=6)
    x = rng.normal(size=(25, train.p)) + train.x.mean(axis=0)
    order = rng.permutation(len(x))
    knn = knn_fit(train, m=m)
    np.testing.assert_array_equal(knn_predict_many(knn, x[order]),
                                  knn_predict_many(knn, x)[order])
    part = FeaturePartition(tuple(np.arange(train.p)[np.arange(train.p) % 3 == j]
                                  for j in range(3)))
    model = compute_centroids(train, part)
    np.testing.assert_array_equal(predict_many(model, x[order]),
                                  predict_many(model, x)[order])


@given(seed=st.integers(0, 2**32 - 1))
def test_infinite_lambda_is_no_selection(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, k=2, p=int(rng.integers(4, 10)))
    part = init_partition(ds, ds.k + 1, rngmod.generator(seed, "lam-inf"))
    with_special = update_centers(ds, part)
    without = ClusterCenters(with_special.centers[1:], has_special=False)
    selected = assign_rows(ds, with_special, math.inf)
    plain = assign_rows(ds, without, math.inf)
    assert len(selected.special) == 0
    for a, b in zip(selected.class_groups, plain.groups):
        np.testing.assert_array_equal(a, b)
