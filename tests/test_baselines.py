import math

import numpy as np
import pytest

from conftest import random_dataset
from ndc.baselines import (
    knn_fit,
    knn_predict_many,
    nc_fit,
    nc_predict_many,
    nsc_delta_grid,
    nsc_fit,
    nsc_fit_grid,
    nsc_predict_many,
    nsc_scores_many,
)
from ndc.classifier import NdcModel, predict_many
from ndc.data import FeaturePartition, LabeledDataset


# ---------------------------------------------------------------------------
# Nearest centroid
# ---------------------------------------------------------------------------

def test_nc_toy(toy_ds):
    model = nc_fit(toy_ds)
    assert model.centroids.tolist() == [[0.0, 6.0], [5.0, 6.0]]
    assert nc_predict_many(model, [1.0, 6.0])[0] == 1     # squared distances 1 vs 16
    assert nc_predict_many(model, [5.0, 6.0])[0] == 2     # exactly the class-2 centroid
    assert nc_predict_many(model, [2.5, 6.0])[0] == 1     # equidistant -> class 1


def test_nc_agrees_with_full_feature_dn_model():
    rng = np.random.default_rng(30)
    for _ in range(15):
        ds = random_dataset(rng)
        nc = nc_fit(ds)
        every = np.arange(ds.p)
        part = FeaturePartition(tuple(every for _ in range(ds.k)))
        # all groups share the full feature set, so the dn and Euclidean
        # argmins coincide (equal group sizes cancel)
        model = NdcModel.__new__(NdcModel)
        object.__setattr__(model, "partition", part)
        object.__setattr__(model, "centroids", tuple(nc.centroids))
        object.__setattr__(model, "k", ds.k)
        object.__setattr__(model, "p", ds.p)
        object.__setattr__(model, "lambda_used", None)
        probes = rng.normal(size=(40, ds.p)) * 2
        np.testing.assert_array_equal(nc_predict_many(nc, probes),
                                      predict_many(model, probes))


# ---------------------------------------------------------------------------
# Nearest shrunken centroid
# ---------------------------------------------------------------------------

def _nsc_oracle(x, labels, k, delta):
    """Plain-loop recomputation of the shrunken-centroid quantities."""
    n, p = len(x), len(x[0])
    classes = list(range(1, k + 1))
    counts = {c: sum(1 for y in labels if y == c) for c in classes}
    overall = [sum(x[i][j] for i in range(n)) / n for j in range(p)]
    cmean = {c: [sum(x[i][j] for i in range(n) if labels[i] == c) / counts[c]
                 for j in range(p)] for c in classes}
    s = []
    for j in range(p):
        ss = 0.0
        for c in classes:
            for i in range(n):
                if labels[i] == c:
                    ss += (x[i][j] - cmean[c][j]) ** 2
        s.append(math.sqrt(ss / (n - k)))
    s0 = sorted(s)[len(s) // 2] if len(s) % 2 else 0.5 * (
        sorted(s)[len(s) // 2 - 1] + sorted(s)[len(s) // 2])
    d = {}
    dshr = {}
    for c in classes:
        mk = math.sqrt(1.0 / counts[c] - 1.0 / n)
        for j in range(p):
            val = (cmean[c][j] - overall[j]) / (mk * (s[j] + s0))
            d[c, j] = val
            dshr[c, j] = math.copysign(max(abs(val) - delta, 0.0), val)
    selected = sum(1 for j in range(p) if any(dshr[c, j] != 0.0 for c in classes))
    shrunken = {(c, j): overall[j] + math.sqrt(1.0 / counts[c] - 1.0 / n) * (s[j] + s0) * dshr[c, j]
                for c in classes for j in range(p)}
    return d, dshr, selected, [sj + s0 for sj in s], shrunken


def test_nsc_zero_delta_matches_direct_standardized_scores():
    rng = np.random.default_rng(31)
    ds = random_dataset(rng, k=3, p=6, n_per_class=7)
    model = nsc_fit(ds, 0.0)
    assert model.selected_feature_count == ds.p
    # with no shrinkage the shrunken centroids are the raw class means
    for j, s in enumerate(range(1, ds.k + 1)):
        np.testing.assert_allclose(model.shrunken[j], ds.x[ds.labels == s].mean(axis=0),
                                   rtol=1e-12)
    probes = rng.normal(size=(10, ds.p))
    scores = nsc_scores_many(model, probes)
    class_means = np.stack([ds.x[ds.labels == c].mean(axis=0) for c in range(1, ds.k + 1)])
    direct = np.stack([
        ((probes - class_means[j]) ** 2 / model.scale ** 2).sum(axis=1)
        - 2.0 * np.log(len(ds.labels[ds.labels == j + 1]) / ds.n)
        for j in range(ds.k)], axis=1)
    np.testing.assert_allclose(scores, direct, rtol=1e-12)


def test_nsc_full_shrinkage_predicts_prior_argmax():
    rng = np.random.default_rng(32)
    ds = LabeledDataset.from_arrays(rng.normal(size=(9, 4)), [1, 1, 1, 1, 1, 2, 2, 2, 2])
    delta = float(nsc_delta_grid(ds)[-1])
    model = nsc_fit(ds, delta)
    assert model.selected_feature_count == 0
    np.testing.assert_allclose(model.shrunken[0], model.shrunken[1], rtol=1e-12)
    probes = rng.normal(size=(20, 4))
    assert (nsc_predict_many(model, probes[0])[0] == 1)
    assert (np.unique(model.shrunken, axis=0).shape[0] == 1)
    # equal centroids leave only the prior term; class 1 is the majority
    assert nsc_predict_many(model, probes[1]).tolist() == [1]


def test_nsc_selected_count_matches_scripted_oracle():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(12, 5)) + np.array([0.0, 1.5, 0.0, -2.0, 0.5])
    labels = [1] * 7 + [2] * 5
    x[7:] += 1.0
    ds = LabeledDataset.from_arrays(x, labels)
    for delta in (0.0, 0.3, 0.8, 1.5, 3.0):
        model = nsc_fit(ds, delta)
        _, dshr, expected, scale, shrunken = _nsc_oracle(x.tolist(), labels, 2, delta)
        assert model.selected_feature_count == expected
        assert model.scale.tolist() == pytest.approx(scale, rel=1e-12)
        for c in (1, 2):
            for j in range(5):
                assert model.d_shrunk[c - 1, j] == pytest.approx(dshr[c, j], abs=1e-12)
                assert model.shrunken[c - 1, j] == pytest.approx(shrunken[c, j], rel=1e-12)


def _plain_nsc_fit(ds, delta):
    """nsc_fit computed from freshly gathered class rows, each class's
    within-class sum of squares added in class order."""
    blocks = [ds.x[ds.labels == j] for j in range(1, ds.k + 1)]
    overall = ds.x.mean(axis=0)
    class_means = np.stack([xs.mean(axis=0) for xs in blocks])
    within_ss = np.zeros(ds.p)
    for xs, mean in zip(blocks, class_means):
        within_ss += np.square(xs - mean).sum(axis=0)
    s_i = np.sqrt(within_ss / (ds.n - ds.k))
    scale = s_i + np.median(s_i)
    m_k = np.sqrt(1.0 / np.array([len(xs) for xs in blocks]) - 1.0 / ds.n)
    d = (class_means - overall) / (m_k[:, None] * scale[None, :])
    d_shrunk = np.sign(d) * np.maximum(np.abs(d) - delta, 0.0)
    return class_means, d_shrunk, overall + m_k[:, None] * scale * d_shrunk, scale


def test_nc_and_nsc_fit_match_a_plain_recomputation():
    # the dataset's cached class statistics give exactly the numbers that
    # gathering each class's rows again gives, on a cold cache and a warm one
    rng = np.random.default_rng(36)
    for _ in range(10):
        ds = random_dataset(rng)
        ds = LabeledDataset.from_arrays(ds.x[rng.permutation(ds.n)], ds.labels)
        for delta in (0.0, 0.4, 1.2):
            class_means, d_shrunk, shrunken, scale = _plain_nsc_fit(ds, delta)
            model = nsc_fit(ds, delta)
            np.testing.assert_array_equal(model.d_shrunk, d_shrunk)
            np.testing.assert_array_equal(model.shrunken, shrunken)
            np.testing.assert_array_equal(model.scale, scale)
            np.testing.assert_array_equal(nc_fit(ds).centroids, class_means)


def test_nsc_grid_fit_matches_the_plain_recomputation_per_threshold():
    # one computation of the statistics, shrunk per threshold, gives each
    # threshold's model bit for bit
    rng = np.random.default_rng(37)
    for _ in range(5):
        ds = random_dataset(rng)
        grid = [float(d) for d in nsc_delta_grid(ds, size=7)]
        models = nsc_fit_grid(ds, grid)
        assert [m.delta for m in models] == grid
        for delta, model in zip(grid, models):
            _, d_shrunk, shrunken, scale = _plain_nsc_fit(ds, delta)
            np.testing.assert_array_equal(model.d_shrunk, d_shrunk)
            np.testing.assert_array_equal(model.shrunken, shrunken)
            np.testing.assert_array_equal(model.scale, scale)
    with pytest.raises(ValueError, match=">= 0"):
        nsc_fit_grid(ds, [0.5, -0.1])
    assert nsc_fit_grid(ds, []) == []


def test_nsc_selected_count_monotone_in_delta():
    rng = np.random.default_rng(34)
    for _ in range(5):
        ds = random_dataset(rng, k=2, p=8, n_per_class=10)
        counts = [nsc_fit(ds, float(d)).selected_feature_count
                  for d in nsc_delta_grid(ds)]
        assert all(a >= b for a, b in zip(counts[:-1], counts[1:]))
        assert counts[0] == ds.p


def test_nsc_degenerate_constant_data_rejected():
    ds = LabeledDataset.from_arrays([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
                                    [1, 1, 2, 2])
    with pytest.raises(ValueError, match="degenerate"):
        nsc_fit(ds, 0.5)


def test_nsc_needs_two_classes():
    ds = LabeledDataset.from_arrays([[1.0], [2.0]], [1, 1])
    with pytest.raises(ValueError):
        nsc_fit(ds, 0.0)


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------

def test_knn_examples(toy_ds):
    m1 = knn_fit(toy_ds, m=1)
    assert knn_predict_many(m1, [0.0, 5.0])[0] == 1  # exact training row
    assert knn_predict_many(m1, [6.0, 6.0])[0] == 2

    ds = LabeledDataset.from_arrays([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0]],
                                    [1, 1, 2, 2])
    m3 = knn_fit(ds, m=3)
    assert knn_predict_many(m3, [1.0, 0.0])[0] == 1  # neighbors labeled 1,1,2

    tie_ds = LabeledDataset.from_arrays([[0.0, 0.0], [2.0, 0.0]], [1, 2])
    m2 = knn_fit(tie_ds, m=2)
    assert knn_predict_many(m2, [1.0, 0.0])[0] == 1  # one vote each -> class 1


def test_knn_distance_tie_prefers_earlier_row():
    ds = LabeledDataset.from_arrays([[1.0, 0.0], [-1.0, 0.0], [3.0, 0.0]], [2, 1, 2])
    model = knn_fit(ds, m=1)
    # the probe is equidistant from rows 0 and 1; row 0 wins
    assert knn_predict_many(model, [0.0, 0.0])[0] == 2


def test_knn_m1_zero_training_error_on_distinct_rows():
    rng = np.random.default_rng(35)
    ds = random_dataset(rng, k=3, p=4, n_per_class=8)
    model = knn_fit(ds, m=1)
    np.testing.assert_array_equal(knn_predict_many(model, ds.x), ds.labels)


def test_knn_bounds():
    ds = LabeledDataset.from_arrays([[0.0, 0.0], [1.0, 0.0]], [1, 2])
    with pytest.raises(ValueError):
        knn_fit(ds, m=0)
    with pytest.raises(ValueError):
        knn_fit(ds, m=3)


@pytest.mark.parametrize("fit_predict", [
    lambda ds: (nc_fit(ds), nc_predict_many),
    lambda ds: (nsc_fit(ds, 0.5), nsc_scores_many),
    lambda ds: (knn_fit(ds, m=3), knn_predict_many),
])
def test_baselines_reject_non_finite_row(fit_predict):
    rng = np.random.default_rng(36)
    ds = random_dataset(rng, k=2, p=3, n_per_class=5)
    model, predict_rows = fit_predict(ds)
    x = rng.normal(size=(4, 3))
    x[1, 2] = np.inf
    x[3, 0] = np.nan
    with pytest.raises(ValueError, match=r"\brow 2\b"):
        predict_rows(model, x)
    with pytest.raises(ValueError, match="expected 3 features"):
        predict_rows(model, x[:, :2])


def _scaled_pair(rng):
    """A two-class training set and ten test rows from the same classes."""
    labels = np.repeat([1, 2], 5)
    shift = 2.0 * np.eye(2, 4)[labels - 1]
    return rng.normal(size=(10, 4)) + shift, labels, rng.normal(size=(10, 4)) + shift


_FIT_PREDICT = {
    "nc": lambda ds: (nc_fit(ds), nc_predict_many),
    "nsc": lambda ds: (nsc_fit(ds, 0.5), nsc_predict_many),
    "knn": lambda ds: (knn_fit(ds, m=3), knn_predict_many),
}


@pytest.mark.parametrize("name", sorted(_FIT_PREDICT))
@pytest.mark.parametrize("e", [-400, 400])
def test_baselines_keep_their_labels_under_a_finite_power_of_two_scaling(name, e):
    x, labels, test = _scaled_pair(np.random.default_rng(37))
    fit_predict = _FIT_PREDICT[name]
    model, predict = fit_predict(LabeledDataset.from_arrays(x, labels))
    scaled, predict = fit_predict(LabeledDataset.from_arrays(x * 2.0 ** e, labels))
    assert predict(scaled, test * 2.0 ** e).tolist() == predict(model, test).tolist()


@pytest.mark.parametrize("name,message", [
    ("nc", "row 3: no class score is finite"),
    ("nsc", "row 3: no class score is finite"),
    ("knn", "row 3: no finite distance to 3 training rows"),
])
def test_baselines_refuse_rows_whose_squared_distances_overflow(name, message):
    # a tie-broken label at 2^520 would be a guess: each used to label
    # every row of a scaled test set class 1, or misorder the neighbors
    x, labels, test = _scaled_pair(np.random.default_rng(37))
    fit_predict = _FIT_PREDICT[name]
    model, predict = fit_predict(LabeledDataset.from_arrays(x, labels))
    one_scaled = test.copy()
    one_scaled[2] *= 2.0 ** 520
    with pytest.raises(ValueError, match=message):
        predict(model, one_scaled)
    scaled = LabeledDataset.from_arrays(x * 2.0 ** 520, labels)
    if name == "nsc":  # the within-class sums of squares overflow
        with pytest.raises(ValueError, match="pooled within-class sd is not finite"):
            fit_predict(scaled)
    else:
        model, predict = fit_predict(scaled)
        with pytest.raises(ValueError, match=message.replace("row 3", "row 1")):
            predict(model, test * 2.0 ** 520)
