import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_dataset, random_dataset
from ndc import oracle
from ndc import rng as rngmod
from ndc.classifier import NdcModel, compute_centroids, empirical_risk
from ndc.data import FeaturePartition, LabeledDataset
from ndc.kmeans import FitConfig, fit_best
from ndc.oracle import (
    BlockDistributionSpec,
    block_spec,
    brute_force_minimizer,
    check_diagonal_optimality,
    consistency_experiment,
    iter_assignments,
    optimal_population_risk,
    population_risk,
    sample_dataset,
)


def ref_empirical_risks(ds):
    """Every assignment with its empirical risk, in lexicographic order,
    by the per-assignment loop the vectorized enumeration replaced: one
    partition and one centroid fit per assignment."""
    out = []
    for assignment in iter_assignments(ds.p, ds.k):
        a = np.asarray(assignment)
        part = FeaturePartition(tuple(np.flatnonzero(a == j) for j in range(ds.k)))
        out.append((part, empirical_risk(ds, compute_centroids(ds, part))))
    return out


def ref_brute_force_minimizer(ds):
    best_part, best_risk = None, np.inf
    for part, risk in ref_empirical_risks(ds):
        if risk < best_risk:
            best_part, best_risk = part, risk
    return best_part, float(best_risk)


def groups(part):
    return [g.tolist() for g in part.groups]


def tie_dataset(rng, p):
    """Two classes of four integer rows in +/- pairs around an integer
    centre, so class means and sums of squares are integers and every
    risk is exact.  Column 1 repeats column 0, which is constant within
    each class, so swapping the two columns' classes ties."""
    rows = []
    for _ in range(2):
        centre = rng.integers(-3, 4, size=p)
        spread = rng.integers(-2, 3, size=(2, p))
        spread[:, 0] = 0
        rows += [centre + spread[0], centre - spread[0], centre + spread[1], centre - spread[1]]
    x = np.array(rows, dtype=np.float64)
    x[:, 1] = x[:, 0]
    return LabeledDataset.from_arrays(x, np.repeat([1, 2], 4))


def test_brute_force_toy(toy_ds):
    part, w_star = brute_force_minimizer(toy_ds)
    assert [g.tolist() for g in part.groups] == [[0], [1]]
    assert w_star == 0.0


def test_brute_force_p_equals_k_minimality(toy_ds):
    # only two valid assignments exist; the oracle must not exceed either
    part, w_star = brute_force_minimizer(toy_ds)
    for groups in ([(0,), (1,)], [(1,), (0,)]):
        cand = FeaturePartition(tuple(np.array(g) for g in groups))
        assert w_star <= empirical_risk(toy_ds, compute_centroids(toy_ds, cand))


def test_brute_force_never_beaten_by_heuristic():
    rng = np.random.default_rng(40)
    for trial in range(10):
        ds = random_dataset(rng, k=2, p=4, n_per_class=6)
        _, w_star = brute_force_minimizer(ds)
        _, model, _ = fit_best(ds, FitConfig(restarts=20, seed=trial))
        assert empirical_risk(ds, model) >= w_star


@pytest.mark.parametrize("chunk", [oracle.ASSIGNMENT_CHUNK, 7])
def test_brute_force_matches_per_assignment_loop(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "ASSIGNMENT_CHUNK", chunk)
    rng = np.random.default_rng(43)
    for trial in range(16):
        k = 2 + trial % 2
        ds = random_dataset(rng, k=k, p=int(rng.integers(k, 9 if k == 2 else 7)))
        part, w_star = brute_force_minimizer(ds)
        want_part, want_w = ref_brute_force_minimizer(ds)
        assert groups(part) == groups(want_part)
        assert w_star == want_w


def test_brute_force_matches_a_plain_recomputation():
    # the within-class sums of squares and the winner's risk, computed from
    # freshly gathered class rows, give exactly the cached path's answer
    rng = np.random.default_rng(12)
    for _ in range(10):
        ds = random_dataset(rng, p=int(rng.integers(3, 7)))
        blocks = [ds.x[ds.labels == j] for j in range(1, ds.k + 1)]
        wss = np.stack([np.square(xs - xs.mean(axis=0)).sum(axis=0) for xs in blocks])
        want = oracle._first_minimum(oracle._scored_assignments(wss / ds.n), ds.k)
        total = 0.0
        for xs, g in zip(blocks, want.groups):
            cols = xs.take(g, axis=1)
            total += np.square(cols - cols.mean(axis=0)).mean(axis=1).sum()
        part, risk = brute_force_minimizer(ds)
        assert groups(part) == groups(want) and risk == float(total) / ds.n


@pytest.mark.parametrize("chunk", [oracle.ASSIGNMENT_CHUNK, 7])
def test_brute_force_tie_keeps_lexicographically_smallest(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "ASSIGNMENT_CHUNK", chunk)
    rng = np.random.default_rng(44)
    with_ties = 0
    for _ in range(20):
        ds = tie_dataset(rng, p=5)
        risks = ref_empirical_risks(ds)
        least = min(r for _, r in risks)
        tied = [part for part, r in risks if r == least]
        with_ties += len(tied) > 1
        part, w_star = brute_force_minimizer(ds)
        assert groups(part) == groups(tied[0])
        assert w_star == least
    assert with_ties >= 10


def test_enumeration_guard():
    rng = np.random.default_rng(41)
    ds = LabeledDataset.from_arrays(rng.normal(size=(3, 15)), [1, 2, 3])
    with pytest.raises(ValueError, match="enumeration guard"):
        brute_force_minimizer(ds)


@pytest.mark.parametrize("p, k, refused", [
    (23, 2, False), (24, 2, True), (7, 10, False), (8, 10, True),
    (10**18, 2, True), (1, 10**9, True), (10**18, 1, False), (0, 2, False),
])
def test_enumeration_guard_is_exact_at_its_boundary(p, k, refused):
    # 10**7 equals the guard and passes; 2**10**18 is refused without
    # forming it
    if refused:
        with pytest.raises(ValueError, match="enumeration guard"):
            oracle._check_enumeration_size(p, k)
    else:
        oracle._check_enumeration_size(p, k)


def test_iter_assignments_counts():
    # assignments of 4 features to 2 non-empty groups: 2^4 - 2 = 14
    assert sum(1 for _ in iter_assignments(4, 2)) == 14
    assert sum(1 for _ in iter_assignments(3, 3)) == 6  # 3! bijections


def test_population_risk_true_means_is_mean_variance():
    spec = BlockDistributionSpec(
        class_probs=[0.25, 0.75],
        means=[[1.0, 2.0, 3.0], [0.0, -1.0, 4.0]],
        sds=[[1.0, 2.0, 0.5], [0.3, 0.1, 2.0]])
    part = FeaturePartition((np.array([0, 2]), np.array([1])))
    model = NdcModel(part, (np.array([1.0, 3.0]), np.array([-1.0])), k=2, p=3)
    expected = 0.25 * (1.0 + 0.25) / 2 + 0.75 * 0.01
    assert population_risk(model, spec) == pytest.approx(expected, rel=1e-15)


def test_population_risk_block_design_diagonal():
    spec = block_spec(k=2, d=2, sigma1=1.0, sigma2=2.0)
    part = FeaturePartition((np.array([0, 1]), np.array([2, 3])))
    model = NdcModel(part, (np.zeros(2), np.zeros(2)), k=2, p=4)
    assert population_risk(model, spec) == pytest.approx(1.0, rel=1e-15)


def test_population_risk_single_coordinate_offset():
    spec = block_spec(k=2, d=2, sigma1=1.0, sigma2=2.0)
    part = FeaturePartition((np.array([0, 1]), np.array([2, 3])))
    base = NdcModel(part, (np.zeros(2), np.zeros(2)), k=2, p=4)
    delta = 0.7
    off = NdcModel(part, (np.array([delta, 0.0]), np.zeros(2)), k=2, p=4)
    increase = population_risk(off, spec) - population_risk(base, spec)
    assert increase == pytest.approx(0.5 * delta ** 2 / 2, rel=1e-12)


def _independent_block_enumeration(sigma1, sigma2, k=2, d=2):
    """Long-hand enumeration of all non-empty assignments for the
    successive-block design, with true-mean centroids."""
    p = k * d
    risks = {}
    for assignment in itertools.product(range(k), repeat=p):
        if len(set(assignment)) < k:
            continue
        total = 0.0
        for j in range(k):
            group = [i for i in range(p) if assignment[i] == j]
            variances = []
            for i in group:
                in_own_block = j * d <= i < (j + 1) * d
                variances.append(sigma1 ** 2 if in_own_block else sigma2 ** 2)
            total += (1.0 / k) * sum(variances) / len(variances)
        risks[assignment] = total
    return risks


def test_check_diagonal_optimality_matches_independent_enumeration():
    risks = _independent_block_enumeration(1.0, 2.0)
    assert len(risks) == 14
    diagonal = (0, 0, 1, 1)
    assert risks[diagonal] == pytest.approx(1.0)
    assert all(r > risks[diagonal] for a, r in risks.items() if a != diagonal)

    spec = block_spec(k=2, d=2, sigma1=1.0, sigma2=2.0)
    report = check_diagonal_optimality(spec, d=2)
    assert report.passed
    assert report.diagonal_risk == pytest.approx(1.0)
    assert report.n_strictly_better == 0 and report.n_tied == 0
    part, w_star = optimal_population_risk(spec)
    assert w_star == pytest.approx(min(risks.values()))
    assert [g.tolist() for g in part.groups] == [[0, 1], [2, 3]]


@pytest.mark.parametrize("chunk", [oracle.ASSIGNMENT_CHUNK, 7])
@pytest.mark.parametrize("sigma1, sigma2, k, d", [
    (1.0, 2.0, 2, 2), (1.5, 1.5, 2, 2), (2.0, 1.0, 2, 2),
    (0.6, 0.9, 3, 2), (1.5, 1.5, 3, 2), (1.3, 0.4, 2, 3)])
def test_population_oracles_match_independent_enumeration(monkeypatch, chunk,
                                                          sigma1, sigma2, k, d):
    monkeypatch.setattr(oracle, "ASSIGNMENT_CHUNK", chunk)
    risks = _independent_block_enumeration(sigma1, sigma2, k=k, d=d)
    least = min(risks.values())
    tol = 1e-12 * max(1.0, least)
    first = next(a for a, r in risks.items() if r <= least + tol)
    spec = block_spec(k, d, sigma1, sigma2)
    part, w_star = optimal_population_risk(spec)
    assert w_star == pytest.approx(least, rel=1e-12)
    assert groups(part) == [[i for i, j in enumerate(first) if j == c] for c in range(k)]

    diagonal = tuple(j for j in range(k) for _ in range(d))
    diag_risk = risks[diagonal]
    tol = 1e-12 * max(1.0, diag_risk)
    others = [r for a, r in risks.items() if a != diagonal]
    report = check_diagonal_optimality(spec, d=d)
    assert report.diagonal_risk == pytest.approx(diag_risk, rel=1e-12)
    assert report.best_risk == pytest.approx(least, rel=1e-12)
    assert report.n_strictly_better == sum(r < diag_risk - tol for r in others)
    assert report.n_tied == sum(abs(r - diag_risk) <= tol for r in others)
    assert report.passed == (report.n_strictly_better == 0 and report.n_tied == 0)


def test_check_diagonal_optimality_equal_variances_tie():
    spec = block_spec(k=2, d=2, sigma1=1.5, sigma2=1.5)
    report = check_diagonal_optimality(spec, d=2)
    assert not report.passed
    assert report.n_tied == 13  # every other assignment ties
    assert "equal block variances" in report.reason


def test_check_diagonal_optimality_inverted_variances():
    spec = block_spec(k=2, d=2, sigma1=2.0, sigma2=1.0)
    report = check_diagonal_optimality(spec, d=2)
    assert not report.passed
    assert report.n_strictly_better > 0
    assert "inverted" in report.reason
    assert report.best_risk < report.diagonal_risk


def test_check_diagonal_optimality_structure_mismatch():
    spec = block_spec(k=2, d=2, sigma1=1.0, sigma2=2.0)
    bad_sds = spec.sds.copy()
    bad_sds[0, 0] = 3.0
    broken = BlockDistributionSpec(spec.class_probs, spec.means, bad_sds)
    with pytest.raises(ValueError, match="identically distributed"):
        check_diagonal_optimality(broken, d=2)
    with pytest.raises(ValueError, match="k\\*d"):
        check_diagonal_optimality(spec, d=3)


def test_check_diagonal_optimality_random_pairs_small():
    rng = np.random.default_rng(42)
    for _ in range(5):
        s1 = rng.uniform(0.2, 1.5)
        s2 = s1 + rng.uniform(0.05, 2.0)
        assert check_diagonal_optimality(block_spec(2, 2, s1, s2), d=2).passed
        assert check_diagonal_optimality(block_spec(3, 2, s1, s2), d=2).passed


def test_sample_dataset_distribution():
    spec = block_spec(k=2, d=2, sigma1=1.0, sigma2=2.0, mu1=5.0)
    ds = sample_dataset(spec, 4000, rngmod.generator(1, "draw"))
    assert ds.k == 2 and ds.p == 4
    class1 = ds.x[ds.labels == 1]
    assert abs(class1[:, 0].mean() - 5.0) < 0.15
    assert abs(class1[:, 2].std(ddof=1) - 2.0) < 0.15


def test_consistency_exact_fitter_gap_shrinks():
    # the brute-force empirical minimizer's population risk approaches
    # the optimum as n grows (trend over the grid, not per step)
    spec = block_spec(k=2, d=2, sigma1=1.0, sigma2=2.0)
    res = consistency_experiment(spec, [30, 400], reps=4, seed=77, fitter="exact")
    assert res.mean_gap(400) < res.mean_gap(30)
    assert all(row.gap >= 0 for row in res.rows)


def test_consistency_rejects_unknown_fitter():
    spec = block_spec(k=2, d=2, sigma1=1.0, sigma2=2.0)
    with pytest.raises(ValueError, match="fitter"):
        consistency_experiment(spec, [20], reps=1, seed=0, fitter="magic")


def test_consistency_experiment_small_deterministic():
    spec = block_spec(k=2, d=2, sigma1=1.0, sigma2=2.0)
    a = consistency_experiment(spec, [40], reps=1, seed=9, fit_restarts=5)
    b = consistency_experiment(spec, [40], reps=1, seed=9, fit_restarts=5)
    assert a.rows == b.rows
    assert a.w_star == pytest.approx(1.0)
    assert all(row.gap >= 0 for row in a.rows)
    lines = a.tsv_lines()
    assert lines[0].split("\t") == ["n", "rep", "fitted_population_risk", "W_star", "gap"]
    assert len(lines) == 2
    assert "np.float64" not in lines[1]  # plain decimal text, not scalar reprs


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]), blocks=st.booleans())
def test_exact_partition_permutes_with_features(seed, k, blocks):
    # continuous data, unstructured or with each class's own block of
    # columns beside noise columns: no two assignments tie
    rng = np.random.default_rng(seed)
    if blocks:
        d = int(rng.integers(1, 7 // k + 1))
        ds = block_dataset(rng, k=k, n_per_class=int(rng.integers(2, 12)), d=d,
                           r=int(rng.integers(0, 7 - k * d + 1)))
    else:
        ds = random_dataset(rng, k=k, p=int(rng.integers(k, 9 if k == 2 else 7)))
    order = rng.permutation(ds.p)
    permuted = LabeledDataset.from_arrays(ds.x[:, order], ds.labels)
    part, w_star = brute_force_minimizer(ds)
    part_p, w_star_p = brute_force_minimizer(permuted)
    assert [sorted(order[g].tolist()) for g in part_p.groups] == groups(part)
    assert w_star_p == pytest.approx(w_star, rel=1e-12)


@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]),
       scale=st.floats(1e-3, 1e3))
def test_exact_partition_ignores_common_scaling(seed, k, scale):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, k=k, p=int(rng.integers(k, 9 if k == 2 else 7)))
    scaled = LabeledDataset.from_arrays(scale * ds.x, ds.labels)
    part, w_star = brute_force_minimizer(ds)
    part_s, w_star_s = brute_force_minimizer(scaled)
    assert groups(part_s) == groups(part)
    assert w_star_s == pytest.approx(scale ** 2 * w_star, rel=1e-12)
