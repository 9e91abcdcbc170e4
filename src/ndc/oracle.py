"""Ground-truth machinery for the partition optimizer.

Everything here sidesteps the Lloyd heuristic: the empirical-risk
minimizer is found by enumerating every assignment of features to
classes (feasible for small p), and population risks for independent
Gaussian coordinates are evaluated in closed form.  These exact answers
back the optimizer's correctness tests and the large-sample
consistency experiment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .classifier import NdcModel, compute_centroids, empirical_risk
from .data import FeaturePartition, LabeledDataset
from .kmeans import FitConfig, fit_best

ENUMERATION_GUARD = 10_000_000
# candidate assignments scored per block; bounds the enumeration's memory
ASSIGNMENT_CHUNK = 1 << 9


@dataclass(frozen=True)
class BlockDistributionSpec:
    """Class-conditional laws with independent Gaussian coordinates.

    ``means[j - 1, i]`` and ``sds[j - 1, i]`` give feature i's law under
    class j; ``class_probs`` are the label probabilities.
    """

    class_probs: np.ndarray
    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.class_probs, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        sds = np.asarray(self.sds, dtype=np.float64)
        if probs.ndim != 1 or means.ndim != 2 or sds.shape != means.shape:
            raise ValueError("need 1-d class_probs and matching k x p means/sds")
        if means.shape[0] != probs.shape[0]:
            raise ValueError("one row of means/sds per class")
        if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("class probabilities must be positive and sum to 1")
        if not (np.isfinite(means).all() and np.isfinite(sds).all()):
            raise ValueError("means and standard deviations must be finite")
        if np.any(sds < 0):
            raise ValueError("standard deviations must be non-negative")
        object.__setattr__(self, "class_probs", probs)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)

    @property
    def k(self) -> int:
        return self.class_probs.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]


def block_spec(k: int, d: int, sigma1: float, sigma2: float,
               mu1: float = 0.0, mu2: float = 0.0) -> BlockDistributionSpec:
    """Spec with k equally likely classes and k successive feature blocks
    of width d: a class's own block has sd ``sigma1`` and mean ``mu1``,
    everything else ``sigma2`` and ``mu2``."""
    if k < 1 or d < 1:
        raise ValueError(f"need k >= 1 classes and block width d >= 1, got k={k}, d={d}")
    p = k * d
    means = np.full((k, p), mu2)
    sds = np.full((k, p), sigma2)
    for j in range(k):
        means[j, j * d:(j + 1) * d] = mu1
        sds[j, j * d:(j + 1) * d] = sigma1
    return BlockDistributionSpec(np.full(k, 1.0 / k), means, sds)


def _check_enumeration_size(p: int, k: int) -> None:
    # k ** p >= 2 ** (p * (bit_length(k) - 1)), so a large p is refused on
    # bit lengths alone; the exact power is formed only when it is small
    if (p * (k.bit_length() - 1) >= ENUMERATION_GUARD.bit_length()
            or k ** p > ENUMERATION_GUARD):
        raise ValueError(
            f"{k}^{p} assignments exceed the enumeration guard ({ENUMERATION_GUARD}); "
            "use fewer features")


def iter_assignments(p: int, k: int):
    """All assignments of p features to k groups with every group
    non-empty, in lexicographic order of the assignment tuple."""
    _check_enumeration_size(p, k)
    for assignment in itertools.product(range(k), repeat=p):
        if len(set(assignment)) == k:
            yield assignment


def _scored_assignments(weights: np.ndarray):
    """Every assignment of the p features to k non-empty groups, in the
    order of `iter_assignments`, with its score

        score(a) = sum_j (1/|I_j|) sum_{i in I_j} weights[j, i],

    where I_j holds the features a sends to group j.  Yields blocks of
    at most ``ASSIGNMENT_CHUNK`` candidates as (assignments, scores):
    a (m, p) array of group indices and the m scores.
    """
    k, p = weights.shape
    _check_enumeration_size(p, k)
    place = k ** np.arange(p - 1, -1, -1)
    total = k ** p
    for start in range(0, total, ASSIGNMENT_CHUNK):
        codes = np.arange(start, min(start + ASSIGNMENT_CHUNK, total))
        digits = codes[:, None] // place % k
        masks = [digits == j for j in range(k)]
        sizes = np.stack([m.sum(axis=1) for m in masks])
        full = (sizes > 0).all(axis=0)
        if not full.any():
            continue
        scores = sum(masks[j][full] @ weights[j] / sizes[j, full] for j in range(k))
        yield digits[full], scores


def _first_minimum(blocks, k: int) -> FeaturePartition | None:
    """The partition of the first least-scored assignment across the
    (assignments, scores) blocks, so ties keep the lexicographically
    smallest; None when the blocks hold no candidate."""
    best, best_score = None, np.inf
    for assignments, scores in blocks:
        if len(scores) == 0:
            continue
        i = int(np.argmin(scores))
        if scores[i] < best_score:
            best, best_score = assignments[i], scores[i]
    if best is None:
        return None
    return FeaturePartition(tuple(np.flatnonzero(best == j) for j in range(k)))


def brute_force_minimizer(ds: LabeledDataset) -> tuple[FeaturePartition, float]:
    """Exhaustive empirical-risk minimization over all feature-to-class
    assignments.  Ties keep the lexicographically smallest assignment.

    With each centroid at its class mean, an assignment's risk is its
    `_scored_assignments` score over the within-class sums of squares
    divided by n; the returned risk is recomputed from the winner's
    centroids.
    """
    part = _first_minimum(_scored_assignments(ds.class_ss / ds.n), ds.k)
    return part, empirical_risk(ds, compute_centroids(ds, part))


def population_risk(model: NdcModel, spec: BlockDistributionSpec) -> float:
    """Closed-form risk of a fitted model under the Gaussian spec:
    per class, the mean over its feature group of variance plus squared
    centroid bias, weighted by the class probability."""
    if spec.p != model.p or spec.k != model.k:
        raise ValueError("spec and model dimensions disagree")
    total = 0.0
    for j, (g, c) in enumerate(zip(model.partition.class_groups, model.centroids)):
        bias_sq = np.square(spec.means[j, g] - c)
        total += spec.class_probs[j] * np.mean(spec.sds[j, g] ** 2 + bias_sq)
    return float(total)


def _partition_population_risk(spec: BlockDistributionSpec, part: FeaturePartition) -> float:
    # optimal centroids are the true class means, so only variances remain
    total = 0.0
    for j, g in enumerate(part.class_groups):
        total += spec.class_probs[j] * np.mean(spec.sds[j, g] ** 2)
    return float(total)


def _variance_weights(spec: BlockDistributionSpec) -> np.ndarray:
    """k x p scores whose `_scored_assignments` score is the population
    risk at the true-mean centroids: pi_j sigma_ji^2."""
    return spec.class_probs[:, None] * spec.sds ** 2


def optimal_population_risk(spec: BlockDistributionSpec) -> tuple[FeaturePartition, float]:
    """Population-risk minimizer over all assignments, each evaluated at
    its own optimal (true-mean) centroids."""
    part = _first_minimum(_scored_assignments(_variance_weights(spec)), spec.k)
    return part, _partition_population_risk(spec, part)


@dataclass(frozen=True)
class DiagonalOptimalityReport:
    passed: bool
    sigma1: float
    sigma2: float
    diagonal_risk: float
    best_risk: float
    n_strictly_better: int
    n_tied: int
    reason: str


def check_diagonal_optimality(spec: BlockDistributionSpec, d: int) -> DiagonalOptimalityReport:
    """Verify that the block-diagonal partition uniquely minimizes the
    population risk when the own-block variance is the smaller one.

    The spec must have the successive-equal-blocks shape produced by
    `block_spec`, with at least two classes; anything else raises
    ValueError.
    """
    k, p = spec.k, spec.p
    if k < 2:
        raise ValueError(f"the diagonal check needs k >= 2 classes, got k={k}: "
                         "one class has no off-block entries")
    if p != k * d:
        raise ValueError(f"expected p = k*d = {k * d}, got {p}")
    sigma1 = sigma2 = None
    for j in range(k):
        block = slice(j * d, (j + 1) * d)
        off = np.r_[0:j * d, (j + 1) * d:p]
        for name, idx in (("block", block), ("off-block", off)):
            if len(np.unique(spec.sds[j, idx])) > 1 or len(np.unique(spec.means[j, idx])) > 1:
                raise ValueError(f"class {j + 1} {name} entries are not identically distributed")
        s1, s2 = float(spec.sds[j, j * d]), float(spec.sds[j, (j * d + d) % p])
        if sigma1 is None:
            sigma1, sigma2 = s1, s2
        elif (s1, s2) != (sigma1, sigma2):
            raise ValueError("block standard deviations differ across classes")
    diagonal = np.repeat(np.arange(k), d)
    diagonal_risk = _partition_population_risk(
        spec, FeaturePartition(tuple(np.arange(j * d, (j + 1) * d) for j in range(k))))
    tol = 1e-12 * max(1.0, abs(diagonal_risk))
    n_better = 0
    n_tied = 0

    def off_diagonal():
        nonlocal n_better, n_tied
        for assignments, risks in _scored_assignments(_variance_weights(spec)):
            others = (assignments != diagonal).any(axis=1)
            assignments, risks = assignments[others], risks[others]
            n_better += int(np.count_nonzero(risks < diagonal_risk - tol))
            n_tied += int(np.count_nonzero(np.abs(risks - diagonal_risk) <= tol))
            yield assignments, risks

    runner_up = _first_minimum(off_diagonal(), k)
    best_risk = np.inf if runner_up is None else _partition_population_risk(spec, runner_up)
    if sigma1 >= sigma2:
        reason = ("inverted block variances: own-block sd is not the smaller one"
                  if n_better else "degenerate: equal block variances, all partitions tie")
        passed = False
    elif n_better:
        reason = f"{n_better} assignments beat the diagonal partition"
        passed = False
    elif n_tied:
        reason = f"{n_tied} assignments tie the diagonal partition"
        passed = False
    else:
        reason = "diagonal partition is the unique population-risk minimizer"
        passed = True
    return DiagonalOptimalityReport(passed=passed, sigma1=sigma1, sigma2=sigma2,
                           diagonal_risk=diagonal_risk,
                           best_risk=float(min(best_risk, diagonal_risk)),
                           n_strictly_better=n_better, n_tied=n_tied, reason=reason)


def sample_dataset(spec: BlockDistributionSpec, n: int,
                   rng: np.random.Generator) -> LabeledDataset:
    """Draw n labeled rows from the spec.  Label vectors missing a class
    are redrawn, up to 100 times, so the result is a valid dataset (only
    a concern for tiny n)."""
    if n < spec.k:
        raise ValueError("need at least one row per class")
    for _ in range(100):
        labels = rng.choice(spec.k, size=n, p=spec.class_probs) + 1
        if len(np.unique(labels)) == spec.k:
            break
    else:
        raise RuntimeError("could not draw a label vector containing every class")
    z = rng.standard_normal((n, spec.p))
    x = spec.means[labels - 1] + spec.sds[labels - 1] * z
    return LabeledDataset.from_arrays(x, labels, k=spec.k)


@dataclass(frozen=True)
class ConsistencyRow:
    n: int
    rep: int
    fitted_population_risk: float
    w_star: float
    gap: float


@dataclass(frozen=True)
class ConsistencyResult:
    w_star: float
    rows: tuple[ConsistencyRow, ...]

    def mean_gap(self, n: int) -> float:
        gaps = [r.gap for r in self.rows if r.n == n]
        return float(np.mean(gaps))

    def tsv_lines(self) -> list[str]:
        lines = ["n\trep\tfitted_population_risk\tW_star\tgap"]
        for r in self.rows:
            lines.append(f"{r.n}\t{r.rep}\t{r.fitted_population_risk!r}\t{r.w_star!r}\t{r.gap!r}")
        return lines


def consistency_experiment(spec: BlockDistributionSpec, n_grid, reps: int,
                           seed: int, fit_restarts: int = FitConfig.restarts,
                           fitter: str = "lloyd") -> ConsistencyResult:
    """Fit on ever-larger training draws and report the gap between the
    fitted model's population risk and the optimal risk.

    ``fitter`` selects the optimizer: "lloyd" is the multi-restart
    heuristic (its gap reflects both sampling noise and the heuristic's
    suboptimality, so only the large-n vs small-n trend is guaranteed);
    "exact" is the brute-force empirical-risk minimizer, whose gap
    vanishes as n grows.
    """
    if fitter not in ("lloyd", "exact"):
        raise ValueError("fitter must be 'lloyd' or 'exact'")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValueError("n_grid must hold at least one sample size")
    _, w_star = optimal_population_risk(spec)
    rows = []
    for n in n_grid:
        for rep in range(reps):
            data_rng = rngmod.generator(seed, "n", n, "rep", rep, "data")
            ds = sample_dataset(spec, n, data_rng)
            if fitter == "exact":
                part, _ = brute_force_minimizer(ds)
                model = compute_centroids(ds, part)
            else:
                config = FitConfig(restarts=fit_restarts,
                                   seed=rngmod.child_seed(seed, "n", n, "rep", rep, "fit"))
                _, model, _ = fit_best(ds, config)
            risk = population_risk(model, spec)
            rows.append(ConsistencyRow(n=n, rep=rep,
                                       fitted_population_risk=risk,
                                       w_star=w_star, gap=float(risk - w_star)))
    return ConsistencyResult(w_star=w_star, rows=tuple(rows))
