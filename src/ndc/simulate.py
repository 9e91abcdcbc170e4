"""Block-Gaussian dataset generation for the benchmark designs.

The data matrix is a k x k grid of n_per_class x d blocks: entries on
the diagonal blocks are N(mu1, sigma1^2), everything else N(mu2,
sigma2^2), and an optional tail of r irrelevant columns is standard
normal for all rows.  Rows come in contiguous class blocks, labels equal
the block index.

Four presets cover the benchmark grid (k = 4, 250 rows per class):

    1  mean shift only        mu1 = level, sigma1 = sigma2 = 1
    2  variance spread only   sigma2 = 1 + level
    3  both                   mu1 = level, sigma2 = 1 + level
    4  preset 3 at d = 5 plus r irrelevant columns

``level`` is one of 0.3/0.6/0.9; d is 3/5/10 for presets 1-3 and r is
20/40/80 for preset 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset

LEVELS = (0.3, 0.6, 0.9)
D_GRID = (3, 5, 10)
R_GRID = (20, 40, 80)


@dataclass(frozen=True)
class SimulationConfig:
    k: int
    n_per_class: int
    d: int
    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    r: int = 0

    def __post_init__(self):
        if self.k < 1 or self.n_per_class < 1 or self.d < 1 or self.r < 0:
            raise ValueError("k, n_per_class, d must be >= 1 and r >= 0")
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("block standard deviations must be positive")

    @property
    def n_total(self) -> int:
        return self.k * self.n_per_class

    @property
    def p(self) -> int:
        return self.k * self.d + self.r


def generate(config: SimulationConfig, rng: np.random.Generator) -> LabeledDataset:
    """Draw one dataset: a single standard-normal matrix scaled and
    shifted per block, so a seed pins the whole matrix at once."""
    n, p, d = config.n_total, config.p, config.d
    z = rng.standard_normal((n, p))
    sigma = np.full((n, p), config.sigma2)
    mu = np.full((n, p), config.mu2)
    for j in range(config.k):
        rows = slice(j * config.n_per_class, (j + 1) * config.n_per_class)
        cols = slice(j * d, (j + 1) * d)
        sigma[rows, cols] = config.sigma1
        mu[rows, cols] = config.mu1
    if config.r:
        sigma[:, config.k * d:] = 1.0
        mu[:, config.k * d:] = 0.0
    labels = np.repeat(np.arange(1, config.k + 1), config.n_per_class)
    return LabeledDataset.from_arrays(mu + sigma * z, labels, k=config.k)


def preset(sim_id: int, level: float, d_or_r: int) -> SimulationConfig:
    """Benchmark-grid configuration; see the module docstring for the
    meaning of ``level`` and ``d_or_r`` per preset."""
    if sim_id not in (1, 2, 3, 4):
        raise ValueError("sim_id must be 1..4")
    if not any(abs(level - v) < 1e-12 for v in LEVELS):
        raise ValueError(f"level must be one of {LEVELS}")
    name, grid = ("r", R_GRID) if sim_id == 4 else ("d", D_GRID)
    if d_or_r not in grid:
        raise ValueError(f"{name} must be one of {grid}")
    return SimulationConfig(k=4, n_per_class=250, d=5 if sim_id == 4 else d_or_r,
                            mu1=0.0 if sim_id == 2 else level, mu2=0.0, sigma1=1.0,
                            sigma2=1.0 if sim_id == 1 else 1.0 + level,
                            r=d_or_r if sim_id == 4 else 0)
