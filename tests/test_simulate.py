import numpy as np
import pytest

from ndc import rng as rngmod
from ndc.data import LabeledDataset
from ndc.simulate import D_GRID, LEVELS, R_GRID, SimulationConfig, generate, preset


def test_preset_values():
    c1 = preset(1, 0.9, 10)
    assert (c1.mu1, c1.mu2, c1.sigma1, c1.sigma2, c1.d, c1.r) == (0.9, 0.0, 1.0, 1.0, 10, 0)
    c2 = preset(2, 0.9, 10)
    assert (c2.mu1, c2.mu2, c2.sigma1, c2.sigma2) == (0.0, 0.0, 1.0, 1.9)
    c3 = preset(3, 0.6, 5)
    assert (c3.mu1, c3.sigma1, c3.mu2, c3.sigma2) == (0.6, 1.0, 0.0, 1.6)
    c4 = preset(4, 0.9, 80)
    assert (c4.mu1, c4.sigma2, c4.d, c4.r) == (0.9, 1.9, 5, 80)
    assert (c4.k, c4.n_per_class) == (4, 250)


def test_preset_rejects_off_grid():
    with pytest.raises(ValueError):
        preset(5, 0.9, 10)
    with pytest.raises(ValueError):
        preset(1, 0.5, 10)
    with pytest.raises(ValueError):
        preset(1, 0.9, 7)
    with pytest.raises(ValueError):
        preset(4, 0.9, 10)  # sim 4 takes r in {20, 40, 80}


def test_generate_shapes():
    ds = generate(preset(1, 0.9, 10), rngmod.generator(0, "t"))
    assert (ds.n, ds.p, ds.k) == (1000, 40, 4)
    ds4 = generate(preset(4, 0.9, 80), rngmod.generator(0, "t"))
    assert (ds4.n, ds4.p) == (1000, 100)


def test_generate_contiguous_balanced_labels():
    ds = generate(SimulationConfig(k=3, n_per_class=4, d=2, mu1=0, mu2=0,
                                   sigma1=1, sigma2=1), rngmod.generator(1, "t"))
    assert ds.labels.tolist() == [1] * 4 + [2] * 4 + [3] * 4


def test_generate_seed_determinism():
    config = preset(2, 0.6, 5)
    a = generate(config, rngmod.generator(7, "sim"))
    b = generate(config, rngmod.generator(7, "sim"))
    c = generate(config, rngmod.generator(8, "sim"))
    np.testing.assert_array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_generate_block_statistics():
    config = SimulationConfig(k=2, n_per_class=400, d=10, mu1=0.9, mu2=0.0,
                              sigma1=1.0, sigma2=1.9, r=5)
    ds = generate(config, rngmod.generator(3, "stats"))
    block = ds.x[:400, :10]
    # law-of-large-numbers envelope on the diagonal block mean
    assert abs(block.mean() - 0.9) <= 4 * 1.0 / np.sqrt(block.size)
    assert abs(block.std(ddof=1) - 1.0) <= 0.05
    off = ds.x[:400, 10:20]
    assert abs(off.mean() - 0.0) <= 4 * 1.9 / np.sqrt(off.size)
    assert abs(off.std(ddof=1) - 1.9) <= 0.05 * 1.9
    irrelevant = ds.x[:, 20:]
    assert abs(irrelevant.mean()) <= 4 / np.sqrt(irrelevant.size)
    assert abs(irrelevant.std(ddof=1) - 1.0) <= 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(k=0, n_per_class=1, d=1, mu1=0, mu2=0, sigma1=1, sigma2=1)
    with pytest.raises(ValueError):
        SimulationConfig(k=2, n_per_class=5, d=1, mu1=0, mu2=0, sigma1=0, sigma2=1)


def _generate_by_formula(config, rng):
    """The draw as it was first written: full sigma and mu matrices, then
    mu + sigma * z."""
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


_PRESETS = [(sim, level, size) for sim in (1, 2, 3, 4) for level in LEVELS
            for size in (R_GRID if sim == 4 else D_GRID)]


@pytest.mark.parametrize("sim,level,size", _PRESETS)
def test_generate_equals_the_full_matrix_formula(sim, level, size):
    config = preset(sim, level, size)
    for seed in (1, 2, 3):
        ds = generate(config, rngmod.generator(seed, "sim"))
        reference = _generate_by_formula(config, rngmod.generator(seed, "sim"))
        assert ds.x.tobytes() == reference.x.tobytes()
        assert ds.labels.tolist() == reference.labels.tolist()


class _FixedDraw:
    """A stand-in generator whose standard-normal draw is ``z``."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        return self.z.reshape(shape).copy()


def test_generate_turns_a_negative_zero_draw_into_positive_zero():
    config = SimulationConfig(k=2, n_per_class=3, d=2, mu1=0.0, mu2=0.0, sigma1=1.0,
                              sigma2=2.0, r=2)
    z = np.linspace(-2.0, 2.0, 36).reshape(6, 6)
    z[::2] = -0.0  # whole rows, the r-column tail included
    ds = generate(config, _FixedDraw(z))
    assert ds.x.tobytes() == _generate_by_formula(config, _FixedDraw(z)).x.tobytes()
    assert not np.signbit(ds.x[z == 0]).any()
