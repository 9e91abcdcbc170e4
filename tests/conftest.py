import os

import numpy as np
import pytest
from hypothesis import settings

from ndc.data import FeaturePartition, LabeledDataset

# Every property test draws the same examples on every run, and a slow
# host does not fail one on timing.  NDC_HYPOTHESIS_PROFILE=ndc-explore
# draws new random examples instead, a few hundred per property or the
# count a property sets itself, and keeps no example database.
settings.register_profile("ndc", derandomize=True, deadline=None, max_examples=30)
settings.register_profile("ndc-explore", deadline=None, max_examples=300, database=None)
settings.load_profile(os.environ.get("NDC_HYPOTHESIS_PROFILE", "ndc"))


@pytest.fixture
def toy_ds():
    """Two features, two classes of two rows each.  Feature 1 is 0 on
    class 1 and 4/6 on class 2; feature 2 hovers near 6 everywhere.
    The partition ({f1}, {f2}) separates the classes perfectly."""
    x = np.array([[0.0, 5.0], [0.0, 7.0], [4.0, 6.0], [6.0, 6.0]])
    return LabeledDataset.from_arrays(x, [1, 1, 2, 2])


@pytest.fixture
def toy_partition():
    return FeaturePartition((np.array([0]), np.array([1])))


@pytest.fixture
def toy_partition_swapped():
    return FeaturePartition((np.array([1]), np.array([0])))


def random_dataset(rng, k=None, p=None, n_per_class=None):
    """Unstructured Gaussian dataset with shifted feature means."""
    k = k or int(rng.integers(2, 4))
    p = p or int(rng.integers(k, 9))
    n_per_class = n_per_class or int(rng.integers(3, 9))
    labels = np.repeat(np.arange(1, k + 1), n_per_class)
    x = rng.normal(size=(k * n_per_class, p)) + rng.normal(size=p)
    return LabeledDataset.from_arrays(x, labels)


def block_dataset(rng, k, n_per_class, d, mu1=0.0, mu2=0.0, sigma1=1.0, sigma2=2.0, r=0):
    """Block-Gaussian dataset: class j's own d columns follow
    N(mu1, sigma1^2), the rest N(mu2, sigma2^2), plus r standard-normal
    irrelevant columns."""
    n = k * n_per_class
    p = k * d + r
    z = rng.standard_normal((n, p))
    x = mu2 + sigma2 * z
    for j in range(k):
        rows = slice(j * n_per_class, (j + 1) * n_per_class)
        cols = slice(j * d, (j + 1) * d)
        x[rows, cols] = mu1 + sigma1 * z[rows, cols]
    if r:
        x[:, k * d:] = z[:, k * d:]
    labels = np.repeat(np.arange(1, k + 1), n_per_class)
    return LabeledDataset.from_arrays(x, labels)
