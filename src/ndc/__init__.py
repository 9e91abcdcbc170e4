"""Nearest disjoint centroid classification.

Each class gets its own disjoint group of features, fitted by k-means
over the transposed data matrix; prediction picks the class whose
centroid is nearest under the dimensionality-normalized norm.  The
package also ships comparable centroid baselines, block-Gaussian
benchmark generators, a cross-validation harness, and a brute-force
risk oracle for verifying the optimizer on small instances.
"""

from .baselines import (
    KnnModel,
    NcModel,
    NscModel,
    knn_fit,
    knn_predict_many,
    nc_fit,
    nc_predict_many,
    nsc_delta_grid,
    nsc_fit,
    nsc_predict_many,
)
from .classifier import (
    NdcModel,
    compute_centroids,
    empirical_risk,
    load_model,
    predict_many,
    predict_scores_many,
    save_model,
    training_error,
)
from .data import (
    CsvFormatError,
    FeaturePartition,
    LabeledDataset,
    dn_norm_sq,
    read_labeled_csv,
    validate_partition,
    write_labeled_csv,
)
from .evaluate import (
    CvConfig,
    EvalReport,
    HarnessOptions,
    k_fold_split,
    misclassification_rate,
    run_cv_benchmark,
    run_simulation_benchmark,
    tune_delta,
    tune_lambda,
)
from .kmeans import FitConfig, FitFailedError, clustering_objective, fit_best
from .oracle import (
    BlockDistributionSpec,
    ConsistencyResult,
    DiagonalOptimalityReport,
    block_spec,
    brute_force_minimizer,
    check_diagonal_optimality,
    consistency_experiment,
    optimal_population_risk,
    population_risk,
    sample_dataset,
)
from .simulate import SimulationConfig, generate, preset

__version__ = "0.1.0"
