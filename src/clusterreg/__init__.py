"""Cluster-then-regress toolkit for multicollinear emission panels.

Entities are clustered on their normalized feature profiles with a
density-based clusterer, features are aggregated per cluster, and the
log of the grand total is regressed on the log cluster aggregates with
ridge, lasso, and elastic-net penalties.
"""

from .clustering import (
    NOISE,
    ClusterAssignment,
    ClusteringQuality,
    FeatureMatrix,
    NeighborhoodParams,
    ReachabilityTree,
    dbscan,
    promote_noise,
    reachability_tree,
    silhouette,
    sse,
    sweep_params,
)
from .dataio import (
    EnergyPanel,
    ValidationReport,
    load_panel,
    load_report,
    save_panel_long,
    save_report,
    validate_panel,
)
from .errors import (
    ClusteringError,
    ClusterRegError,
    ConfigError,
    PanelFormatError,
    PipelineStageError,
    PreprocessError,
    RegressionError,
)
from .pipeline import (
    ClusterProfile,
    PipelineConfig,
    PipelineReport,
    aggregate_by_cluster,
    profile_clusters,
    run_pipeline,
    summarize_forecast,
)
from .preprocess import (
    drop_zero_series,
    entity_profile,
    log_transform,
    minmax_normalize_rows,
)
from .regression import (
    DesignMatrix,
    FitReport,
    LinearModel,
    PathReport,
    PenaltySpec,
    compute_mse,
    compute_r2,
    compute_sparsity,
    cross_validate,
    fit_ols,
    fit_penalized,
    fit_report,
    iterate_lambda,
    kkt_check,
    lasso_lambda_max,
    predict,
)
from .synth import SyntheticTruth, generate_synthetic

__version__ = "0.1.0"
