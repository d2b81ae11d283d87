"""Imbalance-aware classification toolkit.

Decision trees and tree ensembles built from scratch, resampling methods
for imbalanced data (random undersampling, synthetic minority
oversampling, and cluster-aware undersampling that rebalances only the
regions that need it), imbalance-honest evaluation metrics, a stratified
cross-validation harness with leak-free resampling, and rank-based
statistical comparison of competing pipelines.

The package loads lazily (PEP 562): `import crus` imports no submodule,
and so no numpy, until one of the names below is first used.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "clustering": (
        "ClusterModel", "FeatureScaler", "kmeans_fit",
    ),
    "dataset": (
        "NOMINAL", "NUMERIC", "AttributeSpec", "DataError", "Dataset", "DatasetSchema", "FoldSplit",
        "imbalance_ratio", "load_csv", "load_schema", "save_schema", "stratified_kfold", "write_csv",
    ),
    "ensembles": (
        "EnsembleConfig", "EnsembleModel", "fit_adaboost", "fit_bagging", "fit_random_committee",
        "fit_random_forest", "theoretical_ensemble_accuracy",
    ),
    "evaluation": (
        "ClassifierSpec", "CvResult", "FoldResult", "PipelineModel", "SamplerSpec",
        "SyntheticConfig", "SyntheticData", "apply_sampler", "fit_classifier", "gen_synthetic",
        "run_cv", "run_cv_clustered", "run_experiment",
    ),
    "feature_selection": (
        "AttributeRank", "CfsResult", "cfs_best_first", "discretize", "gain_ratio_rank",
        "symmetrical_uncertainty",
    ),
    "metrics": (
        "METRIC_COLUMNS", "BinaryRates", "ConfusionMatrix", "MetricsReport", "auc_roc",
        "binary_rates", "combine_reports", "compute_report", "confusion_matrix", "g_mean",
        "optimized_precision", "weighted_class_average",
    ),
    "modelfile": (
        "model_from_text", "model_to_text",
    ),
    "resampling": (
        "HIGH_GROUP", "LOW_GROUP", "ClusterPartition", "GroupedTrainSets", "apply_clustering_rus",
        "plan_cluster_partition", "rus_undersample", "smote_oversample", "suggest_threshold",
    ),
    "seeds": (
        "derive_seed", "rng_for",
    ),
    "stats": (
        "CdDiagram", "ComparisonReport", "FriedmanResult", "ScoreMatrix", "WilcoxonResult",
        "average_combined_loss", "cd_diagram", "chi2_sf", "compare_treatments", "friedman_test",
        "holm_adjust", "loss_vs_best", "regularized_gamma_q", "wilcoxon_signed_rank",
    ),
    "trees": (
        "DecisionTree", "TreeConfig", "TreeNode", "default_subspace_size", "export_rules", "fit_tree",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Import the submodule that defines a public name on its first use."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
