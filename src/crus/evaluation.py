"""Cross-validated evaluation of sampler/classifier pipelines.

One pipeline fits every model: `fit_pipelines` resamples a training set
once and fits one model per group for each classifier, so every classifier
of a sampler trains on the same resampled set.  The plain samplers give
the single group "n/a"; cluster-aware undersampling fits the cluster
partition on the training set alone, undersamples the flagged group and
routes instances by nearest centroid.  `run_fold` is the one fold step
and `cv_result` assembles a cell's folds; `run_experiment` runs them for
one cell.  Folds are created before any resampling and the pipeline sees
only each training split, so synthetic or dropped instances never touch a
test fold.  A fold's report is the test-count weighted average of its
group reports.  The CLI runs `run_fold` per (sampler, fold), and its
`--save-models` refit runs `fit_pipelines` on the full dataset.

Seed discipline: from one master seed, the fold split uses
derive_seed(seed, "folds") and fold f uses derive_seed(seed, "sampler", f),
derive_seed(seed, "cluster", f) and derive_seed(seed, "classifier", f);
the refit uses derive_seed(seed, "final", "sampler" | "cluster" |
"classifier").  Group models share the classifier seed, so a partition
that flags nothing reproduces the unclustered run exactly.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from .dataset import (
    AttributeSpec,
    Dataset,
    DatasetSchema,
    FoldSplit,
    NOMINAL,
    NUMERIC,
    imbalance_ratio,
    stratified_kfold,
)
from .ensembles import (
    EnsembleConfig,
    EnsembleModel,
    fit_adaboost,
    fit_bagging,
    fit_random_committee,
    fit_random_forest,
)
from .metrics import MetricsReport, combine_reports, compute_report
from .resampling import (
    HIGH_GROUP,
    LOW_GROUP,
    ClusterPartition,
    _check_sampler_args,
    apply_clustering_rus,
    plan_cluster_partition,
    rus_undersample,
    smote_oversample,
    suggest_threshold,
)
from .seeds import derive_seed
from .trees import DecisionTree, TreeConfig, fit_random_tree, fit_tree

CLASSIFIER_METHODS = (
    "tree",
    "random_tree",
    "bagging",
    "adaboost",
    "random_forest",
    "random_committee",
)
SAMPLER_METHODS = ("none", "rus", "smote", "clustering_rus")


def _is_a(v: object, kind: type) -> bool:
    """A number of `kind` other than a bool or NaN."""
    return isinstance(v, kind) and not isinstance(v, bool) and v == v


def _check_numbers(spec: object, reals: tuple[str, ...], integers: tuple[str, ...]) -> None:
    """Reject a field of spec that is not a number (an integer for `integers`),
    NaN included, or that is an infinite real.

    None passes where it is the field's default, as for optional fields.
    """
    defaults = {f.name: f.default for f in fields(spec)}
    for names, kind, what in ((reals, numbers.Real, "a number"), (integers, numbers.Integral, "an integer")):
        for name in names:
            v = getattr(spec, name)
            if v is None and defaults[name] is None:
                continue
            if not _is_a(v, kind):
                raise ValueError(f"'{name}' must be {what}, got {v!r}")
            if abs(v) == math.inf:  # not isfinite, which overflows on a huge integer
                raise ValueError(f"'{name}' must be finite, got {v!r}")


@dataclass(frozen=True)
class ClassifierSpec:
    method: str = "tree"
    n_members: int | None = None
    min_leaf_weight: float = 2.0
    use_pruning: bool = True
    confidence_factor: float = 0.25
    subspace_size: int | None = None

    def __post_init__(self) -> None:
        if self.method not in CLASSIFIER_METHODS:
            raise ValueError(
                f"unknown classifier method '{self.method}' (expected one of {CLASSIFIER_METHODS})"
            )
        _check_numbers(self, ("min_leaf_weight", "confidence_factor"), ("n_members", "subspace_size"))
        if not isinstance(self.use_pruning, bool):
            raise ValueError(f"'use_pruning' must be true or false, got {self.use_pruning!r}")
        EnsembleConfig(n_members=self.n_members)  # for its range check
        # built once, so TreeConfig's range checks run when the spec is made
        tree = TreeConfig(
            min_leaf_weight=self.min_leaf_weight,
            use_pruning=self.use_pruning,
            confidence_factor=self.confidence_factor,
            random_subspace_size=self.subspace_size,
        )
        object.__setattr__(self, "tree_config", tree)


@dataclass(frozen=True)
class SamplerSpec:
    method: str = "none"
    spread: float = 4.0
    percentage: float = 100.0
    k_neighbors: int = 5
    cluster_k: int = 2
    threshold: float | None = None
    reduction_fraction: float | None = None
    policy: str = "above"

    def __post_init__(self) -> None:
        if self.method not in SAMPLER_METHODS:
            raise ValueError(
                f"unknown sampler method '{self.method}' (expected one of {SAMPLER_METHODS})"
            )
        _check_numbers(
            self, ("spread", "percentage", "threshold", "reduction_fraction"), ("k_neighbors", "cluster_k")
        )
        _check_sampler_args(
            self.spread, self.percentage, self.k_neighbors, self.threshold, self.reduction_fraction, self.policy
        )
        if self.cluster_k < 1:
            raise ValueError(f"cluster_k must be at least 1, got {self.cluster_k}")
        if self.method == "clustering_rus":
            if self.threshold is None and self.reduction_fraction is None:
                raise ValueError("clustering_rus needs either threshold or reduction_fraction")
            if self.threshold is not None and self.reduction_fraction is not None:
                raise ValueError("give either threshold or reduction_fraction, not both")


def fit_classifier(train: Dataset, spec: ClassifierSpec, seed: int) -> DecisionTree | EnsembleModel:
    base = replace(spec.tree_config, seed=seed)
    if spec.method == "tree":
        return fit_tree(train, replace(base, random_subspace_size=None))
    if spec.method == "random_tree":
        return fit_random_tree(train, seed, base)
    fit = {"bagging": fit_bagging, "adaboost": fit_adaboost, "random_forest": fit_random_forest,
           "random_committee": fit_random_committee}[spec.method]
    return fit(train, EnsembleConfig(n_members=spec.n_members, base=base, seed=seed))


def apply_sampler(train: Dataset, spec: SamplerSpec, seed: int) -> Dataset:
    """Resample one training split (not valid for clustering_rus)."""
    if spec.method == "none":
        return train
    if spec.method == "rus":
        return rus_undersample(train, spec.spread, seed)
    if spec.method == "smote":
        return smote_oversample(train, spec.percentage, spec.k_neighbors, seed)
    raise ValueError("clustering_rus trains per-group models; use fit_pipelines")


@dataclass(frozen=True)
class FoldResult:
    fold: int
    group: str  # low_IR_group / high_IR_group / n/a
    truth: np.ndarray
    predicted: np.ndarray
    scores: np.ndarray
    test_indices: np.ndarray
    train_indices: np.ndarray  # original rows the model trained on
    n_synthetic_train: int
    report: MetricsReport


@dataclass(frozen=True)
class CvResult:
    folds: tuple[FoldResult, ...]
    fold_reports: tuple[MetricsReport, ...]  # one per fold (groups combined)
    pooled: MetricsReport
    mean: MetricsReport
    warnings: tuple[str, ...] = ()


def _pooled_report(folds: list[FoldResult], beta: float) -> MetricsReport:
    truth = np.concatenate([f.truth for f in folds])
    pred = np.concatenate([f.predicted for f in folds])
    scores = np.concatenate([f.scores for f in folds])
    return compute_report(truth, pred, scores, beta)


PLAIN_GROUP = "n/a"


@dataclass(frozen=True)
class GroupModel:
    """One group's fitted model and the training material behind it."""

    model: DecisionTree | EnsembleModel
    train_ids: np.ndarray  # original rows the model trained on
    n_synthetic: int


@dataclass(frozen=True)
class PipelineModel:
    """One model per non-empty group plus the router between them.

    A plain sampler has no partition and the single group "n/a"; the
    clustered sampler routes each row to the group of its nearest cluster.
    """

    groups: dict[str, GroupModel]
    warnings: tuple[str, ...]
    partition: ClusterPartition | None

    def route(self, X: np.ndarray) -> list[tuple[str, str, np.ndarray]]:
        """(group, group whose model scores it, row mask) for each group with rows in X.

        A group without a model falls back to the other group's model.
        """
        if self.partition is None:
            return [(PLAIN_GROUP, PLAIN_GROUP, np.ones(len(X), dtype=bool))]
        flagged = np.array(self.partition.flagged, dtype=bool)[self.partition.model.assign(X)]
        out = []
        for name, other, mask in ((LOW_GROUP, HIGH_GROUP, ~flagged), (HIGH_GROUP, LOW_GROUP, flagged)):
            if mask.any():
                out.append((name, name if name in self.groups else other, mask))
        return out


def _outcome(fit, *args):
    """fit(*args), or the DataError or ValueError it raised."""
    try:
        return fit(*args)
    except ValueError as exc:
        return exc


def fit_pipelines(
    train: Dataset,
    classifiers: Sequence[ClassifierSpec],
    sampler: SamplerSpec,
    sampler_seed: int,
    cluster_seed: int,
    classifier_seed: int,
) -> list[PipelineModel | ValueError]:
    """Resample one training set once and fit every classifier on it, all with one seed.

    clustering_rus resolves its threshold on this training set, plans the
    cluster partition and undersamples the flagged group; other samplers
    resample the whole set into the single group "n/a".  Every classifier
    trains on the same group sets, so its models equal those of a run with
    that classifier alone.  A DataError or ValueError raised while fitting
    one classifier is returned in its place; one raised while resampling
    concerns every classifier and propagates.
    """
    partition, warnings = None, ()
    if sampler.method == "clustering_rus":
        threshold = sampler.threshold
        if threshold is None:
            threshold = suggest_threshold(imbalance_ratio(train), sampler.reduction_fraction)
        partition = plan_cluster_partition(train, sampler.cluster_k, threshold, cluster_seed, sampler.policy)
        grouped = apply_clustering_rus(train, partition, sampler.spread, sampler_seed)
        group_sets = {LOW_GROUP: grouped.low_group, HIGH_GROUP: grouped.high_group}
        warnings = partition.warnings + grouped.warnings
    else:
        group_sets = {PLAIN_GROUP: apply_sampler(train, sampler, sampler_seed)}

    def fit(classifier: ClassifierSpec) -> PipelineModel:
        groups = {
            name: GroupModel(
                fit_classifier(g, classifier, classifier_seed),
                g.row_ids[g.row_ids >= 0],
                int(g.synthetic.sum()),
            )
            for name, g in group_sets.items()
            if len(g) > 0
        }
        return PipelineModel(groups, warnings, partition)

    return [_outcome(fit, c) for c in classifiers]


@dataclass(frozen=True)
class FoldRun:
    """One classifier's results on one fold."""

    parts: tuple[FoldResult, ...]  # one per group with test instances
    report: MetricsReport  # the parts' reports weighted by their test counts
    warnings: tuple[str, ...]


def _score_fold(d: Dataset, test_idx: np.ndarray, f: int, pipe: PipelineModel, beta: float) -> FoldRun:
    """Route each test instance of fold f to its group's model and score the groups."""
    warnings = [f"fold {f}: {w}" for w in pipe.warnings]
    parts: list[FoldResult] = []
    for group, model_group, mask in pipe.route(d.values[test_idx]):
        g_test = test_idx[mask]
        if model_group != group:
            warnings.append(
                f"fold {f}: no training data for {group}; "
                f"its {g_test.size} test instances use the {model_group} model"
            )
        fit = pipe.groups[model_group]
        predicted, scores = fit.model.predict_batch(d.values[g_test])
        truth = np.asarray(d.labels[g_test])
        parts.append(
            FoldResult(
                fold=f,
                group=group,
                truth=truth,
                predicted=predicted,
                scores=scores,
                test_indices=g_test,
                train_indices=fit.train_ids,
                n_synthetic_train=fit.n_synthetic,
                report=compute_report(truth, predicted, scores, beta),
            )
        )
    report = combine_reports([p.report for p in parts], weights=[float(p.truth.size) for p in parts])
    return FoldRun(tuple(parts), report, tuple(warnings))


def run_fold(
    d: Dataset,
    split: FoldSplit,
    f: int,
    classifiers: Sequence[ClassifierSpec],
    sampler: SamplerSpec,
    seed: int = 0,
    beta: float = 1.0,
) -> list[FoldRun | ValueError]:
    """Fold f of every classifier of one sampler: resample the training split
    once, fit each classifier on it and score it on the test split.

    Returns one entry per classifier: its FoldRun, or the DataError or
    ValueError that stopped it.  A failure while resampling is every
    classifier's entry.
    """
    seeds = (derive_seed(seed, step, f) for step in ("sampler", "cluster", "classifier"))
    try:
        pipes = fit_pipelines(d.subset(split.train_indices(f)), classifiers, sampler, *seeds)
    except ValueError as exc:
        return [exc] * len(classifiers)
    test_idx = split.test_indices(f)
    return [p if isinstance(p, ValueError) else _outcome(_score_fold, d, test_idx, f, p, beta) for p in pipes]


def cv_result(runs: Sequence[FoldRun], beta: float = 1.0) -> CvResult:
    """The CvResult of one cell from its fold runs, in fold order."""
    folds = [part for run in runs for part in run.parts]
    fold_reports = [run.report for run in runs]
    return CvResult(
        folds=tuple(folds),
        fold_reports=tuple(fold_reports),
        pooled=_pooled_report(folds, beta),
        mean=combine_reports(fold_reports),
        warnings=tuple(w for run in runs for w in run.warnings),
    )


def run_experiment(
    d: Dataset,
    classifier: ClassifierSpec,
    sampler: SamplerSpec = SamplerSpec(),
    k: int = 10,
    seed: int = 0,
    beta: float = 1.0,
) -> CvResult:
    """Stratified k-fold evaluation of one sampler/classifier cell.

    Per fold: fit the pipeline on the training split, route each test
    instance to its group's model, and combine the group reports weighted
    by their test counts.  The first fold's failure is raised.
    """
    split = stratified_kfold(d, k, derive_seed(seed, "folds"))
    runs: list[FoldRun] = []
    for f in range(k):
        (run,) = run_fold(d, split, f, [classifier], sampler, seed, beta)
        if isinstance(run, ValueError):
            raise run
        runs.append(run)
    return cv_result(runs, beta)


def run_cv(
    d: Dataset,
    classifier: ClassifierSpec,
    sampler: SamplerSpec = SamplerSpec(),
    k: int = 10,
    seed: int = 0,
    beta: float = 1.0,
) -> CvResult:
    """run_experiment restricted to the plain samplers (one model per fold)."""
    if sampler.method == "clustering_rus":
        raise ValueError("use run_cv_clustered (or run_experiment) for clustering_rus")
    return run_experiment(d, classifier, sampler, k, seed, beta)


def run_cv_clustered(
    d: Dataset,
    classifier: ClassifierSpec,
    sampler: SamplerSpec,
    k: int = 10,
    seed: int = 0,
    beta: float = 1.0,
) -> CvResult:
    """run_experiment restricted to cluster-aware undersampling."""
    if sampler.method != "clustering_rus":
        raise ValueError(f"run_cv_clustered needs a clustering_rus sampler, got '{sampler.method}'")
    return run_experiment(d, classifier, sampler, k, seed, beta)


@dataclass(frozen=True)
class SyntheticConfig:
    """Gaussian blobs with per-blob class imbalance and class-biased
    nominal attributes; the class signal lives in the nominal attributes,
    the region structure in the numeric ones."""

    blob_sizes: tuple[int, ...] = (1000, 1000)
    blob_irs: tuple[float, ...] = (2.0, 20.0)
    n_numeric: int = 2
    n_nominal: int = 2
    n_categories: int = 3
    noise: float = 1.0
    category_bias: float = 0.8
    blob_spacing: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_numbers(
            self, ("noise", "category_bias", "blob_spacing"), ("n_numeric", "n_nominal", "n_categories", "seed")
        )
        if not all(_is_a(v, numbers.Integral) for v in self.blob_sizes):
            raise ValueError(f"'blob_sizes' must be a list of integers, got {list(self.blob_sizes)!r}")
        if not all(_is_a(v, numbers.Real) for v in self.blob_irs):
            raise ValueError(f"'blob_irs' must be a list of numbers, got {list(self.blob_irs)!r}")
        if len(self.blob_sizes) != len(self.blob_irs) or not self.blob_sizes:
            raise ValueError("need matching, non-empty blob_sizes and blob_irs")
        if any(s < 2 for s in self.blob_sizes):
            raise ValueError("each blob needs at least 2 instances")
        if any(not 1 <= ir < math.inf for ir in self.blob_irs):
            raise ValueError(f"'blob_irs' must be finite and at least 1, got {list(self.blob_irs)!r}")
        if self.n_numeric < 0 or self.n_nominal < 0 or self.n_numeric + self.n_nominal < 1:
            raise ValueError("need at least one attribute")
        if self.n_nominal > 0 and self.n_categories < 2:
            raise ValueError("nominal attributes need at least 2 categories")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if not 0.0 <= self.category_bias <= 1.0:
            raise ValueError("category_bias must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SyntheticData:
    dataset: Dataset
    blob_of: np.ndarray          # ground-truth blob index per instance
    realized_irs: tuple[float, ...]


def _category_probs(preferred: int, n_categories: int, bias: float) -> np.ndarray:
    p = np.full(n_categories, (1.0 - bias) / (n_categories - 1))
    p[preferred] = bias
    return p


def gen_synthetic(cfg: SyntheticConfig = SyntheticConfig()) -> SyntheticData:
    """Deterministic synthetic imbalanced dataset.

    Blob b centers at (b * spacing, ...) in numeric space with Gaussian
    noise; the positive share of blob b is round(size / (1 + ir)).  Nominal
    attribute j prefers category j mod c for negatives and (j+1) mod c for
    positives, with `category_bias` probability on the preferred category.
    Rows are globally shuffled; the blob index of every row is returned.
    """
    rng = np.random.default_rng(cfg.seed)
    total = sum(cfg.blob_sizes)
    n_attrs = cfg.n_numeric + cfg.n_nominal
    values = np.zeros((total, n_attrs))
    labels = np.zeros(total, dtype=np.int8)
    blob_of = np.zeros(total, dtype=np.int64)
    row = 0
    realized = []
    for b, (size, ir) in enumerate(zip(cfg.blob_sizes, cfg.blob_irs)):
        n_pos = max(1, round(size / (1.0 + ir)))
        n_neg = size - n_pos
        if n_neg < 1:
            raise ValueError(f"blob {b}: imbalance ratio {ir} leaves no negatives")
        realized.append(n_neg / n_pos)
        sl = slice(row, row + size)
        blob_of[sl] = b
        labels[row : row + n_pos] = 1
        center = float(b * cfg.blob_spacing)
        for j in range(cfg.n_numeric):
            col = np.full(size, center)
            if cfg.noise > 0:
                col += rng.normal(0.0, cfg.noise, size)
            values[sl, j] = col
        for j in range(cfg.n_nominal):
            col = cfg.n_numeric + j
            pref_neg = j % cfg.n_categories
            pref_pos = (j + 1) % cfg.n_categories
            pos_rows = np.arange(row, row + n_pos)
            neg_rows = np.arange(row + n_pos, row + size)
            values[pos_rows, col] = rng.choice(
                cfg.n_categories, size=n_pos, p=_category_probs(pref_pos, cfg.n_categories, cfg.category_bias)
            )
            values[neg_rows, col] = rng.choice(
                cfg.n_categories, size=n_neg, p=_category_probs(pref_neg, cfg.n_categories, cfg.category_bias)
            )
        row += size
    perm = rng.permutation(total)
    attrs = [AttributeSpec(f"x{j}", NUMERIC) for j in range(cfg.n_numeric)]
    categories = tuple(f"k{c}" for c in range(cfg.n_categories))
    attrs += [AttributeSpec(f"c{j}", NOMINAL, categories) for j in range(cfg.n_nominal)]
    schema = DatasetSchema(tuple(attrs), "class", "neg", "pos")
    dataset = Dataset(schema, values[perm], labels[perm])
    return SyntheticData(dataset, blob_of[perm], tuple(realized))
