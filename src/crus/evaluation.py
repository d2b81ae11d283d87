"""Cross-validated evaluation of sampler/classifier pipelines.

One pipeline fits every model: it resamples each training set once and
fits one model per group for each classifier, so every classifier of a
sampler trains on the same resampled set.  The plain samplers give the
single group "n/a"; cluster-aware undersampling fits the cluster
partition on the training set alone, undersamples the flagged group and
routes instances by nearest centroid.  The resampled sets are row maps
into one task dataset, the data followed by every split's synthetic
rows, and the trees of every (split, classifier, group) grow in one
lockstep (`ensembles.fit_together`).  `run_sampler` is the one fold
runner: it runs any folds of one sampler that way and, when asked, its
refit, one more split on the full dataset.  `cv_result` assembles a
cell's folds, and `run_experiment` is one cell: every fold of one
sampler with one classifier.  Folds are created before any resampling
and the pipeline sees only each training split, so synthetic or dropped
instances never touch a test fold.  A fold's report is the test-count
weighted average of its group reports.  The CLI runs
`run_sampler` per sampler or chunk of its folds, with the `--save-models`
refit in the sampler's first chunk.

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
from collections.abc import Iterator, Sequence
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
from . import trees
from .ensembles import (
    DEFAULT_MEMBERS,
    EnsembleConfig,
    EnsembleModel,
    Requests,
    adaboost_requests,
    bagging_requests,
    fit_alone,
    fit_together,
    random_committee_requests,
    random_forest_requests,
    tree_requests,
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
from .trees import DecisionTree, TreeConfig, random_tree_config

# Not called here: the benchmark tracer (perfbench/tracer.py) patches these names.
from .ensembles import fit_adaboost, fit_bagging, fit_random_committee, fit_random_forest  # noqa: F401
from .trees import fit_tree  # noqa: F401

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


def _number_hint(v: object) -> str:
    """For text that reads as a finite number, such as 1e300 (which YAML
    reads as text, since its mantissa has no dot and its exponent no sign),
    a hint giving the form YAML reads as a number; else ''."""
    try:
        x = float(v) if isinstance(v, str) else math.nan
    except ValueError:
        return ""
    if not math.isfinite(x):
        return ""
    mantissa, e, exponent = repr(x).partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    return f"; YAML reads {v} as text: write it as {mantissa}{e}{exponent}"


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
                hint = _number_hint(v) if kind is numbers.Real else ""
                raise ValueError(f"'{name}' must be {what}, got {v!r}{hint}")
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


def classifier_requests(d: Dataset, idx: np.ndarray, spec: ClassifierSpec, seed: int) -> Requests:
    """The request sequence of fit_classifier(d.subset(idx), spec, seed)."""
    base = replace(spec.tree_config, seed=seed)
    if spec.method == "tree":
        return tree_requests(idx, replace(base, random_subspace_size=None))
    if spec.method == "random_tree":
        return tree_requests(idx, random_tree_config(seed, d.schema.n_attributes, base))
    requests = {"bagging": bagging_requests, "adaboost": adaboost_requests, "random_forest": random_forest_requests,
                "random_committee": random_committee_requests}[spec.method]
    return requests(d, idx, EnsembleConfig(n_members=spec.n_members, base=base, seed=seed))


def _first_request_trees(spec: ClassifierSpec) -> int:
    """The trees a classifier's request sequence asks for first."""
    if spec.method in ("tree", "random_tree", "adaboost"):
        return 1
    return spec.n_members if spec.n_members is not None else DEFAULT_MEMBERS[spec.method]


def fit_classifier(train: Dataset, spec: ClassifierSpec, seed: int) -> DecisionTree | EnsembleModel:
    return fit_alone(train, classifier_requests(train, np.arange(len(train)), spec, seed))


def apply_sampler(train: Dataset, spec: SamplerSpec, seed: int) -> Dataset:
    """Resample one training split (not valid for clustering_rus)."""
    if spec.method == "none":
        return train
    if spec.method == "rus":
        return rus_undersample(train, spec.spread, seed)
    if spec.method == "smote":
        return smote_oversample(train, spec.percentage, spec.k_neighbors, seed)
    raise ValueError("clustering_rus trains per-group models; use run_sampler")


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


def _resample(
    d: Dataset, train_idx: np.ndarray, sampler: SamplerSpec, sampler_seed: int, cluster_seed: int, first_new: int
) -> tuple[dict[str, np.ndarray], np.ndarray, ClusterPartition | None, tuple[str, ...]]:
    """Resample the training rows train_idx of d.

    Returns each group's training rows, the values of the synthetic rows
    made here, the cluster partition (clustering_rus only) and the
    warnings.  The rows index d followed by synthetic rows, of which those
    made here start at first_new.
    """
    train = Dataset(d.schema, d.values[train_idx], d.labels[train_idx], train_idx)  # row ids: rows of d
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
    groups, new_rows = {}, []
    for name, g in group_sets.items():
        rows = g.row_ids.copy()
        rows[g.synthetic] = first_new + np.arange(g.synthetic.sum())
        groups[name] = rows
        new_rows.append(g.values[g.synthetic])
    return groups, np.concatenate(new_rows), partition, warnings


def _fit_splits(
    d: Dataset,
    splits: Sequence[tuple[np.ndarray, tuple[int, int, int]]],
    classifiers: Sequence[ClassifierSpec],
    sampler: SamplerSpec,
) -> Iterator[list[PipelineModel | ValueError] | ValueError]:
    """Fit every classifier on each training split of d, the trees of
    many splits growing in one lockstep; yield each split's entry in order.

    Each split is (its rows of d, its sampler, cluster and classifier
    seeds).  Every split is resampled first, into row maps of one task
    dataset: d followed by every split's synthetic rows.  Then the splits
    are fit in waves, each in one lockstep (`_fit_wave`).  Splits whose
    first requests fill a growth group of trees._GROUP_ROWS rows gain
    nothing from growing together but would hold all their models at once,
    so a wave takes only as many splits as fill one group, one at least.
    """
    resampled: list = []  # per split: (groups, partition, warnings), or the error that stopped it
    new_rows = []
    n_rows = len(d)
    for train_idx, (sampler_seed, cluster_seed, _) in splits:
        try:
            groups, new, partition, warnings = _resample(d, train_idx, sampler, sampler_seed, cluster_seed, n_rows)
        except ValueError as exc:
            resampled.append(exc)
            continue
        resampled.append((groups, partition, warnings))
        new_rows.append(new)
        n_rows += len(new)
    n_new = n_rows - len(d)
    task = d if n_new == 0 else Dataset(
        d.schema, np.vstack([d.values, *new_rows]), np.concatenate([d.labels, np.ones(n_new, dtype=np.int8)]),
        np.concatenate([d.row_ids, -1 - np.arange(n_new, dtype=np.int64)]),
    )
    del new_rows  # the task dataset holds them now
    first_rows = max(len(idx) for idx, _ in splits) * sum(_first_request_trees(c) for c in classifiers)
    wave = max(1, trees._GROUP_ROWS // max(1, first_rows))
    for lo in range(0, len(splits), wave):
        seeds = [classifier_seed for _, (*_, classifier_seed) in splits[lo:lo + wave]]
        yield from _fit_wave(task, resampled[lo:lo + wave], seeds, classifiers)


def _fit_wave(
    task: Dataset, resampled: list, classifier_seeds: list[int], classifiers: Sequence[ClassifierSpec]
) -> list[list[PipelineModel | ValueError] | ValueError]:
    """Fit every classifier on each resampled split, every (split,
    classifier, group) fit running in one `fit_together`.

    A split's entry is the DataError or ValueError that stopped its
    resampling, or one entry per classifier: its pipeline, or the first
    error of its group fits.
    """
    models: dict = {}  # (split, classifier, group) -> its model, or the error that stopped it
    fits: dict = {}  # the same keys -> the request sequences still to run
    for j, (r, seed) in enumerate(zip(resampled, classifier_seeds)):
        if isinstance(r, ValueError):
            continue
        for c, spec in enumerate(classifiers):
            for name, rows in r[0].items():
                if rows.size:
                    fit = _outcome(classifier_requests, task, rows, spec, seed)
                    (models if isinstance(fit, ValueError) else fits)[j, c, name] = fit
    models.update(zip(fits, fit_together(task, list(fits.values()))))

    out: list = []
    for j, r in enumerate(resampled):
        if isinstance(r, ValueError):
            out.append(r)
            continue
        groups, partition, warnings = r
        ids = {name: task.row_ids[rows] for name, rows in groups.items() if rows.size}
        pipes: list = []
        for c in range(len(classifiers)):
            fitted = {name: models[j, c, name] for name in ids}
            error = next((m for m in fitted.values() if isinstance(m, ValueError)), None)
            pipes.append(error if error is not None else PipelineModel(
                {name: GroupModel(m, ids[name][ids[name] >= 0], int((ids[name] < 0).sum())) for name, m in fitted.items()},
                warnings, partition,
            ))
        out.append(pipes)
    return out


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


def run_sampler(
    d: Dataset,
    split: FoldSplit,
    folds: Sequence[int],
    classifiers: Sequence[ClassifierSpec],
    sampler: SamplerSpec,
    seed: int = 0,
    beta: float = 1.0,
    refit: bool = False,
) -> tuple[list[list[FoldRun | ValueError]], list[PipelineModel | ValueError] | None]:
    """The given folds of every classifier of one sampler and, if `refit`,
    its refit on all of d: resample each training set once, fit each
    classifier on it, every fold's and the refit's trees growing in
    lockstep (see _fit_splits), and score each fold on its test split.

    Returns one list per fold with one entry per classifier: its FoldRun,
    or the DataError or ValueError that stopped it; and, if `refit`, one
    entry per classifier: its pipeline fit on all of d with the
    derive_seed(seed, "final", ...) seeds, or the error that stopped it,
    else None.  A failure while resampling a training set is every
    classifier's entry of that set.  Each entry equals the one its fold,
    or the refit, gives alone.
    """
    steps = ("sampler", "cluster", "classifier")
    splits = [(split.train_indices(f), tuple(derive_seed(seed, step, f) for step in steps)) for f in folds]
    if refit:  # the last split, as its models are kept until the end
        splits.append((np.arange(len(d)), tuple(derive_seed(seed, "final", step) for step in steps)))
    fitted = _fit_splits(d, splits, classifiers, sampler)
    out = []
    for f in folds:
        pipes = next(fitted)
        if isinstance(pipes, ValueError):
            out.append([pipes] * len(classifiers))
        else:
            test_idx = split.test_indices(f)
            out.append([p if isinstance(p, ValueError) else _outcome(_score_fold, d, test_idx, f, p, beta) for p in pipes])
        del pipes  # no fold's models outlive its scoring while the next wave grows
    if not refit:
        return out, None
    pipes = next(fitted)
    return out, [pipes] * len(classifiers) if isinstance(pipes, ValueError) else pipes


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
    runs = [run for (run,) in run_sampler(d, split, range(k), [classifier], sampler, seed, beta)[0]]
    for run in runs:
        if isinstance(run, ValueError):
            raise run
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
