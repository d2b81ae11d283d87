from __future__ import annotations

import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crus.dataset import (
    NOMINAL,
    NUMERIC,
    AttributeSpec,
    DataError,
    Dataset,
    DatasetSchema,
    imbalance_ratio,
    stratified_kfold,
)
from crus.clustering import kmeans_fit
from crus.evaluation import (
    ClassifierSpec,
    SamplerSpec,
    SyntheticConfig,
    _fit_splits,
    apply_sampler,
    fit_classifier,
    gen_synthetic,
    run_cv,
    run_cv_clustered,
    run_experiment,
    run_sampler,
)
from crus.metrics import combine_reports, compute_report
from crus.modelfile import model_to_text
from crus.seeds import derive_seed
from crus.trees import DecisionTree


def constant_attribute_dataset(n_pos=10, n_neg=90):
    """One constant attribute: any tree collapses to a majority leaf."""
    schema = DatasetSchema((AttributeSpec("f0", NUMERIC),), "y", "neg", "pos")
    values = np.zeros((n_pos + n_neg, 1))
    labels = np.concatenate([np.ones(n_pos, dtype=np.int8), np.zeros(n_neg, dtype=np.int8)])
    return Dataset(schema, values, labels)


def small_imbalanced_dataset(rng, n_pos=30, n_neg=170):
    schema = DatasetSchema(
        (AttributeSpec("f0", NUMERIC), AttributeSpec("f1", NUMERIC)), "y", "neg", "pos"
    )
    pos = rng.normal(2.0, 1.0, (n_pos, 2))
    neg = rng.normal(0.0, 1.0, (n_neg, 2))
    values = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int8), np.zeros(n_neg, dtype=np.int8)])
    perm = rng.permutation(len(labels))
    return Dataset(schema, values[perm], labels[perm])


def test_classifier_spec_validation():
    with pytest.raises(ValueError):
        ClassifierSpec(method="svm")


def test_sampler_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(method="oss")
    with pytest.raises(ValueError):
        SamplerSpec(method="clustering_rus")
    with pytest.raises(ValueError):
        SamplerSpec(method="clustering_rus", threshold=5.0, reduction_fraction=0.3)
    SamplerSpec(method="clustering_rus", threshold=5.0)
    SamplerSpec(method="clustering_rus", reduction_fraction=0.3)


def test_majority_leaf_baseline_metrics():
    d = constant_attribute_dataset()
    res = run_cv(d, ClassifierSpec("tree"), SamplerSpec("none"), k=10, seed=0)
    assert res.pooled.accuracy == pytest.approx(0.9)
    assert res.pooled.recall_pos == 0.0
    assert res.pooled.g_mean == 0.0


def test_run_cv_fold_structure():
    rng = np.random.default_rng(0)
    d = small_imbalanced_dataset(rng)
    res = run_cv(d, ClassifierSpec("tree"), k=5, seed=1)
    assert len(res.folds) == 5
    seen = np.concatenate([f.test_indices for f in res.folds])
    assert np.array_equal(np.sort(seen), np.arange(len(d)))
    for f in res.folds:
        assert f.truth.size == f.test_indices.size == f.predicted.size == f.scores.size
        assert np.intersect1d(f.train_indices, f.test_indices).size == 0
        assert f.group == "n/a"


def test_smote_leakage_oracle():
    rng = np.random.default_rng(1)
    d = small_imbalanced_dataset(rng)
    res = run_cv(d, ClassifierSpec("tree"), SamplerSpec("smote", percentage=200.0), k=5, seed=2)
    for f in res.folds:
        # synthetic rows exist only in training material, never in a test fold
        assert f.n_synthetic_train > 0
        assert np.all(f.test_indices >= 0)
        assert np.intersect1d(f.train_indices, f.test_indices).size == 0


def test_rus_training_shrinks_but_tests_everything():
    rng = np.random.default_rng(2)
    d = small_imbalanced_dataset(rng)
    res = run_cv(d, ClassifierSpec("tree"), SamplerSpec("rus", spread=1.0), k=5, seed=3)
    total_tested = sum(f.test_indices.size for f in res.folds)
    assert total_tested == len(d)
    for f in res.folds:
        assert f.train_indices.size < len(d) - f.test_indices.size


FOLD_SAMPLERS = (
    SamplerSpec(),
    SamplerSpec(method="rus", spread=1.0),
    SamplerSpec(method="smote", percentage=150.0, k_neighbors=2),
    SamplerSpec(method="clustering_rus", reduction_fraction=0.0, cluster_k=2),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_no_fold_trains_on_its_test_rows(data):
    k = data.draw(st.integers(2, 4), label="k")
    n_pos = data.draw(st.integers(6, 15), label="n_pos")
    n_neg = data.draw(st.integers(n_pos + 4, 45), label="n_neg")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    schema = DatasetSchema((AttributeSpec("f0", NUMERIC), AttributeSpec("c", NOMINAL, ("a", "b"))), "y", "neg", "pos")
    values = np.column_stack([rng.normal(0.0, 1.0, n_pos + n_neg), rng.integers(0, 2, n_pos + n_neg)])
    labels = np.repeat(np.array([1, 0], dtype=np.int8), [n_pos, n_neg])
    d = Dataset(schema, values, labels)
    split = stratified_kfold(d, k, seed=3)
    for sampler in FOLD_SAMPLERS:
        for f in range(k):
            test_idx = split.test_indices(f)
            [(run,)], _ = run_sampler(d, split, [f], [ClassifierSpec("tree")], sampler, seed=11)
            assert not isinstance(run, ValueError), run
            for part in run.parts:
                assert part.train_indices.min() >= 0
                assert np.intersect1d(part.train_indices, test_idx).size == 0
                n_minority = int(d.labels[split.train_indices(f)].sum())
                synthetic = math.floor(sampler.percentage / 100 * n_minority) if sampler.method == "smote" else 0
                assert part.n_synthetic_train == synthetic


def test_run_cv_determinism():
    rng = np.random.default_rng(3)
    d = small_imbalanced_dataset(rng)
    spec = ClassifierSpec("bagging", n_members=5)
    a = run_cv(d, spec, SamplerSpec("rus"), k=5, seed=7)
    b = run_cv(d, spec, SamplerSpec("rus"), k=5, seed=7)
    for fa, fb in zip(a.folds, b.folds):
        assert np.array_equal(fa.predicted, fb.predicted)
        assert np.array_equal(fa.scores, fb.scores)
        assert np.array_equal(fa.train_indices, fb.train_indices)
    assert a.pooled == b.pooled
    c = run_cv(d, spec, SamplerSpec("rus"), k=5, seed=8)
    assert any(
        not np.array_equal(fa.train_indices, fc.train_indices)
        for fa, fc in zip(a.folds, c.folds)
    )


def test_pooled_accuracy_is_weighted_fold_mean():
    rng = np.random.default_rng(4)
    d = small_imbalanced_dataset(rng)
    res = run_cv(d, ClassifierSpec("tree"), k=7, seed=4)
    counts = np.array([f.test_indices.size for f in res.folds], dtype=np.float64)
    accs = np.array([f.report.accuracy for f in res.folds])
    assert res.pooled.accuracy == pytest.approx(
        float((accs * counts).sum() / counts.sum()), abs=1e-12
    )


def test_run_cv_rejects_clustering_sampler():
    d = constant_attribute_dataset()
    with pytest.raises(ValueError):
        run_cv(d, ClassifierSpec("tree"), SamplerSpec("clustering_rus", threshold=5.0))
    with pytest.raises(ValueError):
        run_cv_clustered(d, ClassifierSpec("tree"), SamplerSpec("rus"))


def test_run_experiment_dispatch():
    cfg = SyntheticConfig(blob_sizes=(60, 140), blob_irs=(2.0, 5.0), seed=0)
    d = gen_synthetic(cfg).dataset
    plain = run_experiment(d, ClassifierSpec("tree"), SamplerSpec("none"), k=4, seed=0)
    assert {f.group for f in plain.folds} == {"n/a"}
    clustered = run_experiment(
        d,
        ClassifierSpec("tree"),
        SamplerSpec("clustering_rus", threshold=3.0, cluster_k=2),
        k=4,
        seed=0,
    )
    assert {f.group for f in clustered.folds} <= {"low_IR_group", "high_IR_group"}


def test_clustered_high_threshold_equals_plain_run():
    """Nothing flagged: the grouped pipeline reduces to one model per fold."""
    cfg = SyntheticConfig(blob_sizes=(80, 120), blob_irs=(2.0, 6.0), seed=1)
    d = gen_synthetic(cfg).dataset
    base = run_cv(d, ClassifierSpec("tree"), SamplerSpec("none"), k=5, seed=9)
    clustered = run_cv_clustered(
        d,
        ClassifierSpec("tree"),
        SamplerSpec("clustering_rus", threshold=1000.0, cluster_k=2),
        k=5,
        seed=9,
    )
    base_by_row = {}
    for f in base.folds:
        for row, p, s in zip(f.test_indices, f.predicted, f.scores):
            base_by_row[int(row)] = (int(p), float(s))
    for f in clustered.folds:
        for row, p, s in zip(f.test_indices, f.predicted, f.scores):
            assert base_by_row[int(row)] == (int(p), float(s))
    assert clustered.pooled == base.pooled


def test_clustered_groups_partition_each_fold():
    cfg = SyntheticConfig(blob_sizes=(100, 300), blob_irs=(2.0, 12.0), seed=2)
    d = gen_synthetic(cfg).dataset
    res = run_cv_clustered(
        d,
        ClassifierSpec("tree"),
        SamplerSpec("clustering_rus", threshold=6.0, cluster_k=2),
        k=5,
        seed=5,
    )
    assert len(res.fold_reports) == 5
    per_fold: dict[int, list] = {}
    for f in res.folds:
        per_fold.setdefault(f.fold, []).append(f)
    all_rows = []
    for fold_id, parts in per_fold.items():
        rows = np.concatenate([p.test_indices for p in parts])
        assert np.unique(rows).size == rows.size
        all_rows.append(rows)
        assert {p.group for p in parts} <= {"low_IR_group", "high_IR_group"}
    assert np.array_equal(np.sort(np.concatenate(all_rows)), np.arange(len(d)))


def test_clustered_fold_report_is_test_count_weighted():
    cfg = SyntheticConfig(blob_sizes=(100, 300), blob_irs=(2.0, 12.0), seed=3)
    d = gen_synthetic(cfg).dataset
    res = run_cv_clustered(
        d,
        ClassifierSpec("tree"),
        SamplerSpec("clustering_rus", threshold=6.0, cluster_k=2),
        k=5,
        seed=6,
    )
    per_fold: dict[int, list] = {}
    for f in res.folds:
        per_fold.setdefault(f.fold, []).append(f)
    for fold_id, parts in per_fold.items():
        counts = np.array([p.test_indices.size for p in parts], dtype=np.float64)
        accs = np.array([p.report.accuracy for p in parts])
        expected = float((accs * counts).sum() / counts.sum())
        assert res.fold_reports[fold_id].accuracy == pytest.approx(expected, abs=1e-12)


def pure_negative_blob_dataset(rng):
    """A mixed blob near the origin and a far blob without any minority."""
    schema = DatasetSchema(
        (AttributeSpec("f0", NUMERIC), AttributeSpec("f1", NUMERIC)), "y", "neg", "pos"
    )
    values = np.vstack([rng.normal(0.0, 1.0, (100, 2)), rng.normal(50.0, 1.0, (60, 2))])
    labels = np.concatenate([(np.arange(100) < 40).astype(np.int8), np.zeros(60, dtype=np.int8)])
    return Dataset(schema, values, labels)


def test_group_without_model_falls_back_to_other_group():
    """The pure-negative cluster is flagged (infinite ratio), then dropped for
    lack of minority; its test rows are scored by the low group's model."""
    d = pure_negative_blob_dataset(np.random.default_rng(8))
    sampler = SamplerSpec("clustering_rus", threshold=5.0, cluster_k=2)
    res = run_cv_clustered(d, ClassifierSpec("tree"), sampler, k=4, seed=3)
    for f in range(4):
        parts = {fr.group: fr for fr in res.folds if fr.fold == f}
        assert set(parts) == {"low_IR_group", "high_IR_group"}
        high, low = parts["high_IR_group"], parts["low_IR_group"]
        assert np.all(d.labels[high.test_indices] == 0) and high.test_indices.size > 0
        assert (
            f"fold {f}: flagged clusters contain no minority instances; "
            "undersampling keeps nothing and the group is dropped"
        ) in res.warnings
        assert (
            f"fold {f}: no training data for high_IR_group; "
            f"its {high.test_indices.size} test instances use the low_IR_group model"
        ) in res.warnings
        assert np.array_equal(high.train_indices, low.train_indices)
    rows = np.concatenate([fr.test_indices for fr in res.folds])
    assert np.array_equal(np.sort(rows), np.arange(len(d)))
    scores = np.concatenate([fr.scores for fr in res.folds])
    assert scores.size == len(d) and np.all((scores >= 0) & (scores <= 1))


def test_fit_pipeline_plain_sampler_is_one_group():
    d = small_imbalanced_dataset(np.random.default_rng(10))
    sampler = SamplerSpec("smote", percentage=100.0)
    [(pipe,)] = _fit_splits(d, [(np.arange(len(d)), (1, 2, 3))], [ClassifierSpec("tree")], sampler)
    assert pipe.partition is None and list(pipe.groups) == ["n/a"]
    group = pipe.groups["n/a"]
    assert group.n_synthetic == int(d.n_positive)
    assert np.array_equal(group.train_ids, np.arange(len(d)))
    [(name, model_group, mask)] = pipe.route(d.values[:7])
    assert (name, model_group) == ("n/a", "n/a") and mask.all() and mask.size == 7


@pytest.mark.parametrize(
    "sampler",
    [
        SamplerSpec("smote", percentage=200.0, k_neighbors=3),
        SamplerSpec("rus", spread=2.0),
        SamplerSpec("clustering_rus", threshold=10.0, cluster_k=2),
    ],
    ids=lambda s: s.method,
)
def test_fit_splits_equals_one_fit_per_classifier(sampler):
    """Fitting every classifier on one resampled set gives the models that
    resampling again for each classifier gives."""
    d = gen_synthetic(SyntheticConfig(blob_sizes=(100, 300), blob_irs=(2.0, 20.0), seed=4)).dataset
    classifiers = [
        ClassifierSpec("tree"),
        ClassifierSpec("random_forest", n_members=3),
        ClassifierSpec("adaboost", n_members=3),
    ]
    one_split = [(np.arange(len(d)), (11, 12, 13))]
    (shared,) = _fit_splits(d, one_split, classifiers, sampler)
    assert len(shared) == len(classifiers)
    for classifier, pipe in zip(classifiers, shared):
        [(alone,)] = _fit_splits(d, one_split, [classifier], sampler)
        assert pipe.warnings == alone.warnings
        assert list(pipe.groups) == list(alone.groups)
        for name, group in pipe.groups.items():
            other = alone.groups[name]
            assert model_to_text(group.model) == model_to_text(other.model)
            assert np.array_equal(group.train_ids, other.train_ids)
            assert group.n_synthetic == other.n_synthetic
        if sampler.method == "clustering_rus":
            assert np.array_equal(pipe.partition.model.centroids, alone.partition.model.centroids)
            assert pipe.partition.flagged == alone.partition.flagged
            assert any(pipe.partition.flagged)
        else:
            assert pipe.partition is None and alone.partition is None
    if sampler.method == "smote":
        assert shared[0].groups["n/a"].n_synthetic == 2 * d.n_positive


def test_fit_splits_returns_a_classifier_failure_in_its_place(monkeypatch):
    import crus.evaluation as evaluation

    real = evaluation.classifier_requests

    def requests(d, idx, spec, seed):
        if spec.method == "bagging":
            raise ValueError("bagging refused")
        return real(d, idx, spec, seed)

    monkeypatch.setattr(evaluation, "classifier_requests", requests)
    d = small_imbalanced_dataset(np.random.default_rng(10))
    classifiers = [ClassifierSpec("tree"), ClassifierSpec("bagging", n_members=3), ClassifierSpec("tree")]
    one_split = [(np.arange(len(d)), (1, 2, 3))]
    [(tree, bag, tree_again)] = _fit_splits(d, one_split, classifiers, SamplerSpec("rus"))
    assert isinstance(bag, ValueError) and str(bag) == "bagging refused"
    assert model_to_text(tree.groups["n/a"].model) == model_to_text(tree_again.groups["n/a"].model)
    [(alone,)] = _fit_splits(d, one_split, classifiers[1:2], SamplerSpec("rus"))
    assert isinstance(alone, ValueError) and str(alone) == "bagging refused"


def conflicting_pair_dataset(seed=0):
    """Attributes an unpruned tree separates, plus one pair of identical
    rows with different labels: AdaBoost stops after a perfect first round
    in a fold that trains on one row of the pair, and goes on in a fold
    that trains on both."""
    rng = np.random.default_rng(seed)
    schema = DatasetSchema(
        (AttributeSpec("x0", NUMERIC), AttributeSpec("x1", NUMERIC), AttributeSpec("c", NOMINAL, ("a", "b", "c"))),
        "y", "neg", "pos",
    )
    values = np.column_stack([rng.normal(size=90), rng.normal(size=90), rng.integers(0, 3, 90)])
    labels = (values[:, 0] + 0.5 * values[:, 2] + rng.normal(0, 0.3, 90) > 1.2).astype(np.int8)
    return Dataset(schema, np.vstack([values, values[:1], values[:1]]), np.append(labels, [1, 0]))


# every classifier kind; unpruned AdaBoost stops early in some folds of conflicting_pair_dataset
EVERY_CLASSIFIER = [
    ClassifierSpec("tree"),
    ClassifierSpec("random_tree"),
    ClassifierSpec("bagging", n_members=3),
    ClassifierSpec("adaboost", n_members=4, use_pruning=False, min_leaf_weight=1.0),
    ClassifierSpec("random_forest", n_members=3),
    ClassifierSpec("random_committee", n_members=2),
]


def fold_seeds(seed, f):
    return tuple(derive_seed(seed, step, f) for step in ("sampler", "cluster", "classifier"))


def assert_same_run(a, b):
    """Two fold entries of run_sampler are equal: the same error, or equal FoldRuns."""
    if isinstance(a, ValueError) or isinstance(b, ValueError):
        assert (type(a), str(a)) == (type(b), str(b))
        return
    assert repr(a.report) == repr(b.report) and a.warnings == b.warnings
    assert len(a.parts) == len(b.parts)
    for p, q in zip(a.parts, b.parts):
        assert (p.fold, p.group, p.n_synthetic_train, repr(p.report)) == (q.fold, q.group, q.n_synthetic_train, repr(q.report))
        for field in ("truth", "predicted", "scores", "test_indices", "train_indices"):
            assert np.array_equal(getattr(p, field), getattr(q, field)), field


@pytest.mark.parametrize(
    "sampler",
    [
        SamplerSpec("none"),
        SamplerSpec("rus", spread=2.0),
        SamplerSpec("smote", percentage=100.0, k_neighbors=3),
        SamplerSpec("clustering_rus", threshold=2.0, cluster_k=2, spread=1.0),
    ],
    ids=lambda s: s.method,
)
def test_run_sampler_equals_each_fold_alone(sampler):
    """Growing every fold's trees in one lockstep changes no model and no
    fold result, AdaBoost included where it stops at different rounds."""
    d = conflicting_pair_dataset()
    split = stratified_kfold(d, 5, derive_seed(3, "folds"))
    together, _ = run_sampler(d, split, range(5), EVERY_CLASSIFIER, sampler, seed=3)
    assert len(together) == 5
    for f, runs in enumerate(together):
        [fold], _ = run_sampler(d, split, [f], EVERY_CLASSIFIER, sampler, seed=3)
        for run, alone in zip(runs, fold, strict=True):
            assert not isinstance(run, ValueError), run
            assert_same_run(run, alone)

    splits = [(split.train_indices(f), fold_seeds(3, f)) for f in range(5)]
    rounds = set()
    for f, pipes in enumerate(_fit_splits(d, splits, EVERY_CLASSIFIER, sampler)):
        idx = split.train_indices(f)
        (alone,) = _fit_splits(d.subset(idx), [(np.arange(len(idx)), fold_seeds(3, f))], EVERY_CLASSIFIER, sampler)
        for spec, pipe, other in zip(EVERY_CLASSIFIER, pipes, alone, strict=True):
            assert list(pipe.groups) == list(other.groups) and pipe.warnings == other.warnings
            for name, group in pipe.groups.items():
                assert model_to_text(group.model) == model_to_text(other.groups[name].model)
                assert np.array_equal(group.train_ids, other.groups[name].train_ids)
                assert group.n_synthetic == other.groups[name].n_synthetic
                if spec.method == "adaboost":
                    rounds.add(len(group.model.epsilons))
    assert len(rounds) > 1


@pytest.mark.parametrize(
    "sampler",
    [
        SamplerSpec("none"),
        SamplerSpec("smote", percentage=100.0, k_neighbors=3),
        SamplerSpec("clustering_rus", threshold=2.0, cluster_k=2, spread=1.0),
    ],
    ids=lambda s: s.method,
)
def test_run_sampler_refit_grows_with_the_folds_and_equals_the_refit_alone(sampler):
    """The refit, grown in the folds' lockstep, gives the models that
    fitting all rows alone with the "final" seeds gives, and no fold
    result changes."""
    d = conflicting_pair_dataset()
    split = stratified_kfold(d, 5, derive_seed(3, "folds"))
    runs, pipes = run_sampler(d, split, [1, 2], EVERY_CLASSIFIER, sampler, seed=3, refit=True)
    for got, want in zip(runs, run_sampler(d, split, [1, 2], EVERY_CLASSIFIER, sampler, seed=3)[0], strict=True):
        for run, alone in zip(got, want, strict=True):
            assert_same_run(run, alone)
    final = tuple(derive_seed(3, "final", step) for step in ("sampler", "cluster", "classifier"))
    (alone,) = _fit_splits(d, [(np.arange(len(d)), final)], EVERY_CLASSIFIER, sampler)
    for pipe, other in zip(pipes, alone, strict=True):
        assert list(pipe.groups) == list(other.groups) and pipe.warnings == other.warnings
        for name, group in pipe.groups.items():
            assert model_to_text(group.model) == model_to_text(other.groups[name].model)
            assert np.array_equal(group.train_ids, other.groups[name].train_ids)
            assert group.n_synthetic == other.groups[name].n_synthetic
        if sampler.method == "clustering_rus":
            assert np.array_equal(pipe.partition.model.centroids, other.partition.model.centroids)
    assert run_sampler(d, split, [1, 2], EVERY_CLASSIFIER, sampler, seed=3)[1] is None


def test_run_sampler_refit_failure_is_every_classifiers_entry(monkeypatch):
    import crus.evaluation as evaluation

    d = conflicting_pair_dataset()
    split = stratified_kfold(d, 5, derive_seed(3, "folds"))
    real = evaluation.apply_sampler

    def apply_sampler(train, spec, seed):
        if seed == derive_seed(3, "final", "sampler"):
            raise DataError("refit refused")
        return real(train, spec, seed)

    monkeypatch.setattr(evaluation, "apply_sampler", apply_sampler)
    runs, pipes = run_sampler(d, split, [0], EVERY_CLASSIFIER[:2], SamplerSpec("rus"), seed=3, refit=True)
    assert not any(isinstance(run, ValueError) for run in runs[0])
    assert [str(p) for p in pipes] == ["refit refused"] * 2


def test_run_sampler_keeps_each_failure_in_its_own_entry(monkeypatch):
    import crus.evaluation as evaluation

    d = conflicting_pair_dataset()
    split = stratified_kfold(d, 5, derive_seed(3, "folds"))
    classifiers = [ClassifierSpec("tree"), ClassifierSpec("bagging", n_members=3), EVERY_CLASSIFIER[3]]
    sampler = SamplerSpec("rus", spread=2.0)
    expected, _ = run_sampler(d, split, range(5), classifiers, sampler, seed=3)
    real_requests, real_sampler = evaluation.classifier_requests, evaluation.apply_sampler
    bagging_fold, failing_fold = 1, 3

    def requests(d, idx, spec, seed):
        if spec.method == "bagging" and seed == fold_seeds(3, bagging_fold)[2]:
            raise ValueError("bagging refused")
        return real_requests(d, idx, spec, seed)

    def apply_sampler(train, spec, seed):
        if seed == fold_seeds(3, failing_fold)[0]:
            raise DataError("fold refused")
        return real_sampler(train, spec, seed)

    monkeypatch.setattr(evaluation, "classifier_requests", requests)
    monkeypatch.setattr(evaluation, "apply_sampler", apply_sampler)
    got, _ = run_sampler(d, split, range(5), classifiers, sampler, seed=3)
    for f, (runs, want) in enumerate(zip(got, expected)):
        for c, (run, ref) in enumerate(zip(runs, want, strict=True)):
            if f == failing_fold:
                assert isinstance(run, DataError) and str(run) == "fold refused"
            elif (f, c) == (bagging_fold, 1):
                assert isinstance(run, ValueError) and str(run) == "bagging refused"
            else:
                assert_same_run(run, ref)


@pytest.mark.parametrize("wave", [5, 2, 1])
def test_one_sampler_task_grows_each_request_round_with_one_call(monkeypatch, wave):
    """The folds of a wave grow their trees, forest members and AdaBoost
    round r in one fit_trees call, so a wave makes as many calls as its
    folds' most AdaBoost rounds.  A wave holds as many folds as fill one
    growth group of trees._GROUP_ROWS rows with their first requests."""
    import crus.ensembles as ensembles
    from crus import trees

    d = conflicting_pair_dataset()
    split = stratified_kfold(d, 5, derive_seed(3, "folds"))
    classifiers = [ClassifierSpec("tree"), ClassifierSpec("random_forest", n_members=3), EVERY_CLASSIFIER[3]]
    first_rows = max(split.train_indices(f).size for f in range(5)) * (1 + 3 + 1)
    monkeypatch.setattr(trees, "_GROUP_ROWS", wave * first_rows)
    grown = []  # a weak reference to every tree grown here

    class Tracked(DecisionTree):
        def __init__(self, *args):
            super().__init__(*args)
            grown.append(weakref.ref(self))

    live = []  # the trees alive at each fit_trees call
    real = ensembles.fit_trees

    def fit_trees(*args):
        live.append(sum(ref() is not None for ref in grown))
        return real(*args)

    monkeypatch.setattr(trees, "DecisionTree", Tracked)
    monkeypatch.setattr(ensembles, "fit_trees", fit_trees)
    together, _ = run_sampler(d, split, range(5), classifiers, SamplerSpec("none"), seed=3)
    n_calls = len(live)
    rounds = []
    for f in range(5):
        idx = split.train_indices(f)
        one_split = [(np.arange(len(idx)), fold_seeds(3, f))]
        [(boost,)] = _fit_splits(d.subset(idx), one_split, classifiers[2:], SamplerSpec("none"))
        rounds.append(len(boost.groups["n/a"].model.epsilons))
    assert len(set(rounds)) > 1
    wave_calls = [max(rounds[lo:lo + wave]) for lo in range(0, 5, wave)]
    assert n_calls == sum(wave_calls)
    # no model of an earlier wave is alive when a wave starts growing
    firsts = list(itertools.accumulate(wave_calls, initial=0))[:-1]
    assert {live[i] for i in firsts} == {live[0]}
    for f, runs in enumerate(together):
        [fold], _ = run_sampler(d, split, [f], classifiers, SamplerSpec("none"), seed=3)
        for run, alone in zip(runs, fold, strict=True):
            assert_same_run(run, alone)


def test_weighted_group_combination_fixture():
    truth_a = np.concatenate([np.ones(40, dtype=np.int8), np.zeros(40, dtype=np.int8)])
    pred_a = truth_a.copy()
    pred_a[:4] = 0
    pred_a[40:44] = 1
    report_a = compute_report(truth_a, pred_a, pred_a.astype(np.float64))
    truth_b = np.concatenate([np.ones(10, dtype=np.int8), np.zeros(10, dtype=np.int8)])
    pred_b = truth_b.copy()
    pred_b[:2] = 0
    pred_b[10:12] = 1
    report_b = compute_report(truth_b, pred_b, pred_b.astype(np.float64))
    assert report_a.accuracy == pytest.approx(0.9)
    assert report_b.accuracy == pytest.approx(0.8)
    combined = combine_reports([report_a, report_b], weights=[80.0, 20.0])
    assert combined.accuracy == pytest.approx(0.88)


def test_clustered_improves_minority_recall_in_high_ir_region():
    cfg = SyntheticConfig(
        blob_sizes=(150, 850),
        blob_irs=(2.0, 20.0),
        n_numeric=6,
        n_nominal=2,
        n_categories=2,
        noise=0.0,
        category_bias=0.8,
        seed=4,
    )
    synth = gen_synthetic(cfg)
    d = synth.dataset
    clf = ClassifierSpec("bagging", n_members=10)
    base = run_cv(d, clf, SamplerSpec("none"), k=5, seed=11)
    clustered = run_cv_clustered(
        d,
        clf,
        SamplerSpec("clustering_rus", spread=4.0, threshold=10.0, cluster_k=2),
        k=5,
        seed=11,
    )

    def high_region_recall(res):
        hits = total = 0
        for f in res.folds:
            in_region = synth.blob_of[f.test_indices] == 1
            pos = f.truth == 1
            total += int((in_region & pos).sum())
            hits += int((in_region & pos & (f.predicted == 1)).sum())
        return hits / total

    assert high_region_recall(clustered) > high_region_recall(base)


def test_apply_sampler_dispatch():
    rng = np.random.default_rng(5)
    d = small_imbalanced_dataset(rng)
    assert apply_sampler(d, SamplerSpec("none"), 0) is d
    rus = apply_sampler(d, SamplerSpec("rus", spread=1.0), 0)
    assert len(rus) < len(d)
    smote = apply_sampler(d, SamplerSpec("smote", percentage=100.0), 0)
    assert len(smote) > len(d)
    with pytest.raises(ValueError):
        apply_sampler(d, SamplerSpec("clustering_rus", threshold=2.0), 0)


def test_fit_classifier_methods_smoke():
    rng = np.random.default_rng(6)
    d = small_imbalanced_dataset(rng, n_pos=25, n_neg=75)
    for method in ("tree", "random_tree", "bagging", "adaboost", "random_forest", "random_committee"):
        model = fit_classifier(d, ClassifierSpec(method, n_members=3), seed=1)
        labels, scores = model.predict_batch(d.values[:10])
        assert labels.shape == (10,)
        assert np.all((scores >= 0) & (scores <= 1))


def test_gen_synthetic_deterministic():
    cfg = SyntheticConfig(seed=42)
    a = gen_synthetic(cfg)
    b = gen_synthetic(cfg)
    assert np.array_equal(a.dataset.values, b.dataset.values)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    assert np.array_equal(a.blob_of, b.blob_of)
    c = gen_synthetic(SyntheticConfig(seed=43))
    assert not np.array_equal(a.dataset.values, c.dataset.values)


def test_gen_synthetic_default_global_ir():
    d = gen_synthetic(SyntheticConfig()).dataset
    assert imbalance_ratio(d) == pytest.approx(4.26, abs=0.02)


def test_gen_synthetic_realized_irs_and_blob_structure():
    cfg = SyntheticConfig(blob_sizes=(300, 700), blob_irs=(3.0, 15.0), seed=7)
    synth = gen_synthetic(cfg)
    assert synth.realized_irs[0] == pytest.approx(3.0, abs=0.05)
    assert synth.realized_irs[1] == pytest.approx(15.0, abs=0.35)
    d = synth.dataset
    for b, size in enumerate(cfg.blob_sizes):
        rows = synth.blob_of == b
        assert int(rows.sum()) == size
        assert float(d.values[rows, 0].mean()) == pytest.approx(b * cfg.blob_spacing, abs=0.3)


def test_gen_synthetic_zero_noise_blobs_are_recoverable():
    cfg = SyntheticConfig(noise=0.0, seed=8)
    synth = gen_synthetic(cfg)
    model = kmeans_fit(synth.dataset, 2, seed=0)
    assigned = model.assign(synth.dataset.values)
    agree = (assigned == synth.blob_of).mean()
    assert max(agree, 1 - agree) >= 0.99


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(blob_sizes=(100,), blob_irs=(2.0, 3.0))
    with pytest.raises(ValueError):
        SyntheticConfig(blob_sizes=(1, 100), blob_irs=(2.0, 3.0))
    with pytest.raises(ValueError):
        SyntheticConfig(blob_irs=(0.5, 3.0))
    with pytest.raises(ValueError):
        SyntheticConfig(n_numeric=0, n_nominal=0)
    with pytest.raises(ValueError):
        SyntheticConfig(n_categories=1)
    with pytest.raises(ValueError):
        SyntheticConfig(noise=-1.0)
    with pytest.raises(ValueError):
        SyntheticConfig(category_bias=1.5)
