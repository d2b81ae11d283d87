from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from crus import trees
from crus.dataset import NOMINAL, NUMERIC, AttributeSpec, Dataset, DatasetSchema
from crus.ensembles import (
    PERFECT_MEMBER_WEIGHT,
    EnsembleConfig,
    EnsembleModel,
    _bootstrap_indices,
    adaboost_requests,
    bagging_requests,
    fit_adaboost,
    fit_bagging,
    fit_random_committee,
    fit_random_forest,
    fit_together,
    theoretical_ensemble_accuracy,
    tree_requests,
)
from crus.modelfile import model_from_text, model_to_text
from crus.seeds import derive_seed, rng_for
from crus.trees import DecisionTree, TreeConfig, TreeNode, fit_tree, random_tree_config


def make_dataset(columns, kinds, labels, categories=("a", "b", "c")):
    attrs = []
    for i, kind in enumerate(kinds):
        if kind == NOMINAL:
            attrs.append(AttributeSpec(f"f{i}", NOMINAL, categories))
        else:
            attrs.append(AttributeSpec(f"f{i}", NUMERIC))
    schema = DatasetSchema(tuple(attrs), "y", "neg", "pos")
    values = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    return Dataset(schema, values, np.asarray(labels, dtype=np.int8))


def separable_dataset(rng, n=120):
    x = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(8, 1, n // 2)])
    y = np.concatenate([np.zeros(n // 2, dtype=np.int8), np.ones(n // 2, dtype=np.int8)])
    z = rng.uniform(0, 1, n)
    perm = rng.permutation(n)
    return make_dataset([x[perm], z[perm]], [NUMERIC, NUMERIC], y[perm])


def leaf_tree(schema, neg_weight, pos_weight):
    node = TreeNode(class_weights=np.array([neg_weight, pos_weight], dtype=np.float64))
    return DecisionTree(schema, [node], TreeConfig())


SCHEMA_1D = DatasetSchema((AttributeSpec("f0", NUMERIC),), "y", "neg", "pos")


def vote(labels, weights=None):
    """The class a voting ensemble of leaves with these labels gives a row."""
    members = [leaf_tree(SCHEMA_1D, 1.0 - v, float(v)) for v in labels]
    w = np.ones(len(labels)) if weights is None else np.asarray(weights, dtype=np.float64)
    classes, _ = EnsembleModel("bagging", members, w, "vote", 0).predict_batch(np.array([[0.0]]))
    return int(classes[0])


def test_majority_vote_basics():
    assert vote([1, 1, 0]) == 1
    assert vote([1, 0]) == 0  # tie elects negative
    assert vote([1, 0, 1], weights=[0.2, 0.9, 0.3]) == 0
    assert vote([0], weights=[0.0]) == 0
    # all weights zero (a degenerate boosting run): unit votes decide
    assert vote([1], weights=[0.0]) == 1


def brute_force_majority_accuracy(p, n_members):
    total = 0.0
    for outcome in itertools.product([0, 1], repeat=n_members):
        correct = sum(outcome)
        prob = p**correct * (1 - p) ** (n_members - correct)
        if correct > n_members - correct:
            total += prob
    return total


def test_theoretical_accuracy_fixtures():
    assert theoretical_ensemble_accuracy(0.7, 1) == pytest.approx(0.7)
    assert theoretical_ensemble_accuracy(0.6, 3) == pytest.approx(0.648)
    for L in (1, 3, 5, 7):
        assert theoretical_ensemble_accuracy(0.5, L) == pytest.approx(0.5)


def test_theoretical_accuracy_matches_enumeration():
    for L in (1, 3, 5, 7, 9):
        for p in (0.1, 0.35, 0.5, 0.62, 0.9):
            assert theoretical_ensemble_accuracy(p, L) == pytest.approx(
                brute_force_majority_accuracy(p, L), abs=1e-12
            )


def test_theoretical_accuracy_monotone_in_members():
    for p, sign in ((0.7, 1), (0.3, -1)):
        vals = [theoretical_ensemble_accuracy(p, L) for L in (1, 3, 5, 7, 9, 11)]
        diffs = np.diff(vals) * sign
        assert np.all(diffs > 0)


def test_theoretical_accuracy_validation():
    with pytest.raises(ValueError):
        theoretical_ensemble_accuracy(0.6, 2)
    with pytest.raises(ValueError):
        theoretical_ensemble_accuracy(0.6, 0)
    with pytest.raises(ValueError):
        theoretical_ensemble_accuracy(1.2, 3)


def test_bootstrap_distinct_fraction():
    fracs = []
    for i in range(100):
        rng = np.random.default_rng(derive_seed(0, "bootstrap", i))
        idx = _bootstrap_indices(1000, rng)
        assert idx.size == 1000
        fracs.append(np.unique(idx).size / 1000.0)
    assert abs(float(np.mean(fracs)) - (1 - 1 / math.e)) < 0.02


def test_bagging_single_member_equals_its_tree():
    rng = np.random.default_rng(0)
    d = separable_dataset(rng)
    model = fit_bagging(d, EnsembleConfig(n_members=1, seed=3))
    labels, scores = model.predict_batch(d.values)
    tree_labels, _ = model.members[0].predict_batch(d.values)
    assert np.array_equal(labels, tree_labels)
    assert set(np.unique(scores)) <= {0.0, 1.0}


def test_bagging_deterministic_and_diverse():
    rng = np.random.default_rng(1)
    d = separable_dataset(rng)
    a = fit_bagging(d, EnsembleConfig(n_members=5, seed=7))
    b = fit_bagging(d, EnsembleConfig(n_members=5, seed=7))
    assert model_to_text(a) == model_to_text(b)
    c = fit_bagging(d, EnsembleConfig(n_members=5, seed=8))
    assert model_to_text(a) != model_to_text(c)


def test_random_forest_oob_fields_and_accuracy():
    rng = np.random.default_rng(2)
    train = separable_dataset(rng, n=200)
    test = separable_dataset(rng, n=100)
    model = fit_random_forest(train, EnsembleConfig(n_members=50, seed=0))
    assert model.oob_coverage is not None and model.oob_coverage >= 0.99
    assert model.oob_error is not None and 0.0 <= model.oob_error < 0.2
    rf_labels, _ = model.predict_batch(test.values)
    single = fit_tree(train, random_tree_config(0, train.schema.n_attributes))
    tree_labels, _ = single.predict_batch(test.values)
    rf_acc = float(np.mean(rf_labels == test.labels))
    tree_acc = float(np.mean(tree_labels == test.labels))
    assert rf_acc >= tree_acc - 1e-12
    # members are unpruned random trees regardless of the base config
    assert all(not m.config.use_pruning for m in model.members)
    assert all(m.config.random_subspace_size == 2 for m in model.members)


def test_random_forest_single_member_votes_like_its_tree():
    rng = np.random.default_rng(3)
    d = separable_dataset(rng)
    model = fit_random_forest(d, EnsembleConfig(n_members=1, seed=5))
    labels, _ = model.predict_batch(d.values)
    tree_labels, _ = model.members[0].predict_batch(d.values)
    assert np.array_equal(labels, tree_labels)


def test_adaboost_hand_trace_is_exact():
    d = Dataset(
        SCHEMA_1D,
        np.array([[1.0], [2.0], [3.0], [4.0]]),
        np.array([1, 1, 0, 1], dtype=np.int8),
    )
    model = fit_adaboost(d, EnsembleConfig(n_members=1, base=TreeConfig(use_pruning=False)))
    assert model.epsilons == (0.25,)
    assert model.betas == (1 / 3,)
    assert model.member_weights[0] == math.log(3.0)
    round2 = model.weight_history[1]
    assert round2[3] == 0.5
    assert all(w == 1 / 6 for w in round2[:3])
    labels, _ = model.members[0].predict_batch(d.values)
    assert np.flatnonzero(labels != d.labels).tolist() == [3]


def test_adaboost_perfect_member_stops_with_capped_weight():
    rng = np.random.default_rng(4)
    d = separable_dataset(rng)
    model = fit_adaboost(d, EnsembleConfig(n_members=10, base=TreeConfig(use_pruning=False)))
    assert len(model.members) == 1
    assert model.member_weights[0] == PERFECT_MEMBER_WEIGHT
    assert model.betas == (0.0,)
    labels, _ = model.predict_batch(d.values)
    assert np.array_equal(labels, d.labels)


def test_adaboost_useless_first_member_kept_with_zero_weight():
    d = Dataset(
        SCHEMA_1D,
        np.array([[1.0], [2.0], [3.0], [4.0]]),
        np.array([0, 1, 1, 0], dtype=np.int8),
    )
    model = fit_adaboost(d, EnsembleConfig(n_members=5, base=TreeConfig(use_pruning=False)))
    assert len(model.members) == 1
    assert model.member_weights[0] == 0.0
    assert any(">= 0.5" in w for w in model.warnings)
    # unit-vote fallback still yields the member's own predictions
    labels, _ = model.predict_batch(d.values)
    tree_labels, _ = model.members[0].predict_batch(d.values)
    assert np.array_equal(labels, tree_labels)


def test_adaboost_distributions_stay_normalized():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 80)
    y = (x + rng.normal(0, 0.3, 80) > 0.5).astype(np.int8)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    d = make_dataset([x], [NUMERIC], y)
    model = fit_adaboost(d, EnsembleConfig(n_members=8))
    for dist in model.weight_history:
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist >= 0)
    assert np.all(model.member_weights >= 0)


def test_random_committee_seeds_and_average():
    rng = np.random.default_rng(6)
    d = separable_dataset(rng)
    model = fit_random_committee(d, EnsembleConfig(n_members=4, seed=10))
    assert [m.config.seed for m in model.members] == [10, 11, 12, 13]
    again = fit_random_committee(d, EnsembleConfig(n_members=4, seed=10))
    assert model_to_text(model) == model_to_text(again)
    # mean probability drives the score
    _, scores = model.predict_batch(d.values[:5])
    per_member = np.stack([m.predict_batch(d.values[:5])[1] for m in model.members])
    assert np.allclose(scores, per_member.mean(axis=0))


def members_one_by_one(d, method, cfg):
    """Each member fitted alone with its seeds, on its bootstrap sample as a dataset of its own."""
    n_members = cfg.resolve_members(default=10)
    n = d.schema.n_attributes
    if method == "random_committee":
        return [fit_tree(d, random_tree_config(cfg.seed + i, n, cfg.base)) for i in range(n_members)]
    members = []
    for i in range(n_members):
        sample = d.subset(_bootstrap_indices(len(d), rng_for(cfg.seed, "bootstrap", i)))
        seed = derive_seed(cfg.seed, "tree", i)
        if method == "bagging":
            members.append(fit_tree(sample, replace(cfg.base, seed=seed)))
        else:
            members.append(fit_tree(sample, random_tree_config(seed, n, cfg.base)))
    return members


def lockstep_case(style, rng, n=80):
    if style == "separable":
        return separable_dataset(rng, n)
    if style == "tied-and-constant":
        cols = [rng.integers(0, 3, n), np.full(n, 2.5), rng.normal(0, 1, n).round(1), rng.integers(0, 3, n)]
        labels = (cols[0] + rng.normal(0, 1, n) > 1.5).astype(np.int8)
        return make_dataset(cols, [NUMERIC, NUMERIC, NUMERIC, NOMINAL], labels)
    cols = [rng.integers(0, 3, n) for _ in range(3)]
    labels = ((cols[0] == 1) ^ (rng.random(n) < 0.2)).astype(np.int8)
    return make_dataset(cols, [NOMINAL] * 3, labels)


# 200 rows grow the 80-row members of an ensemble two at a time
@pytest.mark.parametrize("group_rows", [trees._GROUP_ROWS, 200])
@pytest.mark.parametrize("style", ["separable", "tied-and-constant", "nominal-only"])
@pytest.mark.parametrize("n_members", [1, 50])
@pytest.mark.parametrize("fit, method", [(fit_bagging, "bagging"), (fit_random_forest, "random_forest"),
                                         (fit_random_committee, "random_committee")])
def test_members_grown_together_equal_members_grown_alone(monkeypatch, fit, method, n_members, style, group_rows):
    monkeypatch.setattr(trees, "_GROUP_ROWS", group_rows)
    rng = np.random.default_rng(n_members)
    d = lockstep_case(style, rng)
    for base in (TreeConfig(), TreeConfig(min_leaf_weight=1.0, random_subspace_size=2, use_pruning=False)):
        cfg = EnsembleConfig(n_members=n_members, base=base, seed=n_members + 4)
        model = fit(d, cfg)
        alone = members_one_by_one(d, method, cfg)
        assert [model_to_text(m) for m in model.members] == [model_to_text(m) for m in alone]


def test_fit_together_keeps_a_failing_sequence_to_itself():
    """A sequence that fails after its first round stops alone; the others,
    AdaBoost's later rounds included, finish as they would alone."""
    d = lockstep_case("tied-and-constant", np.random.default_rng(5))
    rows = np.arange(10, len(d))
    cfg = EnsembleConfig(n_members=4, base=TreeConfig(use_pruning=False, min_leaf_weight=1.0), seed=2)

    def failing():
        yield [(rows, np.ones(rows.size), TreeConfig())]
        raise ValueError("round 2 refused")

    boost, failed, bag, tree = fit_together(
        d, [adaboost_requests(d, rows, cfg), failing(), bagging_requests(d, rows, cfg), tree_requests(rows, TreeConfig())]
    )
    assert isinstance(failed, ValueError) and str(failed) == "round 2 refused"
    assert len(boost.epsilons) > 2
    sub = d.subset(rows)
    assert model_to_text(boost) == model_to_text(fit_adaboost(sub, cfg))
    assert model_to_text(bag) == model_to_text(fit_bagging(sub, cfg))
    assert model_to_text(tree) == model_to_text(fit_tree(sub, TreeConfig()))


def test_ensemble_growth_stays_within_its_memory_bounds(monkeypatch):
    # each group of trees holds at most _GROUP_ROWS rows, and each scoring
    # block at most _BLOCK_CELLS cells, unless one tree or row is larger
    monkeypatch.setattr(trees, "_GROUP_ROWS", 1000)
    groups, numeric_cells, nominal_cells = [], [], []
    grow, numeric_block, nominal_ratios = trees._grow, trees._numeric_block, trees._nominal_ratios

    def record_grow(d, columns, members):
        groups.append((len(members), sum(idx.size for idx, _, _ in members)))
        return grow(d, columns, members)

    def record_numeric(C, *args):
        numeric_cells.append((C.shape[0], C.size))
        return numeric_block(C, *args)

    def record_nominal(key, w, w_pos, n_categories, min_leaf):
        nominal_cells.append((n_categories.size, key.size + n_categories.size * int(n_categories.max())))
        return nominal_ratios(key, w, w_pos, n_categories, min_leaf)

    monkeypatch.setattr(trees, "_grow", record_grow)
    monkeypatch.setattr(trees, "_numeric_block", record_numeric)
    monkeypatch.setattr(trees, "_nominal_ratios", record_nominal)
    rng = np.random.default_rng(11)
    n = 300
    cols = [rng.normal(0, 1, n), rng.integers(0, 40, n), rng.integers(0, 3, n), rng.uniform(0, 1, n)]
    labels = ((cols[0] > 0.3) ^ (rng.random(n) < 0.2)).astype(np.int8)
    d = make_dataset(cols, [NUMERIC, NOMINAL, NOMINAL, NUMERIC], labels, categories=tuple(f"c{i}" for i in range(40)))
    fit_random_forest(d, EnsembleConfig(n_members=30, seed=1))
    fit_random_committee(d, EnsembleConfig(n_members=7, seed=1))
    assert len(groups) == 10 + 3 and all(rows <= 1000 for _, rows in groups)
    assert all(cells <= trees._BLOCK_CELLS for _, cells in numeric_cells + nominal_cells)
    assert max(groups + numeric_cells)[0] > 1 and max(nominal_cells)[0] > 1


def node_depths(tree):
    """The depth of each node of tree.nodes, in list order."""
    depths, stack = [], [0]  # the depth of each subtree to come, the next one's last
    for node in tree.nodes:
        depths.append(stack.pop())
        stack.extend([depths[-1] + 1] * node.n_children)
    return depths


@pytest.mark.parametrize("fit", [fit_random_committee, fit_random_forest])
def test_random_subspace_members_grow_one_level_per_scoring_call(monkeypatch, fit):
    # subspaces are drawn in level order, so one call scores every open
    # node of a depth level, over all members of the group
    batches = []
    gain_ratios = trees._gain_ratios

    def count(d, columns, idx, w, sizes, candidates, min_leaf):
        batches.append(sizes.size)
        return gain_ratios(d, columns, idx, w, sizes, candidates, min_leaf)

    monkeypatch.setattr(trees, "_gain_ratios", count)
    d = lockstep_case("tied-and-constant", np.random.default_rng(3), n=200)
    assert 8 * len(d) <= trees._GROUP_ROWS  # one group
    model = fit(d, EnsembleConfig(n_members=8, seed=5))
    nodes = [(node, depth) for tree in model.members for node, depth in zip(tree.nodes, node_depths(tree))]
    open_depths = [depth for node, depth in nodes if node.class_weights.all()]
    assert sum(batches) == len(open_depths)
    assert len(batches) == len(set(open_depths)) <= max(depth for _, depth in nodes) + 1
    assert len(batches) < len(open_depths)



@pytest.mark.parametrize("fit", [fit_random_forest, fit_adaboost])
def test_each_growth_step_splits_all_its_nodes_with_one_call(monkeypatch, fit):
    # every node a scoring call scores is split, or left a leaf, by one
    # _split_level call right after it; no node is split anywhere else
    scored, stepped, splits = [], [], []
    gain_ratios, split_level = trees._gain_ratios, trees._split_level

    def score(d, columns, idx, w, sizes, candidates, min_leaf):
        scored.append(sizes.size)
        return gain_ratios(d, columns, idx, w, sizes, candidates, min_leaf)

    def split_step(d, columns, nodes, first_child, level, ratios, thresholds):
        stepped.append(level.sizes.size)
        splits.append(int((ratios.max(axis=1) > -np.inf).sum()))
        return split_level(d, columns, nodes, first_child, level, ratios, thresholds)

    monkeypatch.setattr(trees, "_gain_ratios", score)
    monkeypatch.setattr(trees, "_split_level", split_step)
    d = lockstep_case("tied-and-constant", np.random.default_rng(7), n=200)
    cfg = EnsembleConfig(n_members=50 if fit is fit_random_forest else 10, seed=3,
                         base=TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    model = fit(d, cfg)
    nodes = [node for tree in model.members for node in tree.nodes]
    assert stepped == scored and len(scored) < sum(scored)
    assert sum(scored) == sum(1 for node in nodes if node.class_weights.all())
    assert sum(splits) == sum(1 for node in nodes if not node.is_leaf)

def test_committee_mean_probability_fixture():
    members = [leaf_tree(SCHEMA_1D, 1.0, 9.0), leaf_tree(SCHEMA_1D, 8.0, 2.0)]
    model = EnsembleModel("random_committee", members, np.ones(2), "average", 0)
    labels, scores = model.predict_batch(np.array([[0.0]]))
    assert scores[0] == pytest.approx(0.55)
    assert labels[0] == 1


def test_predict_ensemble_vote_fixtures():
    agree = EnsembleModel(
        "bagging", [leaf_tree(SCHEMA_1D, 0.0, 5.0)] * 3, np.ones(3), "vote", 0
    )
    labels, scores = agree.predict_batch(np.array([[1.0]]))
    assert (labels[0], scores[0]) == (1, 1.0)

    mixed = EnsembleModel(
        "bagging",
        [leaf_tree(SCHEMA_1D, 0.0, 5.0), leaf_tree(SCHEMA_1D, 0.0, 5.0), leaf_tree(SCHEMA_1D, 5.0, 0.0)],
        np.ones(3),
        "vote",
        0,
    )
    labels, scores = mixed.predict_batch(np.array([[1.0]]))
    assert labels[0] == 1 and scores[0] == pytest.approx(2 / 3)

    boosted = EnsembleModel(
        "adaboost",
        [leaf_tree(SCHEMA_1D, 0.0, 5.0), leaf_tree(SCHEMA_1D, 5.0, 0.0), leaf_tree(SCHEMA_1D, 5.0, 0.0)],
        np.array([1.1, 0.4, 0.4]),
        "vote",
        0,
    )
    labels, scores = boosted.predict_batch(np.array([[1.0]]))
    assert labels[0] == 1 and scores[0] == pytest.approx(1.1 / 1.9)


def test_ensemble_score_tie_elects_negative():
    model = EnsembleModel(
        "bagging",
        [leaf_tree(SCHEMA_1D, 0.0, 5.0), leaf_tree(SCHEMA_1D, 5.0, 0.0)],
        np.ones(2),
        "vote",
        0,
    )
    labels, scores = model.predict_batch(np.array([[1.0]]))
    assert scores[0] == 0.5 and labels[0] == 0


def test_ensemble_doc_validation():
    rng = np.random.default_rng(7)
    model = fit_bagging(separable_dataset(rng), EnsembleConfig(n_members=2, seed=2))
    text = model_to_text(model)
    assert model_to_text(model_from_text(text)) == text
    # predict_batch zips weights with members, so a short list would drop members
    short = text.replace('"member_weights": [\n  1.0,\n  1.0\n ]', '"member_weights": [\n  1.0\n ]')
    with pytest.raises(ValueError, match="2 members but member_weights"):
        model_from_text(short)
    with pytest.raises(ValueError, match="unknown combine 'median'"):
        model_from_text(text.replace('"combine": "vote"', '"combine": "median"'))


def test_ensemble_member_count_validation():
    rng = np.random.default_rng(8)
    d = separable_dataset(rng)
    with pytest.raises(ValueError):
        fit_bagging(d, EnsembleConfig(n_members=0))
