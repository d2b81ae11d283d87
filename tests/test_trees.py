from __future__ import annotations

import math

import numpy as np
import pytest

from crus.dataset import NOMINAL, NUMERIC, AttributeSpec, DataError, Dataset, DatasetSchema
from crus.trees import (
    DecisionTree,
    TreeConfig,
    default_subspace_size,
    export_rules,
    fit_random_tree,
    fit_tree,
    gain_ratio,
    load_tree,
    save_tree,
)


def make_dataset(columns, kinds, labels, categories=None):
    attrs = []
    for i, kind in enumerate(kinds):
        if kind == NOMINAL:
            cats = categories[i] if categories else ("a", "b", "c")
            attrs.append(AttributeSpec(f"f{i}", NOMINAL, cats))
        else:
            attrs.append(AttributeSpec(f"f{i}", NUMERIC))
    schema = DatasetSchema(tuple(attrs), "y", "neg", "pos")
    values = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    return Dataset(schema, values, np.asarray(labels, dtype=np.int8))


def random_consistent_dataset(rng, n=60, n_numeric=3, n_nominal=2):
    cols = [rng.uniform(0, 1, n) for _ in range(n_numeric)]
    cols += [rng.integers(0, 3, n).astype(float) for _ in range(n_nominal)]
    kinds = [NUMERIC] * n_numeric + [NOMINAL] * n_nominal
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return make_dataset(cols, kinds, labels)


def test_gain_ratio_perfect_nominal_split():
    d = make_dataset([[0, 0, 1, 1]], [NOMINAL], [1, 1, 0, 0])
    assert gain_ratio(d, 0) == pytest.approx(1.0)


def test_gain_ratio_hand_computed_nominal():
    # y: 2 pos in branch a, branch b pure negative
    d = make_dataset([[0, 0, 0, 1, 1, 1]], [NOMINAL], [1, 1, 0, 0, 0, 0])
    h = lambda p: 0.0 if p in (0, 1) else -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    gain = h(2 / 6) - 0.5 * h(2 / 3)
    assert gain_ratio(d, 0) == pytest.approx(gain / 1.0)


def test_gain_ratio_numeric_requires_threshold():
    d = make_dataset([[1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 0, 1, 1])
    with pytest.raises(ValueError):
        gain_ratio(d, 0)
    assert gain_ratio(d, 0, threshold=2.5) == pytest.approx(1.0)
    # threshold outside the value range does not partition -> unusable
    assert gain_ratio(d, 0, threshold=9.0) is None


def test_gain_ratio_constant_attribute_unusable():
    d = make_dataset([[0, 0, 0, 0]], [NOMINAL], [1, 0, 1, 0])
    assert gain_ratio(d, 0) is None


def test_gain_ratio_respects_weights():
    d = make_dataset([[1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 0, 1, 1])
    dup = make_dataset([[1.0, 1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 0, 0, 1, 1])
    weighted = gain_ratio(d, 0, threshold=2.5, weights=np.array([2.0, 1.0, 1.0, 1.0]))
    assert weighted == pytest.approx(gain_ratio(dup, 0, threshold=2.5))


def test_numeric_threshold_is_midpoint():
    d = make_dataset([[1.0, 3.0, 5.0, 7.0]], [NUMERIC], [0, 0, 1, 1])
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert tree.root.threshold == pytest.approx(4.0)


def test_tie_breaks_prefer_lowest_attribute_then_threshold():
    # two identical perfect attributes -> attribute 0 wins
    col = [1.0, 2.0, 3.0, 4.0]
    d = make_dataset([col, col], [NUMERIC, NUMERIC], [0, 0, 1, 1])
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert tree.root.attribute == 0
    # two equally good thresholds on one attribute -> the lower one wins
    d2 = make_dataset([[1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 1, 0, 1])
    tree2 = fit_tree(d2, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert tree2.root.threshold == pytest.approx(1.5)


def test_min_leaf_weight_blocks_small_splits():
    d = make_dataset([[1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 0, 1, 1])
    blocked = fit_tree(d, TreeConfig(min_leaf_weight=3.0, use_pruning=False))
    assert blocked.root.is_leaf
    allowed = fit_tree(d, TreeConfig(min_leaf_weight=2.0, use_pruning=False))
    assert not allowed.root.is_leaf


def test_leaf_tie_predicts_negative():
    d = make_dataset([[1.0, 1.0]], [NUMERIC], [1, 0])
    tree = fit_tree(d, TreeConfig(use_pruning=False))
    assert tree.root.is_leaf
    labels, probs = tree.predict_batch(np.array([[1.0]]))
    assert labels[0] == 0
    assert probs[0] == pytest.approx(0.5)


def test_xor_learned_exactly():
    d = make_dataset(
        [[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]],
        [NUMERIC, NUMERIC],
        [0, 1, 1, 0],
    )
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    pred, _ = tree.predict_batch(d.values)
    assert np.array_equal(pred, d.labels)


def test_consistent_data_perfect_training_accuracy():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = random_consistent_dataset(rng)
        tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
        pred, _ = tree.predict_batch(d.values)
        assert np.array_equal(pred, d.labels)


def test_pruning_never_increases_nodes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = random_consistent_dataset(rng, n=80)
        unpruned = fit_tree(d, TreeConfig(min_leaf_weight=2.0, use_pruning=False))
        pruned = fit_tree(d, TreeConfig(min_leaf_weight=2.0, use_pruning=True))
        assert pruned.n_nodes() <= unpruned.n_nodes()


def test_pruning_collapses_noise_leaves():
    # nearly constant-class data with one stray label: the pessimistic
    # estimate prefers the single leaf
    rng = np.random.default_rng(0)
    n = 40
    d = make_dataset([rng.uniform(0, 1, n)], [NUMERIC], [1] + [0] * (n - 1))
    pruned = fit_tree(d, TreeConfig(min_leaf_weight=2.0, use_pruning=True))
    assert pruned.root.is_leaf


def test_fit_tree_weighted_equals_duplicated():
    d = make_dataset([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]], [NUMERIC], [0, 0, 0, 1, 1, 0])
    w = np.array([1.0, 2.0, 1.0, 3.0, 1.0, 1.0])
    rows = np.repeat(np.arange(6), w.astype(int))
    dup = d.subset(rows)
    t_w = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False), weights=w)
    t_dup = fit_tree(dup, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert export_rules(t_w) == export_rules(t_dup)


def test_fit_tree_input_validation():
    d = make_dataset([[1.0, 2.0]], [NUMERIC], [0, 1])
    with pytest.raises(ValueError):
        fit_tree(d.subset(np.array([], dtype=np.int64)), TreeConfig())
    with pytest.raises(ValueError):
        fit_tree(d, TreeConfig(), weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        fit_tree(d, TreeConfig(), weights=np.ones(3))
    with pytest.raises(ValueError):
        TreeConfig(confidence_factor=0.6)


def test_nominal_unseen_category_uses_fallback():
    d = make_dataset(
        [[0, 0, 0, 1, 1]],
        [NOMINAL],
        [1, 1, 1, 0, 0],
        categories={0: ("a", "b", "c")},
    )
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert not tree.root.is_leaf
    assert sorted(tree.root.children) == [0, 1]  # only observed categories
    # category c (index 2) was never seen; routed to the heaviest child (a)
    assert tree.predict_batch(np.array([[2.0]]))[0][0] == 1


def test_export_rules_shapes():
    d_leaf = make_dataset([[1.0, 2.0]], [NUMERIC], [0, 0])
    tree_leaf = fit_tree(d_leaf, TreeConfig(use_pruning=False))
    assert export_rules(tree_leaf) == ["IF TRUE THEN y = neg"]
    d = make_dataset([[1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 0, 1, 1])
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    rules = export_rules(tree)
    assert len(rules) == tree.n_leaves()
    assert rules[0] == "IF f0 <= 2.5 THEN y = neg"
    assert rules[1] == "IF f0 > 2.5 THEN y = pos"


def scalar_predict(tree: DecisionTree, x: np.ndarray) -> tuple[int, float]:
    """Reference walk: (class, probability of positive) for one row."""
    node = tree.root
    while not node.is_leaf:
        if node.threshold is not None:
            node = node.left if x[node.attribute] <= node.threshold else node.right
        else:
            cat = int(x[node.attribute])
            node = node.children.get(cat) or node.children[node.fallback]
    return node.leaf_label(), node.leaf_probability()


def test_predict_batch_matches_scalar_predict():
    rng = np.random.default_rng(12)
    d = random_consistent_dataset(rng, n=100)
    tree = fit_tree(d, TreeConfig(min_leaf_weight=2.0, use_pruning=True))
    labels, scores = tree.predict_batch(d.values)
    for i in range(len(d)):
        label, prob = scalar_predict(tree, d.values[i])
        assert labels[i] == label
        assert scores[i] == pytest.approx(prob)
    assert np.all((scores >= 0) & (scores <= 1))
    assert np.array_equal(labels, (scores > 0.5).astype(labels.dtype))


def test_random_tree_deterministic_per_seed():
    rng = np.random.default_rng(9)
    d = random_consistent_dataset(rng, n=80, n_numeric=6, n_nominal=2)
    t1 = fit_random_tree(d, seed=5)
    t2 = fit_random_tree(d, seed=5)
    assert export_rules(t1) == export_rules(t2)
    # across several seeds the subspace choice must actually vary
    variants = {tuple(export_rules(fit_random_tree(d, seed=s))) for s in range(5)}
    assert len(variants) > 1


def test_random_tree_is_unpruned_even_if_asked():
    rng = np.random.default_rng(4)
    d = random_consistent_dataset(rng, n=50)
    t = fit_random_tree(d, seed=0, cfg=TreeConfig(use_pruning=True))
    assert t.config.use_pruning is False
    assert t.config.random_subspace_size == default_subspace_size(len(d.schema.attributes))


def test_default_subspace_size():
    assert default_subspace_size(1) == 1
    assert default_subspace_size(2) == 2
    assert default_subspace_size(8) == 4
    assert default_subspace_size(1000) == 10
    with pytest.raises(ValueError):
        default_subspace_size(0)


def test_tree_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    d = random_consistent_dataset(rng, n=70)
    tree = fit_tree(d, TreeConfig(min_leaf_weight=2.0, use_pruning=True))
    path = tmp_path / "tree.json"
    save_tree(tree, path)
    loaded = load_tree(path)
    assert isinstance(loaded, DecisionTree)
    assert export_rules(loaded) == export_rules(tree)
    p1, s1 = tree.predict_batch(d.values)
    p2, s2 = loaded.predict_batch(d.values)
    assert np.array_equal(p1, p2)
    assert np.allclose(s1, s2)
    save_tree(loaded, tmp_path / "tree2.json")
    assert (tmp_path / "tree.json").read_bytes() == (tmp_path / "tree2.json").read_bytes()
