from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crus.dataset import NOMINAL, NUMERIC, AttributeSpec, DataError, Dataset, DatasetSchema
from crus import trees
from crus.feature_selection import discretize, gain_ratio_rank
from crus.trees import (
    DecisionTree,
    TreeConfig,
    TreeNode,
    _estimated_errors,
    _prune,
    _pruning_z,
    default_subspace_size,
    export_rules,
    fit_tree,
    random_tree_config,
)
from crus.modelfile import _tree_to_doc as tree_to_doc, model_from_text, model_to_text


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


def root_gain_ratio(d):
    """The gain ratio of attribute 0 as the grower scores it at an unweighted root."""
    return {r.index: r.score for r in gain_ratio_rank(d)}[0]


def test_gain_ratio_perfect_nominal_split():
    d = make_dataset([[0, 0, 1, 1]], [NOMINAL], [1, 1, 0, 0])
    assert root_gain_ratio(d) == pytest.approx(1.0)


def test_gain_ratio_hand_computed_nominal():
    # y: 2 pos in branch a, branch b pure negative
    d = make_dataset([[0, 0, 0, 1, 1, 1]], [NOMINAL], [1, 1, 0, 0, 0, 0])
    h = lambda p: 0.0 if p in (0, 1) else -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    gain = h(2 / 6) - 0.5 * h(2 / 3)
    assert root_gain_ratio(d) == pytest.approx(gain / 1.0)


def test_gain_ratio_numeric_scores_its_best_threshold():
    d = make_dataset([[1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 0, 1, 1])
    assert root_gain_ratio(d) == pytest.approx(1.0)
    assert fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False)).nodes[0].threshold == 2.5
    # one cut of four rows, 1 | 3: gain H(1/2) - 3/4 H(1/3) over H(1/4)
    d = make_dataset([[1.0, 2.0, 2.0, 2.0]], [NUMERIC], [0, 0, 1, 1])
    h = lambda p: -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    assert root_gain_ratio(d) == pytest.approx((1.0 - 0.75 * h(1 / 3)) / h(1 / 4))
    # a constant column has no cut
    assert root_gain_ratio(make_dataset([[2.0] * 4], [NUMERIC], [0, 0, 1, 1])) == 0.0


def test_gain_ratio_constant_attribute_unusable():
    d = make_dataset([[0, 0, 0, 0]], [NOMINAL], [1, 0, 1, 0])
    assert root_gain_ratio(d) == 0.0
    assert fit_tree(d, TreeConfig(min_leaf_weight=1.0)).nodes[0].is_leaf


def test_numeric_threshold_is_midpoint():
    d = make_dataset([[1.0, 3.0, 5.0, 7.0]], [NUMERIC], [0, 0, 1, 1])
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert tree.nodes[0].threshold == pytest.approx(4.0)


def test_tie_breaks_prefer_lowest_attribute_then_threshold():
    # two identical perfect attributes -> attribute 0 wins
    col = [1.0, 2.0, 3.0, 4.0]
    d = make_dataset([col, col], [NUMERIC, NUMERIC], [0, 0, 1, 1])
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert tree.nodes[0].attribute == 0
    # two equally good thresholds on one attribute -> the lower one wins
    d2 = make_dataset([[1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 1, 0, 1])
    tree2 = fit_tree(d2, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert tree2.nodes[0].threshold == pytest.approx(1.5)


def test_min_leaf_weight_blocks_small_splits():
    d = make_dataset([[1.0, 2.0, 3.0, 4.0]], [NUMERIC], [0, 0, 1, 1])
    blocked = fit_tree(d, TreeConfig(min_leaf_weight=3.0, use_pruning=False))
    assert blocked.nodes[0].is_leaf
    allowed = fit_tree(d, TreeConfig(min_leaf_weight=2.0, use_pruning=False))
    assert not allowed.nodes[0].is_leaf


def test_leaf_tie_predicts_negative():
    d = make_dataset([[1.0, 1.0]], [NUMERIC], [1, 0])
    tree = fit_tree(d, TreeConfig(use_pruning=False))
    assert tree.nodes[0].is_leaf
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
    assert pruned.nodes[0].is_leaf


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



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_tree_refuses_a_non_finite_weight_naming_its_row(bad):
    # a NaN weight used to grow a one-leaf tree with NaN class weight, and
    # an infinite one only a RuntimeWarning
    rng = np.random.default_rng(0)
    d = make_dataset([rng.normal(0, 1, 40), rng.normal(0, 1, 40)], [NUMERIC, NUMERIC], np.arange(40) % 2)
    w = np.ones(40)
    w[[7, 30]] = bad
    with pytest.raises(ValueError, match=f"instance weights must be finite, got {bad} in row 7$"):
        fit_tree(d, TreeConfig(), weights=w)


@pytest.mark.parametrize("each, total", [(1e304, "9.999999999999999e+305"), (1e307, "inf")])
def test_fit_tree_refuses_weights_whose_entropy_terms_overflow(each, total):
    # 100 finite weights of 1e307 used to total inf and grow a one-node
    # tree with infinite class weights; at 1e304 each the total is finite
    # but total * log2(total) is not, so no cut could be scored
    rng = np.random.default_rng(0)
    d = make_dataset([rng.normal(0, 1, 100)], [NUMERIC], (rng.random(100) < 0.4).astype(np.int8))
    with pytest.raises(ValueError, match=f"^instance weights total {re.escape(total)}, too large for total"):
        fit_tree(d, TreeConfig(), weights=np.full(100, each))
    assert fit_tree(d, TreeConfig(), weights=np.full(100, 1e302)).n_nodes() > 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -2.0])
def test_tree_config_refuses_a_min_leaf_weight_not_positive_and_finite(bad):
    # NaN and inf made every cut inadmissible, so each tree was one leaf
    with pytest.raises(ValueError, match=f"min_leaf_weight must be positive and finite, got {bad}$"):
        TreeConfig(min_leaf_weight=bad)

def test_nominal_unseen_category_uses_fallback():
    d = make_dataset(
        [[0, 0, 0, 1, 1]],
        [NOMINAL],
        [1, 1, 1, 0, 0],
        categories={0: ("a", "b", "c")},
    )
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False))
    assert not tree.nodes[0].is_leaf
    assert tree.nodes[0].categories == (0, 1)  # only observed categories
    # category c (index 2) was never seen; routed to the heaviest child (a)
    assert tree.predict_batch(np.array([[2.0]]))[0][0] == 1


def test_zero_weight_rows_of_unobserved_category_reach_no_child():
    # category c (index 2) holds only a zero-weight row, so the root's
    # nominal split has no child for it.  That row must not join the
    # fallback child (a), where its value 2 would add a cut and move the
    # lowest best threshold from 2.0 to 1.5.
    d = make_dataset(
        [[0, 0, 0, 0, 1, 1, 1, 1, 2], [1, 1, 3, 3, 1, 1, 3, 3, 2]],
        [NOMINAL, NUMERIC],
        [0, 0, 1, 1, 1, 1, 1, 1, 0],
    )
    w = np.array([1.0] * 8 + [0.0])
    tree = fit_tree(d, TreeConfig(min_leaf_weight=1.0, use_pruning=False), weights=w)
    root, first_child = tree.nodes[:2]
    assert (root.attribute, root.categories, root.fallback) == (0, (0, 1), 0)
    assert first_child.threshold == 2.0


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


def child_position(nodes: list[TreeNode], i: int, k: int) -> int:
    """Position in the pre-order list of child k of node i: past k subtrees."""
    j = i + 1
    for _ in range(k):
        pending = 1  # subtrees still to pass
        while pending:
            pending += nodes[j].n_children - 1
            j += 1
    return j


def scalar_predict(tree: DecisionTree, x: np.ndarray) -> tuple[int, float]:
    """Reference walk: (class, probability of positive) for one row."""
    i = 0
    while not tree.nodes[i].is_leaf:
        node = tree.nodes[i]
        if node.threshold is not None:
            k = 0 if x[node.attribute] <= node.threshold else 1
        else:
            cat = int(x[node.attribute])
            k = node.categories.index(cat if cat in node.categories else node.fallback)
        i = child_position(tree.nodes, i, k)
    node = tree.nodes[i]
    return node.leaf_label(), node.leaf_probability()


def test_predict_batch_matches_scalar_predict():
    rng = np.random.default_rng(12)
    d = random_consistent_dataset(rng, n=100)
    tree = fit_tree(d, TreeConfig(min_leaf_weight=2.0, use_pruning=True))
    assert tree.n_nodes() > 5
    labels, scores = tree.predict_batch(d.values)
    for i in range(len(d)):
        label, prob = scalar_predict(tree, d.values[i])
        assert labels[i] == label
        assert scores[i] == pytest.approx(prob)
    assert np.all((scores >= 0) & (scores <= 1))
    assert np.array_equal(labels, (scores > 0.5).astype(labels.dtype))
    # one row and no rows, so most subtrees get none
    one = tree.predict_batch(d.values[7:8])
    assert (one[0].tolist(), one[1].tolist()) == ([labels[7]], [scores[7]])
    none = tree.predict_batch(np.empty((0, d.schema.n_attributes)))
    assert none[0].shape == none[1].shape == (0,)


def test_random_tree_deterministic_per_seed():
    rng = np.random.default_rng(9)
    d = random_consistent_dataset(rng, n=80, n_numeric=6, n_nominal=2)
    n = d.schema.n_attributes
    t1 = fit_tree(d, random_tree_config(5, n))
    t2 = fit_tree(d, random_tree_config(5, n))
    assert export_rules(t1) == export_rules(t2)
    # across several seeds the subspace choice must actually vary
    variants = {tuple(export_rules(fit_tree(d, random_tree_config(s, n)))) for s in range(5)}
    assert len(variants) > 1


def test_random_tree_is_unpruned_even_if_asked():
    rng = np.random.default_rng(4)
    d = random_consistent_dataset(rng, n=50)
    t = fit_tree(d, random_tree_config(0, d.schema.n_attributes, TreeConfig(use_pruning=True)))
    assert t.config.use_pruning is False
    assert t.config.random_subspace_size == default_subspace_size(len(d.schema.attributes))


def test_default_subspace_size():
    assert default_subspace_size(1) == 1
    assert default_subspace_size(2) == 2
    assert default_subspace_size(8) == 4
    assert default_subspace_size(1000) == 10
    with pytest.raises(ValueError):
        default_subspace_size(0)


# Reference split search: the per-attribute scorer, breadth-first grower
# and recursive pruner that numeric blocks and list passes replaced.  They
# build a nested (node, child subtrees) form and flatten it in pre-order.
# The block scorer must reproduce their trees bit for bit.  Every weight
# total is a sequential sum, as in the grower: a node's class weights in
# row order, a numeric attribute's in sorted order, and a nominal
# attribute's over its categories in category order.  Gains and split
# informations are taken times the total weight from x log2 x of raw
# weights, in the grower's order of operations.

def _sequential_sum(values):
    """values added one after another from 0, in order."""
    total = 0.0
    for value in np.asarray(values, dtype=np.float64).tolist():
        total += value
    return total


def _reference_xlogx(x):
    """x * log2(x) elementwise, 0 where x is not positive: a weight W with
    class weights P and N carries W * H = L(W) - L(P) - L(N) bits."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    mask = x > 0
    out[mask] = x[mask] * np.log2(x[mask])
    return out


def _reference_numeric_candidates(vals, y, w, min_leaf):
    order = np.argsort(vals, kind="stable")
    v, yy, ww = vals[order], y[order], w[order]
    cum_w = np.cumsum(ww)
    cum_pos = np.cumsum(ww * (yy == 1))
    total, total_pos = cum_w[-1], cum_pos[-1]
    cut = np.flatnonzero(v[1:] > v[:-1])
    if cut.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    left_w, left_pos = cum_w[cut], cum_pos[cut]
    right_w, right_pos = total - left_w, total_pos - left_pos
    ok = (left_w >= min_leaf) & (right_w >= min_leaf) & (left_w > 0) & (right_w > 0)
    if not np.any(ok):
        return np.empty(0), np.empty(0), np.empty(0)
    left_w, left_pos = left_w[ok], left_pos[ok]
    right_w, right_pos = right_w[ok], right_pos[ok]
    thresholds = (v[cut[ok]] + v[cut[ok] + 1]) / 2.0
    # total * (class entropy less the sides' weighted class entropies), and
    # total * split information
    L = _reference_xlogx
    h_class = L(total) - L(total_pos) - L(total - total_pos)
    h_sides = (L(left_w) - L(left_pos) - L(left_w - left_pos)) + (L(right_w) - L(right_pos) - L(right_w - right_pos))
    return thresholds, h_class - h_sides, L(total) - (L(left_w) + L(right_w))


# The per-node nominal scorer the batched one replaced, its sums sequential.
def _nominal_stats(
    vals: np.ndarray, y: np.ndarray, w: np.ndarray, n_categories: int, min_leaf: float
) -> tuple[float, float, np.ndarray] | None:
    """(total * gain, total * split_info, per-category weight) of the
    multiway split, or None.

    None when fewer than two categories carry weight or fewer than two
    children reach min_leaf.
    """
    cats = vals.astype(np.int64)
    w_tot = np.bincount(cats, weights=w, minlength=n_categories)
    w_pos = np.bincount(cats, weights=w * (y == 1), minlength=n_categories)
    observed = w_tot > 0
    if observed.sum() < 2 or (w_tot >= min_leaf).sum() < 2:
        return None
    total, total_pos = _sequential_sum(w_tot), _sequential_sum(w_pos)
    L = _reference_xlogx
    h_class = L(total) - L(total_pos) - L(total - total_pos)
    h_categories = _sequential_sum(L(w_tot) - L(w_pos) - L(w_tot - w_pos))
    return float(h_class - h_categories), float(L(total) - _sequential_sum(L(w_tot))), w_tot


@dataclass
class _ReferenceGrower:
    d: Dataset
    cfg: TreeConfig
    rng: np.random.Generator | None

    def __post_init__(self) -> None:
        # one contiguous row per attribute, so a block gathers contiguously
        self.columns = np.ascontiguousarray(self.d.values.T)
        self.numeric = self.d.schema.numeric_mask()

    def _candidate_attributes(self, n_attrs: int) -> np.ndarray:
        size = self.cfg.random_subspace_size
        if size is None or self.rng is None:
            return np.arange(n_attrs)
        size = max(1, min(size, n_attrs))
        return np.sort(self.rng.choice(n_attrs, size=size, replace=False))

    def grow(self, idx, w):
        """The tree as (node, list of child subtrees), grown breadth first,
        children in child order, so random subspaces are drawn in level order."""
        root = []
        queue = deque([(root, idx, w)])  # (the list the node joins, its rows, their weights)
        while queue:
            siblings, idx, w = queue.popleft()
            y = self.d.labels[idx]
            cw = np.array([_sequential_sum(w[y == 0]), _sequential_sum(w[y == 1])])
            node, children = TreeNode(class_weights=cw), []
            siblings.append((node, children))
            if cw[0] == 0 or cw[1] == 0:
                continue
            best = self._best_split(idx, w)
            if best is None:
                continue
            attr, threshold = best
            vals = self.d.values[idx, attr]
            node.attribute = attr
            if threshold is not None:
                node.threshold = threshold
                mask = vals <= threshold
                queue += [(children, idx[mask], w[mask]), (children, idx[~mask], w[~mask])]
            else:
                cats = vals.astype(np.int64)
                w_tot = np.bincount(cats, weights=w)
                for cat in np.flatnonzero(w_tot > 0):
                    mask = cats == cat
                    node.categories += (int(cat),)
                    queue.append((children, idx[mask], w[mask]))
                node.fallback = int(np.argmax(w_tot))
        return root[0]

    def _best_split(self, idx, w):
        y = self.d.labels[idx]
        min_leaf = self.cfg.min_leaf_weight
        best_ratio = -np.inf
        best = None
        for attr in self._candidate_attributes(self.d.schema.n_attributes):
            spec = self.d.schema.attributes[attr]
            vals = self.d.values[idx, attr]
            if spec.kind == NUMERIC:
                thresholds, gains, infos = _reference_numeric_candidates(vals, y, w, min_leaf)
                usable = infos > 0
                if not np.any(usable):
                    continue
                ratios = np.where(usable, gains / np.where(usable, infos, 1.0), -np.inf)
                j = int(np.argmax(ratios))
                if ratios[j] > best_ratio:
                    best_ratio = float(ratios[j])
                    best = (int(attr), float(thresholds[j]))
            else:
                stats = _nominal_stats(vals, y, w, len(spec.categories), min_leaf)
                if stats is None:
                    continue
                gain, split_info, _ = stats
                if split_info <= 0:
                    continue
                ratio = gain / split_info
                if ratio > best_ratio:
                    best_ratio = float(ratio)
                    best = (int(attr), None)
        return best


def _reference_prune(tree, z):
    node, children = tree
    if node.is_leaf:
        return _estimated_errors(node, z)
    subtree = sum(_reference_prune(c, z) for c in children)
    as_leaf = _estimated_errors(node, z)
    if as_leaf <= subtree:
        node.attribute = node.threshold = node.fallback = None
        node.categories = ()
        children.clear()
        return as_leaf
    return subtree


def _reference_preorder(tree):
    node, children = tree
    return [node] + [n for child in children for n in _reference_preorder(child)]


def reference_fit_tree(d, cfg, weights=None):
    w = np.ones(len(d)) if weights is None else np.asarray(weights, dtype=np.float64)
    rng = None if cfg.random_subspace_size is None else np.random.default_rng(cfg.seed)
    tree = _ReferenceGrower(d, cfg, rng).grow(np.arange(len(d)), w)
    if cfg.use_pruning:
        _reference_prune(tree, _pruning_z(cfg.confidence_factor))
    return DecisionTree(d.schema, _reference_preorder(tree), cfg)


def equivalence_case(seed):
    """A seeded dataset, weights and config for the split-search comparison.

    Covers mixed kinds, tied and constant columns, fractional AdaBoost-like
    weights summing to n, zero weights, random subspaces and pruning.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.choice([4, 12, 40, 90, 200, 400]))
    n_numeric = int(rng.integers(0, 6))
    n_nominal = int(rng.integers(0 if n_numeric else 1, 3))
    cols, kinds, cats = [], [], {}
    for _ in range(n_numeric):
        style = rng.integers(4)
        if style == 0:
            col = rng.normal(0, 1, n)
        elif style == 1:  # heavy ties
            col = rng.integers(0, 4, n).astype(float)
        elif style == 2:  # constant
            col = np.full(n, 2.5)
        else:  # a few values at wide scales
            col = np.round(rng.exponential(1e3, n), 1)
        cols.append(col)
        kinds.append(NUMERIC)
    for _ in range(n_nominal):
        k = int(rng.integers(1, 5))
        cats[len(cols)] = tuple(f"c{c}" for c in range(k))
        cols.append(rng.integers(0, k, n).astype(float))
        kinds.append(NOMINAL)
    signal = cols[0] if kinds[0] == NUMERIC else cols[0] * 0.7
    labels = (signal + rng.normal(0, 1.5, n) > np.median(signal) + 0.8).astype(np.int8)
    d = make_dataset(cols, kinds, labels, categories=cats or None)
    style = rng.integers(4)
    if style == 0:
        w = None
    elif style == 1:  # AdaBoost-like: a distribution scaled to sum n
        dist = rng.dirichlet(np.full(n, 0.7))
        w = dist * n
    elif style == 2:  # fractional with zeros
        w = rng.exponential(1.0, n) * (rng.random(n) > 0.3)
    else:  # bootstrap counts
        w = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
    n_attrs = n_numeric + n_nominal
    cfg = TreeConfig(
        min_leaf_weight=float(rng.choice([0.5, 1.0, 2.0, 5.0])),
        use_pruning=bool(rng.integers(2)),
        random_subspace_size=None if rng.integers(2) else int(rng.integers(1, n_attrs + 1)),
        seed=seed,
    )
    return d, w, cfg


def test_sort_keys_past_the_int32_range_sort_as_with_int64_codes():
    # the codes are int32, but a block's sort keys, code * width + column,
    # pass 2**31 here and must not wrap
    rng = np.random.default_rng(1)
    width = 4096
    n_distinct = 2**31 // width + 2000
    distinct = np.append(np.arange(n_distinct, dtype=np.float64), np.nan)
    C = rng.integers(n_distinct - 3000, n_distinct, (2, width)).astype(np.int32)
    assert int(C.max()) * width > 2**31
    C[1, width - 100:] = n_distinct  # pads
    src = np.arange(2 * width).reshape(2, width)
    w = rng.exponential(1.0, 2 * width)
    w_pos = w * (rng.random(2 * width) < 0.3)
    w[src[1, width - 100:]] = w_pos[src[1, width - 100:]] = 0.0
    got = trees._numeric_block(C, distinct, src, w, w_pos, 2.0)
    want = trees._numeric_block(C.astype(np.int64), distinct, src, w, w_pos, 2.0)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert np.all(np.diff(got[0][0]) >= 0)
    assert trees._Columns(make_dataset([[0.5, 1.5, 0.5]], [NUMERIC], [0, 1, 0])).codes.dtype == np.int32


def _full_scan_numeric_block(C, distinct, src, w, w_pos, min_leaf):
    """`trees._numeric_block` as it was before it skipped cuts inside runs
    of one class: every admissible cut is scored."""
    width = C.shape[1]
    flat = np.argsort(np.multiply(C, width, dtype=np.int64) + np.arange(width), axis=1)
    flat += np.arange(0, C.size, width)[:, np.newaxis]
    v, src = distinct.take(C.take(flat)), src.take(flat)
    cum_w, cum_pos = np.cumsum(w.take(src), axis=1), np.cumsum(w_pos.take(src), axis=1)
    total, total_pos = cum_w[:, -1], cum_pos[:, -1]
    left = cum_w[:, :-1]
    left = np.minimum(left, total[:, np.newaxis] - left)
    cuts = np.flatnonzero((v[:, 1:] > v[:, :-1]) & (left >= min_leaf) & (left > 0))
    row = cuts // max(1, width - 1)
    at = cuts + row
    row_w, row_pos = total.take(row), total_pos.take(row)
    left_w, left_pos = cum_w.take(at), cum_pos.take(at)
    right_w, right_pos = row_w - left_w, row_pos - left_pos
    L = _reference_xlogx
    h_row = L(row_w) - L(row_pos) - L(row_w - row_pos)
    h_sides = (L(left_w) - L(left_pos) - L(left_w - left_pos)) + (L(right_w) - L(right_pos) - L(right_w - right_pos))
    return v, cuts, h_row - h_sides, L(row_w) - (L(left_w) + L(right_w))


def _block_picks(v, cuts, gains, infos):
    """Each row's best gain ratio and its threshold (NaN where no cut is
    usable) from a numeric block's scores, picked over the full width as
    `_gain_ratios` picks them."""
    r = np.full((v.shape[0], v.shape[1] - 1), -np.inf)
    usable = infos > 0
    r.ravel()[cuts[usable]] = gains[usable] / infos[usable]
    j = np.argmax(r, axis=1)
    k = np.arange(v.shape[0])
    ratios = r[k, j]
    return ratios, np.where(ratios > -np.inf, (v[k, j] + v[k, j + 1]) / 2.0, np.nan)


def _skip_case(rng):
    """A padded block of seeded rows: continuous, tied, integer-valued or
    sorted columns whose classes come in long runs, under unit, bootstrap,
    Dirichlet, exponential-with-zeros, {1e-12, 1, 1e6} or log-normal
    weights, and a minimum leaf weight from 0 to 20."""
    n_rows = int(rng.choice([1, 1, 3, 12]))
    lengths = np.sort(rng.integers(2, int(rng.choice([8, 40, 200])) + 1, n_rows))[::-1]
    values, w, y = [], [], []
    for n in lengths:
        kind = rng.choice(["continuous", "tied", "integers", "runs"])
        if kind == "continuous":
            vals, labels = rng.normal(0, 1, n), rng.random(n) < rng.uniform(0.05, 0.5)
        elif kind == "tied":
            vals, labels = rng.integers(0, 4, n).astype(float), rng.random(n) < 0.3
        elif kind == "integers":
            vals, labels = rng.integers(0, n, n).astype(float), rng.random(n) < 0.2
        else:  # sorted, with classes in a few long runs
            vals = np.sort(rng.normal(0, 1, n))
            labels = np.cumsum(rng.random(n) < 3.0 / n) % 2 == 1
        weighting = rng.choice(["unit", "bootstrap", "dirichlet", "exponential", "spread", "lognormal"])
        if weighting == "unit":
            weights = np.ones(n)
        elif weighting == "bootstrap":
            weights = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
        elif weighting == "dirichlet":
            weights = rng.dirichlet(np.ones(n))
        elif weighting == "exponential":
            weights = rng.exponential(1.0, n) * (rng.random(n) < 0.8)
        elif weighting == "spread":
            weights = rng.choice([1e-12, 1.0, 1e6], n)
        else:
            weights = rng.lognormal(0.0, rng.uniform(1.0, 15.0), n)
        # an open node has weight in both classes
        both = rng.choice(n, 2, replace=False)
        labels[both] = [False, True]
        weights[both] = np.where(weights[both] > 0, weights[both], 1.0)
        values.append(vals)
        w.append(weights)
        y.append(labels)
    distinct, codes = np.unique(np.concatenate(values), return_inverse=True)
    distinct = np.append(distinct, np.nan)
    w = np.append(np.concatenate(w), 0.0)  # the last position is the pads'
    w_pos = w * np.append(np.concatenate(y), False)
    width = int(lengths[0])
    pad = np.arange(width) >= lengths[:, np.newaxis]
    src = np.cumsum(lengths)[:, np.newaxis] - lengths[:, np.newaxis] + np.arange(width)
    src[pad] = w.size - 1
    C = np.append(codes, distinct.size - 1).take(src)
    min_leaf = float(rng.choice([0.0, 0.0, 1e-9, 1.0, 2.0, 5.0, 20.0]))
    return C, distinct, src, w, w_pos, min_leaf


def test_skipping_cuts_inside_runs_of_one_class_never_changes_a_pick():
    rng = np.random.default_rng(19)
    skipped = 0
    for case in range(2500):
        args = _skip_case(rng)
        want, got = _full_scan_numeric_block(*args), trees._numeric_block(*args)
        want_ratios, want_thresholds = _block_picks(*want)
        got_ratios, got_thresholds = _block_picks(*got)
        assert got_ratios.tobytes() == want_ratios.tobytes(), case
        assert got_thresholds.tobytes() == want_thresholds.tobytes(), case
        skipped += want[1].size - got[1].size
    assert skipped > 0


def test_a_run_of_one_class_is_scored_at_its_ends_only():
    # 50 negatives then 50 positives at distinct values: of the 99 cuts,
    # the first, the class boundary and the last are scored
    C = np.arange(100)[np.newaxis]
    distinct = np.append(np.arange(100.0), np.nan)
    w = np.append(np.ones(100), 0.0)
    w_pos = w * (np.arange(101) >= 50)
    scored = trees._numeric_block(C, distinct, C, w, w_pos, 0.0)
    assert scored[1].tolist() == [0, 49, 98]
    assert _block_picks(*scored)[1][0] == 49.5


def test_a_row_whose_lighter_class_is_below_the_floor_is_scored_in_full():
    # the one negative weighs 1e-12 of 3e6: every gain rounds to 0 or
    # below, so cut 2, inside the run of positives, ties cut 3 and is the pick
    C = np.arange(6)[np.newaxis]
    distinct = np.append(np.arange(6.0), np.nan)
    w = np.array([1e-12, 1.0, 1e6, 1e6, 1e-12, 1e6, 0.0])
    w_pos = w * np.array([0, 1, 1, 1, 1, 1, 0])
    args = (C, distinct, C, w, w_pos, 1.0)
    scored = trees._numeric_block(*args)
    assert scored[1].tolist() == _full_scan_numeric_block(*args)[1].tolist() == [1, 2, 3, 4]
    assert _block_picks(*scored)[1][0] == 2.5


def _textbook_split(parts):
    """(gain ratio, H(row) / split info, split info) of a split into parts,
    each a (weight, positive weight) pair, in the fraction form and Python
    floats: H(row) - sum of (W/T) H(part), over -sum of (W/T) log2(W/T)."""
    def h(w, p):
        return -sum(c / w * math.log2(c / w) for c in (p, w - p) if c > 0)

    total, total_pos = sum(w for w, _ in parts), sum(p for _, p in parts)
    gain = h(total, total_pos) - sum(w / total * h(w, p) for w, p in parts if w > 0)
    info = -sum(w / total * math.log2(w / total) for w, _ in parts if w > 0)
    return gain / info, h(total, total_pos) / info, info


def test_split_scores_equal_the_textbook_fraction_form():
    # an oracle that shares none of the grower's arithmetic.  A gain near 0
    # is a near cancellation of two entropies in either form, so ratios
    # must agree to 1e-9 of H(row) / split info, the ratio of a cut into
    # pure sides, which no ratio of the row exceeds
    rng = np.random.default_rng(23)
    checked = 0
    for case in range(300):
        n = int(rng.choice([5, 30, 200, 1000]))
        y = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.int8)
        y[:2] = [0, 1]
        weighting = rng.choice(["unit", "bootstrap", "dirichlet", "exponential"])
        if weighting == "unit":
            w = np.ones(n)
        elif weighting == "bootstrap":
            w = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
        elif weighting == "dirichlet":
            w = rng.dirichlet(np.ones(n)) * n
        else:
            w = rng.exponential(1.0, n)
        w[:2] = np.maximum(w[:2], 1.0)  # weight in both classes
        splits = []
        vals = rng.normal(0, 1, n) if rng.random() < 0.5 else rng.integers(0, 6, n).astype(float)
        thresholds, gains, infos = trees._numeric_candidates(vals, y, w, 1.0)
        for t, gain, info in zip(thresholds, gains, infos):
            splits.append((gain / info, [vals <= t, vals > t]))
        k = int(rng.integers(2, 7))
        cats = rng.integers(0, k, n)
        ratio = trees._nominal_ratios(cats, w, w * (y == 1), np.array([k]), np.array([1.0]))[0]
        if ratio > -np.inf:
            splits.append((ratio, [cats == c for c in range(k)]))
        for got, sides in splits:
            want, scale, info = _textbook_split([(float(w[s].sum()), float(w[s & (y == 1)].sum())) for s in sides])
            if info > 1e-6:
                assert abs(got - want) <= 1e-9 * scale, case
                checked += 1
    assert checked > 10000


def test_ranking_and_discretization_equal_a_full_scan(monkeypatch):
    rng = np.random.default_rng(7)
    datasets = []
    for _ in range(40):
        n = int(rng.integers(2, 300))
        cols = [rng.normal(0, 1, n), rng.integers(0, 6, n), np.sort(rng.normal(0, 1, n)), np.arange(n) % 7]
        labels = (np.cumsum(rng.random(n) < 4.0 / n) % 2).astype(np.int8)
        labels[rng.integers(0, n)] ^= 1
        datasets.append(make_dataset(cols + [rng.integers(0, 3, n)], [NUMERIC] * 4 + [NOMINAL], labels))
    got = [(gain_ratio_rank(d), discretize(d)) for d in datasets if 0 < d.labels.sum() < len(d)]
    monkeypatch.setattr(trees, "_numeric_block", _full_scan_numeric_block)
    want = [(gain_ratio_rank(d), discretize(d)) for d in datasets if 0 < d.labels.sum() < len(d)]
    assert len(got) > 30
    for (ranks, codes), (want_ranks, want_codes) in zip(got, want):
        assert ranks == want_ranks
        assert np.array_equal(codes, want_codes)


@pytest.mark.parametrize("block_cells", [8192, 16])
def test_block_split_search_matches_per_attribute_reference(monkeypatch, block_cells):
    # 16 cells per block puts each numeric attribute of a node in its own
    # block (or several in one at tiny nodes), the default mostly one block
    monkeypatch.setattr(trees, "_BLOCK_CELLS", block_cells)
    split_nodes = 0
    for seed in range(120):
        d, w, cfg = equivalence_case(seed)
        got = fit_tree(d, cfg, weights=w)
        want = reference_fit_tree(d, cfg, weights=w)
        assert tree_to_doc(got) == tree_to_doc(want), seed
        probe = np.vstack([d.values, d.values[::-1] + 0.25])
        for a, b in zip(got.predict_batch(probe), want.predict_batch(probe)):
            assert np.array_equal(a, b), seed
        split_nodes += got.n_nodes() - got.n_leaves()
    assert split_nodes > 1000


def test_block_split_search_matches_reference_across_blocks():
    # 3,000 rows x 6 numeric attributes: the root is scored in three blocks
    rng = np.random.default_rng(5)
    n = 3000
    cols = [rng.normal(0, 1, n) for _ in range(5)] + [rng.integers(0, 9, n).astype(float)]
    labels = (cols[1] - cols[2] + rng.normal(0, 1, n) > 1.2).astype(np.int8)
    d = make_dataset(cols, [NUMERIC] * 6, labels)
    w = rng.dirichlet(np.ones(n)) * n
    for cfg in (TreeConfig(min_leaf_weight=2.0), TreeConfig(use_pruning=False, seed=3,
                                                            random_subspace_size=3)):
        assert tree_to_doc(fit_tree(d, cfg, weights=w)) == tree_to_doc(reference_fit_tree(d, cfg, w))


def test_many_category_splits_match_reference():
    # from 8 categories on numpy sums a node's category weights pairwise, so
    # the batched scorer must sum exactly the categories the node observed
    split_nodes = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([40, 150, 400]))
        k = int(rng.integers(8, 20))
        seen = rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False)
        cols = [rng.choice(seen, n).astype(float), rng.integers(0, k, n).astype(float), rng.normal(0, 1, n)]
        labels = ((cols[0] % 3 == 0) ^ (rng.random(n) < 0.2)).astype(np.int8)
        names = tuple(f"c{c}" for c in range(k))
        d = make_dataset(cols, [NOMINAL, NOMINAL, NUMERIC], labels, categories={0: names, 1: names})
        w = rng.dirichlet(np.full(n, 0.7)) * n
        cfg = TreeConfig(min_leaf_weight=1.0, use_pruning=bool(seed % 2))
        got = fit_tree(d, cfg, weights=w)
        assert tree_to_doc(got) == tree_to_doc(reference_fit_tree(d, cfg, w)), seed
        split_nodes += got.n_nodes() - got.n_leaves()
    assert split_nodes > 200



def test_children_sum_each_node_in_row_order():
    # each node's class weights are its rows' weights of that class added
    # one after another in row order, however long the run
    rng = np.random.default_rng(3)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        rows = int(rng.integers(1, 3000))
        labels = rng.integers(0, 2, rows).astype(np.int8)
        idx = np.append(rng.integers(0, rows, rows), 0)
        w = np.append(rng.dirichlet(np.full(rows, 0.3)) * rows * (rng.random(rows) < 0.8), 0.0)
        # long runs of a few nodes, short ones of the others, some rows to none
        key = np.minimum(rng.geometric(0.6 if trial % 2 else 0.05, rows) - 1, n)
        key = key.astype(np.min_scalar_type(n))
        class_weights, is_open, next_idx, next_w, sizes = trees._children(labels, idx, w, key, n)
        want = [[0.0, 0.0] for _ in range(n + 1)]
        for node, label, weight in zip(key.tolist(), labels[idx[:-1]].tolist(), w[:-1].tolist()):
            want[node][label] += weight
        assert class_weights.tobytes() == np.array(want[1:]).tobytes(), trial
        assert np.array_equal(is_open, (class_weights != 0).all(axis=1))
        keep = np.flatnonzero(is_open[np.maximum(key.astype(np.int64) - 1, 0)] & (key > 0))
        want_order = keep[np.argsort(key[keep], kind="stable")]
        assert np.array_equal(next_idx, np.append(idx[want_order], 0))
        assert next_w.tobytes() == np.append(w[want_order], 0.0).tobytes()
        assert np.array_equal(sizes, np.bincount(key[keep], minlength=n + 1)[1:][is_open])


def test_step_pass_matches_reference_on_weighted_bootstrap_groups(monkeypatch):
    # children of hundreds of rows (their weights summed pairwise), Dirichlet
    # weights, a category whose rows weigh nothing at nodes that split on
    # it, bootstrap rows with repeats, and members that fill several groups
    monkeypatch.setattr(trees, "_GROUP_ROWS", 1500)
    groups, children = [], []
    grow, split_level = trees._grow, trees._split_level

    def record_grow(d, columns, members):
        groups.append(len(members))
        return grow(d, columns, members)

    def record_children(*args):
        level = split_level(*args)
        children.append(int(level.sizes.max(initial=0)))
        return level

    monkeypatch.setattr(trees, "_grow", record_grow)
    monkeypatch.setattr(trees, "_split_level", record_children)
    rng = np.random.default_rng(20)
    n = 600
    names = tuple(f"c{i}" for i in range(12))
    cols = [rng.normal(0, 1, n), rng.integers(0, 12, n).astype(float), rng.integers(0, 3, n).astype(float),
            np.round(rng.exponential(2, n), 1)]
    labels = ((cols[0] + (cols[1] % 3 == 0) + rng.normal(0, 0.8, n)) > 0.9).astype(np.int8)
    d = make_dataset(cols, [NUMERIC, NOMINAL, NOMINAL, NUMERIC], labels, categories={1: names, 2: names[:3]})
    members = []
    for i in range(8):
        idx = rng.integers(0, n, n)
        w = rng.dirichlet(np.full(n, 0.5)) * n
        w[d.values[idx, 1] == i % 3] = 0.0  # category i % 3 of attribute 1 weighs nothing
        w[rng.random(n) < 0.1] = 0.0
        cfg = TreeConfig(min_leaf_weight=1.0, use_pruning=bool(i % 2), seed=i,
                         random_subspace_size=2 if i % 3 == 0 else None)
        members.append((idx, w, cfg))
    grown = trees.fit_trees(d, members)
    assert len(groups) > 1 and max(groups) > 1 and max(children) > 128
    dropped = 0  # nominal splits on attribute 1 whose rows include the weightless category
    for (idx, w, cfg), tree in zip(members, grown):
        assert tree_to_doc(tree) == tree_to_doc(reference_fit_tree(d.subset(idx), cfg, w))
        dropped += sum(1 for node in tree.nodes if node.attribute == 1 and len(node.categories) < 11)
    assert dropped > 0

def test_deep_noisy_tree_fits_prunes_predicts_and_counts():
    # two attributes of pure label noise grow a chain thousands of nodes
    # deep, far past Python's recursion limit; it is grown once, saved and
    # read back, then pruned, as fit_tree does with pruning on
    rng = np.random.default_rng(0)
    n = 20_000
    d = make_dataset([rng.uniform(0, 1, n), rng.uniform(0, 1, n)], [NUMERIC, NUMERIC],
                     rng.integers(0, 2, n))
    tree = fit_tree(d, TreeConfig(use_pruning=False))
    grown = tree.n_nodes()
    assert grown == 2 * tree.n_leaves() - 1 > 2000
    labels, probs = tree.predict_batch(d.values)
    assert np.array_equal(labels, (probs > 0.5).astype(labels.dtype))
    assert_text_round_trips(tree, d.values)
    tree.nodes = _prune(tree.nodes, _pruning_z(tree.config.confidence_factor))
    assert tree.n_nodes() == 2 * tree.n_leaves() - 1 < grown
    labels, probs = tree.predict_batch(d.values)
    assert labels.shape == probs.shape == (n,)


def assert_text_round_trips(model, X):
    """The model file text of model reads back to a model that predicts X
    the same way and writes the same text."""
    text = model_to_text(model)
    back = model_from_text(text)
    assert model_to_text(back) == text
    for got, want in zip(back.predict_batch(X), model.predict_batch(X)):
        assert np.array_equal(got, want)


def hand_built_chain(depth):
    """Node i sends f0 <= i + 0.5 to a leaf and the rest one level down."""
    schema = make_dataset([[0.0]], [NUMERIC], [0]).schema
    nodes = []
    for i in range(depth):
        nodes += [TreeNode(class_weights=np.array([1.0, 1.0]), attribute=0, threshold=i + 0.5),
                  TreeNode(class_weights=np.array([1.0, float(i % 3)]))]
    nodes.append(TreeNode(class_weights=np.array([1.0, 1.0])))
    return DecisionTree(schema, nodes, TreeConfig())


def test_deep_chain_exports_predicts_saves_and_reads_back(tmp_path):
    from click.testing import CliRunner

    from crus.cli import main
    from crus.ensembles import EnsembleModel

    tree = hand_built_chain(3000)
    assert tree.n_nodes() == 6001
    rules = export_rules(tree)
    assert len(rules) == 3001
    assert rules[0] == "IF f0 <= 0.5 THEN y = neg"
    assert rules[-1].startswith("IF f0 > 0.5 AND f0 > 1.5 AND") and rules[-1].count(" AND ") == 2999
    X = np.arange(-1.0, 3002.0)[:, np.newaxis]
    assert np.unique(tree.predict_batch(X)[1]).size == 3
    assert_text_round_trips(tree, X)
    assert_text_round_trips(EnsembleModel("bagging", [hand_built_chain(2), tree], np.ones(2), "vote", 0), X)
    path = tmp_path / "chain.json"
    path.write_text(model_to_text(tree), encoding="utf-8")
    result = CliRunner().invoke(main, ["rules", "--model", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == rules


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_unit_weight_tree_does_not_depend_on_row_order(data):
    # with whole weights every sum is exact, so only the rows, not their
    # order, can shape the tree
    n_numeric = data.draw(st.integers(0, 4), label="n_numeric")
    n_nominal = data.draw(st.integers(0 if n_numeric else 1, 2), label="n_nominal")
    n = data.draw(st.integers(2, 80), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cols = [np.round(rng.normal(0, 1, n), int(rng.integers(0, 2))) for _ in range(n_numeric)]
    cols += [rng.integers(0, 3, n).astype(float) for _ in range(n_nominal)]
    labels = rng.integers(0, 2, n)
    d = make_dataset(cols, [NUMERIC] * n_numeric + [NOMINAL] * n_nominal, labels)
    shuffled = d.subset(rng.permutation(n))
    size = data.draw(st.one_of(st.none(), st.integers(1, n_numeric + n_nominal)), label="subspace")
    cfg = TreeConfig(min_leaf_weight=data.draw(st.sampled_from([1.0, 2.0]), label="min_leaf"),
                     use_pruning=data.draw(st.booleans(), label="pruning"), random_subspace_size=size, seed=3)
    assert model_to_text(fit_tree(shuffled, cfg)) == model_to_text(fit_tree(d, cfg))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_integer_weight_tree_does_not_depend_on_row_order(data):
    # bootstrap counts are whole weights too, so every sum is exact in any
    # order; nominal attributes of up to 12 categories and nodes of many
    # rows make sums of more than 7 values
    n_numeric = data.draw(st.integers(0, 3), label="n_numeric")
    n_nominal = data.draw(st.integers(0 if n_numeric else 1, 2), label="n_nominal")
    n = data.draw(st.integers(2, 150), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cols = [np.round(rng.normal(0, 1, n), int(rng.integers(0, 2))) for _ in range(n_numeric)]
    names = tuple(f"c{c}" for c in range(12))
    cols += [rng.integers(0, 12, n).astype(float) for _ in range(n_nominal)]
    labels = rng.integers(0, 2, n)
    categories = {i: names for i in range(n_numeric, n_numeric + n_nominal)}
    d = make_dataset(cols, [NUMERIC] * n_numeric + [NOMINAL] * n_nominal, labels, categories=categories)
    w = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
    order = rng.permutation(n)
    size = data.draw(st.one_of(st.none(), st.integers(1, n_numeric + n_nominal)), label="subspace")
    cfg = TreeConfig(min_leaf_weight=data.draw(st.sampled_from([1.0, 2.0]), label="min_leaf"),
                     use_pruning=data.draw(st.booleans(), label="pruning"), random_subspace_size=size, seed=3)
    shuffled = fit_tree(d.subset(order), cfg, weights=w[order])
    assert model_to_text(shuffled) == model_to_text(fit_tree(d, cfg, weights=w))
