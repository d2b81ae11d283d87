"""Decision trees over mixed attributes with first-class instance weights.

Splits maximize gain ratio (information gain over split information, both
in bits).  Nominal attributes split multiway on the categories observed at
the node; numeric attributes split binary at the best midpoint between
adjacent distinct sorted values.  Ties in gain ratio are broken by lowest
attribute index, then lowest threshold.  Instance weights flow through
entropies, leaf distributions and the error estimates used by pruning, so
the same grower serves boosting and bootstrap replicates.

Split search scores all numeric candidate attributes of a node together,
like SPRINT's all-attributes scan (Shafer, Agrawal & Mehta 1996) over
C4.5's criterion, but sorting at each node.  The node's values form an
(attributes x instances) block.  Each row is sorted, and cumulative class
weights along it give the gain and split information of every cut; the
first maximum of a row is its lowest best threshold.  A block holds at most
_BLOCK_CELLS values, which bounds the temporaries at a large root.
Nominal attributes are scored one at a time.  `_gain_ratios` gives every
candidate's best ratio, and the first maximum in attribute order is the
split.  Attribute ranking in `feature_selection` uses the same scorer at an
unweighted root.

A tree is its node list in pre-order, as its model file holds it (see
`crus.modelfile`): each split is followed by its children's subtrees.  A
split node holds its attribute and either a numeric threshold (two
children) or the nominal categories observed at it (ascending, one child
each) plus a fallback category for values without a child.
`TreeNode.child_index` maps attribute values to child positions for
growing and routing.  Growing, pruning, routing and rule export each pass
over the list with a stack of what the subtrees still to come need, so
nothing here recurses and random-subspace draws follow the node order.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, DatasetSchema


@dataclass(frozen=True)
class TreeConfig:
    min_leaf_weight: float = 2.0
    use_pruning: bool = True
    confidence_factor: float = 0.25
    # None considers every attribute at every node; an int draws a fresh
    # random subset of that size per node (the random-tree behaviour)
    random_subspace_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_leaf_weight <= 0:
            raise ValueError("min_leaf_weight must be positive")
        if not 0 < self.confidence_factor < 0.5:
            raise ValueError("confidence factor must be in (0, 0.5)")
        if self.random_subspace_size is not None and self.random_subspace_size < 1:
            raise ValueError("random_subspace_size must be at least 1")


def default_subspace_size(n_attributes: int) -> int:
    """floor(log2(n)) + 1, clamped to [1, n]."""
    if n_attributes < 1:
        raise ValueError("need at least one attribute")
    return max(1, min(n_attributes, int(math.floor(math.log2(n_attributes))) + 1))


@dataclass
class TreeNode:
    class_weights: np.ndarray  # (2,) [negative, positive] training weight
    attribute: int | None = None
    threshold: float | None = None     # numeric split: children <= and > it
    categories: tuple[int, ...] = ()   # nominal split: one child per category
    fallback: int | None = None        # nominal: largest-weight category

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None

    @property
    def n_children(self) -> int:
        """2 for a threshold split, one per category for a nominal split, 0 for a leaf."""
        return 2 if self.threshold is not None else len(self.categories)

    def child_index(self, col: np.ndarray, unseen: int | None = None) -> np.ndarray:
        """Which child, counting from 0, each value of the split attribute
        goes to.  A nominal value without a child of its own goes to the
        fallback category's child, or to `unseen` when given."""
        if self.threshold is not None:
            return np.where(col <= self.threshold, 0, 1)
        cats = np.array(self.categories)
        codes = col.astype(np.int64)
        pos = np.minimum(np.searchsorted(cats, codes), cats.size - 1)
        if unseen is None:
            unseen = self.categories.index(self.fallback)
        return np.where(cats[pos] == codes, pos, unseen)

    def leaf_label(self) -> int:
        # strict majority; exact tie goes to the negative class
        return 1 if self.class_weights[1] > self.class_weights[0] else 0

    def leaf_probability(self) -> float:
        total = float(self.class_weights.sum())
        return float(self.class_weights[1]) / total if total > 0 else 0.0


@dataclass
class DecisionTree:
    schema: DatasetSchema
    nodes: list[TreeNode]  # pre-order: each split, then its children's subtrees
    config: TreeConfig

    def n_nodes(self) -> int:
        return len(self.nodes)

    def n_leaves(self) -> int:
        return sum(1 for node in self.nodes if node.is_leaf)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(classes, positive probabilities) for a matrix of rows."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        labels = np.zeros(X.shape[0], dtype=np.int8)
        probs = np.zeros(X.shape[0], dtype=np.float64)
        stack = [np.arange(X.shape[0])]  # the rows of each subtree to come, the next one's last
        for node in self.nodes:
            idx = stack.pop()
            if idx.size == 0:
                stack.extend([idx] * node.n_children)
            elif node.is_leaf:
                labels[idx] = node.leaf_label()
                probs[idx] = node.leaf_probability()
            else:
                to = node.child_index(X[idx, node.attribute])
                stack.extend(idx[to == k] for k in reversed(range(node.n_children)))
        return labels, probs


def _entropy(weights: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        return 0.0
    p = weights[weights > 0] / total
    return float(-(p * np.log2(p)).sum())


# Most values scored in one numeric block: about ten float arrays of this
# size live at once, which keeps a large root's temporaries small.
_BLOCK_CELLS = 8192


def _fraction(part: np.ndarray, total: np.ndarray) -> np.ndarray:
    """part / total elementwise, 0 where total is not positive."""
    return np.divide(part, total, out=np.zeros(np.shape(part)), where=total > 0)


def _plogp(frac: np.ndarray) -> np.ndarray:
    """frac * log2(frac) elementwise, 0 where frac is not positive."""
    f = np.where(frac > 0, frac, 1.0)
    return f * np.log2(f)


def _binary_entropy(w_pos: np.ndarray, w_tot: np.ndarray) -> np.ndarray:
    """Elementwise two-class entropy in bits for weight totals w_tot."""
    w_pos = np.asarray(w_pos, dtype=np.float64)
    w_tot = np.asarray(w_tot, dtype=np.float64)
    return (0.0 - _plogp(_fraction(w_pos, w_tot))) - _plogp(_fraction(w_tot - w_pos, w_tot))


def _numeric_block(
    V: np.ndarray, w_pos: np.ndarray, w: np.ndarray, min_leaf: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score every cut of each row of V (attributes x instances).

    w_pos is w restricted to the positive instances.  Returns the rows
    sorted, and per cut between sorted positions c and c+1 (one column
    fewer) its gain, its split information and whether it is admissible:
    the values differ and both sides reach min_leaf and positive weight.
    Cuts that are not admissible get finite but meaningless scores.

    The results equal those of scoring each row alone: the weight arrays
    are C-contiguous, so each row sum is numpy's pairwise sum of that row,
    cumsum is sequential and every other step is elementwise.
    """
    order = np.argsort(V, axis=1, kind="stable")
    v = V[np.arange(V.shape[0])[:, np.newaxis], order]
    ww, wp = w[order], w_pos[order]
    total = ww.sum(axis=1, keepdims=True)
    total_pos = wp.sum(axis=1, keepdims=True)
    left_w = np.cumsum(ww, axis=1)[:, :-1]
    left_pos = np.cumsum(wp, axis=1)[:, :-1]
    right_w, right_pos = total - left_w, total_pos - left_pos
    smaller = np.minimum(left_w, right_w)
    admissible = (v[:, 1:] > v[:, :-1]) & (smaller >= min_leaf) & (smaller > 0)
    h_class = _binary_entropy(total_pos, total)
    h_cond = (
        left_w * _binary_entropy(left_pos, left_w)
        + right_w * _binary_entropy(right_pos, right_w)
    ) / total
    split_info = -(_plogp(_fraction(left_w, total)) + _plogp(_fraction(right_w, total)))
    return v, h_class - h_cond, split_info, admissible


def _numeric_candidates(
    vals: np.ndarray, y: np.ndarray, w: np.ndarray, min_leaf: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Admissible midpoint thresholds with their gains and split infos."""
    v, gains, infos, ok = _numeric_block(vals[np.newaxis], w * (y == 1), w, min_leaf)
    v, ok = v[0], ok[0]
    return (v[:-1][ok] + v[1:][ok]) / 2.0, gains[0][ok], infos[0][ok]


def _nominal_stats(
    vals: np.ndarray, y: np.ndarray, w: np.ndarray, n_categories: int, min_leaf: float
) -> tuple[float, float, np.ndarray] | None:
    """(gain, split_info, per-category weight) of the multiway split, or None.

    None when fewer than two categories carry weight or fewer than two
    children reach min_leaf.
    """
    cats = vals.astype(np.int64)
    w_tot = np.bincount(cats, weights=w, minlength=n_categories)
    w_pos = np.bincount(cats, weights=w * (y == 1), minlength=n_categories)
    observed = w_tot > 0
    if observed.sum() < 2 or (w_tot >= min_leaf).sum() < 2:
        return None
    total = w_tot.sum()
    h_class = _binary_entropy(np.array([w_pos.sum()]), np.array([total]))[0]
    h_cond = float((w_tot * _binary_entropy(w_pos, w_tot)).sum() / total)
    split_info = _entropy(w_tot[observed])
    return h_class - h_cond, split_info, w_tot


def _gain_ratios(
    d: Dataset, columns: np.ndarray, attrs: np.ndarray, idx: np.ndarray, w: np.ndarray, min_leaf: float
) -> tuple[np.ndarray, np.ndarray]:
    """Best gain ratio of each attribute in attrs over the rows idx, and its threshold.

    columns holds d's values one row per attribute and w the weights of
    the rows idx, of which there are at least two.  A ratio is -inf where
    no cut is usable; a threshold means something only for a usable
    numeric attribute, where it is the lowest best one.  Numeric attributes
    are scored in blocks of at most _BLOCK_CELLS values.
    """
    y = d.labels[idx]
    is_numeric = d.schema.numeric_mask()[attrs]
    ratios = np.full(attrs.size, -np.inf)
    thresholds = np.zeros(attrs.size)
    numeric = np.flatnonzero(is_numeric)
    w_pos = w * (y == 1)
    step = max(1, _BLOCK_CELLS // idx.size)
    for lo in range(0, numeric.size, step):
        rows = numeric[lo:lo + step]
        V = columns[attrs[rows, np.newaxis], idx]
        v, gains, infos, ok = _numeric_block(V, w_pos, w, min_leaf)
        usable = ok & (infos > 0)
        r = np.where(usable, gains / np.where(usable, infos, 1.0), -np.inf)
        j = np.argmax(r, axis=1)  # first max: lowest threshold on ties
        k = np.arange(rows.size)
        ratios[rows] = r[k, j]
        thresholds[rows] = (v[k, j] + v[k, j + 1]) / 2.0
    for i in np.flatnonzero(~is_numeric):
        attr = attrs[i]
        n_categories = len(d.schema.attributes[attr].categories)
        stats = _nominal_stats(columns[attr, idx], y, w, n_categories, min_leaf)
        if stats is not None and stats[1] > 0:
            ratios[i] = stats[0] / stats[1]
    return ratios, thresholds


@dataclass
class _Grower:
    d: Dataset
    cfg: TreeConfig
    rng: np.random.Generator | None

    def __post_init__(self) -> None:
        # one contiguous row per attribute, so a block gathers contiguously
        self.columns = np.ascontiguousarray(self.d.values.T)
        self.numeric = self.d.schema.numeric_mask()

    def grow(self, idx: np.ndarray, w: np.ndarray) -> list[TreeNode]:
        """The node list of a tree grown depth-first: a node splits before its children."""
        nodes = []
        stack = [(idx, w)]  # the rows and weights of each subtree to come, the next one's last
        while stack:
            idx, w = stack.pop()
            y = self.d.labels[idx]
            node = TreeNode(class_weights=np.array([w[y == 0].sum(), w[y == 1].sum()]))
            nodes.append(node)
            if not node.class_weights.all():  # a pure node stays a leaf
                continue
            best = self._best_split(idx, w)
            if best is None:
                continue
            node.attribute, node.threshold = best
            vals = self.columns[node.attribute, idx]
            if node.threshold is None:
                w_tot = np.bincount(vals.astype(np.int64), weights=w)
                node.categories = tuple(np.flatnonzero(w_tot > 0).tolist())
                node.fallback = int(np.argmax(w_tot))
            # rows of a category without weight at this node reach no child
            to = node.child_index(vals, unseen=-1)
            for k in reversed(range(node.n_children)):  # the first child is grown next
                m = to == k
                stack.append((idx[m], w[m]))
        return nodes

    def _candidate_attributes(self, n_attrs: int) -> np.ndarray:
        size = self.cfg.random_subspace_size
        if size is None or self.rng is None:
            return np.arange(n_attrs)
        size = max(1, min(size, n_attrs))
        return np.sort(self.rng.choice(n_attrs, size=size, replace=False))

    def _best_split(self, idx: np.ndarray, w: np.ndarray) -> tuple[int, float | None] | None:
        """(attribute, threshold or None) of the best split, or None.

        Only called on nodes with weight in both classes, so idx holds at
        least two instances.
        """
        attrs = self._candidate_attributes(self.d.schema.n_attributes)
        ratios, thresholds = _gain_ratios(self.d, self.columns, attrs, idx, w, self.cfg.min_leaf_weight)
        best = int(np.argmax(ratios))  # first max: lowest attribute on ties
        if ratios[best] == -np.inf:
            return None
        attr = int(attrs[best])
        return attr, float(thresholds[best]) if self.numeric[attr] else None


def fit_tree(
    d: Dataset, cfg: TreeConfig = TreeConfig(), weights: np.ndarray | None = None
) -> DecisionTree:
    """Grow (and optionally prune) a tree on a weighted training set."""
    if len(d) == 0:
        raise ValueError("cannot fit a tree on an empty training set")
    if weights is None:
        w = np.ones(len(d), dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(d),):
            raise ValueError(f"weights shape {w.shape} does not match {len(d)} instances")
        if np.any(w < 0):
            raise ValueError("instance weights must be nonnegative")
    rng = None
    if cfg.random_subspace_size is not None:
        rng = np.random.default_rng(cfg.seed)
    nodes = _Grower(d, cfg, rng).grow(np.arange(len(d)), w)
    if cfg.use_pruning:
        nodes = _prune(nodes, _pruning_z(cfg.confidence_factor))
    return DecisionTree(d.schema, nodes, cfg)


def fit_random_tree(d: Dataset, seed: int, cfg: TreeConfig | None = None) -> DecisionTree:
    """Unpruned tree using a fresh random attribute subset at every node."""
    base = cfg or TreeConfig()
    size = base.random_subspace_size
    if size is None:
        size = default_subspace_size(d.schema.n_attributes)
    return fit_tree(d, replace(base, use_pruning=False, random_subspace_size=size, seed=seed))


def _pruning_z(confidence_factor: float) -> float:
    return statistics.NormalDist().inv_cdf(1.0 - confidence_factor)


def _estimated_errors(node: TreeNode, z: float) -> float:
    """Upper-confidence estimate of the error count if this were a leaf."""
    n = float(node.class_weights.sum())
    if n <= 0:
        return 0.0
    f = float(n - node.class_weights.max()) / n
    zz = z * z
    upper = (f + zz / (2 * n) + z * math.sqrt(f / n - f * f / n + zz / (4 * n * n))) / (1 + zz / n)
    return upper * n


def _prune(nodes: list[TreeNode], z: float) -> list[TreeNode]:
    """Bottom-up subtree replacement: a reverse pass marks each split whose
    error estimate as a leaf is no more than its subtrees'; the pruned list
    makes the marked splits leaves and drops their subtrees."""
    errors: list[float] = []  # the estimate of each subtree after this node, the next one's last
    collapse = set()
    for i in reversed(range(len(nodes))):
        error = _estimated_errors(nodes[i], z)
        if not nodes[i].is_leaf:
            subtree = sum(errors.pop() for _ in range(nodes[i].n_children))
            if error <= subtree:
                collapse.add(i)
            error = min(error, subtree)
        errors.append(error)
    kept, skip = [], 0  # skip: subtrees still to drop
    for i, node in enumerate(nodes):
        if skip:
            skip += node.n_children - 1
        else:
            kept.append(node)
            if i in collapse:
                skip = node.n_children
                node.attribute = node.threshold = node.fallback = None
                node.categories = ()
    return kept


def export_rules(tree: DecisionTree) -> list[str]:
    """One conjunctive IF/THEN rule per leaf, in left-to-right leaf order."""
    schema = tree.schema
    names = {1: schema.positive_label, 0: schema.negative_label}
    rules: list[str] = []
    stack: list[list[str]] = [[]]  # the conditions of each subtree to come, the next one's last
    for node in tree.nodes:
        conds = stack.pop()
        if node.is_leaf:
            body = " AND ".join(conds) if conds else "TRUE"
            rules.append(f"IF {body} THEN {schema.class_name} = {names[node.leaf_label()]}")
            continue
        attr = schema.attributes[node.attribute]
        if node.threshold is not None:
            tests = [f"{attr.name} <= {node.threshold:g}", f"{attr.name} > {node.threshold:g}"]
        else:
            tests = [f"{attr.name} = {attr.categories[c]}" for c in node.categories]
        stack.extend(conds + [t] for t in reversed(tests))
    return rules
