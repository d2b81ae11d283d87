"""Decision trees over mixed attributes with first-class instance weights.

Splits maximize gain ratio (information gain over split information, both
in bits).  Nominal attributes split multiway on the categories observed at
the node; numeric attributes split binary at the best midpoint between
adjacent distinct sorted values.  Ties in gain ratio are broken by lowest
attribute index, then lowest threshold.  Instance weights flow through
entropies, leaf distributions and the error estimates used by pruning, so
the same grower serves boosting and bootstrap replicates.

Split search is SPRINT's all-attributes scan (Shafer, Agrawal & Mehta
1996) over C4.5's criterion, sorting at each node, and one call scores
every node of a growth step.  A step keeps its open nodes in flat
arrays: the rows of every node end to end, their weights, and each
node's row count (`_Level`).  `_gain_ratios` reads each node's part of
those arrays for each of its candidate attributes, and makes each (node,
attribute) pair a row.  Numeric rows are packed, longest first, into
padded blocks of at most _BLOCK_CELLS values, which bounds the
temporaries at a large root.  A row is sorted by its values' codes
(`_Columns`: ranks among the attribute's distinct values, found once per
fit) with the column as tie-break; the keys are distinct integers, and
their order is a stable sort's.  Cumulative class weights along a sorted
row give the gain and split information of its admissible cuts, each
from L(x) = x log2 x of raw weights as in C4.5 (`_xlogx`).  Only
cuts that can win are scored: a cut inside a run of rows of one class
scores strictly below the better end of the run (Fayyad & Irani 1992;
Elomaa & Rousu 1999), so it is skipped when both its rows stand alone at
their values and weigh at least _SKIP_FLOOR of the row's total, and the
row's lighter class does too; the floors keep rounding from tying two
cuts.  The first maximum of a row is its lowest best threshold.  Nominal
rows are scored in blocks too, each with one bincount over (row,
category) keys.  Attribute ranking in `feature_selection` is the
one-node case.

Every weight total is a sequential sum: the values added one after
another from 0, in the order the code visits them (a cumulative sum's
last column, or a bincount).  A row's totals follow its sorted values, a
nominal row's its categories, and a node's class weights its rows.  No
sum depends on how numpy blocks a reduction inside, and padding changes
no number: pads sort last with weight 0, and adding 0 changes no sum.
Integer weights sum exactly in any order, so only trees grown on
fractional weights (boosting rounds) depend on the order at all.

`_split_level` then splits the whole step in one pass: each node at the
first maximum over its candidates, in attribute order.  It finds every
row's child, groups the rows by child with one stable sort, sums the new
nodes' class weights in row order, and hands the rows of the open
children on as the next step's arrays, in the same order as each tree
alone would hold them.

`fit_trees` grows a set of trees together, a depth level per step.
Trees of more than _GROUP_ROWS training rows in all grow in groups, which
bounds the rows a step holds.  A random-subspace tree draws each node's
attributes from its one generator in level order (breadth first,
children in child order).  `fit_tree` grows one tree; bagging, random
forests and random committees grow their members together, each member
a row map into the same columns, and `ensembles.fit_together` grows the
trees of many fits together, on columns it builds once.

A tree is its node list in pre-order, as its model file holds it (see
`crus.modelfile`): each split is followed by its children's subtrees.  A
split node holds its attribute and either a numeric threshold (two
children) or the nominal categories observed at it (ascending, one child
each) plus a fallback category for values without a child.
`TreeNode.child_index` maps attribute values to child positions for
routing.  Growing appends each step's children to one node list and
records where each split's children start; it lists each tree's nodes in
pre-order at the end with a stack.  Pruning, routing and rule export each
pass over the list with a stack of what the subtrees still to come need,
so nothing here recurses.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import NamedTuple

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
        if not 0 < self.min_leaf_weight < math.inf:
            raise ValueError(f"min_leaf_weight must be positive and finite, got {self.min_leaf_weight}")
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

    def child_index(self, col: np.ndarray) -> np.ndarray:
        """Which child, counting from 0, each value of the split attribute
        goes to.  A nominal value without a child of its own goes to the
        fallback category's child."""
        if self.threshold is not None:
            return np.where(col <= self.threshold, 0, 1)
        cats = np.array(self.categories)
        codes = col.astype(np.int64)
        pos = np.minimum(np.searchsorted(cats, codes), cats.size - 1)
        return np.where(cats[pos] == codes, pos, self.categories.index(self.fallback))

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


# Most values scored in one numeric or nominal block, and most cuts whose
# entropies are taken at once: about a dozen arrays of this size live at
# once.  A node with more rows than this scores each attribute alone, and
# scoring a row then holds about twenty arrays of the row's size.
_BLOCK_CELLS = 8192

# A cut inside a run of one class is skipped only where its two rows, and
# the lighter class of its block row, each weigh at least this share of the
# block row's total weight (see `_numeric_block`).
_SKIP_FLOOR = 2.0**-20


def _xlogx(x: np.ndarray) -> np.ndarray:
    """L(x) = x * log2(x) elementwise, 0 where x is not positive.  As in
    C4.5 (Quinlan 1993), split scores are taken times a row's total weight
    T: T * H = L(T) - L(P) - L(N) for class weights P and N, T * gain is
    the row's T * H less each part's, and T * split information is L(T)
    less each part's L(W)."""
    out = np.log2(np.where(x > 0, x, 1.0))
    out *= x
    return out


class _Columns:
    """The sort codes of a dataset's values, one contiguous int32 row per
    attribute.  codes[a, i] is the position of value i of attribute a among
    the attribute's distinct values, ascending, plus the number of distinct
    values of the attributes before a; distinct[codes] gives the values
    back.  The last code is a pad's: it follows every value's, and
    distinct holds NaN for it.  numeric and n_categories give each
    attribute's kind and number of categories (0 for a numeric one)."""

    def __init__(self, d: Dataset) -> None:
        self.numeric = d.schema.numeric_mask()
        self.n_categories = np.array([len(a.categories) for a in d.schema.attributes])
        self.codes = np.empty((d.schema.n_attributes, len(d)), dtype=np.int32)
        distinct = []
        offset = 0
        for a, col in enumerate(d.values.T):
            values, self.codes[a] = np.unique(col, return_inverse=True)
            self.codes[a] += offset
            offset += values.size
            distinct.append(values)
        self.distinct = np.concatenate(distinct + [np.array([np.nan])])


def _numeric_block(
    C: np.ndarray, distinct: np.ndarray, src: np.ndarray, w: np.ndarray, w_pos: np.ndarray,
    min_leaf: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score the admissible cuts of each row of C that can be a row's best.

    Each row holds the codes (see `_Columns`) of the values of one
    attribute, then pad codes; distinct maps codes to values, and a pad's
    to NaN.  src gives the position of each value in w and w_pos, which
    hold weights and positive-class weights; a pad's position holds 0 in
    both.  min_leaf is the minimum leaf weight, one per row or one for
    all.  A cut between sorted positions c and c+1 is admissible when the
    values differ and both sides reach min_leaf and positive weight; no
    cut next to a pad is, since a comparison with NaN is false.  Returns
    the values of each row sorted, the flat (row, c) index of each scored
    cut in row-major order, and its gain and split information times the
    row's total weight T (see `_xlogx`).

    Every admissible cut is scored except one inside a run of rows of one
    class: cut c is skipped when cuts c-1 and c+1 are admissible too (so
    values c and c+1 stand alone), rows c and c+1 are of one class and
    each weighs at least _SKIP_FLOOR of its row's total, and so does the
    row's lighter class.  Moving the cut through such a run moves weight
    of one class only, so the gain is convex and the split information
    strictly concave in the left weight, and the gain ratio (or the gain)
    of a cut inside the run is strictly below that of the better of the
    run's ends, which are scored (Fayyad & Irani 1992; Elomaa & Rousu
    1999).  The floors keep that true in floating point.  With the rows'
    floor each cumulative sum grows by a row's weight, so no two cuts of a
    run round to the same sums and tie.  L(T) - L(P) - L(N) cancels to T *
    H(row), losing about log2 T ulps of T; with the lighter class's floor
    T * H(row) is at least 20 * 2**-20 * T, far above that.  Each row's
    first best scored cut is therefore its first best admissible one,
    which tests/test_trees.py checks against a full scan.

    The results equal those of scoring each row alone without pads: the
    pads sort last with weight 0, a row's totals are the last column of
    its cumulative sums (its weights added one after another in sorted
    order), and every other step is elementwise.  Each row is sorted by
    (code, column): the keys are distinct, so any sort gives the order of
    a stable sort of the values, in which tied values keep their order and
    a NaN value comes before its row's pads.
    """
    width = C.shape[1]
    # each value's key is code << bits | column, sorted in place; int32 keys
    # sort faster, int64 where a shifted code can exceed their range (the
    # keys are distinct, so both sort them alike)
    bits = (width - 1).bit_length()
    key = np.int32 if distinct.size << bits <= 2**31 else np.int64
    keys = np.left_shift(C, bits, dtype=key)
    keys |= np.arange(width, dtype=key)
    keys.sort(axis=1)
    v = distinct.take(keys >> bits)
    keys &= (1 << bits) - 1  # the column of each sorted value
    src = src.take(keys + np.arange(0, C.size, width)[:, np.newaxis])
    del keys
    sorted_w, cum_pos = w.take(src), w_pos.take(src)
    del src
    positive = cum_pos > 0  # rows of the positive class
    np.cumsum(cum_pos, axis=1, out=cum_pos)
    cum_w = np.cumsum(sorted_w, axis=1)
    total, total_pos = cum_w[:, -1], cum_pos[:, -1]
    # rows weighing at least _SKIP_FLOOR of their row's total (never one
    # without weight, even where the floor would round to 0); none in a row
    # whose lighter class weighs less, as its gains are no larger than
    # their rounding errors
    floor = np.maximum(total * _SKIP_FLOOR, np.finfo(np.float64).tiny)
    floor[np.minimum(total_pos, total - total_pos) < floor] = np.inf
    heavy = sorted_w >= floor[:, np.newaxis]
    del sorted_w  # no weight array outlives its cumulative sums
    left = cum_w[:, :-1]
    left = np.minimum(left, total[:, np.newaxis] - left)  # the smaller side
    # the admissible cuts, in arrays as wide as the rows whose last column
    # holds no cut, so that neighbours in the flat array are of one row
    keep = np.zeros(C.shape, dtype=bool)
    np.greater(v[:, 1:], v[:, :-1], out=keep[:, :-1])
    keep[:, :-1] &= left >= min_leaf
    keep[:, :-1] &= left > 0
    # skip each admissible cut between admissible ones whose two rows are
    # heavy and of one class
    keep, positive, heavy = keep.ravel(), positive.ravel(), heavy.ravel()
    inside = positive[1:-1] == positive[2:]
    inside &= heavy[1:-1]
    inside &= heavy[2:]
    inside &= keep[:-2]
    inside &= keep[2:]
    keep[1:-1] &= ~inside
    at = np.flatnonzero(keep)
    row = at // width
    cuts = at - row  # the flat (row, c) index in arrays one column narrower
    l_total = _xlogx(total)
    h_total = l_total - _xlogx(total_pos) - _xlogx(total - total_pos)
    gains, infos = np.empty(cuts.size), np.empty(cuts.size)
    for lo in range(0, cuts.size, _BLOCK_CELLS):
        part = slice(lo, lo + _BLOCK_CELLS)
        r, lw, lp = row[part], cum_w.take(at[part]), cum_pos.take(at[part])
        rw, rp = total.take(r) - lw, total_pos.take(r) - lp
        l_left, l_right = _xlogx(lw), _xlogx(rw)
        sides = (l_left - _xlogx(lp) - _xlogx(lw - lp)) + (l_right - _xlogx(rp) - _xlogx(rw - rp))
        gains[part] = h_total.take(r) - sides
        infos[part] = l_total.take(r) - (l_left + l_right)
    return v, cuts, gains, infos


def _numeric_candidates(
    vals: np.ndarray, y: np.ndarray, w: np.ndarray, min_leaf: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint thresholds of the cuts `_numeric_block` scores, ascending,
    with their gains and split infos times the total weight: every
    admissible cut but those inside a run of one class, which can be
    neither the best gain nor the best gain ratio."""
    if vals.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    distinct, codes = np.unique(vals, return_inverse=True)
    v, cut, gains, infos = _numeric_block(
        codes[np.newaxis], np.append(distinct, np.nan), np.arange(vals.size)[np.newaxis], w, w * (y == 1), min_leaf
    )
    return (v[0, cut] + v[0, cut + 1]) / 2.0, gains, infos


def _nominal_ratios(
    key: np.ndarray, w: np.ndarray, w_pos: np.ndarray, n_categories: np.ndarray, min_leaf: np.ndarray
) -> np.ndarray:
    """Gain ratio of the multiway split of each (node, nominal attribute) row.

    Row i has n_categories[i] categories and minimum leaf weight
    min_leaf[i].  key is i * max(n_categories) + category for each value,
    w and w_pos the value's weight and positive-class weight.  A ratio is
    -inf when fewer than two categories carry weight, fewer than two reach
    min_leaf or the split information is 0; gain and split information
    are taken times the row's total weight (see `_xlogx`).  The category
    weights add each row's values in order (bincount), and each sum over a
    row's categories adds them one after another in category order, as the
    last column of a cumulative sum; a category without weight adds 0 and
    changes no sum.
    """
    shape = (n_categories.size, int(n_categories.max()))
    w_tot = np.bincount(key, weights=w, minlength=shape[0] * shape[1]).reshape(shape)
    w_pos = np.bincount(key, weights=w_pos, minlength=shape[0] * shape[1]).reshape(shape)
    total, total_pos = np.cumsum([w_tot, w_pos], axis=2)[:, :, -1]
    # the sums over each row's categories of L(W) and W * H(category)
    l_cats = _xlogx(w_tot)
    l_sum, sides = np.cumsum([l_cats, l_cats - _xlogx(w_pos) - _xlogx(w_tot - w_pos)], axis=2)[:, :, -1]
    l_total = _xlogx(total)
    gain, split_info = l_total - _xlogx(total_pos) - _xlogx(total - total_pos) - sides, l_total - l_sum
    usable = ((w_tot > 0).sum(axis=1) >= 2) & ((w_tot >= min_leaf[:, np.newaxis]).sum(axis=1) >= 2) & (split_info > 0)
    return np.where(usable, gain / np.where(usable, split_info, 1.0), -np.inf)


def _gain_ratios(
    d: Dataset, columns: _Columns, idx: np.ndarray, w: np.ndarray, sizes: np.ndarray,
    candidates: np.ndarray, min_leaf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best gain ratio of each candidate attribute of each node, and its threshold.

    The nodes' rows lie end to end in idx (indices into d, sizes[k] of them
    for node k, at least two), then one pad row; w holds their weights, 0
    for the pad.  candidates[k, a] says whether node k considers attribute
    a, and min_leaf[k] is its minimum leaf weight.  columns holds the sort
    codes of d's values.  Returns (ratios, thresholds), each shaped as
    candidates.  A ratio is -inf where no cut is usable or the attribute is
    no candidate; a threshold means something only for a usable numeric
    attribute, where it is the lowest best one.

    Each (node, candidate attribute) pair is a row, whose values are read
    straight from the node's part of idx and w.  Numeric rows are scored in
    blocks of at most _BLOCK_CELLS values (one row at least), longest
    first, so rows of similar length share a block.  A block holds at most
    _BLOCK_CELLS // 8 pads, which cost about as much to score as one more
    block.  Nominal rows are scored in blocks, most categories first, whose
    values plus (rows x categories) category totals stay within
    _BLOCK_CELLS (one row at least).
    """
    starts = np.cumsum(sizes) - sizes  # each node's first value in idx and w
    w_pos = w * (d.labels.take(idx) == 1)
    node_of, attr_of = np.nonzero(candidates)
    ratios = np.full(candidates.shape, -np.inf)
    thresholds = np.zeros(candidates.shape)
    is_numeric = columns.numeric[attr_of]

    numeric = np.flatnonzero(is_numeric)
    numeric = numeric[np.argsort(-sizes[node_of[numeric]], kind="stable")]
    numeric_sizes = sizes[node_of[numeric]]
    lo = 0
    while lo < numeric.size:
        width = numeric_sizes[lo]
        pads = np.cumsum(width - numeric_sizes[lo:lo + max(1, _BLOCK_CELLS // width)])
        hi = lo + int(np.searchsorted(pads, _BLOCK_CELLS // 8, side="right"))
        rows, lengths = numeric[lo:hi], numeric_sizes[lo:hi]
        lo = hi
        nodes, attrs = node_of[rows], attr_of[rows]
        pos = starts[nodes, np.newaxis] + np.arange(width)
        if lengths[-1] < width:
            pad = np.arange(width) >= lengths[:, np.newaxis]
            pos[pad] = idx.size - 1
        C = columns.codes.ravel().take(idx.take(pos) + (attrs * columns.codes.shape[1])[:, np.newaxis])
        if lengths[-1] < width:
            C[pad] = columns.distinct.size - 1
        v, cuts, gains, infos = _numeric_block(C, columns.distinct, pos, w, w_pos, min_leaf[nodes, np.newaxis])
        r = np.full((rows.size, width - 1), -np.inf)
        usable = infos > 0
        r.ravel()[cuts[usable]] = gains[usable] / infos[usable]
        j = np.argmax(r, axis=1)  # first max: lowest threshold on ties
        k = np.arange(rows.size)
        ratios[nodes, attrs] = r[k, j]
        thresholds[nodes, attrs] = (v[k, j] + v[k, j + 1]) / 2.0

    nominal = np.flatnonzero(~is_numeric)
    nominal = nominal[np.argsort(-columns.n_categories[attr_of[nominal]], kind="stable")]
    lo = 0
    while lo < nominal.size:
        width = columns.n_categories[attr_of[nominal[lo]]]  # the most categories in the block
        # a row costs its values plus width category totals, at least width + 2
        ahead = nominal[lo:lo + max(1, _BLOCK_CELLS // (width + 2))]
        cells = np.cumsum(sizes[node_of[ahead]] + width)
        hi = lo + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
        rows = nominal[lo:hi]
        lo = hi
        # each row's values end to end: value t of a row is its node's value t
        nodes, attrs = node_of[rows], attr_of[rows]
        lengths = sizes[nodes]
        first = np.cumsum(lengths) - lengths
        pos = np.repeat(starts[nodes] - first, lengths) + np.arange(lengths.sum())
        n_categories = columns.n_categories[attrs]
        cats = d.values.ravel().take(idx.take(pos) * d.values.shape[1] + np.repeat(attrs, lengths))
        key = np.repeat(np.arange(rows.size) * n_categories[0], lengths) + cats.astype(np.int64)
        ratios[nodes, attrs] = _nominal_ratios(key, w[pos], w_pos[pos], n_categories, min_leaf[nodes])
    return ratios, thresholds


class _Level(NamedTuple):
    """The open nodes of a growth step in level order: tree-major, then
    each tree's nodes in the order they were made.  Node k is at[k] in the
    list of nodes grown and belongs to tree tree_of[k]; its sizes[k] rows
    (indices into the dataset) and their weights follow those of the nodes
    before it in idx and w, which end with a pad row of weight 0."""

    idx: np.ndarray
    w: np.ndarray
    sizes: np.ndarray
    tree_of: np.ndarray
    at: np.ndarray


def _children(
    labels: np.ndarray, idx: np.ndarray, w: np.ndarray, key: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The class weights of n new nodes, and the rows of the open ones.

    idx and w end with a pad of weight 0; key[i] is 1 + the node (from 0)
    that row idx[i] goes to, or 0 for none, in the smallest unsigned type
    that holds n.  Returns (class_weights, is_open, idx, w, sizes):
    class_weights[c] is node c's [negative, positive] weight, the weights
    of its rows of each class added one after another in row order (one
    bincount over (node, class) keys), and the open nodes (weight in both
    classes) have their rows and weights end to end, in node order and row
    order within a node, then a pad; sizes counts each open node's rows.
    One stable sort by node groups the rows; numpy sorts keys of 16 bits
    or fewer by radix.
    """
    idx, w = idx[:-1], w[:-1]
    runs = np.multiply(key, 2, dtype=np.min_scalar_type(2 * n + 1))
    runs += labels.take(idx) == 1
    class_weights = np.bincount(runs, weights=w, minlength=2 * n + 2)[2:].reshape(n, 2)
    is_open = (class_weights != 0).all(axis=1)
    counts = np.bincount(key, minlength=n + 1)
    order = np.argsort(key, kind="stable")  # grouped by node, rows keep their order
    order = order[counts[0]:] if is_open.all() else order[np.repeat(np.append(False, is_open), counts)]
    next_idx, next_w = np.empty(order.size + 1, dtype=idx.dtype), np.empty(order.size + 1)
    idx.take(order, out=next_idx[:-1])
    w.take(order, out=next_w[:-1])
    next_idx[-1], next_w[-1] = 0, 0.0
    return class_weights, is_open, next_idx, next_w, counts[1:][is_open]


def _split_level(
    d: Dataset, columns: _Columns, nodes: list[TreeNode], first_child: dict[int, int], level: _Level,
    ratios: np.ndarray, thresholds: np.ndarray,
) -> _Level:
    """Split each node of a step at its first best candidate (see
    `_gain_ratios`), append all children to nodes, record where each
    split's children start, and return the open children: the next step.

    One pass serves the whole step.  A row goes to the first or second
    child of a numeric split (<= and > the threshold), and at a nominal one
    to the child of its category; the categories that carry weight at a
    node have a child each, in order, found with one bincount over (node,
    category) keys, which adds in row order as a node's own bincount does.
    Rows of a category without weight reach no child.  The new nodes'
    class weights come from `_children`, and are rows of one array.
    """
    m, sizes = level.sizes.size, level.sizes
    best = np.argmax(ratios, axis=1)  # first max: lowest attribute on ties
    is_split = ratios.max(axis=1) != -np.inf
    is_numeric = columns.numeric.take(best) & is_split
    is_nominal = is_split & ~is_numeric
    nominal = np.flatnonzero(is_nominal)
    idx = level.idx[:-1]
    vals = d.values.ravel().take(idx * d.values.shape[1] + np.repeat(best, sizes))  # of each node's best
    n_children = 2 * is_numeric
    if nominal.size:
        width = int(columns.n_categories.max())
        rows = np.flatnonzero(np.repeat(is_nominal, sizes))
        cat_key = np.repeat(np.arange(nominal.size) * width, sizes.take(nominal))
        cat_key += vals.take(rows).astype(np.int64)
        w_cat = np.bincount(cat_key, weights=level.w.take(rows), minlength=nominal.size * width)
        w_cat = w_cat.reshape(-1, width)
        observed = w_cat > 0
        n_children[nominal] = observed.sum(axis=1)
    first = np.cumsum(n_children) - n_children  # each node's first child in the step
    n = int(n_children.sum())
    # each row's key for `_children`: 1 + its child, 0 for none
    left = np.where(is_numeric, first + 1, 0).astype(np.min_scalar_type(n))
    key = np.where(
        vals <= np.repeat(thresholds[np.arange(m), best], sizes), np.repeat(left, sizes),
        np.repeat(left + is_numeric, sizes),
    )
    del vals  # before `_children` makes the next step's arrays
    if nominal.size:
        number = np.cumsum(observed, axis=1) + first.take(nominal)[:, np.newaxis]  # 1 + each category's child
        key[rows] = np.where(observed.ravel().take(cat_key), number.ravel().take(cat_key), 0)
    class_weights, is_open, next_idx, next_w, next_sizes = _children(d.labels, level.idx, level.w, key, n)

    made = len(nodes)
    split = np.flatnonzero(is_split)
    first_child.update(zip(level.at.take(split).tolist(), (first.take(split) + made).tolist()))
    nodes.extend(map(TreeNode, class_weights))
    for i, attr, threshold in zip(
        level.at[is_numeric].tolist(), best[is_numeric].tolist(),
        thresholds[is_numeric, best[is_numeric]].tolist(),
    ):
        nodes[i].attribute, nodes[i].threshold = attr, threshold
    if nominal.size:
        categories = np.nonzero(observed)[1].tolist()  # each nominal split's, one after another
        lo = 0
        for i, attr, fallback, count in zip(
            level.at.take(nominal).tolist(), best.take(nominal).tolist(), np.argmax(w_cat, axis=1).tolist(),
            n_children.take(nominal).tolist(),
        ):
            nodes[i].attribute, nodes[i].fallback = attr, fallback
            nodes[i].categories = tuple(categories[lo:lo + count])
            lo += count
    tree_of = np.repeat(level.tree_of, n_children)[is_open]
    return _Level(next_idx, next_w, next_sizes, tree_of, made + np.flatnonzero(is_open))


def _preorder(nodes: list[TreeNode], first_child: dict[int, int], root: int) -> list[TreeNode]:
    """The subtree of nodes[root] in pre-order; a split's children follow
    each other from nodes[first_child[split]] on."""
    out, stack = [], [root]  # the position of each subtree to come, the next one's last
    while stack:
        i = stack.pop()
        node = nodes[i]
        out.append(node)
        if not node.is_leaf:
            first = first_child[i]
            stack.extend(range(first + node.n_children - 1, first - 1, -1))
    return out


# Most training rows, over all trees, that grow together: a step holds the
# rows and weights of the group's open nodes, and one call scores them all.
_GROUP_ROWS = 2**16


def fit_trees(
    d: Dataset, members: Iterable[tuple[np.ndarray, np.ndarray, TreeConfig]], columns: _Columns | None = None
) -> list[DecisionTree]:
    """One tree per (idx, w, cfg), in order.

    Each is the tree fit_tree(d.subset(idx), cfg, weights=w) grows: idx
    lists rows of d (repeats allowed) and w their weights.  Members are
    taken in turn, in groups of at most _GROUP_ROWS rows (one tree at
    least), and the trees of a group grow together.  columns, when given,
    is _Columns(d), which callers growing many sets of trees on d build
    once.
    """
    if columns is None:
        columns = _Columns(d)
    trees: list[DecisionTree] = []
    group: list[tuple[np.ndarray, np.ndarray, TreeConfig]] = []
    rows = 0
    for idx, w, cfg in members:
        if idx.size == 0:
            raise ValueError("cannot fit a tree on an empty training set")
        if group and rows + idx.size > _GROUP_ROWS:
            trees += _grow(d, columns, group)
            group, rows = [], 0
        group.append((idx, w, cfg))
        rows += idx.size
    return trees + _grow(d, columns, group)


def _grow(
    d: Dataset, columns: _Columns, members: list[tuple[np.ndarray, np.ndarray, TreeConfig]]
) -> list[DecisionTree]:
    """Grow a tree for each (idx, w, cfg) of members, each step scoring the
    open nodes of all of them with one call and splitting them with one
    more, then prune them as configured."""
    n_attrs = d.schema.n_attributes
    configs = [cfg for *_, cfg in members]
    sizes = np.array([idx.size for idx, *_ in members], dtype=np.int64)
    idx = np.concatenate([member_idx for member_idx, *_ in members] + [np.zeros(1, dtype=np.int64)])
    w = np.concatenate([member_w for _, member_w, _ in members] + [np.zeros(1)])
    roots = np.arange(len(members))
    key = np.repeat(np.arange(1, len(members) + 1, dtype=np.min_scalar_type(len(members))), sizes)
    class_weights, is_open, idx, w, sizes = _children(d.labels, idx, w, key, len(members))
    nodes = list(map(TreeNode, class_weights))  # the roots, then every step's children
    first_child: dict[int, int] = {}
    level = _Level(idx, w, sizes, roots[is_open], roots[is_open])
    min_leaf = np.array([cfg.min_leaf_weight for cfg in configs], dtype=np.float64)
    # a random-subspace tree draws each node's attributes from its one
    # generator, in level order
    rngs = [None if cfg.random_subspace_size is None else np.random.default_rng(cfg.seed) for cfg in configs]
    drawing = np.array([rng is not None for rng in rngs], dtype=bool)
    subspace = [max(1, min(cfg.random_subspace_size or n_attrs, n_attrs)) for cfg in configs]
    while level.sizes.size:
        candidates = np.ones((level.sizes.size, n_attrs), dtype=bool)
        drawn = np.flatnonzero(drawing.take(level.tree_of))
        if drawn.size:
            owners = level.tree_of.take(drawn).tolist()
            candidates[drawn] = False
            candidates[np.repeat(drawn, [subspace[t] for t in owners]), np.concatenate(
                [rngs[t].choice(n_attrs, size=subspace[t], replace=False) for t in owners]
            )] = True
        ratios, thresholds = _gain_ratios(
            d, columns, level.idx, level.w, level.sizes, candidates, min_leaf.take(level.tree_of)
        )
        level = _split_level(d, columns, nodes, first_child, level, ratios, thresholds)
    trees = []
    for root, cfg in enumerate(configs):
        tree = _preorder(nodes, first_child, root)
        if cfg.use_pruning:
            tree = _prune(tree, _pruning_z(cfg.confidence_factor))
        trees.append(DecisionTree(d.schema, tree, cfg))
    return trees


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
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValueError(f"instance weights must be finite, got {w[bad[0]]} in row {bad[0]}")
        if np.any(w < 0):
            raise ValueError("instance weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = w.sum()
            if not np.isfinite(_xlogx(total)):
                raise ValueError(f"instance weights total {total}, too large for total * log2(total) to be finite")
    return fit_trees(d, [(np.arange(len(d)), w, cfg)])[0]


def random_tree_config(seed: int, n_attributes: int, base: TreeConfig | None = None) -> TreeConfig:
    """base (default TreeConfig()) unpruned, drawing a fresh random attribute
    subset at every node: of base's size, else default_subspace_size."""
    base = base or TreeConfig()
    size = base.random_subspace_size
    if size is None:
        size = default_subspace_size(n_attributes)
    return replace(base, use_pruning=False, random_subspace_size=size, seed=seed)


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
