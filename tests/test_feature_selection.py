from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from crus import trees
from crus.dataset import NOMINAL, NUMERIC, AttributeSpec, Dataset, DatasetSchema
from crus.feature_selection import (
    AttributeRank,
    cfs_best_first,
    discretize,
    gain_ratio_rank,
    symmetrical_uncertainty,
)
from crus.trees import _numeric_candidates
from test_trees import _nominal_stats  # the per-node nominal scorer, kept there as a reference


def make_dataset(columns, kinds, labels, n_categories=3):
    attrs = []
    for i, kind in enumerate(kinds):
        if kind == NOMINAL:
            cats = tuple(f"c{j}" for j in range(n_categories))
            attrs.append(AttributeSpec(f"f{i}", NOMINAL, cats))
        else:
            attrs.append(AttributeSpec(f"f{i}", NUMERIC))
    schema = DatasetSchema(tuple(attrs), "y", "neg", "pos")
    values = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    return Dataset(schema, values, np.asarray(labels, dtype=np.int8))


def noisy_dataset(rng, n=200):
    """One nominal copy of the class, one independent nominal, one constant
    numeric, one numeric that tracks the class."""
    y = (rng.uniform(size=n) < 0.4).astype(np.int8)
    copy = y.astype(np.float64)
    independent = rng.integers(0, 3, n).astype(np.float64)
    constant = np.zeros(n)
    tracker = y * 4.0 + rng.normal(0, 0.1, n)
    return make_dataset(
        [copy, independent, constant, tracker],
        [NOMINAL, NOMINAL, NUMERIC, NUMERIC],
        y,
    )


def test_gain_ratio_perfect_attribute_first():
    rng = np.random.default_rng(0)
    d = noisy_dataset(rng)
    ranks = gain_ratio_rank(d)
    assert ranks[0].index == 0
    assert ranks[0].score == pytest.approx(1.0)
    assert [r.score for r in ranks] == sorted((r.score for r in ranks), reverse=True)
    assert all(r.score >= 0 for r in ranks)


def test_gain_ratio_independent_attribute_near_zero():
    rng = np.random.default_rng(1)
    d = noisy_dataset(rng, n=4000)
    scores = {r.index: r.score for r in gain_ratio_rank(d)}
    assert scores[1] < 0.01


def test_gain_ratio_constant_attribute_scores_zero():
    rng = np.random.default_rng(2)
    d = noisy_dataset(rng)
    scores = {r.index: r.score for r in gain_ratio_rank(d)}
    assert scores[2] == 0.0


def test_gain_ratio_numeric_tracker_scores_high():
    rng = np.random.default_rng(3)
    d = noisy_dataset(rng)
    scores = {r.index: r.score for r in gain_ratio_rank(d)}
    assert scores[3] > 0.9


def test_gain_ratio_ties_keep_index_order():
    y = np.array([0, 0, 1, 1], dtype=np.int8)
    col = np.array([0.0, 0.0, 1.0, 1.0])
    d = make_dataset([col, col], [NOMINAL, NOMINAL], y, n_categories=2)
    ranks = gain_ratio_rank(d)
    assert [r.index for r in ranks] == [0, 1]
    assert ranks[0].score == ranks[1].score


def test_gain_ratio_rejects_degenerate_inputs():
    y = np.array([1, 1, 1], dtype=np.int8)
    d = make_dataset([[0.0, 1.0, 2.0]], [NUMERIC], y)
    with pytest.raises(ValueError):
        gain_ratio_rank(d)
    empty = make_dataset([[]], [NUMERIC], np.array([], dtype=np.int8))
    with pytest.raises(ValueError):
        gain_ratio_rank(empty)


def test_gain_ratio_invariant_under_category_relabeling():
    rng = np.random.default_rng(4)
    y = (rng.uniform(size=300) < 0.5).astype(np.int8)
    codes = rng.integers(0, 3, 300)
    biased = np.where(y == 1, (codes + 1) % 3, codes).astype(np.float64)
    d1 = make_dataset([biased], [NOMINAL], y)
    relabel = np.array([2.0, 0.0, 1.0])
    d2 = make_dataset([relabel[biased.astype(int)]], [NOMINAL], y)
    s1 = gain_ratio_rank(d1)[0].score
    s2 = gain_ratio_rank(d2)[0].score
    assert s1 == pytest.approx(s2, abs=1e-12)


def reference_gain_ratio_rank(d):
    """The ranking as scored before it shared the tree grower's scorer: a
    numeric attribute alone as a one-row block, a nominal one by its
    multiway split."""
    y = np.asarray(d.labels)
    w = np.ones(len(d))
    ranks = []
    for i, spec in enumerate(d.schema.attributes):
        vals = d.values[:, i]
        if spec.kind == NUMERIC:
            _, gains, infos = _numeric_candidates(vals, y, w, min_leaf=0.0)
            usable = infos > 0
            score = float((gains[usable] / infos[usable]).max()) if np.any(usable) else 0.0
        else:
            stats = _nominal_stats(vals, y, w, len(spec.categories), min_leaf=0.0)
            score = 0.0 if stats is None or stats[1] <= 0 else float(stats[0] / stats[1])
        ranks.append(AttributeRank(i, spec.name, score))
    return sorted(ranks, key=lambda r: (-r.score, r.index))


def ranking_case(seed):
    """A seeded dataset of mixed kinds with tied, constant and unobserved values."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 7, 40, 300, 1500]))
    n_numeric = int(rng.integers(0, 9))
    n_nominal = int(rng.integers(0 if n_numeric else 1, 4))
    cols, kinds, attrs = [], [], []
    for _ in range(n_numeric):
        style = rng.integers(4)
        if style == 0:
            col = rng.normal(0, 1, n)
        elif style == 1:  # integer ties
            col = rng.integers(0, 4, n).astype(float)
        elif style == 2:  # constant
            col = np.full(n, -1.5)
        else:  # a few values at wide scales
            col = np.round(rng.exponential(1e3, n), 1)
        attrs.append(AttributeSpec(f"x{len(attrs)}", NUMERIC))
        cols.append(col)
    for _ in range(n_nominal):
        k = int(rng.integers(1, 5))
        # codes below k - 1 only, so the last category may go unobserved
        cols.append(rng.integers(0, max(1, k - int(rng.integers(2))), n).astype(float))
        attrs.append(AttributeSpec(f"c{len(attrs)}", NOMINAL, tuple(f"k{c}" for c in range(k))))
    signal = cols[0] + rng.normal(0, 1.5, n)
    labels = (signal > np.median(signal)).astype(np.int8)
    labels[: 2] = [0, 1]
    schema = DatasetSchema(tuple(attrs), "y", "neg", "pos")
    return Dataset(schema, np.column_stack(cols), labels)


@pytest.mark.parametrize("block_cells", [8192, 16])
def test_gain_ratio_rank_equals_per_attribute_reference(monkeypatch, block_cells):
    # 16 cells per block puts each numeric attribute in its own block (or a
    # few in one at tiny sizes); the default puts up to 8 numeric
    # attributes of 1,500 rows in two blocks
    monkeypatch.setattr(trees, "_BLOCK_CELLS", block_cells)
    scored = positive = 0
    for seed in range(200):
        d = ranking_case(seed)
        got, want = gain_ratio_rank(d), reference_gain_ratio_rank(d)
        assert got == want, seed
        assert [r.score.hex() for r in got] == [r.score.hex() for r in want], seed  # -0.0 too
        scored += len(got)
        positive += sum(r.score > 0 for r in got)
    assert scored > 800 and positive > 400


def entropy(counts):
    p = np.asarray(counts, dtype=np.float64)
    p = p[p > 0] / p.sum()
    return float(-(p * np.log2(p)).sum())


def brute_su(x, y):
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    hx = entropy(np.bincount(x))
    hy = entropy(np.bincount(y))
    if hx == 0 or hy == 0:
        return 0.0
    joint = {}
    for a, b in zip(x, y):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    hxy = entropy(list(joint.values()))
    return 2.0 * (hx + hy - hxy) / (hx + hy)


def test_su_identity_symmetry_and_relabeling():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 4, 500)
    y = rng.integers(0, 2, 500)
    assert symmetrical_uncertainty(x, x) == pytest.approx(1.0)
    assert symmetrical_uncertainty(x, y) == pytest.approx(symmetrical_uncertainty(y, x))
    relabeled = (3 - x) % 4
    assert symmetrical_uncertainty(relabeled, y) == pytest.approx(
        symmetrical_uncertainty(x, y), abs=1e-12
    )


def test_su_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.integers(0, 3, 100)
        y = (x + rng.integers(0, 2, 100)) % 3
        assert symmetrical_uncertainty(x, y) == pytest.approx(brute_su(x, y), abs=1e-12)


def test_su_constant_variable_is_zero():
    x = np.zeros(10, dtype=np.int64)
    y = np.arange(10) % 2
    assert symmetrical_uncertainty(x, y) == 0.0


def test_su_validation():
    with pytest.raises(ValueError):
        symmetrical_uncertainty(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        symmetrical_uncertainty(np.array([]), np.array([]))


def hall_merit(d, subset):
    """k * mean SU(attribute, class) / sqrt(k + k(k-1) * mean SU(attribute, attribute))."""
    codes, y = discretize(d), np.asarray(d.labels)
    k = len(subset)
    r_cf = float(np.mean([symmetrical_uncertainty(codes[:, i], y) for i in subset]))
    pairs = [symmetrical_uncertainty(codes[:, a], codes[:, b]) for t, a in enumerate(subset) for b in subset[t + 1:]]
    r_ff = float(np.mean(pairs)) if pairs else 0.0
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def only_attribute(d, i):
    schema = DatasetSchema((d.schema.attributes[i],), "y", "neg", "pos")
    return Dataset(schema, d.values[:, [i]], d.labels)


def test_cfs_merit_single_attribute_is_class_su():
    rng = np.random.default_rng(7)
    d = noisy_dataset(rng)
    codes = discretize(d)
    expected = symmetrical_uncertainty(codes[:, 3], np.asarray(d.labels))
    for i, want in ((3, expected), (0, 1.0)):
        result = cfs_best_first(only_attribute(d, i))
        assert result.selected == (0,) and result.n_evaluated == 1
        assert result.merit == pytest.approx(want)


def test_cfs_merit_duplicate_of_perfect_attribute():
    y = np.tile(np.array([0, 1], dtype=np.int8), 20)
    col = y.astype(np.float64)
    d = make_dataset([col, col], [NOMINAL, NOMINAL], y, n_categories=2)
    # SU_cf = 1 and SU_ff = 1 give the pair 2/sqrt(2+2): the redundant copy
    # adds nothing, so the search keeps the single attribute
    result = cfs_best_first(d)
    assert result.n_evaluated == 3
    assert result.selected == (0,) and result.merit == pytest.approx(1.0)
    assert hall_merit(d, (0, 1)) == pytest.approx(2.0 / math.sqrt(4.0))


def test_cfs_merit_independent_attributes_scale_sqrt_k():
    """With r_ff = 0 the merit formula reduces to mean(SU_cf) * sqrt(k)."""
    rng = np.random.default_rng(8)
    n = 5000
    cols = [rng.integers(0, 2, n).astype(np.float64) for _ in range(3)]
    y = (sum(cols) >= 2).astype(np.int8)  # each attribute agrees with the class 3/4 of the time
    d = make_dataset(cols, [NOMINAL] * 3, y, n_categories=2)
    codes = discretize(d)
    su_cf = [symmetrical_uncertainty(codes[:, i], y) for i in range(3)]
    su_ff = [symmetrical_uncertainty(codes[:, i], codes[:, j]) for i in range(3) for j in range(i + 1, 3)]
    assert max(su_ff) < 0.005
    expected = float(np.mean(su_cf)) * math.sqrt(3) / math.sqrt(1 + 2 * float(np.mean(su_ff)))
    result = cfs_best_first(d)
    assert result.selected == (0, 1, 2)
    assert result.merit == pytest.approx(expected, abs=1e-9)
    assert result.merit > max(su_cf) * math.sqrt(2)


def test_best_first_selects_the_informative_attribute():
    rng = np.random.default_rng(10)
    d = noisy_dataset(rng)
    result = cfs_best_first(d)
    assert 0 in result.selected
    # noise and constants add nothing next to a perfect attribute
    assert result.merit == pytest.approx(hall_merit(d, result.selected))
    assert result.merit >= hall_merit(d, (0,)) - 1e-12
    assert result.n_evaluated >= d.schema.n_attributes
    assert result.names[result.selected.index(0)] == "f0"


def test_best_first_all_noise_low_merit():
    rng = np.random.default_rng(11)
    n = 2000
    y = rng.integers(0, 2, n).astype(np.int8)
    cols = [rng.integers(0, 3, n).astype(np.float64) for _ in range(4)]
    d = make_dataset(cols, [NOMINAL] * 4, y)
    result = cfs_best_first(d)
    assert result.merit < 0.02
    assert len(result.selected) >= 1


def test_best_first_deterministic():
    rng = np.random.default_rng(12)
    d = noisy_dataset(rng)
    a = cfs_best_first(d)
    b = cfs_best_first(d)
    assert a == b


def test_best_first_validation():
    rng = np.random.default_rng(13)
    d = noisy_dataset(rng)
    with pytest.raises(ValueError):
        cfs_best_first(d, max_stale=0)


def test_discretize_empty_dataset_has_no_codes():
    d = make_dataset([[]], [NUMERIC], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert discretize(d).shape == (0, 1)


def test_discretize_codes():
    y = np.array([0, 0, 1, 1], dtype=np.int8)
    d = make_dataset(
        [[1.0, 2.0, 10.0, 11.0], [2.0, 0.0, 1.0, 2.0]], [NUMERIC, NOMINAL], y
    )
    codes = discretize(d)
    assert codes[:, 0].tolist() == [0, 0, 1, 1]
    assert codes[:, 1].tolist() == [2, 0, 1, 2]
