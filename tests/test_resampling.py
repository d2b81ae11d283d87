from __future__ import annotations

import numpy as np
import pytest

import tracemalloc

from crus import clustering, resampling
from crus.clustering import FeatureScaler
from crus.dataset import NOMINAL, NUMERIC, AttributeSpec, DataError, Dataset, DatasetSchema
from crus.resampling import (
    apply_clustering_rus,
    plan_cluster_partition,
    rus_undersample,
    smote_oversample,
    suggest_threshold,
)


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


def imbalanced_dataset(n_neg, n_pos, rng, center=0.0):
    x = np.concatenate([rng.normal(center, 1.0, n_neg), rng.normal(center, 1.0, n_pos)])
    labels = np.concatenate([np.zeros(n_neg, dtype=np.int8), np.ones(n_pos, dtype=np.int8)])
    perm = rng.permutation(n_neg + n_pos)
    return make_dataset([x[perm]], [NUMERIC], labels[perm])


def test_rus_already_within_spread_is_identity():
    rng = np.random.default_rng(0)
    d = imbalanced_dataset(400, 100, rng)
    assert rus_undersample(d, spread=4.0, seed=1) is d


def test_rus_counts_and_minority_preserved():
    rng = np.random.default_rng(1)
    d = imbalanced_dataset(1000, 100, rng)
    out = rus_undersample(d, spread=4.0, seed=7)
    assert out.n_negative == 400 and out.n_positive == 100
    minority_ids = set(d.row_ids[d.labels == 1].tolist())
    assert set(out.row_ids[out.labels == 1].tolist()) == minority_ids
    assert set(out.row_ids.tolist()) <= set(d.row_ids.tolist())


def test_rus_full_balance():
    rng = np.random.default_rng(2)
    d = imbalanced_dataset(1000, 100, rng)
    out = rus_undersample(d, spread=1.0, seed=3)
    assert out.n_negative == 100 and out.n_positive == 100


def test_rus_keeps_original_order():
    rng = np.random.default_rng(3)
    d = imbalanced_dataset(500, 50, rng)
    out = rus_undersample(d, spread=2.0, seed=5)
    assert np.all(np.diff(out.row_ids) > 0)


def test_rus_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(4)
    d = imbalanced_dataset(600, 60, rng)
    a = rus_undersample(d, spread=3.0, seed=11)
    b = rus_undersample(d, spread=3.0, seed=11)
    c = rus_undersample(d, spread=3.0, seed=12)
    assert np.array_equal(a.row_ids, b.row_ids)
    assert not np.array_equal(a.row_ids, c.row_ids)


def test_rus_validation():
    rng = np.random.default_rng(5)
    d = imbalanced_dataset(100, 10, rng)
    with pytest.raises(ValueError):
        rus_undersample(d, spread=0.0)
    all_neg = make_dataset([[1.0, 2.0, 3.0]], [NUMERIC], [0, 0, 0])
    with pytest.raises(DataError):
        rus_undersample(all_neg, spread=4.0)


def smote_fixture(rng, n_neg=60, n_pos=50):
    cols = [
        np.concatenate([rng.normal(0, 1, n_neg), rng.normal(3, 1, n_pos)]),
        np.concatenate([rng.normal(5, 2, n_neg), rng.normal(5, 2, n_pos)]),
        np.concatenate([rng.integers(0, 3, n_neg), rng.integers(0, 3, n_pos)]).astype(float),
    ]
    labels = np.concatenate([np.zeros(n_neg, dtype=np.int8), np.ones(n_pos, dtype=np.int8)])
    return make_dataset(cols, [NUMERIC, NUMERIC, NOMINAL], labels)


def reference_minority_distances(d, scaler):
    """SMOTE's full m x m distance matrix as it was written before the shared kernel."""
    idx = np.flatnonzero(d.labels == 1)
    norm = scaler.transform(d.values[idx])
    raw = d.values[idx]
    numeric = scaler.numeric
    m = idx.size
    out = np.zeros((m, m))
    num = np.flatnonzero(numeric)
    nom = np.flatnonzero(~numeric)
    for j in num:
        diff = norm[:, j][:, None] - norm[:, j][None, :]
        out += diff * diff
    for j in nom:
        out += (raw[:, j][:, None] != raw[:, j][None, :]).astype(np.float64)
    return out


def minority_knn(d, k):
    """Independent k-nearest-minority-neighbor table (reference distances)."""
    idx = np.flatnonzero(d.labels == 1)
    dist = reference_minority_distances(d, FeatureScaler.fit(d))
    np.fill_diagonal(dist, np.inf)
    return idx, np.argsort(dist, axis=1, kind="stable")[:, :k]


def test_smote_count_and_originals_preserved():
    rng = np.random.default_rng(6)
    d = smote_fixture(rng)
    out = smote_oversample(d, percentage=100.0, seed=2)
    assert len(out) == len(d) + 50
    assert out.n_positive == 100 and out.n_negative == 60
    assert np.array_equal(out.values[: len(d)], d.values)
    assert np.array_equal(out.labels[: len(d)], d.labels)
    assert np.array_equal(out.row_ids[: len(d)], d.row_ids)
    assert not np.any(out.synthetic[: len(d)])
    assert np.all(out.synthetic[len(d):])
    assert np.all(out.labels[len(d):] == 1)
    assert np.array_equal(out.row_ids[len(d):], -1 - np.arange(50))


def test_smote_fractional_percentage_floor():
    rng = np.random.default_rng(7)
    d = smote_fixture(rng, n_pos=10)
    out = smote_oversample(d, percentage=150.0, seed=0)
    assert len(out) == len(d) + 15
    assert len(smote_oversample(d, percentage=0.0, seed=0)) == len(d)


def test_smote_synthetics_lie_on_neighbor_segments():
    rng = np.random.default_rng(8)
    d = smote_fixture(rng)
    k = 5
    out = smote_oversample(d, percentage=200.0, k_neighbors=k, seed=9)
    idx, nn = minority_knn(d, k)
    numeric = d.schema.numeric_mask()
    nominal = ~numeric
    for s in range(len(d), len(out)):
        row = out.values[s]
        ok = False
        for b_local in range(idx.size):
            base = d.values[idx[b_local]]
            if not np.array_equal(row[nominal], base[nominal]):
                continue
            for v_local in nn[b_local]:
                neighbor = d.values[idx[v_local]]
                diff = neighbor[numeric] - base[numeric]
                offs = row[numeric] - base[numeric]
                moving = np.abs(diff) > 1e-12
                if not np.all(np.abs(offs[~moving]) <= 1e-9):
                    continue
                if not np.any(moving):
                    ok = True
                    break
                ts = offs[moving] / diff[moving]
                t = ts[0]
                if np.all(np.abs(ts - t) <= 1e-9) and -1e-12 <= t <= 1 + 1e-12:
                    ok = True
                    break
            if ok:
                break
        assert ok, f"synthetic row {s} not on any base-neighbor segment"


@pytest.mark.parametrize("block_pairs", [clustering._BLOCK_PAIRS, 211])
def test_smote_neighbor_table_matches_reference(monkeypatch, block_pairs):
    monkeypatch.setattr(resampling, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(clustering, "_BLOCK_PAIRS", block_pairs)
    crossed = 0
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n_numeric, n_nominal = int(rng.integers(0, 21)), int(rng.integers(0, 5))
        if n_numeric + n_nominal == 0:
            n_numeric = 1
        k = int(rng.integers(1, 8))
        m = int(rng.integers(k + 1, 320))
        n = m + int(rng.integers(0, 60))
        cols, kinds = [], []
        for _ in range(n_numeric):
            shape = rng.integers(3)
            if shape == 0:
                cols.append(rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10), n))
            elif shape == 1:  # integer-valued, so many distances tie
                cols.append(rng.integers(0, rng.integers(2, 6), n).astype(float))
            else:
                cols.append(np.full(n, rng.uniform(-3, 3)))
            kinds.append(NUMERIC)
        for _ in range(n_nominal):
            cols.append(rng.integers(0, 3, n).astype(float))
            kinds.append(NOMINAL)
        labels = rng.permutation(np.arange(n) < m).astype(np.int8)
        d = make_dataset(cols, kinds, labels)
        scaler = FeatureScaler.fit(d)
        minority = np.flatnonzero(d.labels == 1)
        crossed += m * m > block_pairs
        nn = resampling._minority_neighbors(scaler.transform(d.values[minority]), scaler.numeric, k)
        assert np.array_equal(nn, minority_knn(d, k)[1]), seed
    assert crossed >= 10


@pytest.mark.parametrize("block_pairs", [clustering._BLOCK_PAIRS, 211])
def test_neighbor_table_keeps_ties_in_index_order_up_to_the_largest_k(monkeypatch, block_pairs):
    # integer-valued columns of few values: many rows tie at the k-th distance
    monkeypatch.setattr(resampling, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(clustering, "_BLOCK_PAIRS", block_pairs)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 120))
        n_numeric, n_nominal = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        cols = [rng.integers(0, rng.integers(1, 4), m).astype(float) for _ in range(n_numeric + n_nominal)]
        d = make_dataset(cols, [NUMERIC] * n_numeric + [NOMINAL] * n_nominal, np.ones(m, dtype=np.int8))
        scaler = FeatureScaler.fit(d)
        norm = scaler.transform(d.values)
        for k in {1, int(rng.integers(1, m)), m - 1}:  # m - 1: every other row
            nn = resampling._minority_neighbors(norm, scaler.numeric, k)
            assert np.array_equal(nn, minority_knn(d, k)[1]), (seed, k)


def test_smote_memory_grows_linearly_with_minority():
    rng = np.random.default_rng(21)
    m = 3000
    cols = [rng.normal(0, 1, 2 * m) for _ in range(6)]
    cols += [rng.integers(0, 3, 2 * m).astype(float) for _ in range(2)]
    labels = np.repeat(np.array([0, 1], dtype=np.int8), m)
    d = make_dataset(cols, [NUMERIC] * 6 + [NOMINAL] * 2, labels)
    tracemalloc.start()
    try:
        out = smote_oversample(d, percentage=100.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 3 * m
    # a full m x m float64 distance matrix alone would take 72 MB
    assert peak < 16 * 2**20


def test_smote_deterministic():
    rng = np.random.default_rng(9)
    d = smote_fixture(rng)
    a = smote_oversample(d, percentage=100.0, seed=4)
    b = smote_oversample(d, percentage=100.0, seed=4)
    c = smote_oversample(d, percentage=100.0, seed=5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_smote_validation():
    rng = np.random.default_rng(10)
    small = smote_fixture(rng, n_pos=5)
    with pytest.raises(DataError):
        smote_oversample(small, percentage=100.0, k_neighbors=5)
    d = smote_fixture(rng)
    with pytest.raises(ValueError):
        smote_oversample(d, percentage=-1.0)
    with pytest.raises(ValueError):
        smote_oversample(d, percentage=100.0, k_neighbors=0)


def test_suggest_threshold():
    assert suggest_threshold(13.84, 0.275) == pytest.approx(10.034)
    assert suggest_threshold(7.5, 0.0) == 7.5
    assert suggest_threshold(7.5, 1.0) == 0.0
    with pytest.raises(ValueError):
        suggest_threshold(0.0, 0.5)
    with pytest.raises(ValueError):
        suggest_threshold(5.0, 1.5)


def two_region_dataset(rng, low=(40, 20), high=(200, 10)):
    """Region at x~0 with IR low, region at x~10 with IR high."""
    parts, labels = [], []
    for center, (n_neg, n_pos) in zip((0.0, 10.0), (low, high)):
        parts.append(rng.normal(center, 0.5, n_neg + n_pos))
        labels.append(np.concatenate([np.zeros(n_neg, dtype=np.int8), np.ones(n_pos, dtype=np.int8)]))
    x = np.concatenate(parts)
    y = np.concatenate(labels)
    perm = rng.permutation(x.size)
    return make_dataset([x[perm]], [NUMERIC], y[perm])


def test_partition_recovers_region_ratios_and_flags():
    rng = np.random.default_rng(11)
    d = two_region_dataset(rng)  # IRs 2 and 20
    part = plan_cluster_partition(d, k=2, threshold=10.0, seed=0)
    irs = sorted(part.cluster_ir)
    assert irs[0] == pytest.approx(2.0, rel=0.2)
    assert irs[1] == pytest.approx(20.0, rel=0.2)
    assert sum(part.flagged) == 1
    flagged_cluster = part.flagged.index(True)
    assert part.cluster_ir[flagged_cluster] == irs[1]


def test_partition_no_flags_below_threshold():
    rng = np.random.default_rng(12)
    d = two_region_dataset(rng, low=(30, 10), high=(100, 20))  # IRs 3 and 5
    part = plan_cluster_partition(d, k=2, threshold=10.0, seed=1)
    assert part.flagged == (False, False)


def test_partition_invert_policy_flags_complement():
    rng = np.random.default_rng(13)
    d = two_region_dataset(rng)
    above = plan_cluster_partition(d, k=2, threshold=10.0, seed=0, policy="above")
    invert = plan_cluster_partition(d, k=2, threshold=10.0, seed=0, policy="invert")
    assert invert.flagged == tuple(not f for f in above.flagged)


def test_partition_all_above_threshold_asks_for_larger_k():
    rng = np.random.default_rng(14)
    d = two_region_dataset(rng, low=(150, 10), high=(300, 10))  # IRs 15 and 30
    with pytest.raises(DataError, match="increase k"):
        plan_cluster_partition(d, k=2, threshold=10.0, seed=0)


def test_partition_zero_minority_cluster_is_infinite_and_flagged():
    rng = np.random.default_rng(15)
    d = two_region_dataset(rng, low=(40, 20), high=(150, 0))
    part = plan_cluster_partition(d, k=2, threshold=10.0, seed=0)
    assert np.isinf(max(part.cluster_ir))
    inf_cluster = part.cluster_ir.index(max(part.cluster_ir))
    assert part.flagged[inf_cluster]
    assert any("no minority" in w for w in part.warnings)


def test_partition_validation():
    rng = np.random.default_rng(16)
    d = two_region_dataset(rng)
    with pytest.raises(ValueError):
        plan_cluster_partition(d, k=2, threshold=-1.0, seed=0)
    with pytest.raises(ValueError):
        plan_cluster_partition(d, k=2, threshold=10.0, seed=0, policy="below")


def test_apply_no_flags_gives_full_low_group():
    rng = np.random.default_rng(17)
    d = two_region_dataset(rng, low=(30, 10), high=(100, 20))
    part = plan_cluster_partition(d, k=2, threshold=10.0, seed=1)
    groups = apply_clustering_rus(d, part, spread=4.0, seed=0)
    assert len(groups.high_group) == 0
    assert np.array_equal(np.sort(groups.low_group.row_ids), np.sort(d.row_ids))


def test_apply_undersamples_flagged_pool_only():
    rng = np.random.default_rng(18)
    d = two_region_dataset(rng, low=(40, 20), high=(1000, 100))
    part = plan_cluster_partition(d, k=2, threshold=4.5, seed=2)
    groups = apply_clustering_rus(d, part, spread=4.0, seed=3)
    assert groups.high_group.n_positive == 100
    assert groups.high_group.n_negative == 400
    # unflagged region untouched, minority globally preserved
    assert groups.low_group.n_positive + groups.high_group.n_positive == d.n_positive
    low_ids = set(groups.low_group.row_ids.tolist())
    high_ids = set(groups.high_group.row_ids.tolist())
    assert not (low_ids & high_ids)
    assert (low_ids | high_ids) <= set(d.row_ids.tolist())


def test_apply_zero_minority_flagged_union_drops_group():
    rng = np.random.default_rng(19)
    d = two_region_dataset(rng, low=(40, 20), high=(150, 0))
    part = plan_cluster_partition(d, k=2, threshold=10.0, seed=0)
    groups = apply_clustering_rus(d, part, spread=4.0, seed=1)
    assert len(groups.high_group) == 0
    assert any("no minority" in w for w in groups.warnings)
    assert groups.low_group.n_positive == d.n_positive


def test_apply_huge_spread_keeps_every_flagged_row():
    rng = np.random.default_rng(18)
    d = two_region_dataset(rng, low=(40, 20), high=(1000, 100))
    part = plan_cluster_partition(d, k=2, threshold=4.5, seed=2)
    flagged = np.array(part.flagged)[part.model.assign(d.values)]
    # spread * minority size overflows to inf: no row may be dropped
    groups = apply_clustering_rus(d, part, spread=1e308, seed=3)
    assert np.array_equal(groups.high_group.row_ids, d.row_ids[flagged])
    assert np.array_equal(groups.low_group.row_ids, d.row_ids[~flagged])


def test_apply_spread_validation():
    rng = np.random.default_rng(20)
    d = two_region_dataset(rng)
    part = plan_cluster_partition(d, k=2, threshold=10.0, seed=0)
    with pytest.raises(ValueError):
        apply_clustering_rus(d, part, spread=-2.0, seed=0)
