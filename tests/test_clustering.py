from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crus import clustering
from crus.clustering import (
    ClusterModel,
    FeatureScaler,
    _sq_distances,
    kmeans_fit,
)
from crus.dataset import NOMINAL, NUMERIC, AttributeSpec, Dataset, DatasetSchema
from crus.modelfile import model_from_text, model_to_text
from crus.resampling import plan_cluster_partition, smote_oversample


def make_dataset(columns, kinds, labels=None, categories=("a", "b", "c")):
    attrs = []
    for i, kind in enumerate(kinds):
        if kind == NOMINAL:
            attrs.append(AttributeSpec(f"f{i}", NOMINAL, categories))
        else:
            attrs.append(AttributeSpec(f"f{i}", NUMERIC))
    schema = DatasetSchema(tuple(attrs), "y", "neg", "pos")
    values = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    if labels is None:
        labels = np.zeros(values.shape[0], dtype=np.int8)
        labels[0] = 1
    return Dataset(schema, values, np.asarray(labels, dtype=np.int8))


def two_blob_dataset(rng, n_per=30, centers=((1.0, 1.0), (9.0, 9.0))):
    pts = np.vstack(
        [c + rng.uniform(-1.0, 1.0, size=(n_per, 2)) for c in centers]
    )
    d = make_dataset([pts[:, 0], pts[:, 1]], [NUMERIC, NUMERIC])
    truth = np.repeat(np.arange(len(centers)), n_per)
    return d, truth


def test_scaler_normalizes_and_clamps():
    d = make_dataset([[0.0, 5.0, 10.0], [0, 1, 1]], [NUMERIC, NOMINAL])
    scaler = FeatureScaler.fit(d)
    row = scaler.transform(np.array([5.0, 1.0]))
    assert row[0] == pytest.approx(0.5)
    assert row[1] == 1.0  # nominal passes through untouched
    out_of_range = scaler.transform(np.array([[-3.0, 0.0], [40.0, 2.0]]))
    assert out_of_range[0, 0] == 0.0
    assert out_of_range[1, 0] == 1.0


def test_scaler_constant_attribute_contributes_nothing():
    d = make_dataset([[7.0, 7.0, 7.0], [1.0, 2.0, 3.0]], [NUMERIC, NUMERIC])
    scaler = FeatureScaler.fit(d)
    norm = scaler.transform(d.values)
    assert np.all(norm[:, 0] == 0.0)
    assert _sq_distances(norm[:1], norm[2:], scaler.numeric)[0, 0] == pytest.approx(1.0)


def test_scaler_empty_dataset_rejected():
    d = make_dataset([[1.0, 2.0]], [NUMERIC])
    with pytest.raises(ValueError):
        FeatureScaler.fit(d.subset(np.array([], dtype=np.int64)))


def test_sq_distances_identity_and_single_mismatch():
    d = make_dataset([[0.0, 10.0], [0, 1]], [NUMERIC, NOMINAL])
    scaler = FeatureScaler.fit(d)
    first = scaler.transform(d.values[:1])
    assert _sq_distances(first, first, scaler.numeric)[0, 0] == 0.0
    a, b = scaler.transform(np.array([[5.0, 0.0], [5.0, 2.0]]))
    assert _sq_distances(a[None], b[None], scaler.numeric)[0, 0] == pytest.approx(1.0)


def test_sq_distances_unit_corners():
    d = make_dataset([[0.0, 10.0], [0.0, 4.0]], [NUMERIC, NUMERIC])
    scaler = FeatureScaler.fit(d)
    norm = scaler.transform(d.values)
    assert _sq_distances(norm[:1], norm[1:], scaler.numeric)[0, 0] == pytest.approx(2.0)


def test_sq_distances_hand_value():
    # numeric ranges [0,10] and [0,4]; nominal mismatch adds 1
    d = make_dataset([[0.0, 10.0], [0.0, 4.0], [0, 1]], [NUMERIC, NUMERIC, NOMINAL])
    scaler = FeatureScaler.fit(d)
    norm = scaler.transform(np.array([[2.0, 1.0, 0.0], [7.0, 3.0, 2.0]]))
    expected = 0.5**2 + 0.5**2 + 1.0
    assert _sq_distances(norm, norm, scaler.numeric) == pytest.approx(np.array([[0.0, expected], [expected, 0.0]]))


def reference_distance_matrix(norm_values, centroids, numeric):
    """The k-means distance matrix as it was written before the shared kernel."""
    n, k = norm_values.shape[0], centroids.shape[0]
    out = np.zeros((n, k))
    num = np.flatnonzero(numeric)
    nom = np.flatnonzero(~numeric)
    for c in range(k):
        if num.size:
            diff = norm_values[:, num] - centroids[c, num]
            out[:, c] += np.sum(diff * diff, axis=1)
        if nom.size:
            out[:, c] += np.sum(norm_values[:, nom] != centroids[c, nom], axis=1)
    return out


def mixed_columns(rng, n, n_numeric, n_nominal):
    """Continuous, integer-valued (tied) and constant numeric columns plus
    nominal category indices, in a shuffled attribute order."""
    cols, kinds = [], []
    for _ in range(n_numeric):
        shape = rng.integers(3)
        if shape == 0:
            cols.append(rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10), n))
        elif shape == 1:
            cols.append(rng.integers(0, rng.integers(2, 6), n).astype(float))
        else:
            cols.append(np.full(n, rng.uniform(-3, 3)))
        kinds.append(NUMERIC)
    for _ in range(n_nominal):
        cols.append(rng.integers(0, 3, n).astype(float))
        kinds.append(NOMINAL)
    order = rng.permutation(len(cols))
    return [cols[i] for i in order], [kinds[i] for i in order]


@pytest.mark.parametrize("block_pairs", [clustering._BLOCK_PAIRS, 37])
def test_kernel_matches_kmeans_reference(monkeypatch, block_pairs):
    monkeypatch.setattr(clustering, "_BLOCK_PAIRS", block_pairs)
    crossed = 0
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n_numeric, n_nominal = int(rng.integers(0, 21)), int(rng.integers(0, 5))
        if n_numeric + n_nominal == 0:
            n_nominal = 1
        # from two rows on, the reference's column-major gather adds the
        # attributes one at a time; for a single row np.sum adds 8 or more
        # of them pairwise, which the kernel deliberately does not follow
        n = int(rng.integers(2, 500))
        cols, kinds = mixed_columns(rng, n, n_numeric, n_nominal)
        d = make_dataset(cols, kinds)
        scaler = FeatureScaler.fit(d)
        norm = scaler.transform(d.values)
        # centroid-like rows: some data rows (zero distances), some means/modes
        k = int(rng.integers(1, 300))
        centroids = norm[rng.integers(0, n, k)].copy()
        fresh = rng.random(k) < 0.5
        centroids[np.ix_(fresh, scaler.numeric)] = rng.uniform(0, 1, (fresh.sum(), n_numeric))
        centroids[np.ix_(fresh, ~scaler.numeric)] = rng.integers(0, 3, (fresh.sum(), n_nominal))
        crossed += n * k > block_pairs
        got = _sq_distances(norm, centroids, scaler.numeric)
        assert np.array_equal(got, reference_distance_matrix(norm, centroids, scaler.numeric)), seed
    assert crossed >= 10


def reference_update_centroids(norm_values, assign, k, numeric):
    """The centroid update as it was written before it was vectorized: a
    loop over clusters and attributes."""
    d = norm_values.shape[1]
    centroids = np.zeros((k, d))
    for c in range(k):
        members = norm_values[assign == c]
        for j in range(d):
            col = members[:, j]
            if numeric[j]:
                centroids[c, j] = col.mean()
            else:
                # mode; ties broken by lowest category index
                cats, counts = np.unique(col, return_counts=True)
                centroids[c, j] = cats[np.argmax(counts)]
    return centroids


def test_centroid_update_matches_per_cluster_reference():
    ties = 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n_numeric, n_nominal = int(rng.integers(0, 12)), int(rng.integers(1, 5))
        n = int(rng.integers(2, 400))
        cols, kinds = mixed_columns(rng, n, n_numeric, n_nominal)
        # few categories, some never seen: many clusters tie on their mode
        for i, kind in enumerate(kinds):
            if kind == NOMINAL:
                cols[i] = rng.integers(0, int(rng.integers(1, 4)), n).astype(float) * int(rng.integers(1, 3))
        d = make_dataset(cols, kinds, categories=("a", "b", "c", "d", "e"))
        scaler = FeatureScaler.fit(d)
        norm = scaler.transform(d.values)
        k = int(rng.integers(1, min(n, 12) + 1))
        assign = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])[rng.permutation(n)]
        # every cluster has members, so none keeps its (NaN) old centroid
        got = clustering._update_centroids(norm, assign, np.full((k, norm.shape[1]), np.nan), scaler.numeric)
        want = reference_update_centroids(norm, assign, k, scaler.numeric)
        assert got.tobytes() == want.tobytes(), seed
        for c in range(k):
            for j in np.flatnonzero(~scaler.numeric):
                counts = np.unique(norm[assign == c, j], return_counts=True)[1]
                ties += (counts == counts.max()).sum() > 1
    assert ties > 100


# k-means as it was written before the attribute-major kernel: a distance
# kernel that reads A through a strided transpose, a scaler fitted and the
# data normalized per run, argmin, a sort-based centroid update and the
# objective recomputed after the loop.  The current code must agree bit
# for bit.
def earlier_sq_distances(A, B, numeric):
    out = np.empty((len(B), len(A)))
    step = max(1, clustering._BLOCK_PAIRS // len(B))
    for lo in range(0, len(A), step):
        a = A[lo:lo + step].T
        sq = np.zeros((len(B), a.shape[1]))
        for j in np.flatnonzero(numeric):
            diff = B[:, j, None] - a[j]
            sq += diff * diff
        mismatches = np.zeros(sq.shape, dtype=np.int64)
        for j in np.flatnonzero(~numeric):
            mismatches += B[:, j, None] != a[j]
        out[:, lo:lo + step] = sq + mismatches
    return out.T


def earlier_update_centroids(norm_values, assign, centroids, numeric):
    k = len(centroids)
    centroids = centroids.copy()
    sizes = np.bincount(assign, minlength=k)
    full = sizes > 0
    cols = np.ascontiguousarray(norm_values[np.argsort(assign, kind="stable")][:, numeric].T)
    ends = np.cumsum(sizes)
    sums = np.array([cols[:, end - size:end].sum(axis=1) for size, end in zip(sizes[full], ends[full])])
    centroids[np.ix_(full, numeric)] = sums / sizes[full, np.newaxis]
    for j in np.flatnonzero(~numeric):
        codes = norm_values[:, j].astype(np.int64)
        n_codes = int(codes.max()) + 1
        counts = np.bincount(assign * n_codes + codes, minlength=k * n_codes).reshape(k, n_codes)
        centroids[full, j] = np.argmax(counts[full], axis=1)
    return centroids


def earlier_kmeans_fit(d, k, seed):
    best = None
    for r in range(clustering._RESTARTS):
        model = earlier_kmeans_single(d, k, seed + r)
        if best is None or model.objective < best.objective:
            best = model
    return best


def earlier_kmeans_single(d, k, seed):
    n = len(d)
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and the number of instances ({n}), got {k}")
    scaler = FeatureScaler.fit(d)
    norm = scaler.transform(d.values)
    numeric = scaler.numeric
    rng = np.random.default_rng(seed)
    centroids = norm[np.sort(rng.choice(n, size=k, replace=False))].copy()
    assign = np.full(n, -1, dtype=np.int64)
    repairs = 0
    n_iter = 0
    for n_iter in range(1, clustering._MAX_ITER + 1):
        d2 = earlier_sq_distances(norm, centroids, numeric)
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                far = int(np.argmax(d2[:, c]))
                centroids[c] = norm[far]
                repairs += 1
                d2 = earlier_sq_distances(norm, centroids, numeric)
                new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centroids = earlier_update_centroids(norm, assign, centroids, numeric)
    objective = float(earlier_sq_distances(norm, centroids, numeric).min(axis=1).sum())
    return ClusterModel(d.schema, centroids, scaler, seed, n_iter, repairs, objective)


def kmeans_case(seed):
    """A seeded dataset and k: numeric-only, nominal-only or mixed
    attributes, constant columns, duplicated rows, k from 1 to n."""
    rng = np.random.default_rng(seed)
    shape = seed % 3
    n_numeric = 0 if shape == 1 else int(rng.integers(1, 9))
    n_nominal = 0 if shape == 0 else int(rng.integers(1, 4))
    k_is_n = seed % 5 == 1
    n = int(rng.integers(1, 40 if k_is_n else 250))
    cols, kinds = mixed_columns(rng, n, n_numeric, n_nominal)
    d = make_dataset(cols, kinds)
    if seed % 4 == 0:
        # few distinct rows: duplicate initial centroids empty clusters
        d = d.subset(rng.integers(0, min(n, 4), n))
    if k_is_n:
        return d, n
    return d, 1 if seed % 5 == 0 else int(rng.integers(1, min(n, 12) + 1))


def test_kmeans_fit_bit_identical_to_earlier_code(monkeypatch):
    seen = {"repairs": 0, "max_iter": 0, "k1": 0, "kn": 0, "const": 0, "nominal_only": 0, "numeric_only": 0}
    for seed in range(120):
        d, k = kmeans_case(seed)
        if seed >= 100:
            monkeypatch.setattr(clustering, "_MAX_ITER", seed % 3 + 1)
        got = kmeans_fit(d, k, seed)
        want = earlier_kmeans_fit(d, k, seed)
        assert got.centroids.tobytes() == want.centroids.tobytes(), seed
        assert (got.n_iter, got.repairs, got.seed) == (want.n_iter, want.repairs, want.seed), seed
        assert got.objective == want.objective, seed
        numeric = d.schema.numeric_mask()
        seen["repairs"] += got.repairs > 0
        seen["max_iter"] += got.n_iter == clustering._MAX_ITER
        seen["k1"] += k == 1
        seen["kn"] += k == len(d) > 1
        seen["const"] += any(np.ptp(d.values[:, j]) == 0 for j in np.flatnonzero(numeric))
        seen["nominal_only"] += not numeric.any()
        seen["numeric_only"] += numeric.all()
    assert min(seen.values()) >= 5, seen


def test_kmeans_fit_fits_its_scaler_once(monkeypatch):
    fits = []
    fit = FeatureScaler.fit
    monkeypatch.setattr(FeatureScaler, "fit", staticmethod(lambda d: fits.append(d) or fit(d)))
    d, _ = two_blob_dataset(np.random.default_rng(3))
    kmeans_fit(d, k=3, seed=0)
    assert len(fits) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cell_refused_by_scaler_kmeans_and_smote(bad):
    rng = np.random.default_rng(5)
    d = make_dataset([rng.normal(size=40), rng.integers(0, 3, 40)], [NUMERIC, NOMINAL],
                     labels=np.arange(40) % 4 == 0)
    values = d.values.copy()
    values[7, 0] = bad
    d = Dataset(d.schema, values, d.labels)
    message = f"row 7 has {bad}, not a finite number, for attribute 'f0'"
    for call in (FeatureScaler.fit, lambda d: kmeans_fit(d, 2, 0),
                 lambda d: plan_cluster_partition(d, 2, 10.0, 0), lambda d: smote_oversample(d, 100, 3, 0)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(d)



def test_scaler_refuses_a_range_wider_than_the_largest_float():
    # finite cells whose difference overflows would normalize to NaN
    d = make_dataset([[0.0, 1.0, 2.0], [-1e308, 0.0, 1e308]], [NUMERIC, NUMERIC])
    with pytest.raises(ValueError, match="attribute 'f1' spans -1e.308 to 1e.308, a range wider than the largest float"):
        kmeans_fit(d, 2, 0)

def test_kmeans_k1_centroid_is_mean_and_mode():
    d = make_dataset([[0.0, 5.0, 10.0], [0, 0, 1]], [NUMERIC, NOMINAL])
    model = kmeans_fit(d, k=1, seed=0)
    assert model.centroids.shape == (1, 2)
    assert model.centroids[0, 0] == pytest.approx(0.5)  # mean of normalized 0, .5, 1
    assert model.centroids[0, 1] == 0.0  # modal category


def test_kmeans_two_blobs_purity_and_centroid_location():
    rng = np.random.default_rng(7)
    d, truth = two_blob_dataset(rng)
    model = kmeans_fit(d, k=2, seed=3)
    assign = model.assign(d.values)
    # assignment must match an exhaustive nearest-mean check on raw values
    for blob in (0, 1):
        labels = assign[truth == blob]
        assert np.all(labels == labels[0])
    assert assign[truth == 0][0] != assign[truth == 1][0]
    # each centroid sits inside its blob's bounding box (normalized space)
    scaler = model.scaler
    for blob in (0, 1):
        members = scaler.transform(d.values[truth == blob])
        c = model.centroids[assign[truth == blob][0]]
        assert np.all(c >= members.min(axis=0) - 1e-12)
        assert np.all(c <= members.max(axis=0) + 1e-12)


def test_kmeans_deterministic_for_seed():
    rng = np.random.default_rng(11)
    d, _ = two_blob_dataset(rng)
    a = kmeans_fit(d, k=3, seed=5)
    b = kmeans_fit(d, k=3, seed=5)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.n_iter == b.n_iter and a.objective == b.objective


def test_kmeans_more_iterations_never_worse(monkeypatch):
    rng = np.random.default_rng(2)
    d, _ = two_blob_dataset(rng, n_per=40)
    late = kmeans_fit(d, k=4, seed=9)
    monkeypatch.setattr(clustering, "_MAX_ITER", 1)
    early = kmeans_fit(d, k=4, seed=9)
    assert early.n_iter == 1 < late.n_iter
    assert late.objective <= early.objective + 1e-9


def test_kmeans_empty_cluster_repair():
    # five identical points and one outlier: duplicate initial centroids
    # leave cluster 1 empty until the repair reseeds it
    cols = [[0.0, 0.0, 0.0, 0.0, 0.0, 10.0]]
    d = make_dataset(cols, [NUMERIC])
    repaired = []
    for seed in range(30):
        model = kmeans_fit(d, k=2, seed=seed)
        assign = model.assign(d.values)
        assert set(np.unique(assign)) == {0, 1}
        repaired.append(model.repairs > 0)
    assert any(repaired)


def test_kmeans_emptied_cluster_keeps_its_centroid():
    # reseeding an empty cluster here empties a lower cluster that was
    # already checked; its centroid must not become 0/0
    d = make_dataset([[0.0, 0.0, 1.0, 1.0, 2.0]], [NUMERIC], labels=[1, 0, 1, 0, 1])
    model = kmeans_fit(d, k=3, seed=1)
    assert np.all(np.isfinite(model.centroids))
    assert model.objective == 0.0
    assign = model.assign(d.values)
    assert assign[0] == assign[1] and assign[2] == assign[3]
    assert len(set(assign.tolist())) == 3
    part = plan_cluster_partition(d, k=3, threshold=10.0, seed=1)
    assert part.warnings == ()
    assert np.array_equal(model_from_text(model_to_text(part.model)).centroids, part.model.centroids)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_kmeans_objective_never_increases_and_centroids_stay_finite(data):
    n = data.draw(st.integers(1, 12), label="n")
    kinds = data.draw(st.lists(st.sampled_from([NUMERIC, NOMINAL]), min_size=1, max_size=3), label="kinds")
    # few distinct values: duplicate rows tie and empty clusters
    cols = [data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label=f"col{j}") for j in range(len(kinds))]
    k = data.draw(st.integers(1, n), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    d = make_dataset([np.array(c, dtype=float) for c in cols], kinds)
    objectives = []
    nearest_centroids, take_reseeded = clustering._nearest_centroids, clustering._take_reseeded

    def finite(A, B, numeric):
        assert np.all(np.isfinite(B))
        return _sq_distances(A, B, numeric)

    def full_pick(d2):
        nearest, least = nearest_centroids(d2)
        objectives.append(float(least.sum()))
        return nearest, least

    def one_row_pick(d2_c, c, nearest, least):
        take_reseeded(d2_c, c, nearest, least)
        objectives.append(float(least.sum()))

    # the objective after every pick of nearest centroids: over all k
    # distance rows, or after a reseed over its one new row
    with pytest.MonkeyPatch.context() as m:
        m.setattr(clustering, "_sq_distances", finite)
        m.setattr(clustering, "_nearest_centroids", full_pick)
        m.setattr(clustering, "_take_reseeded", one_row_pick)
        model = clustering._kmeans_single(d.schema, scaler := FeatureScaler.fit(d), scaler.transform(d.values), k, seed)
    assert np.all(np.isfinite(model.centroids))
    assert objectives[-1] == model.objective
    for earlier, later in zip(objectives, objectives[1:]):
        assert later <= earlier + 1e-9 * max(1.0, earlier)


def test_kmeans_k_validation():
    d = make_dataset([[1.0, 2.0, 3.0]], [NUMERIC])
    with pytest.raises(ValueError):
        kmeans_fit(d, k=0, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(d, k=4, seed=0)


def test_kmeans_affine_rescaling_keeps_assignments():
    rng = np.random.default_rng(13)
    d, _ = two_blob_dataset(rng)
    base = kmeans_fit(d, k=2, seed=1)
    scaled_values = d.values.copy()
    scaled_values[:, 0] = scaled_values[:, 0] * 3.5 + 20.0
    d2 = Dataset(d.schema, scaled_values, d.labels)
    other = kmeans_fit(d2, k=2, seed=1)
    assert np.array_equal(base.assign(d.values), other.assign(d2.values))


def test_assign_cluster_tie_breaks_to_lowest_index():
    d = make_dataset([[0.0, 10.0]], [NUMERIC])
    scaler = FeatureScaler.fit(d)
    model = ClusterModel(
        d.schema,
        centroids=np.array([[0.0], [1.0]]),
        scaler=scaler,
        seed=0,
    )
    assert model.assign(np.array([[5.0], [0.0], [10.0]])).tolist() == [0, 0, 1]


def test_cluster_model_roundtrip():
    rng = np.random.default_rng(4)
    cols = [rng.uniform(0, 10, 25), rng.integers(0, 3, 25).astype(float)]
    d = make_dataset(cols, [NUMERIC, NOMINAL])
    model = kmeans_fit(d, k=3, seed=8)
    text = model_to_text(model)
    back = model_from_text(text)
    assert isinstance(back, ClusterModel)
    assert np.array_equal(back.centroids, model.centroids)
    assert np.array_equal(back.scaler.mins, model.scaler.mins)
    assert back.schema == model.schema
    assert np.array_equal(back.assign(d.values), model.assign(d.values))
    assert model_to_text(back) == text


def test_cluster_model_file_roundtrip(tmp_path):
    d = make_dataset([[0.0, 1.0, 9.0, 10.0]], [NUMERIC])
    model = kmeans_fit(d, k=2, seed=0)
    path = tmp_path / "partition.json"
    path.write_text(model_to_text(model), encoding="utf-8")
    back = model_from_text(path.read_text(encoding="utf-8"))
    assert np.array_equal(back.centroids, model.centroids)


def test_cluster_model_rejects_other_documents():
    for text in ('{"kind": "cluster"}', '["cluster_model"]'):
        with pytest.raises(ValueError, match="not a tree, ensemble or cluster model document"):
            model_from_text(text)
