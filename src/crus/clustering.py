"""Distance and k-means clustering over mixed numeric/nominal attributes.

Numeric attributes are min-max normalized to [0, 1] using statistics from
the fitted (training) data; nominal attributes contribute 0/1 mismatch.
Centroids live in the normalized space: per numeric attribute the mean of
normalized member values, per nominal attribute the mode (lowest category
index on ties).  A cluster with no members keeps its centroid, so every
centroid stays finite.  `kmeans_fit` keeps the best of a fixed 10 seeded
Lloyd runs.

One kernel, `_sq_distances`, computes this distance for every caller:
k-means, `ClusterModel.assign`, `mixed_distance` and the nearest-neighbour
search of SMOTE (`resampling.smote_oversample`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetSchema


@dataclass(frozen=True)
class FeatureScaler:
    """Per-attribute min/max over the data the scaler was built from."""

    numeric: np.ndarray  # (d,) bool
    mins: np.ndarray     # (d,) float64, 0 for nominal columns
    maxs: np.ndarray     # (d,) float64, 0 for nominal columns

    @classmethod
    def fit(cls, d: Dataset) -> "FeatureScaler":
        numeric = d.schema.numeric_mask()
        mins = np.zeros(d.schema.n_attributes)
        maxs = np.zeros(d.schema.n_attributes)
        if len(d) == 0:
            raise ValueError("cannot fit a scaler on an empty dataset")
        mins[numeric] = d.values[:, numeric].min(axis=0)
        maxs[numeric] = d.values[:, numeric].max(axis=0)
        return cls(numeric, mins, maxs)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Normalize numeric columns to [0, 1] (clamped); nominal pass through.

        Constant numeric attributes (max == min) map to 0 and therefore
        contribute nothing to distances.
        """
        v = np.atleast_2d(np.asarray(values, dtype=np.float64)).copy()
        span = self.maxs - self.mins
        scaled = self.numeric & (span > 0)
        v[:, scaled] = np.clip((v[:, scaled] - self.mins[scaled]) / span[scaled], 0.0, 1.0)
        v[:, self.numeric & ~scaled] = 0.0
        return v if np.asarray(values).ndim == 2 else v[0]


# Row pairs per block of `_sq_distances` and of SMOTE's neighbour search.
_BLOCK_PAIRS = 1 << 16


def _sq_distances(A: np.ndarray, B: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Squared mixed distances from every normalized row of A to every row of B.

    Returns a (len(A), len(B)) array.  A pair's numeric squared differences
    are added one attribute at a time, then its count of nominal mismatches
    once; cluster model files hold values summed in this order.  A is scored
    in (len(B), rows) blocks of at most _BLOCK_PAIRS pairs.
    """
    out = np.empty((len(B), len(A)))
    step = max(1, _BLOCK_PAIRS // len(B))
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


def mixed_distance(a: np.ndarray, b: np.ndarray, scaler: FeatureScaler) -> float:
    """Euclidean-style distance between two attribute-value rows.

    Per numeric attribute the difference of normalized values, per nominal
    attribute 0/1 mismatch; the result is sqrt of the sum of squares.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = scaler.numeric.shape[0]
    if a.shape != (d,) or b.shape != (d,):
        raise ValueError(f"rows must both have {d} attributes, got {a.shape} and {b.shape}")
    pair = _sq_distances(scaler.transform(a[None]), scaler.transform(b[None]), scaler.numeric)
    return float(np.sqrt(pair[0, 0]))


@dataclass(frozen=True)
class ClusterModel:
    """Fitted k-means partition: centroids in normalized space plus scaler."""

    schema: DatasetSchema
    centroids: np.ndarray  # (k, d) in normalized space
    scaler: FeatureScaler
    seed: int
    n_iter: int = 0
    repairs: int = 0
    objective: float = 0.0

    def assign(self, values: np.ndarray) -> np.ndarray:
        """Nearest-centroid index per row (lowest index on ties)."""
        norm = self.scaler.transform(np.atleast_2d(values))
        d2 = _sq_distances(norm, self.centroids, self.scaler.numeric)
        return np.argmin(d2, axis=1)


def _update_centroids(norm_values: np.ndarray, assign: np.ndarray, centroids: np.ndarray,
                      numeric: np.ndarray) -> np.ndarray:
    """Each cluster's mean of each numeric attribute and mode of each
    nominal one, ties to the lowest category; a cluster with no members
    keeps its centroid."""
    k = len(centroids)
    centroids = centroids.copy()
    sizes = np.bincount(assign, minlength=k)
    full = sizes > 0
    # one contiguous row per numeric attribute, members grouped by cluster
    # in row order, so each cluster's slice sums pairwise as its column
    # mean does
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


# Most Lloyd iterations of one k-means run.
_MAX_ITER = 100
# Seeded k-means runs per fit; the lowest objective wins.
_RESTARTS = 10


def kmeans_fit(d: Dataset, k: int, seed: int) -> ClusterModel:
    """Lloyd-style k-means under the mixed distance.

    Initial centroids are k distinct instances chosen uniformly by `seed`.
    If a cluster empties at assignment, its centroid is reseeded to the
    point farthest from it (lowest index on ties); a cluster that a later
    reseed empties keeps its centroid at the update.  Converges when no
    assignment changes, or stops after `_MAX_ITER` (100) iterations.  The
    fit is run `_RESTARTS` (10) times, with seeds seed, seed+1, ..., and
    the run with the lowest objective wins (earliest on ties).
    """
    best: ClusterModel | None = None
    for r in range(_RESTARTS):
        model = _kmeans_single(d, k, seed + r)
        if best is None or model.objective < best.objective:
            best = model
    return best


def _kmeans_single(d: Dataset, k: int, seed: int) -> ClusterModel:
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
    for n_iter in range(1, _MAX_ITER + 1):
        d2 = _sq_distances(norm, centroids, numeric)
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                far = int(np.argmax(d2[:, c]))
                centroids[c] = norm[far]
                repairs += 1
                d2 = _sq_distances(norm, centroids, numeric)
                new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centroids = _update_centroids(norm, assign, centroids, numeric)
    objective = float(_sq_distances(norm, centroids, numeric).min(axis=1).sum())
    return ClusterModel(d.schema, centroids, scaler, seed, n_iter, repairs, objective)
