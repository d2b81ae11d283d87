"""Distance and k-means clustering over mixed numeric/nominal attributes.

Numeric attributes are min-max normalized to [0, 1] using statistics from
the fitted (training) data; nominal attributes contribute 0/1 mismatch.
Centroids live in the normalized space: per numeric attribute the mean of
normalized member values, per nominal attribute the mode (lowest category
index on ties).  A cluster with no members keeps its centroid, so every
centroid stays finite.  `kmeans_fit` keeps the best of a fixed 10 seeded
Lloyd runs.  A scaler refuses data with a NaN or infinite cell, or with
an attribute whose range overflows, so every distance k-means and SMOTE
take is finite.

One kernel, `_sq_distances`, computes this distance for every caller:
k-means, `ClusterModel.assign` and the nearest-neighbour search of SMOTE
(`resampling.smote_oversample`).  It copies each block of
rows once into attribute-major form (one contiguous row per attribute) and
accumulates into its output block in place.  A pair's numeric squared
differences are added one attribute at a time, then its nominal mismatch
count, itself summed in a float buffer (exact for 0/1 terms), once; the
centroids and objectives in cluster model files depend on this order.

A fit normalizes the data once, in attribute-major (Fortran) order, so the
kernel reads it without copying, and shares it among its runs.  A run
takes each row's nearest centroid by comparing the centroids' distance
rows in turn (ties to the lowest index), sums each cluster's numeric
members pairwise in row order, and reuses the distances of its converged
iteration for its objective.
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
        bad = np.argwhere(~np.isfinite(d.values))
        if bad.size:
            r, c = bad[0]
            raise ValueError(
                f"cannot fit a scaler: row {r} has {d.values[r, c]}, not a finite number, "
                f"for attribute '{d.schema.attributes[c].name}'"
            )
        mins[numeric] = d.values[:, numeric].min(axis=0)
        maxs[numeric] = d.values[:, numeric].max(axis=0)
        with np.errstate(over="ignore"):
            wide = np.flatnonzero(~np.isfinite(maxs - mins))
        if wide.size:
            j = wide[0]
            raise ValueError(
                f"cannot fit a scaler: attribute '{d.schema.attributes[j].name}' spans {mins[j]} to "
                f"{maxs[j]}, a range wider than the largest float"
            )
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
    in (len(B), rows) blocks of at most _BLOCK_PAIRS pairs, each copied once
    into attribute-major form unless it is so already.
    """
    out = np.empty((len(B), len(A)))
    num, nom = np.flatnonzero(numeric), np.flatnonzero(~numeric)
    step = max(1, _BLOCK_PAIRS // len(B))
    for lo in range(0, len(A), step):
        a = np.ascontiguousarray(A[lo:lo + step].T)
        sq = out[:, lo:lo + step]
        sq.fill(0.0)
        term = np.empty(sq.shape)
        for j in num:
            np.subtract(B[:, j, None], a[j], out=term)
            np.multiply(term, term, out=term)
            sq += term
        if nom.size:
            term.fill(0.0)
            for j in nom:
                term += B[:, j, None] != a[j]
            sq += term
    return out.T


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


def _nearest_centroids(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the (k, n) distances d2, the row of its smallest value
    (lowest row on ties) and that value; needs finite distances."""
    nearest = np.zeros(d2.shape[1], dtype=np.int64)
    least = d2[0].copy()
    for c in range(1, len(d2)):
        np.copyto(nearest, c, where=d2[c] < least)
        np.minimum(least, d2[c], out=least)
    return nearest, least


def _take_reseeded(d2_c: np.ndarray, c: int, nearest: np.ndarray, least: np.ndarray) -> None:
    """Update in place the pick (nearest, least) of `_nearest_centroids` for
    a new distance row d2_c of centroid c, which no column had as its
    nearest: a column moves to c where d2_c is below its least, or equal
    to it with its nearest above c (lowest row on ties)."""
    np.copyto(nearest, c, where=(d2_c < least) | ((d2_c == least) & (nearest > c)))
    np.minimum(least, d2_c, out=least)


def _update_centroids(norm_values: np.ndarray, assign: np.ndarray, centroids: np.ndarray,
                      numeric: np.ndarray) -> np.ndarray:
    """Each cluster's mean of each numeric attribute and mode of each
    nominal one, ties to the lowest category; a cluster with no members
    keeps its centroid.  Fastest on attribute-major (Fortran) norm_values."""
    k = len(centroids)
    centroids = centroids.copy()
    sizes = np.bincount(assign, minlength=k)
    full = sizes > 0
    by_attribute = norm_values.T
    for c in np.flatnonzero(full):
        # one contiguous row per attribute holding the members in row
        # order, so each sums pairwise as its column mean does
        members = by_attribute.take(np.flatnonzero(assign == c), axis=1)
        centroids[c, numeric] = members.sum(axis=1)[numeric] / sizes[c]
    for j in np.flatnonzero(~numeric):
        codes = by_attribute[j].astype(np.int64)
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
    n = len(d)
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and the number of instances ({n}), got {k}")
    scaler = FeatureScaler.fit(d)
    norm = np.asfortranarray(scaler.transform(d.values))
    best: ClusterModel | None = None
    for r in range(_RESTARTS):
        model = _kmeans_single(d.schema, scaler, norm, k, seed + r)
        if best is None or model.objective < best.objective:
            best = model
    return best


def _kmeans_single(schema: DatasetSchema, scaler: FeatureScaler, norm: np.ndarray, k: int,
                   seed: int) -> ClusterModel:
    """One seeded run on the rows norm, normalized by scaler."""
    n = len(norm)
    numeric = scaler.numeric
    rng = np.random.default_rng(seed)
    centroids = norm[np.sort(rng.choice(n, size=k, replace=False))]
    assign = np.full(n, -1, dtype=np.int64)
    repairs = 0
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        d2 = _sq_distances(norm, centroids, numeric).T
        new_assign, least = _nearest_centroids(d2)
        empty = np.bincount(new_assign, minlength=k) == 0
        for c in range(k):
            if empty[c]:
                centroids[c] = norm[int(np.argmax(d2[c]))]
                repairs += 1
                # only row c changes, and no row had c as its nearest
                d2[c] = _sq_distances(norm, centroids[c:c + 1], numeric)[:, 0]
                _take_reseeded(d2[c], c, new_assign, least)
                empty = np.bincount(new_assign, minlength=k) == 0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centroids = _update_centroids(norm, assign, centroids, numeric)
    else:
        # stopped at _MAX_ITER: the distances predate the last update
        _, least = _nearest_centroids(_sq_distances(norm, centroids, numeric).T)
    return ClusterModel(schema, centroids, scaler, seed, n_iter, repairs, float(least.sum()))
