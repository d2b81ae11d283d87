"""Resampling for imbalanced training sets.

Three strategies: plain random undersampling of the majority class down to
a spread (majority:minority ratio) target, SMOTE-style synthetic minority
oversampling, and cluster-aware undersampling that first partitions the
feature space with k-means and then undersamples only the clusters whose
local imbalance ratio exceeds a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import _BLOCK_PAIRS, ClusterModel, FeatureScaler, _sq_distances, kmeans_fit
from .dataset import Dataset, DataError, imbalance_ratio

LOW_GROUP = "low_IR_group"
HIGH_GROUP = "high_IR_group"


def _rus_keep_indices(labels: np.ndarray, spread: float, rng: np.random.Generator) -> np.ndarray:
    """Indices to retain, in original order."""
    minority = np.flatnonzero(labels == 1)
    majority = np.flatnonzero(labels == 0)
    # for an integer n, n <= floor(x) exactly when n <= x; testing first
    # keeps a huge spread from flooring an infinite product
    if majority.size <= spread * minority.size:
        return np.arange(labels.size)
    kept_majority = rng.choice(majority, size=math.floor(spread * minority.size), replace=False)
    return np.sort(np.concatenate([minority, kept_majority]))


def _check_sampler_args(
    spread: float = 4.0, percentage: float = 0.0, k_neighbors: int = 1, threshold: float | None = None,
    reduction_fraction: float | None = None, policy: str = "above",
) -> None:
    """Refuse an out-of-range sampler argument, naming it; the defaults and None pass."""
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    if percentage < 0:
        raise ValueError(f"percentage must be nonnegative, got {percentage}")
    if k_neighbors < 1:
        raise ValueError(f"k_neighbors must be at least 1, got {k_neighbors}")
    if threshold is not None and threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if reduction_fraction is not None and not 0.0 <= reduction_fraction <= 1.0:
        raise ValueError(f"reduction_fraction must be within [0, 1], got {reduction_fraction}")
    if policy not in ("above", "invert"):
        raise ValueError(f"unknown policy '{policy}' (expected 'above' or 'invert')")


def rus_undersample(d: Dataset, spread: float = 4.0, seed: int = 0) -> Dataset:
    """Randomly drop majority instances down to spread * |minority|.

    A dataset already at or below the spread is returned unchanged.  The
    surviving instances keep their original order.
    """
    _check_sampler_args(spread=spread)
    if d.n_positive == 0:
        raise DataError("undersampling needs at least one minority instance")
    if d.n_negative <= spread * d.n_positive:
        return d
    keep = _rus_keep_indices(np.asarray(d.labels), spread, np.random.default_rng(seed))
    return d.subset(keep)


def _minority_neighbors(norm: np.ndarray, numeric: np.ndarray, k: int) -> np.ndarray:
    """The k nearest other rows of each normalized row, nearest first and
    ties to the lower index; searched in blocks of at most _BLOCK_PAIRS pairs."""
    m = norm.shape[0]
    nn = np.empty((m, k), dtype=np.int64)
    step = max(1, _BLOCK_PAIRS // m)
    for lo in range(0, m, step):
        rows = np.arange(lo, min(lo + step, m))
        # the distance is symmetric; this way round the kernel's inner loops span all m rows
        d2 = _sq_distances(norm, norm[rows], numeric).T
        d2[np.arange(rows.size), rows] = np.inf
        nn[rows] = _nearest(d2, k)
    return nn


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """The columns of the k smallest values of each row, smallest first and
    ties to the lower column: a stable argsort's first k columns, found
    without sorting whole rows."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    # every column up to the k-th value, ties at it included, in row-major order
    row, col = np.nonzero(d2 <= kth)
    order = np.lexsort((col, d2[row, col], row))
    sizes = np.bincount(row, minlength=d2.shape[0])
    first = np.cumsum(sizes) - sizes
    return col[order][first[:, np.newaxis] + np.arange(k)]


def smote_oversample(
    d: Dataset, percentage: float, k_neighbors: int = 5, seed: int = 0
) -> Dataset:
    """Append floor(percentage/100 * |minority|) synthetic minority instances.

    Bases cycle through one seeded shuffle of the minority; for each
    synthetic a neighbor is drawn uniformly from the base's k nearest
    minority neighbors (mixed distance, ties by index), then numeric
    attributes interpolate base + delta * (neighbor - base) with a single
    delta ~ U[0,1] per synthetic; nominal attributes copy the base.
    Synthetic rows are appended after the originals and flagged.  The
    neighbour search runs in blocks of minority rows, so its memory grows
    linearly with the minority count.
    """
    _check_sampler_args(percentage=percentage, k_neighbors=k_neighbors)
    minority = np.flatnonzero(d.labels == 1)
    if minority.size <= k_neighbors:
        raise DataError(
            f"SMOTE needs more than k_neighbors={k_neighbors} minority instances, "
            f"found {minority.size}"
        )
    n_new = math.floor(percentage / 100.0 * minority.size)
    if n_new == 0:
        return d
    rng = np.random.default_rng(seed)
    scaler = FeatureScaler.fit(d)
    nn = _minority_neighbors(scaler.transform(d.values[minority]), scaler.numeric, k_neighbors)
    order = rng.permutation(minority.size)
    numeric = d.schema.numeric_mask()
    new_rows = np.empty((n_new, d.schema.n_attributes))
    for s in range(n_new):
        base_local = order[s % minority.size]
        neighbor_local = nn[base_local, rng.integers(k_neighbors)]
        delta = rng.uniform()
        base = d.values[minority[base_local]]
        neighbor = d.values[minority[neighbor_local]]
        row = base.copy()
        row[numeric] = base[numeric] + delta * (neighbor[numeric] - base[numeric])
        new_rows[s] = row
    values = np.vstack([d.values, new_rows])
    labels = np.concatenate([d.labels, np.ones(n_new, dtype=np.int8)])
    row_ids = np.concatenate([d.row_ids, -1 - np.arange(n_new, dtype=np.int64)])
    return Dataset(d.schema, values, labels, row_ids)


def suggest_threshold(global_ir: float, reduction_fraction: float) -> float:
    """The global imbalance ratio scaled down by the requested reduction."""
    if global_ir <= 0:
        raise ValueError(f"global imbalance ratio must be positive, got {global_ir}")
    _check_sampler_args(reduction_fraction=reduction_fraction)
    return global_ir * (1.0 - reduction_fraction)


@dataclass(frozen=True)
class ClusterPartition:
    """A fitted k-means model with per-cluster imbalance bookkeeping."""

    model: ClusterModel
    cluster_pos: tuple[int, ...]
    cluster_neg: tuple[int, ...]
    cluster_ir: tuple[float, ...]   # inf marks a cluster with no minority
    flagged: tuple[bool, ...]       # True = undersample this cluster
    threshold: float
    policy: str
    warnings: tuple[str, ...] = ()


def plan_cluster_partition(
    d: Dataset,
    k: int,
    threshold: float,
    seed: int = 0,
    policy: str = "above",
) -> ClusterPartition:
    """Cluster the training set and decide which clusters to undersample.

    Default policy flags clusters whose imbalance ratio exceeds the
    threshold.  The "invert" policy flags the complement instead (clusters
    at or below the threshold), for experiments with the opposite reading.
    Raises when no cluster falls at or below the threshold; that situation
    calls for a larger k.  The partition is the best of 10 seeded
    k-means runs, which makes the plan far less sensitive to a poor draw
    of initial centroids.
    """
    _check_sampler_args(threshold=threshold, policy=policy)
    model = kmeans_fit(d, k, seed)
    assign = model.assign(d.values)
    warnings: list[str] = []
    pos, neg, irs = [], [], []
    for c in range(k):
        mask = assign == c
        n_pos = int(np.sum(d.labels[mask] == 1))
        n_neg = int(np.sum(d.labels[mask] == 0))
        pos.append(n_pos)
        neg.append(n_neg)
        if n_pos == 0:
            irs.append(math.inf)
            warnings.append(f"cluster {c} has no minority instances; ratio treated as infinite")
        else:
            irs.append(n_neg / n_pos)
    ir_arr = np.array(irs)
    if not np.any(ir_arr <= threshold):
        raise DataError(
            f"every cluster's imbalance ratio exceeds the threshold {threshold}; "
            f"increase k (tried k={k}, ratios={[round(v, 2) for v in irs]})"
        )
    if policy == "above":
        flagged = tuple(bool(v > threshold) for v in irs)
    else:
        flagged = tuple(bool(v <= threshold) for v in irs)
    return ClusterPartition(
        model, tuple(pos), tuple(neg), tuple(irs), flagged, threshold, policy, tuple(warnings)
    )


@dataclass(frozen=True)
class GroupedTrainSets:
    """Training material for the two per-group models."""

    low_group: Dataset   # unflagged clusters, untouched
    high_group: Dataset  # flagged clusters after undersampling
    warnings: tuple[str, ...] = ()


def apply_clustering_rus(
    d: Dataset, partition: ClusterPartition, spread: float = 4.0, seed: int = 0
) -> GroupedTrainSets:
    """Split the training set by cluster flags and undersample the flagged part.

    The unflagged union passes through untouched (original order); the
    flagged union is undersampled as one pool at the given spread.  A
    flagged union without minority instances undersamples to empty, which
    is reported as a warning and leaves that group without a model.
    """
    _check_sampler_args(spread=spread)
    assign = partition.model.assign(d.values)
    flagged_mask = np.array(partition.flagged, dtype=bool)[assign]
    low_idx = np.flatnonzero(~flagged_mask)
    high_idx = np.flatnonzero(flagged_mask)
    warnings: list[str] = []
    if high_idx.size:
        labels = np.asarray(d.labels)[high_idx]
        if not np.any(labels == 1):
            warnings.append(
                "flagged clusters contain no minority instances; "
                "undersampling keeps nothing and the group is dropped"
            )
            high_idx = high_idx[:0]
        else:
            keep_local = _rus_keep_indices(labels, spread, np.random.default_rng(seed))
            high_idx = high_idx[keep_local]
    return GroupedTrainSets(d.subset(low_idx), d.subset(high_idx), tuple(warnings))
