"""Attribute ranking and correlation-based subset selection.

Gain-ratio ranking scores each attribute alone against the class with the
tree grower's split scorer (numeric attributes at their best binary
split).  Subset selection uses the correlation-based merit
k*rcf / sqrt(k + k(k-1)*rff) of Hall's CFS, where both the attribute-class
correlation rcf and the attribute-attribute correlation rff are
symmetrical uncertainties over discretized attributes, explored with a
best-first forward search.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NUMERIC
from .trees import _Columns, _gain_ratios, _numeric_candidates, _xlogx


@dataclass(frozen=True)
class AttributeRank:
    index: int
    name: str
    score: float


def gain_ratio_rank(d: Dataset) -> list[AttributeRank]:
    """Attributes sorted by standalone gain ratio, best first.

    Each attribute is scored as the tree grower scores it at an unweighted
    root without a minimum leaf weight.  Unusable attributes (constant, or
    zero split information) score 0.  Ties keep ascending attribute index
    order.
    """
    if len(d) == 0:
        raise ValueError("cannot rank attributes of an empty dataset")
    y = np.asarray(d.labels)
    if y.min() == y.max():
        raise ValueError("attribute ranking needs both classes present")
    n = len(d)
    rows, weights = np.append(np.arange(n), 0), np.append(np.ones(n), 0.0)  # then a pad of weight 0
    candidates = np.ones((1, d.schema.n_attributes), dtype=bool)
    (ratios,), _ = _gain_ratios(d, _Columns(d), rows, weights, np.array([n]), candidates, np.zeros(1))
    ranks = [
        AttributeRank(i, spec.name, float(r) if r > -np.inf else 0.0)
        for i, (spec, r) in enumerate(zip(d.schema.attributes, ratios))
    ]
    return sorted(ranks, key=lambda r: (-r.score, r.index))


def _best_gain_threshold(vals: np.ndarray, y: np.ndarray) -> float | None:
    """Threshold minimizing class entropy (maximizing gain), or None."""
    thresholds, gains, _ = _numeric_candidates(vals, y, np.ones(vals.size), min_leaf=0.0)
    if thresholds.size == 0:
        return None
    return float(thresholds[int(np.argmax(gains))])


def discretize(d: Dataset) -> np.ndarray:
    """Integer codes per attribute: nominal keep their category index,
    numeric become 0/1 at their entropy-minimizing binary split against the
    class (constant attributes code to all zeros)."""
    y = np.asarray(d.labels)
    codes = np.zeros((len(d), d.schema.n_attributes), dtype=np.int64)
    for i, spec in enumerate(d.schema.attributes):
        vals = d.values[:, i]
        if spec.kind == NUMERIC:
            t = _best_gain_threshold(vals, y)
            codes[:, i] = 0 if t is None else (vals > t).astype(np.int64)
        else:
            codes[:, i] = vals.astype(np.int64)
    return codes


def _entropy_of_codes(x: np.ndarray) -> float:
    """H(x) in bits of a non-empty integer-coded variable: (L(n) - sum of
    L(count)) / n, where L(c) = c log2 c."""
    counts = np.bincount(x).astype(np.float64)
    return float((_xlogx(x.size) - _xlogx(counts).sum()) / x.size)


def symmetrical_uncertainty(x: np.ndarray, y: np.ndarray) -> float:
    """SU(X, Y) = 2 I(X;Y) / (H(X) + H(Y)) over integer-coded variables.

    0 when either variable is constant (by convention), 1 for identical
    non-constant variables; symmetric and invariant to relabeling.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("variables must be equal-length non-empty 1-d arrays")
    hx = _entropy_of_codes(x)
    hy = _entropy_of_codes(y)
    if hx == 0.0 or hy == 0.0:
        return 0.0
    joint = x * (int(y.max()) + 1) + y
    mi = hx + hy - _entropy_of_codes(joint)
    return max(0.0, 2.0 * mi / (hx + hy))


class _SuCache:
    def __init__(self, codes: np.ndarray, y: np.ndarray) -> None:
        self.codes = codes
        self.y = y.astype(np.int64)
        self._class_su: dict[int, float] = {}
        self._pair_su: dict[tuple[int, int], float] = {}
        self.n_attrs = codes.shape[1]

    def class_su(self, i: int) -> float:
        if i not in self._class_su:
            self._class_su[i] = symmetrical_uncertainty(self.codes[:, i], self.y)
        return self._class_su[i]

    def pair_su(self, i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in self._pair_su:
            self._pair_su[key] = symmetrical_uncertainty(self.codes[:, key[0]], self.codes[:, key[1]])
        return self._pair_su[key]

    def merit(self, subset: tuple[int, ...]) -> float:
        k = len(subset)
        r_cf = float(np.mean([self.class_su(i) for i in subset]))
        if k == 1:
            return r_cf
        pairs = [self.pair_su(a, b) for t, a in enumerate(subset) for b in subset[t + 1 :]]
        r_ff = float(np.mean(pairs))
        return k * r_cf / np.sqrt(k + k * (k - 1) * r_ff)


@dataclass(frozen=True)
class CfsResult:
    selected: tuple[int, ...]
    names: tuple[str, ...]
    merit: float
    n_evaluated: int


def cfs_best_first(d: Dataset, max_stale: int = 5) -> CfsResult:
    """Best-first forward search over attribute subsets by merit.

    Starts from all singleton subsets, repeatedly expands the best open
    subset with one extra attribute, and stops after `max_stale`
    consecutive expansions that fail to improve the best merit seen (or
    when the frontier is exhausted).  Deterministic: merit ties expand the
    lexicographically smallest subset.
    """
    if max_stale < 1:
        raise ValueError("max_stale must be at least 1")
    n_attrs = d.schema.n_attributes
    if n_attrs == 0 or len(d) == 0:
        raise ValueError("need a non-empty dataset with attributes")
    cache = _SuCache(discretize(d), np.asarray(d.labels))
    evaluated: dict[tuple[int, ...], float] = {}

    def evaluate(subset: tuple[int, ...]) -> float:
        if subset not in evaluated:
            evaluated[subset] = cache.merit(subset)
        return evaluated[subset]

    heap: list[tuple[float, tuple[int, ...]]] = []
    best_subset = (0,)
    best_merit = -np.inf
    for i in range(n_attrs):
        subset = (i,)
        merit = evaluate(subset)
        heapq.heappush(heap, (-merit, subset))
        if merit > best_merit:
            best_merit, best_subset = merit, subset
    stale = 0
    while heap and stale < max_stale:
        _, subset = heapq.heappop(heap)
        improved = False
        for i in range(n_attrs):
            if i in subset:
                continue
            child = tuple(sorted(subset + (i,)))
            if child in evaluated:
                continue
            merit = evaluate(child)
            heapq.heappush(heap, (-merit, child))
            if merit > best_merit:
                best_merit, best_subset = merit, child
                improved = True
        stale = 0 if improved else stale + 1
    names = tuple(d.schema.attributes[i].name for i in best_subset)
    return CfsResult(best_subset, names, float(best_merit), len(evaluated))
