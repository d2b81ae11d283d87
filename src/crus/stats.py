"""Nonparametric comparison of treatments over blocked score matrices.

The usual recipe for comparing classifiers over cross-validation folds:
a Friedman omnibus test on within-block average ranks, pairwise Wilcoxon
signed-rank tests, Holm step-down adjustment, and a critical-difference
style diagram of average ranks with bars joining treatments that are not
significantly different.  Every compared metric is higher-is-better:
rank 1 and a loss of 0% go to the highest score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a,x)/Gamma(a).

    Series expansion for x < a+1, Lentz continued fraction otherwise.
    Absolute error is below 1e-12 for a up to 50 (chi-square df up to 100).
    """
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0:
        return 1.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        # P(a,x) by series, then complement
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(10_000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return 1.0 - total * math.exp(log_prefactor)
    # Q(a,x) by continued fraction (modified Lentz)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h * math.exp(log_prefactor)


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function P(X >= x)."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    return regularized_gamma_q(df / 2.0, x / 2.0)


def normal_sf(z: float) -> float:
    """Standard normal survival function."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks with ties averaged."""
    _, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    return ((starts + ends) / 2.0)[inv]


@dataclass(frozen=True)
class ScoreMatrix:
    """Blocks x treatments score table (blocks are usually CV folds)."""

    values: np.ndarray
    treatments: tuple[str, ...]
    metric: str = ""

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise ValueError("score matrix must be 2-dimensional (blocks x treatments)")
        if len(self.treatments) != v.shape[1]:
            raise ValueError(
                f"{len(self.treatments)} treatment names for {v.shape[1]} columns"
            )
        if v.shape[1] < 2:
            raise ValueError("need at least two treatments to compare")
        if v.shape[0] < 2:
            raise ValueError("need at least two blocks")
        if np.any(~np.isfinite(v)):
            raise ValueError("scores must be finite")

    @property
    def n_blocks(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_treatments(self) -> int:
        return int(self.values.shape[1])

    def rank_matrix(self) -> np.ndarray:
        """Within-block ranks, 1 = highest score, ties averaged."""
        ranks = np.empty_like(self.values)
        k = self.n_treatments
        for b in range(self.n_blocks):
            ranks[b] = k + 1 - _average_ranks(self.values[b])
        return ranks


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    p_value: float
    df: int
    average_ranks: tuple[float, ...]


def friedman_test(m: ScoreMatrix) -> FriedmanResult:
    """Friedman rank test across treatments with blocks as repetitions.

    Statistic: 12n / (k(k+1)) * sum_j (Rbar_j - (k+1)/2)^2, referred to a
    chi-square with k-1 degrees of freedom.  Identical scores everywhere
    give statistic 0 and p 1.
    """
    ranks = m.rank_matrix()
    k, n = m.n_treatments, m.n_blocks
    mean_ranks = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * float(((mean_ranks - (k + 1) / 2.0) ** 2).sum())
    return FriedmanResult(stat, chi2_sf(stat, k - 1), k - 1, tuple(mean_ranks))


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float      # W+, the positive-difference rank sum
    p_value: float
    n_effective: int      # pairs remaining after zero differences are dropped
    method: str           # "exact", "normal", or "degenerate"


def _exact_two_sided_p(ranks2: np.ndarray, w2: int) -> float:
    """Exact p over all 2^n sign assignments; ranks doubled to integers."""
    total = int(ranks2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in ranks2:
        shifted = np.zeros_like(counts)
        shifted[int(r):] = counts[: counts.size - int(r)]
        counts = counts + shifted
    denom = counts.sum()
    p_le = counts[: w2 + 1].sum() / denom
    p_ge = counts[w2:].sum() / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


_EXACT_LIMIT = 20  # most effective pairs whose p-value is exact


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences share average
    ranks.  Up to `_EXACT_LIMIT` (20) effective pairs the p-value enumerates the
    exact sign distribution, beyond that a normal approximation with tie
    correction and continuity correction is used.  All differences zero
    yields p = 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("samples must be equal-length 1-d arrays with at least one pair")
    diff = a - b
    diff = diff[diff != 0]
    n = diff.size
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, "degenerate")
    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    if n <= _EXACT_LIMIT:
        ranks2 = np.rint(ranks * 2).astype(np.int64)
        w2 = int(round(w_plus * 2))
        return WilcoxonResult(w_plus, _exact_two_sided_p(ranks2, w2), n, "exact")
    mu = n * (n + 1) / 4.0
    _, counts = np.unique(np.abs(diff), return_counts=True)
    tie_term = float(((counts**3 - counts)).sum()) / 48.0
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if sigma2 <= 0:
        return WilcoxonResult(w_plus, 1.0, n, "normal")
    shift = w_plus - mu
    correction = 0.5 * np.sign(shift)
    z = (shift - correction) / math.sqrt(sigma2)
    p = min(1.0, 2.0 * normal_sf(abs(z)))
    return WilcoxonResult(w_plus, p, n, "normal")


def holm_adjust(p_values: list[float] | np.ndarray) -> list[float]:
    """Holm step-down adjusted p-values, returned in the input order."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a non-empty 1-d list of p-values")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for i, j in enumerate(order):
        running = max(running, (m - i) * p[j])
        adjusted[j] = min(1.0, running)
    return adjusted.tolist()


@dataclass(frozen=True)
class PairwiseResult:
    i: int
    j: int
    p_raw: float
    p_holm: float


@dataclass(frozen=True)
class ComparisonReport:
    treatments: tuple[str, ...]
    metric: str
    friedman: FriedmanResult
    pairwise: tuple[PairwiseResult, ...]
    alpha: float
    cliques: tuple[tuple[int, ...], ...]  # treatment indices, rank-ordered

    def pair(self, i: int, j: int) -> PairwiseResult:
        a, b = min(i, j), max(i, j)
        for p in self.pairwise:
            if (p.i, p.j) == (a, b):
                return p
        raise KeyError((i, j))


def _rank_order(mean_ranks: tuple[float, ...]) -> list[int]:
    return sorted(range(len(mean_ranks)), key=lambda i: (mean_ranks[i], i))


def _find_cliques(order: list[int], significant: np.ndarray) -> list[tuple[int, ...]]:
    """Greedy maximal runs of rank-adjacent, pairwise non-significant treatments."""
    k = len(order)
    intervals: list[tuple[int, int]] = []
    for start in range(k):
        end = start
        while end + 1 < k and all(
            not significant[order[a], order[end + 1]] for a in range(start, end + 1)
        ):
            end += 1
        intervals.append((start, end))
    # keep only intervals not contained in another
    cliques = []
    for s, e in intervals:
        if any((s2 <= s and e <= e2) and (s2, e2) != (s, e) for s2, e2 in intervals):
            continue
        cliques.append(tuple(order[s : e + 1]))
    return cliques


def compare_treatments(m: ScoreMatrix, alpha: float = 0.05) -> ComparisonReport:
    """Friedman omnibus plus Holm-adjusted pairwise Wilcoxon tests.

    Cliques join treatments whose pairwise differences are all
    non-significant at `alpha` after adjustment; every treatment belongs to
    at least one clique (isolated treatments form singletons).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    fried = friedman_test(m)
    k = m.n_treatments
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    raw = [
        wilcoxon_signed_rank(m.values[:, i], m.values[:, j]).p_value for i, j in pairs
    ]
    adj = holm_adjust(raw)
    pairwise = tuple(
        PairwiseResult(i, j, raw[t], adj[t]) for t, (i, j) in enumerate(pairs)
    )
    significant = np.zeros((k, k), dtype=bool)
    for pr in pairwise:
        sig = pr.p_holm < alpha
        significant[pr.i, pr.j] = significant[pr.j, pr.i] = sig
    cliques = _find_cliques(_rank_order(fried.average_ranks), significant)
    return ComparisonReport(m.treatments, m.metric, fried, pairwise, alpha, tuple(cliques))


@dataclass(frozen=True)
class CdDiagram:
    """Average-rank layout with bars joining non-significant cliques."""

    treatments: tuple[str, ...]   # rank order, best first
    ranks: tuple[float, ...]      # matching average ranks
    bars: tuple[tuple[int, int], ...]  # (first, last) positions in rank order
    alpha: float
    metric: str

    def to_text(self) -> str:
        lines = [f"average ranks ({self.metric or 'metric'}, 1 = best, alpha={self.alpha:g})"]
        for name, rank in zip(self.treatments, self.ranks):
            lines.append(f"  {rank:6.3f}  {name}")
        if self.bars:
            for first, last in self.bars:
                group = ", ".join(self.treatments[first : last + 1])
                lines.append(f"  no significant difference: {group}")
        else:
            lines.append("  all pairwise differences significant")
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        k = len(self.treatments)
        width, margin = 640.0, 60.0
        axis_y = 60.0
        span = max(k - 1, 1)

        def x_of(rank: float) -> float:
            return margin + (rank - 1.0) / span * (width - 2 * margin)

        parts = []
        label_gap = 22.0
        bar_gap = 16.0
        height = axis_y + 30 + bar_gap * (len(self.bars) + 1) + label_gap * k
        parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
        )
        parts.append(
            f'<text x="{margin:.1f}" y="20" font-size="13" font-family="sans-serif">'
            f"average ranks ({self.metric or 'metric'}, alpha={self.alpha:g})</text>"
        )
        parts.append(
            f'<line x1="{x_of(1):.1f}" y1="{axis_y:.1f}" x2="{x_of(k):.1f}" '
            f'y2="{axis_y:.1f}" stroke="black" stroke-width="1.5"/>'
        )
        for tick in range(1, k + 1):
            x = x_of(float(tick))
            parts.append(
                f'<line x1="{x:.1f}" y1="{axis_y - 5:.1f}" x2="{x:.1f}" '
                f'y2="{axis_y + 5:.1f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{axis_y - 10:.1f}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">{tick}</text>'
            )
        bar_y = axis_y + 12
        for first, last in self.bars:
            x1, x2 = x_of(self.ranks[first]), x_of(self.ranks[last])
            parts.append(
                f'<line x1="{x1:.1f}" y1="{bar_y:.1f}" x2="{x2:.1f}" y2="{bar_y:.1f}" '
                f'stroke="black" stroke-width="4" stroke-linecap="round"/>'
            )
            bar_y += bar_gap
        label_y = bar_y + 14
        for name, rank in zip(self.treatments, self.ranks):
            x = x_of(rank)
            parts.append(
                f'<line x1="{x:.1f}" y1="{axis_y:.1f}" x2="{x:.1f}" y2="{label_y - 10:.1f}" '
                f'stroke="gray" stroke-width="0.7"/>'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{label_y:.1f}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">{name} ({rank:.2f})</text>'
            )
            label_y += label_gap
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def cd_diagram(report: ComparisonReport) -> CdDiagram:
    """Lay out a comparison as a critical-difference style diagram."""
    order = _rank_order(report.friedman.average_ranks)
    pos_of = {t: p for p, t in enumerate(order)}
    bars = []
    for clique in report.cliques:
        if len(clique) < 2:
            continue
        positions = sorted(pos_of[t] for t in clique)
        bars.append((positions[0], positions[-1]))
    return CdDiagram(
        treatments=tuple(report.treatments[t] for t in order),
        ranks=tuple(report.friedman.average_ranks[t] for t in order),
        bars=tuple(bars),
        alpha=report.alpha,
        metric=report.metric,
    )


def loss_vs_best(values: list[float] | np.ndarray) -> list[float]:
    """Percent loss of each value relative to the best (highest) one."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a non-empty 1-d list of values")
    best = float(v.max())
    if best <= 0:
        raise ValueError("best value must be positive to express losses as percentages")
    return (100.0 * (best - v) / best).tolist()


def average_combined_loss(loss_a: float, loss_b: float) -> float:
    """Arithmetic mean of two percent losses."""
    return (loss_a + loss_b) / 2.0
