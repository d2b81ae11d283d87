"""Binary classification metrics for imbalanced problems.

Conventions: class 1 is the positive (minority) class.  Ratios with a zero
denominator evaluate to 0 and the affected field is flagged as degenerate
instead of raising.  Weighted variants average the per-class values using
the true class counts as weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import _average_ranks


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: float
    fn: float
    fp: float
    tn: float

    def __post_init__(self) -> None:
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion matrix cells must be nonnegative")

    @property
    def n(self) -> float:
        return self.tp + self.fn + self.fp + self.tn

    @property
    def n_positive(self) -> float:
        return self.tp + self.fn

    @property
    def n_negative(self) -> float:
        return self.fp + self.tn

    def swapped(self) -> "ConfusionMatrix":
        """The same predictions with the class roles exchanged."""
        return ConfusionMatrix(tp=self.tn, fn=self.fp, fp=self.fn, tn=self.tp)


def confusion_matrix(truth: np.ndarray, predicted: np.ndarray) -> ConfusionMatrix:
    t = np.asarray(truth)
    p = np.asarray(predicted)
    if t.shape != p.shape:
        raise ValueError(f"truth and predictions differ in length: {t.shape} vs {p.shape}")
    for arr, name in ((t, "truth"), (p, "predictions")):
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError(f"{name} must contain only 0/1 labels")
    return ConfusionMatrix(
        tp=float(np.sum((t == 1) & (p == 1))),
        fn=float(np.sum((t == 1) & (p == 0))),
        fp=float(np.sum((t == 0) & (p == 1))),
        tn=float(np.sum((t == 0) & (p == 0))),
    )


def _ratio(num: float, den: float, flag: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(flag)
        return 0.0
    return num / den


@dataclass(frozen=True)
class BinaryRates:
    precision: float
    recall: float
    f_measure: float
    tpr: float
    fpr: float
    tnr: float
    accuracy: float
    degenerate: tuple[str, ...] = ()


def binary_rates(cm: ConfusionMatrix, beta: float = 1.0) -> BinaryRates:
    """Positive-class precision/recall/F plus the rate quartet and accuracy."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    flags: list[str] = []
    precision = _ratio(cm.tp, cm.tp + cm.fp, "precision", flags)
    recall = _ratio(cm.tp, cm.tp + cm.fn, "recall", flags)
    b2 = beta * beta
    f_measure = _ratio((1 + b2) * precision * recall, b2 * precision + recall, "f_measure", flags)
    tpr = recall
    fpr = _ratio(cm.fp, cm.fp + cm.tn, "fpr", flags)
    tnr = _ratio(cm.tn, cm.fp + cm.tn, "tnr", flags)
    accuracy = _ratio(cm.tp + cm.tn, cm.n, "accuracy", flags)
    return BinaryRates(precision, recall, f_measure, tpr, fpr, tnr, accuracy, tuple(flags))


def g_mean(tpr: float, tnr: float) -> float:
    """Geometric mean of the two class-conditional accuracies."""
    if tpr < 0 or tnr < 0:
        raise ValueError("rates must be nonnegative")
    return math.sqrt(tpr * tnr)


def optimized_precision(accuracy: float, tpr: float, tnr: float) -> tuple[float, bool]:
    """Accuracy penalized by the normalized rate gap |tnr-tpr|/(tnr+tpr).

    Returns (value, degenerate).  When both rates are zero the penalty term
    is taken at its worst case 1, giving accuracy - 1, and the result is
    flagged degenerate.
    """
    if tpr < 0 or tnr < 0:
        raise ValueError("rates must be nonnegative")
    if tpr + tnr == 0:
        return accuracy - 1.0, True
    return accuracy - abs(tnr - tpr) / (tnr + tpr), False


def _rank_auc(truth: np.ndarray, scores: np.ndarray) -> tuple[float, bool]:
    """(area under the ROC curve, degenerate) by the rank statistic."""
    t = np.asarray(truth)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape:
        raise ValueError(f"truth and scores differ in length: {t.shape} vs {s.shape}")
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise ValueError(f"score {s[bad[0]]} at index {bad[0]} is not finite")
    n_pos = int(np.sum(t == 1))
    n_neg = int(np.sum(t == 0))
    if n_pos == 0 or n_neg == 0:
        return 0.0, True
    rank_sum = float(_average_ranks(s)[t == 1].sum())
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)), False


def auc_roc(truth: np.ndarray, scores: np.ndarray) -> tuple[float, list[tuple[float, float]], bool]:
    """Area under the ROC curve plus the curve itself.

    The area uses the rank (Mann-Whitney) formulation, counting score ties
    between classes as one half.  The returned curve is the threshold sweep
    over distinct scores, anchored at (0,0) and (1,1); its trapezoidal area
    equals the rank statistic.  Returns (auc, curve, degenerate); a truth
    vector with a single class yields auc 0 and degenerate True.  A score
    that is NaN or infinite raises ValueError.
    """
    auc, degenerate = _rank_auc(truth, scores)
    if degenerate:
        return auc, [(0.0, 0.0), (1.0, 1.0)], True
    t = np.asarray(truth)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(t == 1))
    n_neg = int(np.sum(t == 0))
    curve = [(0.0, 0.0)]
    order = np.argsort(-s, kind="stable")
    st, tt = s[order], t[order]
    tp = fp = 0
    i = 0
    n = len(st)
    while i < n:
        j = i
        while j < n and st[j] == st[i]:
            tp += int(tt[j] == 1)
            fp += int(tt[j] == 0)
            j += 1
        curve.append((fp / n_neg, tp / n_pos))
        i = j
    return auc, curve, False


def weighted_class_average(value_pos: float, value_neg: float, n_pos: float, n_neg: float) -> float:
    """Class-count weighted mean of a per-class metric."""
    total = n_pos + n_neg
    if total == 0:
        raise ValueError("cannot average over zero instances")
    return (n_pos * value_pos + n_neg * value_neg) / total


@dataclass(frozen=True)
class MetricsReport:
    """All headline metrics of one evaluated record set."""

    accuracy: float
    precision_pos: float
    recall_pos: float
    f_pos: float
    tpr: float
    fpr: float
    tnr: float
    g_mean: float
    op: float
    auc: float
    weighted_precision: float
    weighted_recall: float
    weighted_f: float
    degenerate: tuple[str, ...] = ()


def compute_report(
    truth: np.ndarray,
    predicted: np.ndarray,
    scores: np.ndarray,
    beta: float = 1.0,
) -> MetricsReport:
    """Full report from per-instance truth, prediction and positive-class score."""
    cm = confusion_matrix(truth, predicted)
    pos = binary_rates(cm, beta)
    neg = binary_rates(cm.swapped(), beta)
    flags = list(pos.degenerate)
    flags += [f"{name}_neg" for name in neg.degenerate if name in ("precision", "recall", "f_measure")]
    op, op_degenerate = optimized_precision(pos.accuracy, pos.tpr, pos.tnr)
    if op_degenerate:
        flags.append("op")
    auc, auc_degenerate = _rank_auc(truth, scores)
    if auc_degenerate:
        flags.append("auc")
    n_pos, n_neg = cm.n_positive, cm.n_negative
    return MetricsReport(
        accuracy=pos.accuracy,
        precision_pos=pos.precision,
        recall_pos=pos.recall,
        f_pos=pos.f_measure,
        tpr=pos.tpr,
        fpr=pos.fpr,
        tnr=pos.tnr,
        g_mean=g_mean(pos.tpr, pos.tnr),
        op=op,
        auc=auc,
        weighted_precision=weighted_class_average(pos.precision, neg.precision, n_pos, n_neg),
        weighted_recall=weighted_class_average(pos.recall, neg.recall, n_pos, n_neg),
        weighted_f=weighted_class_average(pos.f_measure, neg.f_measure, n_pos, n_neg),
        degenerate=tuple(flags),
    )


def combine_reports(reports: list[MetricsReport], weights: list[float] | None = None) -> MetricsReport:
    """Field-wise (optionally weighted) mean of several reports.

    Degenerate flags are the union of the inputs' flags.
    """
    if not reports:
        raise ValueError("no reports to combine")
    if weights is None:
        w = np.ones(len(reports))
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(reports),) or w.sum() <= 0:
            raise ValueError("weights must match the reports and sum to a positive total")
    w = w / w.sum()
    fields = [f for f in MetricsReport.__dataclass_fields__ if f != "degenerate"]
    values = {f: float(sum(wi * getattr(r, f) for wi, r in zip(w, reports))) for f in fields}
    flags = sorted({flag for r in reports for flag in r.degenerate})
    return MetricsReport(**values, degenerate=tuple(flags))


# Column order of emitted metric tables: headline columns first (accuracy,
# OP, G-mean, weighted precision/recall/F, AUC), then the raw rate pair.
METRIC_COLUMNS: tuple[str, ...] = (
    "accuracy",
    "op",
    "g_mean",
    "weighted_precision",
    "weighted_recall",
    "weighted_f",
    "auc",
    "tpr",
    "tnr",
)

