from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crus.metrics import (
    ConfusionMatrix,
    auc_roc,
    binary_rates,
    combine_reports,
    compute_report,
    confusion_matrix,
    g_mean,
    optimized_precision,
    weighted_class_average,
)


def brute_rates(truth, pred):
    tp = int(np.sum((truth == 1) & (pred == 1)))
    fn = int(np.sum((truth == 1) & (pred == 0)))
    fp = int(np.sum((truth == 0) & (pred == 1)))
    tn = int(np.sum((truth == 0) & (pred == 0)))
    return tp, fn, fp, tn


def brute_auc(truth, scores):
    """Probability a positive outscores a negative, ties counting half."""
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (pos.size * neg.size)


def trapezoid_area(curve):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def test_confusion_matrix_counts():
    truth = np.array([1, 1, 0, 0, 1, 0])
    pred = np.array([1, 0, 0, 1, 1, 0])
    cm = confusion_matrix(truth, pred)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 2)
    assert cm.n == 6
    swapped = cm.swapped()
    assert (swapped.tp, swapped.fn, swapped.fp, swapped.tn) == (2, 1, 1, 2)
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)


def test_binary_rates_known_values():
    cm = ConfusionMatrix(tp=8, fn=2, fp=4, tn=6)
    r = binary_rates(cm)
    assert r.precision == pytest.approx(8 / 12)
    assert r.recall == pytest.approx(0.8)
    assert r.tpr == pytest.approx(0.8)
    assert r.fpr == pytest.approx(0.4)
    assert r.tnr == pytest.approx(0.6)
    assert r.accuracy == pytest.approx(14 / 20)
    assert r.f_measure == pytest.approx(2 * (8 / 12) * 0.8 / ((8 / 12) + 0.8))
    assert r.degenerate == ()


def test_zero_denominators_flagged_not_crashing():
    cm = ConfusionMatrix(tp=0, fn=0, fp=3, tn=7)  # no positives at all
    r = binary_rates(cm)
    assert r.recall == 0.0
    assert "recall" in r.degenerate
    cm2 = ConfusionMatrix(tp=0, fn=5, fp=0, tn=5)  # nothing predicted positive
    r2 = binary_rates(cm2)
    assert r2.precision == 0.0
    assert "precision" in r2.degenerate


def test_f_measure_beta():
    cm = ConfusionMatrix(tp=6, fn=4, fp=2, tn=8)
    r1 = binary_rates(cm, beta=1.0)
    r2 = binary_rates(cm, beta=2.0)
    p, rec = 6 / 8, 6 / 10
    assert r2.f_measure == pytest.approx(5 * p * rec / (4 * p + rec))
    assert r1.f_measure != r2.f_measure


def test_g_mean_and_op():
    assert g_mean(0.8, 0.5) == pytest.approx(math.sqrt(0.4))
    assert g_mean(0.0, 1.0) == 0.0
    op, deg = optimized_precision(0.9, 0.8, 0.95)
    assert op == pytest.approx(0.9 - abs(0.95 - 0.8) / (0.95 + 0.8))
    assert not deg
    op0, deg0 = optimized_precision(0.5, 0.0, 0.0)
    assert deg0
    assert op0 == pytest.approx(0.5 - 1.0)


def test_weighted_class_average_recall_is_accuracy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        truth = rng.integers(0, 2, 50)
        pred = rng.integers(0, 2, 50)
        if truth.min() == truth.max():
            continue
        rep = compute_report(truth, pred, pred.astype(float))
        assert rep.weighted_recall == pytest.approx(rep.accuracy, abs=1e-12)


def test_auc_matches_pair_enumeration_and_trapezoid():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(5, 40))
        truth = rng.integers(0, 2, n)
        if truth.min() == truth.max():
            continue
        scores = np.round(rng.uniform(0, 1, n), 2)  # induce ties
        auc, curve, degenerate = auc_roc(truth, scores)
        assert not degenerate
        assert auc == pytest.approx(brute_auc(truth, scores), abs=1e-12)
        assert trapezoid_area(curve) == pytest.approx(auc, abs=1e-12)
        assert curve[0] == (0.0, 0.0) and curve[-1] == (1.0, 1.0)


def test_auc_single_class_degenerate():
    auc, curve, degenerate = auc_roc(np.ones(5, dtype=int), np.linspace(0, 1, 5))
    assert degenerate
    assert auc == 0.0
    assert curve == [(0.0, 0.0), (1.0, 1.0)]


def test_auc_perfect_and_reversed():
    truth = np.array([0, 0, 1, 1])
    auc, _, _ = auc_roc(truth, np.array([0.1, 0.2, 0.8, 0.9]))
    assert auc == 1.0
    auc_rev, _, _ = auc_roc(truth, np.array([0.9, 0.8, 0.2, 0.1]))
    assert auc_rev == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_score_is_rejected_with_its_index(bad):
    truth = np.array([0, 1, 0, 1])
    scores = np.array([0.2, bad, 0.5, 0.9])
    with pytest.raises(ValueError, match="at index 1 is not finite"):
        auc_roc(truth, scores)
    with pytest.raises(ValueError, match="at index 1 is not finite"):
        compute_report(truth, np.array([0, 1, 0, 1]), scores=scores)


def test_compute_report_consistency():
    truth = np.array([1, 1, 1, 0, 0, 0, 0, 0])
    pred = np.array([1, 0, 1, 0, 0, 1, 0, 0])
    rep = compute_report(truth, pred, scores=pred.astype(float))
    tp, fn, fp, tn = brute_rates(truth, pred)
    assert rep.accuracy == pytest.approx((tp + tn) / 8)
    assert rep.tpr == pytest.approx(tp / 3)
    assert rep.tnr == pytest.approx(tn / 5)
    assert rep.g_mean == pytest.approx(math.sqrt(rep.tpr * rep.tnr))
    assert rep.op == pytest.approx(rep.accuracy - abs(rep.tnr - rep.tpr) / (rep.tnr + rep.tpr))
    assert rep.weighted_precision == pytest.approx(
        weighted_class_average(rep.precision_pos, tn / (tn + fn), 3, 5)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_swapping_the_classes_maps_the_report(data):
    n = data.draw(st.integers(1, 30), label="n")
    labels = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    truth = np.array(data.draw(labels, label="truth"))
    predicted = np.array(data.draw(labels, label="predicted"))
    # a few shared values, so scores tie across the classes
    score = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-1e6, 1e6))
    scores = np.array(data.draw(st.lists(score, min_size=n, max_size=n), label="scores"))
    report = compute_report(truth, predicted, scores)
    # the new positive class scores in reverse order; -scores, not
    # 1 - scores, since 1 - s can round distinct scores to one
    swapped = compute_report(1 - truth, 1 - predicted, -scores)
    for name in ("accuracy", "g_mean", "op", "weighted_precision", "weighted_recall", "weighted_f"):
        assert getattr(swapped, name) == getattr(report, name), name
    assert (swapped.tpr, swapped.tnr) == (report.tnr, report.tpr)
    # swapping the classes keeps the ranking's AUC; swapping only the
    # labels, with the scores kept, turns it into 1 - AUC
    relabelled = compute_report(1 - truth, 1 - predicted, scores)
    if "auc" in report.degenerate:
        assert "auc" in swapped.degenerate and "auc" in relabelled.degenerate
    else:
        assert abs(swapped.auc - report.auc) <= 1e-12
        assert abs(relabelled.auc - (1.0 - report.auc)) <= 1e-12


def test_combine_reports_weighted():
    truth_a = np.array([1, 0, 0, 0])
    pred_a = np.array([1, 0, 0, 1])
    truth_b = np.array([1, 1, 0, 0, 0, 0])
    pred_b = np.array([1, 0, 0, 0, 0, 0])
    ra = compute_report(truth_a, pred_a, pred_a.astype(float))
    rb = compute_report(truth_b, pred_b, pred_b.astype(float))
    combined = combine_reports([ra, rb], weights=[4.0, 6.0])
    assert combined.accuracy == pytest.approx(0.4 * ra.accuracy + 0.6 * rb.accuracy)
    unweighted = combine_reports([ra, rb])
    assert unweighted.accuracy == pytest.approx((ra.accuracy + rb.accuracy) / 2)
    with pytest.raises(ValueError):
        combine_reports([])
    with pytest.raises(ValueError):
        combine_reports([ra], weights=[0.0])


def test_combine_reports_unions_flags():
    truth = np.array([1, 1, 0, 0])
    all_neg = compute_report(truth, np.zeros(4, dtype=int), np.zeros(4))
    fine = compute_report(truth, truth.copy(), truth.astype(float))
    combined = combine_reports([fine, all_neg])
    assert "precision" in combined.degenerate
