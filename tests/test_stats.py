from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from crus import stats
from crus.stats import (
    CdDiagram,
    ScoreMatrix,
    average_combined_loss,
    cd_diagram,
    chi2_sf,
    compare_treatments,
    friedman_test,
    holm_adjust,
    loss_vs_best,
    normal_sf,
    regularized_gamma_q,
    wilcoxon_signed_rank,
)


def test_gamma_q_matches_scipy():
    for a in (0.5, 1.0, 2.5, 7.0, 25.0, 50.0):
        for x in (0.0, 0.3, 1.0, 4.0, 12.0, 40.0, 120.0):
            assert regularized_gamma_q(a, x) == pytest.approx(
                scipy.special.gammaincc(a, x), abs=1e-12
            )


def test_chi2_sf_matches_scipy():
    for df in (1, 2, 5, 10, 40, 100):
        for x in (0.0, 0.5, 3.0, 8.0, 25.0, 90.0):
            assert chi2_sf(x, df) == pytest.approx(scipy.stats.chi2.sf(x, df), abs=1e-10)


def test_normal_sf_matches_scipy():
    for z in (-4.0, -1.0, 0.0, 0.5, 1.96, 3.5):
        assert normal_sf(z) == pytest.approx(scipy.stats.norm.sf(z), abs=1e-14)


def test_gamma_q_validation():
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(1.0, -0.5)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


IDENTICAL_ORDER = ScoreMatrix(
    np.array([[3.0, 2.0, 1.0]] * 4) + np.arange(4)[:, None],
    ("a", "b", "c"),
    metric="g_mean",
)


def test_friedman_identical_order_fixture():
    res = friedman_test(IDENTICAL_ORDER)
    assert res.statistic == pytest.approx(8.0)
    assert res.df == 2
    assert res.p_value == pytest.approx(0.0183, abs=5e-4)
    assert res.average_ranks == (1.0, 2.0, 3.0)


def test_friedman_all_equal_degenerate():
    m = ScoreMatrix(np.full((5, 3), 0.7), ("a", "b", "c"))
    res = friedman_test(m)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_friedman_column_permutation_symmetry():
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 1, (6, 4))
    base = friedman_test(ScoreMatrix(values, ("a", "b", "c", "d")))
    perm = [2, 0, 3, 1]
    shuffled = friedman_test(ScoreMatrix(values[:, perm], ("c", "a", "d", "b")))
    assert shuffled.statistic == pytest.approx(base.statistic)
    assert shuffled.average_ranks == tuple(base.average_ranks[j] for j in perm)


def test_friedman_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, (8, 3))
    base = friedman_test(ScoreMatrix(values, ("a", "b", "c")))
    warped = friedman_test(ScoreMatrix(np.exp(3 * values), ("a", "b", "c")))
    assert warped.statistic == pytest.approx(base.statistic)


def test_score_matrix_validation():
    with pytest.raises(ValueError):
        ScoreMatrix(np.zeros((3, 1)), ("a",))
    with pytest.raises(ValueError):
        ScoreMatrix(np.zeros((1, 3)), ("a", "b", "c"))
    with pytest.raises(ValueError):
        ScoreMatrix(np.zeros((3, 2)), ("a",))
    with pytest.raises(ValueError):
        ScoreMatrix(np.array([[0.0, np.inf]] * 2), ("a", "b"))


def brute_force_wilcoxon_p(diff: np.ndarray) -> float:
    """Two-sided exact p over every sign assignment of the nonzero diffs."""
    diff = diff[diff != 0]
    n = diff.size
    order = np.argsort(np.abs(diff), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(diff)[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    w_obs = ranks[diff > 0].sum()
    sums = [
        sum(r for r, s in zip(ranks, signs) if s)
        for signs in itertools.product([False, True], repeat=n)
    ]
    sums = np.array(sums)
    tol = 1e-9
    p_le = np.mean(sums <= w_obs + tol)
    p_ge = np.mean(sums >= w_obs - tol)
    return min(1.0, 2.0 * min(p_le, p_ge))


def test_wilcoxon_identical_samples():
    a = np.array([0.7, 0.8, 0.9])
    res = wilcoxon_signed_rank(a, a.copy())
    assert res.p_value == 1.0
    assert res.method == "degenerate"
    assert res.n_effective == 0


def test_wilcoxon_five_positive_differences():
    a = np.array([1.1, 2.2, 3.3, 4.4, 5.5])
    b = a - np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    res = wilcoxon_signed_rank(a, b)
    assert res.method == "exact"
    assert res.p_value == pytest.approx(2 / 2**5)


def test_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(2)
    for n in (3, 5, 8, 12):
        for trial in range(4):
            a = rng.normal(0, 1, n)
            b = a - rng.normal(0.2, 1, n)
            if trial % 2 == 1:
                # force ties in |diff| and some zero differences
                d = rng.choice([-0.5, 0.0, 0.5, 1.0], size=n)
                b = a - d
                if np.all(d == 0):
                    continue
            res = wilcoxon_signed_rank(a, b)
            if res.n_effective == 0:
                continue
            assert res.method == "exact"
            assert res.p_value == pytest.approx(brute_force_wilcoxon_p(a - b), abs=1e-12)


def test_wilcoxon_branches_agree_near_the_cutoff(monkeypatch):
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(0, 1, 20)
        b = a - rng.normal(0.3, 1, 20)
        exact = wilcoxon_signed_rank(a, b)
        monkeypatch.setattr(stats, "_EXACT_LIMIT", 10)
        approx = wilcoxon_signed_rank(a, b)
        monkeypatch.undo()
        assert exact.method == "exact" and approx.method == "normal"
        assert abs(exact.p_value - approx.p_value) < 0.01


def test_wilcoxon_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.array([]), np.array([]))


def test_holm_fixture():
    assert holm_adjust([0.01, 0.02, 0.04]) == pytest.approx([0.03, 0.04, 0.04])


def test_holm_single_and_clamp():
    assert holm_adjust([0.2]) == [0.2]
    assert holm_adjust([0.9, 0.8]) == pytest.approx([1.0, 1.0])


def test_holm_preserves_input_order_and_monotonicity():
    rng = np.random.default_rng(4)
    p = rng.uniform(0, 1, 7)
    adj = np.array(holm_adjust(p))
    assert np.all(adj >= p)
    order = np.argsort(p, kind="stable")
    assert np.all(np.diff(adj[order]) >= 0)
    # adjusting a permutation permutes the result identically
    perm = rng.permutation(7)
    assert holm_adjust(p[perm]) == pytest.approx(adj[perm])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_holm_is_monotone_and_bounded(p):
    adj = np.array(holm_adjust(p))
    raw = np.array(p)
    assert np.all(adj >= raw) and np.all(adj <= 1.0)
    assert np.all(np.diff(adj[np.argsort(raw, kind="stable")]) >= 0)


def test_holm_validation():
    with pytest.raises(ValueError):
        holm_adjust([])
    with pytest.raises(ValueError):
        holm_adjust([0.5, 1.5])


def all_significant_matrix() -> ScoreMatrix:
    base = np.arange(12, dtype=np.float64)
    values = np.column_stack([base, base + 1.0, base + 2.0])
    return ScoreMatrix(values, ("worst", "mid", "best"), metric="accuracy")


def test_compare_treatments_report_invariants():
    rep = compare_treatments(all_significant_matrix(), alpha=0.05)
    assert len(rep.pairwise) == 3
    for pr in rep.pairwise:
        assert pr.p_holm >= pr.p_raw
    covered = {t for clique in rep.cliques for t in clique}
    assert covered == {0, 1, 2}
    assert rep.pair(2, 0) is rep.pair(0, 2)
    with pytest.raises(KeyError):
        rep.pair(0, 0)


def test_compare_treatments_alpha_validation():
    with pytest.raises(ValueError):
        compare_treatments(all_significant_matrix(), alpha=0.0)


def test_cd_diagram_all_pairs_significant_has_no_bars():
    rep = compare_treatments(all_significant_matrix(), alpha=0.05)
    assert all(pr.p_holm < 0.05 for pr in rep.pairwise)
    diagram = cd_diagram(rep)
    assert diagram.bars == ()
    assert diagram.treatments == ("best", "mid", "worst")
    assert diagram.ranks == (1.0, 2.0, 3.0)
    assert "all pairwise differences significant" in diagram.to_text()


def test_cd_diagram_nothing_significant_one_bar_spans_all():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 1, (4, 3))
    rep = compare_treatments(ScoreMatrix(values, ("a", "b", "c")), alpha=0.05)
    assert all(pr.p_holm >= 0.05 for pr in rep.pairwise)
    diagram = cd_diagram(rep)
    assert diagram.bars == ((0, 2),)
    assert "no significant difference: " in diagram.to_text()


def test_cd_diagram_extreme_pair_only_gives_adjacent_bars():
    base = np.arange(12, dtype=np.float64) * 10.0
    swing = 0.9 * np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    values = np.column_stack([base, base + 0.5 + swing, base + 1.0])
    rep = compare_treatments(ScoreMatrix(values, ("a", "b", "c")), alpha=0.05)
    assert rep.pair(0, 2).p_holm < 0.05
    assert rep.pair(0, 1).p_holm >= 0.05
    assert rep.pair(1, 2).p_holm >= 0.05
    diagram = cd_diagram(rep)
    # rank order is c, b, a; the two overlapping pairs each get a bar
    assert diagram.treatments == ("c", "b", "a")
    assert diagram.bars == ((0, 1), (1, 2))


def test_cd_diagram_svg_smoke():
    rep = compare_treatments(all_significant_matrix(), alpha=0.05)
    svg = cd_diagram(rep).to_svg()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    for name in ("best", "mid", "worst"):
        assert name in svg


def test_loss_vs_best_fixtures():
    losses = loss_vs_best([0.92, 0.87, 0.46])
    assert losses[0] == 0.0
    assert losses[1] == pytest.approx(5.43, abs=0.005)
    assert losses[2] == pytest.approx(50.0)
    assert all(v >= 0 for v in losses)


def test_loss_vs_best_validation():
    with pytest.raises(ValueError):
        loss_vs_best([])
    with pytest.raises(ValueError):
        loss_vs_best([0.0, -1.0])


def test_average_combined_loss_fixtures():
    assert average_combined_loss(2.65, 1.75) == 2.20
    assert average_combined_loss(0.65, 24.05) == 12.35
    assert average_combined_loss(0.0, 0.0) == 0.0


def test_cd_diagram_text_lists_every_treatment():
    diagram = CdDiagram(("x", "y"), (1.25, 1.75), ((0, 1),), 0.05, "op")
    text = diagram.to_text()
    assert "x" in text and "y" in text and "1.250" in text
