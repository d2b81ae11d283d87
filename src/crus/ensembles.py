"""Ensemble learners built on the weighted decision tree grower.

All ensembles are deterministic given their seed: per-member randomness is
derived from (seed, member index) so members can be fit in any order or in
parallel without changing the result.

Each fit is a sequence of tree requests over row maps into one dataset
(`Requests`).  `fit_together` runs many sequences in lockstep, growing the
requests of a round with one `fit_trees` call; each `fit_*` function runs
its own sequence alone.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .seeds import derive_seed, rng_for
from .trees import DecisionTree, TreeConfig, _Columns, fit_trees, random_tree_config

# Not called here: the benchmark tracer (perfbench/tracer.py) patches this name.
from .trees import fit_tree  # noqa: F401

# weight given to a member that classifies its training set perfectly
PERFECT_MEMBER_WEIGHT = math.log(1e10)

# each method's member count when EnsembleConfig.n_members is None
DEFAULT_MEMBERS = {"bagging": 10, "random_forest": 100, "adaboost": 10, "random_committee": 10}


def theoretical_ensemble_accuracy(p: float, n_members: int) -> float:
    """Probability that a majority of n_members independent voters, each
    correct with probability p, is correct.  Requires an odd member count."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be within [0, 1], got {p}")
    if n_members < 1 or n_members % 2 == 0:
        raise ValueError(f"member count must be odd and positive, got {n_members}")
    total = 0.0
    for m in range(n_members // 2 + 1, n_members + 1):
        total += math.comb(n_members, m) * p**m * (1 - p) ** (n_members - m)
    return total


@dataclass(frozen=True)
class EnsembleConfig:
    # None resolves to the method default (10, or 100 for random forests)
    n_members: int | None = None
    base: TreeConfig = field(default_factory=TreeConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_members is not None and self.n_members < 1:
            raise ValueError(f"n_members must be at least 1, got {self.n_members}")

    def resolve_members(self, default: int) -> int:
        return default if self.n_members is None else self.n_members


@dataclass
class EnsembleModel:
    method: str                      # bagging | random_forest | adaboost | random_committee
    members: list[DecisionTree]
    member_weights: np.ndarray
    combine: str                     # "vote" or "average"
    seed: int
    oob_error: float | None = None
    oob_coverage: float | None = None
    epsilons: tuple[float, ...] = ()
    betas: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()
    # boosting weight distributions per round (diagnostic, not serialized)
    weight_history: list[np.ndarray] = field(default_factory=list)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(classes, scores); score is the weighted positive vote share for
        voting ensembles and the mean positive probability for averaging
        ones.  Class follows score > 0.5 with ties electing negative."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        w = self.member_weights
        if self.combine == "vote" and float(w.sum()) == 0.0:
            w = np.ones_like(w)  # degenerate boosting run: fall back to unit votes
        total = float(w.sum())
        acc = np.zeros(X.shape[0])
        for weight, member in zip(w, self.members):
            labels, probs = member.predict_batch(X)
            if self.combine == "vote":
                acc += weight * (labels == 1)
            else:
                acc += weight * probs
        score = acc / total
        pos_weight = acc
        neg_weight = total - acc
        classes = (pos_weight > neg_weight).astype(np.int8)
        return classes, score


def _bootstrap_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, n, size=n)


# A fit as a sequence of tree requests over the rows of one dataset: a
# generator that yields the (idx, w, cfg) of each tree it needs next (see
# fit_trees), is sent those trees, and returns its model.  A fit that asks
# for all its trees at once makes one request; AdaBoost asks for round
# r + 1 after it has seen round r.
Requests = Generator[
    Iterable[tuple[np.ndarray, np.ndarray, TreeConfig]], list[DecisionTree], "DecisionTree | EnsembleModel"
]


def fit_together(d: Dataset, fits: Sequence[Requests]) -> list[DecisionTree | EnsembleModel | ValueError]:
    """Run request sequences over the rows of d in lockstep, and return
    each one's model or the ValueError that stopped it.

    Each round grows the trees that every unfinished sequence asks for next
    with one fit_trees call, on sort codes built once.  A ValueError raised
    while growing a round stops every sequence of that round.
    """
    columns = _Columns(d)
    results: list = [None] * len(fits)
    asked: dict[int, Iterable] = {}  # each unfinished fit's requests not yet grown

    def send(i: int, trees: list[DecisionTree] | None) -> None:
        try:
            asked[i] = fits[i].send(trees)
        except StopIteration as stop:
            results[i] = stop.value
        except ValueError as exc:
            results[i] = exc

    for i in range(len(fits)):
        send(i, None)
    while asked:
        rounds, asked = asked, {}
        owners: list[int] = []  # the fit each grown tree goes to

        def requests():
            for i, requested in rounds.items():
                for request in requested:
                    owners.append(i)
                    yield request

        try:
            grown = fit_trees(d, requests(), columns)
        except ValueError as exc:
            for i in rounds:
                results[i] = exc
            continue
        mine: dict[int, list[DecisionTree]] = {i: [] for i in rounds}
        for tree, owner in zip(grown, owners):
            mine[owner].append(tree)
        for i, trees in mine.items():
            send(i, trees)
    return results


def fit_alone(d: Dataset, fit: Requests) -> DecisionTree | EnsembleModel:
    """Run one request sequence over the rows of d; its model."""
    (model,) = fit_together(d, [fit])
    if isinstance(model, ValueError):
        raise model
    return model


def tree_requests(idx: np.ndarray, cfg: TreeConfig) -> Requests:
    """One tree with unit weights on the rows idx."""
    (tree,) = yield [(idx, np.ones(idx.size), cfg)]
    return tree


def bagging_requests(d: Dataset, idx: np.ndarray, cfg: EnsembleConfig) -> Requests:
    """fit_bagging on the rows idx of d."""
    n_members = cfg.resolve_members(default=DEFAULT_MEMBERS["bagging"])
    n = idx.size
    members = yield (
        (idx[_bootstrap_indices(n, rng_for(cfg.seed, "bootstrap", i))], np.ones(n),
         replace(cfg.base, seed=derive_seed(cfg.seed, "tree", i)))
        for i in range(n_members)
    )
    return EnsembleModel("bagging", members, np.ones(n_members), "vote", cfg.seed)


def random_forest_requests(d: Dataset, idx: np.ndarray, cfg: EnsembleConfig) -> Requests:
    """fit_random_forest on the rows idx of d."""
    n_members = cfg.resolve_members(default=DEFAULT_MEMBERS["random_forest"])
    n = idx.size
    def bootstrap(i: int) -> np.ndarray:
        return _bootstrap_indices(n, rng_for(cfg.seed, "bootstrap", i))

    members = yield (
        (idx[bootstrap(i)], np.ones(n),
         random_tree_config(derive_seed(cfg.seed, "tree", i), d.schema.n_attributes, cfg.base))
        for i in range(n_members)
    )
    oob_pos = np.zeros(n)
    oob_all = np.zeros(n)
    for i, tree in enumerate(members):
        out_mask = np.ones(n, dtype=bool)
        out_mask[bootstrap(i)] = False
        if np.any(out_mask):
            labels, _ = tree.predict_batch(d.values[idx[out_mask]])
            oob_pos[out_mask] += labels == 1
            oob_all[out_mask] += 1
    covered = oob_all > 0
    if np.any(covered):
        oob_vote = (2 * oob_pos[covered]) > oob_all[covered]  # tie -> negative
        oob_error = float(np.mean(oob_vote != (d.labels[idx[covered]] == 1)))
    else:
        oob_error = None
    coverage = float(np.mean(covered))
    return EnsembleModel(
        "random_forest", members, np.ones(n_members), "vote", cfg.seed,
        oob_error=oob_error, oob_coverage=coverage,
    )


def adaboost_requests(d: Dataset, idx: np.ndarray, cfg: EnsembleConfig) -> Requests:
    """fit_adaboost on the rows idx of d, one request per round."""
    n_members = cfg.resolve_members(default=DEFAULT_MEMBERS["adaboost"])
    n = idx.size
    y = d.labels[idx]
    dist = np.full(n, 1.0 / n)
    members: list[DecisionTree] = []
    alphas: list[float] = []
    epsilons: list[float] = []
    betas: list[float] = []
    warnings: list[str] = []
    history = [dist.copy()]
    for t in range(n_members):
        base = replace(cfg.base, seed=derive_seed(cfg.seed, "tree", t))
        (tree,) = yield [(idx, dist * n, base)]
        pred, _ = tree.predict_batch(d.values[idx])
        eps = float(dist[pred != y].sum())
        epsilons.append(eps)
        if eps >= 0.5:
            if not members:
                members.append(tree)
                alphas.append(0.0)
                warnings.append(
                    f"first member's weighted error {eps:.3f} >= 0.5; "
                    "kept with zero weight, voting falls back to unweighted"
                )
            break
        if eps == 0.0:
            members.append(tree)
            alphas.append(PERFECT_MEMBER_WEIGHT)
            betas.append(0.0)
            break
        beta = eps / (1.0 - eps)
        betas.append(beta)
        members.append(tree)
        alphas.append(math.log(1.0 / beta))
        dist = dist.copy()
        dist[pred == y] *= beta
        dist /= dist.sum()
        history.append(dist.copy())
    return EnsembleModel(
        "adaboost", members, np.array(alphas), "vote", cfg.seed,
        epsilons=tuple(epsilons), betas=tuple(betas), warnings=tuple(warnings),
        weight_history=history,
    )


def random_committee_requests(d: Dataset, idx: np.ndarray, cfg: EnsembleConfig) -> Requests:
    """fit_random_committee on the rows idx of d."""
    n_members = cfg.resolve_members(default=DEFAULT_MEMBERS["random_committee"])
    members = yield (
        (idx, np.ones(idx.size), random_tree_config(cfg.seed + i, d.schema.n_attributes, cfg.base))
        for i in range(n_members)
    )
    return EnsembleModel("random_committee", members, np.ones(n_members), "average", cfg.seed)


def fit_bagging(d: Dataset, cfg: EnsembleConfig = EnsembleConfig()) -> EnsembleModel:
    """Bootstrap aggregation of the configured base tree (vote combiner)."""
    return fit_alone(d, bagging_requests(d, np.arange(len(d)), cfg))


def fit_random_forest(d: Dataset, cfg: EnsembleConfig = EnsembleConfig()) -> EnsembleModel:
    """Bagged unpruned random trees with out-of-bag error tracking."""
    return fit_alone(d, random_forest_requests(d, np.arange(len(d)), cfg))


def fit_adaboost(d: Dataset, cfg: EnsembleConfig = EnsembleConfig()) -> EnsembleModel:
    """AdaBoost.M1 by reweighting.

    The weight distribution starts uniform; after each round the weights of
    correctly classified instances are multiplied by beta = eps/(1-eps) and
    the distribution renormalized.  Training stops early when a member's
    weighted error reaches 0.5 (member discarded) or 0 (member kept with a
    capped weight).  Base trees see weights scaled to sum to n so leaf
    weight minimums keep their usual meaning.
    """
    return fit_alone(d, adaboost_requests(d, np.arange(len(d)), cfg))


def fit_random_committee(d: Dataset, cfg: EnsembleConfig = EnsembleConfig()) -> EnsembleModel:
    """Random trees on the full training set with seeds seed+i; the committee
    averages the members' class probability estimates."""
    return fit_alone(d, random_committee_requests(d, np.arange(len(d)), cfg))
