from __future__ import annotations

import numpy as np
import pytest

from crus.clustering import ClusterModel, kmeans_fit
from crus.ensembles import EnsembleConfig, fit_adaboost, fit_bagging, fit_random_committee, fit_random_forest
from crus.evaluation import SyntheticConfig, gen_synthetic
from crus.modelfile import model_from_text, model_to_text
from crus.trees import DecisionTree, TreeConfig, fit_tree

# two numeric and two nominal attributes, so trees split both ways
DATA = gen_synthetic(SyntheticConfig(blob_sizes=(60, 90), blob_irs=(2.0, 5.0), seed=3)).dataset

FITTERS = {
    "tree": lambda d: fit_tree(d, TreeConfig(min_leaf_weight=2.0)),
    "bagging": lambda d: fit_bagging(d, EnsembleConfig(n_members=3, seed=2)),
    "random_forest": lambda d: fit_random_forest(d, EnsembleConfig(n_members=3, seed=2)),
    "adaboost": lambda d: fit_adaboost(d, EnsembleConfig(n_members=3, seed=2)),
    "random_committee": lambda d: fit_random_committee(d, EnsembleConfig(n_members=3, seed=2)),
    "cluster_model": lambda d: kmeans_fit(d, k=3, seed=8),
}


@pytest.mark.parametrize("kind", FITTERS)
def test_model_text_round_trips(kind):
    model = FITTERS[kind](DATA)
    text = model_to_text(model)
    back = model_from_text(text)
    assert type(back) is type(model)
    assert model_to_text(back) == text
    if isinstance(model, ClusterModel):
        assert back.schema == model.schema
        assert np.array_equal(back.assign(DATA.values), model.assign(DATA.values))
        return
    for got, want in zip(back.predict_batch(DATA.values), model.predict_batch(DATA.values)):
        assert np.array_equal(got, want)
    trees = [model] if isinstance(model, DecisionTree) else model.members
    assert any(node.categories for t in trees for node in t.root.walk())
    assert any(node.threshold is not None for t in trees for node in t.root.walk())
    if not isinstance(model, DecisionTree):
        assert back.weight_history == []  # a diagnostic the file does not keep

