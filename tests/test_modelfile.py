from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crus.clustering import ClusterModel, kmeans_fit
from crus.dataset import NOMINAL, NUMERIC, AttributeSpec, Dataset, DatasetSchema
from crus.ensembles import EnsembleConfig, fit_adaboost, fit_bagging, fit_random_committee, fit_random_forest
from crus.evaluation import CLASSIFIER_METHODS, ClassifierSpec, SyntheticConfig, fit_classifier, gen_synthetic
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_every_classifier_kind_round_trips_on_small_mixed_data(data):
    n_numeric = data.draw(st.integers(1, 4), label="n_numeric")
    n_nominal = data.draw(st.integers(0, 3), label="n_nominal")
    n = data.draw(st.integers(4, 60), label="n")
    method = data.draw(st.sampled_from(CLASSIFIER_METHODS), label="method")
    pruning = data.draw(st.booleans(), label="pruning")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # one decimal, so numeric values tie as real data does
    numeric = np.round(rng.normal(0.0, 1.0, (n, n_numeric)), 1)
    nominal = rng.integers(0, 3, (n, n_nominal)).astype(float)
    labels = rng.integers(0, 2, n).astype(np.int8)
    labels[:2] = (0, 1)
    attrs = [AttributeSpec(f"x{i}", NUMERIC) for i in range(n_numeric)]
    attrs += [AttributeSpec(f"c{i}", NOMINAL, ("a", "b", "c")) for i in range(n_nominal)]
    d = Dataset(DatasetSchema(tuple(attrs), "y", "neg", "pos"), np.hstack([numeric, nominal]), labels)
    n_members = None if method in ("tree", "random_tree") else 3
    model = fit_classifier(d, ClassifierSpec(method, n_members=n_members, min_leaf_weight=1.0,
                                             use_pruning=pruning), seed=7)
    text = model_to_text(model)
    back = model_from_text(text)
    assert model_to_text(back) == text
    for got, want in zip(back.predict_batch(d.values), model.predict_batch(d.values)):
        assert np.array_equal(got, want)
    doc = json.loads(text)
    trees, docs = ([model], [doc]) if isinstance(model, DecisionTree) else (model.members, doc["members"])
    assert [len(t["nodes"]) for t in docs] == [t.n_nodes() for t in trees]
