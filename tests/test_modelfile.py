from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crus.clustering import ClusterModel, kmeans_fit
from crus.dataset import NOMINAL, NUMERIC, AttributeSpec, DataError, Dataset, DatasetSchema, load_schema, save_schema
from crus.ensembles import (
    EnsembleConfig,
    EnsembleModel,
    fit_adaboost,
    fit_bagging,
    fit_random_committee,
    fit_random_forest,
)
from crus.evaluation import CLASSIFIER_METHODS, ClassifierSpec, SyntheticConfig, fit_classifier, gen_synthetic
from crus.modelfile import model_from_text, model_to_text
from crus.trees import DecisionTree, TreeConfig, TreeNode, fit_tree

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
    assert any(node.categories for t in trees for node in t.nodes)
    assert any(node.threshold is not None for t in trees for node in t.nodes)
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
    for t in trees:  # each list is one tree: its child slots close at its last node, not before
        assert sum(node.n_children for node in t.nodes) == len(t.nodes) - 1
        open_slots = np.cumsum([node.n_children - 1 for node in t.nodes]) + 1
        assert np.all(open_slots[:-1] > 0)


def test_each_fact_is_stored_once():
    ensemble = json.loads(model_to_text(FITTERS["bagging"](DATA)))
    assert all(set(member) == {"config", "nodes"} for member in ensemble["members"])
    cluster = json.loads(model_to_text(FITTERS["cluster_model"](DATA)))
    assert "numeric" not in cluster and "k" not in cluster
    assert ensemble["schema"] == cluster["schema"]


def cluster_text(**changes):
    """The file of a 3-cluster model of DATA (4 attributes), some keys changed."""
    doc = json.loads(model_to_text(FITTERS["cluster_model"](DATA)))
    return json.dumps({**doc, **changes})


NAN = float("nan")
ROWS = "centroids must be a nonempty list of rows, each of"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"centroids": []}, f"{ROWS} 4 finite numbers, one per attribute, got []"),
        ({"centroids": {"0": [0.5, 0.5, 0, 1]}}, ROWS),
        ({"centroids": [[0.5, 0.5, 0, 1], [0.5, 0.5, 0]]}, f"{ROWS} 4 finite numbers"),
        ({"centroids": [[0.5, NAN, 0, 1]]}, f"{ROWS} 4 finite numbers, one per attribute, got [[0.5, nan"),
        ({"centroids": [[0.5, "0.5", 0, 1]]}, f"{ROWS} 4 finite numbers"),
        ({"centroids": [[0.5, 0.5, True, 1]]}, f"{ROWS} 4 finite numbers"),
        ({"mins": [0.0, 0.0, 0.0]}, "mins must be a list of 4 finite numbers, one per attribute, got [0.0, 0.0, 0.0]"),
        ({"mins": [0.0, NAN, 0.0, 0.0]}, "mins must be a list of 4 finite numbers"),
        ({"maxs": [1.0, float("inf"), 0.0, 0.0]}, "maxs must be a list of 4 finite numbers, one per attribute, got [1.0, inf"),
        ({"maxs": "1"}, "maxs must be a list of 4 finite numbers"),
        ({"seed": 2.7}, "seed must be an integer, got 2.7"),
        ({"n_iter": "3"}, "n_iter must be an integer, got '3'"),
        ({"repairs": False}, "repairs must be an integer, got False"),
        ({"objective": NAN}, "objective must be a finite number, got nan"),
        ({"objective": "1.5"}, "objective must be a finite number, got '1.5'"),
    ],
    ids=["no-centroids", "centroids-not-a-list", "short-centroid", "nan-centroid", "string-centroid",
         "bool-centroid", "short-mins", "nan-mins", "inf-maxs", "string-maxs", "float-seed", "string-n_iter",
         "bool-repairs", "nan-objective", "string-objective"],
)
def test_cluster_file_refuses_values_that_do_not_fit_its_schema(changes, message):
    model_from_text(cluster_text())  # the unchanged file reads
    with pytest.raises(ValueError) as err:
        model_from_text(cluster_text(**changes))
    assert message in str(err.value)


# strings that YAML would read as another type if they were written unquoted
YAML_RETYPED = ["yes", "no", "on", "off", "true", "null", "~", "1.5", "0", "", "-", "#", ".nan", "x: y"]


@st.composite
def schemas(draw):
    text = st.one_of(st.sampled_from(YAML_RETYPED), st.text(max_size=5))
    n_attributes = draw(st.integers(0, 4), label="n_attributes")
    names = draw(st.lists(text, min_size=n_attributes + 1, max_size=n_attributes + 1, unique=True), label="names")
    labels = draw(st.lists(text, min_size=2, max_size=2, unique=True), label="labels")
    attrs = []
    for name in names[1:]:
        if draw(st.booleans(), label="nominal"):
            categories = draw(st.lists(text, min_size=1, max_size=4, unique=True), label="categories")
            attrs.append(AttributeSpec(name, NOMINAL, tuple(categories)))
        else:
            attrs.append(AttributeSpec(name, NUMERIC))
    return DatasetSchema(tuple(attrs), names[0], labels[0], labels[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(schema=schemas())
def test_schema_document_round_trips_through_sidecar_and_model_files(tmp_path_factory, schema):
    path = tmp_path_factory.mktemp("schema") / "data.schema.yaml"
    save_schema(schema, path)
    tree = DecisionTree(schema, [TreeNode(class_weights=np.array([1.0, 2.0]))], TreeConfig())
    ensemble = EnsembleModel("bagging", [tree], np.ones(1), "vote", 0)
    texts = [schema.negative_label, schema.positive_label, *(c for a in schema.attributes for c in a.categories)]
    holdable = all(t and "," not in t and t.splitlines() == [t] for t in texts)
    if not holdable or not schema.attributes:  # refused wherever a schema is read
        if holdable:
            refusal = "'attributes' lists no attribute besides the class"
        else:
            refusal = "which no CSV cell can hold"
        with pytest.raises(DataError, match=refusal):
            load_schema(path)
        for model in (tree, ensemble):
            with pytest.raises(DataError, match=refusal):
                model_from_text(model_to_text(model))
        return
    assert load_schema(path) == schema
    for model in (tree, ensemble):
        text = model_to_text(model)
        back = model_from_text(text)
        assert model_to_text(back) == text
        assert (back if model is tree else back.members[0]).schema == schema
