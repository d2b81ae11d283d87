"""Model files: the JSON text of a tree, an ensemble or a cluster model.

`model_to_text` writes the one format and `model_from_text` reads it back:
a JSON object with sorted keys and one-space indents whose `kind` is
"tree", "ensemble" or "cluster_model".  Trees and cluster models embed
their schema, and the reader checks each split node against it.  It also
refuses node weights that are not two numbers, member weights that do not
pair one to one with an ensemble's members, and an unknown combiner.

The converters walk trees with explicit stacks, but the JSON encoder and
decoder recurse once per nesting level, and a tree nests one level per
tree level.  A tree too deep for them fails to write with a ValueError
naming its depth, and a file nesting too deeply fails to read with a
ValueError that says so.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .clustering import ClusterModel, FeatureScaler
from .dataset import NOMINAL, NUMERIC, AttributeSpec, DatasetSchema
from .ensembles import EnsembleModel
from .trees import DecisionTree, TreeConfig, TreeNode


def model_to_text(model: DecisionTree | EnsembleModel | ClusterModel) -> str:
    """The model file text of a tree, ensemble or cluster model."""
    try:
        return json.dumps(_WRITERS[type(model)](model), indent=1, sort_keys=True)
    except RecursionError:
        trees = model.members if isinstance(model, EnsembleModel) else [model]
        depth = max(t.root.depth() for t in trees)
        raise ValueError(f"a tree {depth} levels deep is too deep to write as a JSON model file") from None


def model_from_text(text: str) -> DecisionTree | EnsembleModel | ClusterModel:
    """The model a model file's text holds.

    A malformed document raises KeyError for a missing key, or TypeError
    or ValueError.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("the document nests too deeply to read") from None
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _READERS:
        raise ValueError(f"not a tree, ensemble or cluster model document (kind={kind!r})")
    return _READERS[kind](doc)


def _schema_to_doc(schema: DatasetSchema) -> dict:
    return {
        "class_attribute": schema.class_name,
        "negative_label": schema.negative_label,
        "positive_label": schema.positive_label,
        "attributes": [asdict(a) for a in schema.attributes],
    }


def _schema_from_doc(doc: dict) -> DatasetSchema:
    attrs = tuple(
        AttributeSpec(e["name"], e["kind"], tuple(e.get("categories", ())))
        for e in doc["attributes"]
    )
    return DatasetSchema(attrs, doc["class_attribute"], doc["negative_label"], doc["positive_label"])


def _node_to_doc(root: TreeNode) -> dict:
    top: dict = {}
    stack = [(root, top)]
    while stack:
        node, doc = stack.pop()
        doc["weights"] = [float(node.class_weights[0]), float(node.class_weights[1])]
        if node.is_leaf:
            continue
        doc["attribute"] = node.attribute
        kids: list[dict] = [{} for _ in node.children]
        if node.threshold is not None:
            doc["threshold"] = node.threshold
            doc["left"], doc["right"] = kids
        else:
            doc["children"] = {str(c): kid for c, kid in zip(node.categories, kids)}
            doc["fallback"] = node.fallback
        stack.extend(reversed(list(zip(node.children, kids))))
    return top


def _leaf_from_doc(doc: dict) -> TreeNode:
    weights = doc["weights"]
    if not isinstance(weights, list) or len(weights) != 2 or any(type(w) not in (int, float) for w in weights):
        raise ValueError(f"node weights must be two numbers, got {weights!r}")
    return TreeNode(class_weights=np.array(weights, dtype=np.float64))


def _node_from_doc(top: dict, schema: DatasetSchema) -> TreeNode:
    root = _leaf_from_doc(top)
    stack = [(root, top)]
    while stack:
        node, doc = stack.pop()
        if "attribute" not in doc:
            continue
        node.attribute = int(doc["attribute"])
        if not 0 <= node.attribute < schema.n_attributes:
            raise ValueError(
                f"split on attribute {node.attribute}, outside the schema's {schema.n_attributes} attributes"
            )
        attr = schema.attributes[node.attribute]
        if "threshold" in doc:
            if attr.kind != NUMERIC:
                raise ValueError(f"threshold split on nominal attribute '{attr.name}'")
            node.threshold = float(doc["threshold"])
            kids = [doc["left"], doc["right"]]
        else:
            if attr.kind != NOMINAL:
                raise ValueError(f"category split on numeric attribute '{attr.name}'")
            children = doc["children"]
            if not isinstance(children, dict):
                raise ValueError(f"children of a category split must be an object, got a {type(children).__name__}")
            by_category = sorted(children.items(), key=lambda item: int(item[0]))
            node.categories = tuple(int(c) for c, _ in by_category)
            node.fallback = int(doc["fallback"])
            if any(not 0 <= c < len(attr.categories) for c in node.categories):
                raise ValueError(f"category codes {list(node.categories)} outside attribute '{attr.name}'")
            if node.fallback not in node.categories:
                raise ValueError(f"fallback {node.fallback} is not a child category of '{attr.name}'")
            kids = [kid for _, kid in by_category]
        node.children = [_leaf_from_doc(kid) for kid in kids]
        stack.extend(reversed(list(zip(node.children, kids))))
    return root


def _tree_to_doc(tree: DecisionTree) -> dict:
    return {
        "kind": "tree",
        "schema": _schema_to_doc(tree.schema),
        "config": asdict(tree.config),
        "root": _node_to_doc(tree.root),
    }


def _tree_from_doc(doc: dict) -> DecisionTree:
    cfg = TreeConfig(**doc["config"])
    schema = _schema_from_doc(doc["schema"])
    return DecisionTree(schema, _node_from_doc(doc["root"], schema), cfg)


def _ensemble_to_doc(model: EnsembleModel) -> dict:
    return {
        "kind": "ensemble",
        "method": model.method,
        "combine": model.combine,
        "seed": model.seed,
        "member_weights": model.member_weights.tolist(),
        "oob_error": model.oob_error,
        "oob_coverage": model.oob_coverage,
        "epsilons": list(model.epsilons),
        "betas": list(model.betas),
        "warnings": list(model.warnings),
        "members": [_tree_to_doc(t) for t in model.members],
    }


def _ensemble_from_doc(doc: dict) -> EnsembleModel:
    method, members = doc["method"], [_tree_from_doc(m) for m in doc["members"]]
    weights = np.array(doc["member_weights"], dtype=np.float64)
    if weights.shape != (len(members),):
        raise ValueError(f"{len(members)} members but member_weights {doc['member_weights']!r}")
    if doc["combine"] not in ("vote", "average"):
        raise ValueError(f"unknown combine {doc['combine']!r}")
    return EnsembleModel(
        method, members, weights, doc["combine"], int(doc["seed"]),
        oob_error=doc.get("oob_error"),
        oob_coverage=doc.get("oob_coverage"),
        epsilons=tuple(doc.get("epsilons", ())),
        betas=tuple(doc.get("betas", ())),
        warnings=tuple(doc.get("warnings", ())),
    )


def _cluster_model_to_doc(model: ClusterModel) -> dict:
    return {
        "kind": "cluster_model",
        "k": model.k,
        "seed": model.seed,
        "n_iter": model.n_iter,
        "repairs": model.repairs,
        "objective": model.objective,
        "numeric": [bool(b) for b in model.scaler.numeric],
        "mins": model.scaler.mins.tolist(),
        "maxs": model.scaler.maxs.tolist(),
        "centroids": model.centroids.tolist(),
        "schema": _schema_to_doc(model.schema),
    }


def _cluster_model_from_doc(doc: dict) -> ClusterModel:
    schema = _schema_from_doc(doc["schema"])
    scaler = FeatureScaler(
        np.array(doc["numeric"], dtype=bool),
        np.array(doc["mins"], dtype=np.float64),
        np.array(doc["maxs"], dtype=np.float64),
    )
    return ClusterModel(
        schema,
        int(doc["k"]),
        np.array(doc["centroids"], dtype=np.float64),
        scaler,
        int(doc["seed"]),
        int(doc["n_iter"]),
        int(doc["repairs"]),
        float(doc["objective"]),
    )


_WRITERS = {DecisionTree: _tree_to_doc, EnsembleModel: _ensemble_to_doc, ClusterModel: _cluster_model_to_doc}
_READERS = {"tree": _tree_from_doc, "ensemble": _ensemble_from_doc, "cluster_model": _cluster_model_from_doc}
