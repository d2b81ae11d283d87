"""Model files: the JSON text of a tree, an ensemble or a cluster model.

`model_to_text` writes the one format and `model_from_text` reads it back:
a JSON object with sorted keys and one-space indents whose `kind` is
"tree", "ensemble" or "cluster_model".  Each file holds its schema once,
as the document `dataset.schema_to_doc` builds, and reads it back through
`dataset.schema_from_doc`, so it gets every check a schema sidecar gets.
A tree holds its `config`, whose fields the reader checks by type
(a finite `min_leaf_weight` and `confidence_factor`, a boolean
`use_pruning`, an integer `seed` and a null or integer
`random_subspace_size`), and its `nodes`, the pre-order list of
`TreeNode`s that is `DecisionTree.nodes` in memory, so its file nests no
deeper for a deeper tree; an ensemble lists each member as just its
`config` and `nodes`, under the ensemble's one schema.
A node has its `weights` and, if it splits, its `attribute` with either a
`threshold` (two children) or ascending `categories` and a `fallback` (a
child per category); its children's subtrees follow it.  The reader
checks each node against the schema, naming its index when it refuses
one, and refuses a list that ends before a split has all its children or
goes on after the tree ends.  It also refuses a hand-made file that nests
too deeply for the JSON decoder, and an ensemble whose method is not one
of the four, whose member weights are not finite, nonnegative and one per
member, whose combiner is unknown, whose seed is not an integer, whose
`epsilons`, `betas`, `oob_error` or `oob_coverage` are not numbers in
[0, 1] (the last two may be null), or whose `warnings` are not strings.
A cluster model holds its centroids, the scaler's `mins` and `maxs`, and
its fit statistics; which attributes are numeric comes from the schema and
the cluster count from the centroids, and the reader refuses values that
are not finite numbers, or integers where integers belong, of the
schema's shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .clustering import ClusterModel, FeatureScaler
from .dataset import NOMINAL, NUMERIC, DatasetSchema, schema_from_doc, schema_to_doc
from .ensembles import EnsembleModel
from .trees import DecisionTree, TreeConfig, TreeNode


def model_to_text(model: DecisionTree | EnsembleModel | ClusterModel) -> str:
    """The model file text of a tree, ensemble or cluster model."""
    return json.dumps(_WRITERS[type(model)](model), indent=1, sort_keys=True)


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


def _node_to_doc(node: TreeNode) -> dict:
    doc = {"weights": [float(w) for w in node.class_weights]}
    if node.threshold is not None:
        doc.update(attribute=node.attribute, threshold=node.threshold)
    elif not node.is_leaf:
        doc.update(attribute=node.attribute, categories=list(node.categories), fallback=node.fallback)
    return doc


def _is_finite(v: object) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _node_from_doc(doc: object, schema: DatasetSchema) -> TreeNode:
    """One node of the list, without its children."""
    if not isinstance(doc, dict):
        raise ValueError(f"a node must be an object, got {doc!r}")
    weights = doc["weights"]
    if not (isinstance(weights, list) and len(weights) == 2 and all(_is_finite(w) and w >= 0 for w in weights)):
        raise ValueError(f"node weights must be two numbers, finite and nonnegative, got {weights!r}")
    node = TreeNode(class_weights=np.array(weights, dtype=np.float64))
    if "attribute" not in doc:
        return node
    node.attribute = doc["attribute"]
    if type(node.attribute) is not int:
        raise ValueError(f"split attribute must be an integer, got {node.attribute!r}")
    if not 0 <= node.attribute < schema.n_attributes:
        raise ValueError(f"split on attribute {node.attribute}, outside the schema's {schema.n_attributes} attributes")
    attr = schema.attributes[node.attribute]
    if "threshold" in doc:
        if attr.kind != NUMERIC:
            raise ValueError(f"threshold split on nominal attribute '{attr.name}'")
        if not _is_finite(doc["threshold"]):
            raise ValueError(f"threshold must be a finite number, got {doc['threshold']!r}")
        node.threshold = float(doc["threshold"])
        return node
    if attr.kind != NOMINAL:
        raise ValueError(f"category split on numeric attribute '{attr.name}'")
    codes, node.fallback = doc["categories"], doc["fallback"]
    int_codes = isinstance(codes, list) and all(type(c) is int for c in codes)
    if not int_codes or any(a >= b for a, b in zip(codes, codes[1:])):
        raise ValueError(f"categories must be a list of ascending integer codes, got {codes!r}")
    node.categories = tuple(codes)
    if any(not 0 <= c < len(attr.categories) for c in codes):
        raise ValueError(f"category codes {codes} outside attribute '{attr.name}'")
    if type(node.fallback) is not int or node.fallback not in codes:
        raise ValueError(f"fallback {node.fallback!r} is not a child category of '{attr.name}'")
    return node


def _nodes_from_doc(docs: list, schema: DatasetSchema) -> list[TreeNode]:
    """The nodes of a pre-order node list, checked to form one tree."""
    if not isinstance(docs, list) or not docs:
        raise ValueError("tree nodes must be a nonempty list")
    nodes: list[TreeNode] = []
    slots = [-1]  # the index of the split each node still to come hangs from (-1: none), the next one's last
    for i, doc in enumerate(docs):
        if not slots:
            raise ValueError(f"node {i}: {len(docs) - i} nodes left after the tree ends")
        slots.pop()
        try:
            node = _node_from_doc(doc, schema)
        except KeyError as exc:
            raise ValueError(f"node {i}: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"node {i}: {exc}") from None
        nodes.append(node)
        slots += [i] * node.n_children
    if slots:
        i = slots[-1]
        raise ValueError(f"the node list ends before node {i} has its {nodes[i].n_children} children")
    return nodes


def _member_to_doc(tree: DecisionTree) -> dict:
    """A tree without its schema: the document of an ensemble member."""
    return {"config": asdict(tree.config), "nodes": [_node_to_doc(node) for node in tree.nodes]}


def _tree_to_doc(tree: DecisionTree) -> dict:
    return {"kind": "tree", "schema": schema_to_doc(tree.schema), **_member_to_doc(tree)}


# what each TreeConfig field must hold, and a test of it
_CONFIG_FIELDS = {
    "min_leaf_weight": ("a finite number", _is_finite),
    "confidence_factor": ("a finite number", _is_finite),
    "use_pruning": ("true or false", lambda v: type(v) is bool),
    "random_subspace_size": ("null or an integer", lambda v: v is None or type(v) is int),
    "seed": ("an integer", lambda v: type(v) is int),
}


def _config_from_doc(doc: object) -> TreeConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"config must be an object, got {doc!r}")
    for key, (what, holds) in _CONFIG_FIELDS.items():
        if key in doc and not holds(doc[key]):
            raise ValueError(f"config {key} must be {what}, got {doc[key]!r}")
    return TreeConfig(**doc)


def _tree_from_doc(doc: dict) -> DecisionTree:
    cfg = _config_from_doc(doc["config"])
    schema = schema_from_doc(doc["schema"], "schema")
    return DecisionTree(schema, _nodes_from_doc(doc["nodes"], schema), cfg)


def _ensemble_to_doc(model: EnsembleModel) -> dict:
    return {
        "kind": "ensemble",
        "schema": schema_to_doc(model.members[0].schema),
        "method": model.method,
        "combine": model.combine,
        "seed": model.seed,
        "member_weights": model.member_weights.tolist(),
        "oob_error": model.oob_error,
        "oob_coverage": model.oob_coverage,
        "epsilons": list(model.epsilons),
        "betas": list(model.betas),
        "warnings": list(model.warnings),
        "members": [_member_to_doc(t) for t in model.members],
    }


_ENSEMBLE_METHODS = ("bagging", "random_forest", "adaboost", "random_committee")


def _is_share(v: object) -> bool:
    return _is_finite(v) and 0 <= v <= 1


def _ensemble_from_doc(doc: dict) -> EnsembleModel:
    method, schema = doc["method"], schema_from_doc(doc["schema"], "schema")
    if method not in _ENSEMBLE_METHODS:
        raise ValueError(f"method must be one of {', '.join(_ENSEMBLE_METHODS)}, got {method!r}")
    members = [DecisionTree(schema, _nodes_from_doc(m["nodes"], schema), _config_from_doc(m["config"]))
               for m in doc["members"]]
    if not members:
        raise ValueError("an ensemble needs at least one member")
    weights = doc["member_weights"]
    if not (isinstance(weights, list) and all(_is_finite(w) and w >= 0 for w in weights)):
        raise ValueError(f"member_weights must be a list of finite, nonnegative numbers, got {weights!r}")
    if len(weights) != len(members):
        raise ValueError(f"{len(members)} members but member_weights {weights!r}")
    if doc["combine"] not in ("vote", "average"):
        raise ValueError(f"unknown combine {doc['combine']!r}")
    if type(doc["seed"]) is not int:
        raise ValueError(f"seed must be an integer, got {doc['seed']!r}")
    rounds = {key: doc.get(key, []) for key in ("epsilons", "betas")}
    for key, values in rounds.items():
        if not (isinstance(values, list) and all(_is_share(v) for v in values)):
            raise ValueError(f"{key} must be a list of finite numbers in [0, 1], got {values!r}")
    oob = {key: doc.get(key) for key in ("oob_error", "oob_coverage")}
    for key, value in oob.items():
        if not (value is None or _is_share(value)):
            raise ValueError(f"{key} must be null or a finite number in [0, 1], got {value!r}")
    warnings = doc.get("warnings", [])
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise ValueError(f"warnings must be a list of strings, got {warnings!r}")
    return EnsembleModel(
        method, members, np.array(weights, dtype=np.float64), doc["combine"], doc["seed"],
        **{key: None if value is None else float(value) for key, value in oob.items()},
        **{key: tuple(float(v) for v in values) for key, values in rounds.items()},
        warnings=tuple(warnings),
    )


def _cluster_model_to_doc(model: ClusterModel) -> dict:
    return {
        "kind": "cluster_model",
        "seed": model.seed,
        "n_iter": model.n_iter,
        "repairs": model.repairs,
        "objective": model.objective,
        "mins": model.scaler.mins.tolist(),
        "maxs": model.scaler.maxs.tolist(),
        "centroids": model.centroids.tolist(),
        "schema": schema_to_doc(model.schema),
    }


def _cluster_model_from_doc(doc: dict) -> ClusterModel:
    schema = schema_from_doc(doc["schema"], "schema")
    d = schema.n_attributes
    for key, rows in (("centroids", doc["centroids"]), ("mins", [doc["mins"]]), ("maxs", [doc["maxs"]])):
        if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == d and all(_is_finite(v) for v in row) for row in rows
        )):
            shape = "a nonempty list of rows, each of" if key == "centroids" else "a list of"
            raise ValueError(f"{key} must be {shape} {d} finite numbers, one per attribute, got {doc[key]!r}")
    scaler = FeatureScaler(schema.numeric_mask(), np.array(doc["mins"], dtype=np.float64),
                           np.array(doc["maxs"], dtype=np.float64))
    for key in ("seed", "n_iter", "repairs"):
        if type(doc[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
    if not _is_finite(doc["objective"]):
        raise ValueError(f"objective must be a finite number, got {doc['objective']!r}")
    return ClusterModel(
        schema, np.array(doc["centroids"], dtype=np.float64), scaler,
        doc["seed"], doc["n_iter"], doc["repairs"], float(doc["objective"]),
    )


_WRITERS = {DecisionTree: _tree_to_doc, EnsembleModel: _ensemble_to_doc, ClusterModel: _cluster_model_to_doc}
_READERS = {"tree": _tree_from_doc, "ensemble": _ensemble_from_doc, "cluster_model": _cluster_model_from_doc}
