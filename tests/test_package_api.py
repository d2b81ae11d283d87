"""The package holds no public function or class that only tests call,
and one module owns the model-file format.

Every public top-level function or class in `src/crus/*.py` must be named
somewhere in package code outside its own definition: called, referenced,
subclassed or used in an annotation.  Imports and `__all__` entries do not
count, since they only re-export.  A click command counts as used through
its decorator.  The few names kept for callers outside the package are
listed in ALLOWED with the reason.  Only `modelfile.py` imports json.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crus"

ALLOWED = {
    "auc_roc": "imported by the acceptance gate",
    "theoretical_ensemble_accuracy": "imported by the acceptance gate",
    "run_cv": "imported by the acceptance gate",
    "run_cv_clustered": "imported by the acceptance gate",
    "mixed_distance": "a building block the README documents",
    # each runs its own tree request sequence alone; the package runs many
    # sequences together instead (ensembles.fit_together)
    "fit_random_tree": "a building block the README documents",
    "fit_bagging": "a building block the README documents",
    "fit_random_forest": "imported by the acceptance gate",
    "fit_adaboost": "imported by the acceptance gate",
    "fit_random_committee": "a building block the README documents",
    "fit_classifier": "patched by the benchmark tracer (perfbench/tracer.py)",
    "run_fold": "a building block the README documents: run_folds for one fold",
    # the package fits the refit through run_sampler, in its sampler's lockstep
    "fit_pipelines": "a building block the README documents; tests use it as the one-split reference",
}


def _is_click_command(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def scan() -> tuple[dict[str, str], set[str]]:
    """Public top-level function and class names with their module, and
    every name the package uses outside the definition of that name."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        own = {}  # id of each node inside a public definition -> its name
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
                if _is_click_command(node):
                    used.add(node.name)
                own.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if own.get(id(node)) != name:
                used.add(name)
    return defined, used


def test_every_public_definition_is_used_by_the_package():
    defined, used = scan()
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used | set(ALLOWED))
    assert unused == []


def test_allowed_names_are_public_definitions():
    defined, _ = scan()
    assert sorted(set(ALLOWED) - set(defined)) == []


def test_only_modelfile_imports_json():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["modelfile.py"]
