"""The package holds no public function or class that only tests call,
it exports exactly the names of its lazy map, each from the module that
defines it, `import crus` loads no numpy, and one module owns the
model-file format.

Every public top-level function or class in `src/crus/*.py` must be named
somewhere in package code outside its own definition: called, referenced,
subclassed or used in an annotation.  Imports and `__all__` entries do not
count, since they only re-export.  A click command counts as used through
its decorator.  The few names kept for callers outside the package are
listed in ALLOWED with the file, relative to the repository root, that
needs each.  Only `modelfile.py` imports json.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crus

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crus"

ALLOWED = {
    # imported by the acceptance gate
    "auc_roc": "tests/test_acceptance.py",
    "theoretical_ensemble_accuracy": "tests/test_acceptance.py",
    "run_cv": "tests/test_acceptance.py",
    "run_cv_clustered": "tests/test_acceptance.py",
    "fit_random_forest": "tests/test_acceptance.py",
    "fit_adaboost": "tests/test_acceptance.py",
    "fit_tree": "tests/test_acceptance.py",
    # patched by the benchmark tracer; the package runs each fit's request
    # sequence through ensembles.fit_together instead
    "fit_bagging": "perfbench/tracer.py",
    "fit_random_committee": "perfbench/tracer.py",
    "fit_classifier": "perfbench/tracer.py",
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


def test_each_allowed_name_is_named_by_the_file_that_needs_it():
    unnamed = sorted(
        f"{name}: {path}" for name, path in ALLOWED.items()
        if not re.search(rf"\b{name}\b", (ROOT / path).read_text(encoding="utf-8"))
    )
    assert unnamed == []


def top_level_names(module: ast.Module) -> set[str]:
    """Names a module defines at top level: functions, classes and assigned names."""
    names = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_all_lists_exactly_the_public_names_the_package_imports():
    """`__all__` is the lazy map's names, each public and listed once, and
    each resolves to the object that its mapped module defines, not to a
    re-export."""
    assert len(crus.__all__) == len(set(crus.__all__))
    assert sorted(crus.__all__) == sorted(crus._MODULE_OF)
    assert [name for name in crus.__all__ if name.startswith("_")] == []
    misplaced = []
    for name, module in crus._MODULE_OF.items():
        source = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        owner = importlib.import_module(f"crus.{module}")
        if name not in top_level_names(source) or getattr(crus, name) is not getattr(owner, name):
            misplaced.append(f"{module}:{name}")
    assert misplaced == []
    assert set(crus.__all__) <= set(dir(crus))
    with pytest.raises(AttributeError):
        crus.no_such_name


def test_import_crus_loads_no_numpy():
    probe = "import sys, crus; print('numpy' in sys.modules, end=' '); crus.fit_tree; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False True\n"


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
