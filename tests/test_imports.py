"""Static import hygiene of the package source, checked with the stdlib ``ast``.

Two rules: every module-level import is used, and no function imports
anything.  ``__init__.py`` is exempt from the first rule, since its imports
are the package's re-exported API.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topdown"
MODULES = sorted(PACKAGE.glob("*.py"))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):  # ``import a.b`` binds ``a``
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return [alias.asname or alias.name for alias in node.names]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_source_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "model.py", "pipeline.py"}


def test_no_unused_module_level_imports():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in _bound_names(node)
                    if name not in used
                ]
    assert not unused, f"unused imports: {unused}"


def test_no_function_local_imports():
    local = [
        f"{path.name}:{inner.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not local, f"function-local imports: {local}"
