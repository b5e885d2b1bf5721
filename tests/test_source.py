"""Source hygiene checks that need no linter."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import doxa

MODULES = sorted(
    p for p in Path(doxa.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # ``__init__.py`` is skipped: its imports are re-exports
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported <= used, sorted(imported - used)


def _references() -> set[str]:
    """Every name read, attribute read and ``__all__`` string in the package."""
    found: set[str] = set()
    for path in Path(doxa.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                found |= {
                    c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                }
    return found


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function, class and
    constant, and of each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id != "__all__":
                    yield t.id, t.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


@pytest.mark.parametrize(
    "path", sorted(Path(doxa.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_definition_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    references = _references()
    dead = [qualified for qualified, name in _definitions(tree) if name not in references]
    assert not dead, dead


#: The functions that recurse, directly or through others of their module,
#: once per nesting level of a formula.  Each bounds the input depth by the
#: recursion limit, so the set may only shrink: a new recursive helper fails
#: here, and turning one of these into a loop must remove it from the set.
RECURSIVE = {
    "formula._render_child",
    "formula.desugar",
    "formula.modal_depth",
    "formula.node_count",
    "formula.render",
    "models.evaluate",
    "oracle._vector_truth",
    "parser._Parser.parse_and",
    "parser._Parser.parse_iff",
    "parser._Parser.parse_implies",
    "parser._Parser.parse_or",
    "parser._Parser.parse_unary",
}


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Each top-level function and method of a module, by qualified name,
    with the functions of the same module it calls: ``f(...)`` names a
    top-level function and ``self.f(...)`` a method of its own class."""
    scopes = [(f.name, None, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            scopes += [
                (f"{cls.name}.{f.name}", cls.name, f)
                for f in cls.body
                if isinstance(f, ast.FunctionDef)
            ]
    names = {name for name, _, _ in scopes}
    graph = {}
    for name, cls, f in scopes:
        calls = set()
        for node in ast.walk(f):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                calls.add(node.func.id)
            elif (
                cls
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                calls.add(f"{cls}.{node.func.attr}")
        graph[name] = calls & names
    return graph


def test_recursion_is_confined_to_the_listed_functions():
    found = set()
    for path in MODULES:
        graph = _call_graph(ast.parse(path.read_text(encoding="utf-8")))
        for start in graph:
            # on a cycle when it can reach itself
            seen, stack = set(), list(graph[start])
            while stack:
                name = stack.pop()
                if name not in seen:
                    seen.add(name)
                    stack += graph[name]
            if start in seen:
                found.add(f"{path.stem}.{start}")
    assert found == RECURSIVE
