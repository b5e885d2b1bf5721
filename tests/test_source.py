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
#: once per nesting level of a formula.  Each would bound the input depth
#: by the recursion limit, so the set is empty and may only stay so: every
#: fold over a formula is a loop over ``formula.postorder``.
RECURSIVE: set[str] = set()


def _own_nodes(func: ast.AST):
    """The nodes of a function, without descending into the functions,
    lambdas and classes defined in it, whose nodes are their own."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack += ast.iter_child_nodes(node)


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Each function of a module by qualified name, with the functions of
    the same module it calls.  A method is ``Class.method`` and a function
    defined in another is ``outer.inner``.  ``f(...)`` names the innermost
    function ``f`` defined around the call, else a top-level one, and
    ``self.f(...)`` names a method of its own class."""
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    top = {f.name: f.name for f in functions}
    # (qualified name, class of a method, definition, the names it can call)
    work = [(f.name, None, f, top) for f in functions]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            work += [
                (f"{cls.name}.{f.name}", cls.name, f, top)
                for f in cls.body
                if isinstance(f, ast.FunctionDef)
            ]
    graph = {}
    while work:
        name, cls, func, visible = work.pop()
        nodes = list(_own_nodes(func))
        nested = [n for n in nodes if isinstance(n, ast.FunctionDef)]
        visible = {**visible, **{n.name: f"{name}.{n.name}" for n in nested}}
        work += [(f"{name}.{n.name}", cls, n, visible) for n in nested]
        calls = set()
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id in visible:
                calls.add(visible[node.func.id])
            elif (
                cls
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                calls.add(f"{cls}.{node.func.attr}")
        graph[name] = calls
    return {name: calls & graph.keys() for name, calls in graph.items()}


def _on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The functions of a call graph that can reach themselves."""
    found = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack += graph[name]
        if start in seen:
            found.add(start)
    return found


def test_call_graph_sees_nested_and_mutual_recursion():
    source = """
def fold(f):
    def walk(g):
        return [walk(c) for c in g]
    return walk(f)

def loop(f):
    def walk(g):
        return g
    return [walk(c) for c in f]

def even(n):
    return n == 0 or odd(n - 1)

def odd(n):
    return n != 0 and even(n - 1)

class Parser:
    def parse(self):
        return self.unary()

    def unary(self):
        return self.parse()
"""
    found = _on_cycles(_call_graph(ast.parse(source)))
    assert found == {"fold.walk", "even", "odd", "Parser.parse", "Parser.unary"}


def test_recursion_is_confined_to_the_listed_functions():
    found = set()
    for path in MODULES:
        graph = _call_graph(ast.parse(path.read_text(encoding="utf-8")))
        found |= {f"{path.stem}.{name}" for name in _on_cycles(graph)}
    assert found == RECURSIVE == set()


def _is_self_worlds(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "worlds"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _loops_over_worlds(func: ast.FunctionDef) -> list[int]:
    """Line numbers of the ``for`` loops and comprehensions in ``func`` that
    iterate over ``self.worlds``, directly or through a local name bound to
    it."""
    aliases = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                aliases |= {
                    t.id for t, v in pairs if isinstance(t, ast.Name) and _is_self_worlds(v)
                }
    return [
        node.iter.lineno
        for node in ast.walk(func)
        if isinstance(node, (ast.For, ast.comprehension))
        and (
            _is_self_worlds(node.iter)
            or isinstance(node.iter, ast.Name) and node.iter.id in aliases
        )
    ]


def test_loop_check_sees_a_sweep():
    source = """
class _Engine:
    def _step(self):
        found = [w for w in self.worlds if w]
        for w in self.worlds:
            pass
        worlds, rules = self.worlds, self.rules
        for w in worlds:
            pass
        for r in rules:
            pass
"""
    step = ast.parse(source).body[0].body[0]
    assert sorted(_loops_over_worlds(step)) == [4, 5, 8]


def test_step_sweeps_no_world_list():
    # steps 4 and 5 visit the worlds on their agendas; a loop over every
    # world would make each rule firing cost time in the world count
    tree = ast.parse((Path(doxa.__file__).parent / "tableau.py").read_text(encoding="utf-8"))
    engine = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Engine")
    step = next(n for n in engine.body if isinstance(n, ast.FunctionDef) and n.name == "_step")
    assert _loops_over_worlds(step) == []
