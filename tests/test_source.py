"""Source hygiene checks that need no linter."""

from __future__ import annotations

import argparse
import ast
import inspect
import re
from pathlib import Path

import pytest
from conftest import public_name_words

import doxa
from doxa import models
from doxa.cli import _build_parser
from doxa.formula import Formula

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
    """Every name read and attribute read in the package, and every public
    name the package exports through ``_MODULE_OF``."""
    found = set(public_name_words())
    for path in Path(doxa.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level class, and of each top-level
    constant, function and method that is not a dunder: the interpreter
    reads a dunder, as it calls a module's ``__getattr__`` (PEP 562) and
    reads its ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) or (
            isinstance(node, ast.FunctionDef) and not _is_dunder(node.name)
        ):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not _is_dunder(t.id):
                    yield t.id, t.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
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


def _engine_method(name: str) -> ast.FunctionDef:
    tree = ast.parse((Path(doxa.__file__).parent / "tableau.py").read_text(encoding="utf-8"))
    engine = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Engine")
    return next(n for n in engine.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_step_sweeps_no_world_list():
    # steps 4 and 5 visit the worlds on their agendas; a loop over every
    # world would make each rule firing cost time in the world count
    assert _loops_over_worlds(_engine_method("_step")) == []


#: The names whose call builds or interns a formula node: each node class
#: and ``neg``.
NODE_BUILDERS = {cls.__name__ for cls in Formula.__subclasses__()} | {"neg"}


def _node_builds(func: ast.FunctionDef) -> list[str]:
    """The name of each call in ``func`` that builds or interns a formula
    node, in source order."""
    calls = [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in NODE_BUILDERS
    ]
    return [call.func.id for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset))]


def test_node_build_check_sees_a_build():
    source = """
class _Engine:
    def _step(self):
        g = neg(self.f)
        if Not(g) in self.label:
            return And(g, self.complement[g])
        return self._neg(g)
"""
    step = ast.parse(source).body[0].body[0]
    assert _node_builds(step) == ["neg", "Not", "And"]


def test_step_and_add_build_no_node():
    # steps 1-3, the clash test and the branch alternatives read the
    # query's closure table, which also holds the (C.BDef-rewrite) demand's
    # ``Comp`` node for the trace; a node interned per firing is mostly
    # built only to die at once
    for name in ("_step", "_add"):
        assert _node_builds(_engine_method(name)) == [], name


#: The kind of every propositional condition and every modal rule that
#: ``models`` defines.
KINDS = {rule.kind for rule in models.PROPOSITIONAL_RULES.values()} | {
    value.kind for value in vars(models).values() if isinstance(value, models.ModalRule)
}


def _kind_literals(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, text) of each string constant of a module that spells a rule
    kind in ``KINDS``, leaving out docstrings."""
    skipped = set()
    for node in ast.walk(tree):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        if documented and ast.get_docstring(node):
            skipped.add(node.body[0].value)
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in KINDS and node not in skipped
    )


def test_kind_check_sees_a_literal():
    source = '''
"""(C.C) spawns a world."""
RULES: tuple[str, ...] = ("C.C", "C.B")

def _step(self):
    """By (C.B)."""
    self._add(new_id, g, "C.C", (premise,), deps)
    return f"{C_B.kind}-left", "C.v-left"
'''
    assert _kind_literals(ast.parse(source)) == [(3, "C.B"), (3, "C.C"), (7, "C.C")]


def test_tableau_spells_no_rule_kind():
    # the tableau names each condition through the table of ``models`` that
    # defines it, so that a condition has one definition
    assert {"C.&", "C.~v", "C.C", "C.B", "C.CB"} <= KINDS
    tree = ast.parse((Path(doxa.__file__).parent / "tableau.py").read_text(encoding="utf-8"))
    assert _kind_literals(tree) == []


def _unread_options(parser: argparse.ArgumentParser) -> list[str]:
    """Each option or positional of a subcommand that the function the
    subcommand dispatches to never reads as ``args.<dest>``."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, command in commands.choices.items():
        tree = ast.parse(inspect.getsource(command.get_default("func")))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        unread += [
            f"{name} {action.dest}"
            for action in command._actions
            if action.dest != "help" and action.dest not in read
        ]
    return unread


def test_unread_option_check_sees_an_unread_option():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands.choices["compare"].add_argument("--unused")
    assert _unread_options(parser) == ["compare unused"]


def test_every_subcommand_option_is_read():
    # an option its command ignores looks like a choice to the user
    assert _unread_options(_build_parser()) == []


#: numpy functions whose result is a bool array.
BOOL_FUNCTIONS = {
    "equal", "not_equal", "less", "less_equal", "greater", "greater_equal",
    "logical_and", "logical_or", "logical_not", "logical_xor", "isin", "isnan",
}
_ORDERING = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _bool_arrays(func: ast.FunctionDef, scalars: set[str]) -> list[int]:
    """Line numbers in ``func`` of each spelling of the bool dtype, each call
    of a function in ``BOOL_FUNCTIONS``, and each comparison, which makes a
    bool array of array operands, unless it compares only the int names in
    ``scalars`` and constants."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == "bool":
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in {"bool", "bool_"} | BOOL_FUNCTIONS:
            found.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value in ("bool", "?"):
            found.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(isinstance(op, _ORDERING) for op in node.ops):
            operands = [node.left, *node.comparators]
            if not all(
                isinstance(o, ast.Constant) or isinstance(o, ast.Name) and o.id in scalars
                for o in operands
            ):
                found.append(node.lineno)
    return sorted(found)


def test_bool_array_check_sees_a_bool_array():
    source = """
def scan(hits, k, t):
    if k == 1 and t is Atom:
        a = hits != 0
        b = hits.astype(bool)
        c = np.zeros(3, dtype=np.bool_)
        d = np.logical_not(hits)
        e = hits.view("?")
        return len(hits) > k
"""
    scan = ast.parse(source).body[0]
    assert _bool_arrays(scan, {"k"}) == [4, 5, 6, 7, 8, 9]


def test_oracle_scan_builds_no_bool_array():
    # the truth arrays hold one bit per valuation in unsigned words; a bool
    # array spends a byte on each
    tree = ast.parse((Path(doxa.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("sat_upto", "_vector_truth"):
        assert _bool_arrays(functions[name], {"k"}) == [], name


def _error_exits(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each read of ``sys.stderr`` and each ``return 2``
    in a function of a module other than ``main``, nested ones included."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in _own_nodes(func):
            stderr = (
                isinstance(node, ast.Attribute)
                and node.attr == "stderr"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            )
            two = (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and node.value.value == 2
            )
            if stderr or two:
                found.append((func.name, node.lineno))
    return sorted(found, key=lambda pair: pair[1])


def test_error_exit_check_sees_a_report():
    source = """
def cmd_x(args):
    if args.bad:
        print("error: bad", file=sys.stderr)
        return 2
    def warn():
        sys.stderr.write("late")
    return 1

def main(argv):
    try:
        return run(argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
    return 2
"""
    assert _error_exits(ast.parse(source)) == [("cmd_x", 4), ("cmd_x", 5), ("warn", 7)]


def test_only_main_reports_an_error():
    # a subcommand raises what it refuses, and ``main`` alone turns it into
    # exit 2 and its one report, so that no input gets a second format
    tree = ast.parse((Path(doxa.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    assert _error_exits(tree) == []


def _global_statements(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each ``global`` statement in a function of a
    module, nested ones included."""
    found = [
        (func.name, node.lineno)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _own_nodes(func)
        if isinstance(node, ast.Global)
    ]
    return sorted(found, key=lambda pair: pair[1])


def test_global_check_sees_a_global():
    source = """
_LAST = None

def compile_once(query):
    global _LAST
    if _LAST is None:
        def reset():
            global _LAST
            _LAST = None
        _LAST = query
    return _LAST
"""
    assert _global_statements(ast.parse(source)) == [("compile_once", 5), ("reset", 8)]


@pytest.mark.parametrize(
    "path", sorted(Path(doxa.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_function_assigns_a_global(path):
    # a derived table is cached with ``functools``, not kept by hand in a
    # module variable that a function rebinds
    assert _global_statements(ast.parse(path.read_text(encoding="utf-8"))) == []


def _python_floor() -> tuple[int, int]:
    """The oldest Python that ``pyproject.toml`` declares, read with a
    regex: ``tomllib`` needs 3.11."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_floor_check_sees_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=_python_floor())


@pytest.mark.parametrize(
    "path", sorted(Path(doxa.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_module_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=_python_floor())
