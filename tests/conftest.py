"""Shared test fixtures.

Provides a seeded random-formula generator, a session-wide random suite
with cached decision verdicts per profile, and a registry that the
acceptance tests report into so the run ends with one summary line per
acceptance criterion, and reads the public names of the package's lazy
import table from its source.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import doxa
from doxa import LogicProfile, PROFILES_BY_STRENGTH, decide_sat
from doxa.formula import (
    Agent,
    And,
    Atom,
    Bel,
    Comp,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
)

# ----------------------------------------------------------------------
# public names


def public_name_words() -> list[str]:
    """The words of the name strings in ``_MODULE_OF``, read from the
    source of ``doxa/__init__.py``: each public name once per listing, and
    none of the module keys."""
    tree = ast.parse(Path(doxa.__file__).read_text(encoding="utf-8"))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_MODULE_OF" for t in node.targets)
    ]
    return [
        word
        for listing in ast.walk(table)
        if isinstance(listing, ast.Dict)
        for names in listing.values
        for word in names.value.split()
    ]


# ----------------------------------------------------------------------
# acceptance-criteria registry

CRITERIA: dict[int, str] = {
    1: "corpus rows reproduce their pinned verdicts exactly",
    2: "believed Moore-sentence refutations use the expected rules over >= 3 worlds",
    3: "all satisfiable verdicts carry self-verifying models (corpus + 500 random)",
    4: "engine verdicts agree with the brute-force oracle at the 4-world budget",
    5: "satisfiability is monotone along profile strength, zero violations",
    6: "parse(render(f)) round-trips 1000 generated formulas",
    7: "oracle enumeration counts match the hand-computed references",
    8: "two corpus replays emit byte-identical JSON",
}

_RESULTS: dict[int, bool] = {}


@pytest.fixture
def record_criterion():
    """Callable for acceptance tests to report their criterion outcome."""

    def record(number: int, passed: bool) -> None:
        _RESULTS[number] = passed

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(CRITERIA):
        if number in _RESULTS:
            word = "PASS" if _RESULTS[number] else "FAIL"
        else:
            word = "NOT RUN"
        terminalreporter.write_line(f"  {number}. {word}  {CRITERIA[number]}")


# ----------------------------------------------------------------------
# seeded random formulas

_KINDS = ("atom", "not", "and", "or", "implies", "iff", "bel", "comp")
_WEIGHTS = (2, 3, 3, 3, 2, 1, 4, 3)


def random_formula(
    rng: random.Random,
    depth: int,
    atom_names: tuple[str, ...] = ("p",),
    agent_names: tuple[str, ...] = ("a",),
) -> Formula:
    """One random formula with syntax-tree depth at most ``depth``.

    Modal operators are weighted up so the suite exercises the tableau's
    world machinery rather than plain propositional logic.
    """
    if depth <= 0:
        return Atom(rng.choice(atom_names))
    kind = rng.choices(_KINDS, weights=_WEIGHTS, k=1)[0]
    if kind == "atom":
        return Atom(rng.choice(atom_names))
    if kind == "not":
        return Not(random_formula(rng, depth - 1, atom_names, agent_names))
    if kind == "bel":
        return Bel(
            Agent(rng.choice(agent_names)),
            random_formula(rng, depth - 1, atom_names, agent_names),
        )
    if kind == "comp":
        return Comp(
            Agent(rng.choice(agent_names)),
            random_formula(rng, depth - 1, atom_names, agent_names),
        )
    left = random_formula(rng, depth - 1, atom_names, agent_names)
    right = random_formula(rng, depth - 1, atom_names, agent_names)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    if kind == "implies":
        return Implies(left, right)
    return Iff(left, right)


#: Formulas over atoms p, q, r and agents a, b, with every connective.
formulas_st = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r")]),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Iff, children, children),
        st.builds(Bel, st.sampled_from([Agent("a"), Agent("b")]), children),
        st.builds(Comp, st.sampled_from([Agent("a"), Agent("b")]), children),
    ),
    max_leaves=12,
)


@pytest.fixture(scope="session")
def random_suite() -> tuple[Formula, ...]:
    """500 seeded formulas over one atom and one agent, depth at most 4."""
    rng = random.Random(20240917)
    return tuple(random_formula(rng, depth=4) for _ in range(500))


@pytest.fixture(scope="session")
def suite_verdicts(random_suite):
    """Satisfiability verdicts for the random suite, per profile.

    Computed once per session; the self-verification, oracle-agreement and
    monotonicity criteria all read from this cache.
    """
    verdicts: dict[LogicProfile, list] = {}
    for profile in PROFILES_BY_STRENGTH:
        verdicts[profile] = [decide_sat(f, profile) for f in random_suite]
    return verdicts
