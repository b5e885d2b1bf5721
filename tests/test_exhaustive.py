"""Bounded-exhaustive agreement: every small formula over one atom and one
agent, decided by the tableau under every profile and checked against the
oracle, against the validity verdict and along the profiles' strength; the
same for every smaller formula over two agents under kd, hstar and
hintikka; and the separations between adjacent profiles that the one-agent
formulas show, with hstar and hintikka compared up to 7 nodes, the size of
the introspection gap that separates them.

The small-scope hypothesis says that most defects have a small
counterexample (Jackson, "Software Abstractions", MIT Press, 2006), and
the tableau's known defects sat in formulas of four to ten nodes.
"""

from __future__ import annotations

import functools

import pytest

from doxa import (
    And,
    Atom,
    Bel,
    Comp,
    EnumerationBudget,
    Formula,
    LogicProfile,
    Not,
    Or,
    PROFILES_BY_STRENGTH,
    decide_sat,
    decide_valid,
    parse,
    render,
    sat_upto,
)
from doxa.formula import Agent

MAX_NODES = 6
#: hstar and hintikka first differ at 7 nodes; only these two profiles'
#: engines decide the 3,261 formulas of that size, which keeps the set
#: inside a second of tier-1 time.
GAP_NODES = 7
BUDGET = EnumerationBudget(max_worlds=3, atoms=("p",), agents=("a",))

#: The two-agent set: every formula up to 5 nodes, under every profile but
#: kd45, whose engine ends 36 of them with a world-bound error (the
#: two-agent kd45 defect that ROADMAP item 4 is to mend).
TWO_AGENTS = ("a", "b")
TWO_AGENT_NODES = 5
TWO_AGENT_BUDGET = EnumerationBudget(max_worlds=3, atoms=("p",), agents=TWO_AGENTS)
TWO_AGENT_PROFILES = tuple(p for p in PROFILES_BY_STRENGTH if p is not LogicProfile.KD45)


def small_formulas(
    max_nodes: int, atom: str = "p", agents: tuple[str, ...] = ("a",)
) -> list[Formula]:
    """Every formula over ``atom`` with ~, &, |, and B and C for each of
    ``agents``, of at most ``max_nodes`` nodes, each connective and atom one
    node, smallest first.  ``&`` and ``|`` are commutative, so of x & y and
    y & x only the one whose left operand comes first in this order is
    kept."""
    by_size: list[list[Formula]] = [[], [Atom(atom)]]
    for n in range(2, max_nodes + 1):
        level = [
            node(Agent(a), g) for g in by_size[n - 1] for a in agents for node in (Bel, Comp)
        ]
        level += [Not(g) for g in by_size[n - 1]]
        for left in range(1, n // 2 + 1):
            right = n - 1 - left
            if right < left:
                break
            for i, x in enumerate(by_size[left]):
                for y in by_size[right][i if right == left else 0:]:
                    level += [And(x, y), Or(x, y)]
        by_size.append(level)
    return [f for level in by_size for f in level]


@functools.cache
def _formulas() -> tuple[Formula, ...]:
    return tuple(small_formulas(MAX_NODES))


@functools.cache
def _gap_formulas() -> tuple[Formula, ...]:
    return tuple(small_formulas(GAP_NODES))


@functools.cache
def _two_agent_formulas() -> tuple[Formula, ...]:
    return tuple(small_formulas(TWO_AGENT_NODES, agents=TWO_AGENTS))


@functools.cache
def _verdict(f: Formula, profile: LogicProfile):
    return decide_sat(f, profile)


def _nodes(f: Formula) -> int:
    return 1 + sum(_nodes(getattr(f, name)) for name in ("sub", "left", "right") if hasattr(f, name))


def test_enumeration_counts():
    counts = [0] * (MAX_NODES + 1)
    for f in _formulas():
        counts[_nodes(f)] += 1
    assert counts[1:] == [1, 3, 11, 39, 151, 597]
    assert len(set(_formulas())) == len(_formulas())
    assert len(_gap_formulas()) == 3261
    counts = [0] * (TWO_AGENT_NODES + 1)
    for f in _two_agent_formulas():
        counts[_nodes(f)] += 1
    assert counts[1:] == [1, 5, 27, 145, 809]
    assert len(set(_two_agent_formulas())) == len(_two_agent_formulas()) == 987


@pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH, ids=lambda p: p.value)
def test_engine_agrees_with_the_oracle(profile: LogicProfile):
    for f in _formulas():
        problem = agreement_problem(f, profile, BUDGET)
        assert problem is None, f"{render(f)}: {problem}"


@pytest.mark.parametrize("profile", TWO_AGENT_PROFILES, ids=lambda p: p.value)
def test_two_agent_engine_agrees_with_the_oracle(profile: LogicProfile):
    for f in _two_agent_formulas():
        problem = agreement_problem(f, profile, TWO_AGENT_BUDGET)
        assert problem is None, f"{render(f)}: {problem}"


def agreement_problem(
    f: Formula, profile: LogicProfile, budget: EnumerationBudget
) -> str | None:
    """How the engine's verdict on ``f`` under ``profile`` disagrees with
    the oracle within ``budget`` or with the validity verdict, or None.  An
    oracle hit means the engine says SAT, an engine SAT with a model inside
    the budget means the oracle finds one, and the validity verdict of f is
    the negation of the satisfiability verdict of ~f."""
    verdict = _verdict(f, profile)
    if not verdict.is_sat and sat_upto(f, budget, profile) is not None:
        return "the oracle found a model of an engine UNSAT"
    if (
        verdict.is_sat
        and verdict.model.worlds <= budget.max_worlds
        and sat_upto(f, budget, profile) is None
    ):
        return "the oracle missed the engine's model"
    if decide_valid(f, profile).valid is decide_sat(Not(f), profile).is_sat:
        return "validity is not the negation of the satisfiability of ~f"
    return None


def monotone_problem(
    f: Formula, profiles: tuple[LogicProfile, ...] = PROFILES_BY_STRENGTH
) -> str | None:
    """How satisfiability of ``f`` falls along ``profiles``, strongest
    first, or None: a model in a smaller frame class is a model in every
    larger one."""
    words = [_verdict(f, p).is_sat for p in profiles]
    return None if words == sorted(words) else f"sat by profile {words}"


def test_satisfiability_is_monotone_in_strength():
    for f in _formulas():
        problem = monotone_problem(f)
        assert problem is None, f"{render(f)}: {problem}"


def test_two_agent_satisfiability_is_monotone_in_strength():
    for f in _two_agent_formulas():
        problem = monotone_problem(f, TWO_AGENT_PROFILES)
        assert problem is None, f"{render(f)}: {problem}"


def test_separations_between_adjacent_profiles():
    """For each adjacent pair of ``PROFILES_BY_STRENGTH``, the one-agent
    formulas that the weaker profile (the larger frame class) satisfies and
    the stronger one refutes: up to 6 nodes, and for hstar and hintikka up
    to 7.  The believed Moore sentence separates kd from hstar, and the
    introspection gap ``B[a] p & ~B[a] B[a] p``, the paper's contrast
    between hstar and Hintikka's belief, is found among the 7-node
    separations of hstar from hintikka; no smaller formula separates
    them."""
    separations = {}
    for stronger, weaker in zip(PROFILES_BY_STRENGTH, PROFILES_BY_STRENGTH[1:]):
        formulas = _gap_formulas() if weaker is LogicProfile.HSTAR else _formulas()
        separations[weaker.value, stronger.value] = [
            f for f in formulas if _verdict(f, weaker).is_sat and not _verdict(f, stronger).is_sat
        ]
    counts = {pair: len(found) for pair, found in separations.items()}
    assert counts == {("kd", "hstar"): 6, ("hstar", "hintikka"): 18, ("hintikka", "kd45"): 3}
    assert parse("B[a](p & ~B[a] p)") in separations["kd", "hstar"]
    assert parse("B[a] p & ~B[a] B[a] p") in separations["hstar", "hintikka"]
    assert {_nodes(f) for f in separations["hstar", "hintikka"]} == {GAP_NODES}
