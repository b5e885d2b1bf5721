"""Seeded generator of belief-formula text.

The benchmark hands the program only the text made here; the program sees
it through ``doxa.parse``.  Binary connectives are always parenthesised, so
the text means the same thing whatever the parser's precedence rules are.
The generator imports nothing from the program or its tests.
"""

from __future__ import annotations

import random

# The generator seed of every pool that does not change with ``--seed``: a
# fixed pool keeps the set of queries that overrun their time limit, and so
# the failure count, the same in every run.
POOL_SEED = 20200621

_KINDS = ("atom", "not", "and", "or", "implies", "iff", "bel", "comp")
# Modal operators are weighted up so that queries exercise the tableau's
# world machinery rather than plain propositional logic.
_WEIGHTS = (2, 3, 3, 3, 2, 1, 4, 3)
_BINARY = {"and": "&", "or": "|", "implies": "->", "iff": "<->"}


def formula_text(
    rng: random.Random, depth: int, atoms: tuple[str, ...], agents: tuple[str, ...]
) -> str:
    """One random formula with syntax-tree depth at most ``depth``."""
    if depth <= 0:
        return rng.choice(atoms)
    kind = rng.choices(_KINDS, weights=_WEIGHTS, k=1)[0]
    if kind == "atom":
        return rng.choice(atoms)
    if kind == "not":
        return "~" + formula_text(rng, depth - 1, atoms, agents)
    if kind in ("bel", "comp"):
        op = "B" if kind == "bel" else "C"
        return f"{op}[{rng.choice(agents)}] " + formula_text(rng, depth - 1, atoms, agents)
    left = formula_text(rng, depth - 1, atoms, agents)
    right = formula_text(rng, depth - 1, atoms, agents)
    return f"({left} {_BINARY[kind]} {right})"


def tier1_text(rng: random.Random) -> str:
    """The tier-1 suite's distribution: one atom, one agent, depth 4."""
    return formula_text(rng, 4, ("p",), ("a",))


def multiagent_text(rng: random.Random) -> str:
    """Two or three atoms, two agents, depth 4 or 5."""
    atoms = ("p", "q", "r")[: rng.choice((2, 3))]
    return formula_text(rng, rng.choice((4, 5)), atoms, ("a", "b"))


def two_agent_oracle_text(rng: random.Random) -> str:
    """One atom, two agents, depth 3: small enough for a 3-world sweep."""
    return formula_text(rng, 3, ("p",), ("a", "b"))
