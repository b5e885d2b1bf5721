"""Abstract syntax for a propositional language with belief modalities.

The language has two modal operators per agent: ``B[a] p`` says that agent
``a`` believes ``p``, and ``C[a] p`` says that ``p`` is compatible with
everything ``a`` believes.  The two are interdefinable duals:

    B[a] p  is  ~C[a] ~p        C[a] p  is  ~B[a] ~p

Connective nodes mirror the concrete syntax one to one.  ``desugar`` maps a
formula into the kernel fragment {Atom, Not, And, Or, Bel} that the decision
procedure and the model-set checker operate on; ``Comp`` is kept as a first
class node so that user input and proof traces can display compatibility
statements directly.

All nodes are immutable and compare structurally, so formulas can be used as
set members and dictionary keys.  Each node computes its structural hash once,
when it is constructed, from its children's stored hashes; ``hash`` then
returns the stored value without recursing.  The value is the one a frozen
dataclass would compute, ``hash`` of the tuple of the node's fields, so set
and dictionary orders are those of plain frozen dataclasses.  ``==`` walks
both trees with an explicit stack, so neither depends on the recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

_AGENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_ATOM_RE = _AGENT_RE


@dataclass(frozen=True, slots=True)
class Agent:
    """An agent index, named by a lowercase identifier."""

    name: str

    def __post_init__(self) -> None:
        if not _AGENT_RE.match(self.name):
            raise ValueError(f"invalid agent name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


class Formula:
    """Base class for formula nodes.  Rendering goes through ``render``.

    Every node class sets ``_hash`` in ``__post_init__`` and is declared
    with ``eq=False``, so that it inherits ``__eq__`` and ``__hash__`` from
    here instead of the recursive ones the dataclass decorator generates.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        # atoms and negations are by far the most compared: the common cases
        # are answered first, and take the short paths in the walk
        if type(self) is Atom:
            return self.name == other.name
        if type(self) is Not and self.sub is other.sub:
            return True
        # pairs of nodes of one type still to compare
        pending = [(self, other)]
        while pending:
            f, g = pending.pop()
            if f._hash != g._hash:
                return False
            if type(f) is Atom:
                if f.name != g.name:
                    return False
            elif type(f) is Not:
                if f.sub is not g.sub:
                    if type(f.sub) is not type(g.sub):
                        return False
                    pending.append((f.sub, g.sub))
            else:
                for name in f.__match_args__:
                    a, b = getattr(f, name), getattr(g, name)
                    if a is b:
                        continue
                    if type(a) is not type(b):
                        return False
                    if isinstance(a, Formula):
                        pending.append((a, b))
                    elif a != b:
                        return False
        return True

    def __reduce__(self):
        # rebuild through the constructor, which stores the hash again
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True, eq=False)
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.match(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")
        object.__setattr__(self, "_hash", hash((self.name,)))


@dataclass(frozen=True, slots=True, eq=False)
class Not(Formula):
    sub: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.sub,)))


@dataclass(frozen=True, slots=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.left, self.right)))


@dataclass(frozen=True, slots=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.left, self.right)))


@dataclass(frozen=True, slots=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.left, self.right)))


@dataclass(frozen=True, slots=True, eq=False)
class Iff(Formula):
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.left, self.right)))


@dataclass(frozen=True, slots=True, eq=False)
class Bel(Formula):
    agent: Agent
    sub: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.agent, self.sub)))


@dataclass(frozen=True, slots=True, eq=False)
class Comp(Formula):
    agent: Agent
    sub: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.agent, self.sub)))


# Binding strength, loosest first.  "~", "B[a]" and "C[a]" bind tightest.
_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5


def _precedence(f: Formula) -> int:
    if isinstance(f, Iff):
        return _PREC_IFF
    if isinstance(f, Implies):
        return _PREC_IMPLIES
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    return _PREC_UNARY


def _render_child(child: Formula, min_prec: int) -> str:
    text = render(child)
    if _precedence(child) < min_prec:
        return f"({text})"
    return text


def render(f: Formula) -> str:
    """Render ``f`` with the minimum parentheses that survive re-parsing.

    "&" and "|" associate to the left, "->" and "<->" to the right, so a
    right-nested Or such as ``Or(p, Or(q, r))`` renders as ``p | (q | r)``
    while the left-nested tree renders flat.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, (Not, Bel, Comp)):
        # A chain of prefix operators renders in a loop, so its length is
        # not bounded by the recursion limit.
        prefix = ""
        while True:
            if isinstance(f, Not):
                prefix += "~"
            elif isinstance(f, Bel):
                prefix += f"B[{f.agent.name}] "
            elif isinstance(f, Comp):
                prefix += f"C[{f.agent.name}] "
            else:
                break
            f = f.sub
        if isinstance(f, Atom):
            return prefix + f.name
        # Prefix operators attach parentheses directly: "~(p & q)", "B[a](p | q)".
        return f"{prefix.rstrip()}({render(f)})"
    if isinstance(f, And):
        return f"{_render_child(f.left, _PREC_AND)} & {_render_child(f.right, _PREC_AND + 1)}"
    if isinstance(f, Or):
        return f"{_render_child(f.left, _PREC_OR)} | {_render_child(f.right, _PREC_OR + 1)}"
    if isinstance(f, Implies):
        return f"{_render_child(f.left, _PREC_IMPLIES + 1)} -> {_render_child(f.right, _PREC_IMPLIES)}"
    if isinstance(f, Iff):
        return f"{_render_child(f.left, _PREC_IFF + 1)} <-> {_render_child(f.right, _PREC_IFF)}"
    raise TypeError(f"not a formula: {f!r}")


def desugar(f: Formula) -> Formula:
    """Rewrite ``f`` into the kernel fragment {Atom, Not, And, Or, Bel}.

    Implication and equivalence unfold classically, and a compatibility
    statement becomes the dual belief statement:

        p -> q    becomes  ~p | q
        p <-> q   becomes  (~p | q) & (~q | p)
        C[a] p    becomes  ~B[a] ~p

    The result is idempotent: desugaring a kernel formula returns it as is.
    """
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.sub))
    if isinstance(f, And):
        return And(desugar(f.left), desugar(f.right))
    if isinstance(f, Or):
        return Or(desugar(f.left), desugar(f.right))
    if isinstance(f, Implies):
        return Or(Not(desugar(f.left)), desugar(f.right))
    if isinstance(f, Iff):
        left = desugar(f.left)
        right = desugar(f.right)
        return And(Or(Not(left), right), Or(Not(right), left))
    if isinstance(f, Bel):
        return Bel(f.agent, desugar(f.sub))
    if isinstance(f, Comp):
        return Not(Bel(f.agent, Not(desugar(f.sub))))
    raise TypeError(f"not a formula: {f!r}")


def neg(f: Formula) -> Formula:
    """Single negation of ``f``, collapsing a double negation."""
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def agents(f: Formula) -> frozenset[Agent]:
    """All agents whose modal operators occur in ``f``."""
    found: set[Agent] = set()
    _walk_agents(f, found)
    return frozenset(found)


def _walk_agents(f: Formula, out: set[Agent]) -> None:
    if isinstance(f, (Bel, Comp)):
        out.add(f.agent)
        _walk_agents(f.sub, out)
    elif isinstance(f, Not):
        _walk_agents(f.sub, out)
    elif isinstance(f, (And, Or, Implies, Iff)):
        _walk_agents(f.left, out)
        _walk_agents(f.right, out)


def atoms(f: Formula) -> frozenset[str]:
    """Names of all propositional atoms occurring in ``f``."""
    found: set[str] = set()
    _walk_atoms(f, found)
    return frozenset(found)


def _walk_atoms(f: Formula, out: set[str]) -> None:
    if isinstance(f, Atom):
        out.add(f.name)
    elif isinstance(f, (Not, Bel, Comp)):
        _walk_atoms(f.sub, out)
    elif isinstance(f, (And, Or, Implies, Iff)):
        _walk_atoms(f.left, out)
        _walk_atoms(f.right, out)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f``, including ``f`` itself."""
    found: set[Formula] = set()
    _walk_subformulas(f, found)
    return frozenset(found)


def _walk_subformulas(f: Formula, out: set[Formula]) -> None:
    if f in out:
        return
    out.add(f)
    if isinstance(f, (Not, Bel, Comp)):
        _walk_subformulas(f.sub, out)
    elif isinstance(f, (And, Or, Implies, Iff)):
        _walk_subformulas(f.left, out)
        _walk_subformulas(f.right, out)


def subformula_closure(f: Formula) -> frozenset[Formula]:
    """Subformulas of a kernel formula together with their single negations.

    The closure bounds every label a tableau world can ever carry, which is
    what makes ancestor blocking a termination argument.  Negations collapse
    (``neg(Not(g))`` is ``g``), so the closure has at most twice as many
    members as ``f`` has subformula nodes.

    Expects ``f`` to be desugared; apply ``desugar`` first otherwise.
    """
    subs = subformulas(f)
    closed = set(subs)
    for g in subs:
        closed.add(neg(g))
    return frozenset(closed)


def node_count(f: Formula) -> int:
    """Number of nodes in the syntax tree of ``f``."""
    if isinstance(f, (Not, Bel, Comp)):
        return 1 + node_count(f.sub)
    if isinstance(f, (And, Or, Implies, Iff)):
        return 1 + node_count(f.left) + node_count(f.right)
    return 1


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of modal operators in ``f``."""
    if isinstance(f, (Bel, Comp)):
        return 1 + modal_depth(f.sub)
    if isinstance(f, Not):
        return modal_depth(f.sub)
    if isinstance(f, (And, Or, Implies, Iff)):
        return max(modal_depth(f.left), modal_depth(f.right))
    return 0
