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

Nodes are hash-consed: constructing a node returns the one live node with
the same class and fields, so structurally equal formulas are one object.
``==`` and ``hash`` are therefore the identity defaults, and neither walks
the tree.  The table of live nodes holds them weakly, so a formula nothing
else refers to is freed.  Nodes are immutable, since every holder of a node
shares it.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass

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


class _Ref(weakref.ref):
    """A weak reference to a node, and the node's key in ``_NODES``."""

    __slots__ = ("key",)


# The live node of each (class, *fields) key.  A dying node's reference is
# queued on ``_DEAD`` by ``list.append``, a C function: a weakref callback
# written in Python would run signal handlers too, and lose the exception
# of any it interrupted, such as a time limit's or KeyboardInterrupt.  The
# next miss deletes each queued entry unless its key has a newer node.
_NODES: dict[tuple, _Ref] = {}
_DEAD: list[_Ref] = []


class Formula:
    """Base class for formula nodes.  Rendering goes through ``render``.

    Each node class names its fields in ``__match_args__``, and calling it
    with those fields, positionally, returns the canonical node.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            while _DEAD:
                dead = _DEAD.pop()
                # a reference without a key was never entered: an exception,
                # such as a time limit's, came between its two lines below
                key_of_dead = getattr(dead, "key", None)
                if _NODES.get(key_of_dead) is dead:
                    del _NODES[key_of_dead]
                # the key holds the node's children: dropping it queues
                # those that die with it, so one miss frees a whole subtree
                del dead, key_of_dead
            names = cls.__match_args__
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes the fields {names}, got {len(fields)}")
            if cls is Atom and not _ATOM_RE.match(fields[0]):
                raise ValueError(f"invalid atom name: {fields[0]!r}")
            node = object.__new__(cls)
            for name, value in zip(names, fields):
                object.__setattr__(node, name, value)
            ref = _Ref(node, _DEAD.append)
            ref.key = key
            _NODES[key] = ref
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"formula nodes are immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"formula nodes are immutable: cannot delete {name!r}")

    def __reduce__(self):
        # rebuild through the constructor, which returns the canonical node
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return render(self)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)


class Not(Formula):
    __slots__ = __match_args__ = ("sub",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Iff(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Bel(Formula):
    __slots__ = __match_args__ = ("agent", "sub")


class Comp(Formula):
    __slots__ = __match_args__ = ("agent", "sub")


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
    if isinstance(f, (And, Or)):
        # A left-nested chain of one operator, as the parser builds "p & q &
        # r", renders in a loop along its left spine, so its length is not
        # bounded by the recursion limit.
        kind = type(f)
        op, prec = (" & ", _PREC_AND) if kind is And else (" | ", _PREC_OR)
        rights = []
        while type(f) is kind:
            rights.append(f.right)
            f = f.left
        parts = [_render_child(f, prec)]
        parts += [_render_child(g, prec + 1) for g in reversed(rights)]
        return op.join(parts)
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


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f``, including ``f`` itself.

    The walk keeps an explicit stack, so its depth is not bounded by the
    recursion limit, and visits each shared subformula once.
    """
    found = {f}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            continue
        for child in (g.sub,) if isinstance(g, (Not, Bel, Comp)) else (g.left, g.right):
            if child not in found:
                found.add(child)
                stack.append(child)
    return frozenset(found)


def agents(f: Formula) -> frozenset[Agent]:
    """All agents whose modal operators occur in ``f``."""
    return frozenset(g.agent for g in subformulas(f) if isinstance(g, (Bel, Comp)))


def atoms(f: Formula) -> frozenset[str]:
    """Names of all propositional atoms occurring in ``f``."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


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
