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
shares it.  A node's key in the table is its class and its fields, except
that a modal node's key holds its agent's name in place of the ``Agent``:
a string keeps its hash, where an ``Agent`` computes its own in Python.  A
node that the table lacks is built with its fields written through the
``__set__`` of each slot, which each node class looks up once, when it is
defined.

So a node's ``postorder`` walk and its ``desugar`` kernel are functions of
the node alone: each is derived once, on first use, and kept in a slot of
the node.  Neither refers back to its node, so no reference cycle forms,
and both are freed with the node.
"""

from __future__ import annotations

import re
import weakref

#: An agent or atom name: a lowercase identifier, the one form the parser
#: reads as a name.  The parser's tokenizer reads names with the pattern,
#: and ``NAME_RE`` matches a whole name.
NAME_PATTERN = "[a-z][a-z0-9_]*"
NAME_RE = re.compile(NAME_PATTERN + r"\Z")


class Record:
    """Base of a frozen value class whose ``__slots__`` are its fields, in
    the order of its constructor's parameters; ``__init__`` sets them with
    ``_set``.  As with a frozen dataclass, a record refuses assignment,
    equals a record of its own class with equal fields, hashes as the tuple
    of its fields and shows as ``Class(field=value, ...)``."""

    __slots__ = ()

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Agent(Record):
    """An agent index, named by a lowercase identifier."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not NAME_RE.match(name):
            raise ValueError(f"invalid agent name: {name!r}")
        self._set(name=name)

    def __str__(self) -> str:
        return self.name


class _Ref(weakref.ref):
    """A weak reference to a node, and the node's key in ``_NODES``."""

    __slots__ = ("key",)


# The live node of each (class, *fields) key, a modal node's with its
# agent's name in place of the agent.  A dying node's reference is
# queued on ``_DEAD`` by ``list.append``, a C function: a weakref callback
# written in Python would run signal handlers too, and lose the exception
# of any it interrupted, such as a time limit's or KeyboardInterrupt.  The
# next construction, hit or miss, deletes each queued entry unless its key
# has a newer node, so a dead node's key holds its children only until then.
_NODES: dict[tuple, _Ref] = {}
_DEAD: list[_Ref] = []


#: The ``_kernel`` of a node that is its own kernel: storing the node
#: itself would make a reference cycle.
_IS_KERNEL = object()


class Formula:
    """Base class for formula nodes.  Rendering goes through ``render``.

    Each node class names its fields in ``__match_args__``, and calling it
    with those fields, positionally, returns the canonical node.  A new
    node's fields are set through ``_setters``, the ``__set__`` of each
    field's slot, which ``__init_subclass__`` gives the class once; the two
    slots ``_walk`` and ``_kernel`` are set the same way.  They keep what
    ``postorder`` and ``desugar`` derived, None until then; each is written
    once, after a whole walk.
    """

    __slots__ = ("__weakref__", "_walk", "_kernel")
    __match_args__: tuple[str, ...] = ()
    _setters: tuple = ()

    def __new__(cls, *fields):
        while _DEAD:
            dead = _DEAD.pop()
            # a reference without a key was never entered: an exception,
            # such as a time limit's, came between its two lines below
            key_of_dead = getattr(dead, "key", None)
            if _NODES.get(key_of_dead) is dead:
                del _NODES[key_of_dead]
            # the key holds the node's children: dropping it queues those
            # that die with it, so one construction frees a whole subtree
            del dead, key_of_dead
        if (cls is Bel or cls is Comp) and len(fields) == 2:
            # the agent's name hashes without running ``Agent.__hash__``
            key = (cls, fields[0].name, fields[1])
        else:
            key = (cls, *fields)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            setters = cls._setters
            if len(fields) != len(setters):
                names = cls.__match_args__
                raise TypeError(f"{cls.__name__} takes the fields {names}, got {len(fields)}")
            if cls is Atom and not NAME_RE.match(fields[0]):
                raise ValueError(f"invalid atom name: {fields[0]!r}")
            node = object.__new__(cls)
            _set_walk(node, None)
            _set_kernel(node, None)
            if fields:  # one or two; none only for the base class
                setters[0](node, fields[0])
                if len(fields) == 2:
                    setters[1](node, fields[1])
            ref = _Ref(node, _DEAD.append)
            ref.key = key
            _NODES[key] = ref
        return node

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"formula nodes are immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"formula nodes are immutable: cannot delete {name!r}")

    def __reduce__(self):
        # the DAG as a flat list of nodes, children first, each naming its
        # children by position, so that neither pickling nor unpickling
        # recurses along a deep formula
        order = postorder(self)
        position = {g: i for i, g in enumerate(order)}
        nodes = []
        for g in order:
            fields = (getattr(g, name) for name in g.__match_args__)
            nodes.append(
                (type(g), *(position[v] if isinstance(v, Formula) else v for v in fields))
            )
        return _rebuild, (nodes,)

    # a node is immutable and canonical, so any copy of it is the node itself
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        # a stack of pieces still to write, text or a node, as in ``render``
        out = []
        stack = [self]
        while stack:
            g = stack.pop()
            if type(g) is str:
                out.append(g)
                continue
            out.append(f"{type(g).__name__}(")
            stack.append(")")
            names = g.__match_args__
            for i in reversed(range(len(names))):
                value = getattr(g, names[i])
                stack.append(value if isinstance(value, Formula) else repr(value))
                stack.append(f", {names[i]}=" if i else f"{names[i]}=")
        return "".join(out)

    def __str__(self) -> str:
        return render(self)


# the ``__set__`` of the two slots that every node has
_set_walk = Formula._walk.__set__
_set_kernel = Formula._kernel.__set__


def _rebuild(nodes: list[tuple]) -> Formula:
    """The formula that ``Formula.__reduce__`` flattened into ``nodes``: each
    is rebuilt through its constructor, which returns the canonical node."""
    built: list[Formula] = []
    for cls, *fields in nodes:
        built.append(cls(*(built[v] if type(v) is int else v for v in fields)))
    return built[-1]


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


#: The infix connectives: symbol, binding strength (loosest first), and the
#: strength each of the left and right operands needs to show without
#: parentheses.  Atoms and the prefix operators "~", "B[a]" and "C[a]" bind
#: tightest, at 5.  "&" and "|" associate to the left and the arrows to the
#: right, so a same-strength operand shows bare on that side only.  The
#: parser reads its precedence and associativity off this table too.
INFIX = {
    Iff: (" <-> ", 1, 2, 1),
    Implies: (" -> ", 2, 3, 2),
    Or: (" | ", 3, 3, 4),
    And: (" & ", 4, 4, 5),
}

#: Pushed after a node in ``postorder``: the node is emitted when it pops.
_EMIT = object()


def postorder(f: Formula) -> list[Formula]:
    """Every distinct node of ``f``, children before their parents.

    The walk keeps an explicit stack, so its depth is not bounded by the
    recursion limit, and lists each shared node of the hash-consed DAG once;
    ``f`` itself comes last.  Every fold over a formula is a loop over this
    list, reading each child's value from a dict filled earlier in the loop.

    The walk is made once per node and kept, without ``f``, in ``f._walk``;
    each call returns a new list.
    """
    walk = getattr(f, "_walk", None)
    if walk is not None:
        return [*walk, f]
    order = []
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g is _EMIT:
            order.append(stack.pop())
        elif g not in seen:
            # marked when expanded, not when pushed: a node pushed again
            # below a parent must still come out before that parent
            seen.add(g)
            t = type(g)
            if t is Atom:
                order.append(g)
            elif t is Not or t is Bel or t is Comp:
                stack += (g, _EMIT, g.sub)
            elif t in INFIX:
                stack += (g, _EMIT, g.right, g.left)
            else:
                raise TypeError(f"not a formula: {g!r}")
    _set_walk(f, tuple(order[:-1]))
    return order


def render(f: Formula) -> str:
    """Render ``f`` with the minimum parentheses that survive re-parsing.

    "&" and "|" associate to the left, "->" and "<->" to the right, so a
    right-nested Or such as ``Or(p, Or(q, r))`` renders as ``p | (q | r)``
    while the left-nested tree renders flat.
    """
    return _render(f, {})


def _render(f: Formula, texts: dict[Formula, str]) -> str:
    """The printer of ``render``, which writes each node below ``f`` that
    ``texts`` holds from its text there, in parentheses where the node's
    place needs them, instead of walking it again; ``render`` shares no
    text.

    The printer keeps a stack of pieces still to write: a string, or a node
    with the weakest binding strength it may show bare in its place.  Its
    depth is therefore not bounded by the recursion limit.
    """
    out = []
    stack = [(f, 1)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        g, need = piece
        while True:  # down the left spine; what comes after is pushed
            t = type(g)
            if t is Atom:
                out.append(g.name)
                break
            known = texts.get(g)
            if known is not None:
                # the text of g alone, which shows it bare
                out += ("(", known, ")") if t in INFIX and INFIX[t][1] < need else (known,)
                break
            if t is Not:
                out.append("~")
            elif t is Bel or t is Comp:
                # prefix operators attach parentheses directly: "B[a](p | q)"
                space = "" if type(g.sub) in INFIX else " "
                out.append(f"{'B' if t is Bel else 'C'}[{g.agent.name}]{space}")
            elif t in INFIX:
                text, strength, left, right = INFIX[t]
                if strength < need:
                    out.append("(")
                    stack.append(")")
                stack += ((g.right, right), text)
                g, need = g.left, left
                continue
            else:
                raise TypeError(f"not a formula: {g!r}")
            g, need = g.sub, 5
    return "".join(out)


def desugar(f: Formula) -> Formula:
    """Rewrite ``f`` into the kernel fragment {Atom, Not, And, Or, Bel}.

    Implication and equivalence unfold classically, and a compatibility
    statement becomes the dual belief statement:

        p -> q    becomes  ~p | q
        p <-> q   becomes  (~p | q) & (~q | p)
        C[a] p    becomes  ~B[a] ~p

    The result is idempotent: desugaring a kernel formula returns it as is.
    A node whose children come back unchanged is kept, not rebuilt.  The
    kernel is derived once per node and kept in ``f._kernel``.
    """
    kernel = getattr(f, "_kernel", None)
    if kernel is not None:
        return f if kernel is _IS_KERNEL else kernel
    out: dict[Formula, Formula] = {}
    for g in postorder(f):
        t = type(g)
        if t is Atom:
            k = g
        elif t is Not or t is Bel:
            sub = out[g.sub]
            k = g if sub is g.sub else Not(sub) if t is Not else Bel(g.agent, sub)
        elif t is Comp:
            k = Not(Bel(g.agent, Not(out[g.sub])))
        else:
            left, right = out[g.left], out[g.right]
            if t is Implies:
                k = Or(Not(left), right)
            elif t is Iff:
                k = And(Or(Not(left), right), Or(Not(right), left))
            elif left is g.left and right is g.right:
                k = g
            else:
                k = t(left, right)
        out[g] = k
    # a kernel holds no sugar, so it is its own kernel, and holds f only if
    # it is f
    if k._kernel is None:
        _set_kernel(k, _IS_KERNEL)
    if k is not f:
        _set_kernel(f, k)
    return k


def neg(f: Formula) -> Formula:
    """Single negation of ``f``, collapsing a double negation."""
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f``, including ``f`` itself."""
    return frozenset(postorder(f))


def agents(f: Formula) -> frozenset[Agent]:
    """All agents whose modal operators occur in ``f``."""
    return frozenset(g.agent for g in subformulas(f) if isinstance(g, (Bel, Comp)))


def atoms(f: Formula) -> frozenset[str]:
    """Names of all propositional atoms occurring in ``f``."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def subformula_closure(f: Formula) -> frozenset[Formula]:
    """Subformulas of a kernel formula together with their single negations.

    The closure bounds every label a tableau world can ever carry, so a
    branch holds finitely many distinct labels; that is what makes blocking
    a termination argument (anywhere blocking under kd, hstar and
    hintikka, ancestor blocking under kd45).  Negations collapse
    (``neg(Not(g))`` is ``g``), so the closure has at most twice as many
    members as ``f`` has subformula nodes.

    Expects ``f`` to be desugared; apply ``desugar`` first otherwise.
    """
    order = postorder(f)
    return frozenset(order + [neg(g) for g in order])


def node_count(f: Formula) -> int:
    """Number of nodes in the syntax tree of ``f``, a shared node counted
    once per occurrence."""
    count: dict[Formula, int] = {}
    for g in postorder(f):
        t = type(g)
        if t is Atom:
            count[g] = 1
        elif t in INFIX:
            count[g] = 1 + count[g.left] + count[g.right]
        else:
            count[g] = 1 + count[g.sub]
    return count[f]


def modal_depth(f: Formula) -> int:
    """Maximum nesting depth of modal operators in ``f``."""
    depth: dict[Formula, int] = {}
    for g in postorder(f):
        t = type(g)
        if t is Atom:
            depth[g] = 0
        elif t in INFIX:
            depth[g] = max(depth[g.left], depth[g.right])
        else:
            depth[g] = depth[g.sub] + (t is not Not)
    return depth[f]
