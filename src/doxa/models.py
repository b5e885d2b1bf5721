"""Relational models for belief formulas, frame checks and model-set checks.

A ``ModelSystem`` is a finite Kripke structure: worlds 0..n-1, one binary
alternativeness relation per agent, an atom valuation per world, and a
designated world where queries are evaluated.  ``B[a] p`` holds at a world
when ``p`` holds at every a-alternative; ``C[a] p`` when ``p`` holds at some
a-alternative.  A relation is stored in one form only, as successor rows:
one int per world, with bit v set when that world sees v.  The tableau, the
oracle, ``evaluate``, ``check_frame`` and ``check_model_set`` read and write
rows; only ``ModelSystem.from_pairs`` and the ``alternatives`` view convert
to and from (from, to) edges, for JSON and for callers that think in edges.

Each ``LogicProfile`` names a frame class:

    kd        every relation is serial
    hstar     serial, and every world has an alternative v whose successor
              set is included in its own (the weak-introspection witness,
              validating  B[a] p -> C[a] B[a] p)
    hintikka  serial and transitive (validating  B[a] p -> B[a] B[a] p)
    kd45      serial, transitive and euclidean

``PROFILE_RULES`` is the one definition of each profile: its frame
conditions and its propagation rules.  ``check_frame``, ``check_model_set``,
the tableau and the oracle's frame filter all read it.  The conditions of
every profile are defined once beside it: ``PROPOSITIONAL_RULES``, one
table of the propositional conditions by formula shape, and the modal
rules (C.B) and (C.C).  ``check_model_set`` and the tableau read these too.

These classes are nested: kd45 frames are hintikka frames, hintikka frames
are hstar frames (a transitive world's own successors are witnesses), and
hstar frames are kd frames.  Satisfiability therefore propagates outward
through the profiles in that order.

A ``LabeledModelSystem`` attaches a set of (desugared) formulas to each
world; ``check_model_set`` audits the labels against the closure conditions
of the profile, reporting each breach as a ``Violation``.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from typing import NamedTuple

from .formula import (
    NAME_RE,
    And,
    Atom,
    Bel,
    Comp,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Record,
    desugar,
    neg,
    postorder,
    render,
    subformulas,
)
from .parser import parse


class LogicProfile(enum.Enum):
    HSTAR = "hstar"
    HINTIKKA = "hintikka"
    KD = "kd"
    KD45 = "kd45"

    @classmethod
    def from_name(cls, name: str) -> LogicProfile:
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown profile {name!r}; expected one of: {valid}") from None


#: Profiles ordered by frame-class inclusion, smallest class first.  A model
#: admitted by an earlier entry is admitted by every later one.
PROFILES_BY_STRENGTH: tuple[LogicProfile, ...] = (
    LogicProfile.KD45,
    LogicProfile.HINTIKKA,
    LogicProfile.HSTAR,
    LogicProfile.KD,
)


class ModelSystem(Record):
    """Immutable Kripke structure with a designated world.

    ``valuation`` maps a world to the atoms true there (absent atoms are
    false).  ``rows`` holds each agent's relation as one successor row per
    world: bit v of ``rows[a][w]`` is set when w sees v.  An agent without
    rows has no alternatives anywhere.  ``from_pairs`` builds a model from
    (from, to) edges, and ``alternatives`` gives them back.  Both mappings
    are normalised to plain dicts at construction and must not be mutated
    afterwards.
    """

    __slots__ = ("worlds", "designated", "valuation", "rows")
    worlds: int
    designated: int
    valuation: dict[int, frozenset[str]]
    rows: dict[str, tuple[int, ...]]

    def __init__(
        self,
        worlds: int,
        designated: int,
        valuation: dict[int, Iterable[str]] | None = None,
        rows: dict[str, Iterable[int]] | None = None,
    ) -> None:
        if worlds < 1:
            raise ValueError("a model needs at least one world")
        if not 0 <= designated < worlds:
            raise ValueError(f"designated world {designated} out of range")
        self._set(worlds=worlds, designated=designated)
        normal_valuation: dict[int, frozenset[str]] = {}
        for w, atoms_at_w in (valuation or {}).items():
            self._check_world(int(w))
            normal_valuation[int(w)] = frozenset(atoms_at_w)
        normal_rows: dict[str, tuple[int, ...]] = {}
        for agent, agent_rows in (rows or {}).items():
            agent_rows = tuple(agent_rows)
            if len(agent_rows) != worlds:
                raise ValueError(f"{len(agent_rows)} {agent}-rows for {worlds} worlds")
            for w, row in enumerate(agent_rows):
                if row >> worlds:
                    raise ValueError(f"{agent}-row of world {w} sees a world out of range")
            normal_rows[str(agent)] = agent_rows
        self._set(valuation=normal_valuation, rows=normal_rows)

    @classmethod
    def from_pairs(
        cls,
        worlds: int,
        designated: int,
        valuation: dict[int, Iterable[str]] | None = None,
        alternatives: dict[str, Iterable[tuple[int, int]]] | None = None,
    ) -> ModelSystem:
        """The model whose relation for each agent is its (from, to) edges."""
        model = cls(worlds, designated, valuation or {})
        rows: dict[str, tuple[int, ...]] = {}
        for agent, pairs in (alternatives or {}).items():
            agent_rows = [0] * worlds
            for u, v in pairs:
                model._check_world(u)
                model._check_world(v)
                agent_rows[u] |= 1 << v
            rows[str(agent)] = tuple(agent_rows)
        object.__setattr__(model, "rows", rows)
        return model

    @property
    def alternatives(self) -> dict[str, frozenset[tuple[int, int]]]:
        """Each agent's relation as a set of (from, to) edges."""
        return {agent: frozenset(_pairs(rows)) for agent, rows in self.rows.items()}

    def _check_world(self, w: int) -> None:
        if not 0 <= w < self.worlds:
            raise ValueError(f"world {w} out of range 0..{self.worlds - 1}")

    def atoms_at(self, w: int) -> frozenset[str]:
        return self.valuation.get(w, frozenset())


class LabeledModelSystem(Record):
    """A model whose worlds carry the formulas they are meant to satisfy.

    Labels must be desugared (kernel connectives only); label order is kept
    so that checking reports violations deterministically.
    """

    __slots__ = ("model", "labels")
    model: ModelSystem
    labels: dict[int, tuple[Formula, ...]]

    def __init__(
        self, model: ModelSystem, labels: dict[int, Iterable[Formula]] | None = None
    ) -> None:
        normal_labels: dict[int, tuple[Formula, ...]] = {}
        for w, formulas in (labels or {}).items():
            model._check_world(int(w))
            for f in formulas:
                if _has_sugar(f):
                    raise ValueError(f"label {render(f)!r} is not desugared")
            normal_labels[int(w)] = tuple(formulas)
        self._set(model=model, labels=normal_labels)

    def label(self, w: int) -> tuple[Formula, ...]:
        return self.labels.get(w, ())


def _has_sugar(f: Formula) -> bool:
    return any(isinstance(g, (Implies, Iff, Comp)) for g in subformulas(f))


class Violation(NamedTuple):
    """One breached closure or frame condition.

    ``kind`` is drawn from a fixed catalog: the propositional conditions
    "C.~", "C.&", "C.v", "C.~~", "C.~&", "C.~v", the modal conditions
    "C.B", "C.B*", "C.C", "C.CB", "C.BB*", "C.~B*", and the frame
    conditions "serial", "transitive", "euclidean", "a3-witness".
    """

    kind: str
    worlds: tuple[int, ...]
    formula: Formula | None = None
    message: str = ""


class InternalVerificationError(Exception):
    """A defect in an engine, never a property of the input formula: a
    tableau model failed its own verification or a termination bound was
    exceeded, or a model the oracle's vectorized scan found is false under
    ``evaluate``."""


def evaluate(m: ModelSystem, w: int, f: Formula) -> bool:
    """Truth of ``f`` at world ``w``, with Bel universal and Comp existential.

    The two modalities are exact duals by construction:
    ``evaluate(m, w, Bel(a, f))`` equals ``not evaluate(m, w, Comp(a, Not(f)))``.

    This is the labelling algorithm of Clarke, Emerson & Sistla (ACM TOPLAS
    8(2), 1986): children first, each subformula is labelled once with the
    set of worlds where it holds, an int with bit v set for world v, so the
    cost is linear in the size of ``f`` times the worlds and edges of ``m``.
    """
    m._check_world(w)
    everywhere = (1 << m.worlds) - 1
    truth: dict[Formula, int] = {}
    for g in postorder(f):
        t = type(g)
        if t is Atom:
            s = 0
            for v, true_atoms in m.valuation.items():
                if g.name in true_atoms:
                    s |= 1 << v
        elif t is Not:
            s = everywhere ^ truth[g.sub]
        elif t is And:
            s = truth[g.left] & truth[g.right]
        elif t is Or:
            s = truth[g.left] | truth[g.right]
        elif t is Implies:
            s = (everywhere ^ truth[g.left]) | truth[g.right]
        elif t is Iff:
            s = everywhere ^ truth[g.left] ^ truth[g.right]
        else:
            # Comp holds where some alternative lies inside the worlds of its
            # subformula, Bel where none lies outside them
            inside = truth[g.sub] if t is Comp else everywhere ^ truth[g.sub]
            s = 0
            for v, row in enumerate(m.rows.get(g.agent.name, ())):
                if row & inside:
                    s |= 1 << v
            if t is Bel:
                s ^= everywhere
        truth[g] = s
    return bool(truth[f] >> w & 1)


# Frame conditions.  Each is one bitwise predicate per cell, a world w or a
# pair w -> u of worlds, over one agent's successor rows, ``rows[w]`` being
# the mask of w's alternatives.  w sees u when ``(rows[w] >> u & 1) == 1``,
# and every alternative of v is one of w's when ``(rows[v] & ~rows[w]) == 0``;
# the predicates spell these tests out inline, as calls would cost more than
# the tests.  ``~row`` is taken per cell, not once per row: kept for a whole
# row, the oracle's arrays outgrow the cache and its frame filter slows by
# about a fifth.  The predicates use operators only, no ``not``, ``and``,
# ``any`` or ``all``, so the same code reads Python ints in ``check_frame``
# and numpy int64 arrays, one candidate relation per element, in the
# oracle's frame filter.  ``check_frame`` expands every cell whose predicate
# fails into violations, in a fixed order.


def _bits(mask: int) -> list[int]:
    """The worlds in ``mask``, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _pairs(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The edges (w, v) of successor rows, in ascending order."""
    return [(w, v) for w, row in enumerate(rows) for v in range(row.bit_length()) if row >> v & 1]


def _serial(rows):
    return [row != 0 for row in rows]


def _serial_breaches(rows, w, agent):
    return [((w,), f"world {w} has no {agent}-alternative")]


def _witness(rows):
    cells = []
    for row in rows:
        holds = row == 0
        for v, other in enumerate(rows):
            # w sees v, and every alternative of v is one of w's
            holds = holds | (((row >> v & 1) == 1) & ((other & ~row) == 0))
        cells.append(holds)
    return cells


def _witness_breaches(rows, w, agent):
    return [((w,), f"no {agent}-alternative of {w} has successors within those of {w}")]


def _transitive(rows):
    # at w -> u: if w sees u, every alternative of u is one of w's
    return [
        ((row >> u & 1) == 1) <= ((other & ~row) == 0)
        for row in rows
        for u, other in enumerate(rows)
    ]


def _transitive_breaches(rows, position, agent):
    w, u = divmod(position, len(rows))
    return [
        ((w, v), f"missing {agent}-edge {w}->{v} (via {u})") for v in _bits(rows[u] & ~rows[w])
    ]


def _euclidean(rows):
    # at w -> u: if w sees u, every alternative of w is one of u's
    return [
        ((row >> u & 1) == 1) <= ((row & ~other) == 0)
        for row in rows
        for u, other in enumerate(rows)
    ]


def _euclidean_breaches(rows, position, agent):
    w, u = divmod(position, len(rows))
    return [
        ((u, v), f"missing {agent}-edge {u}->{v} (both seen from {w})")
        for v in _bits(rows[w] & ~rows[u])
    ]


class FrameCondition(NamedTuple):
    """A frame condition.  ``cells(rows)`` lists its predicate at each cell:
    at world w in position w, or at the pair w -> u in position
    ``w * len(rows) + u``.  ``breaches(rows, position, agent)`` lists the
    (worlds, message) of the breaches at a cell whose predicate fails."""

    kind: str
    cells: Callable[[Sequence], list]
    breaches: Callable[[Sequence[int], int, str], list[tuple[tuple[int, ...], str]]]


#: Every world has an alternative.
serial = FrameCondition("serial", _serial, _serial_breaches)
#: Every world with alternatives has an alternative v whose successors are
#: among its own (the weak-introspection witness).
a3_witness = FrameCondition("a3-witness", _witness, _witness_breaches)
#: wRu and uRv imply wRv: at the cell w -> u, an edge means that the
#: alternatives of u are among those of w.
transitive = FrameCondition("transitive", _transitive, _transitive_breaches)
#: wRu and wRv imply uRv: at the cell w -> u, an edge means that the
#: alternatives of w are among those of u.
euclidean = FrameCondition("euclidean", _euclidean, _euclidean_breaches)


class PropositionalRule(NamedTuple):
    """A closure condition on a labeled formula of one shape, demanding its
    parts in the same world: every part when ``every``, else one of them,
    and for a ``negated`` rule each part's negation instead of the part.
    ``message`` is the violation message, with ``{w}`` and, for an
    ``every`` rule, the missing part's ``{side}`` filled in."""

    kind: str
    every: bool
    negated: bool
    message: str


#: The propositional closure conditions, keyed by shape: the class of a
#: conjunction or disjunction, and (Not, class) for the negation of a
#: negation, conjunction or disjunction.  The parts of an ``And`` or ``Or``
#: are its two sides, and the part of a double negation ~~x is x.
PROPOSITIONAL_RULES: dict[tuple[type, ...], PropositionalRule] = {
    (And,): PropositionalRule("C.&", True, False, "{side} conjunct missing at {w}"),
    (Or,): PropositionalRule("C.v", False, False, "no disjunct labeled at {w}"),
    (Not, Not): PropositionalRule("C.~~", True, False, "unwrapped formula missing at {w}"),
    (Not, And): PropositionalRule("C.~&", False, True, "no negated conjunct labeled at {w}"),
    (Not, Or): PropositionalRule("C.~v", True, True, "negated {side} disjunct missing at {w}"),
}


#: ``PROPOSITIONAL_RULES`` as two tables, of unnegated and of negated
#: formulas, each keyed by the class of the positive node.
_RULES_BY_SIGN = tuple(
    {
        shape[-1]: rule
        for shape, rule in PROPOSITIONAL_RULES.items()
        if (len(shape) == 2) is negated
    }
    for negated in (False, True)
)


def propositional_conditions(
    members: Iterable[tuple[object, Formula, bool]],
) -> Iterator[tuple[object, PropositionalRule, tuple[Formula, ...]]]:
    """Each of ``members`` that a propositional condition is on, in order,
    with the condition and the parts it speaks of.  A member comes as
    (key, positive node, whether it is negated), so that a negation need
    not be built to be looked up, and is named by its key.  Its condition
    is one lookup of the positive node's class in the table of its sign,
    derived once from ``PROPOSITIONAL_RULES``."""
    for key, core, negated in members:
        t = type(core)
        rule = _RULES_BY_SIGN[negated].get(t)
        if rule is not None:
            yield key, rule, (core.sub,) if t is Not else (core.left, core.right)


class ModalRule(NamedTuple):
    """A closure condition tying a belief formula ``B[a] q``, or for a
    ``negated`` rule ``~B[a] q``, to the a-alternatives of its world.

    The formula demanded there is the believed ``q`` when ``carries_sub``,
    else the labeled formula itself; a negated rule that carries the
    believed formula demands its negation, as ``neg(q)`` or ``Not(q)``.  An
    ``every`` rule demands it at every alternative, any other at one.
    ``message`` is the violation message, with ``{agent}``, ``{w}`` and
    ``{v}`` filled in.
    """

    kind: str
    negated: bool
    carries_sub: bool
    every: bool
    message: str


# The modal closure conditions, by (kind, negated, carries_sub, every, message).
C_B = ModalRule("C.B", False, True, False, "no {agent}-alternative of {w} labels the believed formula")
C_C = ModalRule(
    "C.C", True, True, False, "no {agent}-alternative of {w} labels the denied formula's negation"
)
C_B_STAR = ModalRule("C.B*", False, True, True, "believed formula missing at {agent}-alternative {v}")
C_CB = ModalRule("C.CB", False, False, False, "no {agent}-alternative of {w} labels the belief itself")
C_BB_STAR = ModalRule("C.BB*", False, False, True, "belief not propagated to {agent}-alternative {v}")
C_NB_STAR = ModalRule(
    "C.~B*", True, False, True, "negated belief not propagated to {agent}-alternative {v}"
)


class ProfileRules(NamedTuple):
    """What a profile demands of a model: its frame conditions, weakest
    first, and its propagation rules, in the order they are checked and
    fired."""

    frame: tuple[FrameCondition, ...]
    propagation: tuple[ModalRule, ...]


#: The one definition of each profile.  (C.B) and (C.C), which demand an
#: alternative for every belief and every negated belief in any profile,
#: are not listed; neither are the ``PROPOSITIONAL_RULES``, which hold in
#: every profile.
PROFILE_RULES: dict[LogicProfile, ProfileRules] = {
    LogicProfile.KD: ProfileRules((serial,), (C_B_STAR,)),
    LogicProfile.HSTAR: ProfileRules((serial, a3_witness), (C_B_STAR, C_CB)),
    LogicProfile.HINTIKKA: ProfileRules((serial, transitive), (C_B_STAR, C_BB_STAR)),
    LogicProfile.KD45: ProfileRules(
        (serial, transitive, euclidean), (C_B_STAR, C_BB_STAR, C_NB_STAR)
    ),
}


def check_frame(m: ModelSystem, profile: LogicProfile) -> list[Violation]:
    """Frame-condition violations of ``m`` for ``profile``, empty if none:
    agent by agent, condition by condition, cell by cell in ascending
    position, each breach listed once."""
    violations = []
    for agent, rows in sorted(m.rows.items()):
        for condition in PROFILE_RULES[profile].frame:
            # each breach's worlds once, with the message of its first cell
            first: dict[tuple[int, ...], str] = {}
            for position, holds in enumerate(condition.cells(rows)):
                if not holds:
                    for worlds, message in condition.breaches(rows, position, agent):
                        first.setdefault(worlds, message)
            violations += [
                Violation(condition.kind, worlds, None, text) for worlds, text in first.items()
            ]
    return violations


def _holds(label: set[Formula], g: Formula, negated: bool) -> bool:
    """Whether ``label`` holds the demanded ``g``, or for a ``negated``
    demand its negation, as ``neg(g)`` or as ``Not(g)``."""
    return (neg(g) in label or Not(g) in label) if negated else g in label


def check_model_set(lm: LabeledModelSystem, profile: LogicProfile) -> list[Violation]:
    """Frame violations plus closure-condition violations of the labels.

    The clash condition (C.~), the ``PROPOSITIONAL_RULES`` and the base
    modal conditions (C.B) and (C.C) are checked for every profile, then
    the profile's propagation rules from ``PROFILE_RULES``.  A negated
    belief formula ~B[a] q counts as the compatibility statement C[a] ~q
    when (C.C) looks for its witness, which is the dual-definition reading.
    """
    m = lm.model
    violations = check_frame(m, profile)
    rules = PROFILE_RULES[profile]
    label_sets = {w: set(lm.label(w)) for w in range(m.worlds)}

    for w in range(m.worlds):
        label = label_sets[w]
        # each clashing pair once, in the order of its first negation
        for positive in dict.fromkeys(
            f.sub for f in lm.label(w) if isinstance(f, Not) and f.sub in label
        ):
            message = f"both {render(positive)} and its negation labeled at {w}"
            violations.append(Violation("C.~", (w,), positive, message))
        members = ((f, f.sub, True) if type(f) is Not else (f, f, False) for f in lm.label(w))
        for f, rule, parts in propositional_conditions(members):
            held = [_holds(label, g, rule.negated) for g in parts]
            if rule.every:
                for side, part_held in zip(("left", "right"), held):
                    if not part_held:
                        message = rule.message.format(side=side, w=w)
                        violations.append(Violation(rule.kind, (w,), f, message))
            elif not any(held):
                violations.append(Violation(rule.kind, (w,), f, rule.message.format(w=w)))
        for f in lm.label(w):
            negated = isinstance(f, Not)
            belief = f.sub if negated else f
            if not isinstance(belief, Bel):
                continue
            agent = belief.agent.name
            succ = _bits(m.rows[agent][w]) if agent in m.rows else []
            for rule in (C_B, C_C, *rules.propagation):
                if rule.negated != negated:
                    continue
                carried = belief.sub if rule.carries_sub else f
                # a negated rule that carries the believed formula demands its negation
                denied = negated and rule.carries_sub
                if rule.every:
                    for v in succ:
                        if not _holds(label_sets[v], carried, denied):
                            message = rule.message.format(agent=agent, v=v)
                            violations.append(Violation(rule.kind, (w, v), f, message))
                elif not any(_holds(label_sets[v], carried, denied) for v in succ):
                    message = rule.message.format(agent=agent, w=w)
                    violations.append(Violation(rule.kind, (w,), f, message))
    return violations


def model_to_json_dict(m: ModelSystem) -> dict:
    """Plain-data form of ``m``: world count, designated world, sorted
    valuation lists keyed by world index strings, sorted edge lists keyed
    by agent."""
    return {
        "worlds": m.worlds,
        "designated": m.designated,
        "valuation": {str(w): sorted(m.atoms_at(w)) for w in range(m.worlds)},
        "alternatives": {
            agent: [list(pair) for pair in _pairs(rows)] for agent, rows in sorted(m.rows.items())
        },
    }


#: A world index as a JSON object key: canonical ASCII decimal, so that "01"
#: and "1" do not both name world 1 and "١" or "²" names none.
_WORLD_KEY = re.compile("0|[1-9][0-9]*")


#: The most worlds a model file may declare.  The largest model the engine
#: is known to return has 1,957 worlds, and the frame check of a 4,096-world
#: model takes seconds per agent, where a huge count would exhaust memory.
MAX_MODEL_WORLDS = 4096


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a repeated key, of which
    ``json.loads`` would otherwise keep the last value without a word.
    Model files and corpus rows are read with it."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            import json

            raise ValueError(f"repeated key {json.dumps(key)}")
        obj[key] = value
    return obj


def _read_text(path: str | Path) -> str:
    """The text of the UTF-8 file ``path``.  A file that cannot be read or
    is not UTF-8 raises ``ValueError`` naming it.  Model files and corpus
    files are read with it."""
    try:
        return Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read {path}: {err}") from None


def _require(condition: object, message: str) -> None:
    if not condition:
        raise ValueError(message)


def model_from_json_dict(data: object) -> ModelSystem:
    """Validate and build a ModelSystem from parsed JSON data."""
    _require(isinstance(data, dict), "model must be a JSON object")
    assert isinstance(data, dict)
    known = {"worlds", "designated", "valuation", "alternatives", "labels"}
    for key in data:
        _require(key in known, f"unknown model key {key!r}")
    worlds = data.get("worlds")
    _require(isinstance(worlds, int) and not isinstance(worlds, bool), "'worlds' must be an integer")
    _require(worlds <= MAX_MODEL_WORLDS, f"'worlds' is above the limit of {MAX_MODEL_WORLDS}")
    designated = data.get("designated", 0)
    _require(
        isinstance(designated, int) and not isinstance(designated, bool),
        "'designated' must be an integer",
    )
    valuation_raw = data.get("valuation", {})
    _require(isinstance(valuation_raw, dict), "'valuation' must be an object")
    valuation: dict[int, frozenset[str]] = {}
    for key, atom_list in valuation_raw.items():
        _require(_WORLD_KEY.fullmatch(key), f"valuation key {key!r} is not a world index")
        _require(
            isinstance(atom_list, list) and all(isinstance(s, str) for s in atom_list),
            f"valuation for world {key} must be a list of atom names",
        )
        for atom in atom_list:
            _require(NAME_RE.match(atom), f"invalid atom name {atom!r}")
        valuation[int(key)] = frozenset(atom_list)
    alternatives_raw = data.get("alternatives", {})
    _require(isinstance(alternatives_raw, dict), "'alternatives' must be an object")
    for agent, pair_list in alternatives_raw.items():
        _require(NAME_RE.match(agent), f"invalid agent name {agent!r}")
        _require(isinstance(pair_list, list), f"alternatives for {agent!r} must be a list")
        for pair in pair_list:
            _require(
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair),
                f"alternative for {agent!r} must be a [from, to] pair: {pair!r}",
            )
    return ModelSystem.from_pairs(worlds, designated, valuation, alternatives_raw)


def labeled_to_json_dict(lm: LabeledModelSystem) -> dict:
    data = model_to_json_dict(lm.model)
    data["labels"] = {
        str(w): [render(f) for f in lm.label(w)]
        for w in range(lm.model.worlds)
        if lm.label(w)
    }
    return data


def labeled_from_json_dict(data: object) -> LabeledModelSystem:
    """Build a LabeledModelSystem from parsed JSON; label strings are parsed
    in the concrete syntax and desugared."""
    model = model_from_json_dict(data)
    assert isinstance(data, dict)
    labels_raw = data.get("labels", {})
    _require(isinstance(labels_raw, dict), "'labels' must be an object")
    labels: dict[int, tuple[Formula, ...]] = {}
    for key, texts in labels_raw.items():
        _require(_WORLD_KEY.fullmatch(key), f"labels key {key!r} is not a world index")
        _require(
            isinstance(texts, list) and all(isinstance(s, str) for s in texts),
            f"labels for world {key} must be a list of formula strings",
        )
        labels[int(key)] = tuple(desugar(parse(text)) for text in texts)
    return LabeledModelSystem(model=model, labels=labels)
