"""Relational models for belief formulas, frame checks and model-set checks.

A ``ModelSystem`` is a finite Kripke structure: worlds 0..n-1, one binary
alternativeness relation per agent, an atom valuation per world, and a
designated world where queries are evaluated.  ``B[a] p`` holds at a world
when ``p`` holds at every a-alternative; ``C[a] p`` when ``p`` holds at some
a-alternative.

Each ``LogicProfile`` names a frame class:

    kd        every relation is serial
    hstar     serial, and every world has an alternative v whose successor
              set is included in its own (the weak-introspection witness,
              validating  B[a] p -> C[a] B[a] p)
    hintikka  serial and transitive (validating  B[a] p -> B[a] B[a] p)
    kd45      serial, transitive and euclidean

``PROFILE_RULES`` is the one definition of each profile: its frame
conditions and its propagation rules.  ``check_frame``, ``check_model_set``,
the tableau and the oracle's frame filter all read it.

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
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .formula import (
    And,
    Atom,
    Bel,
    Comp,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
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


@dataclass(frozen=True)
class ModelSystem:
    """Immutable Kripke structure with a designated world.

    ``valuation`` maps a world to the atoms true there (absent atoms are
    false), ``alternatives`` maps an agent name to its set of (from, to)
    edges.  Both mappings are normalised to plain dicts with frozenset
    values at construction and must not be mutated afterwards.
    """

    worlds: int
    designated: int
    valuation: dict[int, frozenset[str]] = field(default_factory=dict)
    alternatives: dict[str, frozenset[tuple[int, int]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.worlds < 1:
            raise ValueError("a model needs at least one world")
        if not 0 <= self.designated < self.worlds:
            raise ValueError(f"designated world {self.designated} out of range")
        valuation: dict[int, frozenset[str]] = {}
        for w, atoms_at_w in self.valuation.items():
            self._check_world(int(w))
            valuation[int(w)] = frozenset(atoms_at_w)
        alternatives: dict[str, frozenset[tuple[int, int]]] = {}
        for agent, pairs in self.alternatives.items():
            edges = set()
            for u, v in pairs:
                self._check_world(int(u))
                self._check_world(int(v))
                edges.add((int(u), int(v)))
            alternatives[str(agent)] = frozenset(edges)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "alternatives", alternatives)

    def _check_world(self, w: int) -> None:
        if not 0 <= w < self.worlds:
            raise ValueError(f"world {w} out of range 0..{self.worlds - 1}")

    def atoms_at(self, w: int) -> frozenset[str]:
        return self.valuation.get(w, frozenset())


@dataclass(frozen=True)
class LabeledModelSystem:
    """A model whose worlds carry the formulas they are meant to satisfy.

    Labels must be desugared (kernel connectives only); label order is kept
    so that checking reports violations deterministically.
    """

    model: ModelSystem
    labels: dict[int, tuple[Formula, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels: dict[int, tuple[Formula, ...]] = {}
        for w, formulas in self.labels.items():
            self.model._check_world(int(w))
            for f in formulas:
                if _has_sugar(f):
                    raise ValueError(f"label {render(f)!r} is not desugared")
            labels[int(w)] = tuple(formulas)
        object.__setattr__(self, "labels", labels)

    def label(self, w: int) -> tuple[Formula, ...]:
        return self.labels.get(w, ())


def _has_sugar(f: Formula) -> bool:
    return any(isinstance(g, (Implies, Iff, Comp)) for g in subformulas(f))


@dataclass(frozen=True)
class Violation:
    """One breached closure or frame condition.

    ``kind`` is drawn from a fixed catalog: the propositional conditions
    "C.~", "C.&", "C.v", "C.~~", "C.~&", "C.~v", the modal conditions
    "C.B", "C.B*", "C.C", "C.CB", "C.BB*", "C.~B*", "C.BDef", "C.CDef",
    and the frame conditions "serial", "transitive", "euclidean",
    "a3-witness".
    """

    kind: str
    worlds: tuple[int, ...]
    formula: Formula | None = None
    message: str = ""


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
    rows: dict[str, list[int]] = {}  # an agent's successor set per world
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
            agent = g.agent.name
            row = rows.get(agent)
            if row is None:
                row = rows[agent] = _successor_rows(m, agent)
            # Bel holds where no alternative lies outside the worlds of its
            # subformula; Comp fails where none lies inside them
            outside = everywhere ^ truth[g.sub] if t is Bel else truth[g.sub]
            s = 0
            for v, succ in enumerate(row):
                if not succ & outside:
                    s |= 1 << v
            if t is Comp:
                s ^= everywhere
        truth[g] = s
    return bool(truth[f] >> w & 1)


def _successor_rows(m: ModelSystem, agent: str) -> list[int]:
    """One agent's successor rows: bit v of ``rows[w]`` is set when w sees v."""
    rows = [0] * m.worlds
    for u, v in m.alternatives.get(agent, ()):
        rows[u] |= 1 << v
    return rows


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
# oracle's frame filter.  ``frame_breaches`` expands every cell whose
# predicate fails into (kind, worlds, message) breaches, in a fixed order.
Breach = tuple[str, tuple[int, ...], str]


def _bits(mask: int) -> list[int]:
    """The worlds in ``mask``, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


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


class ModalRule(NamedTuple):
    """A closure condition tying a belief formula ``B[a] q``, or for a
    ``negated`` rule ``~B[a] q``, to the a-alternatives of its world.

    The formula demanded there is ``q`` when ``carries_sub``, else the
    labeled formula itself.  An ``every`` rule demands it at every
    alternative, any other at one.  ``message`` is the violation message,
    with ``{agent}``, ``{w}`` and ``{v}`` filled in.
    """

    kind: str
    negated: bool
    carries_sub: bool
    every: bool
    message: str


# The modal closure conditions, by (kind, negated, carries_sub, every, message).
C_B = ModalRule("C.B", False, True, False, "no {agent}-alternative of {w} labels the believed formula")
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
#: are not listed.
PROFILE_RULES: dict[LogicProfile, ProfileRules] = {
    LogicProfile.KD: ProfileRules((serial,), (C_B_STAR,)),
    LogicProfile.HSTAR: ProfileRules((serial, a3_witness), (C_B_STAR, C_CB)),
    LogicProfile.HINTIKKA: ProfileRules((serial, transitive), (C_B_STAR, C_BB_STAR)),
    LogicProfile.KD45: ProfileRules(
        (serial, transitive, euclidean), (C_B_STAR, C_BB_STAR, C_NB_STAR)
    ),
}


def frame_breaches(rows: Sequence[int], agent: str, profile: LogicProfile) -> Iterator[Breach]:
    """Breaches of ``profile``'s frame conditions by one agent's successor
    rows: condition by condition, cell by cell in ascending position, each
    listed once."""
    for condition in PROFILE_RULES[profile].frame:
        seen: set[tuple[int, ...]] = set()
        for position, holds in enumerate(condition.cells(rows)):
            if holds:
                continue
            for worlds, message in condition.breaches(rows, position, agent):
                if worlds not in seen:
                    seen.add(worlds)
                    yield condition.kind, worlds, message


def check_frame(m: ModelSystem, profile: LogicProfile) -> list[Violation]:
    """Frame-condition violations of ``m`` for ``profile``, empty if none."""
    return [
        Violation(kind, worlds, None, message)
        for agent in sorted(m.alternatives)
        for kind, worlds, message in frame_breaches(_successor_rows(m, agent), agent, profile)
    ]


def _neg_in(label: set[Formula], f: Formula) -> bool:
    return Not(f) in label or (isinstance(f, Not) and f.sub in label)


def check_model_set(lm: LabeledModelSystem, profile: LogicProfile) -> list[Violation]:
    """Frame violations plus closure-condition violations of the labels.

    The propositional conditions and the base modal conditions (C.B) and
    (C.C) are checked for every profile, then the profile's propagation
    rules from ``PROFILE_RULES``.  A negated belief formula ~B[a] q counts
    as the compatibility statement C[a] ~q when (C.C) looks for its
    witness, which is the dual-definition reading; the "C.BDef" and "C.CDef"
    kinds never fire on desugared labels.
    """
    m = lm.model
    violations = check_frame(m, profile)
    rules = PROFILE_RULES[profile]
    rows_by_agent = {agent: _successor_rows(m, agent) for agent in m.alternatives}
    label_sets = {w: set(lm.label(w)) for w in range(m.worlds)}

    for w in range(m.worlds):
        label = label_sets[w]
        seen_clashes: set[Formula] = set()
        for f in lm.label(w):
            if isinstance(f, Not) and f.sub in label:
                positive = f.sub
                if positive not in seen_clashes:
                    seen_clashes.add(positive)
                    violations.append(
                        Violation(
                            "C.~", (w,), positive,
                            f"both {render(positive)} and its negation labeled at {w}",
                        )
                    )
        for f in lm.label(w):
            if isinstance(f, And):
                for side, sub in (("left", f.left), ("right", f.right)):
                    if sub not in label:
                        violations.append(
                            Violation("C.&", (w,), f, f"{side} conjunct missing at {w}")
                        )
            elif isinstance(f, Or):
                if f.left not in label and f.right not in label:
                    violations.append(
                        Violation("C.v", (w,), f, f"no disjunct labeled at {w}")
                    )
            elif isinstance(f, Not) and isinstance(f.sub, Not):
                if f.sub.sub not in label:
                    violations.append(
                        Violation("C.~~", (w,), f, f"unwrapped formula missing at {w}")
                    )
            elif isinstance(f, Not) and isinstance(f.sub, And):
                if not (_neg_in(label, f.sub.left) or _neg_in(label, f.sub.right)):
                    violations.append(
                        Violation("C.~&", (w,), f, f"no negated conjunct labeled at {w}")
                    )
            elif isinstance(f, Not) and isinstance(f.sub, Or):
                for side, sub in (("left", f.sub.left), ("right", f.sub.right)):
                    if not _neg_in(label, sub):
                        violations.append(
                            Violation(
                                "C.~v", (w,), f,
                                f"negated {side} disjunct missing at {w}",
                            )
                        )

        for f in lm.label(w):
            negated = isinstance(f, Not)
            belief = f.sub if negated else f
            if not isinstance(belief, Bel):
                continue
            agent = belief.agent.name
            succ = _bits(rows_by_agent[agent][w]) if agent in rows_by_agent else []
            if negated and not any(
                neg(belief.sub) in label_sets[v] or Not(belief.sub) in label_sets[v]
                for v in succ
            ):
                violations.append(
                    Violation(
                        "C.C", (w,), f,
                        f"no {agent}-alternative of {w} labels the denied formula's negation",
                    )
                )
            for rule in (C_B, *rules.propagation):
                if rule.negated != negated:
                    continue
                carried = f.sub if rule.carries_sub else f
                if rule.every:
                    for v in succ:
                        if carried not in label_sets[v]:
                            violations.append(
                                Violation(rule.kind, (w, v), f, rule.message.format(agent=agent, v=v))
                            )
                elif not any(carried in label_sets[v] for v in succ):
                    violations.append(
                        Violation(rule.kind, (w,), f, rule.message.format(agent=agent, w=w))
                    )
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
            agent: [list(pair) for pair in sorted(pairs)]
            for agent, pairs in sorted(m.alternatives.items())
        },
    }


def _require(condition: bool, message: str) -> None:
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
    designated = data.get("designated", 0)
    _require(
        isinstance(designated, int) and not isinstance(designated, bool),
        "'designated' must be an integer",
    )
    valuation_raw = data.get("valuation", {})
    _require(isinstance(valuation_raw, dict), "'valuation' must be an object")
    valuation: dict[int, frozenset[str]] = {}
    for key, atom_list in valuation_raw.items():
        _require(key.isdigit(), f"valuation key {key!r} is not a world index")
        _require(
            isinstance(atom_list, list) and all(isinstance(s, str) for s in atom_list),
            f"valuation for world {key} must be a list of atom names",
        )
        valuation[int(key)] = frozenset(atom_list)
    alternatives_raw = data.get("alternatives", {})
    _require(isinstance(alternatives_raw, dict), "'alternatives' must be an object")
    alternatives: dict[str, frozenset[tuple[int, int]]] = {}
    for agent, pair_list in alternatives_raw.items():
        _require(isinstance(pair_list, list), f"alternatives for {agent!r} must be a list")
        pairs = set()
        for pair in pair_list:
            _require(
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair),
                f"alternative for {agent!r} must be a [from, to] pair: {pair!r}",
            )
            pairs.add((pair[0], pair[1]))
        alternatives[agent] = frozenset(pairs)
    return ModelSystem(
        worlds=worlds, designated=designated, valuation=valuation, alternatives=alternatives
    )


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
        _require(key.isdigit(), f"labels key {key!r} is not a world index")
        _require(
            isinstance(texts, list) and all(isinstance(s, str) for s in texts),
            f"labels for world {key} must be a list of formula strings",
        )
        labels[int(key)] = tuple(desugar(parse(text)) for text in texts)
    return LabeledModelSystem(model=model, labels=labels)
