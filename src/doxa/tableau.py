"""Tableau decision procedure with verified countermodels and refutation traces.

``decide_sat`` desugars the query, seeds a single world with it, and
saturates worlds under the closure conditions of the chosen profile using a
fixed rule priority:

    1. non-branching propositional rules      (C.&), (C.~~), (C.~v)
    2. negated-modal rewrites                 (C.BDef-rewrite)
    3. branching propositional rules          (C.v), (C.~&), left first
    4. propagation into and out of alternatives
                                              (C.B*), (C.CB), (C.BB*),
                                              (C.~B*), (C.B-lift)
    5. world creation                         (C.C), (C.CB), (C.B)

    Propagation outranks world creation so that a world's label is saturated
    with everything flowing into it before the label can spawn successors;
    creating worlds from half-filled labels would let each late arrival
    spawn another sibling and the tree outgrow its blocking bound.

A negated belief ``~B[a] q`` is read as the compatibility statement
``C[a] ~q``; the rewrite records that reading as a trace step and the
demand then spawns one fresh alternative containing ``~q`` per (C.C).

Profiles differ only in the modal rules, which step 4 reads from the
profile's row of ``models.PROFILE_RULES``.  Every profile propagates believed
formulas into alternatives per (C.B*).  The hintikka profile also propagates
beliefs into every alternative per (C.BB*), and the kd45 profile beliefs and
negated beliefs.  A euclidean profile (kd45) additionally lifts beliefs from
an alternative back to its creator; the lift is what makes every member of
a belief cluster agree on what is believed, so that a euclidean model can be
read off an open branch.

Step 5 serves one needy agent per world.  The hstar profile has the
weak-introspection witness (C.CB): each believing world designates, for
each believing agent, one alternative that receives the belief formulas
themselves, first trying to reuse an existing alternative and falling back
to a fresh witness world if reuse closes the branch.  Its needy agent is
the first believing agent without a witness.  Every other profile spawns a
seriality witness per (C.B), and its needy agent is the first believing
agent without an alternative.  A witness is itself an alternative, so under
hstar (C.CB) serves every agent that (C.B) would, and (C.B) never fires
there.  A (C.C) demand and a (C.B) belief seed their new world the same way.

Blocking: world labels are subsets of the query's subformula closure, so
only finitely many labels exist.  A world whose label equals the label of
one of its candidate blockers (two equal bitsets of closure ids) creates no
world; at model extraction its incoming edge enters the blocker instead.
Which worlds are candidates depends on the frame:

    - kd, hstar and hintikka: every world created before it on the branch,
      in any subtree and for any agent, and the blocker is the earliest
      one with the label (anywhere blocking, after Motik, Shearer &
      Horrocks, "Hypertableau reasoning for description logics", JAIR 36,
      2009).  No rule of these profiles sends a formula from a world back
      to its creator, so what a world's expansion adds below it depends on
      its label alone, and the blocker's expansion stands in for the
      blocked world's.  The earliest world with a label has no earlier one
      with that label, so no blocker is itself blocked;
    - kd45: only a strict ancestor on the unbroken chain of alternatives
      for the agent that created the world, itself created for that agent,
      nearest first.  (C.B-lift) sends beliefs from a world back to its
      creator, so a world's label is never final, and only a blocker in the
      same belief cluster keeps the cluster's beliefs in agreement.

Termination.  Under kd and hintikka a label grows only by its own world's
rules and by what the world's creator sends down, and step 5 creates only
when steps 1-4 have nothing left anywhere, so when a world creates, every
label on the branch is final until backtracking.  A world that creates
therefore stays unblocked, no two worlds that create share a label, and
each creates at most one world per demand and per agent: a branch is
finite.  Under hstar a (C.CB) reuse sends its creator's beliefs into an
existing alternative, which may have created already if its creator slept
meanwhile, so there the count holds only for the worlds unblocked at each
moment; under kd45 (C.B-lift) changes labels above.  Every profile checks
the world count against a bound derived from the closure, and exceeding it
is an internal error, never a verdict.

Extraction keeps the worlds that the seed reaches through the edges, once
every edge into a blocked world enters its blocker, and numbers them in
world order.  Under kd, hintikka and kd45 these are the worlds whose every
ancestor is unblocked.  Under hstar a blocker's own creator may have been
blocked after it created, and the blocker is then reached only through the
redirected edge.  The result is a finite, possibly cyclic model.
Extraction then completes each relation, one successor row per world, to
the profile's frame class: each frame condition adds its own completion
(the a3-witness fixpoint, Warshall's transitive closure, or euclidean
belief clusters), then seriality loops fill empty rows, and it finally
re-verifies the model with ``check_frame`` and ``evaluate``; a failed
re-verification is an internal error, never a verdict.

Incremental scanning: on a branch, labels only grow, and a rule can only
stop applying to a label entry, never start again: what it would add stays
in place once added.  Each world therefore keeps its label entries in
insertion order, one cursor for the scans of steps 1 and 2 (step 2 scans
the span that step 1 just scanned), one for step 3, and one cursor per
propagation rule: into its own entries for (C.CB) and (C.B-lift), into its
creator's for the down rules, which send formulas down the edge from the
creator.  Every world but the seed has exactly that one incoming edge, so
a world records it as its parent (agent, creator, dependency set), and its
creator records it in a bitset of children.  A world's own bitsets of
worlds, its children and its sleepers below, are relative to its id: bit k
stands for the world k ids after it, so each is as long as the ids it
spans, not as the ids before it.  A scan resumes at its cursor instead of
at the first entry; no entry before a cursor can fire again.  The one
exception is a belief that (C.CB) passes over while its world has no
designated witness for the belief's agent: designating the witness resets
that world's (C.CB) cursor.  Cursors are restored with their world on
backtracking, so rules fire in exactly the order a full rescan after every
firing would give.

Label entries are members of the query's subformula closure, and each query
is compiled once into a read-only closure table, after the normalise and
encode step of Horrocks & Patel-Schneider (cited below).  One pass over the
desugared query's nodes, children first, numbers each member once: a node g
that is not a negation, then ~g right after it, and a ~~x after its ~x, so
of two members that clash, x and ~x, the positive one has the lower id.
The id of ~g is arithmetic, and no node is interned: the table lists each
member by id as its positive node and whether it is negated.  The same pass
gives each member its clash mask, the bitset of the ids it clashes with
(its negation and the formula it negates), the modal facts, and the step-1
and step-3 facts from the one table of propositional conditions,
``models.PROPOSITIONAL_RULES``, which ``check_model_set`` also reads,
looked up with the member's positive node and whether it is negated: a
condition that demands every part is a step-1 rule, one that demands one
part a step-3 branch with one alternative per part.  The table also holds
the agent names and the world bound.  Every fact is keyed by id and names
members by id: each member's step-1 rule and parts, its step-2 demand, its
step-3 options, the agent of each belief and negated belief, and each
belief's believed member.  A world's label is one int bitset of its
members' ids beside its entries, each (member, step, dependency set), in
insertion order.  Membership is one bit, a clash is one AND of the label's
bits with the new member's clash mask, and blocking compares two ints.
Steps 1-3 and ``_add`` read these facts instead of testing node classes.  A
trace step names its formula by id as well, a (C.BDef-rewrite) step by
``~f`` for the id f of its negated belief, and an extracted model's
valuation reads the table's atoms by id.  So no node is built while the
search runs, nor for a model: nodes are built for the trace steps of an
unsatisfiable verdict only, each distinct one once, when the verdict is
made.  The last table stays in ``_compile``, an ``lru_cache`` of one entry
keyed by the query node: a formula decided under several profiles, or
``decide_valid``'s ``Not(f)`` under several, is compiled once.  Nodes are
hash-consed, so a structurally equal query is the same node, and the key is
exact; the cache holds that one query's nodes and table alive, and no other
query's.

Agendas, after the ToDo list of Tsarkov & Horrocks ("FaCT++ description
logic reasoner: system description", IJCAR 2006): steps 4 and 5 visit
only the worlds that may have work, kept as int bitsets of world ids.
``agenda[r]`` holds the worlds whose cursor for propagation rule r may lag
behind an entry the rule can fire on, a belief (a negated belief for
(C.~B*)).  ``todo`` holds the worlds that may have a demand left to spawn,
or a needy agent.  Step 4 takes the rules in the profile's order and, for
each rule, its worlds lowest id first; a world leaves the rule's agenda
once its scan reaches the end of its source entries.  A world off the
agenda has no belief past its cursor, only entries that a scan would pass
over, so step 4 fires what a sweep over every (rule, world) pair in
creation order would fire.  Step 5 walks ``todo`` the same way, reading
per-world records of each agent's first belief, first alternative and
witness; a world with nothing left to create leaves it.  So does a
blocked world, which sleeps: step 5 sets its bit in the ``sleepers``
bitsets of the world itself and of its blocker.  Along a branch labels
only grow, so a sleeping world stays blocked while neither of the two
labels grows.  The agendas miss no work, because a (rule, world) pair or
a world gains work, and a sleeping world may lose its blocker, only
through these events, each of which marks it:

    - ``_add`` of a belief marks its world in the agendas of the rules
      that scan their own world, (C.CB) and (C.B-lift), and an agent's
      first belief in a world marks the world to do;
    - ``_add`` of a belief or a negated belief marks the world's children
      in the agenda of every down rule.  A bit only says that a scan may
      have work, and a down rule's scan passes over only entries that any
      later scan would pass over too: the rule's kind and the edge's agent
      are fixed, and a target entry stays along a branch;
    - a new world is marked in the agenda of every down rule, since its
      cursors start at the first entry of its creator;
    - a (C.BDef-rewrite) demand marks its world to do, and a (C.CB)
      designation, which resets its world's (C.CB) cursor, marks the world
      for (C.CB);
    - ``_add`` to a world with sleepers wakes them: it marks them to do
      and clears the world's sleepers.

A bit is cleared only when the scan has reached the end, or when the world
has nothing left to create or sleeps, so work found afterwards comes from
one of the events above.  Backtracking is the one other change, and a
choice point saves the agendas with the rest of its state: they covered
every pair with work at the choice point, and trying its next alternative
returns every world, its sleepers included, to its state there.

Steps 1-3 scan one world only, the focus: the world that ``_add`` wrote
last.  Steps 1-3 read and write only the world they scan.  Every other
action writes exactly one world: a step-4 propagation, a step-5 creation
or a branch alternative (a (C.CB) alternative writes no label, so it
leaves the focus where it was).  Steps 1-3 outrank steps 4 and 5, so once
they have nothing left in the focus they have nothing left anywhere, and
the next action leaves work for them in the world it writes only.  A
choice point saves the focus with the rest of its state, since the world
it names may be dropped below it.  Steps 1 and 2 add entries to the focus
only, so each runs to completion in one call.

The search changes one branch in place and undoes it from a trail (Eén &
Sörensson, "An extensible SAT-solver", SAT 2003).  Before its first change
since the current alternative was applied, a world is logged on the trail
with a mark: the lengths of its lists and records, its bitsets of label
members, children and sleepers, and its cursors, which is all that undoing
the later changes needs, since along a branch those lists and records only
grow.  At a choice point steps 1 and 2 have scanned every entry of every
world, so a mark leaves out their cursor, and restoring a world sets it to
its entry count.  For the same reason a cursor of steps 1-3 moves only in
a world already logged: by the entry it reaches, or by the branch
alternative written into it.  The branch's trace is a list of steps, each
a plain tuple, and a step's number is its position in the list;
``ProofStep`` records are built once, for the verdict.  ``_step`` returns
a choice point as the tuple of its alternatives, and the choice point
keeps the lengths of the trail, the world list and the trace, the focus
and the agendas.  Trying its next
alternative restores the worlds logged since, cuts the world list and the
trace back to their saved lengths, and resets the focus and the agendas;
until then the steps of the alternative that closed are the trace past its
saved length.  The open choice points sit on an explicit stack instead of
the call stack, so the search depth is bounded by memory only, and memory
grows with the work done on the branch, not with its depth times its label
size.  Once every branch has closed, ``run`` returns None, and the trace is
the branch that closed last.

Dependency-directed backjumping (Horrocks & Patel-Schneider, "Optimizing
description logic subsumption", J. Logic Comput. 9(3), 1999): a choice
point is a (C.v)/(C.~&) branch or a (C.CB) choice between reusing an
alternative and spawning a fresh witness, and the choice points open on a
branch are numbered by depth.  Every label entry, demand, edge and witness
designation carries a dependency set, an int bitset whose bit d stands for
the choice point at depth d:

    - the seed has the empty set;
    - an entry made by (C.&), (C.~~) or (C.~v), and the demand that
      (C.BDef-rewrite) records, takes its premise's set; an entry made by
      (C.C) or (C.B), and the edge to its new world, take the set of the
      demand or belief;
    - a branch alternative at choice d takes its premise's set plus d;
    - (C.B*), (C.BB*), (C.~B*) and (C.B-lift) give the target entry the
      source entry's set plus the edge's;
    - a (C.CB) witness designated at choice d has d plus the set of its edge
      (just d for a fresh witness), and (C.CB) adds that to the set of each
      belief it sends there;
    - a clash closes the branch with the union of its two entries' sets.

At choice point d, the first alternative whose closing set lacks d closes
the choice point at once with that set, and the remaining alternatives are
skipped; if every alternative closes with d in its set, the choice point
closes with the union of their sets minus d.  A set lacking d names only
choices made before d, which every alternative of d shares, and the rules
that derived the clash fire in each of them again, so each skipped
alternative would have closed.  Three decisions read an absence, and each
still closes the skipped alternatives:

    - blocking: a blocked world's label equals its blocker's, so whatever
      closes below one closes below the other, wherever the blocker sits;
    - (C.B) fires only while its world has no alternative for the agent,
      and (C.B*) sends every believed formula into any alternative, so an
      alternative made otherwise receives all that the (C.B) witness would;
    - the (C.CB) reuse candidate is the world's first alternative for the
      agent.  A clash that uses the designation has d and the set of that
      alternative's edge in its set.  A clash lacking d did not use it, and
      a fresh witness, which only receives what (C.CB) and (C.B*) send,
      leaves the rest of the branch as it was.

Depth-first search therefore reaches the same first open branch, and so
returns the same model, as chronological backtracking would.

Branch exploration is depth-first and wholly deterministic: identical
inputs yield byte-identical traces and models.  On an unsatisfiable input
the reported trace is the closed branch that ended the search, numbered
consecutively, and its final step is always the (C.~-clash) that closed
it: the last alternative explored, or the one whose clash made the search
jump past every remaining alternative.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .formula import (
    Atom,
    Bel,
    Comp,
    Formula,
    Not,
    Record,
    desugar,
    postorder,
    render,
)
from .models import (
    C_B,
    C_C,
    C_CB,
    PROFILE_RULES,
    PROPOSITIONAL_RULES,
    InternalVerificationError,
    LogicProfile,
    ModalRule,
    ModelSystem,
    ProfileRules,
    _bits,
    a3_witness,
    check_frame,
    euclidean,
    evaluate,
    model_to_json_dict,
    propositional_conditions,
    transitive,
)

#: Lifts a belief from an alternative back to the world that created it.
#: Added to the propagation rules of a euclidean profile: it makes every
#: member of a belief cluster agree on what is believed.
_B_LIFT = ModalRule("C.B-lift", negated=False, carries_sub=False, every=True, message="")


class _Propagation:
    """A profile's propagation rules as step 4 reads them.  ``steps`` gives
    each rule's (kind, every, negated, carries_sub, down) in firing order: a
    ``down`` rule sends its world's creator's entries down the edge into
    it, any other scans the world's own entries.  The index tuples name the
    agendas that gain work: ``own`` at a world gaining a belief, ``down``
    at its children when it gains a belief or a negated belief, and at a
    new world.  ``cb`` is the index of (C.CB), or None."""

    __slots__ = ("steps", "own", "down", "cb")

    def __init__(self, rules: ProfileRules) -> None:
        chain = rules.propagation + ((_B_LIFT,) if euclidean in rules.frame else ())
        down = [rule.every and rule is not _B_LIFT for rule in chain]
        # only a belief marks a world in its own agendas
        assert not any(rule.negated for rule, d in zip(chain, down) if not d)
        self.steps = tuple(
            (rule.kind, rule.every, rule.negated, rule.carries_sub, d)
            for rule, d in zip(chain, down)
        )
        indices = range(len(chain))
        self.own = tuple(r for r in indices if not down[r])
        self.down = tuple(r for r in indices if down[r])
        self.cb = chain.index(C_CB) if C_CB in chain else None


#: Each profile's propagation rules, built once.
_PROPAGATION = {profile: _Propagation(rules) for profile, rules in PROFILE_RULES.items()}


#: The rule names of a step-3 branch's two alternatives, by the kind of
#: its propositional condition: which part the alternative took.
_SIDES = {
    rule.kind: (f"{rule.kind}-left", f"{rule.kind}-right")
    for rule in PROPOSITIONAL_RULES.values()
    if not rule.every
}


#: Every rule name that may appear in a proof trace: the step-1 rules, each
#: side of a step-3 branch, the modal rules of every profile, and the
#: engine's own seed, rewrite and clash steps.
RULES: tuple[str, ...] = tuple(dict.fromkeys([
    "seed", "C.BDef-rewrite", "C.~-clash", _B_LIFT.kind, C_C.kind, C_B.kind,
    *(rule.kind for rule in PROPOSITIONAL_RULES.values() if rule.every),
    *(side for sides in _SIDES.values() for side in sides),
    *(rule.kind for rules in PROFILE_RULES.values() for rule in rules.propagation),
]))


class _Closure:
    """The read-only closure table of one query (see the module docstring),
    built in one pass over the desugared query's nodes, children first.
    ``seed`` is the id of the desugared query, and ``clash`` gives each id
    the bitset of the members it clashes with.  ``members`` lists each
    member by id as (id, positive node, whether it is negated), from which
    ``member`` builds a node on request, and ``atoms`` maps the id of each
    atom to its name.  The facts are keyed by id and name members by id: ``saturate`` maps a member to its step-1
    (rule, parts), ``demand`` to its step-2 (agent, demanded member),
    ``options`` to its two step-3 (member, rule) alternatives,
    ``believer`` maps each belief to its agent, and ``sub`` to its
    believed member.  A negated belief is numbered right after its belief,
    so its agent is ``believer[f - 1]``.  ``saturate`` and ``options`` hold
    the ``PROPOSITIONAL_RULES`` of ``models``, looked up for each member as
    its positive node and whether it is negated: a condition that demands
    every part is a step-1 rule, one that demands one part a step-3
    branch."""

    __slots__ = (
        "query", "kernel", "members", "atoms", "seed", "clash", "agent_names", "world_bound",
        "saturate", "demand", "options", "believer", "sub",
    )

    def __init__(self, query: Formula) -> None:
        self.query = query
        self.kernel = desugar(query)
        ids: dict[Formula, int] = {}  # each kernel node -> its id
        self.members = members = []
        self.clash = clash = []
        self.saturate, self.demand, self.options = saturate, demand, options = {}, {}, {}
        self.believer, self.sub = believer, sub = {}, {}
        for g in postorder(self.kernel):
            if type(g) is not Not:
                # g, then ~g right after it, each clashing with the other
                i = len(members)
                ids[g] = i
                members.append((i, g, False))
                members.append((i + 1, g, True))
                clash.append(2 << i)
                clash.append(1 << i)
                if type(g) is Bel:
                    believer[i] = g.agent.name
                    sub[i] = ids[g.sub]
                    demand[i + 1] = (g.agent.name, _lowest(clash[sub[i]]))
            elif type(g.sub) is not Not:
                # a ~x, numbered with its x
                ids[g] = ids[g.sub] + 1
            else:
                # a ~~x, after its ~x
                i = len(members)
                ids[g] = i
                members.append((i, g.sub, True))
                clash.append(1 << ids[g.sub])
                clash[ids[g.sub]] |= 1 << i
        for f, rule, parts in propositional_conditions(members):
            # a negated rule's parts are the negations of the formula's
            # parts, members too: the lowest member each part clashes with
            parts = tuple([_lowest(clash[ids[p]]) if rule.negated else ids[p] for p in parts])
            if rule.every:
                saturate[f] = (rule.kind, parts)
            else:
                options[f] = tuple(zip(parts, _SIDES[rule.kind]))
        self.atoms = {i: g.name for i, g, negated in members if type(g) is Atom and not negated}
        self.seed = ids[self.kernel]
        self.agent_names = sorted(set(believer.values()))
        self.world_bound = 2 ** min(len(members), 20)

    def member(self, f: int) -> Formula:
        """The node of the trace id ``f``: member f, or for ``~f`` of a
        negated belief f the ``Comp`` node of its (C.BDef-rewrite) demand.
        A node that the kernel lacks is built here."""
        _, core, negated = self.members[self.demand[~f][1] if f < 0 else f]
        g = Not(core) if negated else core
        return Comp(self.members[~f][1].agent, g) if f < 0 else g


def _lowest(bits: int) -> int:
    """The lowest id in the nonempty bitset ``bits``."""
    return (bits & -bits).bit_length() - 1


#: The closure table of ``query``, cached for the last query compiled.
_compile = functools.lru_cache(maxsize=1)(_Closure)


class ProofStep(NamedTuple):
    """One line of a refutation trace: formula ``formula`` entered world
    ``world`` at position ``i`` by ``rule`` from the premises at the given
    earlier positions."""

    i: int
    world: str
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()


class TableauStats(Record):
    """The work counts of one search, which its engine raises as it goes.
    ``choice_points`` counts the choice points opened, branching and
    (C.CB), and ``skipped`` the alternatives of theirs that a backjump
    skipped."""

    __slots__ = ("worlds_created", "rules_fired", "blocks_applied", "choice_points", "skipped")
    # counters: assignable, and so, like a dataclass that is not frozen, unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self, worlds_created: int = 0, rules_fired: int = 0, blocks_applied: int = 0,
        choice_points: int = 0, skipped: int = 0,
    ) -> None:
        self.worlds_created, self.rules_fired, self.blocks_applied = (
            worlds_created, rules_fired, blocks_applied
        )
        self.choice_points, self.skipped = choice_points, skipped


class SatVerdict(Record):
    __slots__ = ("model", "stats")
    word, positive, is_sat = "sat", True, True

    def __init__(self, model: ModelSystem, stats: TableauStats) -> None:
        self._set(model=model, stats=stats)

    @property
    def evidence(self) -> ModelSystem:
        return self.model


class UnsatVerdict(Record):
    __slots__ = ("trace", "stats")
    word, positive, is_sat = "unsat", False, False

    def __init__(self, trace: tuple[ProofStep, ...], stats: TableauStats) -> None:
        self._set(trace=trace, stats=stats)

    @property
    def evidence(self) -> tuple[ProofStep, ...]:
        return self.trace


class ValidityVerdict(Record):
    """Validity via refutation: valid when the negated query is
    unsatisfiable (carrying that refutation trace), invalid otherwise
    (carrying a countermodel that falsifies the query)."""

    __slots__ = ("valid", "trace", "countermodel", "stats")

    def __init__(
        self,
        valid: bool,
        trace: tuple[ProofStep, ...] | None,
        countermodel: ModelSystem | None,
        stats: TableauStats,
    ) -> None:
        self._set(valid=valid, trace=trace, countermodel=countermodel, stats=stats)

    @property
    def word(self) -> str:
        return "valid" if self.valid else "invalid"

    @property
    def positive(self) -> bool:
        return self.valid

    @property
    def evidence(self) -> ModelSystem | tuple[ProofStep, ...]:
        return self.trace if self.valid else self.countermodel


#: Every verdict gives its ``word`` ("sat", "unsat", "valid" or "invalid"),
#: whether it is ``positive`` (the CLI exits 0, else 1) and its ``evidence``:
#: the (counter)model when there is one, otherwise the refutation trace.
Verdict = SatVerdict | UnsatVerdict | ValidityVerdict

def _steps(trace: list[tuple], table: _Closure) -> tuple[ProofStep, ...]:
    """The ``ProofStep`` records of a branch's trace of (world id, trace
    id, rule, premises) steps, numbered by position from 1.  The node of
    each distinct trace id is built once, here, so the table stays
    read-only."""
    nodes = {f: table.member(f) for f in {step[1] for step in trace}}
    return tuple(
        ProofStep(i, f"w{wid}", nodes[f], rule, premises)
        for i, (wid, f, rule, premises) in enumerate(trace, 1)
    )


class _Closed(Exception):
    """Internal to ``_Engine``: the current branch closed; carries the
    dependency set of the clash, the choice points it rests on."""

    def __init__(self, deps: int) -> None:
        super().__init__("branch closed")
        self.deps = deps


class _World:
    __slots__ = (
        "id", "parent", "epoch", "bits", "entries", "demands", "spawn_cursor", "cb",
        "beliefs", "alternatives", "saturated", "branched", "cursors",
        "children", "sleepers",
    )

    def __init__(
        self, wid: int, parent: tuple[str, int, int] | None, epoch: int, rules: int
    ) -> None:
        self.id = wid
        # (agent, creator, dependency set of the edge from the creator), the
        # one edge into this world; None for the seed world
        self.parent = parent
        # the engine's epoch when this world was made or last logged on the
        # trail
        self.epoch = epoch
        # the label: the bitset of its members' closure ids, and its entries
        # (member, step index, dependency set) in insertion order, for the
        # scan cursors
        self.bits = 0
        self.entries: list[tuple[int, int, int]] = []
        # (agent, member for the fresh alternative, premise step index,
        # dependency set)
        self.demands: list[tuple[str, int, int, int]] = []
        self.spawn_cursor = 0
        # agent -> (designated witness, dependency set of the designation)
        self.cb: dict[str, tuple[int, int]] = {}
        # agent -> the entry of the first believed formula of that agent
        self.beliefs: dict[str, tuple[int, int, int]] = {}
        # agent -> (first alternative created for that agent, dependency
        # set of its edge)
        self.alternatives: dict[str, tuple[int, int]] = {}
        # scan cursors into ``entries``: one for steps 1 and 2, which step 2
        # scans over the span that step 1 scanned, and one for step 3
        self.saturated = 0
        self.branched = 0
        # one scan cursor per propagation rule: into this world's own
        # entries for (C.CB) and (C.B-lift), into its creator's otherwise
        self.cursors = [0] * rules
        # bitset of the worlds this one created, bit k for world id + k
        self.children = 0
        # bitset of the blocked worlds off ``todo`` that this world's label
        # growing may wake, bit k for world id + k: itself if it is one,
        # and those it blocks
        self.sleepers = 0

    def mark(self) -> tuple:
        """The world and what ``restore`` needs to undo every later change.
        Along a branch ``entries``, ``demands``, ``cb``, ``beliefs`` and
        ``alternatives`` only gain entries, and no dict key is ever
        overwritten, so their lengths are enough: ``restore`` pops the
        newest keys of the dicts, which keep insertion order.  The bitsets
        are saved by value, and the cursors come last."""
        return (
            self, self.bits, len(self.entries), len(self.demands), self.children, len(self.cb),
            len(self.beliefs), len(self.alternatives), self.branched, self.spawn_cursor,
            self.sleepers, *self.cursors,
        )

    def restore(self, mark: tuple) -> None:
        (
            _, self.bits, entries, demands, self.children, cb, beliefs, alternatives,
            self.branched, self.spawn_cursor, self.sleepers, *cursors,
        ) = mark
        # a mark holds the world as it was at a choice point, where steps 1
        # and 2 had scanned every entry
        self.saturated = entries
        del self.entries[entries:]
        del self.demands[demands:]
        for records, length in (
            (self.cb, cb), (self.beliefs, beliefs), (self.alternatives, alternatives)
        ):
            while len(records) > length:
                records.popitem()
        self.cursors[:] = cursors


class _Engine:
    def __init__(self, query: Formula, profile: LogicProfile) -> None:
        # the query's closure table, shared with every profile's engine
        # for the same query node; holding it keeps the closure's nodes alive
        self.table = _compile(query)
        self.profile = profile
        self.frame = PROFILE_RULES[profile].frame
        self.propagation = _PROPAGATION[profile]
        self.stats = TableauStats()
        # the one branch the search is on, changed in place, and its steps
        # as (world id, formula, rule, premises), step i at index i - 1
        self.worlds = [_World(0, None, 0, len(self.propagation.steps))]
        self.trace: list[tuple] = []
        # the mark of each world changed since the alternative that began
        # the world's epoch was applied; nothing is logged before the first
        # choice point, whose first alternative begins epoch 1
        self.trail: list[tuple] = []
        self.epoch = 0
        # the world ``_add`` wrote last, the only one steps 1-3 scan
        self.focus = 0
        # bitsets of worlds that may have work: one per propagation rule for
        # step 4, and one for step 5 (see the module docstring)
        self.agenda = [0] * len(self.propagation.steps)
        self.todo = 0
        # whether only an ancestor on one agent's chain may block a world
        # (see ``_blocker``)
        self.chain = euclidean in self.frame

    # ------------------------------------------------------------------
    # search

    def run(self) -> ModelSystem | None:
        """The model of the first open branch, or None once every branch
        has closed, leaving ``trace`` on the branch that closed last.
        Depth-first search over an explicit stack of the open choice
        points, the one at depth d at index d.  An entry is [(trail length,
        world count, trace length, focus, agendas) when the choice was
        made, its alternatives, the index of the next one to try, the union
        of the closing sets of those tried].  ``pending`` says that the
        innermost entry is due to try its next alternative."""
        self._add(0, self.table.seed, "seed", (), 0)
        stack: list[list] = []
        pending = False
        while True:
            try:
                if pending:
                    saved, alternatives, k, _ = entry = stack[-1]
                    length, count, steps, self.focus, agenda, self.todo = saved
                    entry[2] = k + 1
                    while len(self.trail) > length:
                        mark = self.trail.pop()
                        mark[0].restore(mark)
                    del self.worlds[count:]
                    del self.trace[steps:]
                    self.agenda[:] = agenda
                    self.epoch += 1
                    pending = False
                    self._apply(alternatives[k], 1 << (len(stack) - 1))
                alternatives = self._step()
                if alternatives is None:
                    return self._extract()
                if alternatives:
                    self.stats.choice_points += 1
                    saved = (
                        len(self.trail), len(self.worlds), len(self.trace), self.focus,
                        tuple(self.agenda), self.todo,
                    )
                    stack.append([saved, alternatives, 0, 0])
                    pending = True
            except _Closed as closed:
                pending, deps = True, closed.deps
                while stack:
                    entry = stack[-1]
                    bit = 1 << (len(stack) - 1)
                    if deps & bit and entry[2] < len(entry[1]):
                        entry[3] |= deps
                        break
                    stack.pop()
                    if deps & bit:
                        deps = (entry[3] | deps) & ~bit
                    else:
                        # the clash does not rest on this choice: backjump
                        self.stats.skipped += len(entry[1]) - entry[2]
                else:
                    return None

    def _apply(self, alternative: tuple, bit: int) -> None:
        """Write an alternative of the choice point whose bit is ``bit``:
        (rule, world, formula or agent, premise or witness, dependency set
        without the choice point's own bit)."""
        rule, wid, x, y, deps = alternative
        deps |= bit
        if rule != C_CB.kind:
            self._add(wid, x, rule, (y,), deps)
            return
        target = self._spawn(wid, x, deps) if y is None else y
        w = self.worlds[wid]
        self._touch(w)
        w.cb[x] = (target, deps)
        # the (C.CB) scan passed over this agent's beliefs: rescan them
        cb = self.propagation.cb
        w.cursors[cb] = 0
        self.agenda[cb] |= 1 << wid

    # ------------------------------------------------------------------
    # one deterministic rule application

    def _step(self) -> tuple | None:
        """Fire the first rule that applies and return (), or return the
        alternatives of the choice point reached, each as ``_apply`` takes
        it, or None when no rule applies.  A branch tries its (C.v) or
        (C.~&) disjuncts left first; a (C.CB) choice tries the world's first
        alternative for the agent, if any, then a fresh world (witness
        None)."""
        # Steps 1-3 scan only the focus, the world written last: no other
        # world has entries they have not scanned, and no entry before a
        # cursor can fire again (see the module docstring).  Steps 1 and 2
        # write only the focus, so each runs to completion at once.
        w = self.worlds[self.focus]
        entries = w.entries
        table = self.table
        # 1. non-branching propositional saturation, from the cursor of steps
        # 1 and 2 to the end of the entries, which grows as it goes
        saturate = table.saturate
        i = start = w.saturated
        while i < len(entries):
            f, step, deps = entries[i]
            i += 1
            if f in saturate:
                rule, parts = saturate[f]
                for g in parts:
                    self._add(w.id, g, rule, (step,), deps)
        w.saturated = i

        # 2. negated-modal rewrites over the same span: ~B[a] q is the
        # demand C[a] ~q
        demands = table.demand
        for f, premise, deps in entries[start:i]:
            if f in demands:
                agent, demanded = demands[f]
                # the trace id ~f stands for the demand C[a] ~q
                step = self._record(w.id, ~f, "C.BDef-rewrite", (premise,))
                w.demands.append((agent, demanded, step, deps))
                self.todo |= 1 << w.id

        # 3. branching propositional rules
        options = table.options
        while w.branched < len(entries):
            f, premise, deps = entries[w.branched]
            w.branched += 1
            if f in options:
                (left, left_rule), (right, right_rule) = options[f]
                if not (w.bits >> left & 1 or w.bits >> right & 1):
                    return (
                        (left_rule, w.id, left, premise, deps),
                        (right_rule, w.id, right, premise, deps),
                    )

        # 4. propagation, rule by rule in the profile's order, world by world
        # in creation order among the worlds on the rule's agenda
        worlds, agenda, steps = self.worlds, self.agenda, self.propagation.steps
        believer = table.believer
        for r, pending in enumerate(agenda):
            if not pending:
                continue
            kind, every, negated, carries_sub, down = steps[r]
            while pending:
                low = pending & -pending
                pending ^= low
                w = worlds[low.bit_length() - 1]
                # the seed has no creator to lift a belief to
                if every and w.parent is None:
                    continue
                source = worlds[w.parent[1]] if down else w
                entries = source.entries
                if w.cursors[r] == len(entries):
                    continue
                self._touch(w)
                cursors = w.cursors
                if every:
                    agent, dst, via = w.parent
                    if down:
                        dst = w.id
                while cursors[r] < len(entries):
                    f, step, deps = entries[cursors[r]]
                    cursors[r] += 1
                    # a negated belief is numbered right after its belief
                    believing = believer.get(f - negated)
                    if believing is None:
                        continue
                    if not every:
                        # (C.CB) sends a belief into its world's designated witness
                        if believing not in w.cb:
                            continue
                        dst, via = w.cb[believing]
                    elif believing != agent:
                        continue
                    g = table.sub[f] if carries_sub else f
                    if not worlds[dst].bits >> g & 1:
                        # the world stays on the agenda: its scan is unfinished
                        agenda[r] = pending | low
                        self._add(dst, g, kind, (step,), deps | via)
                        return ()
            # every scan reached the end of its source's entries
            agenda[r] = 0

        # 5. world creation, world by world in creation order among the
        # worlds to do; only a world with something left to create is tested
        # for blocking, and a blocked world sleeps off ``todo`` until its
        # label or its blocker's grows
        witnesses = self.propagation.cb is not None
        pending = self.todo
        while pending:
            low = pending & -pending
            pending ^= low
            w = worlds[low.bit_length() - 1]
            demand = w.spawn_cursor < len(w.demands)
            # the first believing agent without a witness, or without an
            # alternative when the profile has no witness rule: a witness is
            # an alternative, so (C.CB) serves what (C.B) would
            served = w.cb if witnesses else w.alternatives
            needy = next((a for a in w.beliefs if a not in served), None)
            if not demand and needy is None:
                self.todo ^= low
                continue
            blocker = self._blocker(w)
            if blocker is not None:
                self._touch(w)
                self._touch(blocker)
                w.sleepers |= 1
                blocker.sleepers |= 1 << w.id - blocker.id
                self.todo ^= low
                continue
            if demand:
                agent, g, premise, deps = w.demands[w.spawn_cursor]
                rule = C_C.kind
            elif witnesses:
                fresh = (C_CB.kind, w.id, needy, None, 0)
                reuse = w.alternatives.get(needy)
                return (fresh,) if reuse is None else ((C_CB.kind, w.id, needy, *reuse), fresh)
            else:
                first, premise, deps = w.beliefs[needy]
                agent, g, rule = needy, table.sub[first], C_B.kind
            new_id = self._spawn(w.id, agent, deps)
            # ``_spawn`` logged ``w`` on the trail before the cursor moves
            w.spawn_cursor += demand
            self._add(new_id, g, rule, (premise,), deps)
            return ()
        return None

    # ------------------------------------------------------------------
    # primitive actions

    def _record(self, wid: int, f: int, rule: str, premises: tuple[int, ...]) -> int:
        self.trace.append((wid, f, rule, premises))
        self.stats.rules_fired += 1
        return len(self.trace)

    def _touch(self, w: _World) -> None:
        """Log ``w`` on the trail before its first change in this epoch."""
        if w.epoch != self.epoch:
            w.epoch = self.epoch
            self.trail.append(w.mark())

    def _add(
        self, wid: int, f: int, rule: str, premises: tuple[int, ...], deps: int
    ) -> None:
        w = self.worlds[wid]
        if w.bits >> f & 1:
            return
        self._touch(w)
        self.focus = wid
        entry = (f, self._record(wid, f, rule, premises), deps)
        w.entries.append(entry)
        w.bits |= 1 << f
        if w.sleepers:
            # the blocked worlds resting on this label may be unblocked
            self.todo |= w.sleepers << wid
            w.sleepers = 0
        agent = self.table.believer.get(f)
        if agent is not None:
            if agent not in w.beliefs:
                w.beliefs[agent] = entry
                self.todo |= 1 << wid
            for r in self.propagation.own:
                self.agenda[r] |= 1 << wid
        # a belief or a negated belief, numbered right after its belief
        if w.children and (agent is not None or f - 1 in self.table.believer):
            for r in self.propagation.down:
                self.agenda[r] |= w.children << wid
        clash = w.bits & self.table.clash[f]
        if clash:
            # a ~x meets x before ~~x, and the lower id of a clashing pair
            # is its positive formula
            other = _lowest(clash)
            # the other entry, most often among the newest; f's is the newest
            j, deps_j = next((s, d) for g, s, d in reversed(w.entries) if g == other)
            self._record(wid, min(f, other), "C.~-clash", (j, entry[1]))
            raise _Closed(deps | deps_j)

    def _spawn(self, parent: int, agent: str, deps: int) -> int:
        new_id = len(self.worlds)
        agenda = self.agenda
        self.worlds.append(_World(new_id, (agent, parent, deps), self.epoch, len(agenda)))
        creator = self.worlds[parent]
        self._touch(creator)
        creator.alternatives.setdefault(agent, (new_id, deps))
        creator.children |= 1 << new_id - parent
        bit = 1 << new_id
        for r in self.propagation.down:
            agenda[r] |= bit
        self.stats.worlds_created += 1
        if len(self.worlds) > self.table.world_bound:
            raise InternalVerificationError(
                f"world count exceeded the closure bound {self.table.world_bound}"
            )
        return new_id

    def _blocker(self, w: _World) -> _World | None:
        """The first of ``w``'s candidate blockers whose label equals
        ``w``'s, or None.  With ``chain`` (a euclidean frame) the candidates
        are the strict ancestors on the unbroken chain of alternatives for
        the agent that created ``w``, nearest first: only an ancestor that
        was itself created for that agent can block, so a redirect target
        always lies inside the same cluster.  Otherwise they are all the
        worlds created before ``w``, earliest first, in any subtree and for
        any agent, so the blocker found is itself never blocked."""
        bits = w.bits
        if self.chain:
            if w.parent is None:
                return None
            worlds = self.worlds
            agent = w.parent[0]
            current = worlds[w.parent[1]]
            while current.parent is not None and current.parent[0] == agent:
                if current.bits == bits:
                    return current
                current = worlds[current.parent[1]]
            return None
        for current in self.worlds[: w.id]:
            if current.bits == bits:
                return current
        return None

    # ------------------------------------------------------------------
    # model extraction

    def _extract(self) -> ModelSystem:
        """The model of the open branch.  The edge into a blocked world
        enters its blocker instead, and the model keeps the worlds that the
        seed reaches through the edges, numbered in world order.  No kept
        world is blocked: a blocker is the earliest world with its label,
        or, with ``chain``, an ancestor of the blocked world, and with
        ``chain`` every ancestor of a kept world is kept and so not
        blocked.  Each relation is then completed to the profile's frame
        class, and the model re-verified."""
        worlds = self.worlds
        target = list(range(len(worlds)))  # the world each world's edge enters
        blocked = 0
        for w in worlds:
            blocker = self._blocker(w)
            if blocker is not None:
                blocked += 1
                target[w.id] = blocker.id
        self.stats.blocks_applied += blocked
        # the seed reaches every world when none is blocked
        reached = _reached(worlds, target) if blocked else (1 << len(worlds)) - 1
        # creators and blockers precede their worlds, so each is numbered
        # before an edge names it
        keep: list[_World] = []
        index: dict[int, int] = {}  # kept world -> model world
        into: dict[int, int] = {}  # world with a kept creator -> model world its edge enters
        rows: dict[str, list[int]] = {a: [0] * reached.bit_count() for a in self.table.agent_names}
        for w in worlds:
            if reached >> w.id & 1:
                index[w.id] = len(keep)
                keep.append(w)
            if w.parent is not None and reached >> w.parent[1] & 1:
                agent, creator, _ = w.parent
                into[w.id] = v = index[target[w.id]]
                rows[agent][index[creator]] |= 1 << v

        for agent in self.table.agent_names:
            self._complete_relation(agent, rows[agent], keep, into)
        atoms = self.table.atoms
        valuation = {
            w: frozenset(atoms[f] for f, _, _ in world.entries if f in atoms)
            for w, world in enumerate(keep)
        }
        model = ModelSystem(
            worlds=len(keep),
            designated=0,
            valuation=valuation,
            rows={agent: tuple(agent_rows) for agent, agent_rows in rows.items()},
        )
        violations = check_frame(model, self.profile)
        if violations:
            raise InternalVerificationError(
                f"extracted model violates its frame class: {violations[0].kind}"
            )
        if not evaluate(model, 0, self.table.query):
            raise InternalVerificationError(
                "extracted model does not satisfy the query at the designated world"
            )
        return model

    def _complete_relation(
        self, agent: str, rows: list[int], keep: list[_World], into: dict[int, int]
    ) -> None:
        """Grow the raw tableau relation for one agent, as successor rows,
        into the profile's frame class without disturbing any labeled
        formula's truth.  Each frame condition of the profile's table row
        adds its own completion, in the row's order; every world then still
        without an alternative is its own."""
        if a3_witness in self.frame:
            # A world with no beliefs of this agent is its own witness; a
            # believing world inherits the successors of its designated
            # witness so that the witness's successor set nests inside its
            # own.
            witness: dict[int, int] = {}
            for w, world in enumerate(keep):
                if agent not in world.beliefs:
                    rows[w] |= 1 << w
                elif agent in world.cb:
                    witness[w] = into[world.cb[agent][0]]
                else:
                    raise InternalVerificationError(
                        f"believing world {w} saturated without a witness"
                    )
            changed = True
            while changed:
                changed = False
                for w, v in witness.items():
                    if rows[v] & ~rows[w]:
                        rows[w] |= rows[v]
                        changed = True
        if transitive in self.frame:
            # Warshall's transitive closure: each world that sees k sees
            # what k sees
            for k, row_k in enumerate(rows):
                for w, row in enumerate(rows):
                    if row >> k & 1:
                        rows[w] = row | row_k
        if euclidean in self.frame:
            # each tree of alternatives collapses into one cluster: a root
            # that this agent did not create shares its closed row with
            # every member, all of which this agent created
            for root, world in enumerate(keep):
                if world.parent is None or world.parent[0] != agent:
                    closed = rows[root]
                    for u in _bits(closed):
                        rows[u] = closed
        for w, row in enumerate(rows):
            if not row:
                rows[w] = 1 << w


def _reached(worlds: list[_World], target: list[int]) -> int:
    """The bitset of the worlds that the seed reaches when the edge into
    each world w enters ``target[w.id]``.  Creators precede their worlds,
    so one pass in world order reaches every world whose edges all run
    forward; a target reached only after its own worlds were passed over,
    a blocker whose creator the seed does not reach, takes another pass."""
    reached, again = 1, True
    while again:
        again = False
        for w in worlds[1:]:
            t = target[w.id]
            if reached >> w.parent[1] & 1 and not reached >> t & 1:
                reached |= 1 << t
                again = again or t < w.id
    return reached


def decide_sat(f: Formula, profile: LogicProfile) -> SatVerdict | UnsatVerdict:
    """Decide satisfiability of ``f`` in the given profile.

    A satisfiable verdict carries a model that has already passed
    ``check_frame`` and evaluates the query true at its designated world 0.
    An unsatisfiable verdict carries the closing exploration as a trace
    whose last step is the clash.
    """
    engine = _Engine(f, profile)
    model = engine.run()
    if model is None:
        return UnsatVerdict(trace=_steps(engine.trace, engine.table), stats=engine.stats)
    return SatVerdict(model=model, stats=engine.stats)


def decide_valid(f: Formula, profile: LogicProfile) -> ValidityVerdict:
    """Decide validity of ``f``: valid exactly when ``~f`` is unsatisfiable."""
    result = decide_sat(Not(f), profile)
    if not result.is_sat:
        return ValidityVerdict(valid=True, trace=result.trace, countermodel=None, stats=result.stats)
    return ValidityVerdict(
        valid=False, trace=None, countermodel=result.model, stats=result.stats
    )


def decide(f: Formula, profile: LogicProfile, mode: str) -> Verdict:
    """The verdict on ``f`` in mode "sat" (satisfiability) or "valid"; any
    other mode raises ``ValueError``."""
    if mode == "sat":
        return decide_sat(f, profile)
    if mode == "valid":
        return decide_valid(f, profile)
    raise ValueError(f"unknown mode {mode!r}: expected 'sat' or 'valid'")


def _rendered(trace: tuple[ProofStep, ...] | list[ProofStep]) -> list[str]:
    """The text of each step's formula; a trace repeats few distinct
    formulas many times, so each is rendered once."""
    texts: dict[Formula, str] = {}
    return [
        texts[f] if f in texts else texts.setdefault(f, render(f))
        for f in (step.formula for step in trace)
    ]


def trace_to_json_dict(trace: tuple[ProofStep, ...] | list[ProofStep]) -> list[dict]:
    return [
        {
            "i": step.i,
            "world": step.world,
            "formula": text,
            "rule": step.rule,
            "from": list(step.premises),
        }
        for step, text in zip(trace, _rendered(trace))
    ]


def verdict_to_json_dict(verdict: Verdict) -> dict:
    """JSON-ready form of any verdict: its word, with the (counter)model
    under "model" or the refutation steps under "steps"."""
    evidence = verdict.evidence
    if isinstance(evidence, ModelSystem):
        return {"verdict": verdict.word, "model": model_to_json_dict(evidence)}
    return {"verdict": verdict.word, "steps": trace_to_json_dict(evidence)}


def render_trace(trace: tuple[ProofStep, ...] | list[ProofStep]) -> str:
    """Render a refutation trace as text, one step per line:

        (3) p ∈ w1   From (2) by (C.B*)

    with "By (seed)" on premise-free steps.  ``trace_to_json_dict`` gives
    the JSON form.
    """
    lines = []
    for step, text in zip(trace, _rendered(trace)):
        if step.premises:
            cited = ", ".join(f"({p})" for p in step.premises)
            origin = f"From {cited} by ({step.rule})"
        else:
            origin = f"By ({step.rule})"
        lines.append(f"({step.i}) {text} ∈ {step.world}   {origin}")
    return "\n".join(lines)
