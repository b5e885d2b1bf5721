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
formulas into alternatives per (C.B*) and spawns a seriality witness per
(C.B) when a believing world has no alternative.  The hstar profile adds
the weak-introspection witness (C.CB): each believing world designates one
alternative that receives the belief formulas themselves, first trying to
reuse an existing alternative and falling back to a fresh witness world if
reuse closes the branch.  The hintikka profile instead propagates beliefs
into every alternative per (C.BB*).  The kd45 profile propagates beliefs
and negated beliefs into every alternative.  A euclidean profile (kd45)
additionally lifts beliefs from an alternative back to its creator; the lift
is what makes every member of a belief cluster agree on what is believed, so
that a euclidean model can be read off an open branch.

Termination: world labels are subsets of the query's subformula closure, so
only finitely many labels exist.  A world whose label equals the label of a
strict ancestor reached through alternatives of the same agent (the blocker
itself being created for that agent) is never expanded; at model extraction
its incoming edge is redirected to the blocker, yielding a finite, possibly
cyclic model.  Extraction then completes the relations to the profile's
frame class, as its strongest frame condition demands (seriality loops, the
a3-witness fixpoint, transitive closure, or euclidean belief clusters), and
finally re-verifies the model with ``check_frame`` and ``evaluate``; a
failed re-verification is an internal error, never a verdict.

Incremental scanning: on a branch, labels only grow, and a rule can only
stop applying to a label entry, never start again: what it would add stays
in place once added.  Each world therefore keeps its label entries in
insertion order, one cursor each for the scans of steps 1, 2 and 3, and
one cursor per propagation rule: into its own entries for (C.CB) and
(C.B-lift), into its creator's for the down rules, which send formulas
down the edge from the creator.  Every world but the seed has exactly that
one incoming edge, so a world records it as its parent (agent, creator,
dependency set), and model extraction walks the edges in world order.  A
scan resumes at its cursor instead of at the first entry; no entry before
a cursor can fire again.  The one exception is a belief that (C.CB) passes
over while its world has no designated witness for the belief's agent:
designating the witness resets that world's (C.CB) cursor.  Cursors are
restored with their world on backtracking, so rules fire in exactly the
order a full rescan after every firing would give.

Agendas, after the ToDo list of Tsarkov & Horrocks ("FaCT++ description
logic reasoner: system description", IJCAR 2006): steps 4 and 5 visit
only the worlds that may have work, kept as int bitsets of world ids.
``agenda[r]`` holds the worlds whose cursor for propagation rule r may lag
behind an entry the rule can fire on, a belief (a negated belief for
(C.~B*)).  ``todo`` holds the worlds that may have a demand left to spawn,
or an agent whose belief has no witness or no alternative yet.  Step 4
takes the rules in the profile's order and, for each rule, its worlds
lowest id first; a world leaves the rule's agenda once its scan reaches
the end of its source entries.  A world off the agenda has no belief past
its cursor, only entries that a scan would pass over, so step 4 fires
what a sweep over every (rule, world) pair in creation order would fire.
Step 5 walks ``todo`` the same way, reading per-world records of each
agent's first belief and first alternative; a world with nothing left to
create leaves it, and a blocked world stays.  The agendas miss no work,
because a (rule, world) pair or a world gains work only through these
events, each of which marks it:

    - ``_add`` of a belief marks its world in the agendas of the rules
      that scan their own world, (C.CB) and (C.B-lift), and the world's
      children in those of the down rules; ``_add`` of a negated belief
      marks the children for (C.~B*); an agent's first belief in a world
      marks the world to do;
    - a new world is marked in the agenda of every down rule, since its
      cursors start at the first entry of its creator;
    - a (C.BDef-rewrite) demand marks its world to do, and a (C.CB)
      designation, which resets its world's (C.CB) cursor, marks the world
      for (C.CB).

A bit is cleared only when the scan has reached the end, or when the world
has nothing left to create, so work found afterwards comes from one of the
events above.  Backtracking is the one other change, and a choice point
saves the agendas with the rest of its state: they covered every pair
with work at the choice point, and trying its next alternative returns
every world to its state there.

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
with a mark: the lengths of its lists and records, its cursors and the
bitset of its children, which is all that undoing the later changes needs,
since along a branch those lists, records and bitsets only grow.  At a
choice point steps 1 and 2 have scanned every entry of every world, so a
mark leaves out their cursors, and restoring a world sets them to its
entry count.  For the same reason a cursor of steps 1-3 moves only in a
world already logged: by the entry it reaches, or by the branch
alternative written into it.  A choice point keeps the trail length, the
world count, the trace, the focus and the agendas; the trace is a linked
list whose steps before the choice point stay shared.  Trying its next
alternative restores the worlds logged since, drops the worlds made since
and resets the trace, the focus and the agendas.  The open choice
points sit on an explicit stack instead of the call stack, so the search
depth is bounded by memory only, and memory grows with the work done on
the branch, not with its depth times its label size.

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
      closes below one closes below the other;
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

from dataclasses import dataclass

from .formula import (
    And,
    Atom,
    Bel,
    Comp,
    Formula,
    Not,
    Or,
    desugar,
    neg,
    render,
    subformula_closure,
)
from .models import (
    C_CB,
    PROFILE_RULES,
    LogicProfile,
    ModalRule,
    ModelSystem,
    ProfileRules,
    a3_witness,
    check_frame,
    euclidean,
    evaluate,
    model_to_json_dict,
    transitive,
)

#: Every rule name that may appear in a proof trace.
RULES: tuple[str, ...] = (
    "seed",
    "C.&",
    "C.v-left",
    "C.v-right",
    "C.~~",
    "C.~&-left",
    "C.~&-right",
    "C.~v",
    "C.B*",
    "C.BB*",
    "C.~B*",
    "C.B-lift",
    "C.C",
    "C.CB",
    "C.B",
    "C.BDef-rewrite",
    "C.~-clash",
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
    at its children, ``down_negated`` at its children when it gains a
    negated belief, and ``down_all`` at a new world.  ``cb`` is the index
    of (C.CB), or None."""

    __slots__ = ("steps", "own", "down", "down_negated", "down_all", "cb")

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
        self.down = tuple(r for r in indices if down[r] and not chain[r].negated)
        self.down_negated = tuple(r for r in indices if down[r] and chain[r].negated)
        self.down_all = tuple(r for r in indices if down[r])
        self.cb = chain.index(C_CB) if C_CB in chain else None


#: Each profile's propagation rules, built once.
_PROPAGATION = {profile: _Propagation(rules) for profile, rules in PROFILE_RULES.items()}


class InternalVerificationError(Exception):
    """A produced model failed its own verification, or a termination bound
    was exceeded.  Indicates a defect in the engine, never a property of the
    input formula."""


@dataclass(frozen=True)
class ProofStep:
    """One line of a refutation trace: formula ``formula`` entered world
    ``world`` at position ``i`` by ``rule`` from the premises at the given
    earlier positions."""

    i: int
    world: str
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()


@dataclass
class TableauStats:
    worlds_created: int = 0
    rules_fired: int = 0
    blocks_applied: int = 0
    # choice points opened, branching and (C.CB), and the alternatives of
    # theirs that a backjump skipped
    choice_points: int = 0
    skipped: int = 0


@dataclass(frozen=True)
class SatVerdict:
    model: ModelSystem
    stats: TableauStats

    @property
    def is_sat(self) -> bool:
        return True


@dataclass(frozen=True)
class UnsatVerdict:
    trace: tuple[ProofStep, ...]
    stats: TableauStats

    @property
    def is_sat(self) -> bool:
        return False


@dataclass(frozen=True)
class ValidityVerdict:
    """Validity via refutation: valid when the negated query is
    unsatisfiable (carrying that refutation trace), invalid otherwise
    (carrying a countermodel that falsifies the query)."""

    valid: bool
    trace: tuple[ProofStep, ...] | None
    countermodel: ModelSystem | None
    stats: TableauStats


#: A branch's trace as (last step, trace before it) pairs, so that the
#: branch and the choice points open on it share the steps before them.
_Trace = tuple[ProofStep, "_Trace"] | None


def _steps(trace: _Trace) -> tuple[ProofStep, ...]:
    steps = []
    while trace is not None:
        step, trace = trace
        steps.append(step)
    return tuple(reversed(steps))


class _Closed(Exception):
    """Internal: the current branch closed; carries the branch trace and the
    dependency set of the clash, the choice points it rests on."""

    def __init__(self, trace: _Trace, deps: int) -> None:
        super().__init__("branch closed")
        self.trace = trace
        self.deps = deps


class _World:
    __slots__ = (
        "id", "parent", "epoch", "label", "entries", "demands", "spawn_cursor", "cb",
        "beliefs", "alternatives", "saturated", "rewritten", "branched", "cursors",
        "children",
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
        # formula -> (step index, dependency set)
        self.label: dict[Formula, tuple[int, int]] = {}
        # the keys of ``label`` in insertion order, for the scan cursors
        self.entries: list[Formula] = []
        # (agent, formula for the fresh alternative, premise step index,
        # dependency set)
        self.demands: list[tuple[str, Formula, int, int]] = []
        self.spawn_cursor = 0
        # agent -> (designated witness, dependency set of the designation)
        self.cb: dict[str, tuple[int, int]] = {}
        # agent -> first believed formula of that agent, in label order
        self.beliefs: dict[str, Bel] = {}
        # agent -> (first alternative created for that agent, dependency
        # set of its edge)
        self.alternatives: dict[str, tuple[int, int]] = {}
        # scan cursors into ``entries`` of steps 1, 2 and 3
        self.saturated = 0
        self.rewritten = 0
        self.branched = 0
        # one scan cursor per propagation rule: into this world's own
        # entries for (C.CB) and (C.B-lift), into its creator's otherwise
        self.cursors = [0] * rules
        # bitset of the worlds this one created
        self.children = 0

    def mark(self) -> tuple:
        """What ``restore`` needs to undo every later change.  Along a
        branch ``label``, ``entries``, ``demands``, ``cb``, ``beliefs`` and
        ``alternatives`` only gain entries, and no dict key is ever
        overwritten, so their lengths are enough: ``restore`` pops the
        newest keys of the dicts, which keep insertion order."""
        return (
            len(self.entries), len(self.demands), len(self.cb), len(self.beliefs),
            len(self.alternatives), self.branched, self.spawn_cursor, tuple(self.cursors),
            self.children,
        )

    def restore(self, mark: tuple) -> None:
        (
            entries, demands, cb, beliefs, alternatives,
            self.branched, self.spawn_cursor, cursors, self.children,
        ) = mark
        # a mark holds the world as it was at a choice point, where steps 1
        # and 2 had scanned every entry
        self.saturated = self.rewritten = entries
        for f in self.entries[entries:]:
            del self.label[f]
        del self.entries[entries:]
        del self.demands[demands:]
        for records, length in (
            (self.cb, cb), (self.beliefs, beliefs), (self.alternatives, alternatives)
        ):
            while len(records) > length:
                records.popitem()
        self.cursors[:] = cursors


#: What ``_step`` returns after firing a rule.
_APPLIED = ("applied",)


class _Engine:
    def __init__(self, query: Formula, profile: LogicProfile, stats: TableauStats) -> None:
        self.query = query
        self.kernel = desugar(query)
        self.profile = profile
        self.frame = PROFILE_RULES[profile].frame
        self.propagation = _PROPAGATION[profile]
        self.stats = stats
        closure = subformula_closure(self.kernel)
        self.agent_names = sorted({g.agent.name for g in closure if type(g) is Bel})
        self.world_bound = 2 ** min(len(closure), 20)
        # the one branch the search is on, changed in place
        self.worlds = [_World(0, None, 0, len(self.propagation.steps))]
        self.trace: _Trace = None
        # (world, mark) of each world changed since the alternative that
        # began the world's epoch was applied; nothing is logged before the
        # first choice point, whose first alternative begins epoch 1
        self.trail: list[tuple[_World, tuple]] = []
        self.epoch = 0
        # the world ``_add`` wrote last, the only one steps 1-3 scan
        self.focus = 0
        # bitsets of worlds that may have work: one per propagation rule for
        # step 4, and one for step 5 (see the module docstring)
        self.agenda = [0] * len(self.propagation.steps)
        self.todo = 0

    # ------------------------------------------------------------------
    # search

    def run(self) -> ModelSystem:
        """Depth-first search over an explicit stack of the open choice
        points, the one at depth d at index d.  An entry is [(trail length,
        world count, trace, focus) when the choice was made, its
        alternatives, the index of the next one to try, the union of the
        closing sets of those tried].  ``pending`` says that the innermost entry is due to
        try its next alternative."""
        self._add(0, self.kernel, "seed", (), 0)
        stack: list[list] = []
        pending = False
        while True:
            try:
                if pending:
                    saved, alternatives, k, _ = entry = stack[-1]
                    length, count, self.trace, self.focus, agenda, self.todo = saved
                    entry[2] = k + 1
                    while len(self.trail) > length:
                        w, mark = self.trail.pop()
                        w.restore(mark)
                    del self.worlds[count:]
                    self.agenda[:] = agenda
                    self.epoch += 1
                    pending = False
                    self._apply(alternatives[k])
                choice = self._step()
                if choice is None:
                    return self._extract()
                if choice is not _APPLIED:
                    self.stats.choice_points += 1
                    saved = (
                        len(self.trail), len(self.worlds), self.trace, self.focus,
                        tuple(self.agenda), self.todo,
                    )
                    stack.append([saved, self._alternatives(len(stack), *choice), 0, 0])
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
                    raise _Closed(closed.trace, deps) from None

    def _alternatives(self, depth: int, kind: str, wid: int, x: Formula | str) -> list[tuple]:
        """The alternatives of the choice point at ``depth`` that ``_step``
        reached, each as (rule, world, formula or agent, premise or witness,
        dependency set).  A branch on ``x`` tries its (C.v) or (C.~&)
        disjuncts left first; a (C.CB) choice for agent ``x`` tries the
        world's first alternative for the agent, if any, then a fresh world
        (witness None)."""
        bit = 1 << depth
        if kind == "branch":
            premise, deps = self.worlds[wid].label[x]
            if isinstance(x, Or):
                options = ((x.left, "C.v-left"), (x.right, "C.v-right"))
            else:
                assert isinstance(x, Not) and isinstance(x.sub, And)
                options = ((neg(x.sub.left), "C.~&-left"), (neg(x.sub.right), "C.~&-right"))
            return [(rule, wid, g, premise, deps | bit) for g, rule in options]
        reuse = self.worlds[wid].alternatives.get(x)
        fresh = (C_CB.kind, wid, x, None, bit)
        return [fresh] if reuse is None else [(C_CB.kind, wid, x, reuse[0], reuse[1] | bit), fresh]

    def _apply(self, alternative: tuple) -> None:
        rule, wid, x, y, deps = alternative
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
        # Steps 1-3 scan only the focus, the world written last: no other
        # world has entries they have not scanned, and no entry before a
        # cursor can fire again (see the module docstring).  Steps 1 and 2
        # write only the focus, so each runs to completion at once.
        w = self.worlds[self.focus]
        label, entries = w.label, w.entries
        # 1. non-branching propositional saturation
        while w.saturated < len(entries):
            f = entries[w.saturated]
            w.saturated += 1
            if isinstance(f, And):
                rule, parts = "C.&", (f.left, f.right)
            elif isinstance(f, Not) and isinstance(f.sub, Not):
                rule, parts = "C.~~", (f.sub.sub,)
            elif isinstance(f, Not) and isinstance(f.sub, Or):
                rule, parts = "C.~v", (neg(f.sub.left), neg(f.sub.right))
            else:
                continue
            step, deps = label[f]
            for g in parts:
                self._add(w.id, g, rule, (step,), deps)

        # 2. negated-modal rewrites: ~B[a] q is the demand C[a] ~q
        while w.rewritten < len(entries):
            f = entries[w.rewritten]
            w.rewritten += 1
            if isinstance(f, Not) and isinstance(f.sub, Bel):
                demanded = neg(f.sub.sub)
                premise, deps = label[f]
                step = self._record(
                    w.id, Comp(f.sub.agent, demanded), "C.BDef-rewrite", (premise,)
                )
                w.demands.append((f.sub.agent.name, demanded, step, deps))
                self.todo |= 1 << w.id

        # 3. branching propositional rules
        while w.branched < len(entries):
            f = entries[w.branched]
            w.branched += 1
            if isinstance(f, Or) and f.left not in label and f.right not in label:
                return ("branch", w.id, f)
            if (
                isinstance(f, Not)
                and isinstance(f.sub, And)
                and neg(f.sub.left) not in label
                and neg(f.sub.right) not in label
            ):
                return ("branch", w.id, f)

        # 4. propagation, rule by rule in the profile's order, world by world
        # in creation order among the worlds on the rule's agenda
        worlds, agenda, steps = self.worlds, self.agenda, self.propagation.steps
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
                    f = entries[cursors[r]]
                    cursors[r] += 1
                    belief = f
                    if negated:
                        belief = f.sub if isinstance(f, Not) else None
                    if not isinstance(belief, Bel):
                        continue
                    if not every:
                        # (C.CB) sends a belief into its world's designated witness
                        if belief.agent.name not in w.cb:
                            continue
                        dst, via = w.cb[belief.agent.name]
                    elif belief.agent.name != agent:
                        continue
                    g = f.sub if carries_sub else f
                    if g not in worlds[dst].label:
                        # the world stays on the agenda: its scan is unfinished
                        agenda[r] = pending | low
                        step, deps = source.label[f]
                        self._add(dst, g, kind, (step,), deps | via)
                        return _APPLIED
            # every scan reached the end of its source's entries
            agenda[r] = 0

        # 5. world creation, world by world in creation order among the
        # worlds to do; a blocked world is skipped but stays to do, and only
        # a world with something left to create is tested for blocking
        witnesses = self.propagation.cb is not None
        pending = self.todo
        while pending:
            low = pending & -pending
            pending ^= low
            w = worlds[low.bit_length() - 1]
            demand = w.spawn_cursor < len(w.demands)
            unwitnessed = [a for a in w.beliefs if a not in w.cb] if witnesses else []
            unserved = [a for a in w.beliefs if a not in w.alternatives]
            if not (demand or unwitnessed or unserved):
                self.todo ^= low
                continue
            if self._blocker(w) is not None:
                continue
            if demand:
                self._touch(w)
                agent, g, premise, deps = w.demands[w.spawn_cursor]
                w.spawn_cursor += 1
                new_id = self._spawn(w.id, agent, deps)
                self._add(new_id, g, "C.C", (premise,), deps)
                return _APPLIED
            if unwitnessed:
                return ("cb", w.id, unwitnessed[0])
            first = w.beliefs[unserved[0]]
            premise, deps = w.label[first]
            new_id = self._spawn(w.id, unserved[0], deps)
            self._add(new_id, first.sub, "C.B", (premise,), deps)
            return _APPLIED
        return None

    # ------------------------------------------------------------------
    # primitive actions

    def _record(self, wid: int, f: Formula, rule: str, premises: tuple[int, ...]) -> int:
        index = self.trace[0].i + 1 if self.trace else 1
        self.trace = (ProofStep(index, f"w{wid}", f, rule, premises), self.trace)
        self.stats.rules_fired += 1
        return index

    def _touch(self, w: _World) -> None:
        """Log ``w`` on the trail before its first change in this epoch."""
        if w.epoch != self.epoch:
            w.epoch = self.epoch
            self.trail.append((w, w.mark()))

    def _add(
        self, wid: int, f: Formula, rule: str, premises: tuple[int, ...], deps: int
    ) -> None:
        w = self.worlds[wid]
        if f in w.label:
            return
        self._touch(w)
        self.focus = wid
        w.label[f] = (self._record(wid, f, rule, premises), deps)
        w.entries.append(f)
        if isinstance(f, Bel):
            if f.agent.name not in w.beliefs:
                w.beliefs[f.agent.name] = f
                self.todo |= 1 << wid
            for r in self.propagation.own:
                self.agenda[r] |= 1 << wid
            if w.children:
                for r in self.propagation.down:
                    self.agenda[r] |= w.children
        elif w.children and isinstance(f, Not) and isinstance(f.sub, Bel):
            for r in self.propagation.down_negated:
                self.agenda[r] |= w.children
        if isinstance(f, Not) and f.sub in w.label:
            positive = f.sub
        elif Not(f) in w.label:
            positive = f
        else:
            return
        (i, deps_i), (j, deps_j) = w.label[positive], w.label[Not(positive)]
        self._record(wid, positive, "C.~-clash", (min(i, j), max(i, j)))
        raise _Closed(self.trace, deps_i | deps_j)

    def _spawn(self, parent: int, agent: str, deps: int) -> int:
        new_id = len(self.worlds)
        agenda = self.agenda
        self.worlds.append(_World(new_id, (agent, parent, deps), self.epoch, len(agenda)))
        creator = self.worlds[parent]
        self._touch(creator)
        creator.alternatives.setdefault(agent, (new_id, deps))
        bit = 1 << new_id
        creator.children |= bit
        for r in self.propagation.down_all:
            agenda[r] |= bit
        self.stats.worlds_created += 1
        if len(self.worlds) > self.world_bound:
            raise InternalVerificationError(
                f"world count exceeded the closure bound {self.world_bound}"
            )
        return new_id

    def _blocker(self, w: _World) -> _World | None:
        """Nearest strict ancestor with an identical label, reached through
        an unbroken chain of alternatives for the creating agent.  Only an
        ancestor that was itself created for that agent can block, so a
        redirect target always lies inside the same cluster."""
        if w.parent is None:
            return None
        agent = w.parent[0]
        keys = w.label.keys()
        current = self.worlds[w.parent[1]]
        while current.parent is not None and current.parent[0] == agent:
            if current.label.keys() == keys:
                return current
            current = self.worlds[current.parent[1]]
        return None

    # ------------------------------------------------------------------
    # model extraction

    def _extract(self) -> ModelSystem:
        # A world is kept when it is not blocked and its creator is kept, and
        # creators precede their worlds.  The edge into a blocked world with
        # a kept creator enters its blocker instead, an ancestor and so kept.
        keep: list[_World] = []
        index: dict[int, int] = {}  # kept world -> model world
        into: dict[int, int] = {}  # world with a kept creator -> model world its edge enters
        succ: dict[str, list[set[int]]] = {a: [] for a in self.agent_names}
        for w in self.worlds:
            blocker = self._blocker(w)
            if blocker is not None:
                self.stats.blocks_applied += 1
            if w.parent is not None and w.parent[1] not in index:
                continue
            if blocker is None:
                index[w.id] = into[w.id] = len(keep)
                keep.append(w)
                for rows in succ.values():
                    rows.append(set())
            else:
                into[w.id] = index[blocker.id]
            if w.parent is not None:
                agent, creator, _ = w.parent
                succ[agent][index[creator]].add(into[w.id])

        for agent in self.agent_names:
            self._complete_relation(agent, succ[agent], keep, into)

        n = len(keep)
        valuation = {
            w: frozenset(f.name for f in keep[w].label if isinstance(f, Atom))
            for w in range(n)
        }
        alternatives = {
            agent: frozenset((u, v) for u in range(n) for v in succ[agent][u])
            for agent in self.agent_names
        }
        model = ModelSystem(
            worlds=n, designated=0, valuation=valuation, alternatives=alternatives
        )
        violations = check_frame(model, self.profile)
        if violations:
            raise InternalVerificationError(
                f"extracted model violates its frame class: {violations[0].kind}"
            )
        if not evaluate(model, 0, self.query):
            raise InternalVerificationError(
                "extracted model does not satisfy the query at the designated world"
            )
        return model

    def _complete_relation(
        self, agent: str, succ: list[set[int]], keep: list[_World], into: dict[int, int]
    ) -> None:
        """Grow the raw tableau relation for one agent into the profile's
        frame class without disturbing any labeled formula's truth.  The
        profile's strongest frame condition, the last of its table row,
        decides how; every world then still without an alternative is its
        own."""
        strongest = self.frame[-1]
        if strongest is a3_witness:
            # A world with no beliefs of this agent is its own witness; a
            # believing world inherits the successors of its designated
            # witness so that the witness's successor set nests inside its
            # own.
            witness: dict[int, int] = {}
            for w, world in enumerate(keep):
                if agent not in world.beliefs:
                    succ[w].add(w)
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
                    if not succ[v] <= succ[w]:
                        succ[w] |= succ[v]
                        changed = True
        elif strongest is transitive:
            # each world takes in the successors of its successors until
            # none is missing: the transitive closure
            changed = True
            while changed:
                changed = False
                for successors in succ:
                    for u in list(successors):
                        if not succ[u] <= successors:
                            successors |= succ[u]
                            changed = True
        elif strongest is euclidean:
            # each tree of alternatives collapses into one cluster
            for root, world in enumerate(keep):
                if world.parent is not None and world.parent[0] == agent:
                    continue
                members: set[int] = set()
                frontier = [root]
                while frontier:
                    u = frontier.pop()
                    for v in succ[u]:
                        if v not in members:
                            members.add(v)
                            frontier.append(v)
                for u in members | {root}:
                    succ[u] = set(members)
        for w, successors in enumerate(succ):
            if not successors:
                successors.add(w)


def decide_sat(f: Formula, profile: LogicProfile) -> SatVerdict | UnsatVerdict:
    """Decide satisfiability of ``f`` in the given profile.

    A satisfiable verdict carries a model that has already passed
    ``check_frame`` and evaluates the query true at its designated world 0.
    An unsatisfiable verdict carries the closing exploration as a trace
    whose last step is the clash.
    """
    stats = TableauStats()
    engine = _Engine(f, profile, stats)
    try:
        model = engine.run()
    except _Closed as closed:
        return UnsatVerdict(trace=_steps(closed.trace), stats=stats)
    return SatVerdict(model=model, stats=stats)


def decide_valid(f: Formula, profile: LogicProfile) -> ValidityVerdict:
    """Decide validity of ``f``: valid exactly when ``~f`` is unsatisfiable."""
    result = decide_sat(Not(f), profile)
    if isinstance(result, UnsatVerdict):
        return ValidityVerdict(valid=True, trace=result.trace, countermodel=None, stats=result.stats)
    return ValidityVerdict(
        valid=False, trace=None, countermodel=result.model, stats=result.stats
    )


def trace_to_json_dict(trace: tuple[ProofStep, ...] | list[ProofStep]) -> list[dict]:
    return [
        {
            "i": step.i,
            "world": step.world,
            "formula": render(step.formula),
            "rule": step.rule,
            "from": list(step.premises),
        }
        for step in trace
    ]


def verdict_to_json_dict(
    verdict: SatVerdict | UnsatVerdict | ValidityVerdict,
) -> dict:
    """JSON-ready form of any verdict.

    Satisfiable and invalid verdicts embed the (counter)model; unsatisfiable
    and valid verdicts embed the refutation steps.
    """
    if isinstance(verdict, SatVerdict):
        return {"verdict": "sat", "model": model_to_json_dict(verdict.model)}
    if isinstance(verdict, UnsatVerdict):
        return {"verdict": "unsat", "steps": trace_to_json_dict(verdict.trace)}
    if verdict.valid:
        assert verdict.trace is not None
        return {"verdict": "valid", "steps": trace_to_json_dict(verdict.trace)}
    assert verdict.countermodel is not None
    return {"verdict": "invalid", "model": model_to_json_dict(verdict.countermodel)}


def render_trace(trace: tuple[ProofStep, ...] | list[ProofStep]) -> str:
    """Render a refutation trace as text, one step per line:

        (3) p ∈ w1   From (2) by (C.B*)

    with "By (seed)" on premise-free steps.  ``trace_to_json_dict`` gives
    the JSON form.
    """
    lines = []
    for step in trace:
        if step.premises:
            cited = ", ".join(f"({p})" for p in step.premises)
            origin = f"From {cited} by ({step.rule})"
        else:
            origin = f"By ({step.rule})"
        lines.append(f"({step.i}) {render(step.formula)} ∈ {step.world}   {origin}")
    return "\n".join(lines)
