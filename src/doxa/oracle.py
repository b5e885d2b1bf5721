"""Brute-force model enumeration, independent of the tableau engine.

``enumerate_models`` walks every model inside an explicit finite budget in
one fixed, documented order, and ``sat_upto`` returns the first enumerated
model satisfying a formula.  Because the order is total and deterministic,
two runs agree model for model, which makes the enumerator usable both as
a cross-check oracle for the tableau engine and as an exact model counter.

Enumeration order.  World counts ascend from 1 to the budget's maximum.
For each world count ``n``, relations are encoded as ``n*n``-bit masks with
bit ``from_world * n + to_world`` set when the edge is present; masks ascend
numerically, and with several agents the tuple of masks ascends
lexicographically in budget agent order (first agent slowest).  Relation
tuples that breach a frame condition of the profile, as listed in
``models.PROFILE_RULES``, are skipped.  The admissible masks of one agent
are listed once per world count and profile: the ``2**(n*n)`` candidate
masks go through in ascending chunks, each read as ``n`` numpy int64 arrays
of successor rows, one candidate per element, by the profile's frame
predicates all at once, and the masks that satisfy every predicate are kept
in ascending order, in one int64 array.  For each surviving frame,
valuations ascend as ``n * len(atoms)``-bit masks with bit
``world * len(atoms) + atom_index`` set when the atom holds at the world.
The designated world is always 0.

``sat_upto`` answers "is there a model within this budget", which is only a
lower bound: ``None`` means no model that small exists, not that the formula
is unsatisfiable.  It is one numpy scan for any agent count.  The frames of
a world count form a grid with one axis per agent, in budget order, over
that agent's m admissible masks, so the order above is the grid's C order.
Truth values are packed into words, one bit per valuation, as ``evaluate``
packs worlds into one int: valuation v of a world count is bit ``v % b`` of
word ``v // b``, in the smallest unsigned word of b bits that holds all
``2**(n * len(atoms))`` valuations, or in several uint64 words.  A truth
array is then (worlds, one axis per agent, words), with length 1 on the axis
of an agent it does not depend on, and ``~``, ``&``, ``|`` and ``B`` are
bitwise over whole words.  Per world count and word type a reach tensor over
the m admissible masks of one agent is cached; it holds all-ones or zero
words, and each agent reads it as a view with its masks on its own axis.
The atom tables of each world count, atom count and agent count are built
once.  The masks, the reach tensors and the atom tables are ``functools``
caches of read-only arrays, shared by every scan: a write into one raises
``ValueError`` instead of changing every later scan.  The grid goes through
in chunks of at most ``CHUNK_CELLS`` bytes per truth array, or of one frame
if that is larger: a chunk holds every mask of the last agents, a run of
masks of the agent before them and one mask of each earlier agent, so
memory is bounded by the formula, not by the frame count or the agent
count.
The valuations of a world count are held all at once, so a budget may have
at most ``MAX_VALUATION_BITS`` (20) valuation bits,
``max_worlds * len(atoms)``: past that, ``EnumerationBudget`` raises
``ValueError``.  The first hit of a chunk, its first nonzero word in C order
and that word's lowest set bit, is the first in enumeration order; it is
rebuilt and re-verified with the reference evaluator; a model that
evaluator finds false is a defect of the scan, not a property of the
formula, and raises ``models.InternalVerificationError``, as a defect of the
tableau does.  numpy is imported on the first call, not with the package.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import TYPE_CHECKING

from .formula import NAME_RE, And, Atom, Bel, Formula, Not, Or, Record, desugar, postorder
from .models import PROFILE_RULES, InternalVerificationError, LogicProfile, ModelSystem, evaluate

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

#: Hard ceiling on budget size; 5 worlds already means 2**25 relations.
MAX_BUDGET_WORLDS = 5

#: Most valuation bits, ``max_worlds * len(atoms)``, a budget may have:
#: ``sat_upto`` holds all ``2**bits`` valuations of a world count at once.
MAX_VALUATION_BITS = 20

#: Hand-computed model counts, keyed by (profile, exact world count, atom
#: count, agent count).  Each entry counts the models of that exact size,
#: i.e. one slice of the enumeration stream, and is derived as the number
#: of admissible relations times ``2**(worlds * atoms)`` valuations:
#:
#:   - one world, kd: the self-loop is the only serial relation on a single
#:     world, so 1 * 2 = 2 models;
#:   - one world, hstar: the self-loop is its own inclusion witness, so the
#:     same 2 models;
#:   - two worlds, kd: each row of the relation independently picks one of
#:     the 3 nonempty successor sets, so (2**2 - 1)**2 * 2**2 = 36 models;
#:   - two worlds, hintikka: of those 9 serial relations transitivity rules
#:     out the swap {0->1, 1->0} (no loops) and the two where one world sees
#:     only the other, which sees both ({0->1, 1->0, 1->1} and its mirror
#:     image), so 6 * 2**2 = 24 models;
#:   - two worlds, kd45: of those 6 euclidean further rules out the two where
#:     one world sees both worlds and the other sees only itself
#:     ({0->0, 0->1, 1->1} and its mirror image), leaving the identity, the
#:     two relations that send both worlds to one world, and the universal
#:     relation, so 4 * 2**2 = 16 models;
#:   - two worlds, kd with two agents: each agent independently has the 9
#:     serial relations, so 9**2 * 2**2 = 324 models.
REFERENCE_COUNTS: tuple[tuple[tuple[str, int, int, int], int], ...] = (
    (("kd", 1, 1, 1), 2),
    (("hstar", 1, 1, 1), 2),
    (("kd", 2, 1, 1), 36),
    (("hintikka", 2, 1, 1), 24),
    (("kd45", 2, 1, 1), 16),
    (("kd", 2, 1, 2), 324),
)


class EnumerationBudget(Record):
    """Finite search space: up to ``max_worlds`` worlds over fixed atom and
    agent vocabularies."""

    __slots__ = ("max_worlds", "atoms", "agents")
    max_worlds: int
    atoms: tuple[str, ...]
    agents: tuple[str, ...]

    def __init__(self, max_worlds: int, atoms: Iterable[str], agents: Iterable[str]) -> None:
        if not isinstance(max_worlds, int) or isinstance(max_worlds, bool):
            raise TypeError("max_worlds must be an int")
        if not 1 <= max_worlds <= MAX_BUDGET_WORLDS:
            raise ValueError(
                f"max_worlds must be between 1 and {MAX_BUDGET_WORLDS}, got {max_worlds}"
            )
        atoms, agents = tuple(atoms), tuple(agents)
        for kind, names in (("atom", atoms), ("agent", agents)):
            for name in names:
                if not isinstance(name, str) or not NAME_RE.match(name):
                    raise ValueError(f"invalid {kind} name {name!r}")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {kind} names in budget")
        if max_worlds * len(atoms) > MAX_VALUATION_BITS:
            raise ValueError(
                f"budget of {max_worlds} worlds and {len(atoms)} atoms needs"
                f" 2**{max_worlds * len(atoms)} valuations; max_worlds * atoms"
                f" must be at most {MAX_VALUATION_BITS}"
            )
        self._set(max_worlds=max_worlds, atoms=atoms, agents=agents)


#: Most bytes in one truth array of a ``sat_upto`` chunk, at max(words,
#: worlds) words per (world, frame) cell, and most (world, candidate mask)
#: rows in one chunk of ``_frames``.  A chunk of ``sat_upto`` holds at least
#: one frame with all its valuation words, whatever the bound.
CHUNK_CELLS = 1 << 20


@functools.cache
def _frames(n: int, profile: LogicProfile) -> np.ndarray:
    """Admissible relation masks of one agent on ``n`` worlds, ascending, as
    one read-only int64 array.

    The candidates go through in chunks of at most ``CHUNK_CELLS`` successor
    rows, each chunk one int64 array per world that the profile's frame
    predicates read all at once; the admitted masks of the chunks are
    concatenated.
    """
    import numpy as np

    found = []
    total = 1 << (n * n)
    step = max(1, CHUNK_CELLS // n)
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.int64)
        rows = [masks >> (w * n) & ((1 << n) - 1) for w in range(n)]
        admitted = np.ones(len(masks), dtype=bool)
        for condition in PROFILE_RULES[profile].frame:
            for holds in condition.cells(rows):
                admitted &= holds
        found.append(masks[admitted])
    # a time limit may interrupt the loop; ``cache`` stores a value only on
    # return, so an interrupted build caches nothing
    frames = np.concatenate(found)
    frames.flags.writeable = False
    return frames


@functools.cache
def _reach_tensor(n: int, profile: LogicProfile, dtype: np.dtype) -> np.ndarray:
    """Read-only (worlds, worlds, masks, 1) array of ``dtype`` words over the
    admissible masks, all ones at ``[w, u, i]`` when world u is *not* an
    alternative of w under mask i, else zero.  ``sat_upto`` reads it through
    views that put the masks on one agent's axis."""
    import numpy as np

    masks = _frames(n, profile)
    tensor = np.empty((n, n, len(masks), 1), dtype=dtype)
    for w in range(n):
        for u in range(n):
            tensor[w, u, :, 0] = np.where(masks >> (w * n + u) & 1, 0, ~dtype.type(0))
    tensor.flags.writeable = False
    return tensor


@functools.cache
def _valuations(n: int, width: int, k: int) -> tuple[np.dtype, int, int, tuple[np.ndarray, ...]]:
    """(word dtype, valuations per word, words per world, atom tables) of the
    ``2**(n * width)`` valuations of ``n`` worlds and ``width`` atoms.

    Valuation v is bit ``v % per_word`` of word ``v // per_word``, in the
    smallest unsigned dtype that holds all of them, else in as many uint64
    words as they fill.  The table of atom index j is a read-only (worlds,
    1, ..., 1, words) array of its truth, with one axis of length 1 for each
    of ``k`` agents: it is the same in every frame.
    """
    import numpy as np

    bits = n * width
    per_word = min(1 << bits, 64)
    dtype = np.dtype(f"uint{max(8, per_word)}")
    count = max(1, (1 << bits) >> 6)
    vmasks = np.arange(count * per_word, dtype=np.int64).reshape(count, per_word)
    # (worlds, 1 per agent, words, valuations of a word), reduced over the
    # last axis
    shifts = np.arange(n, dtype=np.int64).reshape((n,) + (1,) * (k + 2)) * width
    place = np.arange(per_word, dtype=dtype)
    tables = tuple(
        np.bitwise_or.reduce((vmasks >> (shifts + j) & 1).astype(dtype) << place, axis=-1)
        for j in range(width)
    )
    for table in tables:
        table.flags.writeable = False
    return dtype, per_word, count, tables


def _build_model(
    n: int,
    frame: tuple[int, ...],
    vmask: int,
    budget: EnumerationBudget,
) -> ModelSystem:
    width = len(budget.atoms)
    valuation = {
        w: frozenset(
            budget.atoms[j] for j in range(width) if vmask >> (w * width + j) & 1
        )
        for w in range(n)
    }
    full_row = (1 << n) - 1
    rows = {
        agent: tuple(frame[k] >> (w * n) & full_row for w in range(n))
        for k, agent in enumerate(budget.agents)
    }
    return ModelSystem(worlds=n, designated=0, valuation=valuation, rows=rows)


def enumerate_models(budget: EnumerationBudget, profile: LogicProfile):
    """Yield every model in the budget, smallest first, in canonical order."""
    for n in range(1, budget.max_worlds + 1):
        for frame in product(_frames(n, profile).tolist(), repeat=len(budget.agents)):
            for vmask in range(1 << (n * len(budget.atoms))):
                yield _build_model(n, frame, vmask, budget)


def _check_vocabulary(order: list[Formula], budget: EnumerationBudget) -> None:
    """Reject a formula, given as its ``postorder`` walk, whose atoms or
    agents the budget lacks."""
    missing_atoms = sorted({g.name for g in order if type(g) is Atom} - set(budget.atoms))
    if missing_atoms:
        raise ValueError(f"formula atoms {missing_atoms} not in budget atoms")
    missing_agents = sorted({g.agent.name for g in order if type(g) is Bel} - set(budget.agents))
    if missing_agents:
        raise ValueError(f"formula agents {missing_agents} not in budget agents")


def _vector_truth(
    order: list[Formula],
    atom_truth: dict[str, np.ndarray],
    unreach: dict[str, np.ndarray],
) -> np.ndarray:
    """Truth table of a kernel formula, given as its ``postorder`` walk, as a
    (worlds, one axis per agent, words) array of valuation words, with
    length 1 on the axis of an agent it does not depend on.  Bit b of word i
    holds the formula's truth under valuation ``i * per_word + b``; a word
    type wider than the valuations has unused high bits.

    ``unreach[agent][w, u, ..., i, ..., 0]``, with i on that agent's axis
    and 0 on the others, is all ones when world u is not an alternative of w
    under the agent's mask i, else zero.
    """
    truth: dict[Formula, np.ndarray] = {}
    for g in order:
        t = type(g)
        if t is Atom:
            out = atom_truth[g.name]
        elif t is Not:
            out = ~truth[g.sub]
        elif t is And:
            out = truth[g.left] & truth[g.right]
        elif t is Or:
            out = truth[g.left] | truth[g.right]
        elif t is Bel:
            sub = truth[g.sub]
            blocked = unreach[g.agent.name]
            # true at w iff sub holds at every alternative u of w
            out = sub[0] | blocked[:, 0]
            for u in range(1, len(sub)):
                out &= sub[u] | blocked[:, u]
        else:  # pragma: no cover - desugar removes Implies/Iff/Comp
            raise TypeError(f"unexpected connective {t.__name__}")
        truth[g] = out
    return out


def sat_upto(
    f: Formula, budget: EnumerationBudget, profile: LogicProfile
) -> ModelSystem | None:
    """First model in the budget satisfying ``f`` at world 0, or ``None``.

    ``None`` only means no model exists within the budget; it is not an
    unsatisfiability proof.  The result is identical to scanning
    ``enumerate_models`` and returning the first satisfying model.
    """
    import numpy as np

    kernel = desugar(f)
    # the kernel has the atoms and agents of ``f``
    order = postorder(kernel)
    _check_vocabulary(order, budget)
    width = len(budget.atoms)
    k = len(budget.agents)
    for n in range(1, budget.max_worlds + 1):
        masks = _frames(n, profile) if k else []
        m = len(masks)
        dtype, per_word, words, tables = _valuations(n, width, k)
        atom_truth = dict(zip(budget.atoms, tables))
        # a word type wider than the valuations leaves high bits unused; no
        # atom holds there, so they repeat valuation 0, and the mask keeps
        # the hit test from leaning on that
        used = dtype.type((1 << per_word) - 1)
        # a chunk takes a run of masks on each agent's axis: whole axes from
        # the last agent back while the frames fit in CHUNK_CELLS, then a
        # shorter run, then one mask each; runs[pos] is agent pos's
        frames = max(1, CHUNK_CELLS // (n * max(words, n) * dtype.itemsize))
        runs = []
        for _ in range(k):
            runs.insert(0, min(m, frames))
            frames = max(1, frames // m)
        tensor = _reach_tensor(n, profile, dtype) if k else None
        # without agents the one chunk is the one frame ()
        for starts in product(*(range(0, m, run) for run in runs)):
            # agent pos reads its run of the reach tensor as a view with the
            # masks on grid axis pos
            unreach = {
                agent: tensor[:, :, lo : lo + run].reshape(
                    (n, n) + (1,) * pos + (-1,) + (1,) * (k - pos)
                )
                for pos, (agent, lo, run) in enumerate(zip(budget.agents, starts, runs))
            }
            hits = _vector_truth(order, atom_truth, unreach)[0] & used
            found = hits.ravel().nonzero()[0]
            if len(found):
                # the first nonzero word in C order, (mask of each agent,
                # word), and its lowest set bit, is the first hit in
                # enumeration order; an axis of length 1 is one the formula
                # does not read, and its index 0 stands for the run's first
                # mask
                first = int(found[0])
                word = int(hits.flat[first])
                *index, position = np.unravel_index(first, hits.shape)
                vmask = int(position) * per_word + (word & -word).bit_length() - 1
                frame = tuple(int(masks[lo + i]) for lo, i in zip(starts, index))
                model = _build_model(n, frame, vmask, budget)
                # re-checked against the query as given, so that a defect
                # of ``desugar`` cannot hide behind both evaluations
                if not evaluate(model, 0, f):
                    raise InternalVerificationError(
                        "vectorized evaluation disagreed with the reference evaluator"
                    )
                return model
    return None
