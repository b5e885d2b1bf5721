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
``models.PROFILE_RULES``, are skipped.  For each
surviving frame, valuations ascend as ``n * len(atoms)``-bit masks with bit
``world * len(atoms) + atom_index`` set when the atom holds at the world.
The designated world is always 0.

``sat_upto`` answers "is there a model within this budget", which is only a
lower bound: ``None`` means no model that small exists, not that the
formula is unsatisfiable.  With a single agent the scan is vectorized with
numpy over all frames and valuations at once, in an order-faithful way, and
any hit is re-verified with the reference evaluator before being returned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

import numpy as np

from .formula import And, Atom, Bel, Formula, Not, Or, agents, atoms, desugar
from .models import LogicProfile, ModelSystem, evaluate, frame_breaches

_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

#: Hard ceiling on budget size; 5 worlds already means 2**25 relations.
MAX_BUDGET_WORLDS = 5

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


@dataclass(frozen=True)
class EnumerationBudget:
    """Finite search space: up to ``max_worlds`` worlds over fixed atom and
    agent vocabularies."""

    max_worlds: int
    atoms: tuple[str, ...]
    agents: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.max_worlds, int) or isinstance(self.max_worlds, bool):
            raise TypeError("max_worlds must be an int")
        if not 1 <= self.max_worlds <= MAX_BUDGET_WORLDS:
            raise ValueError(
                f"max_worlds must be between 1 and {MAX_BUDGET_WORLDS}, got {self.max_worlds}"
            )
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "agents", tuple(self.agents))
        for kind, names in (("atom", self.atoms), ("agent", self.agents)):
            for name in names:
                if not isinstance(name, str) or not _NAME.match(name):
                    raise ValueError(f"invalid {kind} name {name!r}")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {kind} names in budget")


_ROWS: dict[int, tuple[frozenset[int], ...]] = {}


def _succ_sets(mask: int, n: int) -> list[frozenset[int]]:
    """Successor set of each world under relation mask ``mask``."""
    rows = _ROWS.get(n)
    if rows is None:
        rows = _ROWS[n] = tuple(
            frozenset(v for v in range(n) if row >> v & 1) for row in range(1 << n)
        )
    row_mask = (1 << n) - 1
    return [rows[mask >> (w * n) & row_mask] for w in range(n)]


_FRAME_CACHE: dict[tuple[int, tuple[str, ...], LogicProfile], list[tuple[int, ...]]] = {}
_REACH_CACHE: dict[tuple[int, tuple[str, ...], LogicProfile], np.ndarray] = {}


def _frames(n: int, agent_names: tuple[str, ...], profile: LogicProfile) -> list[tuple[int, ...]]:
    """All admissible relation-mask tuples for ``n`` worlds, in order."""
    key = (n, agent_names, profile)
    cached = _FRAME_CACHE.get(key)
    if cached is not None:
        return cached
    admissible = [
        mask
        for mask in range(1 << (n * n))
        if next(frame_breaches(_succ_sets(mask, n), "a", profile), None) is None
    ]
    frames = [combo for combo in product(admissible, repeat=len(agent_names))]
    _FRAME_CACHE[key] = frames
    return frames


def _reach_tensor(
    n: int, agent_names: tuple[str, ...], profile: LogicProfile
) -> np.ndarray:
    """Boolean (frames, worlds, worlds) adjacency for single-agent budgets."""
    key = (n, agent_names, profile)
    cached = _REACH_CACHE.get(key)
    if cached is not None:
        return cached
    frames = _frames(n, agent_names, profile)
    if agent_names:
        masks = np.asarray([frame[0] for frame in frames], dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n * n, dtype=np.int64)) & 1
        reach = bits.astype(bool).reshape(len(frames), n, n)
    else:
        reach = np.zeros((len(frames), n, n), dtype=bool)
    _REACH_CACHE[key] = reach
    return reach


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
    alternatives = {
        agent: frozenset(
            (w, v) for w in range(n) for v in _succ_sets(frame[k], n)[w]
        )
        for k, agent in enumerate(budget.agents)
    }
    return ModelSystem(worlds=n, designated=0, valuation=valuation, alternatives=alternatives)


def enumerate_models(budget: EnumerationBudget, profile: LogicProfile):
    """Yield every model in the budget, smallest first, in canonical order."""
    for n in range(1, budget.max_worlds + 1):
        for frame in _frames(n, budget.agents, profile):
            for vmask in range(1 << (n * len(budget.atoms))):
                yield _build_model(n, frame, vmask, budget)


def _check_vocabulary(f: Formula, budget: EnumerationBudget) -> None:
    missing_atoms = sorted(atoms(f) - set(budget.atoms))
    if missing_atoms:
        raise ValueError(f"formula atoms {missing_atoms} not in budget atoms")
    missing_agents = sorted(a.name for a in agents(f) if a.name not in budget.agents)
    if missing_agents:
        raise ValueError(f"formula agents {missing_agents} not in budget agents")


def _vector_truth(
    f: Formula,
    atom_truth: dict[str, np.ndarray],
    reach: np.ndarray,
    n: int,
    memo: dict[Formula, np.ndarray],
) -> np.ndarray:
    """Truth table of ``f`` as a (frames, valuations, worlds) bool array.

    ``reach[k, w, u]`` says world u is an alternative of w in frame k; the
    formula must already be desugared and mention at most one agent, the one
    ``reach`` describes.
    """
    hit = memo.get(f)
    if hit is not None:
        return hit
    if isinstance(f, Atom):
        out = atom_truth[f.name]
    elif isinstance(f, Not):
        out = ~_vector_truth(f.sub, atom_truth, reach, n, memo)
    elif isinstance(f, And):
        out = _vector_truth(f.left, atom_truth, reach, n, memo) & _vector_truth(
            f.right, atom_truth, reach, n, memo
        )
    elif isinstance(f, Or):
        out = _vector_truth(f.left, atom_truth, reach, n, memo) | _vector_truth(
            f.right, atom_truth, reach, n, memo
        )
    elif isinstance(f, Bel):
        sub = _vector_truth(f.sub, atom_truth, reach, n, memo)
        out = np.empty_like(sub)
        for w in range(n):
            # true at w iff sub holds at every alternative of w
            out[:, :, w] = (sub | ~reach[:, None, w, :]).all(axis=2)
    else:  # pragma: no cover - desugar removes Implies/Iff/Comp
        raise TypeError(f"unexpected connective {type(f).__name__}")
    memo[f] = out
    return out


def _sat_upto_vectorized(
    kernel: Formula, budget: EnumerationBudget, profile: LogicProfile
) -> ModelSystem | None:
    width = len(budget.atoms)
    for n in range(1, budget.max_worlds + 1):
        frames = _frames(n, budget.agents, profile)
        if not frames:
            continue
        num_frames = len(frames)
        num_vals = 1 << (n * width)
        reach = _reach_tensor(n, budget.agents, profile)
        vmasks = np.arange(num_vals, dtype=np.int64)
        atom_truth = {
            name: np.broadcast_to(
                ((vmasks[:, None] >> (np.arange(n) * width + j)) & 1).astype(bool),
                (num_frames, num_vals, n),
            )
            for j, name in enumerate(budget.atoms)
        }
        memo: dict[Formula, np.ndarray] = {}
        truth = _vector_truth(kernel, atom_truth, reach, n, memo)
        hits = truth[:, :, 0]
        if hits.any():
            flat = int(np.argmax(hits.reshape(-1)))
            frame_index, vmask = divmod(flat, num_vals)
            model = _build_model(n, frames[frame_index], vmask, budget)
            if not evaluate(model, 0, kernel):
                raise RuntimeError(
                    "vectorized evaluation disagreed with the reference evaluator"
                )
            return model
    return None


def sat_upto(
    f: Formula, budget: EnumerationBudget, profile: LogicProfile
) -> ModelSystem | None:
    """First model in the budget satisfying ``f`` at world 0, or ``None``.

    ``None`` only means no model exists within the budget; it is not an
    unsatisfiability proof.  The result is identical to scanning
    ``enumerate_models`` and returning the first satisfying model.
    """
    _check_vocabulary(f, budget)
    kernel = desugar(f)
    if len(budget.agents) <= 1:
        return _sat_upto_vectorized(kernel, budget, profile)
    for model in enumerate_models(budget, profile):
        if evaluate(model, 0, kernel):
            return model
    return None
