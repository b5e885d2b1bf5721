"""Brute-force enumeration oracle: counts, ordering, agreement with the
frame checker, bounded satisfiability search."""

from __future__ import annotations

import json
import random

import pytest
from conftest import random_formula

from doxa import (
    And,
    EnumerationBudget,
    Formula,
    LogicProfile,
    MAX_BUDGET_WORLDS,
    ModelSystem,
    PROFILES_BY_STRENGTH,
    agents,
    check_frame,
    decide_sat,
    enumerate_models,
    evaluate,
    model_to_json_dict,
    parse,
    render,
    sat_upto,
)
from doxa.oracle import _frames

HSTAR = LogicProfile.HSTAR
KD = LogicProfile.KD

B1 = EnumerationBudget(max_worlds=1, atoms=("p",), agents=("a",))
B2 = EnumerationBudget(max_worlds=2, atoms=("p",), agents=("a",))
B4 = EnumerationBudget(max_worlds=4, atoms=("p",), agents=("a",))


class TestBudget:
    def test_rejects_out_of_range_worlds(self):
        for bad in (0, MAX_BUDGET_WORLDS + 1):
            with pytest.raises(ValueError, match="max_worlds must be between"):
                EnumerationBudget(max_worlds=bad, atoms=("p",), agents=("a",))

    def test_rejects_non_integer_worlds(self):
        with pytest.raises(TypeError):
            EnumerationBudget(max_worlds="3", atoms=("p",), agents=("a",))
        with pytest.raises(TypeError):
            EnumerationBudget(max_worlds=True, atoms=("p",), agents=("a",))

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="invalid atom name"):
            EnumerationBudget(max_worlds=1, atoms=("P",), agents=("a",))
        with pytest.raises(ValueError, match="invalid agent name"):
            EnumerationBudget(max_worlds=1, atoms=("p",), agents=("",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate atom names"):
            EnumerationBudget(max_worlds=1, atoms=("p", "p"), agents=("a",))

    def test_rejects_too_many_valuation_bits(self):
        # all 2**(worlds * atoms) valuations of a world count are held at once
        names = tuple(f"p{i}" for i in range(5))
        assert EnumerationBudget(max_worlds=4, atoms=names, agents=()).max_worlds == 4
        with pytest.raises(ValueError, match="budget of 5 worlds and 5 atoms"):
            EnumerationBudget(max_worlds=5, atoms=names, agents=("a",))

    def test_normalises_sequences(self):
        budget = EnumerationBudget(max_worlds=2, atoms=["p", "q"], agents=["a"])
        assert budget.atoms == ("p", "q")
        assert budget.agents == ("a",)


class TestEnumeration:
    def test_one_world_counts(self):
        # One world forces the reflexive loop, leaving only the choice of p.
        assert len(list(enumerate_models(B1, KD))) == 2
        assert len(list(enumerate_models(B1, HSTAR))) == 2

    def test_two_world_kd_counts(self):
        models = list(enumerate_models(B2, KD))
        assert len(models) == 38
        assert len([m for m in models if m.worlds == 2]) == 36

    def test_models_come_smallest_first_and_deterministic(self):
        first = [model_to_json_dict(m) for m in enumerate_models(B2, HSTAR)]
        second = [model_to_json_dict(m) for m in enumerate_models(B2, HSTAR)]
        assert first == second
        sizes = [m["worlds"] for m in first]
        assert sizes == sorted(sizes)

    def test_no_duplicates(self):
        seen = {
            json.dumps(model_to_json_dict(m), sort_keys=True)
            for m in enumerate_models(B2, KD)
        }
        assert len(seen) == 38

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_every_model_is_admissible(self, profile):
        for m in enumerate_models(B2, profile):
            assert m.designated == 0
            assert check_frame(m, profile) == []

    def test_profile_streams_nest(self):
        by_profile = {
            profile: {
                json.dumps(model_to_json_dict(m), sort_keys=True)
                for m in enumerate_models(B2, profile)
            }
            for profile in PROFILES_BY_STRENGTH
        }
        order = list(PROFILES_BY_STRENGTH)
        for smaller, larger in zip(order, order[1:]):
            assert by_profile[smaller] <= by_profile[larger]


def _first_order(name: str, n: int, r: set[tuple[int, int]]) -> bool:
    """The frame conditions as first-order properties of the edge set ``r``."""
    worlds = range(n)
    if name == "serial":
        return all(any((w, v) in r for v in worlds) for w in worlds)
    if name == "transitive":
        return all((w, v) in r for (w, u) in r for (x, v) in r if x == u)
    if name == "euclidean":
        return all((u, v) in r for (w, u) in r for (x, v) in r if x == w)
    assert name == "a3-witness"
    return all(
        any(all((w, x) in r for (y, x) in r if y == v) for (z, v) in r if z == w)
        for w in worlds
        if any((w, v) in r for v in worlds)
    )


FIRST_ORDER_FRAMES = {
    LogicProfile.KD: ("serial",),
    LogicProfile.HSTAR: ("serial", "a3-witness"),
    LogicProfile.HINTIKKA: ("serial", "transitive"),
    LogicProfile.KD45: ("serial", "transitive", "euclidean"),
}


class TestRelationOk:
    """The shared frame conditions against their first-order definitions.
    ``check_frame`` and the oracle's frame filter read the same table, so
    this is the independent reference for both."""

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_check_frame_exhaustively(self, n, profile):
        admitted = set(_frames(n, profile))
        for mask in range(1 << (n * n)):
            edges = {(w, v) for w in range(n) for v in range(n) if mask >> (w * n + v) & 1}
            m = ModelSystem(worlds=n, designated=0, alternatives={"a": edges})
            breached = {
                name for name in FIRST_ORDER_FRAMES[profile] if not _first_order(name, n, edges)
            }
            assert {v.kind for v in check_frame(m, profile)} == breached, (n, mask, profile)
            assert (mask in admitted) == (not breached), (n, mask, profile)


class TestSatUpto:
    def test_contradiction_has_no_model(self):
        assert sat_upto(parse("p & ~p"), B4, KD) is None

    def test_introspection_gap_needs_three_worlds(self):
        f = parse("B[a] p & ~B[a] B[a] p")
        model = sat_upto(f, B4, HSTAR)
        assert model is not None
        assert model.worlds == 3
        assert check_frame(model, HSTAR) == []
        assert evaluate(model, 0, f)

    def test_believed_moore_sentence_has_no_small_model(self):
        assert sat_upto(parse("B[a](p & ~B[a] p)"), B4, HSTAR) is None

    def test_found_model_is_first_in_enumeration_order(self):
        f = parse("B[a] p & ~p")
        fast = sat_upto(f, B2, KD)
        manual = next(
            m for m in enumerate_models(B2, KD) if evaluate(m, 0, f)
        )
        assert fast == manual

    def test_multi_agent_search_uses_plain_scan(self):
        """Two agents go through the same vectorized scan as one, and it
        returns the first model of a plain scan of ``enumerate_models``."""
        budget = EnumerationBudget(max_worlds=2, atoms=("p",), agents=("a", "b"))
        f = parse("B[a] p & ~B[b] p")
        model = sat_upto(f, budget, KD)
        manual = next(
            m for m in enumerate_models(budget, KD) if evaluate(m, 0, f)
        )
        assert model == manual
        assert evaluate(model, 0, f)

    def test_search_is_repeatable(self):
        f = parse("C[a] p & C[a] ~p")
        assert sat_upto(f, B4, HSTAR) == sat_upto(f, B4, HSTAR)

    def test_vocabulary_must_cover_formula(self):
        with pytest.raises(ValueError, match="formula atoms"):
            sat_upto(parse("q"), B2, KD)
        with pytest.raises(ValueError, match="formula agents"):
            sat_upto(parse("B[b] p"), B2, KD)

    def test_sugar_is_accepted(self):
        f = parse("B[a] p -> C[a] B[a] p")
        model = sat_upto(f, B2, HSTAR)
        assert model is not None and evaluate(model, 0, f)


def _seeded_formulas(budget: EnumerationBudget, count: int) -> list[Formula]:
    """``count`` seeded formulas over the budget's vocabulary.  With agents,
    every other one also says that one agent finds both ``p`` and ``~p``
    compatible, which takes two worlds; with no agents, the propositional
    ones among the generator's output."""
    rng = random.Random(20240917)
    found: list[Formula] = []
    while len(found) < count:
        f = random_formula(rng, depth=3, atom_names=budget.atoms,
                           agent_names=budget.agents or ("a",))
        if budget.agents and len(found) % 2:
            agent = budget.agents[len(found) // 2 % len(budget.agents)]
            f = And(f, parse(f"C[{agent}] p & C[{agent}] ~p"))
        if budget.agents or not agents(f):
            found.append(f)
    return found


ORDER_BUDGETS = {
    "2-agents-2-atoms": EnumerationBudget(max_worlds=2, atoms=("p", "q"), agents=("a", "b")),
    "3-agents-1-atom": EnumerationBudget(max_worlds=2, atoms=("p",), agents=("a", "b", "c")),
    "0-agents": EnumerationBudget(max_worlds=2, atoms=("p", "q"), agents=()),
}


class TestSearchOrder:
    """``sat_upto`` returns the first satisfying model of the documented
    enumeration order, for any agent count: the reference is a plain scan of
    ``enumerate_models``."""

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    @pytest.mark.parametrize("name", ORDER_BUDGETS)
    def test_equals_first_model_of_the_reference_scan(self, name, profile):
        budget = ORDER_BUDGETS[name]
        for f in _seeded_formulas(budget, 40):
            expected = next(
                (m for m in enumerate_models(budget, profile) if evaluate(m, 0, f)), None
            )
            assert sat_upto(f, budget, profile) == expected, render(f)

    @pytest.mark.parametrize("name", ORDER_BUDGETS)
    def test_many_small_chunks_keep_the_order(self, name, monkeypatch):
        monkeypatch.setattr("doxa.oracle.CHUNK_CELLS", 64)
        budget = ORDER_BUDGETS[name]
        for f in _seeded_formulas(budget, 40):
            expected = next(
                (m for m in enumerate_models(budget, KD) if evaluate(m, 0, f)), None
            )
            assert sat_upto(f, budget, KD) == expected, render(f)


class TestEngineAgreement:
    """The tableau against the oracle over two atoms and two agents.  Every
    other seeded formula is conjoined with ``C[b] q & C[a] ~q``, which takes
    two worlds.  kd45 is left out: some 2-agent formulas of this generator
    overrun the engine's world bound under kd45, formula 186 only after
    about five minutes."""

    BUDGET = EnumerationBudget(max_worlds=2, atoms=("p", "q"), agents=("a", "b"))

    @pytest.mark.parametrize("profile", [KD, HSTAR, LogicProfile.HINTIKKA])
    def test_oracle_and_engine_agree(self, profile):
        rng = random.Random(20240917)
        for i in range(400):
            f = random_formula(rng, depth=4, atom_names=("p", "q"), agent_names=("a", "b"))
            if i % 2:
                f = And(f, parse("C[b] q & C[a] ~q"))
            verdict = decide_sat(f, profile)
            if sat_upto(f, self.BUDGET, profile) is not None:
                assert verdict.is_sat, f"oracle found a model of engine-unsat {render(f)}"
            elif verdict.is_sat:
                assert verdict.model.worlds > self.BUDGET.max_worlds, (
                    f"oracle missed the engine's model of {render(f)}"
                )
