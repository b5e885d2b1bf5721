"""Brute-force enumeration oracle: counts, ordering, agreement with the
frame checker, bounded satisfiability search."""

from __future__ import annotations

import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import random_formula

from doxa import (
    And,
    EnumerationBudget,
    Formula,
    InternalVerificationError,
    LogicProfile,
    MAX_BUDGET_WORLDS,
    ModelSystem,
    Not,
    PROFILES_BY_STRENGTH,
    agents,
    check_frame,
    decide_sat,
    desugar,
    enumerate_models,
    evaluate,
    model_to_json_dict,
    parse,
    render,
    sat_upto,
)
from doxa.oracle import _frames, _reach_tensor, _valuations, _vector_truth

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
            m = ModelSystem.from_pairs(worlds=n, designated=0, alternatives={"a": edges})
            breached = {
                name for name in FIRST_ORDER_FRAMES[profile] if not _first_order(name, n, edges)
            }
            assert {v.kind for v in check_frame(m, profile)} == breached, (n, mask, profile)
            assert (mask in admitted) == (not breached), (n, mask, profile)


#: (length, sha256 of the masks joined by commas) of ``_frames(n, profile)``,
#: as the per-mask Python filter listed them before the frame predicates
#: were vectorized.
FRAME_PINS = {
    ("kd45", 1): (1, "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    ("hintikka", 1): (1, "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    ("hstar", 1): (1, "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    ("kd", 1): (1, "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    ("kd45", 2): (4, "f14617946c8bc15d919b7859688606aaa47c44bdbb6f5a11d7d810ebb5eb3de6"),
    ("hintikka", 2): (6, "40b8030dcd3c36175adcd46f71fb68215692fce1e4622cb76be3f5f357620c29"),
    ("hstar", 2): (6, "40b8030dcd3c36175adcd46f71fb68215692fce1e4622cb76be3f5f357620c29"),
    ("kd", 2): (9, "7c51a20b4a222c15d0a8c91d1c49536d23ae2bc357814c12c74c6673deeb53e5"),
    ("kd45", 3): (17, "d06758442dfe4b7e1cf0422b9346a406a9c85a26edd63e3c961b48eb47008c73"),
    ("hintikka", 3): (68, "8c690fe3f04ceb801ea2c6eb7eaf0b076f6ab3429d542efcb42e326dc084d443"),
    ("hstar", 3): (136, "b48d4d6f84dfdfe9935f96a90836fbacec296c5895697590132c1be09de448ea"),
    ("kd", 3): (343, "d3b7047961742e40989e2d9197ca24a974367972a58420d8253ef0e720685a22"),
    ("kd45", 4): (89, "154d5826e96d0005cca25fa2316ffe386e36cf12cc40fd08c48f50cc8ab1cfb8"),
    ("hintikka", 4): (1387, "fed9eb121972ad5f0cac1a4c25968d33a2ae7314bbd502bda87420d21c87decc"),
    ("hstar", 4): (11724, "cb5003cc785b900be86f658f52e4873dd43e7c98f252d0749773a4c6e6af4bfa"),
    ("kd", 4): (50625, "93e58d8d9e393406413f61abaae9d2f7ee0780797ae5edfe749aa79f192036f6"),
}


def _stirling2(s: int, k: int) -> int:
    """Ways to partition s labelled worlds into k nonempty blocks, by
    S(i, j) = j * S(i - 1, j) + S(i - 1, j - 1)."""
    row = [1] + [0] * k  # S(0, j) for j = 0..k
    for _ in range(s):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


#: Hand-derived counts of the admissible relations of one agent on n worlds:
#:
#:   - kd: each of the n rows independently picks one of the 2**n - 1
#:     nonempty successor sets, so (2**n - 1)**n, which is 50,625 at n = 4;
#:   - kd45: a serial, transitive and euclidean relation is a union of
#:     clusters (Halpern & Moses, AIJ 54, 1992).  If w sees u, euclideanness
#:     gives R(w) within R(u) and transitivity R(u) within R(w), so every
#:     world that some world sees sees exactly its own cluster, itself
#:     included.  Such a relation is therefore fixed by the set of the s
#:     worlds that are seen, C(n, s) choices, a partition of them into k
#:     clusters, S(s, k) choices, and the cluster that each of the other
#:     n - s worlds sees, k**(n - s) choices: the sum over s and k of
#:     C(n, s) * S(s, k) * k**(n - s), which is 1, 4, 17 and 89 for n = 1..4.
def _hand_count(profile: LogicProfile, n: int) -> int:
    if profile is KD:
        return (2**n - 1) ** n
    assert profile is LogicProfile.KD45
    return sum(
        math.comb(n, s) * _stirling2(s, k) * k ** (n - s)
        for s in range(1, n + 1)
        for k in range(1, s + 1)
    )


def _digest(masks: list[int]) -> tuple[int, str]:
    return len(masks), hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()


class TestFrameLists:
    """The admissible masks of one agent, pinned and counted by hand."""

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_pinned_list(self, n, profile):
        assert _digest(_frames(n, profile)) == FRAME_PINS[profile.value, n]

    @pytest.mark.parametrize("profile", [KD, LogicProfile.KD45])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_hand_count(self, n, profile):
        assert len(_frames(n, profile)) == _hand_count(profile, n)

    def test_hand_counts(self):
        assert [_hand_count(LogicProfile.KD45, n) for n in range(1, 5)] == [1, 4, 17, 89]
        assert _hand_count(KD, 4) == 50_625

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_small_chunks_keep_the_list(self, profile, monkeypatch):
        # the uncached function, so that the shared cache is left alone
        monkeypatch.setattr("doxa.oracle.CHUNK_CELLS", 1000)
        for n in (3, 4):
            assert _digest(_frames.__wrapped__(n, profile)) == FRAME_PINS[profile.value, n]


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

    def test_a_hit_the_reference_evaluator_refutes_is_a_defect(self, monkeypatch):
        # the one defect type of both engines, which the CLI reports as an
        # internal engine error with exit 2, never as "no model"
        monkeypatch.setattr("doxa.oracle.evaluate", lambda m, w, f: False)
        with pytest.raises(InternalVerificationError, match="disagreed with the reference"):
            sat_upto(parse("p"), B2, KD)

    def test_a_hit_is_checked_against_the_query_as_given(self, monkeypatch):
        # a defect of ``desugar`` that both evaluations of the kernel agree
        # on: the hit is a model of the negated query
        monkeypatch.setattr("doxa.oracle.desugar", lambda g: desugar(Not(g)))
        with pytest.raises(InternalVerificationError, match="disagreed with the reference"):
            sat_upto(parse("B[a] p -> p"), B2, KD)


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


#: Budgets whose valuations fill exactly one uint64 word (2 worlds, 3 atoms)
#: and four of them (2 worlds, 4 atoms), each with a few formulas.  Under
#: 4 atoms, ``~r & C[a] r`` first holds with r at world 1 alone, valuation
#: mask 64, the first bit of the second word, and ``~s & C[a](r & s)`` at
#: mask 192, the first bit of the fourth.
WORD_BUDGETS = {
    "one-word": (
        EnumerationBudget(max_worlds=2, atoms=("p", "q", "r"), agents=("a",)),
        ("~r & C[a] r", "q & C[a] ~q & C[a](p & r)", "B[a](p & ~B[a] p)", "p & ~q & r"),
    ),
    "four-words": (
        EnumerationBudget(max_worlds=2, atoms=("p", "q", "r", "s"), agents=("a",)),
        ("~r & C[a] r", "~s & C[a](r & s)", "B[a](p & ~B[a] p)", "s & C[a] ~s"),
    ),
}


def _vmask(model: ModelSystem, budget: EnumerationBudget) -> int:
    """The valuation mask of a model, as the enumeration order numbers it."""
    width = len(budget.atoms)
    return sum(
        1 << (w * width + j)
        for w in range(model.worlds)
        for j, atom in enumerate(budget.atoms)
        if atom in model.valuation[w]
    )


class TestSearchOrder:
    """``sat_upto`` returns the first satisfying model of the documented
    enumeration order, for any agent count: the reference is a plain scan of
    ``enumerate_models``.  It packs the valuations of a world count into
    words, so the order is also checked where they fill one uint64 word or
    several, where the first model's valuation lies past the first word, and
    where a chunk is smaller than one frame's words."""

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

    @pytest.mark.parametrize("cells", [24, 108])
    def test_chunks_split_at_a_later_agent_keep_the_order(self, cells, monkeypatch):
        # one 2-world frame is 4 bytes here, so a chunk holds 6 or 27 of
        # the 9**3 frames: one mask of the first two agents and a run of the
        # third's, or one of the first, a run of the second's and all of the
        # third's
        monkeypatch.setattr("doxa.oracle.CHUNK_CELLS", cells)
        budget = ORDER_BUDGETS["3-agents-1-atom"]
        for f in _seeded_formulas(budget, 40):
            expected = next(
                (m for m in enumerate_models(budget, KD) if evaluate(m, 0, f)), None
            )
            assert sat_upto(f, budget, KD) == expected, render(f)

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    @pytest.mark.parametrize("name", WORD_BUDGETS)
    def test_word_boundaries_keep_the_order(self, name, profile, monkeypatch):
        budget, texts = WORD_BUDGETS[name]
        for text in texts:
            f = parse(text)
            expected = next(
                (m for m in enumerate_models(budget, profile) if evaluate(m, 0, f)), None
            )
            assert sat_upto(f, budget, profile) == expected, text
            with monkeypatch.context() as patch:
                # one frame of 2 worlds is 16 bytes of words or more
                patch.setattr("doxa.oracle.CHUNK_CELLS", 8)
                assert sat_upto(f, budget, profile) == expected, text

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_first_model_past_the_first_word(self, profile):
        budget = WORD_BUDGETS["four-words"][0]
        found = [_vmask(sat_upto(parse(text), budget, profile), budget)
                 for text in ("~r & C[a] r", "~s & C[a](r & s)")]
        assert found == [64, 192]


#: sha256 of the JSON of the first model, or ``null``, that ``sat_upto``
#: returned for ``_pinned_queries`` in order, as the one-byte-per-valuation
#: scan returned them before valuations were packed into words.
FIRST_MODELS_SHA256 = "fa95dbe647517e497636550fd09909553c9f18f6efb474368ccccfe6f65283a3"


def _pinned_queries():
    """200 seeded 1-atom, 1-agent formulas at 4 worlds, then 16 seeded
    2-agent ones at 3 worlds, every other one conjoined with
    ``C[a] p & C[b] ~p``, which takes two worlds; each under every profile."""
    rng = random.Random(20240917)
    one = [random_formula(rng, depth=4) for _ in range(200)]
    rng = random.Random(20240917)
    two = []
    for i in range(16):
        f = random_formula(rng, depth=3, atom_names=("p",), agent_names=("a", "b"))
        two.append(And(f, parse("C[a] p & C[b] ~p")) if i % 2 else f)
    budgets = (B4, EnumerationBudget(max_worlds=3, atoms=("p",), agents=("a", "b")))
    for budget, formulas in zip(budgets, (one, two)):
        for profile in PROFILES_BY_STRENGTH:
            for f in formulas:
                yield f, budget, profile


def test_first_models_are_pinned():
    digest = hashlib.sha256()
    for f, budget, profile in _pinned_queries():
        model = sat_upto(f, budget, profile)
        found = None if model is None else model_to_json_dict(model)
        digest.update(json.dumps(found, sort_keys=True).encode())
    assert digest.hexdigest() == FIRST_MODELS_SHA256


def _warm_peak(text: str, budget: EnumerationBudget, worlds: int | None = None) -> int:
    """tracemalloc peak of a kd ``sat_upto`` call, run once before to warm
    the caches, whose first model has ``worlds`` worlds, or which misses
    when ``worlds`` is None."""
    f = parse(text)
    model = sat_upto(f, budget, KD)
    assert (None if model is None else model.worlds) == worlds
    tracemalloc.start()
    try:
        assert sat_upto(f, budget, KD) == model
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_miss_stays_within_its_memory():
    # a scan with one byte per (world, frame, valuation) cell peaked at
    # 7.3 MB on this kd miss; 16 valuations packed in a uint16 word take
    # an eighth of that per truth array
    assert _warm_peak("B[a] p & ~B[a] p & C[a] ~p", B4) < 3_500_000


def test_a_warm_two_agent_miss_stays_within_its_memory():
    # gathering each agent's reach rows per chunk peaked at 4.55 MB on this
    # kd miss; views of the reach tensor copy nothing
    budget = EnumerationBudget(max_worlds=3, atoms=("p", "q"), agents=("a", "b"))
    assert _warm_peak("B[a] p & ~B[a] p & C[b] ~p", budget) < 2_000_000


def test_a_warm_three_agent_hit_stays_within_its_memory():
    # chunks of one mask of the first agent times every mask of the others,
    # 343**2 frames and 2.8 MB per truth array here, peaked at 3.8 MB on
    # this kd hit, which takes three worlds; chunks that split the second
    # agent's axis to fit CHUNK_CELLS peak at 0.5 MB
    budget = EnumerationBudget(max_worlds=3, atoms=("p", "q"), agents=("a", "b", "c"))
    assert _warm_peak("p & q & ~B[b](p | q) & ~B[c](~p | q)", budget, worlds=3) < 1_500_000


@pytest.mark.parametrize(
    "budget",
    [B4, ORDER_BUDGETS["2-agents-2-atoms"], ORDER_BUDGETS["3-agents-1-atom"]],
    ids=["1-agent", "2-agents", "3-agents"],
)
def test_every_reach_array_is_a_view(budget, monkeypatch):
    seen = []

    def recording(order, atom_truth, unreach):
        seen.extend(unreach.values())
        return _vector_truth(order, atom_truth, unreach)

    monkeypatch.setattr("doxa.oracle._vector_truth", recording)
    for f in _seeded_formulas(budget, 10):
        sat_upto(f, budget, KD)
    assert seen
    for array in seen:
        tensor = _reach_tensor(len(array), KD, array.dtype)
        assert np.shares_memory(array, tensor)
        assert not array.flags.owndata


def test_cached_oracle_tables_are_read_only():
    # every scan shares these tables, so a write into one would change the
    # answer of every later scan
    dtype, _, _, tables = _valuations(3, 1, 1)
    for table in (_frames(3, KD), _reach_tensor(3, KD, dtype), *tables):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0


class TestEngineAgreement:
    """The tableau against the oracle over models of up to three worlds, in
    two shapes: two atoms and two agents, and one atom and three agents.
    Every other seeded formula is conjoined with a pair of ``C`` formulas
    that takes two worlds, so the budget leaves room for one more.  kd45 is
    left out: some 2-agent formulas of this generator overrun the engine's
    world bound under kd45, formula 186 only after about five minutes, and a
    third agent only gives the bound more to overrun."""

    @staticmethod
    def _agree(profile, count: int, atom_names, agent_names, conjunct: str) -> None:
        budget = EnumerationBudget(max_worlds=3, atoms=atom_names, agents=agent_names)
        rng = random.Random(20240917)
        for i in range(count):
            f = random_formula(rng, depth=4, atom_names=atom_names, agent_names=agent_names)
            if i % 2:
                f = And(f, parse(conjunct))
            verdict = decide_sat(f, profile)
            if sat_upto(f, budget, profile) is not None:
                assert verdict.is_sat, f"oracle found a model of engine-unsat {render(f)}"
            elif verdict.is_sat:
                assert verdict.model.worlds > budget.max_worlds, (
                    f"oracle missed the engine's model of {render(f)}"
                )

    @pytest.mark.parametrize("profile", [KD, HSTAR, LogicProfile.HINTIKKA])
    def test_oracle_and_engine_agree(self, profile):
        self._agree(profile, 400, ("p", "q"), ("a", "b"), "C[b] q & C[a] ~q")

    @pytest.mark.parametrize("profile", [KD, HSTAR, LogicProfile.HINTIKKA])
    def test_three_agents_agree(self, profile):
        # under kd a miss scans every 3-agent frame, up to 0.3 s, so this
        # shape sends only 70 formulas, 8 of them oracle misses
        self._agree(profile, 70, ("p",), ("a", "b", "c"), "C[c] p & C[b] ~p")
