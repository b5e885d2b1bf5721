"""Kripke structures: validation, evaluation, frame checks, label checks,
JSON serialization."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from conftest import formulas_st, random_formula
from hypothesis import given, settings, strategies as st

from doxa.formula import (
    Agent,
    And,
    Atom,
    Bel,
    Comp,
    Iff,
    Implies,
    Not,
    Or,
    desugar,
    neg,
    postorder,
)
from doxa.models import (
    MAX_MODEL_WORLDS,
    LabeledModelSystem,
    LogicProfile,
    ModelSystem,
    PROFILES_BY_STRENGTH,
    Violation,
    check_frame,
    check_model_set,
    evaluate,
    labeled_from_json_dict,
    labeled_to_json_dict,
    model_from_json_dict,
    model_to_json_dict,
)

P, Q = Atom("p"), Atom("q")
A = Agent("a")


def chain_model() -> ModelSystem:
    """w0 -a-> w1 -a-> w1, with p true at w1 only and q true at w0."""
    return ModelSystem.from_pairs(
        worlds=2,
        designated=0,
        valuation={0: frozenset({"q"}), 1: frozenset({"p"})},
        alternatives={"a": frozenset({(0, 1), (1, 1)})},
    )


class TestConstruction:
    def test_needs_a_world(self):
        with pytest.raises(ValueError, match="at least one world"):
            ModelSystem(worlds=0, designated=0)

    def test_designated_in_range(self):
        with pytest.raises(ValueError, match="designated world 2 out of range"):
            ModelSystem(worlds=2, designated=2)

    def test_valuation_world_in_range(self):
        with pytest.raises(ValueError, match="world 3 out of range 0..1"):
            ModelSystem(worlds=2, designated=0, valuation={3: frozenset({"p"})})

    def test_edge_worlds_in_range(self):
        with pytest.raises(ValueError, match="world 9 out of range"):
            ModelSystem.from_pairs(worlds=2, designated=0, alternatives={"a": {(0, 9)}})

    @pytest.mark.parametrize("row", [0b100, 0b1000, -1])
    def test_row_sees_no_world_past_the_last(self, row):
        with pytest.raises(ValueError, match="a-row of world 1 sees a world out of range"):
            ModelSystem(worlds=2, designated=0, rows={"a": (0b01, row)})

    @pytest.mark.parametrize("rows", [(), (1,), (1, 2, 2)])
    def test_one_row_per_world(self, rows):
        with pytest.raises(ValueError, match=f"{len(rows)} a-rows for 2 worlds"):
            ModelSystem(worlds=2, designated=0, rows={"a": rows})

    def test_rows_and_pairs_agree(self):
        m = chain_model()
        assert m.rows == {"a": (0b10, 0b10)}
        assert m == ModelSystem(worlds=2, designated=0, valuation=m.valuation, rows=m.rows)
        assert m.alternatives == {"a": frozenset({(0, 1), (1, 1)})}

    def test_agent_keys_are_stored_by_name(self):
        rows = ModelSystem(worlds=1, designated=0, rows={A: (1,)})
        pairs = ModelSystem.from_pairs(worlds=1, designated=0, alternatives={A: {(0, 0)}})
        assert rows.rows == pairs.rows == {"a": (1,)}

    def test_collections_are_normalised(self):
        m = ModelSystem.from_pairs(
            worlds=1, designated=0, valuation={0: ["p", "p"]}, alternatives={"a": [(0, 0)]}
        )
        assert m.valuation[0] == frozenset({"p"})
        assert m.alternatives["a"] == frozenset({(0, 0)})

    def test_atoms_at(self):
        m = chain_model()
        assert m.atoms_at(0) == frozenset({"q"})
        assert m.atoms_at(1) == frozenset({"p"})


def reference_evaluate(m: ModelSystem, w: int, f) -> bool:
    """The reference semantics: one clause per connective, recursing into
    subformulas at each world, as ``evaluate`` was written before it
    labelled each subformula once."""
    m._check_world(w)
    if isinstance(f, Atom):
        return f.name in m.atoms_at(w)
    if isinstance(f, Not):
        return not reference_evaluate(m, w, f.sub)
    if isinstance(f, And):
        return reference_evaluate(m, w, f.left) and reference_evaluate(m, w, f.right)
    if isinstance(f, Or):
        return reference_evaluate(m, w, f.left) or reference_evaluate(m, w, f.right)
    if isinstance(f, Implies):
        return not reference_evaluate(m, w, f.left) or reference_evaluate(m, w, f.right)
    if isinstance(f, Iff):
        return reference_evaluate(m, w, f.left) == reference_evaluate(m, w, f.right)
    successors = sorted(v for u, v in m.alternatives.get(f.agent.name, ()) if u == w)
    if isinstance(f, Bel):
        return all(reference_evaluate(m, v, f.sub) for v in successors)
    if isinstance(f, Comp):
        return any(reference_evaluate(m, v, f.sub) for v in successors)
    raise TypeError(f"not a formula: {f!r}")


@st.composite
def small_models(draw) -> ModelSystem:
    """Up to 4 worlds; each of agents a and b has a random relation, or is
    absent from ``alternatives``."""
    n = draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    valuation = {
        w: draw(st.frozensets(st.sampled_from(["p", "q", "r"]))) for w in range(n)
    }
    alternatives = {
        agent: draw(st.frozensets(pairs))
        for agent in ("a", "b")
        if draw(st.booleans())
    }
    return ModelSystem.from_pairs(
        worlds=n, designated=0, valuation=valuation, alternatives=alternatives
    )


class TestEvaluate:
    @given(small_models(), formulas_st)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_reference_semantics(self, m, f):
        for w in range(m.worlds):
            assert evaluate(m, w, f) == reference_evaluate(m, w, f)

    def test_deep_nesting_is_labelled_once(self):
        # 8 worlds that all see each other: the reference semantics visits
        # 8**12 paths, the labelling 13 subformulas
        m = ModelSystem.from_pairs(
            worlds=8,
            designated=0,
            valuation={w: frozenset({"p"}) for w in range(8)},
            alternatives={"a": frozenset(itertools.product(range(8), repeat=2))},
        )
        f = P
        for _ in range(12):
            f = Bel(A, f)
        assert evaluate(m, 0, f)
        assert not evaluate(m, 0, Bel(A, Not(f)))

    def test_propositional_connectives(self):
        m = chain_model()
        assert evaluate(m, 0, Q)
        assert not evaluate(m, 0, P)
        assert evaluate(m, 0, Or(P, Q))
        assert not evaluate(m, 0, And(P, Q))
        assert evaluate(m, 0, Implies(P, Q))
        assert not evaluate(m, 0, Iff(P, Q))
        assert evaluate(m, 0, Not(P))

    def test_belief_is_universal(self):
        m = chain_model()
        assert evaluate(m, 0, Bel(A, P))
        assert not evaluate(m, 0, Bel(A, Q))
        assert evaluate(m, 1, Bel(A, P))

    def test_compatibility_is_existential(self):
        m = chain_model()
        assert evaluate(m, 0, Comp(A, P))
        assert not evaluate(m, 0, Comp(A, Q))

    def test_empty_successor_set(self):
        m = ModelSystem(worlds=1, designated=0, valuation={0: frozenset({"p"})})
        assert evaluate(m, 0, Bel(A, P))  # vacuously
        assert not evaluate(m, 0, Comp(A, P))

    def test_world_must_exist(self):
        with pytest.raises(ValueError, match="out of range"):
            evaluate(chain_model(), 5, P)

    @given(st.integers(0, 1), st.sampled_from([P, Q, And(P, Q), Bel(A, P)]))
    @settings(max_examples=40)
    def test_duality(self, w, f):
        m = chain_model()
        assert evaluate(m, w, Bel(A, f)) == (not evaluate(m, w, Comp(A, Not(f))))


def _single_agent(n: int, edges: set[tuple[int, int]]) -> ModelSystem:
    return ModelSystem.from_pairs(worlds=n, designated=0, alternatives={"a": frozenset(edges)})


class TestCheckFrame:
    def test_clean_models_have_no_violations(self):
        m = chain_model()
        for profile in PROFILES_BY_STRENGTH:
            assert check_frame(m, profile) == []

    def test_serial_violation(self):
        m = _single_agent(2, {(0, 1)})
        violations = check_frame(m, LogicProfile.KD)
        assert violations == [
            Violation("serial", (1,), None, "world 1 has no a-alternative")
        ]

    def test_transitive_violation(self):
        m = _single_agent(3, {(0, 1), (1, 2), (2, 2)})
        violations = check_frame(m, LogicProfile.HINTIKKA)
        assert Violation("transitive", (0, 2), None, "missing a-edge 0->2 (via 1)") in violations
        assert all(v.kind == "transitive" for v in violations)

    def test_euclidean_violation(self):
        m = _single_agent(3, {(0, 1), (0, 2), (1, 1), (2, 2)})
        violations = check_frame(m, LogicProfile.KD45)
        kinds = {(v.kind, v.worlds) for v in violations}
        assert ("euclidean", (1, 2)) in kinds
        assert ("euclidean", (2, 1)) in kinds

    def test_witness_violation(self):
        m = _single_agent(2, {(0, 1), (1, 0)})
        violations = check_frame(m, LogicProfile.HSTAR)
        assert [v.kind for v in violations] == ["a3-witness", "a3-witness"]
        assert [v.worlds for v in violations] == [(0,), (1,)]

    def test_witness_satisfied_by_self_loop(self):
        m = _single_agent(2, {(0, 1), (1, 1)})
        assert check_frame(m, LogicProfile.HSTAR) == []

    def test_multi_agent_checked_independently(self):
        m = ModelSystem.from_pairs(
            worlds=2,
            designated=0,
            alternatives={"a": frozenset({(0, 0), (1, 1)}), "b": frozenset({(0, 1)})},
        )
        violations = check_frame(m, LogicProfile.KD)
        assert violations == [
            Violation("serial", (1,), None, "world 1 has no b-alternative")
        ]

    def test_every_small_relation_keeps_its_violation_list(self):
        # sha256 of the violation lists of every one-agent relation on up to
        # three worlds under each profile, one repr per line, as the breach
        # generators over successor sets listed them before the frame
        # predicates were written over successor rows
        # and ``check_model_set`` on the same model without labels, the
        # check-model command's one path, returns exactly that list
        lines = []
        for n in (1, 2, 3):
            for mask in range(1 << (n * n)):
                m = _single_agent(n, _edges_from_mask(mask, n))
                for profile in PROFILES_BY_STRENGTH:
                    violations = check_frame(m, profile)
                    assert check_model_set(LabeledModelSystem(m), profile) == violations
                    lines.append(repr(violations))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (
            2120, "7cfcf5601f55364c1db303e2af90149ed9d48692afbb06de22fc0649b195b7a0"
        )


def _edges_from_mask(mask: int, n: int) -> set[tuple[int, int]]:
    return {(w, v) for w in range(n) for v in range(n) if mask >> (w * n + v) & 1}


class TestFrameClassInclusion:
    """Admissible frames nest kd45 within hintikka within hstar within kd."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inclusion_chain_over_all_relations(self, n):
        order = list(PROFILES_BY_STRENGTH)
        for mask in range(1 << (n * n)):
            m = _single_agent(n, _edges_from_mask(mask, n))
            admitted = [not check_frame(m, profile) for profile in order]
            for smaller, larger in itertools.pairwise(range(len(order))):
                if admitted[smaller]:
                    assert admitted[larger], (n, mask, order[smaller], order[larger])


class TestCheckModelSet:
    def test_sugar_labels_rejected(self):
        with pytest.raises(ValueError, match="not desugared"):
            LabeledModelSystem(
                model=_single_agent(1, {(0, 0)}), labels={0: (Implies(P, Q),)}
            )

    def test_clean_label_set(self):
        lm = LabeledModelSystem(
            model=chain_model(),
            labels={0: (Bel(A, P), Q), 1: (P, Bel(A, P))},
        )
        assert check_model_set(lm, LogicProfile.HSTAR) == []

    def test_clash_reported_once_per_pair(self):
        lm = LabeledModelSystem(
            model=_single_agent(1, {(0, 0)}), labels={0: (P, Not(P), Not(P))}
        )
        violations = check_model_set(lm, LogicProfile.KD)
        assert [v.kind for v in violations] == ["C.~"]
        assert violations[0].formula == P

    def test_missing_conjunct(self):
        lm = LabeledModelSystem(
            model=_single_agent(1, {(0, 0)}), labels={0: (And(P, Q), P)}
        )
        violations = check_model_set(lm, LogicProfile.KD)
        assert [v.kind for v in violations] == ["C.&"]
        assert "right conjunct missing" in violations[0].message

    def test_missing_disjunct_and_negations(self):
        lm = LabeledModelSystem(
            model=_single_agent(1, {(0, 0)}),
            labels={0: (Or(P, Q), Not(Not(P)), Not(And(P, Q)), Not(Or(P, Q)))},
        )
        kinds = [v.kind for v in check_model_set(lm, LogicProfile.KD)]
        assert kinds.count("C.v") == 1
        assert kinds.count("C.~~") == 1
        assert kinds.count("C.~&") == 1
        assert kinds.count("C.~v") == 2  # both disjunct negations absent

    def test_unsupported_belief(self):
        lm = LabeledModelSystem(
            model=chain_model(), labels={0: (Bel(A, Q),)}
        )
        violations = check_model_set(lm, LogicProfile.KD)
        kinds = {(v.kind, v.worlds) for v in violations}
        assert ("C.B", (0,)) in kinds
        assert ("C.B*", (0, 1)) in kinds

    def test_unwitnessed_compatibility(self):
        lm = LabeledModelSystem(
            model=chain_model(), labels={0: (Not(Bel(A, P)),)}
        )
        violations = check_model_set(lm, LogicProfile.KD)
        assert [(v.kind, v.worlds) for v in violations] == [("C.C", (0,))]

    def test_compatibility_witness_accepts_collapsed_negation(self):
        # ~B[a] ~p is witnessed by a world labelled p (not only ~~p).
        lm = LabeledModelSystem(
            model=chain_model(), labels={0: (Not(Bel(A, Not(P))),), 1: (P,)}
        )
        assert check_model_set(lm, LogicProfile.KD) == []

    def test_hstar_belief_must_reach_itself(self):
        lm = LabeledModelSystem(
            model=chain_model(), labels={0: (Bel(A, P),), 1: (P,)}
        )
        assert check_model_set(lm, LogicProfile.KD) == []
        hstar = check_model_set(lm, LogicProfile.HSTAR)
        assert [(v.kind, v.worlds) for v in hstar] == [("C.CB", (0,))]

    def test_transitive_profiles_propagate_beliefs(self):
        lm = LabeledModelSystem(
            model=chain_model(), labels={0: (Bel(A, P),), 1: (P,)}
        )
        hintikka = check_model_set(lm, LogicProfile.HINTIKKA)
        assert ("C.BB*", (0, 1)) in {(v.kind, v.worlds) for v in hintikka}

    def test_kd45_propagates_negated_beliefs(self):
        m = ModelSystem.from_pairs(
            worlds=2,
            designated=0,
            valuation={},
            alternatives={"a": frozenset({(0, 1), (1, 1)})},
        )
        lm = LabeledModelSystem(model=m, labels={0: (Not(Bel(A, P)),), 1: (Not(P),)})
        kd45 = check_model_set(lm, LogicProfile.KD45)
        assert ("C.~B*", (0, 1)) in {(v.kind, v.worlds) for v in kd45}

    def test_every_labeled_model_keeps_its_violation_list(self):
        # sha256 of the violation lists of 3,000 seeded labeled models under
        # each profile, one repr per line: 1-3 worlds, 1-2 agents, random
        # successor rows, and labels drawn from a formula's desugared
        # subformulas g together with neg(g) and the un-collapsed Not(g)
        lines, kinds = [], set()
        for model in _random_labeled_models(random.Random(20261019), 3000):
            for profile in PROFILES_BY_STRENGTH:
                violations = check_model_set(model, profile)
                kinds |= {v.kind for v in violations}
                lines.append(repr(violations))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert kinds == {
            "C.~", "C.&", "C.v", "C.~~", "C.~&", "C.~v", "C.B", "C.B*", "C.C", "C.CB",
            "C.BB*", "C.~B*", "serial", "transitive", "euclidean", "a3-witness",
        }
        assert (len(lines), digest) == (
            12000, "24742c5e3239039ae19cf5b6f620e57984233c05d85658daf47c2ad89ffca9a3"
        )


def _random_labeled_models(rng: random.Random, count: int):
    for _ in range(count):
        n = rng.randint(1, 3)
        agent_names = ("a", "b")[: rng.randint(1, 2)]
        f = desugar(random_formula(rng, 3, ("p", "q"), agent_names))
        pool = list(dict.fromkeys(h for g in postorder(f) for h in (g, neg(g), Not(g))))
        rows = {a: [rng.randrange(1 << n) for _ in range(n)] for a in agent_names}
        labels = {w: tuple(rng.sample(pool, rng.randint(0, min(6, len(pool))))) for w in range(n)}
        yield LabeledModelSystem(ModelSystem(n, 0, rows=rows), labels)


class TestJsonRoundTrip:
    def test_model_round_trip(self):
        m = chain_model()
        data = model_to_json_dict(m)
        assert data["worlds"] == 2
        assert data["valuation"] == {"0": ["q"], "1": ["p"]}
        assert data["alternatives"] == {"a": [[0, 1], [1, 1]]}
        assert model_from_json_dict(data) == m

    def test_labeled_round_trip(self):
        lm = LabeledModelSystem(
            model=chain_model(), labels={0: (Bel(A, P), Q), 1: (P,)}
        )
        data = labeled_to_json_dict(lm)
        assert data["labels"] == {"0": ["B[a] p", "q"], "1": ["p"]}
        back = labeled_from_json_dict(data)
        assert back.model == lm.model
        assert back.labels == lm.labels

    def test_labels_are_desugared_on_load(self):
        data = model_to_json_dict(_single_agent(1, {(0, 0)}))
        data["labels"] = {"0": ["C[a] p"]}
        back = labeled_from_json_dict(data)
        assert back.label(0) == (Not(Bel(A, Not(P))),)

    @pytest.mark.parametrize(
        ("mutation", "message"),
        [
            (lambda d: d.update(extra=1), "unknown model key"),
            (lambda d: d.update(worlds="2"), "'worlds' must be an integer"),
            (lambda d: d.update(worlds=True), "'worlds' must be an integer"),
            (lambda d: d.update(designated="0"), "'designated' must be an integer"),
            (lambda d: d.update(valuation={"x": ["p"]}), "not a world index"),
            (lambda d: d.update(valuation={"0": "p"}), "must be a list of atom names"),
            (lambda d: d.update(alternatives={"a": [[0]]}), "must be a \\[from, to\\] pair"),
            (lambda d: d.update(alternatives={"a": [[0, True]]}), "must be a \\[from, to\\] pair"),
            (lambda d: d.update(alternatives={"a": [[-1, 0]]}), "world -1 out of range"),
            (lambda d: d.update(alternatives={"a": [[0, -1]]}), "world -1 out of range"),
            (lambda d: d.update(alternatives={"a": [[0, 2]]}), "world 2 out of range"),
            (lambda d: d.update(worlds=MAX_MODEL_WORLDS + 1), "above the limit of 4096"),
            (lambda d: d.update(worlds=10**9), "above the limit of 4096"),
            (lambda d: d.update(labels={"0": "p"}), "must be a list of formula strings"),
            (lambda d: d.update(alternatives={"A B": [[0, 1]]}), "invalid agent name 'A B'"),
            (lambda d: d.update(alternatives={"": []}), "invalid agent name ''"),
            (lambda d: d.update(valuation={"0": ["P Q"]}), "invalid atom name 'P Q'"),
            (lambda d: d.update(valuation={"1": [""]}), "invalid atom name ''"),
            *(
                (lambda d, field=field, key=key: d.update({field: {key: ["p"]}}),
                 f"{field} key '{key}' is not a world index")
                for field in ("valuation", "labels")
                for key in ("01", "\u0661", "\u00b2")
            ),
        ],
    )
    def test_strict_validation(self, mutation, message):
        data = model_to_json_dict(chain_model())
        mutation(data)
        with pytest.raises(ValueError, match=message):
            labeled_from_json_dict(data)

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            model_from_json_dict([1, 2])
