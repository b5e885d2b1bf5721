"""Syntax-tree behaviour: rendering, desugaring, negation, measurements."""

from __future__ import annotations

import copy
import gc
import pickle

import pytest
from conftest import formulas_st
from hypothesis import given, settings, strategies as st

from doxa import formula
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
    agents,
    atoms,
    desugar,
    modal_depth,
    neg,
    node_count,
    render,
    subformula_closure,
    subformulas,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")
A, B = Agent("a"), Agent("b")

class TestRender:
    @pytest.mark.parametrize(
        ("f", "text"),
        [
            (P, "p"),
            (Not(P), "~p"),
            (Not(Not(P)), "~~p"),
            (Not(And(P, Q)), "~(p & q)"),
            (And(P, Q), "p & q"),
            (Or(And(P, Q), R), "p & q | r"),
            (And(Or(P, Q), R), "(p | q) & r"),
            (Or(Or(P, Q), R), "p | q | r"),
            (Or(P, Or(Q, R)), "p | (q | r)"),
            (And(P, And(Q, R)), "p & (q & r)"),
            (Implies(P, Implies(Q, R)), "p -> q -> r"),
            (Implies(Implies(P, Q), R), "(p -> q) -> r"),
            (Iff(P, Iff(Q, R)), "p <-> q <-> r"),
            (Iff(Iff(P, Q), R), "(p <-> q) <-> r"),
            (Implies(Or(P, Q), And(Q, R)), "p | q -> q & r"),
            (Bel(A, P), "B[a] p"),
            (Comp(A, Not(P)), "C[a] ~p"),
            (Bel(A, Or(P, Q)), "B[a](p | q)"),
            (Bel(A, Bel(B, P)), "B[a] B[b] p"),
            (Not(Bel(A, P)), "~B[a] p"),
            (And(Bel(A, P), Not(Bel(A, Bel(A, P)))), "B[a] p & ~B[a] B[a] p"),
        ],
    )
    def test_golden(self, f, text):
        assert render(f) == text

    def test_str_delegates_to_render(self):
        assert str(Bel(A, And(P, Q))) == "B[a](p & q)"

    def test_rejects_non_formula(self):
        with pytest.raises(TypeError):
            render("p")  # type: ignore[arg-type]


class TestDesugar:
    def test_implication_unfolds(self):
        assert desugar(Implies(P, Q)) == Or(Not(P), Q)

    def test_equivalence_unfolds(self):
        assert desugar(Iff(P, Q)) == And(Or(Not(P), Q), Or(Not(Q), P))

    def test_compatibility_becomes_dual_belief(self):
        assert desugar(Comp(A, P)) == Not(Bel(A, Not(P)))

    def test_rewrites_below_belief(self):
        assert desugar(Bel(A, Implies(P, Q))) == Bel(A, Or(Not(P), Q))

    @given(formulas_st)
    @settings(max_examples=200)
    def test_result_is_sugar_free(self, f):
        kernel = desugar(f)
        for g in subformulas(kernel):
            assert not isinstance(g, (Implies, Iff, Comp))

    @given(formulas_st)
    @settings(max_examples=200)
    def test_idempotent(self, f):
        once = desugar(f)
        assert desugar(once) == once


class TestNeg:
    def test_wraps_positive(self):
        assert neg(P) == Not(P)

    def test_collapses_double_negation(self):
        assert neg(Not(P)) == P
        assert neg(neg(Bel(A, P))) == Bel(A, P)

    @given(formulas_st)
    @settings(max_examples=100)
    def test_closure_contains_collapsed_negations(self, f):
        closure = subformula_closure(desugar(f))
        for g in closure:
            assert neg(g) in closure


class TestStructure:
    def test_nodes_compare_structurally(self):
        assert And(P, Q) == And(Atom("p"), Atom("q"))
        assert len({Bel(A, P), Bel(Agent("a"), Atom("p"))}) == 1

    def test_atoms_collects_names(self):
        f = And(Bel(A, Implies(P, Q)), Comp(B, R))
        assert atoms(f) == {"p", "q", "r"}

    def test_agents_collects_operators(self):
        f = And(Bel(A, Comp(B, P)), Not(P))
        assert agents(f) == {A, B}

    def test_subformulas_includes_self_and_leaves(self):
        f = Bel(A, And(P, Not(Q)))
        subs = subformulas(f)
        assert f in subs and P in subs and Not(Q) in subs and Q in subs

    def test_node_count(self):
        assert node_count(P) == 1
        assert node_count(And(Bel(A, P), Not(Q))) == 5

    def test_modal_depth(self):
        assert modal_depth(And(P, Q)) == 0
        assert modal_depth(Bel(A, Not(Comp(A, P)))) == 2
        assert modal_depth(Or(Bel(A, P), Bel(B, Bel(A, P)))) == 2

    def test_closure_is_linear_in_size(self):
        f = desugar(Bel(A, And(P, Not(Bel(A, P)))))
        assert len(subformula_closure(f)) <= 2 * node_count(f)

    @given(formulas_st)
    def test_rebuilt_node_is_the_same_object(self, f):
        g = type(f)(*(getattr(f, name) for name in f.__match_args__))
        assert g is f and hash(g) == hash(f)

    @given(formulas_st)
    def test_copies_keep_equality_and_hash(self, f):
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f)


def _fresh_chain(name: str, length: int):
    f = Atom(name)
    for _ in range(length - 1):
        f = Not(f)
    return f


class TestInterning:
    def test_equal_structures_are_one_node(self):
        assert And(P, Q) is And(Atom("p"), Atom("q"))
        assert Bel(A, Not(P)) is Bel(Agent("a"), Not(Atom("p")))
        assert And(P, Q) is not And(Q, P)

    @given(formulas_st)
    @settings(max_examples=50)
    def test_copies_are_the_canonical_node(self, f):
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f

    def test_deep_formula_copies_pickles_and_prints(self):
        # 5,000 nested negations, far past the recursion limit
        deep = _fresh_chain("p", 5001)
        assert copy.copy(deep) is deep
        assert copy.deepcopy(deep) is deep
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(deep, protocol)) is deep
        assert repr(deep) == "Not(sub=" * 5000 + "Atom(name='p')" + ")" * 5000

    @given(formulas_st)
    @settings(max_examples=50)
    def test_repr_names_every_field(self, f):
        def reference(g):
            fields = ", ".join(
                f"{name}={reference(v) if isinstance(v, formula.Formula) else repr(v)}"
                for name in g.__match_args__
                for v in (getattr(g, name),)
            )
            return f"{type(g).__name__}({fields})"

        assert repr(f) == reference(f)

    def test_fields_cannot_be_assigned_or_deleted(self):
        f = Bel(A, P)
        with pytest.raises(AttributeError):
            f.sub = Q
        with pytest.raises(AttributeError):
            del f.agent
        with pytest.raises(AttributeError):
            P.name = "q"
        assert f.sub is P and f.agent == A and P.name == "p"
        # nor the slots that keep the walk and the kernel
        with pytest.raises(AttributeError):
            f._walk = ()
        with pytest.raises(AttributeError):
            f._kernel = P

    def test_wrong_field_count_is_rejected(self):
        with pytest.raises(TypeError):
            Not(P, Q)
        with pytest.raises(TypeError):
            And(P)

    def test_dropped_nodes_leave_the_table(self):
        gc.collect()
        start = Atom("interning_probe_start")  # a miss empties the queue of dead nodes
        before = len(formula._NODES)
        f = _fresh_chain("interning_probe", 200)
        assert len(formula._NODES) == before + 200
        del f
        gc.collect()
        # the dead entries go at the next miss, which builds one new entry
        g = Atom("interning_probe_end")
        assert len(formula._NODES) == before + 1
        assert _fresh_chain("interning_probe", 200) is _fresh_chain("interning_probe", 200)
        assert g is Atom("interning_probe_end") and start is Atom("interning_probe_start")


def _reference_walk(f):
    """Each distinct node of ``f`` once, children first, by recursion."""
    order, seen = [], set()

    def visit(g):
        if g not in seen:
            seen.add(g)
            for name in g.__match_args__:
                value = getattr(g, name)
                if isinstance(value, formula.Formula):
                    visit(value)
            order.append(g)

    visit(f)
    return order


def _sugared_chain(name: str, length: int):
    """A chain of ``length`` nodes alternating Comp and Not over a fresh
    atom, so its kernel is other nodes than its own."""
    f = Atom(name)
    for i in range(length - 1):
        f = Comp(A, f) if i % 2 else Not(f)
    return f


class TestMemo:
    """``postorder`` and ``desugar`` derive a node's walk and kernel once
    and keep them on the node."""

    @given(formulas_st)
    @settings(max_examples=50)
    def test_walk_is_the_postorder_and_a_new_list_each_call(self, f):
        first = formula.postorder(f)
        assert first == _reference_walk(f)
        first.append(P)
        first[0] = Q
        second = formula.postorder(f)
        assert second == _reference_walk(f) and second is not first
        assert formula.postorder(f) is not second

    def test_second_desugar_does_not_walk(self, monkeypatch):
        f = Bel(A, Implies(Atom("memo_probe_p"), Comp(B, Atom("memo_probe_q"))))
        kernel = desugar(f)
        atom = Atom("memo_probe_r")
        assert desugar(atom) is atom

        def no_walk(g):
            raise AssertionError("walked again")

        monkeypatch.setattr(formula, "postorder", no_walk)
        assert desugar(f) is kernel
        assert desugar(kernel) is kernel
        assert desugar(desugar(f)) is desugar(f)
        assert desugar(atom) is atom

    def test_nothing_is_kept_from_a_failed_walk(self):
        bad = Not("x")  # type: ignore[arg-type]
        above = And(P, bad)
        for _ in range(2):
            for g in (bad, above):
                with pytest.raises(TypeError):
                    formula.postorder(g)
                with pytest.raises(TypeError):
                    desugar(g)
                assert g._walk is None and g._kernel is None

    def test_memoised_nodes_leave_the_table(self):
        # the walk and the kernel refer only to other nodes, never back, so
        # refcounting alone frees a memoised node: no collector runs here
        gc.collect()
        gc.disable()
        try:
            start = Atom("memo_probe_start")  # a miss empties the queue of dead nodes
            before = len(formula._NODES)
            f = _sugared_chain("memo_probe", 200)
            kernel = desugar(f)
            assert kernel is not f and formula.postorder(f)[-1] is f
            formula.postorder(kernel)
            subformula_closure(kernel)
            assert len(formula._NODES) > before + 200
            del f, kernel
            g = Atom("memo_probe_end")
            assert len(formula._NODES) == before + 1
            assert g is Atom("memo_probe_end") and start is Atom("memo_probe_start")
        finally:
            gc.enable()

    def test_copies_of_a_memoised_node_are_the_node(self):
        f = Comp(A, Implies(P, Bel(B, Q)))
        kernel = desugar(f)
        walk = formula.postorder(f)
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g is f and desugar(g) is kernel and formula.postorder(g) == walk
        for g in (copy.deepcopy(kernel), pickle.loads(pickle.dumps(kernel))):
            assert g is kernel and desugar(g) is kernel


class TestNameValidation:
    @pytest.mark.parametrize("bad", ["", "P", "1p", "p-1", "p q", "B"])
    def test_bad_atom_names(self, bad):
        with pytest.raises(ValueError):
            Atom(bad)

    @pytest.mark.parametrize("good", ["p", "p1", "p_1", "agent_two"])
    def test_good_names(self, good):
        assert Atom(good).name == good
        assert Agent(good).name == good

    def test_bad_agent_name(self):
        with pytest.raises(ValueError):
            Agent("Alice")
