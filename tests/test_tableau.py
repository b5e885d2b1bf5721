"""Decision procedure: verdicts, refutation traces, extracted models."""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest
from conftest import random_formula

from doxa import (
    LogicProfile,
    PROFILES_BY_STRENGTH,
    RULES,
    SatVerdict,
    UnsatVerdict,
    check_frame,
    decide_sat,
    decide_valid,
    evaluate,
    parse,
    render_trace,
    trace_to_json_dict,
    verdict_to_json_dict,
)

HSTAR = LogicProfile.HSTAR
HINTIKKA = LogicProfile.HINTIKKA
KD = LogicProfile.KD
KD45 = LogicProfile.KD45


def sat(text: str, profile: LogicProfile) -> bool:
    return decide_sat(parse(text), profile).is_sat


class TestVerdicts:
    @pytest.mark.parametrize(
        ("text", "profile", "expect_sat"),
        [
            ("p & ~p", KD, False),
            ("p | ~p", KD, True),
            ("p & ~B[a] p", HSTAR, True),
            ("p & ~B[a] p", HINTIKKA, True),
            ("B[a](p & ~B[a] p)", HSTAR, False),
            ("B[a](p & ~B[a] p)", HINTIKKA, False),
            ("B[a](p & ~B[a] p)", KD, True),
            ("B[a] p & ~B[a] B[a] p", HSTAR, True),
            ("B[a] p & ~B[a] B[a] p", HINTIKKA, False),
            ("B[a] p & ~B[a] B[a] p", KD45, False),
            ("B[a](B[a] p & ~B[a] B[a] p)", HSTAR, False),
            ("B[a] p & C[a] ~B[a] p", HSTAR, True),
            ("B[a] p & C[a] ~B[a] p", HINTIKKA, False),
            ("B[a] p & B[a] ~p", KD, False),
            ("B[a] p & C[a] ~p", KD, False),
            ("B[a] p & ~p", KD, True),
            ("B[a] B[b] p & ~B[a] p", KD45, True),
            ("~B[a] p & ~B[a] ~p", KD45, True),
        ],
    )
    def test_satisfiability(self, text, profile, expect_sat):
        assert sat(text, profile) is expect_sat

    @pytest.mark.parametrize(
        ("text", "profile", "expect_valid"),
        [
            ("p | ~p", KD, True),
            ("p -> B[a] p", HSTAR, False),
            ("B[a](p -> q) -> (B[a] p -> B[a] q)", KD, True),
            ("B[a] p -> C[a] p", KD, True),
            ("B[a] p -> C[a] B[a] p", HSTAR, True),
            ("B[a] p -> B[a] B[a] p", HSTAR, False),
            ("B[a] p -> B[a] B[a] p", HINTIKKA, True),
            ("~B[a] p -> B[a] ~B[a] p", HINTIKKA, False),
            ("~B[a] p -> B[a] ~B[a] p", KD45, True),
            ("B[a] p <-> ~C[a] ~p", KD, True),
        ],
    )
    def test_validity(self, text, profile, expect_valid):
        verdict = decide_valid(parse(text), profile)
        assert verdict.valid is expect_valid
        if expect_valid:
            assert verdict.trace is not None and verdict.countermodel is None
        else:
            assert verdict.trace is None and verdict.countermodel is not None

    def test_verdict_flags(self):
        assert decide_sat(parse("p"), KD).is_sat is True
        assert decide_sat(parse("p & ~p"), KD).is_sat is False

    def test_deeply_nested_negations_decide(self):
        # hashing a node no longer recurses into its children
        assert sat("~" * 500 + "p", KD) is True


class TestSatModels:
    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    @pytest.mark.parametrize(
        "text",
        [
            "p",
            "B[a] p",
            "B[a] B[a] p",
            "C[a] p & C[a] ~p",
            "B[a](p | q) & ~B[a] p",
            "B[a] B[b] p & C[b] ~p",
        ],
    )
    def test_models_self_verify(self, text, profile):
        f = parse(text)
        verdict = decide_sat(f, profile)
        if not verdict.is_sat:
            pytest.skip(f"{text} unsatisfiable under {profile.value}")
        assert check_frame(verdict.model, profile) == []
        assert evaluate(verdict.model, verdict.model.designated, f)

    def test_designated_world_is_zero(self):
        verdict = decide_sat(parse("B[a] p & ~p"), HSTAR)
        assert verdict.model.designated == 0

    def test_blocking_keeps_models_small(self):
        verdict = decide_sat(parse("B[a] B[a] B[a] p"), KD)
        assert verdict.is_sat
        assert verdict.model.worlds <= 4

    def test_moore_countermodel_under_kd(self):
        f = parse("B[a](p & ~B[a] p)")
        verdict = decide_sat(f, KD)
        assert verdict.is_sat
        assert evaluate(verdict.model, 0, f)

    def test_stats_are_populated(self):
        verdict = decide_sat(parse("B[a] p"), KD)
        assert verdict.stats.rules_fired > 0
        assert verdict.stats.worlds_created >= 1


def _unsat_traces() -> list[tuple[str, LogicProfile]]:
    return [
        ("p & ~p", KD),
        ("B[a] p & B[a] ~p", KD),
        ("B[a](p & ~B[a] p)", HSTAR),
        ("B[a](B[a] p & ~B[a] B[a] p)", HSTAR),
        ("B[a] p & ~B[a] B[a] p", HINTIKKA),
        ("B[a] p & C[a] ~B[a] p", HINTIKKA),
        ("~(~B[a] p -> B[a] ~B[a] p)", KD45),
        ("B[a](p | q) & B[a] ~p & B[a] ~q", KD),
    ]


class TestTraceStructure:
    @pytest.mark.parametrize(("text", "profile"), _unsat_traces())
    def test_trace_invariants(self, text, profile):
        verdict = decide_sat(parse(text), profile)
        assert isinstance(verdict, UnsatVerdict)
        trace = verdict.trace
        assert [step.i for step in trace] == list(range(1, len(trace) + 1))
        assert trace[0].rule == "seed"
        assert trace[0].world == "w0"
        assert trace[0].premises == ()
        assert trace[-1].rule == "C.~-clash"
        for step in trace:
            assert step.rule in RULES
            assert re.fullmatch(r"w\d+", step.world)
            assert list(step.premises) == sorted(step.premises)
            assert all(1 <= p < step.i for p in step.premises)
            if step.rule != "seed":
                assert step.premises

    @pytest.mark.parametrize(("text", "profile"), _unsat_traces())
    def test_decisions_are_deterministic(self, text, profile):
        first = decide_sat(parse(text), profile)
        second = decide_sat(parse(text), profile)
        assert first.trace == second.trace

    def test_sat_models_are_deterministic(self):
        f = parse("B[a](p | q) & ~B[a] p")
        assert decide_sat(f, HSTAR).model == decide_sat(f, HSTAR).model


class TestRenderTrace:
    def test_text_golden_propositional(self):
        verdict = decide_sat(parse("p & ~p"), KD)
        assert render_trace(verdict.trace) == (
            "(1) p & ~p ∈ w0   By (seed)\n"
            "(2) p ∈ w0   From (1) by (C.&)\n"
            "(3) ~p ∈ w0   From (1) by (C.&)\n"
            "(4) p ∈ w0   From (2), (3) by (C.~-clash)"
        )

    def test_text_golden_believed_moore(self):
        verdict = decide_sat(parse("B[a](p & ~B[a] p)"), HSTAR)
        assert render_trace(verdict.trace) == (
            "(1) B[a](p & ~B[a] p) ∈ w0   By (seed)\n"
            "(2) p & ~B[a] p ∈ w1   From (1) by (C.B*)\n"
            "(3) p ∈ w1   From (2) by (C.&)\n"
            "(4) ~B[a] p ∈ w1   From (2) by (C.&)\n"
            "(5) C[a] ~p ∈ w1   From (4) by (C.BDef-rewrite)\n"
            "(6) B[a](p & ~B[a] p) ∈ w1   From (1) by (C.CB)\n"
            "(7) ~p ∈ w2   From (5) by (C.C)\n"
            "(8) p & ~B[a] p ∈ w2   From (6) by (C.B*)\n"
            "(9) p ∈ w2   From (8) by (C.&)\n"
            "(10) p ∈ w2   From (7), (9) by (C.~-clash)"
        )

    def test_json_form_matches_dict_form(self):
        verdict = decide_sat(parse("B[a] p & B[a] ~p"), KD)
        assert json.loads(render_trace(verdict.trace, output="json")) == (
            trace_to_json_dict(verdict.trace)
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            render_trace((), output="xml")


class TestVerdictJson:
    def test_sat_embeds_model(self):
        data = verdict_to_json_dict(decide_sat(parse("p"), KD))
        assert data["verdict"] == "sat"
        assert set(data) == {"verdict", "model"}
        assert data["model"]["designated"] == 0

    def test_unsat_embeds_steps(self):
        data = verdict_to_json_dict(decide_sat(parse("p & ~p"), KD))
        assert data["verdict"] == "unsat"
        assert set(data) == {"verdict", "steps"}
        assert data["steps"][0] == {
            "i": 1,
            "world": "w0",
            "formula": "p & ~p",
            "rule": "seed",
            "from": [],
        }

    def test_valid_embeds_steps(self):
        data = verdict_to_json_dict(decide_valid(parse("p | ~p"), KD))
        assert data["verdict"] == "valid"
        assert data["steps"][-1]["rule"] == "C.~-clash"

    def test_invalid_embeds_countermodel(self):
        f = parse("B[a] p -> B[a] B[a] p")
        data = verdict_to_json_dict(decide_valid(f, HSTAR))
        assert data["verdict"] == "invalid"
        assert set(data) == {"verdict", "model"}
        assert data["model"]["worlds"] >= 2


class TestCountermodels:
    def test_invalid_countermodel_falsifies_query(self):
        f = parse("B[a] p -> B[a] B[a] p")
        verdict = decide_valid(f, HSTAR)
        assert not verdict.valid
        cm = verdict.countermodel
        assert check_frame(cm, HSTAR) == []
        assert not evaluate(cm, cm.designated, f)

    def test_omniscience_countermodel(self):
        f = parse("p -> B[a] p")
        for profile in (HSTAR, HINTIKKA):
            verdict = decide_valid(f, profile)
            assert not verdict.valid
            assert not evaluate(verdict.countermodel, 0, f)

    def test_weak_introspection_axiom_separates_profiles(self):
        f = parse("B[a] p -> C[a] B[a] p")
        assert decide_valid(f, HSTAR).valid
        assert decide_valid(f, KD).valid is False


def _digest(verdicts) -> str:
    payload = json.dumps([verdict_to_json_dict(v) for v in verdicts], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _work(verdict) -> tuple[int, int, int]:
    stats = verdict.stats
    return (stats.rules_fired, stats.worlds_created, stats.blocks_applied)


def _work_digest(verdicts) -> str:
    payload = json.dumps([_work(v) for v in verdicts])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestPinnedVerdicts:
    """sha256 of the verdict JSON of seeded suites, so that a change to the
    rule order, the relation completion or the model layout cannot alter a
    verdict, a trace or a model without failing here.  The work counts of
    every verdict are pinned beside it: a rule fired in another order, or a
    rule application skipped, changes them even where the verdict JSON
    stays the same."""

    SUITE = {
        KD45: "126bf28a21ffec21e87a9e411d47d9022348ac7191351fa46f16cb34b878df6b",
        HINTIKKA: "6554834c34ebd8b4e44d0d8ea2d5f74a1e82b81cb4c89b7c2f7e3185976e72e3",
        HSTAR: "c175059c857e6d8ea06e7e8b57be8d661d9ca8eb0b247e98275a3676fc9b9e8b",
        KD: "bec8ceda191918d8f12fb537fbdfc80ebc39a34526a6d8c528775c76dab45ec7",
    }
    SUITE_WORK = {
        KD45: "b32474665c9cebe4e1921c56689b0fc6a4678e1589943583b90f8f7a9943566d",
        HINTIKKA: "64e78f83bf049665a40f277a4b337a9710c52950eac0421132dda9c989acce1f",
        HSTAR: "ebf548f39d2ac6e57e62cd0903c85ce2367f893131e2222b113ba1c264314109",
        KD: "d2fa88858d48d49ca9963277d1fe0e7db806fce88efb0f0c4e12c2c9a64312b1",
    }
    # kd45 is left out: some 2-agent formulas of this seed overrun the
    # engine's world bound or its recursion depth.
    TWO_AGENT = {
        HINTIKKA: "9baa2d6a08f37f888573c449c6b2adc9ccd172f1299141ba62f21f8a7483c264",
        HSTAR: "ce0e5059795ace0a5c519eff16cf4b7b8cbb79053e64523ed0fc6166aff9264d",
        KD: "d1a7eed871e7bd24afbb03c738ff87a8dd700abc069230f5c36935b6861464a7",
    }
    TWO_AGENT_WORK = {
        HINTIKKA: "edf593db95a72d83ae4084720321fc3fa17e3acb72056ff6468255547c25239b",
        HSTAR: "cbb7534d7531e9d8e224e6685dd1c736c4990bfb7021db1543825e17c4c76e7d",
        KD: "133ae7dbbe51770bd08607b5ffdf05b9a8afc070a54672fba1e806777bf4a5c7",
    }

    def test_random_suite(self, suite_verdicts):
        digests = {p: _digest(suite_verdicts[p]) for p in PROFILES_BY_STRENGTH}
        assert digests == self.SUITE
        work = {p: _work_digest(suite_verdicts[p]) for p in PROFILES_BY_STRENGTH}
        assert work == self.SUITE_WORK

    def test_two_atoms_two_agents(self):
        rng = random.Random(20240917)
        formulas = [
            random_formula(rng, depth=4, atom_names=("p", "q"), agent_names=("a", "b"))
            for _ in range(200)
        ]
        verdicts = {p: [decide_sat(f, p) for f in formulas] for p in self.TWO_AGENT}
        assert {p: _digest(verdicts[p]) for p in self.TWO_AGENT} == self.TWO_AGENT
        work = {p: _work_digest(verdicts[p]) for p in self.TWO_AGENT}
        assert work == self.TWO_AGENT_WORK


def _compat(n: int) -> str:
    return " & ".join(f"C[a] p{i}" for i in range(n)) + " & B[a] q"


def _nest(n: int) -> str:
    return "B[a] " * n + "p & " + "C[a] " * n + "~p"


def _prop(n: int) -> str:
    pairs = [f"(x{i} | y{i}) & (~x{i} | ~y{i})" for i in range(n)]
    return " & ".join(pairs) + " & (x0 <-> y0)"


class TestPinnedWork:
    """Exact (rules fired, worlds created, blocks applied) on rows of the
    scaling families, which exercise blocking, (C.CB) backtracking, the
    euclidean lift and deep propositional branching."""

    @pytest.mark.parametrize(
        ("text", "profile", "expect_sat", "work"),
        [
            (_compat(3), KD45, True, (442, 48, 33)),
            (_nest(6), KD45, False, (237, 16, 0)),
            (_nest(6), HSTAR, False, (864, 192, 0)),
            (_prop(8), KD, False, (3105, 0, 0)),
            (_compat(12), HINTIKKA, True, (121, 36, 12)),
        ],
    )
    def test_work_counts(self, text, profile, expect_sat, work):
        verdict = decide_sat(parse(text), profile)
        assert verdict.is_sat is expect_sat
        assert _work(verdict) == work
