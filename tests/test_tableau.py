"""Decision procedure: verdicts, refutation traces, extracted models."""

from __future__ import annotations

import collections
import gc
import hashlib
import json
import random
import re
import tracemalloc
import weakref

import pytest
from conftest import random_formula
from hypothesis import given, settings, strategies as st

import doxa
from doxa import (
    EnumerationBudget,
    LogicProfile,
    PROFILES_BY_STRENGTH,
    RULES,
    SatVerdict,
    UnsatVerdict,
    Violation,
    check_frame,
    decide_sat,
    decide_valid,
    evaluate,
    model_to_json_dict,
    parse,
    render_trace,
    sat_upto,
    verdict_to_json_dict,
)
from doxa import cli, formula, tableau
from doxa.formula import (
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
    subformula_closure,
)
from doxa.models import PROFILE_RULES, euclidean
from doxa.tableau import InternalVerificationError

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

    def test_decide_is_exported(self):
        # the one verdict front door is reachable from the package
        from doxa import decide

        assert decide is tableau.decide and "decide" in doxa.__all__
        assert decide(parse("p -> p"), KD, "valid").valid

    @pytest.mark.parametrize("mode", ["SAT", "validity", ""])
    def test_decide_rejects_an_unknown_mode(self, mode):
        # no mode but the two falls through to a validity check
        with pytest.raises(ValueError, match="'sat' or 'valid'"):
            tableau.decide(parse("p & ~p"), KD, mode)

    def test_deeply_nested_negations_decide(self):
        # hashing a node no longer recurses into its children
        assert sat("~" * 500 + "p", KD) is True

    def test_deep_choice_stack_decides(self):
        # a balanced tree keeps the formula shallow, so only the search is
        # deep: 1,000 choice points open at once
        level = [Or(Atom(f"p{i}"), Atom(f"q{i}")) for i in range(1000)]
        while len(level) > 1:
            pairs = [And(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
            level = pairs + level[len(level) - len(level) % 2:]
        tracemalloc.start()
        try:
            verdict = decide_sat(level[0], KD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.is_sat
        assert verdict.stats.choice_points == 1000
        # memory grows with the work on the branch, not with depth times
        # label size (a copy per choice point peaked at 112 MB here)
        assert peak < 16 * 2**20


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


def _plant_frame_violation(monkeypatch) -> None:
    violation = Violation("serial", (0,), None, "planted")
    monkeypatch.setattr(tableau, "check_frame", lambda model, profile: [violation])


def _plant_false_query(monkeypatch) -> None:
    monkeypatch.setattr(tableau, "evaluate", lambda model, world, f: False)


def _plant_lost_witness(monkeypatch) -> None:
    extract = tableau._Engine._extract

    def unwitnessed(engine):
        for w in engine.worlds:
            w.cb.clear()
        return extract(engine)

    monkeypatch.setattr(tableau._Engine, "_extract", unwitnessed)


class TestSelfVerification:
    """Model extraction re-verifies what it read off an open branch: a
    model that fails its frame class or the query, or a believing world
    without a witness under hstar, is an internal error, never a verdict."""

    @pytest.mark.parametrize(
        ("plant", "profile", "message"),
        [
            (_plant_frame_violation, KD, "extracted model violates its frame class: serial"),
            (
                _plant_false_query,
                KD,
                "extracted model does not satisfy the query at the designated world",
            ),
            (_plant_lost_witness, HSTAR, "believing world 0 saturated without a witness"),
        ],
        ids=["frame", "query", "witness"],
    )
    def test_planted_defect_raises(self, monkeypatch, plant, profile, message):
        plant(monkeypatch)
        with pytest.raises(InternalVerificationError) as exc:
            decide_sat(parse("B[a] p"), profile)
        assert str(exc.value) == message

    def test_cli_reports_a_planted_defect(self, monkeypatch, capsys):
        _plant_frame_violation(monkeypatch)
        code = cli.main(["decide", "B[a] p"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: internal engine error: extracted model violates its frame class: serial\n"
        )


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

    def test_propagation_visits_worlds_in_creation_order(self):
        # B[a] s, lifted from w2's alternative, reaches w0, which then sends
        # s into both of its alternatives: w1 first, so w1 clashes
        verdict = decide_sat(parse("C[a](p & ~s) & C[a](q & ~s & C[a] B[a] s)"), KD45)
        assert isinstance(verdict, UnsatVerdict)
        assert (len(verdict.trace), verdict.trace[-1].world) == (51, "w1")

    def test_sat_models_are_deterministic(self):
        f = parse("B[a](p | q) & ~B[a] p")
        assert decide_sat(f, HSTAR).model == decide_sat(f, HSTAR).model

    def test_rules_name_every_trace_rule(self):
        # derived from the rule tables, with the engine's own three steps
        assert len(RULES) == len(set(RULES)) == 17
        assert set(RULES) == {
            "seed", "C.&", "C.v-left", "C.v-right", "C.~~", "C.~&-left", "C.~&-right",
            "C.~v", "C.B*", "C.BB*", "C.~B*", "C.B-lift", "C.C", "C.CB", "C.B",
            "C.BDef-rewrite", "C.~-clash",
        }


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


    @pytest.mark.parametrize(
        "texts",
        [
            # a shared p | q under "&", on either side, and under "~"
            ("(p | q) & r", "r & (p | q)", "~(p | q)", "p | q"),
            # a shared p -> q on the left of "->", and bare on its right
            ("(p -> q) -> r", "r -> p -> q", "p -> q"),
            # a shared B[a](p | q), and the p | q inside it
            ("B[a](p | q) & r", "~B[a](p | q)", "B[b] B[a](p | q)", "B[a](p | q)", "p | q"),
        ],
    )
    def test_shared_parts_print_as_alone(self, texts):
        # each part comes after the formulas that hold it, so it is printed
        # first and written into them from its text
        formulas = [parse(text) for text in texts]
        steps = [tableau.ProofStep(i, "w0", f, "seed") for i, f in enumerate(formulas, 1)]
        assert tableau._rendered(steps) == list(texts) == [render(f) for f in formulas]

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_shared_rendering_never_changes_a_byte(self, random_suite, rnd):
        """Any list of formulas, with repeats and in any order, prints as
        ``render`` prints each alone: a few suite formulas, their desugared
        subformulas and those subformulas' negations."""
        pool = []
        for f in rnd.sample(random_suite, rnd.randint(1, 4)):
            parts = postorder(desugar(f))
            pool += [f, *parts, *(Not(g) for g in parts), *(neg(g) for g in parts)]
        formulas = rnd.choices(pool, k=rnd.randint(1, 2 * len(pool)))
        steps = [tableau.ProofStep(i, "w0", f, "seed") for i, f in enumerate(formulas, 1)]
        assert tableau._rendered(steps) == [render(f) for f in formulas]


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


def _model_digest(verdict) -> str | None:
    """sha256 of the model JSON of a SAT verdict, ``None`` for UNSAT."""
    if not verdict.is_sat:
        return None
    payload = json.dumps(model_to_json_dict(verdict.model), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _work_digest(verdicts) -> str:
    payload = json.dumps([_work(v) for v in verdicts])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _answer_digests(formulas, profile: LogicProfile, sat_verdicts=None) -> tuple[str, str]:
    """sha256 of the verdict words of ``formulas`` in sat and then valid
    mode, and of the model JSON of every SAT and INVALID verdict among
    them.  Traces are left out: a change to the search may shorten them."""
    if sat_verdicts is None:
        sat_verdicts = [decide_sat(f, profile) for f in formulas]
    verdicts = list(sat_verdicts) + [decide_valid(f, profile) for f in formulas]
    data = [verdict_to_json_dict(v) for v in verdicts]
    words = json.dumps([d["verdict"] for d in data])
    models = json.dumps([d["model"] for d in data if "model" in d], sort_keys=True)
    return tuple(hashlib.sha256(s.encode("utf-8")).hexdigest() for s in (words, models))


def _two_agent_formulas() -> list:
    rng = random.Random(20240917)
    return [
        random_formula(rng, depth=4, atom_names=("p", "q"), agent_names=("a", "b"))
        for _ in range(200)
    ]


class TestPinnedVerdicts:
    """sha256 of the verdict JSON of seeded suites, so that a change to the
    rule order, the relation completion or the model layout cannot alter a
    verdict, a trace or a model without failing here.  The work counts of
    every verdict are pinned beside it: a rule fired in another order, or a
    rule application skipped, changes them even where the verdict JSON
    stays the same."""

    SUITE = {
        KD45: "75f80aab072cc257d44ef73d8557b4b4930c0dea6398c5b69ba7751c1ba56f22",
        HINTIKKA: "3983c8ccd350b29bea3ab38cf0676e7cbc645249a5c9a4d7146519654a7a4a79",
        HSTAR: "8b1fb844e87bd4822a75e81b9f655aeb83c4e191a78e9568119b1467e2d76011",
        KD: "ddcb6d519ca7a6a76ad44751fb22b821895c8dd2203687795c7d712e1bb17015",
    }
    SUITE_WORK = {
        KD45: "072c01f1f215062e476d7d5b26d1eb9e9e4d7cddc12273e08122d95432b33d74",
        HINTIKKA: "be36d0ba9ce456a9d599627022c0b044c1cc171b55140921f0a74822c463b2cc",
        HSTAR: "b0cc3026238c87d452b53fda0f1f18130d592c57e508290bafb7292982d073a9",
        KD: "43fac2beb7e0f92c6013ffaf1d55a378e95da42eef63698370a58429f293a10f",
    }
    TWO_AGENT = {
        KD45: "a0b343664777b7a6d4a76281efd53aa43550d93c2f35b14af7a58fc7845fe5e6",
        HINTIKKA: "72d8905c2f811988046e1045dc1999d7fd752d24f24ef3091107af97b309f578",
        HSTAR: "7dd76e4ca5671884e78de40135722b6831f45666bf414920ef3b06762cdaa58c",
        KD: "ff69114d3da3ee1039d0388c4e005f5a3cc0bbf3f6fa121aede3df2a45aa826a",
    }
    TWO_AGENT_WORK = {
        KD45: "b1609c67219eada434a6161327e47764ffc66336bd7efd439c7570e844154d1c",
        HINTIKKA: "844e76933f99dc286d9742e27fdb073b4d1dde35b2aa1b7884c61c486d19ae48",
        HSTAR: "6f7f3f4fc0849f192dae89d864be2f780140b68bd53b4bc320d4be728954c957",
        KD: "55326c4ade69e9dcf14d4f666f6692488cf2961df0cc7ae6fea497deff6f30f0",
    }

    # (verdict words, models) per profile, in sat and valid mode; these stay
    # fixed when the search changes and only traces and work counts move
    SUITE_ANSWERS = {
        KD45: (
            "a0338c1d522f2c01d4b9d77c4fa4853745028a543a9494d5819a17492872bf24",
            "aa82b75edad9ac2ae41f1b622d71b0e00127a3f955570680c4079b19453ed697",
        ),
        HINTIKKA: (
            "cf48a9873d30692f20ca17a847c5f5eb8ed41be24f96e4f70b58ffffec085af2",
            "60a652fb065edb7ea4dae0714b79cbc70f3702f7fe9760d554306e2261113c34",
        ),
        HSTAR: (
            "ff98f3d03451ab9b4fe0ed9b9a08485d07eea1d82751ae7a2634c31d3ac466a0",
            "97c4b8d568414cbde3e63f74db90fac891e6fcd6af1d1c56d22a9fd3922f0d62",
        ),
        KD: (
            "068dc539a651c02557cc49a5c729eae75fb533a2123570c008c3db0260b40131",
            "d315444f4f0c3b7d24ff26a808f3a76fb1d53f2b4be7de9d7443713353d41020",
        ),
    }
    TWO_AGENT_ANSWERS = {
        KD45: (
            "61b7349e0680a3ef5615cf296544d4b374a4f7f98dfed546fbe4b9aed516fb55",
            "e44b79c65c96d7d2b796208e4f7bcebab7c333e57aaea1db3199b825188613a2",
        ),
        HINTIKKA: (
            "b4eccbff4523293c342218b0dbf73270b31eedb630cde3e349da90366bfd55b9",
            "748a23312877c463b7fc7fbe3d825e143c8cfddf5b98b3bfe52180c1b739dff9",
        ),
        HSTAR: (
            "b4eccbff4523293c342218b0dbf73270b31eedb630cde3e349da90366bfd55b9",
            "31035ff2dbd7968f188015c88290e8c41ccecd2ae2638f92acc026482636da80",
        ),
        KD: (
            "f3c1bb9c8e872e57172701911772cb5067395f445909cd7ec664d0251f07dbb7",
            "1dbd78d984a246fdaadf8b804789b08e23cc976cc95bce3db831368d21052edf",
        ),
    }

    def test_random_suite(self, suite_verdicts):
        digests = {p: _digest(suite_verdicts[p]) for p in PROFILES_BY_STRENGTH}
        assert digests == self.SUITE
        work = {p: _work_digest(suite_verdicts[p]) for p in PROFILES_BY_STRENGTH}
        assert work == self.SUITE_WORK

    def test_two_atoms_two_agents(self):
        formulas = _two_agent_formulas()
        verdicts = {p: [decide_sat(f, p) for f in formulas] for p in self.TWO_AGENT}
        assert {p: _digest(verdicts[p]) for p in self.TWO_AGENT} == self.TWO_AGENT
        work = {p: _work_digest(verdicts[p]) for p in self.TWO_AGENT}
        assert work == self.TWO_AGENT_WORK

    def test_random_suite_answers(self, random_suite, suite_verdicts):
        answers = {
            p: _answer_digests(random_suite, p, suite_verdicts[p]) for p in PROFILES_BY_STRENGTH
        }
        assert answers == self.SUITE_ANSWERS

    def test_two_atoms_two_agents_answers(self):
        formulas = _two_agent_formulas()
        answers = {p: _answer_digests(formulas, p) for p in self.TWO_AGENT}
        assert answers == self.TWO_AGENT_ANSWERS


def _compat(n: int) -> str:
    return " & ".join(f"C[a] p{i}" for i in range(n)) + " & B[a] q"


def _nest(n: int) -> str:
    return "B[a] " * n + "p & " + "C[a] " * n + "~p"


def _prop(n: int) -> str:
    pairs = [f"(x{i} | y{i}) & (~x{i} | ~y{i})" for i in range(n)]
    return " & ".join(pairs) + " & (x0 <-> y0)"


#: A 1-agent formula from a fuzz run on which chronological backtracking
#: made more than 221,000 branch points without an answer.
_HINTIKKA_FUZZ = "B[a]((q | p) & B[a] q | (C[a] q | C[a] q) <-> ~B[a] B[a] q)"

#: An input on which two undo-trail mistakes change the answer or the work:
#: a world's creator left off the trail when the world is made, and one
#: epoch kept across the alternatives of a choice point.  The rest of the
#: suite passes both.
_TRAIL_CATCH = "B[a]((B[a] p -> p & p) -> ~B[a] p)"

#: An input that catches a focus not saved with its choice point: a (C.CB)
#: alternative writes no label, so after backtracking past worlds made
#: below the choice point the focus must come back with the choice point.
_FOCUS_CATCH = (
    "B[b] ((B[a] ((q | p) & (q <-> p)) | C[b] B[b] B[a] p)"
    " & (~B[a] (p | q) & (B[a] (q <-> q) -> (C[a] p | (p | q)))))"
)

#: An input on which (C.~B*) must send a negated belief into an existing
#: alternative: the negated belief enters its world by a branch alternative
#: after the alternative was made.  Found by a seeded search for inputs
#: whose work changes when ``_add`` leaves the alternatives of a world off
#: the (C.~B*) agenda.
_NEGATED_CATCH = "~(B[a] B[a] ~(B[a] ~(B[a] q & q) & C[a] B[a] q) & B[a] C[a] B[a] B[a] p)"

#: An input on which kd45 puts six worlds to sleep at once.  It was found
#: when a blocker kept a record of the worlds it blocked, by a seeded
#: search for inputs on which a mistake in that record leaves work that
#: ``TestAgendas`` sees.
_SLEEP_CATCH = "C[a]((~p -> p | p) & (B[a] p | (p | p))) & (p & C[a](p -> p <-> ~p))"

#: An input on which kd45 must wake a sleeping world when its own label
#: grows: left asleep, the world keeps creation work off ``todo`` while
#: unblocked.  Found by a search of ``tests/test_exhaustive.py``'s small
#: formulas for a sleeping world that its own growth unblocks.
_WAKE_CATCH = "C[a] B[a] C[a] C[a] B[a] p"

#: An input on which kd45 must restore a world's sleep flag on
#: backtracking: left as the closed alternative set it, the flag differs
#: from its state at the choice point.  Found by a seeded search for
#: inputs on which ``TestUndoTrail`` sees that mistake.
_ASLEEP_CATCH = "C[a](C[a] ~(p -> p) | B[a](B[a] q -> B[a] p))"


def _chain(k: int) -> str:
    """A satisfiable hstar chain on which a world's blocker may sit in a
    sibling subtree."""
    return "B[a] C[a] " * k + "C[a] p"


class TestPinnedWork:
    """Exact (rules fired, worlds created, blocks applied) on rows of the
    scaling families, which exercise blocking, (C.CB) backjumping, the
    euclidean lift and deep propositional branching, with the sha256 of
    each SAT row's model JSON, which pins the relation completion."""

    @pytest.mark.parametrize(
        ("text", "profile", "expect_sat", "work", "model"),
        [
            (
                _compat(3), KD45, True, (442, 48, 33),
                "55f22f5fdfd1c0a497f9d4b4103afe110faee5ea4cebcae451bc60598ea6df34",
            ),
            (
                _compat(4), KD45, True, (2873, 260, 196),
                "2936af3f0f10965abf3ebc96dbe9572bbd88075cb89165bfed30b6bad0d9a841",
            ),
            (
                _compat(5), KD45, True, (21206, 1630, 1305),
                "fa6017fa12b57a5182391403860639fe42404e3c20ed3eecd41563103ec3acb4",
            ),
            (_nest(6), KD45, False, (237, 16, 0), None),
            (_nest(6), HSTAR, False, (37, 6, 0), None),
            (_nest(12), HSTAR, False, (106, 12, 0), None),
            (_prop(8), KD, False, (106, 0, 0), None),
            (_prop(14), KD, False, (178, 0, 0), None),
            (
                _compat(12), HINTIKKA, True, (97, 24, 12),
                "47e29043357e33881b005236aee4707dd56e2e13a003e34f5c2b8374e8f1d8b9",
            ),
            (
                _HINTIKKA_FUZZ, HINTIKKA, True, (1285, 79, 6),
                "424083773f6834df749740b15a20fd6c3006d30aa22d732756bd4b3a75b2a99e",
            ),
            (
                _TRAIL_CATCH, HSTAR, True, (70, 9, 2),
                "ffe2bce025c2090dd2b4f1acd3d67d85903c66901b4d24e46b86cd21c067c36d",
            ),
            (
                _TRAIL_CATCH, KD45, True, (40, 3, 1),
                "1e0eb5f56f7684e4a4ec0fc7ae5ea1bf6facd8818b1538cb933636d5ddfa07ea",
            ),
            (
                _FOCUS_CATCH, HSTAR, True, (213, 35, 5),
                "44d3ab332d84d5192e4c00d3c16d7039f79ee2889fc5a5489f2684f48ddc858e",
            ),
            (
                _NEGATED_CATCH, KD45, True, (180, 19, 6),
                "c6bfde7d0656c9700674fc909b9d870df7aa2ba47f0e7139a8fc92c89980d275",
            ),
            # blocked by worlds in sibling subtrees (see TestAnywhereBlocking);
            # at k = 4 the search ran for more than 10 minutes when only
            # ancestors could block, and at k = 8 it made 1,568 worlds when
            # only a world with an equal label could
            (
                _chain(1), HSTAR, True, (22, 5, 2),
                "b459d96e6f94d8e9553c62502e2b44f1486e445b2207b99f4b8f6d8fc5a20032",
            ),
            (
                _chain(2), HSTAR, True, (58, 10, 5),
                "09cad47e17f26ba325dfc4d1b44fedbb63447f979fef460eda8527dd6e9fbf19",
            ),
            (
                _chain(3), HSTAR, True, (124, 17, 10),
                "f1ff42879722a992f271e86bfa49b4fa8b35404632c3545d3a0802b4f5474742",
            ),
            (
                _chain(4), HSTAR, True, (228, 26, 17),
                "9924b6474e2736a78a199255fecc02a034b57de804785a307dd2592c196e7e34",
            ),
            (
                _chain(8), HSTAR, True, (1184, 82, 65),
                "1de8dffed99a492bac307232a19da8b4d20befd81c48907c505dfcbf504195ad",
            ),
            (
                _chain(8), HINTIKKA, True, (1542, 82, 65),
                "1de8dffed99a492bac307232a19da8b4d20befd81c48907c505dfcbf504195ad",
            ),
            (
                _chain(10), HSTAR, True, (2098, 122, 101),
                "8313c962c36ecf6655d99322c87f1e66cf100b7d2cfc1a8a21a56b4816ca59ed",
            ),
            (
                _chain(10), HINTIKKA, True, (2795, 122, 101),
                "8313c962c36ecf6655d99322c87f1e66cf100b7d2cfc1a8a21a56b4816ca59ed",
            ),
        ],
    )
    def test_work_counts(self, text, profile, expect_sat, work, model):
        verdict = decide_sat(parse(text), profile)
        assert verdict.is_sat is expect_sat
        assert _work(verdict) == work
        assert _model_digest(verdict) == model

    @pytest.mark.parametrize(
        ("text", "profile", "text_digest", "json_digest"),
        [
            pytest.param(
                _nest(4), KD45,
                "1647c7dc725668211d1e8c5ad1dc8913546423461e58adf54bd9469f75228b6c",
                "4aafc6704eb0b14707d27662d7d9d5387f64c392b341b903d94f4fa977617b09",
                id="kd45-nest-4",
            ),
            pytest.param(
                _nest(6), KD45,
                "a6360f073079811b58a7ce3c765703aa61731904a8978a0e7ef7d62d46465f9c",
                "ef369f9529d5eea1dcda9c3a75e98b0e33f39bafbb80bd0b611ea517ae143b87",
                id="kd45-nest-6",
            ),
            pytest.param(
                _nest(8), KD45,
                "d7eb9810494ea8b45289508e4386f2951902fd2bbd4d8ebec2b6a978d7a792e8",
                "a4c0e1e7e6df3ded7af8d285739e59adc016cf4b9a3de41ac1755bc258567190",
                id="kd45-nest-8",
            ),
            pytest.param(
                _nest(4), HINTIKKA,
                "c6cc60718027e168417607c7567865e2d5a66f7207636e8bd48cc8224dc31331",
                "0f427fb857c923696aeca900c855ea3dfa6c5442346c00d08b5b4e4869b5acd3",
                id="hintikka-nest-4",
            ),
            pytest.param(
                _nest(6), HINTIKKA,
                "203891c655635ad3938fa5a4dc57b31152fb986b033e57849d85ade5d7b13959",
                "5545297171d0079f73249840e6f4499bfd69cf292085ee51ee860559bc932c4a",
                id="hintikka-nest-6",
            ),
            pytest.param(
                _nest(8), HINTIKKA,
                "29e8b9f97120a35f946a0ff617098e55ba9b526e50e9b990f9951612410bf450",
                "507c01b4fd6b5501eb6d4b21d399107e70813020ffbd4abe3a6d6feee8f0536b",
                id="hintikka-nest-8",
            ),
            pytest.param(
                _nest(4), HSTAR,
                "02d6cd90fee4b554f4b8cdb6e884d3c0f8c6c5b69298cd0d8521cd9a84d9cfe3",
                "350ad8530793430de1143b1bcb109036a5ee045b1c257bee3474d1d566bc08b6",
                id="hstar-nest-4",
            ),
            pytest.param(
                _nest(6), HSTAR,
                "72a3fe54f44457eed1f791fd6e5b8d32f1678bfcb9575d86fba268d86bb4cc31",
                "8b710e2876f762b960872580dcd55676d674d4363891e255ad7c2b4e533b3160",
                id="hstar-nest-6",
            ),
            pytest.param(
                _nest(8), HSTAR,
                "d82fea2b3e9d9eae4255d8908226a07291abf7f554ea42ae0470ccc5ced704f4",
                "f72c4de22823da86d7cc795de5d8ef22319b70f97773f2b786801fe3941f3fa1",
                id="hstar-nest-8",
            ),
            pytest.param(
                _nest(4), KD,
                "ef8b6b754746090a27b01e9cedfcbaeb2b9bf9c04c9d8672dc3d1470eff849ab",
                "5563d0bbd182e98a5469772ccf85911af437e2f75138ef73c06fd20df6d86b76",
                id="kd-nest-4",
            ),
            pytest.param(
                _nest(6), KD,
                "2f915b7b9547d6403e7e5e056fbe1dfb88376b762a302bb2b9789b79e084aad5",
                "9fef9785d66eaf39b353533fc36c58b5bb8bf8c8424c239abd961ea1949fc5c4",
                id="kd-nest-6",
            ),
            pytest.param(
                _nest(8), KD,
                "c9fba5f2d3b276ba8678138cf83b444d560eb977ae89e6b569c974a776b13113",
                "435f40b49233200b009719b4a41d7e5b44b3a145e36a739e56e33691ed149cad",
                id="kd-nest-8",
            ),
            pytest.param(
                _prop(6), KD,
                "489c2bb92b294e1f9afa5c684c1b6c91268c6f26b25a260b0ac4d5a0a8665236",
                "1b2107e382f033276dd94e4a6a1952a8473be0688c84bb0f5db765a88349575b",
                id="kd-prop-6",
            ),
            pytest.param(
                _prop(8), KD,
                "da2335635c57e161ecd5ae430ba3b822aa36e58b05ca830f9e2cbbaf06aeecfb",
                "085baf2b68236f160950da8e69b3e2fb663844513606b0d17e08a337d8c99baf",
                id="kd-prop-8",
            ),
            pytest.param(
                _prop(10), KD,
                "4a564f123b31daa58601a08603a42d15eb9a37417ec23e7cf2525ddf9e7f12f1",
                "6b44e18b698680990841d82e1212656f478c3e3ff7b394a75ca48ce79f553872",
                id="kd-prop-10",
            ),
        ],
    )
    def test_refutation_evidence(self, text, profile, text_digest, json_digest):
        """The sha256 of each unsatisfiable hard row's trace text and of its
        JSON, as the benchmark dumps it."""
        trace = decide_sat(parse(text), profile).trace
        dumped = json.dumps(tableau.trace_to_json_dict(trace), sort_keys=True)
        assert hashlib.sha256(render_trace(trace).encode()).hexdigest() == text_digest
        assert hashlib.sha256(dumped.encode()).hexdigest() == json_digest

    def test_propositional_work_grows_linearly(self):
        # the clash needs only x0 and y0, so each further pair of
        # disjunctions costs the same number of rules
        fired = [decide_sat(parse(_prop(n)), KD).stats.rules_fired for n in (8, 10, 12, 14)]
        assert len({b - a for a, b in zip(fired, fired[1:])}) == 1

    @pytest.mark.parametrize(
        ("text", "profile", "choices"),
        [
            (_prop(8), KD, (32, 13)),
            (_nest(6), HSTAR, (5, 5)),
            (_FOCUS_CATCH, HSTAR, (37, 16)),
            (_compat(4), KD45, (0, 0)),
            (_compat(5), KD45, (0, 0)),
            (_HINTIKKA_FUZZ, HINTIKKA, (244, 140)),
        ],
    )
    def test_choice_counts(self, text, profile, choices):
        """(choice points opened, alternatives skipped by backjumps)."""
        stats = decide_sat(parse(text), profile).stats
        assert (stats.choice_points, stats.skipped) == choices


#: kd45 inputs that blocking by equal labels never stopped: the first
#: three raised world-bound errors, and the last ran until a time limit
#: cut it.
_KD45_WORLD_BOUND = (
    "C[a] B[b] B[b] ~p",
    "C[b] B[a] B[a] ~B[b] q",
    "C[b] B[a] B[a] C[a] q",
    "(C[a] ((p & q) -> (q & q)) & B[a] B[b] B[b] q)",
)


@pytest.mark.parametrize("text", _KD45_WORLD_BOUND)
def test_kd45_world_bound_inputs_are_verdicts(text):
    f = parse(text)
    verdict = decide_sat(f, KD45)
    assert verdict.is_sat and verdict.model.worlds <= 4
    assert check_frame(verdict.model, KD45) == [] and evaluate(verdict.model, 0, f)
    agents = sorted(agent.name for agent in formula.agents(f))
    budget = EnumerationBudget(max_worlds=4, atoms=sorted(formula.atoms(f)), agents=agents)
    assert sat_upto(f, budget, KD45) is not None


def _label(engine: tableau._Engine, w) -> frozenset:
    """The formulas of ``w``'s label: its entries' closure ids mapped back
    through the closure table, once each set in ``w.bits``."""
    ids = [f for f, _, _ in w.entries]
    assert len(set(ids)) == len(ids) and w.bits == sum(1 << f for f in ids)
    return frozenset(engine.table.member(f) for f in ids)


def _ancestors(engine: tableau._Engine, w) -> set[int]:
    found = set()
    while w.parent is not None:
        w = engine.worlds[w.parent[1]]
        found.add(w.id)
    return found


class TestAnywhereBlocking:
    """Under kd, hstar and hintikka a world is blocked by the earliest world
    whose label contains its own, in any subtree; under kd45 by the nearest
    ancestor whose label contains its own on the chain of the agent that
    created it."""

    def test_a_blocker_off_the_ancestor_chain(self):
        engine = tableau._Engine(parse(_chain(3)), HSTAR)
        assert engine.run() is not None
        blocked = [(w, engine.worlds[engine._blocker(w)]) for w in engine.worlds]
        blocked = [(w, b) for w, b in blocked if b is not w]
        assert blocked
        for w, b in blocked:
            assert b.id < w.id and _label(engine, b) >= _label(engine, w)
            assert engine._blocker(b) == b.id
        assert any(b.id not in _ancestors(engine, w) for w, b in blocked)
        # containment, not equality: some blocker holds more than it blocks
        assert any(_label(engine, b) > _label(engine, w) for w, b in blocked)

    def test_a_blocker_reached_only_through_a_redirected_edge(self):
        # the seed blocks world 1, so world 1's world 2 is reached only
        # through the edge into world 4, which world 2 blocks, and world 3,
        # which world 2 created, only after that
        creators = [None, 0, 1, 2, 0]
        worlds = [
            tableau._World(i, None if c is None else ("a", c, 0), 0, 0)
            for i, c in enumerate(creators)
        ]
        assert tableau._reached(worlds, [0, 0, 2, 3, 2]) == 0b01101
        assert tableau._reached(worlds, [0, 1, 2, 3, 4]) == 0b11111

    def test_kd45_blocks_only_by_an_ancestor(self, random_suite):
        found = 0
        for f in random_suite:
            engine = tableau._Engine(f, KD45)
            if engine.run() is None:
                continue
            for w in engine.worlds:
                b = engine.worlds[engine._blocker(w)]
                if b is not w:
                    found += 1
                    assert b.id in _ancestors(engine, w)
                    assert b.parent is not None and b.parent[0] == w.parent[0]
        assert found

    @pytest.mark.parametrize(
        ("text", "work", "sleeps"),
        [
            ("C[a] p & C[b] p", (7, 2, 1), False),
            ("C[a] C[a] p & C[b] C[a] p", (10, 3, 1), True),
        ],
    )
    def test_kd_blocks(self, text, work, sleeps):
        """kd blocks too: the b-alternative has the label of the earlier
        a-alternative, so extraction redirects its edge, and in the second
        formula it sleeps in step 5 instead of creating a fourth world."""
        engine = tableau._Engine(parse(text), KD)
        assert engine.run() is not None
        assert _work(engine) == work
        assert [engine._blocker(w) for w in engine.worlds][:3] == [0, 1, 1]
        assert engine.worlds[2].asleep is sleeps

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_redirect_targets_follow_the_labels(self, random_suite, profile):
        """Each world's redirect target is the first world that ``_blockers``
        finds from the labels alone, or the world itself, and
        ``blocks_applied`` counts the redirected worlds."""
        formulas = list(random_suite) + _two_agent_formulas()
        redirected = 0
        for f in formulas:
            engine = tableau._Engine(f, profile)
            if engine.run() is None:
                continue
            target = [(_blockers(engine, w) or [w])[0].id for w in engine.worlds]
            assert [engine._blocker(w) for w in engine.worlds] == target
            blocks = sum(t != i for i, t in enumerate(target))
            assert engine.stats.blocks_applied == blocks
            redirected += blocks
        assert redirected

    @pytest.mark.parametrize("profile", [KD, HSTAR, HINTIKKA])
    def test_the_chain_models_take_two_worlds_per_link(self, profile):
        """Blocking by containment keeps ``_chain(k)``'s model at 2k + 2
        worlds."""
        for k in range(1, 11):
            verdict = decide_sat(parse(_chain(k)), profile)
            assert verdict.is_sat and verdict.model.worlds == 2 * k + 2, k

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_model_worlds_are_reachable_from_world_0(self, suite_verdicts, profile):
        models = [v.model for v in suite_verdicts[profile] if v.is_sat]
        assert models
        for model in models:
            reached, frontier = 1, [0]
            while frontier:
                w = frontier.pop()
                step = 0
                for rows in model.rows.values():
                    step |= rows[w]
                for v in range(model.worlds):
                    if step >> v & 1 and not reached >> v & 1:
                        reached |= 1 << v
                        frontier.append(v)
            assert reached == (1 << model.worlds) - 1


def _missed_work(engine: tableau._Engine, unmarked: bool = False) -> list[tuple]:
    """What a full sweep of steps 4 and 5 over every world would still do,
    found without changing the engine: each (rule, world, entry) that a
    scan from the world's cursor would fire on, and each unblocked world
    with a demand, an unwitnessed agent or an unserved agent.  With
    ``unmarked``, only the work of worlds missing from the agenda that
    should hold them, blocked worlds included, unless a blocked world
    sleeps: it is flagged asleep and some world blocks it now, so that its
    own label growing wakes it."""
    worlds = engine.worlds
    nodes = [engine.table.member(i) for i in range(len(engine.table.clash))]
    ids = {g: i for i, g in enumerate(nodes)}
    found: list[tuple] = []
    for r, (kind, every, negated, carries_sub, down) in enumerate(engine.propagation.steps):
        for w in worlds:
            if every and w.parent is None or unmarked and engine.agenda[r] >> w.id & 1:
                continue
            source = worlds[w.parent[1]] if down else w
            for i, _, _ in source.entries[w.cursors[r]:]:
                f = nodes[i]
                belief = (f.sub if isinstance(f, Not) else None) if negated else f
                if not isinstance(belief, Bel):
                    continue
                if not every:
                    if belief.agent.name not in w.cb:
                        continue
                    dst = w.cb[belief.agent.name][0]
                elif belief.agent.name != w.parent[0]:
                    continue
                else:
                    dst = w.id if down else w.parent[1]
                if not worlds[dst].bits >> ids[f.sub if carries_sub else f] & 1:
                    found.append((kind, w.id, f))
    witnesses = engine.propagation.cb is not None
    for w in worlds:
        if unmarked and engine.todo >> w.id & 1:
            continue
        demand = w.spawn_cursor < len(w.demands)
        unwitnessed = witnesses and any(a not in w.cb for a in w.beliefs)
        unserved = any(a not in w.alternatives for a in w.beliefs)
        if not (demand or unwitnessed or unserved):
            continue
        if unmarked:
            if not (w.asleep and _blockers(engine, w)):
                found.append(("create", w.id))
        elif not _blockers(engine, w):
            found.append(("create", w.id))
    return found


def _blockers(engine: tableau._Engine, w) -> list:
    """Every world that blocks ``w`` now, one whose label bits contain
    ``w``'s.  Under a euclidean frame it is an ancestor on the unbroken
    chain of alternatives for the agent that created ``w``; under any other
    frame any world created before ``w``."""
    if euclidean not in PROFILE_RULES[engine.profile].frame:
        return [v for v in engine.worlds[: w.id] if w.bits & v.bits == w.bits]
    found = []
    if w.parent is not None:
        agent = w.parent[0]
        current = engine.worlds[w.parent[1]]
        while current.parent is not None and current.parent[0] == agent:
            if w.bits & current.bits == w.bits:
                found.append(current)
            current = engine.worlds[current.parent[1]]
    return found


class TestAgendas:
    """Steps 4 and 5 visit only the worlds on their agendas.  Before every
    ``_step``, each world with work must be on the agenda that holds it;
    and whenever ``_step`` finds nothing to do, a full sweep over every
    world must find nothing either."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """The work that a check found, and the number of times ``_step``
        found nothing, once per satisfiable verdict."""
        step = tableau._Engine._step
        result = {"missed": [], "ends": 0}

        def checked_step(engine):
            result["missed"] += _missed_work(engine, unmarked=True)
            choice = step(engine)
            if choice is None:
                result["ends"] += 1
                result["missed"] += _missed_work(engine)
            return choice

        monkeypatch.setattr(tableau._Engine, "_step", checked_step)
        return result

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_random_suite_leaves_no_work(self, checked, random_suite, profile):
        verdicts = [decide_sat(f, profile) for f in random_suite]
        assert checked["ends"] == sum(v.is_sat for v in verdicts) > 0
        assert checked["missed"] == []

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_two_agent_formulas_leave_no_work(self, checked, profile):
        sat_count = 0
        for f in _two_agent_formulas():
            sat_count += decide_sat(f, profile).is_sat
        assert checked["ends"] == sat_count > 0
        assert checked["missed"] == []

    @pytest.mark.parametrize(
        ("text", "profile"),
        [
            (_compat(4), KD45),
            (_HINTIKKA_FUZZ, HINTIKKA),
            (_FOCUS_CATCH, HSTAR),
            (_TRAIL_CATCH, KD45),
            (_NEGATED_CATCH, KD45),
            (_SLEEP_CATCH, KD45),
            (_WAKE_CATCH, KD45),
            (_chain(3), HSTAR),
        ],
    )
    def test_scaling_rows_leave_no_work(self, checked, text, profile):
        assert decide_sat(parse(text), profile).is_sat
        assert checked["ends"] == 1
        assert checked["missed"] == []


def _frozen(value):
    """A dict as its items in order, a list as a tuple, else the value."""
    if isinstance(value, dict):
        return tuple(value.items())
    return tuple(value) if isinstance(value, list) else value


def _state(engine: tableau._Engine) -> tuple:
    """Every slot of every world but its ``epoch``, and the engine's
    agendas, ``todo`` and ``focus``."""
    slots = [slot for slot in tableau._World.__slots__ if slot != "epoch"]
    worlds = tuple(tuple(_frozen(getattr(w, slot)) for slot in slots) for w in engine.worlds)
    return worlds, tuple(engine.agenda), engine.todo, engine.focus


class TestUndoTrail:
    """Whenever the next alternative of a choice point is tried, every
    world that existed when the choice point opened, slot by slot, and the
    engine's agendas, ``todo``, ``focus`` and trace are as they were then."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """The number of alternatives checked and the mismatches found."""
        step, apply = tableau._Engine._step, tableau._Engine._apply
        # the state and trace of each open choice point by depth, and the
        # state of the choice point that ``_step`` just returned
        opened: list[tuple] = []
        result = {"checked": 0, "mismatches": [], "new": None}

        def checked_step(engine):
            alternatives = step(engine)
            if alternatives:
                result["new"] = (_state(engine), tuple(engine.trace))
            return alternatives

        def checked_apply(engine, alternative, bit):
            depth = bit.bit_length() - 1
            if result["new"] is not None:
                # the first alternative of the choice point at ``depth``
                del opened[depth:]
                opened.append(result["new"])
                result["new"] = None
            state, trace = opened[depth]
            result["checked"] += 1
            if _state(engine) != state or tuple(engine.trace) != trace:
                result["mismatches"].append((depth, alternative))
            apply(engine, alternative, bit)

        monkeypatch.setattr(tableau._Engine, "_step", checked_step)
        monkeypatch.setattr(tableau._Engine, "_apply", checked_apply)
        return result

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_random_suite_restores_every_choice_point(self, checked, random_suite, profile):
        for f in random_suite:
            decide_sat(f, profile)
        assert checked["checked"] > 0
        assert checked["mismatches"] == []

    @pytest.mark.parametrize(
        "text", [_TRAIL_CATCH, _SLEEP_CATCH, _NEGATED_CATCH, _FOCUS_CATCH, _ASLEEP_CATCH]
    )
    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_catch_rows_restore_every_choice_point(self, checked, text, profile):
        decide_sat(parse(text), profile)
        assert checked["mismatches"] == []


_ATOMS = ("p", "q", "r", "s", "t")


def _propositional(rng: random.Random, depth: int, conjuncts: int = 4):
    """A random formula over ``_ATOMS`` without modal operators: a
    conjunction of ``conjuncts`` subformulas, weighted towards
    disjunctions, which open the most choice points.  With four conjuncts
    at depth 6, about a third of the formulas are unsatisfiable."""
    if conjuncts > 1:
        half = conjuncts // 2
        return And(
            _propositional(rng, depth - 1, half), _propositional(rng, depth - 1, conjuncts - half)
        )
    if depth <= 0 or rng.random() < 0.15:
        return Atom(rng.choice(_ATOMS))
    kind = rng.choices(("not", "and", "or", "implies", "iff"), weights=(2, 3, 5, 1, 1))[0]
    if kind == "not":
        return Not(_propositional(rng, depth - 1, 1))
    left, right = _propositional(rng, depth - 1, 1), _propositional(rng, depth - 1, 1)
    return {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind](left, right)


class TestWitnessRules:
    """A (C.CB) witness is an alternative, so under hstar (C.CB) serves
    every believing agent before (C.B) could, and (C.B) never fires; no
    other profile has (C.CB)."""

    def test_only_hstar_designates_and_it_spawns_no_seriality_witness(
        self, monkeypatch, random_suite
    ):
        record = tableau._Engine._record
        fired = collections.Counter()

        def counted(engine, wid, f, rule, premises):
            fired[engine.profile, rule] += 1
            return record(engine, wid, f, rule, premises)

        monkeypatch.setattr(tableau._Engine, "_record", counted)
        for profile in PROFILES_BY_STRENGTH:
            for mode in ("sat", "valid"):
                for f in random_suite:
                    tableau.decide(f, profile, mode)
        for text, profile in _HARD_ROWS:
            decide_sat(parse(text), profile)
        assert fired[HSTAR, "C.B"] == 0 < fired[HSTAR, "C.CB"]
        for profile in (KD, HINTIKKA, KD45):
            assert fired[profile, "C.CB"] == 0 < fired[profile, "C.B"], profile


class TestPropositionalDifferential:
    """Backjumping against the oracle on the propositional fragment, where a
    one-world model search is complete: a formula without modal operators is
    satisfiable exactly when some valuation of one world makes it true."""

    @pytest.mark.parametrize("profile", [KD, KD45])
    def test_agrees_with_one_world_oracle(self, profile):
        rng = random.Random(20261018)
        budget = EnumerationBudget(1, _ATOMS, ())
        mismatches = []
        for _ in range(1000):
            f = _propositional(rng, depth=6)
            if decide_sat(f, profile).is_sat != (sat_upto(f, budget, profile) is not None):
                mismatches.append(f)
        assert mismatches == []


#: The hard-families rows of the benchmark: the scaling families at
#: several sizes plus the two blow-up inputs.
_HARD_ROWS = (
    *((_compat(n), KD45) for n in (2, 3, 4)),
    *((_compat(n), p) for p in (HSTAR, HINTIKKA) for n in (4, 8, 12)),
    *((_nest(n), p) for p in PROFILES_BY_STRENGTH for n in (4, 6, 8)),
    *((_prop(n), KD) for n in (6, 8, 10)),
    (_HINTIKKA_FUZZ, HINTIKKA),
    ("C[b] B[a] B[a] C[a] q", KD45),
)


def _table_inputs() -> list:
    """Seeded formulas over one and two agents with every connective,
    ``->``, ``<->`` and ``C[a]`` among them, each with its negation."""
    rng = random.Random(20261019)
    formulas = []
    for agent_names in (("a",), ("a", "b")):
        for _ in range(150):
            f = random_formula(rng, depth=4, atom_names=("p", "q"), agent_names=agent_names)
            formulas += [f, Not(f)]
    return formulas


def _outcome(f, profile: LogicProfile, mode: str) -> tuple[str, str]:
    """A verdict's JSON and stats, or the internal error it raised."""
    try:
        verdict = tableau.decide(f, profile, mode)
    except InternalVerificationError as err:
        return str(err), ""
    return json.dumps(verdict_to_json_dict(verdict), sort_keys=True), repr(verdict.stats)


def table_members_problem(table: tableau._Closure) -> str | None:
    """What is wrong with the members of the closure table ``table``, read
    through its accessor by id, or None: each member of the subformula
    closure of the desugared query is numbered once, and the desugared query
    is at ``seed``."""
    nodes = [table.member(i) for i in range(len(table.clash))]
    if len(set(nodes)) != len(nodes) or set(nodes) != subformula_closure(table.kernel):
        return "the members are not the subformula closure, each once"
    if nodes[table.seed] is not table.kernel:
        return "the seed is not the desugared query"
    return None


class TestClosureTable:
    """Each query is compiled once into a read-only closure table that the
    engines of every profile share."""

    def test_inputs_cover_every_connective(self):
        kinds = {type(g) for f in _table_inputs() for g in postorder(f)}
        assert {Implies, Iff, Comp, Bel} <= kinds

    def test_table_matches_the_closure(self):
        for q in _table_inputs():
            closure = subformula_closure(desugar(q))
            table = tableau._Closure(q)
            assert table.query is q and table.kernel is desugar(q)
            assert table_members_problem(table) is None
            # every member by id, through the table's accessor
            nodes = [table.member(i) for i in range(len(table.clash))]
            ids = {g: i for i, g in enumerate(nodes)}
            for i, g in enumerate(nodes):
                # a member clashes with its negation and its negated form,
                # and of each pair the positive one has the lower id
                negation, negated = ids.get(Not(g)), ids.get(g.sub) if type(g) is Not else None
                assert negation is None or negation > i
                assert negated is None or negated < i
                pair = {negation, negated} - {None}
                assert table.clash[i] == sum(1 << j for j in pair)
            assert table.world_bound == 2 ** min(len(closure), 20)
            assert table.agent_names == sorted({g.agent.name for g in closure if type(g) is Bel})
            saturate, demand, options, believer, doubter = {}, {}, {}, {}, {}
            for f in closure:
                if isinstance(f, And):
                    saturate[f] = ("C.&", (f.left, f.right))
                    continue
                if isinstance(f, Or):
                    options[f] = ((f.left, "C.v-left"), (f.right, "C.v-right"))
                    continue
                if isinstance(f, Bel):
                    believer[f] = f.agent.name
                    continue
                if not isinstance(f, Not):
                    continue
                x = f.sub
                if isinstance(x, Not):
                    saturate[f] = ("C.~~", (x.sub,))
                elif isinstance(x, Or):
                    saturate[f] = ("C.~v", (neg(x.left), neg(x.right)))
                elif isinstance(x, And):
                    options[f] = ((neg(x.left), "C.~&-left"), (neg(x.right), "C.~&-right"))
                elif isinstance(x, Bel):
                    doubter[f] = x.agent.name
                    demand[f] = (x.agent.name, neg(x.sub), Comp(x.agent, neg(x.sub)))
            # the facts keyed and naming members by id, mapped back
            assert {
                nodes[i]: (rule, tuple(nodes[j] for j in parts))
                for i, (rule, parts) in table.saturate.items()
            } == saturate
            assert {
                nodes[i]: (agent, nodes[j], table.member(~i))
                for i, (agent, j) in table.demand.items()
            } == demand
            assert {
                nodes[i]: tuple((nodes[j], rule) for j, rule in sides)
                for i, sides in table.options.items()
            } == options
            assert {nodes[i]: agent for i, agent in table.believer.items()} == believer
            # a negated belief is numbered right after its belief, which is
            # how the engine finds its agent
            assert {nodes[i + 1]: agent for i, agent in table.believer.items()} == doubter
            assert {nodes[i]: nodes[j] for i, j in table.sub.items()} == {
                f: f.sub for f in believer
            }

    def test_cache_keeps_queries_apart(self, monkeypatch):
        rng = random.Random(20261020)
        formulas = [
            random_formula(rng, depth=4, atom_names=("p", "q"), agent_names=agent_names)
            for agent_names in (("a",), ("a", "b"))
            for _ in range(25)
        ]
        keys = [(i, p, m) for i in range(len(formulas)) for m in ("sat", "valid")
                for p in PROFILES_BY_STRENGTH]
        orders = [
            keys,
            # profiles and modes in reverse order
            [(i, p, m) for i in range(len(formulas)) for m in ("valid", "sat")
             for p in reversed(PROFILES_BY_STRENGTH)],
            # each query after another formula's
            sorted(keys, key=lambda k: (k[1].value, k[2], k[0])),
            # sat and valid mode in turn for the same formula
            sorted(keys, key=lambda k: (k[0], k[1].value, k[2])),
        ]

        def outcomes(order):
            return {(i, p, m): _outcome(formulas[i], p, m) for i, p, m in order}

        expected = outcomes(keys)
        for order in orders:
            assert outcomes(order) == expected
        # compiled afresh for every query
        compile_fresh = tableau._Closure
        monkeypatch.setattr(tableau, "_compile", compile_fresh)
        assert outcomes(keys) == expected

    def test_cache_holds_one_query(self):
        first = parse("B[a](once1 | C[a] ~once2)")
        ref = weakref.ref(first)
        for profile in PROFILES_BY_STRENGTH:
            decide_sat(first, profile)
            decide_valid(first, profile)
        del first
        gc.collect()
        # the cache holds decide_valid's Not(first)
        assert ref() is not None
        decide_sat(parse("B[a] p"), KD)
        gc.collect()
        # a node built afresh drops the interning keys of the nodes that
        # died, and with them their children
        Atom("afresh")
        assert ref() is None

    def test_a_node_built_again_frees_dead_nodes(self):
        Atom("p")
        first = parse("B[a](gone1 | C[a] ~gone2)")
        ref = weakref.ref(first.sub)
        del first
        gc.collect()
        # the dead B[a] node's interning key holds its Or child until the
        # next construction, here one that finds its node already interned
        Atom("p")
        assert ref() is None

    def test_search_builds_no_node(self, monkeypatch):
        built = []
        build = Formula.__new__

        def counted(cls, *fields):
            built.append(cls)
            return build(cls, *fields)

        for text, profile in _HARD_ROWS:
            engine = tableau._Engine(parse(text), profile)
            monkeypatch.setattr(Formula, "__new__", staticmethod(counted))
            try:
                engine.run()
            except InternalVerificationError:
                pass
            finally:
                monkeypatch.undo()
            assert built == [], (text, profile)
        # the count sees a build: parsing and desugaring build the query's nodes
        monkeypatch.setattr(Formula, "__new__", staticmethod(counted))
        desugar(parse(_HINTIKKA_FUZZ))
        monkeypatch.undo()
        assert Not in built

    @pytest.mark.parametrize("profile", PROFILES_BY_STRENGTH)
    def test_a_sat_verdict_builds_no_node(self, profile):
        # atoms of the profile's own, so that the query is compiled afresh
        # and none of its negations is interned before the decide
        p, q = f"p_{profile.value}", f"q_{profile.value}"
        f = parse(f"B[a]({p} | C[a] ~{q}) & ~({p} & B[a] {q}) & C[a] B[a] {p}")
        desugar(f)
        before = set(formula._NODES)
        assert decide_sat(f, profile).is_sat
        # neither a negation of a member nor the Comp of a (C.BDef-rewrite)
        # demand, nor any other node
        assert set(formula._NODES) - before == set()
