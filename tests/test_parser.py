"""Concrete-syntax parsing: precedence, spans, error reporting, round trips."""

from __future__ import annotations

import re

import pytest
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
    agents,
    atoms,
    render,
    subformula_closure,
    subformulas,
)
from doxa.models import LabeledModelSystem, ModelSystem
from doxa.parser import ParseError, SourceSpan, _span, _tokenize, format_parse_error, parse
from test_exhaustive import small_formulas

P, Q, R = Atom("p"), Atom("q"), Atom("r")
A, B = Agent("a"), Agent("b")


class TestGrammar:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("p", P),
            ("~p", Not(P)),
            ("~~p", Not(Not(P))),
            ("p & q", And(P, Q)),
            ("p & q & r", And(And(P, Q), R)),
            ("p | q | r", Or(Or(P, Q), R)),
            ("p & q | r", Or(And(P, Q), R)),
            ("p | q & r", Or(P, And(Q, R))),
            ("p -> q -> r", Implies(P, Implies(Q, R))),
            ("(p -> q) -> r", Implies(Implies(P, Q), R)),
            ("p <-> q <-> r", Iff(P, Iff(Q, R))),
            ("p -> q <-> r", Iff(Implies(P, Q), R)),
            ("B[a] p", Bel(A, P)),
            ("C[a] p", Comp(A, P)),
            ("B[a] p & q", And(Bel(A, P), Q)),
            ("B[a](p & q)", Bel(A, And(P, Q))),
            ("~B[a] p", Not(Bel(A, P))),
            ("B[a] ~p", Bel(A, Not(P))),
            ("B[a] B[b] p", Bel(A, Bel(B, P))),
            ("B[a](p & ~B[a] p)", Bel(A, And(P, Not(Bel(A, P))))),
            ("B[a] p & ~B[a] B[a] p", And(Bel(A, P), Not(Bel(A, Bel(A, P))))),
            ("B[a] p -> C[a] B[a] p", Implies(Bel(A, P), Comp(A, Bel(A, P)))),
        ],
    )
    def test_golden_trees(self, text, expected):
        assert parse(text) == expected

    def test_compatibility_is_kept_as_written(self):
        # C[a] stays a Comp node; desugaring is a separate, explicit step.
        assert isinstance(parse("C[a] ~B[a] p"), Comp)

    def test_whitespace_is_insignificant(self):
        dense = parse("B[a](p&~q)->C[b]r")
        spread = parse("  B [ a ] ( p & ~ q )  ->  C [ b ] r ")
        assert dense == spread

    def test_identifiers_with_digits_and_underscores(self):
        assert parse("p_1 & q2") == And(Atom("p_1"), Atom("q2"))
        assert parse("B[agent_two] p") == Bel(Agent("agent_two"), P)

    def test_long_prefix_chains_parse(self):
        # prefix chains are read in a loop, so their length is not bounded
        # by the recursion limit, and equal chains are one node
        assert parse("~" * 5000 + "p") is not None
        f = P
        for _ in range(500):
            f = Not(f)
        assert parse("~" * 500 + "p") == f
        deep = parse("B[a] C[b] ~" * 1000 + "p")
        assert deep == parse("B[a] C[b] ~" * 1000 + "p")
        assert deep != parse("B[a] C[b] ~" * 1000 + "q")

    def test_deep_input_walks_iteratively(self):
        # the subformula walk keeps an explicit stack, so 5,000 nested
        # negations are within reach of every reader of it
        deep = parse("~" * 5000 + "p")
        assert agents(deep) == frozenset()
        assert atoms(deep) == {"p"}
        assert len(subformulas(deep)) == 5001
        assert len(subformula_closure(deep)) == 5001
        labeled = LabeledModelSystem(ModelSystem(worlds=1, designated=0), {0: (deep,)})
        assert labeled.label(0) == (deep,)


class TestErrors:
    @pytest.mark.parametrize(
        ("text", "message", "span"),
        [
            ("", "missing operand", (0, 0)),
            ("p & ", "missing operand", (4, 4)),
            ("p & (", "missing operand", (5, 5)),
            ("(p", "unbalanced parenthesis", (0, 2)),
            ("p)", "unbalanced parenthesis", (1, 2)),
            ("p q", "unexpected token 'q' after formula", (2, 3)),
            ("p & $", "unknown token '$'", (4, 5)),
            ("B p", "malformed agent bracket: expected '[' after 'B'", (0, 3)),
            ("B[a", "malformed agent bracket: expected ']'", (1, 3)),
            ("B[&] p", "malformed agent bracket: expected an agent name", (1, 3)),
            ("C[] p", "malformed agent bracket: expected an agent name", (1, 3)),
        ],
    )
    def test_error_message_and_span(self, text, message, span):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.message == message
        assert (exc.value.span.start, exc.value.span.end) == span

    def test_str_includes_span(self):
        with pytest.raises(ParseError) as exc:
            parse("p q")
        assert str(exc.value) == "unexpected token 'q' after formula (at 2..3)"

    def test_parse_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse("p q")

    def test_caret_alignment(self):
        try:
            parse("p & (q | )")
        except ParseError as err:
            shown = format_parse_error("p & (q | )", err)
        assert shown == "missing operand\n  p & (q | )\n           ^"

    def test_caret_covers_multibyte_spans(self):
        try:
            parse("p <-")
        except ParseError as err:
            shown = format_parse_error("p <-", err)
        lines = shown.splitlines()
        assert lines[0].startswith("unknown token")
        assert "^" in lines[2]

    def test_whitespace_shows_as_one_space(self):
        # a newline would add a line to the report and a tab would shift
        # the carets off the span
        text = "p\n\t& q )"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert format_parse_error(text, exc.value) == (
            "unbalanced parenthesis\n  p  & q )\n         ^"
        )


_atoms_st = st.sampled_from([P, Q, Atom("r_2")])
_agents_st = st.sampled_from([A, B])

formulas_st = st.recursive(
    _atoms_st,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Iff, children, children),
        st.builds(Bel, _agents_st, children),
        st.builds(Comp, _agents_st, children),
    ),
    max_leaves=14,
)


class TestRoundTrip:
    @given(formulas_st)
    @settings(max_examples=300)
    def test_parse_inverts_render(self, f):
        assert parse(render(f)) == f

    @given(formulas_st)
    @settings(max_examples=100)
    def test_render_is_reparse_stable(self, f):
        text = render(f)
        assert render(parse(text)) == text

    def test_every_small_two_agent_formula_round_trips(self):
        # every nesting of ~, B, C, & and | over two agents up to 6 nodes
        formulas = small_formulas(6, agents=("a", "b"))
        assert len(formulas) == 5592
        for f in formulas:
            assert parse(render(f)) is f


_PUNCTUATION = ("<->", "->", "|", "&", "~", "(", ")", "[", "]")
_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")
_WS_RE = re.compile(r"\s*")


def _reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """An independent tokenizer, kept as the reference: it tries the modal
    letters, each punctuation string and an identifier in turn at each
    position.  Each token is (symbol, identifier, start, end), one of the
    two texts empty; the end of input is empty in both."""
    tokens: list[tuple[str, str, int, int]] = []
    pos = _WS_RE.match(text).end()
    while pos < len(text):
        ch = text[pos]
        if ch in ("B", "C"):
            tokens.append((ch, "", pos, pos + 1))
            pos += 1
        else:
            for punct in _PUNCTUATION:
                if text.startswith(punct, pos):
                    tokens.append((punct, "", pos, pos + len(punct)))
                    pos += len(punct)
                    break
            else:
                m = _IDENT_RE.match(text, pos)
                if m:
                    tokens.append(("", m.group(), pos, m.end()))
                    pos = m.end()
                else:
                    raise ParseError(
                        f"unknown token {text[pos]!r}", SourceSpan(pos, pos + 1)
                    )
        pos = _WS_RE.match(text, pos).end()
    tokens.append(("", "", len(text), len(text)))
    return tokens


def _tokens(text: str) -> list[tuple[str, str, int, int]]:
    """The parser's tokens of ``text`` in the reference's form: its symbol
    and identifier tuples, with each token's span."""
    symbols, idents = _tokenize(text)
    return [(symbol, idents[i], *_span(text, i)) for i, symbol in enumerate(symbols)]


def _tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except ParseError as err:
        return err.message, err.span


#: The formula alphabet, with stray characters: uppercase letters other
#: than B and C, symbols, non-ASCII letters and whitespace, and the halves
#: of the arrows.
_ALPHABET = list("pqab_09BC[]()~&|<->") + [" ", "\t", "\n", "\u00a0", "\u2028"] + list("$AXé.=")


class TestTokenizer:
    @given(st.text(alphabet=st.sampled_from(_ALPHABET), max_size=40))
    @settings(max_examples=1000)
    def test_formula_alphabet_matches_reference(self, text):
        assert _tokens_or_error(_tokens, text) == _tokens_or_error(_reference_tokenize, text)

    @given(st.text(max_size=20))
    @settings(max_examples=300)
    def test_any_text_matches_reference(self, text):
        assert _tokens_or_error(_tokens, text) == _tokens_or_error(_reference_tokenize, text)

    @given(formulas_st)
    @settings(max_examples=100)
    def test_rendered_formulas_match_reference(self, f):
        text = render(f)
        assert _tokens_or_error(_tokens, text) == _tokens_or_error(_reference_tokenize, text)
