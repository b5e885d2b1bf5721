"""Parser for the concrete belief-formula syntax.

Grammar, with whitespace insignificant everywhere:

    formula  :=  iff
    iff      :=  imp ("<->" iff)?
    imp      :=  or  ("->" imp)?
    or       :=  and ("|" and)*
    and      :=  unary ("&" unary)*
    unary    :=  "~" unary
              |  "B" "[" agent "]" unary
              |  "C" "[" agent "]" unary
              |  "(" formula ")"
              |  atom
    atom     :=  [a-z][a-z0-9_]*
    agent    :=  [a-z][a-z0-9_]*

"~", "B[...]" and "C[...]" bind tightest, then "&", then "|", then "->",
then "<->".  The arrows associate to the right, "&" and "|" to the left.

Errors are reported as ``ParseError`` with a ``SourceSpan`` giving the byte
offsets of the offending input: an unknown token, an unbalanced parenthesis,
a missing operand, or a malformed agent bracket.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from .formula import Agent, And, Atom, Bel, Comp, Formula, Iff, Implies, Not, Or

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")
_WS_RE = re.compile(r"\s*")


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Half-open [start, end) offset range into the parsed text."""

    start: int
    end: int


class ParseError(ValueError):
    """Raised when the input is not a well-formed formula."""

    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        return f"{self.message} (at {self.span.start}..{self.span.end})"


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "ident", "modal", punctuation like "(", or "eof"
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


_PUNCTUATION = ("<->", "->", "|", "&", "~", "(", ")", "[", "]")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = _WS_RE.match(text).end()
    while pos < len(text):
        ch = text[pos]
        if ch in ("B", "C"):
            tokens.append(_Token("modal", ch, pos, pos + 1))
            pos += 1
        else:
            for punct in _PUNCTUATION:
                if text.startswith(punct, pos):
                    tokens.append(_Token(punct, punct, pos, pos + len(punct)))
                    pos += len(punct)
                    break
            else:
                m = _IDENT_RE.match(text, pos)
                if m:
                    tokens.append(_Token("ident", m.group(), pos, m.end()))
                    pos = m.end()
                else:
                    raise ParseError(
                        f"unknown token {text[pos]!r}", SourceSpan(pos, pos + 1)
                    )
        pos = _WS_RE.match(text, pos).end()
    tokens.append(_Token("eof", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_iff()
        tok = self.peek()
        if tok.kind != "eof":
            if tok.kind == ")":
                raise ParseError("unbalanced parenthesis", tok.span)
            raise ParseError(f"unexpected token {tok.text!r} after formula", tok.span)
        return f

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.peek().kind == "<->":
            self.advance()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek().kind == "->":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek().kind == "|":
            self.advance()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_unary()
        while self.peek().kind == "&":
            self.advance()
            f = And(f, self.parse_unary())
        return f

    def parse_unary(self) -> Formula:
        # A chain of prefix operators is read in a loop, so its length is
        # not bounded by the recursion limit.
        prefixes = []
        tok = self.peek()
        while tok.kind in ("~", "modal"):
            self.advance()
            if tok.kind == "~":
                prefixes.append(Not)
            else:
                agent = self.parse_agent_bracket(tok)
                prefixes.append(partial(Bel if tok.text == "B" else Comp, agent))
            tok = self.peek()
        if tok.kind == "(":
            self.advance()
            f = self.parse_iff()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError(
                    "unbalanced parenthesis", SourceSpan(tok.start, closing.end)
                )
            self.advance()
        elif tok.kind == "ident":
            self.advance()
            f = Atom(tok.text)
        else:
            raise ParseError("missing operand", tok.span)
        while prefixes:
            f = prefixes.pop()(f)
        return f

    def parse_agent_bracket(self, modal: _Token) -> Agent:
        opening = self.peek()
        if opening.kind != "[":
            raise ParseError(
                f"malformed agent bracket: expected '[' after {modal.text!r}",
                SourceSpan(modal.start, opening.end if opening.kind != "eof" else modal.end),
            )
        self.advance()
        name = self.peek()
        if name.kind != "ident":
            raise ParseError(
                "malformed agent bracket: expected an agent name",
                SourceSpan(opening.start, name.end),
            )
        self.advance()
        closing = self.peek()
        if closing.kind != "]":
            raise ParseError(
                "malformed agent bracket: expected ']'",
                SourceSpan(opening.start, closing.end),
            )
        self.advance()
        return Agent(name.text)


def parse(text: str) -> Formula:
    """Parse ``text`` into a Formula, raising ParseError on bad input."""
    return _Parser(text).parse()


def format_parse_error(text: str, err: ParseError) -> str:
    """Show the offending input with a caret line under the error span."""
    width = max(1, err.span.end - err.span.start)
    caret_line = " " * err.span.start + "^" * width
    return f"{err.message}\n  {text}\n  {caret_line}"
