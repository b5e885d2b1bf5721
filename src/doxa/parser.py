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
from functools import partial
from typing import NamedTuple

from .formula import INFIX, Agent, Atom, Bel, Comp, Formula, Not

#: One token or one run of whitespace per match, the alternatives tried in
#: this order: whitespace, punctuation ("<->" before "->"), a modal letter,
#: an identifier, and any other character, which is an error.
_TOKEN_RE = re.compile(r"(\s+)|(<->|->|[|&~()\[\]])|([BC])|([a-z][a-z0-9_]*)|(.)", re.DOTALL)


class SourceSpan(NamedTuple):
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


class _Token(NamedTuple):
    kind: str  # "ident", "modal", punctuation like "(", or "eof"
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 1:
            continue
        word = m.group()
        start, end = m.span()
        if group == 2:
            tokens.append(_Token(word, word, start, end))
        elif group == 3:
            tokens.append(_Token("modal", word, start, end))
        elif group == 4:
            tokens.append(_Token("ident", word, start, end))
        else:
            raise ParseError(f"unknown token {word!r}", SourceSpan(start, end))
    tokens.append(_Token("eof", "", len(text), len(text)))
    return tokens


#: Infix token kind -> (binding strength, connective, strength its left
#: operand needs), read off the renderer's table.
_BINARY = {text.strip(): (strength, cls, left) for cls, (text, strength, left, _) in INFIX.items()}


def _agent_bracket(tokens: list[_Token], i: int) -> Agent:
    """The agent in the bracket after the modal token ``tokens[i]``."""
    modal, opening = tokens[i], tokens[i + 1]
    if opening.kind != "[":
        raise ParseError(
            f"malformed agent bracket: expected '[' after {modal.text!r}",
            SourceSpan(modal.start, opening.end if opening.kind != "eof" else modal.end),
        )
    name = tokens[i + 2]
    if name.kind != "ident":
        raise ParseError(
            "malformed agent bracket: expected an agent name",
            SourceSpan(opening.start, name.end),
        )
    closing = tokens[i + 3]
    if closing.kind != "]":
        raise ParseError(
            "malformed agent bracket: expected ']'",
            SourceSpan(opening.start, closing.end),
        )
    return Agent(name.text)


def _apply(prefixes: list, f: Formula) -> Formula:
    """Apply a chain of prefix operators, innermost last, to ``f``."""
    while prefixes:
        f = prefixes.pop()(f)
    return f


def parse(text: str) -> Formula:
    """Parse ``text`` into a Formula, raising ParseError on bad input.

    Operator precedence over explicit stacks of operands and pending
    operators, so the nesting depth of the input is bounded by memory only.
    The loop alternates between reading an operand and reading what follows
    one, and raises the error the grammar meets first.
    """
    tokens = _tokenize(text)
    i = 0
    operands: list[Formula] = []
    # innermost last: (strength, connective) of an infix operator, or
    # (0, token, prefixes) of an open "(" and the prefixes before it
    pending: list[tuple] = []
    while True:
        prefixes = []
        tok = tokens[i]
        while tok.kind in ("~", "modal", "("):
            if tok.kind == "~":
                prefixes.append(Not)
            elif tok.kind == "modal":
                agent = _agent_bracket(tokens, i)
                prefixes.append(partial(Bel if tok.text == "B" else Comp, agent))
                i += 3
            else:
                pending.append((0, tok, prefixes))
                prefixes = []
            i += 1
            tok = tokens[i]
        if tok.kind != "ident":
            raise ParseError("missing operand", tok.span)
        operands.append(_apply(prefixes, Atom(tok.text)))
        while True:
            i += 1
            tok = tokens[i]
            infix = _BINARY.get(tok.kind)
            # everything pending that binds at least as tightly as the left
            # operand of this token needs becomes that operand
            need = infix[2] if infix else 1
            while pending and pending[-1][0] >= need:
                right = operands.pop()
                operands[-1] = pending.pop()[1](operands[-1], right)
            if infix:
                pending.append(infix[:2])
                i += 1
                break
            if not pending:
                if tok.kind == "eof":
                    return operands[0]
                if tok.kind == ")":
                    raise ParseError("unbalanced parenthesis", tok.span)
                raise ParseError(f"unexpected token {tok.text!r} after formula", tok.span)
            _, opening, outer = pending.pop()
            if tok.kind != ")":
                raise ParseError("unbalanced parenthesis", SourceSpan(opening.start, tok.end))
            operands[-1] = _apply(outer, operands[-1])


def format_parse_error(text: str, err: ParseError) -> str:
    """Show the offending input with a caret line under the error span.
    Each whitespace character of the input is shown as one space, so that
    a newline or a tab neither adds a line to the report nor shifts the
    carets off the span."""
    width = max(1, err.span.end - err.span.start)
    caret_line = " " * err.span.start + "^" * width
    shown = re.sub(r"\s", " ", text)
    return f"{err.message}\n  {shown}\n  {caret_line}"
