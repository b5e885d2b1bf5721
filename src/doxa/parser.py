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
a missing operand, or a malformed agent bracket.  An unknown token anywhere
is reported before any grammar error.

The text is tokenized in one pass of one regex, each match one token after
any whitespace, and the tokens are kept as the texts of the match groups
only: one tuple of symbols and one of identifiers, without positions.  A
span is found by scanning the text again up to the offending token, so
only a failed parse pays for it.  Agents are looked up in a dict for the
one parse, and prefix operators are kept as ``Not`` or a (modal
connective, agent) pair until their operand is read.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple

from .formula import INFIX, Agent, Atom, Bel, Comp, Formula, Not

#: One token per match, after any whitespace, in three groups: a symbol
#: (punctuation, "<->" before "->", or a modal letter), an identifier, or
#: any other character, which is an error.  At the end of the text the
#: match is empty in all three: the end-of-input token.
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|[|&~()\[\]BC])|([a-z][a-z0-9_]*)|(.)|\Z)", re.DOTALL)


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


def _tokenize(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The tokens of ``text`` as two tuples read off the regex's groups:
    token i is the symbol ``symbols[i]`` or the identifier ``idents[i]``,
    and the last token, the end of input, is empty in both.  Raises
    ParseError at the first unknown token."""
    # without the trailing whitespace, which the end-of-input match would
    # take, leaving ``findall`` one more, empty, match at the end (``\s``
    # and ``str.isspace`` agree on every character)
    symbols, idents, unknown = zip(*_TOKEN_RE.findall(text.rstrip()))
    if any(unknown):
        i = next(i for i, u in enumerate(unknown) if u)
        raise ParseError(f"unknown token {unknown[i]!r}", _span(text, i))
    return symbols, idents


def _span(text: str, i: int) -> SourceSpan:
    """The span of token i of ``text``; the end of input spans no text at
    its end.  Only an error needs a span, so it scans the text again."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None))
    group = m.lastindex
    return SourceSpan(m.start(group), m.end(group)) if group else SourceSpan(m.end(), m.end())


#: Infix symbol -> (binding strength, connective, strength its left
#: operand needs), read off the renderer's table.
_BINARY = {text.strip(): (strength, cls, left) for cls, (text, strength, left, _) in INFIX.items()}

#: The symbols that may open an operand.
_PREFIX = frozenset("~(BC")


def _agent_name(text: str, symbols: tuple[str, ...], idents: tuple[str, ...], i: int) -> str:
    """The agent name in the bracket after the modal letter, token i."""
    if symbols[i + 1] != "[":
        # up to the token in place of "[", unless the input ends there
        last = i + 1 if symbols[i + 1] or idents[i + 1] else i
        raise ParseError(
            f"malformed agent bracket: expected '[' after {symbols[i]!r}",
            SourceSpan(_span(text, i).start, _span(text, last).end),
        )
    if not idents[i + 2]:
        raise ParseError(
            "malformed agent bracket: expected an agent name",
            SourceSpan(_span(text, i + 1).start, _span(text, i + 2).end),
        )
    if symbols[i + 3] != "]":
        raise ParseError(
            "malformed agent bracket: expected ']'",
            SourceSpan(_span(text, i + 1).start, _span(text, i + 3).end),
        )
    return idents[i + 2]


def _apply(prefixes: list, f: Formula) -> Formula:
    """Apply a chain of prefix operators, innermost last, to ``f``: each
    is ``Not`` or a (modal connective, agent) pair."""
    while prefixes:
        prefix = prefixes.pop()
        f = Not(f) if prefix is Not else prefix[0](prefix[1], f)
    return f


def parse(text: str) -> Formula:
    """Parse ``text`` into a Formula, raising ParseError on bad input.

    Operator precedence over explicit stacks of operands and pending
    operators, so the nesting depth of the input is bounded by memory only.
    The loop alternates between reading an operand and reading what follows
    one, and raises the error the grammar meets first; an unknown token
    anywhere is reported before any of them.
    """
    symbols, idents = _tokenize(text)
    agents: dict[str, Agent] = {}
    i = 0
    operands: list[Formula] = []
    # innermost last: (strength, connective, left strength) of an infix
    # operator, or (0, token index, prefixes) of an open "(" and the
    # prefixes before it
    pending: list[tuple] = []
    while True:
        prefixes: list = []
        symbol = symbols[i]
        while symbol in _PREFIX:
            if symbol == "~":
                prefixes.append(Not)
            elif symbol == "(":
                pending.append((0, i, prefixes))
                prefixes = []
            else:
                name = _agent_name(text, symbols, idents, i)
                agent = agents.get(name) or agents.setdefault(name, Agent(name))
                prefixes.append((Bel if symbol == "B" else Comp, agent))
                i += 3
            i += 1
            symbol = symbols[i]
        if not idents[i]:
            raise ParseError("missing operand", _span(text, i))
        operands.append(_apply(prefixes, Atom(idents[i])))
        while True:
            i += 1
            symbol = symbols[i]
            infix = _BINARY.get(symbol)
            # everything pending that binds at least as tightly as the left
            # operand of this token needs becomes that operand
            need = infix[2] if infix else 1
            while pending and pending[-1][0] >= need:
                right = operands.pop()
                operands[-1] = pending.pop()[1](operands[-1], right)
            if infix:
                pending.append(infix)
                i += 1
                break
            if not pending:
                if not (symbol or idents[i]):
                    return operands[0]
                if symbol == ")":
                    raise ParseError("unbalanced parenthesis", _span(text, i))
                raise ParseError(
                    f"unexpected token {symbol or idents[i]!r} after formula", _span(text, i)
                )
            _, opening, outer = pending.pop()
            if symbol != ")":
                raise ParseError(
                    "unbalanced parenthesis",
                    SourceSpan(_span(text, opening).start, _span(text, i).end),
                )
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
