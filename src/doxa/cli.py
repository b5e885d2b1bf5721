"""Command-line front door.

Five subcommands: ``decide`` (satisfiability or validity of one formula),
``check-model`` (validate a model file against a profile and optionally
evaluate a formula in it), ``corpus`` (replay a verdict corpus), ``compare``
(one satisfiability verdict per profile, side by side) and ``oracle``
(bounded brute-force model search).

Exit codes follow one convention everywhere: 0 for a positive outcome
(satisfiable, valid, all checks pass, model found), 1 for a negative one,
2 for usage, parse or input-format errors and for an internal engine
error.  Text output colors verdicts when attached to a terminal unless
``DOXA_COLOR=0``; ``--output json`` prints stable machine-readable JSON
with sorted keys.

A subcommand writes only its verdict to stdout and returns 0 or 1; an input
it refuses or an engine defect it meets, it raises.  ``main`` alone turns
those into exit 2 and their report on stderr, with nothing on stdout: a
formula argument that does not parse gets the three-line caret report of
``format_parse_error``, anything else one ``error:`` line.  argparse
reports its own usage errors, also with exit 2.

A process loads only what its subcommand runs: ``corpus`` and ``oracle``
import their modules inside their commands, so that ``decide``,
``compare`` and ``check-model`` load neither of them, and ``json`` is
imported where JSON is written or read, so that text output never loads
it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .formula import Formula, agents, atoms, render
from .models import (
    InternalVerificationError,
    LabeledModelSystem,
    LogicProfile,
    ModelSystem,
    PROFILES_BY_STRENGTH,
    _read_text,
    _unique_keys,
    check_model_set,
    evaluate,
    labeled_from_json_dict,
    model_to_json_dict,
)
from .parser import ParseError, format_parse_error, parse
from .tableau import decide, render_trace, verdict_to_json_dict

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def _use_color() -> bool:
    return os.environ.get("DOXA_COLOR", "1") != "0" and sys.stdout.isatty()


def _verdict_word(word: str, positive: bool) -> str:
    if not _use_color():
        return word
    return f"{_GREEN if positive else _RED}{word}{_RESET}"


class _Unparsed(Exception):
    """A formula argument that does not parse; its text is the caret
    report, which ``main`` prints as it is."""


def _parse_formula(text: str) -> Formula:
    try:
        return parse(text)
    except ParseError as err:
        raise _Unparsed(format_parse_error(text, err)) from None


def _out(text: str) -> None:
    """Write one line of a command's output.  Once the reader has gone, as
    under ``doxa corpus | head -1``, stdout is pointed at the null device,
    so the command still finishes and exits with its verdict's code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _dump_json(payload) -> None:
    import json

    _out(json.dumps(payload, sort_keys=True, indent=2))


def _render_model_text(model: ModelSystem) -> str:
    """The listing of ``model_to_json_dict`` as text: the atoms of each
    world, then each agent's edges."""
    listing = model_to_json_dict(model)
    lines = [f"worlds: {listing['worlds']} (designated w{listing['designated']})"]
    for w, atoms in listing["valuation"].items():
        lines.append(f"  w{w}: {', '.join(atoms) or '-'}")
    for agent, pairs in listing["alternatives"].items():
        pairs = ", ".join(f"w{u}->w{v}" for u, v in pairs)
        lines.append(f"  alternatives[{agent}]: {pairs or '-'}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# subcommands

def cmd_decide(args: argparse.Namespace) -> int:
    f = _parse_formula(args.formula)
    profile = LogicProfile.from_name(args.profile)
    verdict = decide(f, profile, args.mode)
    if args.output == "json":
        _dump_json(verdict_to_json_dict(verdict))
    else:
        word = _verdict_word(verdict.word.upper(), verdict.positive)
        _out(f"{word}  {render(f)}  [{profile.value}]")
        evidence = verdict.evidence
        if isinstance(evidence, ModelSystem):
            _out(_render_model_text(evidence))
        else:
            _out(render_trace(evidence))
    return 0 if verdict.positive else 1


def _read_model(path: str) -> LabeledModelSystem:
    """The model in the JSON file ``path``.  A file that cannot be read or
    holds no valid model raises ``ValueError`` naming the file."""
    import json

    text = _read_text(path)
    try:
        return labeled_from_json_dict(json.loads(text, object_pairs_hook=_unique_keys))
    except json.JSONDecodeError as err:
        raise ValueError(
            f"malformed JSON in {path}: {err.msg} (line {err.lineno}, column {err.colno})"
        ) from None
    except RecursionError:
        raise ValueError(f"malformed JSON in {path}: nested too deeply") from None
    except (ValueError, TypeError) as err:
        raise ValueError(f"invalid model in {path}: {err}") from None


def cmd_check_model(args: argparse.Namespace) -> int:
    labeled = _read_model(args.model)
    profile = LogicProfile.from_name(args.profile)
    model = labeled.model
    f = None
    if args.formula is not None:
        f = _parse_formula(args.formula)
        # An agent the file omits has no alternatives, and the frame
        # conditions apply to it too.
        missing = {a.name for a in agents(f)} - set(model.rows)
        rows = {**model.rows, **dict.fromkeys(missing, (0,) * model.worlds)}
        model = ModelSystem(model.worlds, model.designated, model.valuation, rows)
        labeled = LabeledModelSystem(model, labeled.labels)
    violations = check_model_set(labeled, profile)
    value = None if f is None else evaluate(model, model.designated, f)
    if args.output == "json":
        _dump_json(
            {
                "violations": [
                    {
                        "kind": v.kind,
                        "worlds": list(v.worlds),
                        "formula": None if v.formula is None else render(v.formula),
                        "message": v.message,
                    }
                    for v in violations
                ],
                "formula_value": value,
            }
        )
    else:
        for v in violations:
            where = ", ".join(f"w{w}" for w in v.worlds)
            detail = f" {v.message}" if v.message else ""
            shown = f" [{render(v.formula)}]" if v.formula is not None else ""
            _out(f"violation: {v.kind} at {where}{shown}{detail}")
        if not violations:
            _out(f"ok: model satisfies the {profile.value} frame conditions")
        if value is not None:
            _out("true" if value else "false")
    return 0 if not violations else 1


def cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import load_corpus, run_corpus

    result = run_corpus(load_corpus(args.path))
    if args.output == "json":
        _dump_json(result.to_json_dict())
    else:
        width = max((len(row.entry.id) for row in result.rows), default=0)
        for row in result.rows:
            mark = _verdict_word("pass", True) if row.ok else _verdict_word("FAIL", False)
            _out(
                f"{mark}  {row.entry.id:<{width}}  {row.entry.profile.value:<8}"
                f"  {row.entry.mode:<5}  expected {row.entry.expected},"
                f" got {row.actual}"
            )
        _out(f"passed: {result.passed}  failed: {result.failed}")
    return 0 if result.failed == 0 else 1


def cmd_compare(args: argparse.Namespace) -> int:
    f = _parse_formula(args.formula)
    profiles = [LogicProfile.from_name(p.strip()) for p in args.profiles.split(",")]
    if len(set(profiles)) != len(profiles):
        raise ValueError("duplicate profile names in --profiles")
    verdicts = {p.value: decide(f, p, "sat") for p in profiles}
    words = {name: v.word for name, v in verdicts.items()}
    agree = len(set(words.values())) == 1
    if args.output == "json":
        _dump_json({"formula": render(f), "verdicts": words, "agree": agree})
    else:
        _out(f"formula: {render(f)}")
        for name, v in verdicts.items():
            _out(f"  {name:<9} {_verdict_word(v.word.upper(), v.positive)}")
        if agree:
            _out("all profiles agree")
        else:
            sat_in = sorted(p for p, v in verdicts.items() if v.positive)
            unsat_in = sorted(p for p, v in verdicts.items() if not v.positive)
            _out(
                "profiles disagree: sat in "
                + ", ".join(sat_in)
                + "; unsat in "
                + ", ".join(unsat_in)
            )
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import MAX_BUDGET_WORLDS, EnumerationBudget, sat_upto

    f = _parse_formula(args.formula)
    if not 1 <= args.max_worlds <= MAX_BUDGET_WORLDS:
        raise ValueError(f"--max-worlds must be between 1 and {MAX_BUDGET_WORLDS}")
    profile = LogicProfile.from_name(args.profile)
    budget = EnumerationBudget(
        max_worlds=args.max_worlds,
        atoms=tuple(sorted(atoms(f))),
        agents=tuple(sorted(a.name for a in agents(f))),
    )
    model = sat_upto(f, budget, profile)
    if args.output == "json":
        _dump_json(
            {
                "found": model is not None,
                "max_worlds": args.max_worlds,
                "model": None if model is None else model_to_json_dict(model),
            }
        )
    elif model is None:
        _out(
            f"not-found up to {args.max_worlds} worlds"
            " (no model that small; this is not an unsatisfiability proof)"
        )
    else:
        _out(f"found a model with {model.worlds} world(s)")
        _out(_render_model_text(model))
    return 0 if model is not None else 1


# ----------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doxa",
        description="Decide belief-logic formulas, check models, and run corpora.",
    )
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument(
        "--profile",
        default="hstar",
        choices=[p.value for p in sorted(LogicProfile, key=lambda p: p.value)],
        help="logic profile (default: hstar)",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser(
        "decide", parents=[profile, output], help="decide satisfiability or validity"
    )
    p_decide.add_argument("formula")
    p_decide.add_argument(
        "--mode", default="sat", choices=["sat", "valid"], help="decision mode"
    )
    p_decide.set_defaults(func=cmd_decide)

    p_check = sub.add_parser(
        "check-model", parents=[profile, output], help="validate a model JSON file"
    )
    p_check.add_argument("model", help="path to a model JSON file")
    p_check.add_argument(
        "--formula", default=None, help="evaluate this formula at the designated world"
    )
    p_check.set_defaults(func=cmd_check_model)

    p_corpus = sub.add_parser(
        "corpus", parents=[output], help="replay a verdict corpus"
    )
    p_corpus.add_argument(
        "path", nargs="?", default=None, help="corpus JSONL file (default: bundled)"
    )
    p_corpus.set_defaults(func=cmd_corpus)

    p_compare = sub.add_parser(
        "compare", parents=[output], help="compare satisfiability across profiles",
        allow_abbrev=False,  # so that --profile is not read as --profiles
    )
    p_compare.add_argument("formula")
    p_compare.add_argument(
        "--profiles",
        default=",".join(p.value for p in PROFILES_BY_STRENGTH),
        help="comma-separated profiles (default: all, strongest first)",
    )
    p_compare.set_defaults(func=cmd_compare)

    p_oracle = sub.add_parser(
        "oracle", parents=[profile, output], help="bounded brute-force model search"
    )
    p_oracle.add_argument("formula")
    p_oracle.add_argument(
        "--max-worlds", type=int, default=4, help="world budget, at most 5"
    )
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Unparsed as err:
        print(err, file=sys.stderr)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
    except (InternalVerificationError, RecursionError) as err:
        print(f"error: internal engine error: {err}", file=sys.stderr)
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
