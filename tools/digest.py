"""Digests of the tableau's verdicts, for telling two checkouts apart.

    python3 tools/digest.py

runs four fixed sets of queries with this checkout's ``doxa`` and prints
one sha256 per set.  The first three are decides, digested by each query's
verdict JSON and ``repr(stats)``:

- ``random-mix``: the benchmark's pool of 800 formulas (``bench/gen.py``
  at its fixed pool seed), each under all four profiles in its own mode;
- ``hard-rows``: the 26 rows of the benchmark's hard-families workload;
- ``suite``: the tier-1 random suite of 500 formulas (``tests/conftest.py``,
  seed 20240917) under all four profiles, in both modes.

The fourth, ``oracle``, holds the 816 ``sat_upto`` queries of the
benchmark's oracle pool (``bench/oracle_pool.json``): each row under each
profile its part lists, within that part's budget, digested by the
``model_to_json_dict`` JSON of the model found, or ``none``.

A query that runs past ``LIMIT`` (2 s) is digested as a timeout and listed
by name under its set, and an ``InternalVerificationError`` is digested by
its message, so equal digests mean equal answers, stats and errors, and a
query whose time limit decided the outcome shows by name.  Run it in two
checkouts and compare the output.  Standard library plus ``doxa`` and the
benchmark's formula generator and oracle pool only.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from doxa import (  # noqa: E402
    PROFILES_BY_STRENGTH,
    EnumerationBudget,
    InternalVerificationError,
    LogicProfile,
    model_to_json_dict,
    parse,
    sat_upto,
)
from doxa.formula import Agent, And, Atom, Bel, Comp, Iff, Implies, Not, Or  # noqa: E402
from doxa.tableau import decide, verdict_to_json_dict  # noqa: E402
from gen import POOL_SEED, multiagent_text, tier1_text  # noqa: E402

#: Seconds a decide may run before it is digested as a timeout; fixed, so
#: two checkouts list the same queries as timeouts when their engines agree.
LIMIT = 2.0


def random_mix() -> list[tuple[str, str]]:
    """The (text, mode) pairs of the random-mix pool, drawn as
    ``RandomMix.setup`` in ``bench/workloads.py`` draws them: blocks of 7
    one-agent and 3 two-agent texts, 2 of each block in valid mode."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(80):
        texts = [tier1_text(rng) for _ in range(7)] + [multiagent_text(rng) for _ in range(3)]
        modes = ["valid"] * 2 + ["sat"] * 8
        rng.shuffle(modes)
        block = list(zip(texts, modes))
        rng.shuffle(block)
        pool += block
    return pool


def _compat(n: int) -> str:
    return " & ".join(f"C[a] p{i}" for i in range(n)) + " & B[a] q"


def _nest(n: int) -> str:
    return "B[a] " * n + "p & " + "C[a] " * n + "~p"


def _prop(n: int) -> str:
    pairs = [f"(x{i} | y{i}) & (~x{i} | ~y{i})" for i in range(n)]
    return " & ".join(pairs) + " & (x0 <-> y0)"


def hard_rows() -> list[tuple[str, str]]:
    """The (text, profile name) pairs of the hard-families workload."""
    return [
        *((_compat(n), "kd45") for n in (2, 3, 4)),
        *((_compat(n), p) for p in ("hstar", "hintikka") for n in (4, 8, 12)),
        *((_nest(n), p.value) for p in PROFILES_BY_STRENGTH for n in (4, 6, 8)),
        *((_prop(n), "kd") for n in (6, 8, 10)),
        ("B[a]((q | p) & B[a] q | (C[a] q | C[a] q) <-> ~B[a] B[a] q)", "hintikka"),
        ("C[b] B[a] B[a] C[a] q", "kd45"),
    ]


_KINDS = ("atom", "not", "and", "or", "implies", "iff", "bel", "comp")
_WEIGHTS = (2, 3, 3, 3, 2, 1, 4, 3)
_BINARY = {"and": And, "or": Or, "implies": Implies, "iff": Iff}


def _random_formula(rng: random.Random, depth: int):
    """``random_formula`` of ``tests/conftest.py`` over atom p and agent a."""
    if depth <= 0:
        return Atom(rng.choice(("p",)))
    kind = rng.choices(_KINDS, weights=_WEIGHTS, k=1)[0]
    if kind == "atom":
        return Atom(rng.choice(("p",)))
    if kind == "not":
        return Not(_random_formula(rng, depth - 1))
    if kind in ("bel", "comp"):
        node = Bel if kind == "bel" else Comp
        return node(Agent(rng.choice(("a",))), _random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    return _BINARY[kind](left, right)


def suite() -> list:
    """The tier-1 random suite: 500 seeded formulas over p and a, depth 4."""
    rng = random.Random(20240917)
    return [_random_formula(rng, 4) for _ in range(500)]


def oracle_pool() -> list[tuple[str, LogicProfile, EnumerationBudget]]:
    """The (text, profile, budget) queries of the benchmark's oracle pool,
    in the file's order: each row under each profile of its part."""
    pinned = json.loads((ROOT / "bench" / "oracle_pool.json").read_text("utf-8"))
    queries = []
    for part in ("one_agent", "two_agent"):
        spec = pinned[part]
        budget = EnumerationBudget(
            max_worlds=spec["max_worlds"], atoms=tuple(spec["atoms"]),
            agents=tuple(spec["agents"]),
        )
        queries += [
            (row["text"], LogicProfile(p), budget) for row in spec["rows"] for p in spec["profiles"]
        ]
    return queries


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def decided(f, profile, mode: str) -> str:
    """The verdict JSON and ``repr(stats)`` of one decide."""
    verdict = decide(f, profile, mode)
    return json.dumps(verdict_to_json_dict(verdict), sort_keys=True) + repr(verdict.stats)


def found(f, profile, budget) -> str:
    """The JSON of the model ``sat_upto`` finds, or ``none``."""
    model = sat_upto(f, budget, profile)
    return "none" if model is None else json.dumps(model_to_json_dict(model), sort_keys=True)


def outcome(query, f, profile, arg) -> str | None:
    """``query(f, profile, arg)``, the message of its internal error, or
    None past ``LIMIT`` seconds."""
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        return query(f, profile, arg)
    except _Timeout:
        return None
    except InternalVerificationError as err:
        return f"error: {err}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    sets = {
        "random-mix": [
            (f"pool[{i}] {p.value} {mode}", decided, f, p, mode)
            for i, (f, mode) in enumerate((parse(text), mode) for text, mode in random_mix())
            for p in PROFILES_BY_STRENGTH
        ],
        "hard-rows": [
            (f"{name} {text}", decided, parse(text), LogicProfile(name), "sat")
            for text, name in hard_rows()
        ],
        "suite": [
            (f"suite[{i}] {p.value} {mode}", decided, f, p, mode)
            for i, f in enumerate(suite())
            for mode in ("sat", "valid")
            for p in PROFILES_BY_STRENGTH
        ],
        "oracle": [
            (f"oracle[{i}] {p.value} {text}", found, parse(text), p, budget)
            for i, (text, p, budget) in enumerate(oracle_pool())
        ],
    }
    for name, queries in sets.items():
        digest = hashlib.sha256()
        timeouts = []
        for label, *query in queries:
            text = outcome(*query)
            if text is None:
                timeouts.append(label)
                text = "timeout"
            digest.update(f"{label}\n{text}\n".encode())
        print(f"{name:<11} {len(queries):>5} queries  {digest.hexdigest()}")
        for label in timeouts:
            print(f"    timeout: {label}")


if __name__ == "__main__":
    main()
