"""Digests of the tableau's verdicts, for telling two checkouts apart.

    python3 tools/digest.py

runs four fixed sets of queries with this checkout's ``doxa`` and prints
one sha256 per set.  The first three are decides, digested by each query's
verdict JSON and ``repr(stats)``:

- ``random-mix``: the benchmark's random-mix pool of 800 formulas, in the
  order that workload sends them at ``--seed 1``, each under all four
  profiles in its own mode;
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
checkouts and compare the output.

The queries come from ``bench/`` as the benchmark defines them: the
random-mix pool and ``HARD_ROWS`` from ``workloads.py``, the tier-1
generator from ``gen.py``, and the time limit from ``harness.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
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
from doxa.tableau import decide, verdict_to_json_dict  # noqa: E402
from gen import tier1_text  # noqa: E402
from harness import QueryTimeout, install_time_limit, time_limit  # noqa: E402
from workloads import HARD_ROWS, RandomMix  # noqa: E402

#: Seconds a decide may run before it is digested as a timeout; fixed, so
#: two checkouts list the same queries as timeouts when their engines agree.
LIMIT = 2.0


def suite() -> list:
    """The tier-1 random suite: 500 seeded formulas over p and a, depth 4."""
    rng = random.Random(20240917)
    return [parse(tier1_text(rng)) for _ in range(500)]


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
    try:
        with time_limit(LIMIT):
            return query(f, profile, arg)
    except QueryTimeout:
        return None
    except InternalVerificationError as err:
        return f"error: {err}"


def main() -> None:
    install_time_limit()
    mix = RandomMix()
    mix.setup(1, None, None)  # the pool in the order the workload sends at --seed 1
    sets = {
        "random-mix": [
            (f"pool[{i}] {p.value} {mode}", decided, f, p, mode)
            for i, (f, mode) in enumerate((parse(text), mode) for text, mode in mix.pool)
            for p in PROFILES_BY_STRENGTH
        ],
        "hard-rows": [
            (f"{row.profile.value} {row.text}", decided, parse(row.text), row.profile, "sat")
            for row in HARD_ROWS
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
