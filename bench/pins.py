"""Write the pinned inputs and answers the benchmark checks against.

Run from the root of a checkout, only when the program's answers or output
format change on purpose:

    python3 bench/pins.py

- ``oracle_pool.json``: the ``oracle-sweep`` formulas, with whether the
  brute-force oracle finds a model of each under each profile.  The
  formulas are the first ones of the benchmark's own generator at a fixed
  seed, unfiltered, so they follow the tier-1 distribution and do not
  depend on the program.
- ``cli_pins.json``: the exit code of every ``cli-process`` command, and the
  SHA-256 of its standard output for the JSON ones.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from doxa import EnumerationBudget, LogicProfile, PROFILES_BY_STRENGTH, parse, sat_upto  # noqa: E402

from gen import POOL_SEED, tier1_text, two_agent_oracle_text  # noqa: E402

ONE_AGENT = 200
TWO_AGENT = 8


def pin_pool(make_text, count: int, budget: EnumerationBudget, profiles) -> dict:
    rng = random.Random(POOL_SEED)
    rows = []
    for _ in range(count):
        text = make_text(rng)
        found = {p.value: sat_upto(parse(text), budget, p) is not None for p in profiles}
        rows.append({"text": text, "found": found})
    return {
        "max_worlds": budget.max_worlds,
        "atoms": list(budget.atoms),
        "agents": list(budget.agents),
        "profiles": [p.value for p in profiles],
        "rows": rows,
    }


def main() -> int:
    from harness import install_time_limit
    from workloads import CLI_COMMANDS, OUT_DIR, run_process

    parts = {
        "one_agent": pin_pool(tier1_text, ONE_AGENT,
                              EnumerationBudget(max_worlds=4, atoms=("p",), agents=("a",)),
                              PROFILES_BY_STRENGTH),
        "two_agent": pin_pool(two_agent_oracle_text, TWO_AGENT,
                              EnumerationBudget(max_worlds=3, atoms=("p",), agents=("a", "b")),
                              (LogicProfile.KD45, LogicProfile.HINTIKKA)),
    }
    # One row per line, so that a changed pin is a one-line diff.
    lines = ["{", f' "generator_seed": {POOL_SEED},']
    for name, part in parts.items():
        head = {k: v for k, v in part.items() if k != "rows"}
        lines.append(f' "{name}": {json.dumps(head)[:-1]}, "rows": [')
        lines.append(",\n".join("  " + json.dumps(row) for row in part["rows"]))
        lines.append(" ]},")
    lines[-1] = " ]}"
    lines.append("}")
    (HERE / "oracle_pool.json").write_text("\n".join(lines) + "\n")

    install_time_limit()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    pins = {}
    for cmd in CLI_COMMANDS:
        _, code, stdout, _ = run_process(["-m", "doxa", *cmd.argv()], 10.0,
                                         OUT_DIR / "cli-stdout.txt")
        digest = hashlib.sha256(stdout).hexdigest() if cmd.output == "json" else None
        pins[cmd.key] = {"exit": code, "stdout_sha256": digest}
    (HERE / "cli_pins.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
