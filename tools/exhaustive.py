"""Engine against oracle on every one-agent formula of up to 7 nodes.

    python3 tools/exhaustive.py

extends the bounded-exhaustive checks of ``tests/test_exhaustive.py``,
which run the oracle up to 6 nodes, to the 3,261 one-agent formulas of up
to 7 nodes, the size of the introspection gap, under all four profiles: a
set too slow for tier-1.  Each formula is checked with the checks of
the tier-1 tests, imported from them, so that each is written once:

- ``agreement``, per profile (``test_exhaustive.agreement_problem``): an
  oracle hit within 3 worlds means the engine says SAT, an engine model of
  at most 3 worlds means the oracle finds one, and the validity verdict of
  f is the negation of the satisfiability verdict of ~f;
- ``monotone`` (``test_exhaustive.monotone_problem``): satisfiability does
  not fall along the profiles' strength;
- ``compile`` (``test_tableau.table_members_problem``): the query's closure
  table numbers each member of its subformula closure once, the desugared
  query at ``seed``, read through the table's accessor.

It prints each disagreement, then how many checks of each kind ran and
how many disagreed, and the wall time, and exits 1 when any check
disagreed, 0 otherwise.  The formulas and the budget come from
``tests/test_exhaustive.py``; ``doxa`` is imported from this checkout's
``src``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from doxa import PROFILES_BY_STRENGTH, render  # noqa: E402
from doxa.tableau import _Closure  # noqa: E402
from test_exhaustive import (  # noqa: E402
    BUDGET,
    GAP_NODES,
    agreement_problem,
    monotone_problem,
    small_formulas,
)
from test_tableau import table_members_problem  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    formulas = small_formulas(GAP_NODES)
    checked = dict.fromkeys(("agreement", "monotone", "compile"), 0)
    problems = dict.fromkeys(checked, 0)

    def check(name: str, problem: str | None, f, profile=None) -> None:
        checked[name] += 1
        if problem is not None:
            problems[name] += 1
            print(f"{name:<9} {profile.value if profile else '-':<9} {render(f)}: {problem}")

    for f in formulas:
        check("compile", table_members_problem(_Closure(f)), f)
        for profile in PROFILES_BY_STRENGTH:
            check("agreement", agreement_problem(f, profile, BUDGET), f, profile)
        check("monotone", monotone_problem(f), f)
    seconds = time.perf_counter() - start
    print(f"{len(formulas)} one-agent formulas of up to {GAP_NODES} nodes, "
          f"{checked['agreement']} decides; oracle within {BUDGET.max_worlds} worlds")
    for name, count in checked.items():
        print(f"{name:<9} {count:>6} checked {problems[name]:>4} disagreements")
    print(f"wall time {seconds:.1f} s")
    return 1 if any(problems.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
