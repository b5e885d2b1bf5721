"""Work and time of the tableau on the scaling families.

    python3 tools/families.py [-k RUNS] [--family NAME ...] [--profile NAME ...]

decides each family row at several sizes under the given profiles (default:
every family and profile that the family lists) and prints, per row, the
verdict, the rules fired, the worlds created, the worlds of the returned
model and the best of RUNS in-process wall times in milliseconds (default
5).  The families are:

- ``compat``: ``C[a] p0 & ... & C[a] p{n-1} & B[a] q`` (SAT);
- ``nest``: ``B[a]^n p & C[a]^n ~p`` (UNSAT);
- ``prop``: ``(x_i | y_i) & (~x_i | ~y_i)`` for i < n, ``& (x0 <-> y0)``
  (UNSAT);
- ``chain``: ``(B[a] C[a])^k C[a] p`` (SAT).

A row that takes longer than ``--limit`` seconds (default 5) on its first
run is reported as over the limit, and the family's larger sizes under
that profile are skipped.  It imports ``doxa`` from this checkout's
``src``, and from ``bench/`` the benchmark's own ``compat``, ``nest`` and
``prop`` (``workloads.py``) and its time limit (``harness.py``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from doxa import LogicProfile, decide_sat, parse  # noqa: E402
from harness import QueryTimeout, install_time_limit, time_limit  # noqa: E402
from workloads import _compat as compat, _nest as nest, _prop as prop  # noqa: E402


def chain(k: int) -> str:
    return "B[a] C[a] " * k + "C[a] p"


#: name -> (formula of a size, sizes, profile names)
FAMILIES = {
    "compat": (compat, (2, 4, 5, 8, 12), ("kd", "hstar", "hintikka", "kd45")),
    "nest": (nest, (4, 6, 8, 12), ("kd", "hstar", "hintikka", "kd45")),
    "prop": (prop, (6, 8, 10, 14), ("kd",)),
    "chain": (chain, (1, 2, 3, 4, 5, 6, 7, 8), ("kd", "hstar", "hintikka")),
}


def best_of(text: str, profile: LogicProfile, runs: int, limit: float):
    """The verdict of the first run and the best wall time of ``runs``, in
    seconds; None when the first run takes longer than ``limit``."""
    f = parse(text)
    try:
        with time_limit(limit):
            start = time.perf_counter()
            verdict = decide_sat(f, profile)
            best = time.perf_counter() - start
    except QueryTimeout:
        return None
    for _ in range(runs - 1):
        start = time.perf_counter()
        decide_sat(f, profile)
        best = min(best, time.perf_counter() - start)
    return verdict, best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", "--runs", type=int, default=5)
    parser.add_argument("--family", action="append", choices=sorted(FAMILIES))
    parser.add_argument("--profile", action="append", choices=[p.value for p in LogicProfile])
    parser.add_argument("--limit", type=float, default=5.0)
    args = parser.parse_args()
    install_time_limit()
    print(f"{'family':<8} {'n':>3} {'profile':<9} {'verdict':<6} {'rules':>7} "
          f"{'worlds':>7} {'model':>6} {'ms':>9}")
    for name in args.family or FAMILIES:
        formula, sizes, profiles = FAMILIES[name]
        for profile_name in profiles:
            if args.profile and profile_name not in args.profile:
                continue
            profile = LogicProfile(profile_name)
            for n in sizes:
                result = best_of(formula(n), profile, args.runs, args.limit)
                if result is None:
                    print(f"{name:<8} {n:>3} {profile_name:<9} over the {args.limit:g} s limit")
                    break
                verdict, seconds = result
                stats = verdict.stats
                model = verdict.model.worlds if verdict.is_sat else "-"
                print(f"{name:<8} {n:>3} {profile_name:<9} {verdict.word:<6} "
                      f"{stats.rules_fired:>7} {stats.worlds_created:>7} {model:>6} "
                      f"{seconds * 1000:>9.2f}")


if __name__ == "__main__":
    main()
