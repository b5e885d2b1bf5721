"""Time of the front end: parse, desugar and the closure compile.

    python3 tools/frontend.py

runs the benchmark's random-mix pool of 800 formulas, in the order that
workload sends them at ``--seed 1`` (``workloads.RandomMix``, as in
``tools/digest.py``), through ``parse``, ``desugar`` and the tableau's
closure compile (``tableau._Closure``, not its one-entry cache), and prints
the best of ``RUNS`` (20) passes of each phase, in milliseconds, with
parse plus compile.  One pass handles each formula in turn and drops it
before the next, so that, as in the benchmark, each formula's nodes are
freed before the next formula is parsed.  It imports ``doxa`` from this
checkout's ``src``; run it in two checkouts and compare the output.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from doxa import desugar, parse  # noqa: E402
from doxa.tableau import _Closure  # noqa: E402
from workloads import RandomMix  # noqa: E402

PHASES = ("parse", "desugar", "compile")

#: Passes over the pool, of which the fastest is printed per phase; fixed,
#: so that two checkouts' outputs are the best of the same number of passes.
RUNS = 20


def one_pass(texts: list[str]) -> list[float]:
    """The seconds each phase took over ``texts``, in the order of ``PHASES``."""
    totals = [0.0] * len(PHASES)
    clock = time.perf_counter
    for text in texts:
        start = clock()
        f = parse(text)
        parsed = clock()
        desugar(f)
        desugared = clock()
        _Closure(f)
        compiled = clock()
        totals[0] += parsed - start
        totals[1] += desugared - parsed
        totals[2] += compiled - desugared
        del f
    return totals


def main() -> None:
    mix = RandomMix()
    mix.setup(1, None, None)  # the pool in the order the workload sends at --seed 1
    texts = [text for text, _ in mix.pool]
    best = [min(phase) for phase in zip(*(one_pass(texts) for _ in range(RUNS)))]
    print(f"{len(texts)} formulas, best of {RUNS} passes")
    for name, seconds in zip(PHASES, best):
        print(f"{name:<16} {seconds * 1000:>7.2f} ms")
    print(f"{'parse + compile':<16} {(best[0] + best[2]) * 1000:>7.2f} ms")


if __name__ == "__main__":
    main()
