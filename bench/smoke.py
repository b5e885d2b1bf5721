"""Smoke run of the benchmark: every named metric is emitted with its unit.

Run from the root of a checkout:

    python3 bench/smoke.py

Each workload runs once untraced and once traced with a short timed phase
(hard-families still runs one whole pass, about 25 s).  The last output
line must carry exactly the metrics BENCHMARK.json names, each a finite
number with the declared unit, and the traced report must carry the
workload's own layer metrics.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Layer metrics that only one workload has, so they live in its report file.
WORKLOAD_LAYERS = {
    "random-mix": (),
    "hard-families": (
        "tableau.case.kd45-compat-4.ms",
        "tableau.case.kd45-compat-4.rules_fired",
        "tableau.case.kd45-compat-4.worlds_created",
    ),
    "oracle-sweep": (
        "oracle.warmup_s",
        "oracle.hits",
        "oracle.misses",
        "oracle.hit_s",
        "oracle.miss_s",
        "oracle.multiagent_s",
    ),
    "cli-process": (
        "cli.decide_ms",
        "cli.compare_ms",
        "cli.corpus_ms",
        "cli.oracle_ms",
        "cli.interpreter_ms",
        "cli.import_ms",
        "corpus.run_s",
    ),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAIL {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOAD_LAYERS),
          "BENCHMARK.json workloads differ from the ones this smoke run knows")
    seed, seconds = 1, 0.5
    for workload in WORKLOAD_LAYERS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            where = f"{workload} trace {trace}"
            check(out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{where}: wrong answers")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(m["name"] for m in declared),
                  f"{where}: metric names {sorted(metrics)}")
            for m in declared:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}")
                check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                      f"{where}: {m['name']} value {got['value']!r}")
            if trace:
                report = json.loads((HERE / "out" / (
                    f"{workload}-seed{seed}-s{seconds:g}-trace1.json")).read_text())
                for name in WORKLOAD_LAYERS[workload]:
                    check(name in report["extras"], f"{where}: report lacks {name}")
                check("tracing_overhead" in report, f"{where}: no tracing overhead")
            print(f"smoke: ok {where}: {len(declared)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
