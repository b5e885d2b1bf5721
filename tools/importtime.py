"""Median start-up imports of one ``python -m doxa`` command.

    python3 tools/importtime.py decide "B[a] p & ~B[a] B[a] p"

runs ``python -X importtime -m doxa <args>`` ``RUNS`` times (9) against
this checkout's ``src`` and prints, for each module that loads beyond a
bare ``python -c pass``, its median self and cumulative time in
microseconds, in import order and indented as ``-X importtime`` nests
them; two checkouts thus always print medians of the same number of
runs.  Each round runs the bare interpreter, the command on the checkout
as it is, and the command on a byte-compiled temporary copy of
``src/doxa``, so that all three meet the same host speed.

It then prints doxa's share: the summed median self time of those modules,
and the part of it spent in ``doxa`` and its submodules.  Where the
checkout has no up-to-date ``__pycache__`` (or the environment sets
``PYTHONDONTWRITEBYTECODE``), the as-is share includes compiling doxa's
sources; the byte-compiled copy's does not.  Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"

#: One line of ``-X importtime``: self and cumulative microseconds, then the
#: module name, indented two spaces per level of nesting.
_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")

#: The rounds of runs, of which each module's median times are printed.
RUNS = 9


def imports(argv: list[str], path: Path | None) -> dict[str, tuple[int, int, int]]:
    """(depth, self µs, cumulative µs) of each module that ``python -X
    importtime <argv>`` loads, in import order, with ``path`` first on
    ``PYTHONPATH``."""
    env = dict(os.environ)
    if path is not None:
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(path), env.get("PYTHONPATH", "")) if p
        )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{argv} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    found = {}
    for match in map(_LINE.match, proc.stderr.splitlines()):
        if match:
            own, cumulative, indent, name = match.groups()
            found[name] = (len(indent) // 2, int(own), int(cumulative))
    return found


def medians(runs: list[dict], bare: set[str]) -> dict[str, tuple[int, float, float]]:
    """(depth, median self µs, median cumulative µs) of each module of the
    first run that is not in ``bare`` and loads in every run."""
    return {
        name: (
            depth,
            statistics.median(run[name][1] for run in runs),
            statistics.median(run[name][2] for run in runs),
        )
        for name, (depth, _, _) in runs[0].items()
        if name not in bare and all(name in run for run in runs)
    }


def share(table: dict[str, tuple[int, float, float]]) -> str:
    total = sum(own for _, own, _ in table.values())
    doxa = sum(own for name, (_, own, _) in table.items() if name.split(".")[0] == "doxa")
    return f"{total / 1000:.1f} ms, of which doxa's own modules {doxa / 1000:.1f} ms"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("args", nargs=argparse.REMAINDER, help="arguments of python -m doxa")
    options = parser.parse_args()
    if not options.args:
        parser.error("need a doxa subcommand")
    argv = ["-m", "doxa", *options.args]
    bare: set[str] = set()
    as_is, compiled = [], []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(
            SOURCE / "doxa", copy / "doxa", ignore=shutil.ignore_patterns("__pycache__")
        )
        if not compileall.compile_dir(copy / "doxa", quiet=1):
            raise SystemExit("byte-compiling the copy of src/doxa failed")
        for _ in range(RUNS):
            bare |= imports(["-c", "pass"], None).keys()
            as_is.append(imports(argv, SOURCE))
            compiled.append(imports(argv, copy))
    table = medians(as_is, bare)
    print(f"{'module':<40} {'self_us':>9} {'cum_us':>9}")
    for name, (depth, own, cumulative) in table.items():
        print(f"{'  ' * depth + name:<40} {own:>9.0f} {cumulative:>9.0f}")
    print(f"doxa's share as is: {share(table)}")
    print(f"doxa's share byte-compiled: {share(medians(compiled, bare))}")


if __name__ == "__main__":
    main()
