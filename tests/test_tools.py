"""The scripts of ``tools/`` load, the query sets of ``tools/digest.py``
are the sets it names (the tier-1 random suite, and the oracle pool of the
benchmark), and ``tools/frontend.py`` runs the private names it imports."""

from __future__ import annotations

import collections
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))


@pytest.fixture
def load(monkeypatch):
    """Load a module from a file, registered under its stem for this test
    only; a tool puts ``src`` and ``bench`` first on the path, and the
    fixture undoes it."""
    monkeypatch.setattr(sys, "path", list(sys.path))

    def _load(path: Path):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, path.stem, module)
        spec.loader.exec_module(module)
        return module

    return _load


@pytest.mark.parametrize("path", TOOLS, ids=[p.stem for p in TOOLS])
def test_every_tool_loads(load, path):
    # digest.py and families.py import names from bench/, so a renamed
    # bench name fails here
    assert callable(load(path).main)


def test_digest_suite_is_the_tier1_suite(random_suite, load):
    # the benchmark's tier-1 text generator, through the parser, gives the
    # suite of tests/conftest.py node for node
    digest = load(ROOT / "tools" / "digest.py")
    assert tuple(digest.suite()) == random_suite


def test_digest_oracle_set_is_the_pool(load):
    digest = load(ROOT / "tools" / "digest.py")
    queries = digest.oracle_pool()
    assert len(queries) == 816
    # 200 one-agent rows under all four profiles, 8 two-agent rows under two
    per_profile = collections.Counter(profile.value for _, profile, _ in queries)
    assert per_profile == {"kd45": 208, "hintikka": 208, "hstar": 200, "kd": 200}
    assert {len(budget.agents) for _, _, budget in queries} == {1, 2}


def test_frontend_pass_times_every_phase(load):
    # the tool calls tableau._Closure, _Engine and _steps, so a rename
    # fails here, not only when the tool runs; pool[12] is refuted under kd
    frontend = load(ROOT / "tools" / "frontend.py")
    mix = frontend.RandomMix()
    mix.setup(1, None, None)
    totals = frontend.one_pass([text for text, _ in mix.pool[:16]])
    assert len(totals) == len(frontend.PHASES) == 4
    assert all(seconds > 0 for seconds in totals)
