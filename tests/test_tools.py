"""The query sets of ``tools/digest.py`` are the sets it names: the tier-1
random suite, and the random-mix pool, hard rows and oracle pool of the
benchmark."""

from __future__ import annotations

import collections
import importlib.util
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(monkeypatch, name: str, path: Path):
    """The module at ``path``, registered as ``name`` for this test only."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_digest_sets_are_the_ones_it_names(random_suite, monkeypatch):
    # the tool puts ``src`` and ``bench`` first on the path; the test undoes it
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = _load(monkeypatch, "digest", ROOT / "tools" / "digest.py")
    workloads = _load(monkeypatch, "workloads", ROOT / "bench" / "workloads.py")
    assert tuple(digest.suite()) == random_suite
    assert digest.hard_rows() == [(row.text, row.profile.value) for row in workloads.HARD_ROWS]
    mix = workloads.RandomMix()
    mix.setup(7, None, None)
    pool = digest.random_mix()
    random.Random(7).shuffle(pool)
    assert pool == mix.pool


def test_digest_oracle_set_is_the_pool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = _load(monkeypatch, "digest", ROOT / "tools" / "digest.py")
    queries = digest.oracle_pool()
    assert len(queries) == 816
    # 200 one-agent rows under all four profiles, 8 two-agent rows under two
    per_profile = collections.Counter(profile.value for _, profile, _ in queries)
    assert per_profile == {"kd45": 208, "hintikka": 208, "hstar": 200, "kd": 200}
    assert {len(budget.agents) for _, _, budget in queries} == {1, 2}
