"""What a ``doxa`` process loads at start-up.

``import doxa`` loads each submodule on the first use of one of its names
(PEP 562), and a subcommand imports only the modules it runs.  The value
classes on the decide path are ``NamedTuple``s or ``Record``s, so that no
decide process pays for ``dataclasses``.
"""

from __future__ import annotations

import copy
import functools
import importlib
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import public_name_words

import doxa
from doxa import (
    Agent,
    EnumerationBudget,
    LabeledModelSystem,
    LogicProfile,
    ModelSystem,
    TableauStats,
    decide_sat,
    decide_valid,
    model_to_json_dict,
    parse,
)
from doxa.cli import main

GAP = "B[a] p & ~B[a] B[a] p"


def _imports(*argv: str) -> set[str]:
    """The modules that ``python -X importtime <argv>`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
    )
    assert proc.returncode in (0, 1), proc.stderr
    return set(re.findall(r"^import time:.*\| *(\S+)$", proc.stderr, re.M))


@functools.cache
def _bare() -> set[str]:
    return _imports("-c", "pass")


def _loaded(*argv: str) -> set[str]:
    """The modules that ``python <argv>`` imports beyond those a bare
    ``python -c pass`` does."""
    return _imports(*argv) - _bare()


class TestStartup:
    def test_import_doxa_loads_no_submodule(self):
        loaded = _loaded("-c", "import doxa")
        assert "doxa" in loaded
        assert {m for m in loaded if m.startswith("doxa.")} == set()

    @pytest.mark.parametrize(
        "argv, unloaded",
        [
            (["decide", GAP], {"doxa.oracle", "doxa.corpus", "numpy", "dataclasses", "json"}),
            (["compare", GAP], {"doxa.oracle", "doxa.corpus", "numpy", "dataclasses", "json"}),
            (["corpus"], {"doxa.oracle", "numpy", "dataclasses"}),
            (["oracle", "p"], {"doxa.corpus", "dataclasses"}),
        ],
        ids=["decide", "compare", "corpus", "oracle"],
    )
    def test_a_command_loads_only_what_it_runs(self, argv, unloaded):
        loaded = _loaded("-m", "doxa", *argv)
        assert {"doxa.cli", "doxa.tableau"} <= loaded
        assert not loaded & unloaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "B[a](p & ~B[a] p)"],
            ["oracle", "B[a] p & ~B[a] B[a] p", "--profile", "hintikka", "--max-worlds", "3"],
            ["corpus"],
            ["check-model", "MODEL", "--profile", "hintikka", "--formula", GAP],
        ],
        ids=["oracle-found", "oracle-not-found", "corpus", "check-model"],
    )
    def test_a_process_answers_as_main_does(self, argv, capsys, tmp_path):
        # each command runs its deferred imports once, in a fresh process
        if "MODEL" in argv:
            model = decide_sat(parse(GAP), LogicProfile.HSTAR).model
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model_to_json_dict(model)), "utf-8")
            argv[argv.index("MODEL")] = str(path)
        argv = [*argv, "--output", "json"]
        proc = subprocess.run(
            [sys.executable, "-m", "doxa", *argv], capture_output=True, text=True
        )
        code = main(argv)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)
        assert proc.stdout.startswith("{")


class TestLazyPackage:
    def test_every_public_name_has_a_module(self):
        assert set(doxa.__all__) == set(doxa._MODULE_OF) | {"__version__"}
        # a name listed under two modules would resolve to the later one
        words = public_name_words()
        assert len(words) == len(set(words)) == len(doxa._MODULE_OF)

    @pytest.mark.parametrize("name", sorted(doxa._MODULE_OF))
    def test_a_name_is_its_module_attribute(self, name):
        module = importlib.import_module(f"doxa.{doxa._MODULE_OF[name]}")
        assert getattr(doxa, name) is getattr(module, name)

    def test_star_import_and_dir(self):
        namespace: dict = {}
        exec("from doxa import *", namespace)
        assert set(doxa.__all__) <= namespace.keys()
        assert set(doxa.__all__) <= set(dir(doxa))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'doxa' has no attribute 'nothing'"):
            doxa.nothing  # noqa: B018
        with pytest.raises(ImportError):
            from doxa import nothing  # noqa: F401

    def test_version_matches_pyproject(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
        (version,) = re.findall(r'^version = "([^"]+)"$', text, re.M)
        assert doxa.__version__ == version


class TestRecords:
    """The replacements of the frozen dataclasses keep their contracts."""

    def _records(self):
        verdict = decide_sat(parse(GAP), LogicProfile.HSTAR)
        model = verdict.model
        return [
            Agent("a"),
            model,
            LabeledModelSystem(model, {0: (parse("p"),)}),
            EnumerationBudget(max_worlds=2, atoms=["p"], agents=("a",)),
            verdict,
            decide_sat(parse("p & ~p"), LogicProfile.KD),
            decide_valid(parse("B[a] p -> B[a] B[a] p"), LogicProfile.HINTIKKA),
        ]

    def test_frozen(self):
        for record in self._records():
            name = type(record).__slots__[0]
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_equal_copies(self):
        for record in self._records():
            twins = copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))
            for twin in twins:
                assert twin == record and twin is not record
            assert record != tuple(getattr(record, name) for name in type(record).__slots__)

    def test_hashing(self):
        # an agent hashes as a frozen dataclass did, so sets of agents keep
        # their iteration order
        assert hash(Agent("a")) == hash(Agent("a")) == hash(("a",))
        assert len({Agent("a"), Agent("a"), Agent("b")}) == 2
        budget = EnumerationBudget(max_worlds=2, atoms=("p",), agents=())
        assert {budget: 1}[EnumerationBudget(2, ["p"], [])] == 1
        with pytest.raises(TypeError):
            hash(ModelSystem(1, 0))  # its fields are dicts

    def test_repr_names_every_field(self):
        assert repr(Agent("a")) == "Agent(name='a')"
        assert repr(ModelSystem(1, 0, {0: ["p"]})) == (
            "ModelSystem(worlds=1, designated=0, valuation={0: frozenset({'p'})}, rows={})"
        )

    def test_stats_are_counters(self):
        stats = TableauStats()
        stats.rules_fired += 2
        assert repr(stats) == (
            "TableauStats(worlds_created=0, rules_fired=2, blocks_applied=0,"
            " choice_points=0, skipped=0)"
        )
        assert stats == TableauStats(rules_fired=2) != TableauStats()
        with pytest.raises(TypeError):
            hash(stats)
