"""Corpus loading, strict row validation, and replay results."""

from __future__ import annotations

import json

import pytest

from doxa import LogicProfile, load_corpus, run_corpus, run_entry
from doxa.corpus import CorpusEntry
from doxa.parser import ParseError


def _row(**overrides) -> dict:
    row = {
        "id": "sample",
        "formula": "p | ~p",
        "profile": "kd",
        "mode": "valid",
        "expected": "valid",
        "source": "propositional tautology",
    }
    row.update(overrides)
    return row


def _write_corpus(tmp_path, rows) -> str:
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return str(path)


class TestLoad:
    def test_bundled_corpus_loads(self):
        entries = load_corpus()
        assert len(entries) == 31
        assert len({e.id for e in entries}) == len(entries)
        assert all(isinstance(e.profile, LogicProfile) for e in entries)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps(_row()) + "\n\n" + json.dumps(_row(id="other")) + "\n",
            encoding="utf-8",
        )
        assert [e.id for e in load_corpus(path)] == ["sample", "other"]

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            ([{k: v for k, v in _row().items() if k != "source"}], "missing keys"),
            ([_row(extra=1)], "unknown keys"),
            ([_row(mode="decide")], "mode must be 'sat' or 'valid'"),
            ([_row(expected="sat")], "expected verdict for mode 'valid'"),
            ([_row(profile="s5")], r"corpus.jsonl:1: unknown profile 's5'"),
            ([_row(), _row()], "duplicate corpus ids"),
            ([_row(formula=5)], r"corpus.jsonl:1: fields \['formula'\] must be strings"),
            ([_row(mode=["sat"])], r"corpus.jsonl:1: fields \['mode'\] must be strings"),
            ([_row(id=5)], r"corpus.jsonl:1: fields \['id'\] must be strings"),
        ],
    )
    def test_strict_validation(self, tmp_path, rows, message):
        path = _write_corpus(tmp_path, rows)
        with pytest.raises(ValueError, match=message):
            load_corpus(path)

    def test_malformed_formula_fails_fast(self, tmp_path):
        path = _write_corpus(tmp_path, [_row(formula="p &")])
        with pytest.raises(ParseError, match=r"corpus.jsonl:1: missing operand \(at 3\.\.3\)"):
            load_corpus(path)

    def test_errors_name_the_line(self, tmp_path):
        path = _write_corpus(tmp_path, [_row(), _row(id="bad", mode="oops")])
        with pytest.raises(ValueError, match=":2"):
            load_corpus(path)

    @pytest.mark.parametrize("line", ["[1]", '"p"', "3", "true", "null"])
    def test_row_that_is_not_an_object_names_the_line(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}:1: corpus row must be a JSON object"

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(_row()) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"corpus.jsonl:2: Expecting"):
            load_corpus(path)

    def test_repeated_key_names_the_line(self, tmp_path):
        # json.loads alone keeps the last "expected", and the row replays
        # against a verdict its author may not have meant
        path = tmp_path / "corpus.jsonl"
        row = json.dumps(_row(mode="sat", expected="sat"))
        path.write_text(row[:-1] + ', "expected": "unsat"}\n', encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_corpus(path)
        assert str(exc.value) == f'{path}:1: repeated key "expected"'

    def test_integer_too_long_to_convert_names_the_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(_row()) + '\n{"id": ' + "9" * 5000 + "}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_corpus(path)
        assert str(exc.value).startswith(f"{path}:2: Exceeds the limit (4300 digits)")

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\xff" + json.dumps(_row()).encode() + b"\n")
        with pytest.raises(ValueError) as exc:
            load_corpus(path)
        assert str(exc.value) == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0:"
            " invalid start byte"
        )

    @pytest.mark.parametrize("name", ["missing.jsonl", "."], ids=["missing", "directory"])
    def test_unreadable_path_is_named(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(ValueError) as exc:
            load_corpus(path)
        assert str(exc.value).startswith(f"cannot read {path}: [Errno ")


class TestRun:
    def test_single_entry(self):
        entry = CorpusEntry(
            id="x",
            formula="p & ~p",
            profile=LogicProfile.KD,
            mode="sat",
            expected="unsat",
            source="propositional contradiction",
        )
        row = run_entry(entry)
        assert row.actual == "unsat"
        assert row.ok

    def test_mismatch_is_reported_not_raised(self):
        entry = CorpusEntry(
            id="x",
            formula="p",
            profile=LogicProfile.KD,
            mode="sat",
            expected="unsat",
            source="deliberately wrong expectation",
        )
        row = run_entry(entry)
        assert row.actual == "sat"
        assert not row.ok

    def test_full_replay_shape(self):
        entries = load_corpus()
        result = run_corpus(entries)
        assert result.passed + result.failed == len(entries)
        data = result.to_json_dict()
        assert set(data) == {"passed", "failed", "rows"}
        assert [r["id"] for r in data["rows"]] == [e.id for e in entries]
        assert all(
            set(r) == {"id", "formula", "profile", "mode", "expected", "actual", "ok"}
            for r in data["rows"]
        )
