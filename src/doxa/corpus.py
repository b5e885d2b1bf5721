"""Regression corpus: formulas with pinned verdicts per profile.

Each line of the corpus file is one JSON object naming a formula, a
profile, the decision mode (``sat`` or ``valid``) and the expected verdict,
plus a short source note for the reader.  ``run_corpus`` replays every
row through the decision procedure and reports each mismatch; the JSON form
of a run is stable, so two runs over the same corpus are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .models import LogicProfile, _read_text, _unique_keys
from .parser import ParseError, parse
from .tableau import decide

_MODES = {"sat": ("sat", "unsat"), "valid": ("valid", "invalid")}


class CorpusEntry(NamedTuple):
    id: str
    formula: str
    profile: LogicProfile
    mode: str
    expected: str
    source: str


_REQUIRED_KEYS = set(CorpusEntry._fields)


class CorpusRow(NamedTuple):
    """One replayed corpus entry and what the engine actually said."""

    entry: CorpusEntry
    actual: str

    @property
    def ok(self) -> bool:
        return self.actual == self.entry.expected


class CorpusResult(NamedTuple):
    rows: tuple[CorpusRow, ...]

    @property
    def passed(self) -> int:
        return sum(1 for row in self.rows if row.ok)

    @property
    def failed(self) -> int:
        return sum(1 for row in self.rows if not row.ok)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failed": self.failed,
            "rows": [
                {
                    "id": row.entry.id,
                    "formula": row.entry.formula,
                    "profile": row.entry.profile.value,
                    "mode": row.entry.mode,
                    "expected": row.entry.expected,
                    "actual": row.actual,
                    "ok": row.ok,
                }
                for row in self.rows
            ],
        }


def _entry_from_dict(raw: dict, where: str) -> CorpusEntry:
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: corpus row must be a JSON object")
    missing = _REQUIRED_KEYS - raw.keys()
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")
    unknown = raw.keys() - _REQUIRED_KEYS
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    not_strings = sorted(k for k in _REQUIRED_KEYS if not isinstance(raw[k], str))
    if not_strings:
        raise ValueError(f"{where}: fields {not_strings} must be strings")
    mode = raw["mode"]
    if mode not in _MODES:
        raise ValueError(f"{where}: mode must be 'sat' or 'valid', got {mode!r}")
    if raw["expected"] not in _MODES[mode]:
        raise ValueError(
            f"{where}: expected verdict for mode {mode!r} must be one of {_MODES[mode]}"
        )
    try:
        parse(raw["formula"])  # fail fast on malformed rows
    except ParseError as err:
        raise ParseError(f"{where}: {err.message}", err.span) from None
    try:
        profile = LogicProfile.from_name(raw["profile"])
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
    return CorpusEntry(
        id=raw["id"],
        formula=raw["formula"],
        profile=profile,
        mode=mode,
        expected=raw["expected"],
        source=raw["source"],
    )


def load_corpus(path: str | Path | None = None) -> tuple[CorpusEntry, ...]:
    """Load corpus entries from ``path``, or the bundled corpus by default.
    A file that cannot be read or is not UTF-8 raises ``ValueError`` naming
    the file, and a row that is not valid JSON, repeats a key or breaks the
    row schema one naming its file and line."""
    if path is None:
        path, origin = Path(__file__).with_name("data") / "corpus.jsonl", "bundled corpus"
    else:
        origin = str(path)
    text = _read_text(path)
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{origin}:{lineno}"
        try:
            raw = json.loads(line, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{where}: JSON nested too deeply") from None
        except ValueError as err:
            # a decode error, a repeated key or an integer too long to convert
            raise ValueError(f"{where}: {err}") from None
        entries.append(_entry_from_dict(raw, where))
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{origin}: duplicate corpus ids")
    return tuple(entries)


def run_entry(entry: CorpusEntry) -> CorpusRow:
    verdict = decide(parse(entry.formula), entry.profile, entry.mode)
    return CorpusRow(entry=entry, actual=verdict.word)


def run_corpus(entries: tuple[CorpusEntry, ...] | None = None) -> CorpusResult:
    if entries is None:
        entries = load_corpus()
    return CorpusResult(rows=tuple(run_entry(e) for e in entries))
