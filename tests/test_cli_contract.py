"""The exit contract of ``doxa.cli.main`` over generated inputs.

Every invocation exits 0, 1 or 2 without an exception.  Exits 0 and 1 write
nothing to stderr; exit 2 writes nothing to stdout and, on stderr, either
one ``error:`` line or the three-line caret report of a formula that does
not parse.  kd45 is left out of every engine call, and the oracle's budget
stays at two worlds, so that each example takes milliseconds.

Formula text follows ``--`` or ``--formula=``, as a script passes text that
may begin with ``-``; without them argparse reads such text as an option
and reports its own usage error, which ``test_cli`` pins.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from conftest import formulas_st
from hypothesis import given, settings, strategies as st

from doxa import render
from doxa.cli import main

#: Tokens of the concrete syntax, near misses of them, whitespace that is
#: not a space, and characters the parser refuses.
TOKENS = [
    "p", "q", "a", "b", "r0", "B", "C", "[", "]", "(", ")", "~", "&", "|",
    "->", "<->", "-", "<", ">", " ", "\t", "\n", "P", "é", "1",
]

formula_texts = formulas_st.map(render)
texts = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=12).map("".join), formula_texts)
outputs = st.sampled_from(["text", "json"])
engine_profiles = st.sampled_from(["kd", "hstar", "hintikka"])

#: A few files of each shape: JSON that does not parse, that nests past the
#: recursion limit, that repeats a key, that holds an integer too long to
#: convert, and bytes that are not UTF-8.
BAD_FILES = [
    b"{", b"", b"[" * 100_000, b'{"worlds": 1, "worlds": 2}', b'{"worlds": ' + b"9" * 5000 + b"}",
    b"\xff", b"null", b"[]",
]

#: Well-formed models of up to three worlds, with labels now and then.
sound_models = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "worlds": st.just(n),
            "valuation": st.dictionaries(
                st.sampled_from([str(w) for w in range(n)]),
                st.lists(st.sampled_from(["p", "q"]), max_size=2, unique=True),
            ),
            "alternatives": st.dictionaries(
                st.sampled_from(["a", "b"]),
                st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=n * n),
            ),
        },
        optional={
            "designated": st.integers(0, n - 1),
            "labels": st.dictionaries(
                st.sampled_from([str(w) for w in range(n)]),
                st.lists(formula_texts, max_size=2),
                max_size=n,
            ),
        },
    )
)

#: Objects with any subset of the model keys, each value of the right type
#: or not.
loose_models = st.fixed_dictionaries(
    {},
    optional={
        "worlds": st.one_of(st.integers(-1, 3), st.just(5000), st.just("2"), st.booleans()),
        "designated": st.one_of(st.integers(-1, 3), st.none()),
        "valuation": st.one_of(
            st.dictionaries(
                st.sampled_from(["0", "1", "01", "x"]),
                st.one_of(st.lists(st.sampled_from(["p", "q", "P Q", ""]), max_size=2),
                          st.integers()),
                max_size=2,
            ),
            st.lists(st.integers(), max_size=1),
        ),
        "alternatives": st.dictionaries(
            st.sampled_from(["a", "b", "A B"]),
            st.one_of(
                st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=4),
                st.just({}),
            ),
            max_size=2,
        ),
        "labels": st.dictionaries(
            st.sampled_from(["0", "1", "9"]), st.lists(texts, max_size=2), max_size=2
        ),
        "bogus": st.just(1),
    },
)

sound_rows = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["r1", "r2", "r3", "r4", "r5", "r6"]),
        "formula": formula_texts,
        "profile": engine_profiles,
        "source": st.just("generated"),
    }
).flatmap(
    lambda row: st.sampled_from(
        [("sat", "sat"), ("sat", "unsat"), ("valid", "valid"), ("valid", "invalid")]
    ).map(lambda pair: {**row, "mode": pair[0], "expected": pair[1]})
)
loose_rows = st.fixed_dictionaries(
    {},
    optional={
        "id": st.one_of(st.sampled_from(["x", "y"]), st.integers()),
        "formula": st.one_of(texts, st.integers()),
        "profile": st.sampled_from(["kd", "hstar", "hintikka", "s5"]),
        "mode": st.sampled_from(["sat", "valid", "decide"]),
        "expected": st.sampled_from(["sat", "unsat", "valid", "invalid"]),
        "source": st.just("generated"),
        "extra": st.just(1),
    },
)
corpus_lines = st.lists(
    st.one_of(
        sound_rows.map(json.dumps),
        loose_rows.map(json.dumps),
        st.sampled_from([b.decode("latin-1") for b in BAD_FILES]),
    ),
    max_size=3,
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv: list[str]) -> None:
    code, out, err = _run(argv)
    assert code in (0, 1, 2), code
    if code != 2:
        assert err == ""
        return
    assert out == ""
    lines = err.split("\n")
    if err.startswith("error: "):
        assert lines[1:] == [""], err
    else:
        # the message, the input shown, the carets under the span
        assert len(lines) == 4 and lines[3] == "", err
        assert lines[1].startswith("  ") and lines[2].strip(" ^") == "", err


@given(texts, st.sampled_from(["sat", "valid"]), engine_profiles, outputs)
@settings(max_examples=100, deadline=None)
def test_decide(text, mode, profile, output):
    _assert_contract(["decide", "--mode", mode, "--profile", profile, "--output", output, "--", text])


@given(
    texts,
    st.one_of(
        st.permutations(["kd", "hstar", "hintikka"]),
        st.lists(st.sampled_from(["kd", "hstar", "s5", ""]), min_size=1, max_size=3),
    ),
    outputs,
)
@settings(max_examples=60, deadline=None)
def test_compare(text, profiles, output):
    _assert_contract(["compare", "--profiles", ",".join(profiles), "--output", output, "--", text])


@given(texts, st.sampled_from(["0", "1", "2", "6"]), engine_profiles, outputs)
@settings(max_examples=100, deadline=None)
def test_oracle(text, max_worlds, profile, output):
    _assert_contract(
        ["oracle", "--max-worlds", max_worlds, "--profile", profile, "--output", output, "--", text]
    )


@given(
    st.one_of(
        sound_models.map(lambda m: json.dumps(m).encode()),
        loose_models.map(lambda m: json.dumps(m).encode()),
        st.sampled_from(BAD_FILES),
    ),
    st.one_of(st.none(), texts),
    st.sampled_from(["kd", "hstar", "hintikka", "kd45"]),
    outputs,
)
@settings(max_examples=100, deadline=None)
def test_check_model(content, formula, profile, output):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "model.json"
        path.write_bytes(content)
        argv = ["check-model", str(path), "--profile", profile, "--output", output]
        _assert_contract(argv + ([] if formula is None else [f"--formula={formula}"]))


@given(corpus_lines, outputs)
@settings(max_examples=60, deadline=None)
def test_corpus(lines, output):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "corpus.jsonl"
        path.write_bytes("\n".join(lines).encode("latin-1", "replace"))
        _assert_contract(["corpus", str(path), "--output", output])


def test_missing_and_unreadable_paths():
    with tempfile.TemporaryDirectory() as folder:
        for argv in (["check-model", folder], ["check-model", f"{folder}/none.json"],
                     ["corpus", folder], ["corpus", f"{folder}/none.jsonl"]):
            _assert_contract(argv)
