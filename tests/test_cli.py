"""Command-line interface: exit codes, text output, JSON payloads."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from doxa import LogicProfile, decide_sat, model_to_json_dict, parse
from doxa.cli import main
from doxa.tableau import InternalVerificationError


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("DOXA_COLOR", "0")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_sat_text(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "p & ~B[a] p")
        assert code == 0
        assert out.startswith("SAT  p & ~B[a] p  [hstar]")
        assert "worlds:" in out

    def test_unsat_text_shows_trace(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "B[a](p & ~B[a] p)")
        assert code == 1
        assert out.startswith("UNSAT")
        assert "By (seed)" in out
        assert "(C.~-clash)" in out

    def test_valid_mode(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "p | ~p", "--mode", "valid")
        assert code == 0
        assert out.startswith("VALID")

    def test_invalid_mode_shows_countermodel(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "p -> B[a] p", "--mode", "valid", "--profile", "hintikka"
        )
        assert code == 1
        assert out.startswith("INVALID")
        assert "alternatives[a]:" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "p & ~p", "--output", "json")
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "unsat"
        assert data["steps"][-1]["rule"] == "C.~-clash"

    def test_profile_selection_changes_verdict(self, capsys):
        gap = "B[a] p & ~B[a] B[a] p"
        assert run_cli(capsys, "decide", gap, "--profile", "hstar")[0] == 0
        assert run_cli(capsys, "decide", gap, "--profile", "hintikka")[0] == 1

    def test_parse_error_prints_caret(self, capsys):
        code, _, err = run_cli(capsys, "decide", "p &")
        assert code == 2
        assert "missing operand" in err
        assert "^" in err

    def test_unknown_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "p", "--profile", "s5"])
        assert exc.value.code == 2

    def test_no_ansi_codes_when_disabled(self, capsys, monkeypatch):
        # DOXA_COLOR=0, set for every test here, wins even on a terminal
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        _, out, _ = run_cli(capsys, "decide", "p")
        assert "\x1b[" not in out

    @pytest.mark.parametrize(
        "text, colored",
        [
            ("p", "\x1b[32mSAT\x1b[0m  p  [hstar]"),
            ("p & ~p", "\x1b[31mUNSAT\x1b[0m  p & ~p  [hstar]"),
        ],
        ids=["sat-green", "unsat-red"],
    )
    def test_verdict_word_is_colored_on_a_terminal(self, capsys, monkeypatch, text, colored):
        monkeypatch.delenv("DOXA_COLOR")
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        _, out, _ = run_cli(capsys, "decide", text)
        assert out.startswith(colored + "\n")

    def test_deeply_nested_negations_print_their_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "~" * 500 + "p")
        assert code == 0
        assert out.startswith("SAT  " + "~" * 500 + "p  [hstar]")

    def test_wide_conjunction_prints_its_verdict(self, capsys):
        text = " & ".join(f"p{i}" for i in range(500))
        code, out, _ = run_cli(capsys, "decide", text)
        assert code == 0
        assert out.startswith(f"SAT  {text}  [hstar]")

    def test_wide_refutation_prints_its_steps(self, capsys):
        text = " & ".join(f"p{i}" for i in range(499)) + " & ~p0"
        code, out, _ = run_cli(capsys, "decide", text, "--output", "json")
        assert code == 1
        steps = json.loads(out)["steps"]
        assert steps[0]["formula"] == text
        assert steps[-1] == {
            "i": 999, "world": "w0", "formula": "p0", "rule": "C.~-clash", "from": [3, 998]
        }

    def test_recursion_limit_is_not_a_verdict(self, capsys, monkeypatch):
        def fail(f, profile, mode):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("doxa.cli.decide", fail)
        code, out, err = run_cli(capsys, "decide", "p")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "~" * 5000 + "p",
            " & ".join(f"p{i}" for i in range(1000)),
            "(" * 5000 + "p" + ")" * 5000,
            " -> ".join(["p"] * 3000),
            "~(q & " * 2000 + "p" + ")" * 2000,
        ],
        ids=["5000-negations", "1000-conjuncts", "5000-parentheses", "3000-arrows",
             "2000-nested-conjunctions"],
    )
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_deep_input_decides(self, capsys, text, output):
        code, out, err = run_cli(capsys, "decide", text, "--output", output)
        assert (code, err) == (0, "")
        if output == "json":
            assert json.loads(out)["verdict"] == "sat"
        else:
            assert out.startswith("SAT  ")

    def test_internal_engine_error_is_not_a_verdict(self, capsys, monkeypatch):
        def fail(f, profile, mode):
            raise InternalVerificationError("world count exceeded the closure bound 64")

        monkeypatch.setattr("doxa.cli.decide", fail)
        code, out, err = run_cli(capsys, "decide", "p")
        assert code == 2
        assert out == ""
        assert err == "error: internal engine error: world count exceeded the closure bound 64\n"


class TestCheckModel:
    @staticmethod
    def _write(tmp_path, data) -> str:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def test_clean_model_with_formula(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {
                "worlds": 1,
                "designated": 0,
                "valuation": {"0": ["p"]},
                "alternatives": {"a": [[0, 0]]},
            },
        )
        code, out, _ = run_cli(
            capsys, "check-model", path, "--profile", "kd", "--formula", "B[a] p"
        )
        assert code == 0
        assert "ok: model satisfies the kd frame conditions" in out
        assert out.rstrip().endswith("true")

    def test_false_formula_still_exits_zero(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {"worlds": 1, "designated": 0, "alternatives": {"a": [[0, 0]]}},
        )
        code, out, _ = run_cli(
            capsys, "check-model", path, "--profile", "kd", "--formula", "p"
        )
        assert code == 0
        assert out.rstrip().endswith("false")

    def test_formula_agent_missing_from_file_is_checked(self, capsys, tmp_path):
        path = self._write(tmp_path, {"worlds": 1, "alternatives": {}})
        code, out, _ = run_cli(
            capsys, "check-model", path, "--profile", "kd", "--formula", "B[a](p & ~p)"
        )
        assert code == 1
        assert "violation: serial at w0 world 0 has no a-alternative" in out

    def test_deep_formula_on_a_complete_model(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {
                "worlds": 8,
                "valuation": {str(w): ["p"] for w in range(8)},
                "alternatives": {"a": [[u, v] for u in range(8) for v in range(8)]},
            },
        )
        code, out, _ = run_cli(
            capsys, "check-model", path, "--profile", "kd45", "--formula", "B[a] " * 12 + "p"
        )
        assert code == 0
        assert out.rstrip().endswith("true")

    def test_serial_violation(self, capsys, tmp_path):
        path = self._write(tmp_path, {"worlds": 1, "alternatives": {"a": []}})
        code, out, _ = run_cli(capsys, "check-model", path, "--profile", "kd")
        assert code == 1
        assert "violation: serial at w0" in out

    def test_engine_model_fails_stricter_profile(self, capsys, tmp_path):
        verdict = decide_sat(parse("B[a] p & ~B[a] B[a] p"), LogicProfile.HSTAR)
        path = self._write(tmp_path, model_to_json_dict(verdict.model))
        assert run_cli(capsys, "check-model", path, "--profile", "hstar")[0] == 0
        code, out, _ = run_cli(capsys, "check-model", path, "--profile", "hintikka")
        assert code == 1
        assert "violation: transitive" in out

    def test_labeled_model_checks_closure(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {
                "worlds": 1,
                "alternatives": {"a": [[0, 0]]},
                "labels": {"0": ["B[a] p"]},
            },
        )
        code, out, _ = run_cli(capsys, "check-model", path, "--profile", "kd")
        assert code == 1
        assert "violation: C.B" in out

    def test_clean_labeled_model(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {
                "worlds": 1,
                "valuation": {"0": ["p"]},
                "alternatives": {"a": [[0, 0]]},
                "labels": {"0": ["B[a] p", "p"]},
            },
        )
        code, out, _ = run_cli(capsys, "check-model", path, "--profile", "hstar")
        assert code == 0
        assert "ok:" in out

    def test_json_report(self, capsys, tmp_path):
        path = self._write(tmp_path, {"worlds": 2, "alternatives": {"a": [[0, 1]]}})
        code, out, _ = run_cli(
            capsys, "check-model", path, "--profile", "kd", "--output", "json"
        )
        assert code == 1
        data = json.loads(out)
        assert data["formula_value"] is None
        assert data["violations"] == [
            {
                "kind": "serial",
                "worlds": [1],
                "formula": None,
                "message": "world 1 has no a-alternative",
            }
        ]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run_cli(capsys, "check-model", str(path))
        assert code == 2
        assert "malformed JSON" in err
        assert "line 1" in err

    def test_deeply_nested_json_is_malformed(self, capsys, tmp_path):
        # json.loads raises RecursionError, not JSONDecodeError, on this
        path = tmp_path / "model.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        code, out, err = run_cli(capsys, "check-model", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: malformed JSON in {path}: nested too deeply\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check-model", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err

    def test_file_that_is_not_utf8_cannot_be_read(self, capsys, tmp_path):
        # a decode error is about the file, not about the model it holds
        path = tmp_path / "model.json"
        path.write_bytes(b'{"worlds": 1, "valuation": {"0": ["\xff"]}}')
        code, out, err = run_cli(capsys, "check-model", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in"
            " position 35: invalid start byte\n"
        )

    def test_repeated_key_is_invalid(self, capsys, tmp_path):
        # json.loads alone keeps the last "1" and the formula reads false
        path = tmp_path / "model.json"
        path.write_text(
            '{"worlds": 2, "valuation": {"1": ["p"], "1": ["q"]},'
            ' "alternatives": {"a": [[0,1],[1,1]]}}',
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "check-model", str(path), "--profile", "kd", "--formula", "B[a] p"
        )
        assert (code, out) == (2, "")
        assert err == f'error: invalid model in {path}: repeated key "1"\n'

    def test_huge_world_count_is_invalid(self, capsys, tmp_path):
        # rejected before any per-world structure is built
        path = self._write(tmp_path, {"worlds": 1_000_000_000})
        code, out, err = run_cli(capsys, "check-model", path, "--profile", "kd")
        assert (code, out) == (2, "")
        assert err == f"error: invalid model in {path}: 'worlds' is above the limit of 4096\n"

    @pytest.mark.parametrize(
        ("alternatives", "valuation", "message"),
        [
            ({"A B": [[0, 1]]}, {"0": ["p"]}, "invalid agent name 'A B'"),
            ({"a": [[0, 1]]}, {"0": ["P Q"]}, "invalid atom name 'P Q'"),
            ({"": [[0, 1]]}, {}, "invalid agent name ''"),
            ({"a": [[0, 1]]}, {"1": [""]}, "invalid atom name ''"),
        ],
    )
    def test_name_no_formula_can_write_is_invalid(
        self, capsys, tmp_path, alternatives, valuation, message
    ):
        # no formula can name such an agent or atom, so a frame check of it
        # (exit 1 for a serial violation of "A B") would answer nothing
        path = self._write(
            tmp_path, {"worlds": 2, "alternatives": alternatives, "valuation": valuation}
        )
        code, out, err = run_cli(capsys, "check-model", path, "--profile", "kd")
        assert (code, out) == (2, "")
        assert err == f"error: invalid model in {path}: {message}\n"

    def test_invalid_model_data(self, capsys, tmp_path):
        path = self._write(tmp_path, {"worlds": "2"})
        code, _, err = run_cli(capsys, "check-model", path)
        assert code == 2
        assert "invalid model" in err


class TestCorpus:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = run_cli(capsys, "corpus")
        assert code == 0
        assert "passed: 31  failed: 0" in out

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] == 31 and data["failed"] == 0
        assert len(data["rows"]) == 31

    def test_failing_corpus(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = {
            "id": "wrong",
            "formula": "p",
            "profile": "kd",
            "mode": "sat",
            "expected": "unsat",
            "source": "deliberately wrong expectation",
        }
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "corpus", str(path))
        assert code == 1
        assert "FAIL" in out and "expected unsat, got sat" in out

    def test_non_string_field_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = {
            "id": "typed",
            "formula": 5,
            "profile": "kd",
            "mode": "sat",
            "expected": "sat",
            "source": "a formula that is not a string",
        }
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "corpus", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}:1: fields ['formula'] must be strings\n"

    @pytest.mark.parametrize("line", ["[1]", '"p"', "3", "true", "null"])
    def test_row_that_is_not_an_object_is_a_usage_error(self, capsys, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "corpus", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:1: corpus row must be a JSON object\n"

    def test_empty_corpus(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "corpus", str(path))
        assert (code, out, err) == (0, "passed: 0  failed: 0\n", "")

    def test_deeply_nested_json_line(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n" + "[" * 200_000 + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "corpus", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:2: JSON nested too deeply\n"

    def test_unreadable_corpus(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "corpus", str(tmp_path / "missing.jsonl"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("name", ["missing.jsonl", "."], ids=["missing", "directory"])
    def test_unreadable_corpus_is_named(self, capsys, tmp_path, name):
        path = tmp_path / name
        code, out, err = run_cli(capsys, "corpus", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: [Errno ")

    def test_corpus_that_is_not_utf8_is_named(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\xff\n")
        code, out, err = run_cli(capsys, "corpus", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in"
            " position 0: invalid start byte\n"
        )


class TestCompare:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "p & ~p")
        assert code == 0
        assert "all profiles agree" in out

    def test_disagreement_names_profiles(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "B[a] p & ~B[a] B[a] p")
        assert code == 0
        assert "profiles disagree: sat in hstar, kd; unsat in hintikka, kd45" in out

    def test_profile_subset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "B[a] p & ~B[a] B[a] p",
            "--profiles",
            "hstar,hintikka",
            "--output",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdicts"] == {"hstar": "sat", "hintikka": "unsat"}
        assert data["agree"] is False

    def test_wide_conjunction(self, capsys):
        text = " | ".join(f"p{i}" for i in range(500))
        code, out, _ = run_cli(capsys, "compare", text)
        assert code == 0
        assert out.startswith(f"formula: {text}\n")

    def test_json_agreement_flag(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "p", "--output", "json")
        assert json.loads(out)["agree"] is True

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_repeated_profile_is_a_usage_error(self, capsys, output):
        code, out, err = run_cli(
            capsys, "compare", "p", "--profiles", "kd,hstar,kd", "--output", output
        )
        assert (code, out) == (2, "")
        assert err == "error: duplicate profile names in --profiles\n"


@pytest.mark.parametrize(
    "argv", [["corpus", "--profile", "kd"], ["compare", "p", "--profile", "kd"]]
)
def test_corpus_and_compare_take_no_profile(argv, capsys):
    # corpus rows name their profiles and compare takes --profiles; a
    # --profile that either ignored would look like a choice
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --profile" in capsys.readouterr().err


class TestOracle:
    def test_model_found(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "p")
        assert code == 0
        assert "found a model with 1 world(s)" in out

    def test_no_model_reports_caveat(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "p & ~p")
        assert code == 1
        assert "not-found up to 4 worlds" in out
        assert "not an unsatisfiability proof" in out

    @pytest.mark.parametrize("bound", ["0", "6"])
    def test_world_bound_enforced(self, capsys, bound):
        code, _, err = run_cli(capsys, "oracle", "p", "--max-worlds", bound)
        assert code == 2
        assert "--max-worlds must be between 1 and 5" in err

    def test_too_many_valuation_bits_is_an_input_error(self, capsys):
        # 4 worlds of 7 atoms would need 2**28 valuations at once
        code, out, err = run_cli(capsys, "oracle", "p & ~p & q0 & q1 & q2 & q3 & q4 & q5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: budget of 4 worlds and 7 atoms") and err.count("\n") == 1

    def test_running_out_of_memory_is_not_a_verdict(self, capsys, monkeypatch):
        # as numpy raises it for an array of a 5-world kd budget over two atoms
        def fail(f, budget, profile):
            raise MemoryError("Unable to allocate 5.33 GiB for an array")

        monkeypatch.setattr("doxa.oracle.sat_upto", fail)
        code, out, err = run_cli(capsys, "oracle", "p")
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 5.33 GiB for an array\n"

    def test_disagreement_with_the_reference_is_an_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr("doxa.oracle.evaluate", lambda m, w, f: False)
        code, out, err = run_cli(capsys, "oracle", "p")
        assert (code, out) == (2, "")
        assert err == (
            "error: internal engine error: vectorized evaluation disagreed"
            " with the reference evaluator\n"
        )

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "B[a] p & ~p", "--max-worlds", "2", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["found"] is True
        assert data["max_worlds"] == 2
        assert data["model"]["worlds"] >= 1


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "doxa", "decide", "p"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "SAT" in proc.stdout

    def test_numpy_loads_only_with_the_oracle(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import doxa, doxa.cli, sys; assert 'numpy' not in sys.modules"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_decide_and_check_frame_leave_numpy_unloaded(self):
        # every command but ``oracle`` would pay for the numpy import
        script = (
            "import sys, doxa\n"
            "f = doxa.parse('B[a] p & ~B[a] B[a] p')\n"
            "for profile in doxa.LogicProfile:\n"
            "    verdict = doxa.decide_sat(f, profile)\n"
            "    if isinstance(verdict, doxa.SatVerdict):\n"
            "        assert doxa.check_frame(verdict.model, profile) == []\n"
            "assert 'numpy' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_closed_pipe_keeps_the_verdict_code(self):
        # the trace of this valid formula is about 0.9 MB, more than a pipe
        # holds, so the reader is gone before the output is written
        text = "~(" + " & ".join(f"p{i}" for i in range(499)) + " & ~p0)"
        proc = subprocess.Popen(
            [sys.executable, "-m", "doxa", "decide", "--mode", "valid", text],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"VALID")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")

    @pytest.mark.skipif(shutil.which("doxa") is None, reason="script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["doxa", "corpus", "--output", "json"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["failed"] == 0

    def test_console_script_entry_point(self, capsys):
        # the [project.scripts] entry that an installed ``doxa`` would run
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["doxa"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        code = entry(["corpus", "--output", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["failed"] == 0
