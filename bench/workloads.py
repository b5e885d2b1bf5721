"""The four closed-loop workloads.

Each workload has one client, which sends its next query only after the
last one has returned.  ``setup`` builds the pool of queries, in an order
drawn from the seed, and warms caches; ``run_round`` sends every query of
the pool once.  Every call into the program goes through the tracer, so a
traced run has one span per call.  README.md in this directory says why
each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from doxa import (
    EnumerationBudget,
    LogicProfile,
    PROFILES_BY_STRENGTH,
    decide_sat,
    decide_valid,
    desugar,
    load_corpus,
    model_to_json_dict,
    parse,
    render,
    run_corpus,
    sat_upto,
    subformula_closure,
    verdict_to_json_dict,
)
from doxa.formula import agents, atoms

from gen import POOL_SEED, multiagent_text, tier1_text
from hostclock import reference_process
from harness import (
    QueryTimeout,
    Run,
    layer_seconds,
    time_limit,
    verdict_answer,
    verdict_model,
    verify_model,
)

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "bench" / "out"

KD45, HINTIKKA, HSTAR, KD = (
    LogicProfile.KD45,
    LogicProfile.HINTIKKA,
    LogicProfile.HSTAR,
    LogicProfile.KD,
)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the in-process query pipeline


def prepare(tracer, run: Run, qid, text: str):
    """Parse, desugar, build the closure and render, as a client does once
    per formula."""
    start = time.perf_counter()
    f = tracer.call("parser.parse", qid, parse, text)
    parse_s = time.perf_counter() - start
    kernel = tracer.call("formula.desugar", qid, desugar, f)
    closure = tracer.call("formula.subformula_closure", qid, subformula_closure, kernel)
    tracer.call("formula.render", qid, render, f)
    run.note_formula(f, parse_s, len(closure))
    return f


def decide(tracer, run: Run, qid, f, profile, mode: str, limit: float):
    """Decide under the time limit, verify any model independently and
    render the verdict to JSON.  Returns (verdict, problem or None)."""
    with time_limit(limit):
        start = time.perf_counter()
        if mode == "sat":
            verdict = tracer.call("tableau.decide_sat", qid, decide_sat, f, profile)
        else:
            verdict = tracer.call("tableau.decide_valid", qid, decide_valid, f, profile)
        seconds = time.perf_counter() - start
    run.note_verdict(verdict, seconds)
    model = verdict_model(verdict)
    problem = None
    if model is not None:
        problem = verify_model(tracer, qid, model, f, profile, should_hold=mode == "sat")
    payload = tracer.call("tableau.verdict_to_json_dict", qid, verdict_to_json_dict, verdict)
    tracer.call("json.dumps", qid, json.dumps, payload, sort_keys=True)
    return verdict, problem


def error_text(err: BaseException, limit: float) -> str:
    if isinstance(err, QueryTimeout):
        return f"time limit {limit:g} s exceeded"
    return f"{type(err).__name__}: {err}"


def check_monotone(run: Run, text: str, mode: str, results: dict, limit: float) -> None:
    """Satisfiability is monotone along PROFILES_BY_STRENGTH: a verified
    model in a smaller frame class is a model in every larger one, so a
    later profile answering unsat (or valid) is wrong."""
    witness = None
    for profile in PROFILES_BY_STRENGTH:
        if profile not in results:
            continue
        answer, key = results[profile]
        if answer in ("sat", "invalid"):
            witness = witness or profile
        elif witness is not None:
            run.fail(
                key, limit, wrong=True, formula=text, profile=profile.value, mode=mode,
                reason=f"{answer} under {profile.value} but a verified model exists "
                f"under {witness.value}",
            )


def decide_formula(run: Run, tracer, key, text: str, profiles, mode: str, limit: float,
                   f=None):
    """Prepare a formula (unless ``f`` is given) and decide it under each
    profile, one query per profile.  Preparing counts towards the first
    query.  Returns the formula and {profile: (answer, query key)} for the
    queries answered."""
    results = {}
    for profile in profiles:
        qkey = (*key, profile.value)
        if not run.pending(qkey):
            continue
        start = run.clock.now()
        problem = error = None
        with tracer.span("query", qkey):
            try:
                if f is None:
                    f = prepare(tracer, run, qkey, text)
                verdict, problem = decide(tracer, run, qkey, f, profile, mode, limit)
            except (QueryTimeout, Exception) as err:
                error = error_text(err, limit)
        now = run.clock.now()
        if error or problem:
            run.fail(qkey, limit, wrong=problem is not None, formula=text,
                     profile=profile.value, mode=mode, reason=error or problem)
        else:
            run.completed(qkey, now - start)
            results[profile] = (verdict_answer(verdict), qkey, verdict)
    return f, results


# ----------------------------------------------------------------------
# random-mix


class RandomMix:
    """Generated formulas, each parsed once and decided under all four
    profiles, one query per profile, in an order drawn from the seed.

    The pool is the generator's output at ``POOL_SEED`` whatever ``--seed``
    is.  Decide times of generated formulas run on without a gap from
    milliseconds to minutes, so in a fresh sample some query always lies
    near the limit and passes or fails with the host's speed.  In this pool
    the slowest query that passes takes about 0.19 s and the fastest that
    fails about 0.95 s (a kd45 world-bound error; the next take 3.4 s and
    more), and the limit lies between them, so the same five queries fail
    in every run."""

    name = "random-mix"
    # p99 falls among the few slow kd45 inputs; p90 does not.
    tail_target = 90.0
    limit = 0.8  # seconds per decide call
    blocks = 80
    tier1_per_block = 7
    multiagent_per_block = 3
    valid_per_block = 2

    def setup(self, seed: int, run: Run, tracer) -> None:
        rng = random.Random(POOL_SEED)
        self.pool = []
        for _ in range(self.blocks):
            texts = [tier1_text(rng) for _ in range(self.tier1_per_block)]
            texts += [multiagent_text(rng) for _ in range(self.multiagent_per_block)]
            modes = ["valid"] * self.valid_per_block
            modes += ["sat"] * (len(texts) - self.valid_per_block)
            rng.shuffle(modes)
            block = list(zip(texts, modes))
            rng.shuffle(block)
            self.pool += block
        random.Random(seed).shuffle(self.pool)

    def run_round(self, run: Run, tracer) -> None:
        for i, (text, mode) in enumerate(self.pool):
            _, results = decide_formula(run, tracer, (i,), text, PROFILES_BY_STRENGTH, mode,
                                        self.limit)
            if run.counting:
                answers = {p: (answer, key) for p, (answer, key, _) in results.items()}
                check_monotone(run, text, mode, answers, self.limit)

    def finish(self, run: Run, tracer) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# ----------------------------------------------------------------------
# hard-families


def _compat(n: int) -> str:
    return " & ".join(f"C[a] p{i}" for i in range(n)) + " & B[a] q"


def _nest(n: int) -> str:
    return "B[a] " * n + "p & " + "C[a] " * n + "~p"


def _prop(n: int) -> str:
    pairs = [f"(x{i} | y{i}) & (~x{i} | ~y{i})" for i in range(n)]
    return " & ".join(pairs) + " & (x0 <-> y0)"


@dataclass(frozen=True)
class HardRow:
    id: str
    text: str
    profile: LogicProfile
    expected: str


# The two fuzz rows are satisfiable: the oracle finds a 2-world hintikka
# model of the first and a 1-world kd45 model of the second.
HARD_ROWS: tuple[HardRow, ...] = (
    *(HardRow(f"kd45-compat-{n}", _compat(n), KD45, "sat") for n in (2, 3, 4)),
    *(
        HardRow(f"{p.value}-compat-{n}", _compat(n), p, "sat")
        for p in (HSTAR, HINTIKKA)
        for n in (4, 8, 12)
    ),
    *(
        HardRow(f"{p.value}-nest-{n}", _nest(n), p, "unsat")
        for p in PROFILES_BY_STRENGTH
        for n in (4, 6, 8)
    ),
    *(HardRow(f"kd-prop-{n}", _prop(n), KD, "unsat") for n in (6, 8, 10)),
    HardRow(
        "hintikka-fuzz",
        "B[a]((q | p) & B[a] q | (C[a] q | C[a] q) <-> ~B[a] B[a] q)",
        HINTIKKA,
        "sat",
    ),
    HardRow("kd45-fuzz-2agent", "C[b] B[a] B[a] C[a] q", KD45, "sat"),
)


class HardFamilies:
    """The scaling families at several sizes plus two blow-up inputs, one
    query per row, in an order drawn from the seed.

    A round sends every row once, then sends the rows that have taken less
    than ``cheap_s`` another ``cheap_passes`` times, interleaved.  Only two
    rounds fit in a run, and a row of a few milliseconds needs more tries
    than that to get one at full speed."""

    name = "hard-families"
    # With 26 rows, ten lie beyond the 60th percentile.
    tail_target = 60.0
    # seconds per decide call: the slowest row that ends, kd45 compat n = 4,
    # takes 3.4-5.1 s, and the two blow-up rows run for 27 s and more
    limit = 12.0
    cheap_s = 0.1
    cheap_passes = 6

    def setup(self, seed: int, run: Run, tracer) -> None:
        self.rows = list(HARD_ROWS)
        random.Random(seed).shuffle(self.rows)
        self.row_stats: dict[str, tuple[int, int]] = {}

    def run_round(self, run: Run, tracer) -> None:
        self._pass(run, tracer, self.rows)
        run.counting = False
        cheap = [r for r in self.rows if run.best.get((r.id, r.profile.value), 1e9) < self.cheap_s]
        for _ in range(self.cheap_passes):
            self._pass(run, tracer, cheap)

    def _pass(self, run: Run, tracer, rows) -> None:
        by_text: dict[str, dict] = {}
        for row in rows:
            _, results = decide_formula(run, tracer, (row.id,), row.text, (row.profile,),
                                        "sat", self.limit)
            if row.profile not in results or not run.counting:
                continue
            answer, key, verdict = results[row.profile]
            if answer != row.expected:
                run.fail(key, self.limit, wrong=True, formula=row.text, row=row.id,
                         profile=row.profile.value, mode="sat",
                         reason=f"answered {answer}, expected {row.expected}")
                continue
            self.row_stats[row.id] = (verdict.stats.rules_fired, verdict.stats.worlds_created)
            by_text.setdefault(row.text, {})[row.profile] = (answer, key)
        for text, answers in by_text.items():
            check_monotone(run, text, "sat", answers, self.limit)

    def finish(self, run: Run, tracer) -> None:
        for row in self.rows:
            key = (row.id, row.profile.value)
            prefix = f"tableau.case.{row.id}"
            ms = run.best.get(key, run.failed.get(key)) * 1000.0
            run.extras[f"{prefix}.ms"] = (ms, "ms")
            if row.id in self.row_stats and key in run.best:
                rules, worlds = self.row_stats[row.id]
                run.extras[f"{prefix}.rules_fired"] = (rules, "count")
                run.extras[f"{prefix}.worlds_created"] = (worlds, "count")

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# ----------------------------------------------------------------------
# oracle-sweep


class OracleSweep:
    """Decide each formula of the pinned pool, then cross-check it with the
    brute-force oracle under the same profile: one decide query and one
    ``sat_upto`` query per profile, in an order drawn from the seed.

    ``oracle_pool.json`` (written by ``pins.py``) holds the first 200
    one-agent formulas of the benchmark's generator at a fixed seed,
    unfiltered, so the pool has the tier-1 distribution's share of oracle
    misses: 14 of the 200 formulas miss under at least one profile.  The
    misses scan the whole budget and take most of the time, so every seed
    sends the whole pool; a fresh sample would carry a different number of
    misses.  A larger pool would leave too few rounds in a run for each
    query to get one at full speed.  The first eight two-agent formulas of the generator add the
    pure-Python path.  The pool also pins the oracle's answers."""

    name = "oracle-sweep"
    # Above p90 the latencies thin out into the few oracle misses, and
    # which of them a higher percentile lands on moves from run to run.
    tail_target = 90.0
    # The slowest decide of the pool takes about 0.023 s and the slowest
    # sat_upto about 1 s; each limit leaves a wide margin, so no query of
    # the pool fails in a slow spell of the host.
    limit = 0.5  # seconds per decide call
    oracle_limit = 10.0  # seconds per sat_upto call
    pool_path = Path(__file__).resolve().parent / "oracle_pool.json"

    def setup(self, seed: int, run: Run, tracer) -> None:
        pinned = json.loads(self.pool_path.read_text("utf-8"))
        self.pool = []
        budgets = {}
        for part in ("one_agent", "two_agent"):
            spec = pinned[part]
            budget = budgets[part] = EnumerationBudget(
                max_worlds=spec["max_worlds"], atoms=tuple(spec["atoms"]),
                agents=tuple(spec["agents"]),
            )
            profiles = tuple(LogicProfile(p) for p in spec["profiles"])
            self.pool += [(row["text"], profiles, budget, row["found"]) for row in spec["rows"]]
        random.Random(seed).shuffle(self.pool)
        contradiction = parse("p & ~p")
        for profile in PROFILES_BY_STRENGTH:
            # The first full scan per profile builds the 4-world frame cache.
            with tracer.span("oracle.sat_upto") as span:
                span[1] = "warmup"
                sat_upto(contradiction, budgets["one_agent"], profile)
        self.found = {"hit": 0, "miss": 0, "multiagent-hit": 0, "multiagent-miss": 0}

    def run_round(self, run: Run, tracer) -> None:
        for i, (text, profiles, budget, pinned) in enumerate(self.pool):
            f = None
            for profile in profiles:
                f, results = decide_formula(run, tracer, (i,), text, (profile,), "sat",
                                            self.limit, f)
                if f is None:
                    break
                verdict = results.get(profile, (None, None, None))[2]
                self._oracle(run, tracer, (i, profile.value, "oracle"), text, f, profile,
                             budget, verdict, pinned[profile.value])

    def _oracle(self, run, tracer, key, text, f, profile, budget, verdict, pinned) -> None:
        if not run.pending(key):
            return
        model = error = None
        start = run.clock.now()
        with tracer.span("query", key):
            try:
                with time_limit(self.oracle_limit):
                    with tracer.span("oracle.sat_upto", key) as span:
                        model = sat_upto(f, budget, profile)
                        found = "hit" if model is not None else "miss"
                        span[1] = f"multiagent-{found}" if len(budget.agents) > 1 else found
            except (QueryTimeout, Exception) as err:
                error = error_text(err, self.oracle_limit)
        latency = run.clock.now() - start
        details = {"formula": text, "profile": profile.value, "mode": "oracle"}
        if error:
            run.fail(key, self.oracle_limit, wrong=False, reason=error, **details)
            return
        if run.counting:
            self.found[span[1]] += 1
        # With one agent a miss scans every frame up to the largest world
        # count with whole-array numpy operations; a hit stops at the first
        # world count with a model, where the arrays are small and the time
        # goes to Python.
        vectorized_scan = model is None and len(budget.agents) == 1
        run.completed(key, latency, reference="array" if vectorized_scan else "python")
        if (model is not None) != pinned:
            run.fail(key, self.oracle_limit, wrong=True,
                     reason=f"the oracle {'found a' if model else 'found no'} model, the pin says"
                     f" {'it has one' if pinned else 'none'}",
                     **details)
            return
        if model is not None:
            problem = verify_model(tracer, key, model, f, profile, should_hold=True)
            if problem:
                run.fail(key, self.oracle_limit, wrong=True, reason=f"oracle {problem}",
                         **details)
                return
        if verdict is None:
            return
        decide_key = key[:2]
        if model is not None and not verdict.is_sat:
            run.fail(decide_key, self.limit, wrong=True,
                     reason="the oracle found a model of an engine-unsat formula", **details)
        elif model is None and verdict.is_sat and verdict.model.worlds <= budget.max_worlds:
            run.fail(key, self.oracle_limit, wrong=True,
                     reason=f"the oracle missed the engine's {verdict.model.worlds}-world model",
                     **details)

    def finish(self, run: Run, tracer) -> None:
        if not tracer.enabled:
            return
        totals = tracer.self_times()

        def seconds(tag: str) -> float:
            return totals.get(("oracle.sat_upto", tag), 0.0)

        rounds = run.rounds
        run.extras.update({
            "oracle.warmup_s": (seconds("warmup"), "s"),
            "oracle.hits": (self.found["hit"], "count"),
            "oracle.misses": (self.found["miss"], "count"),
            "oracle.hit_s": (seconds("hit") / rounds, "s"),
            "oracle.miss_s": (seconds("miss") / rounds, "s"),
            "oracle.multiagent_queries": (
                self.found["multiagent-hit"] + self.found["multiagent-miss"], "count",
            ),
            "oracle.multiagent_s": (
                (seconds("multiagent-hit") + seconds("multiagent-miss")) / rounds, "s",
            ),
        })

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# ----------------------------------------------------------------------
# cli-process


@dataclass(frozen=True)
class CliCommand:
    key: str
    kind: str  # decide, compare, corpus or oracle
    formula: str | None = None
    profile: LogicProfile = HSTAR
    mode: str = "sat"
    output: str = "text"

    def argv(self) -> list[str]:
        args = [self.kind]
        if self.formula is not None:
            args.append(self.formula)
        if self.kind == "decide":
            args += ["--mode", self.mode]
        if self.profile is not HSTAR:
            args += ["--profile", self.profile.value]
        if self.output != "text":
            args += ["--output", self.output]
        return args


CLI_COMMANDS: tuple[CliCommand, ...] = (
    CliCommand("decide-gap-text", "decide", "B[a] p & ~B[a] B[a] p"),
    CliCommand("decide-gap-json-hintikka", "decide", "B[a] p & ~B[a] B[a] p", HINTIKKA,
               output="json"),
    CliCommand("decide-4-valid-text", "decide", "B[a] p -> B[a] B[a] p", mode="valid"),
    CliCommand("decide-4-valid-json-hintikka", "decide", "B[a] p -> B[a] B[a] p", HINTIKKA,
               "valid", "json"),
    CliCommand("decide-moore-text", "decide", "B[a](p & ~B[a] p)"),
    CliCommand("decide-moore-json-kd", "decide", "B[a](p & ~B[a] p)", KD, output="json"),
    CliCommand("decide-5-valid-json-kd45", "decide", "~B[a] p -> B[a] ~B[a] p", KD45,
               "valid", "json"),
    CliCommand("decide-2agent-json-kd45", "decide", "C[a] p & C[a] ~p & B[b] q", KD45,
               output="json"),
    CliCommand("compare-gap-text", "compare", "B[a] p & ~B[a] B[a] p"),
    CliCommand("compare-moore-json", "compare", "p & ~B[a] p", output="json"),
    CliCommand("corpus-json", "corpus", output="json"),
    CliCommand("oracle-moore-json", "oracle", "B[a](p & ~B[a] p)", output="json"),
)

PINS_PATH = Path(__file__).resolve().parent / "cli_pins.json"


def run_process(argv: list[str], limit: float, stdout_path: Path):
    """Run ``python argv`` to completion under the time limit.  Returns
    (latency, exit code or None on time-out, stdout bytes, peak RSS in MB)."""
    env = dict(os.environ, DOXA_COLOR="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    with stdout_path.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT, env=env
        )
        try:
            with time_limit(limit):
                _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except QueryTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            code = None
        latency = time.perf_counter() - start
    return latency, code, stdout_path.read_bytes(), usage.ru_maxrss / 1024.0


class CliProcess:
    """One ``python -m doxa`` process at a time from a fixed mix, in an
    order drawn from the seed.  Every exit code and JSON output is checked
    against the pinned value and against the library's own answer."""

    name = "cli-process"
    # Twelve commands leave no percentile above the median with ten samples
    # beyond it, so the tail here is the median.
    tail_target = 50.0
    limit = 10.0  # seconds per process
    floor_samples = 5

    def setup(self, seed: int, run: Run, tracer) -> None:
        self.rng = random.Random(seed)
        self.pins = json.loads(PINS_PATH.read_text("utf-8"))
        missing = [c.key for c in CLI_COMMANDS if c.key not in self.pins]
        if missing:
            raise SystemExit(f"no pinned output for {missing}")
        # Nothing to warm: the timed queries are processes of their own, and
        # the library's answers they are checked against are not timed.
        self.peak_rss = 0.0
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.stdout_path = OUT_DIR / "cli-stdout.txt"

    def run_round(self, run: Run, tracer) -> None:
        commands = list(CLI_COMMANDS)
        self.rng.shuffle(commands)
        for cmd in commands:
            key = (cmd.key,)
            if not run.pending(key):
                continue
            # Reference processes between the commands give the host's
            # speed for starting processes.
            if not run.clock.samples["process"]:
                run.clock.record("process", reference_process())
            with tracer.span(f"cli.{cmd.kind}", key):
                latency, code, stdout, rss = run_process(
                    ["-m", "doxa", *cmd.argv()], self.limit, self.stdout_path
                )
            run.clock.record("process", reference_process())
            self.peak_rss = max(self.peak_rss, rss)
            problem = self._check(cmd, code, stdout, self._expect(cmd, run, tracer, key))
            if problem:
                run.fail(key, self.limit, wrong=code is not None, command=cmd.argv(),
                         profile=cmd.profile.value, reason=problem)
            else:
                run.completed(key, latency, reference="process")

    def _oracle_payload(self, f, profile) -> tuple[int, dict]:
        budget = EnumerationBudget(
            max_worlds=4,
            atoms=tuple(sorted(atoms(f))),
            agents=tuple(sorted(a.name for a in agents(f))),
        )
        model = sat_upto(f, budget, profile)
        payload = {
            "found": model is not None,
            "max_worlds": 4,
            "model": None if model is None else model_to_json_dict(model),
        }
        return (0 if model is not None else 1), payload

    def _expect(self, cmd: CliCommand, run: Run, tracer, key) -> tuple[int, dict]:
        """The library's answer to a command: (exit code, JSON payload)."""
        if cmd.kind == "corpus":
            result = tracer.call("corpus.run_corpus", key, run_corpus, load_corpus())
            return (0 if result.failed == 0 else 1), result.to_json_dict()
        f = prepare(tracer, run, key, cmd.formula)
        if cmd.kind == "oracle":
            return tracer.call("oracle.sat_upto", key, self._oracle_payload, f, cmd.profile)
        if cmd.kind == "decide":
            verdict, problem = decide(tracer, run, key, f, cmd.profile, cmd.mode, self.limit)
            if problem:
                raise SystemExit(f"{cmd.key}: the library's own model fails: {problem}")
            positive = verdict.is_sat if cmd.mode == "sat" else verdict.valid
            return (0 if positive else 1), verdict_to_json_dict(verdict)
        verdicts = {}
        for profile in PROFILES_BY_STRENGTH:
            verdict, _ = decide(tracer, run, key, f, profile, "sat", self.limit)
            verdicts[profile.value] = verdict_answer(verdict)
        agree = len(set(verdicts.values())) == 1
        return 0, {"formula": render(f), "verdicts": verdicts, "agree": agree}

    def _check(self, cmd: CliCommand, code, stdout: bytes, expected) -> str | None:
        if code is None:
            return f"time limit {self.limit:g} s exceeded"
        pin = self.pins[cmd.key]
        expected_code, payload = expected
        if code != pin["exit"] or code != expected_code:
            return f"exit code {code}, pinned {pin['exit']}, library says {expected_code}"
        if cmd.output != "json":
            return None
        if hashlib.sha256(stdout).hexdigest() != pin["stdout_sha256"]:
            return "JSON output differs from the pinned bytes"
        if json.loads(stdout) != payload:
            return "JSON output differs from the library's answer"
        return None

    def finish(self, run: Run, tracer) -> None:
        by_kind: dict[str, list[float]] = {}
        for cmd in CLI_COMMANDS:
            if (cmd.key,) in run.best:
                by_kind.setdefault(cmd.kind, []).append(run.best[(cmd.key,)])
        for kind, latencies in sorted(by_kind.items()):
            run.extras[f"cli.{kind}_ms"] = (statistics.median(latencies) * 1000.0, "ms")
        if not tracer.enabled:
            return
        # Floors: the bare interpreter, and the interpreter importing doxa.
        for name, argv in (("interpreter", ["-c", "pass"]), ("import", ["-c", "import doxa"])):
            samples = []
            for _ in range(self.floor_samples):
                latency, code, _, _ = run_process(argv, self.limit, self.stdout_path)
                if code != 0:
                    raise SystemExit(f"floor process {argv} failed with {code}")
                samples.append(latency)
            run.extras[f"cli.{name}_ms"] = (min(samples) * 1000.0, "ms")
        run.extras["corpus.run_s"] = (
            layer_seconds(tracer.self_times(), "corpus.run_corpus") / run.rounds, "s",
        )

    def peak_rss_mb(self) -> float:
        return self.peak_rss


WORKLOADS = {w.name: w for w in (RandomMix, HardFamilies, OracleSweep, CliProcess)}
