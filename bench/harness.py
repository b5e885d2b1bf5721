"""Measurement plumbing shared by the workloads.

- ``time_limit`` enforces a per-query limit with an interval timer on the
  main thread, so no query can hang a run.
- ``Tracer`` records one span per public call into the program; ``NullTracer``
  stands in for it in the untraced run.
- ``Run`` collects per-query latencies, failures and engine counts, and turns
  them into the end-to-end and per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostclock import HostClock

from doxa import (
    SatVerdict,
    UnsatVerdict,
    ValidityVerdict,
    check_frame,
    evaluate,
    node_count,
)


class QueryTimeout(BaseException):
    """Raised on the main thread when a query runs past its time limit.

    A ``BaseException`` so that no ``except Exception`` in the program can
    swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def install_time_limit() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


@contextlib.contextmanager
def time_limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ----------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: ``[name, tag, start, end, parent, query id]``.

    ``parent`` is the index of the enclosing span, or -1."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, qid: int | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, None, time.perf_counter(), None, parent, qid]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def call(self, name: str, qid: int | None, fn, *args, **kwargs):
        with self.span(name, qid):
            return fn(*args, **kwargs)

    def self_times(self, since: int = 0) -> dict[tuple[str, str | None], float]:
        """Total self time per (name, tag) of the spans from index ``since``
        on: a span's duration minus the part of it its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, tag, start, end, parent, qid in self.spans[since:]:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[str, str | None], float] = {}
        for index in range(since, len(self.spans)):
            name, tag, start, end, parent, qid = self.spans[index]
            key = (name, tag)
            totals[key] = totals.get(key, 0.0) + (end - start) - child_time[index]
        return totals

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, tag, start, end, parent, qid in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "tag": tag,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "query": qid,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, qid: int | None = None):
        yield [name, None, 0.0, 0.0, -1, qid]

    def call(self, name: str, qid: int | None, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# ----------------------------------------------------------------------
# one run's measurements


@dataclass
class Run:
    """What one run measured.

    The timed phase sends every query of the workload's pool once per
    round, for as many rounds as fit.  A query's latency is its median
    over the rounds at reference speed (``HostClock``).  A failed query is
    not sent again and counts at its time limit.  ``best`` holds the
    fastest measured latencies during the timed phase, which decide what
    a round sends, and the latencies at reference speed after
    ``finish_timing``."""

    clock: HostClock = field(default_factory=HostClock)
    best: dict = field(default_factory=dict)  # query key -> latency
    # (key, latency, end, reference name) per execution
    log: list = field(default_factory=list)
    measured_best: dict = field(default_factory=dict)  # ``best`` before scaling
    failed: dict = field(default_factory=dict)  # query key -> its time limit
    failures: list[dict] = field(default_factory=list)
    wrong_answers: int = 0
    rounds: int = 0
    round_walls: list[float] = field(default_factory=list)
    timed_wall: float = 0.0
    executions: int = 0  # completed query executions over all rounds
    # True during the first pass over the pool, which alone cross-checks
    # answers and takes the engine-side counts below
    counting: bool = True
    counted_decide_s: float = 0.0  # time of the decide calls counted
    counted_parse_s: float = 0.0  # time of the parse calls counted
    rules_fired: int = 0
    worlds_created: int = 0
    blocks_applied: int = 0
    unsat_trace_steps: int = 0
    unsat_rules_fired: int = 0
    model_worlds: int = 0
    parsed_nodes: int = 0
    closure_sizes: list[int] = field(default_factory=list)
    # workload-specific layer metrics: name -> (value, unit)
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)

    def pending(self, key) -> bool:
        return key not in self.failed

    def completed(self, key, latency: float, reference: str = "python") -> None:
        """Record a completed execution that took ``latency`` seconds of
        ``clock.now()`` and has just ended; the clock's samples of
        ``reference`` will scale it to reference speed."""
        if key not in self.failed:
            self.executions += 1
            self.best[key] = min(self.best.get(key, latency), latency)
            self.log.append((key, latency, time.perf_counter(), reference))

    def finish_timing(self) -> None:
        """Replace each query's fastest measured latency by its median
        latency at reference speed over the rounds."""
        scaled: dict = {}
        for key, latency, end, reference in self.log:
            if key in self.best:
                factor = self.clock.factor(end - latency, end, reference)
                scaled.setdefault(key, []).append(latency * factor)
        self.measured_best = self.best
        self.best = {key: statistics.median(values) for key, values in scaled.items()}

    def fail(self, key, limit: float, wrong: bool, **details) -> None:
        """Fail a query and list its input.  ``wrong`` means the program
        returned an incorrect answer rather than none.  A query that has
        completed once is not failed by a later time-out, which can only
        come from the host slowing down."""
        if key in self.failed or (not wrong and key in self.best):
            return
        self.best.pop(key, None)
        self.failed[key] = limit
        if wrong:
            self.wrong_answers += 1
        self.failures.append(details)

    def note_verdict(self, verdict, seconds: float) -> None:
        if not self.counting:
            return
        self.counted_decide_s += seconds
        stats = verdict.stats
        self.rules_fired += stats.rules_fired
        self.worlds_created += stats.worlds_created
        self.blocks_applied += stats.blocks_applied
        trace = None
        if isinstance(verdict, UnsatVerdict):
            trace = verdict.trace
        elif isinstance(verdict, ValidityVerdict) and verdict.valid:
            trace = verdict.trace
        if trace is not None:
            self.unsat_trace_steps += len(trace)
            self.unsat_rules_fired += stats.rules_fired
        else:
            self.model_worlds += verdict_model(verdict).worlds

    def note_formula(self, f, parse_s: float, closure_size: int) -> None:
        if self.counting:
            self.counted_parse_s += parse_s
            self.parsed_nodes += node_count(f)
            self.closure_sizes.append(closure_size)

    def latencies(self) -> list[float]:
        return list(self.best.values()) + list(self.failed.values())

    @property
    def attempted(self) -> int:
        return len(self.best) + len(self.failed)


def verdict_answer(verdict) -> str:
    if isinstance(verdict, SatVerdict):
        return "sat"
    if isinstance(verdict, UnsatVerdict):
        return "unsat"
    return "valid" if verdict.valid else "invalid"


def verdict_model(verdict):
    if isinstance(verdict, SatVerdict):
        return verdict.model
    if isinstance(verdict, ValidityVerdict):
        return verdict.countermodel
    return None


def verify_model(tracer, qid, model, f, profile, should_hold: bool) -> str | None:
    """Independent check of a returned model: the profile's frame conditions
    hold, and ``f`` has the claimed truth value at the designated world.
    Returns a problem description, or None."""
    violations = tracer.call("models.check_frame", qid, check_frame, model, profile)
    if violations:
        return f"model breaks the {profile.value} frame: {violations[0].message}"
    holds = tracer.call("models.evaluate", qid, evaluate, model, model.designated, f)
    if holds != should_hold:
        return "model gives the formula the wrong truth value at the designated world"
    return None


# ----------------------------------------------------------------------
# statistics


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1], n - rank


_FALLBACK_TIERS = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_latency(values: list[float], target: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the workload's fixed tail
    percentile, falling back to lower tiers when fewer than ten samples lie
    beyond it.  The percentile is fixed per workload, not derived from the
    sample count, so that a faster program, which completes more queries,
    is not measured at a higher percentile."""
    xs = sorted(values)
    for q in (target,) + tuple(t for t in _FALLBACK_TIERS if t < target):
        value, beyond = percentile(xs, q)
        if beyond >= 10:
            return q, value, beyond
    value, beyond = percentile(xs, 50.0)
    return 50.0, value, beyond


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(
    run: Run, tail_target: float, setup_samples: list[float], peak_rss_mb: float
) -> tuple[dict[str, tuple[float, str]], dict]:
    """End-to-end metrics and the details recorded beside them.

    The timed phase lasts ``--seconds`` by design, so ``wall_s`` is instead
    the busy time of one pass over the pool: every query at its latency, a
    failed one at its time limit.  ``throughput_qps`` is the rate of the
    completed queries of that pass; a rate over the whole timed phase (kept
    as ``sustained_qps``) takes in the host's speed in full."""
    lat = run.latencies()
    q, tail, beyond = tail_latency(lat, tail_target)
    p50, _ = percentile(sorted(lat), 50.0)
    wall = sum(lat)
    completed = list(run.best.values())
    metrics = {
        "throughput_qps": (len(completed) / sum(completed) if completed else 0.0, "1/s"),
        "latency_p50_ms": (p50 * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
        "wall_s": (wall, "s"),
        "geomean_case_ms": (geomean(lat) * 1000.0, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "tail_percentile": q,
        "tail_samples_beyond": beyond,
        "queries": len(lat),
        "rounds": run.rounds,
        "round_walls_s": run.round_walls,
        "timed_phase_s": run.timed_wall,
        "sustained_qps": run.executions / run.timed_wall,
        "host_speed": run.clock.speed(),
        "host_array_speed": run.clock.speed("array"),
        "measured_wall_s": sum(run.measured_best.values()) + sum(run.failed.values()),
        "measured_p50_ms": percentile(
            sorted(list(run.measured_best.values()) + list(run.failed.values())), 50.0
        )[0] * 1000.0,
        "setup_samples_s": setup_samples,
        "failed_ratio": len(run.failed) / len(lat),
    }
    return metrics, details


def layer_seconds(totals: dict, *names: str) -> float:
    """Summed self time of the spans with the given names."""
    return sum(t for (name, _), t in totals.items() if name in names)


def per_layer(run: Run, tracer: Tracer, since: int) -> dict[str, tuple[float, str]]:
    """Layer metrics measured on every workload.  Times are self times of
    the timed phase's spans (from index ``since``) per round; counts are
    those of the first round."""
    totals = {
        key: seconds / run.rounds for key, seconds in tracer.self_times(since).items()
    }
    parse_s = layer_seconds(totals, "parser.parse")
    decide_s = layer_seconds(totals, "tableau.decide_sat", "tableau.decide_valid")
    return {
        "parser.parse_s": (parse_s, "s"),
        "parser.nodes_per_s": (run.parsed_nodes / run.counted_parse_s, "1/s"),
        "formula.desugar_s": (layer_seconds(totals, "formula.desugar"), "s"),
        "formula.closure_s": (layer_seconds(totals, "formula.subformula_closure"), "s"),
        "formula.closure_size_mean": (statistics.fmean(run.closure_sizes), "count"),
        "formula.render_s": (layer_seconds(totals, "formula.render"), "s"),
        "tableau.decide_s": (decide_s, "s"),
        "tableau.rules_per_s": (run.rules_fired / run.counted_decide_s, "1/s"),
        "tableau.rules_fired": (run.rules_fired, "count"),
        "tableau.worlds_created": (run.worlds_created, "count"),
        "tableau.blocks_applied": (run.blocks_applied, "count"),
        "tableau.trace_useful_ratio": (
            run.unsat_trace_steps / max(run.unsat_rules_fired, 1),
            "ratio",
        ),
        "tableau.model_worlds": (run.model_worlds, "count"),
        "models.verify_s": (
            layer_seconds(totals, "models.check_frame", "models.evaluate"),
            "s",
        ),
        "models.json_s": (
            layer_seconds(totals, "tableau.verdict_to_json_dict", "json.dumps"),
            "s",
        ),
    }
