"""doxa benchmark: closed-loop workloads timed end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload random-mix --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records a span
around every call into the program and reports the per-layer metrics.
``--workload all`` runs every workload, untraced and then traced, each in a
fresh process.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A report with
the environment, every failed input and the workload-specific layer metrics
is written to ``bench/out/``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program under test is the source tree of this checkout, never an
# installed copy.
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from hostclock import process_factor, reference_process  # noqa: E402

WORKLOAD_NAMES = ("random-mix", "hard-families", "oracle-sweep", "cli-process")
# Set-up is timed in fresh processes, until there are SETUP_SAMPLES samples
# or SETUP_BUDGET_S seconds of them, but at least three.
SETUP_SAMPLES = 7
SETUP_BUDGET_S = 6.0
MIN_ROUNDS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; whole rounds are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that only sets up, to time set-up again.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import doxa from this checkout's ``src``; exit 2 if it is not there."""
    try:
        import doxa
    except ImportError as err:
        print(f"error: cannot import doxa from {ROOT / 'src'}: {err}", file=sys.stderr)
        sys.exit(2)
    where = Path(doxa.__file__).resolve().parent
    if where != (ROOT / "src" / "doxa").resolve():
        print(f"error: imported doxa from {where}, not from this checkout", file=sys.stderr)
        sys.exit(2)
    return doxa


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or cpu
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh process: import, input generation, warm-up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def setup_samples(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, measured and at reference speed:
    ``SETUP_SAMPLES`` of them, or fewer, but at least three, once they add
    up to ``SETUP_BUDGET_S``.  Set-up is mostly process start and imports,
    so each is scaled by reference processes run on either side of it."""
    measured: list[float] = []
    scaled: list[float] = []
    reference = reference_process()
    while len(measured) < SETUP_SAMPLES and (
        len(measured) < 3 or sum(measured) < SETUP_BUDGET_S
    ):
        measured.append(child_setup_seconds(name, seed))
        before, reference = reference, reference_process()
        scaled.append(measured[-1] * process_factor(before, reference))
    return measured, scaled


def measure(name: str, seed: int, seconds: float, traced: bool):
    """Set up, then run rounds until ``seconds`` have passed, at least
    ``MIN_ROUNDS`` of them.  Set-up is timed from the start of the process,
    so it includes the imports."""
    from harness import NullTracer, Run, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    tracer = Tracer() if traced else NullTracer()
    run = Run()
    workload.setup(seed, run, tracer)
    setup_s = time.perf_counter() - PROCESS_START
    timed_spans = len(tracer.spans) if traced else 0
    run.clock.start()
    try:
        start = time.perf_counter()
        while run.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            round_start = time.perf_counter()
            workload.run_round(run, tracer)
            run.round_walls.append(time.perf_counter() - round_start)
            run.rounds += 1
            run.counting = False
        run.timed_wall = time.perf_counter() - start
    finally:
        run.clock.stop()
    run.finish_timing()
    peak_rss_mb = workload.peak_rss_mb()
    workload.finish(run, tracer)
    return workload, run, tracer, timed_spans, setup_s, peak_rss_mb


def report_path(name: str, seed: int, seconds: float, traced: bool) -> Path:
    return HERE / "out" / f"{name}-seed{seed}-s{seconds:g}-trace{int(traced)}.json"


def run_workload(name: str, seed: int, seconds: float, traced: bool, env: dict) -> dict:
    from harness import end_to_end, per_layer

    workload, run, tracer, timed_spans, setup_s, peak_rss_mb = measure(
        name, seed, seconds, traced
    )
    # A traced run reports no end-to-end metric, so it times set-up once.
    measured, scaled = ([setup_s], [setup_s]) if traced else setup_samples(name, seed)
    e2e, details = end_to_end(run, workload.tail_target, scaled, peak_rss_mb)
    details["setup_in_run_s"] = setup_s
    details["setup_measured_s"] = measured
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": env,
        "correct": run.wrong_answers == 0,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "end_to_end": e2e,
        "details": details,
        "per_layer": per_layer(run, tracer, timed_spans) if traced else {},
        "extras": run.extras,
        "failures": run.failures,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if traced:
        tracer.write(out_dir / f"{name}-seed{seed}.spans.jsonl")
        untraced = report_path(name, seed, seconds, False)
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]["wall_s"][0]
            report["tracing_overhead"] = e2e["wall_s"][0] / base - 1.0
    report_path(name, seed, seconds, traced).write_text(json.dumps(report, indent=1))
    print_report(report)
    return report


def print_metrics(title: str, metrics: dict) -> None:
    print(f"  {title}:")
    for key, (value, unit) in metrics.items():
        print(f"    {key:<44} {value:>14.6g} {unit}")


def print_report(report: dict) -> None:
    d = report["details"]
    mode = "traced" if report["trace"] else "untraced"
    print(f"== {report['workload']}  seed {report['seed']}  {mode}")
    print(f"  queries: {report['attempted']} attempted, {report['failed']} failed"
          f" (failed_ratio {d['failed_ratio']:.4f}); answers correct: {report['correct']}")
    print(f"  rounds: {d['rounds']} in {d['timed_phase_s']:.3f} s;"
          f" tail = p{d['tail_percentile']:g} with {d['tail_samples_beyond']}"
          f" of {d['queries']} queries beyond it")
    print_metrics("end to end", report["end_to_end"])
    if report["per_layer"]:
        print_metrics("per layer", report["per_layer"])
    if report["extras"]:
        print_metrics("workload layers", report["extras"])
    if "tracing_overhead" in report:
        print(f"  tracing overhead (traced wall_s over untraced): "
              f"{report['tracing_overhead']:+.1%}")
    for failure in report["failures"]:
        print("  FAILED " + json.dumps(failure, ensure_ascii=False))


def result_line(reports: list[dict], prefix: bool) -> str:
    metrics = {}
    for report in reports:
        chosen = report["per_layer"] if report["trace"] else report["end_to_end"]
        for key, (value, unit) in chosen.items():
            name = f"{report['workload']}.{key}" if prefix else key
            metrics[name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from harness import install_time_limit

    install_time_limit()
    if args.setup_only:
        from harness import NullTracer, Run
        from workloads import WORKLOADS

        WORKLOADS[args.workload]().setup(args.seed, Run(), NullTracer())
        print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))
        return 0
    if args.workload != "all":
        env = environment()
        print("environment: " + json.dumps(env))
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)
        print(result_line([report], prefix=False))
        return 0
    reports = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            # A fresh process each, so that no cache, import or peak RSS of
            # one carries over to the next.
            sys.stdout.flush()
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, check=True,
            )
            path = report_path(name, args.seed, args.seconds, bool(trace))
            reports.append(json.loads(path.read_text()))
    print(result_line(reports, prefix=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
