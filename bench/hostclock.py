"""Time at reference speed.

The shared hosts this runs on switch between a fast and a slow state
(about 1.5 times slower) every few tenths of a second to minutes, in CPU
time as much as in wall time, so runs minutes apart measure the same
program at different speeds.  Each measured time is therefore scaled by
the speed of a fixed reference that does not involve the program, timed
next to it: ``HostClock`` for work inside the benchmark process, and
``reference_process`` (an interpreter that imports numpy) for
processes, whose start-up the in-process references do not track.  A change to the
program moves no reference.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# reference_process's time on a 2.1 GHz Xeon vCPU, Python 3.11, numpy 2.4
PROCESS_NOMINAL_S = 0.16


def reference_process() -> float:
    """Seconds ``python -c "import numpy"`` takes to start and exit.

    Importing numpy maps and reads its shared libraries, as every doxa
    process does; when the host's file cache is short of memory that part
    slows down far more than a bare interpreter start, which a bare
    ``python -c pass`` reference misses."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def process_factor(before: float, after: float) -> float:
    """Scale factor for a process run between two reference processes."""
    return PROCESS_NOMINAL_S / ((before + after) / 2.0)


def reference_work() -> int:
    """A fixed pure-Python loop of the kind the tableau runs: tuples and
    frozensets hashed into a dict."""
    counts: dict = {}
    total = 0
    for i in range(600):
        key = frozenset(((i % 97, i % 13, "x"), i & 7))
        counts[key] = counts.get(key, 0) + 1
        total += len(key)
    return total


_rng = np.random.default_rng(0)
_A = _rng.random((256, 4096)) < 0.5
_B = _rng.random((256, 4096)) < 0.5
_C = np.empty_like(_A)


def reference_array_work() -> int:
    """Fixed whole-array boolean operations of the kind the vectorized
    oracle runs.  Their speed moves with the host's memory bandwidth,
    which the pure-Python loop does not track."""
    np.logical_and(_A, _B, out=_C)
    np.logical_or(_C, _A, out=_C)
    np.logical_not(_C, out=_C)
    return int(_C.any(axis=1).sum())


# Each reference: the work the clock times (None for one timed outside
# it), its time on a 2.1 GHz Xeon vCPU with Python 3.11 and numpy 2.4, and
# how far from a query its samples still count.  A query names the
# reference that matches its work.
REFERENCES = {
    "python": (reference_work, 0.0003, 0.04),
    "array": (reference_array_work, 0.0003, 0.04),
    "process": (None, PROCESS_NOMINAL_S, 1.0),
}


class HostClock:
    """Measures time at reference speed.

    Every ``interval`` seconds of CPU time a profiling-timer signal times
    each in-process reference, so samples are taken also inside long
    queries; ``record`` adds a sample timed outside.  A query's latency is
    scaled by the reference's nominal time over the median of its samples
    taken while the query ran or near it.  ``now`` leaves out the time the
    in-process samples take."""

    interval = 0.03

    def __init__(self) -> None:
        # per reference: perf_counter at each sample, and the sample
        self.times: dict[str, list[float]] = {name: [] for name in REFERENCES}
        self.samples: dict[str, list[float]] = {name: [] for name in REFERENCES}
        self.overhead = 0.0  # seconds spent sampling in process

    def now(self) -> float:
        return time.perf_counter() - self.overhead

    def record(self, reference: str, seconds: float) -> None:
        self.times[reference].append(time.perf_counter())
        self.samples[reference].append(seconds)

    def sample(self) -> None:
        """Time each in-process reference once it is warm: run cold, right
        after the program, the pure-Python loop takes 1.6 times as long,
        and that part measures the program's use of the caches rather than
        the host."""
        start = time.perf_counter()
        try:
            for name, (work, _, _) in REFERENCES.items():
                if work is not None:
                    work()
                    warm = time.perf_counter()
                    work()
                    self.record(name, time.perf_counter() - warm)
        finally:
            self.overhead += time.perf_counter() - start

    def _on_prof(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, start: float, end: float, reference: str = "python") -> float:
        """Scale factor for what ran from ``start`` to ``end``
        (``perf_counter`` times), by the named reference."""
        _, nominal, pad = REFERENCES[reference]
        times, samples = self.times[reference], self.samples[reference]
        if not times:
            self.sample()
        lo = bisect.bisect_left(times, start - pad)
        hi = bisect.bisect_right(times, end + pad)
        if lo == hi:  # no sample near: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        return nominal / statistics.median(samples[lo:hi])

    def speed(self, reference: str = "python") -> float:
        """The host's median speed over the run, as a share of nominal."""
        return REFERENCES[reference][1] / statistics.median(self.samples[reference])
