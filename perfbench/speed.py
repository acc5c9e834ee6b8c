"""In-process speedometer: how fast the CPU ran while an operation ran.

The machines this benchmark runs on are shared, and their speed for the
same work swings by up to 2x within seconds (a fixed loop measured 178 to
348 ms in one 30-second window on a 2-core Xeon VM). Run-level medians of
raw times then spread by 30-50% whatever the workload does, far beyond
any useful regression bound. So the benchmark scales each operation's
wall time by the machine speed measured during that operation:

    scaled = wall * NOMINAL_S / (mean reference loop time during the op)

A daemon thread, on the same single CPU as the rest of the process, times
a fixed pure-Python loop by its own CPU time every PERIOD_S seconds, so
time it spends waiting for the CPU or the interpreter lock is not counted.
It costs 1-2% of the CPU. Scaled times read as seconds on a machine
where the loop takes NOMINAL_S; raw times stay in the report line.
"""

import bisect
import statistics
import threading
import time

LOOP_STEPS = 3000
PERIOD_S = 0.01
NOMINAL_S = 1e-4


def _reference_loop() -> float:
    start = time.thread_time()
    total = 0
    for i in range(LOOP_STEPS):
        total += i
    return time.thread_time() - start


class Speedometer:
    def __init__(self):
        self._times = []
        self._loop_s = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            loop_s = _reference_loop()
            self._loop_s.append(loop_s)
            self._times.append(time.perf_counter())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        return False

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean loop time in [start, end], widened by a
        period on each side; an operation too short to hold a sample uses
        the last one taken before it ended."""
        n = min(len(self._times), len(self._loop_s))
        lo = bisect.bisect_left(self._times, start - PERIOD_S, 0, n)
        hi = bisect.bisect_right(self._times, end + PERIOD_S, 0, n)
        if hi == 0:
            raise RuntimeError("the speedometer has taken no sample yet")
        lo = min(lo, hi - 1)
        return NOMINAL_S / statistics.fmean(self._loop_s[lo:hi])

    def mean_loop_s(self) -> float:
        return statistics.fmean(self._loop_s)
