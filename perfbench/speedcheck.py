"""Check that the speedometer's scale factor does not depend on the work.

    python3 perfbench/speedcheck.py

run.py scales each operation's wall time by the speed of a reference loop
that runs on the same CPU as the program (speed.py). That is only sound if
the loop measures the machine and not the program. This script runs three
kinds of work that stress the loop differently, on one pinned CPU with one
BLAS thread as run.py does:

* python: a pure-Python loop, which holds the interpreter lock;
* numpy_small: numpy calls on 32x64 arrays, as the BiLSTM makes;
* blas_big: 400x400 matmuls, which release the interpreter lock.

Each is timed at its base size and with 20% more work (an injected,
known slowdown), alternating, for several rounds. It prints, per kind, the
median loop time seen during the work and the slowed/base ratio of wall,
scaled and main-thread CPU time. The loop times should agree across kinds
and every ratio should read 1.2.
"""

import os
import statistics
import sys
import time

ROUNDS = 12
SLOWDOWN = 1.2


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np

    import speed

    rng = np.random.default_rng(0)
    big_a, big_b = rng.standard_normal((400, 400)), rng.standard_normal((400, 400))
    small_a, small_b = rng.standard_normal((32, 64)), rng.standard_normal((64, 256))

    def python(n):
        total = 0
        for i in range(n):
            total += i * i % 7

    def numpy_small(n):
        for _ in range(n):
            np.tanh(small_a @ small_b) * 0.5 + 1.0

    def blas_big(n):
        for _ in range(n):
            big_a @ big_b

    work = {"python": (python, 1_500_000), "numpy_small": (numpy_small, 6000),
            "blas_big": (blas_big, 60)}
    seen = {kind: {"loop": [], "wall": {}, "scaled": {}, "cpu": {}} for kind in work}
    with speed.Speedometer() as speedometer:
        time.sleep(0.1)
        for _ in range(ROUNDS):
            for kind, (fn, n) in work.items():
                for factor in (1.0, SLOWDOWN):
                    c0, t0 = time.thread_time(), time.perf_counter()
                    fn(int(n * factor))
                    t1, c1 = time.perf_counter(), time.thread_time()
                    scale = speedometer.scale(t0, t1)
                    s = seen[kind]
                    s["loop"].append(speed.NOMINAL_S / scale)
                    s["wall"].setdefault(factor, []).append(t1 - t0)
                    s["scaled"].setdefault(factor, []).append((t1 - t0) * scale)
                    s["cpu"].setdefault(factor, []).append(c1 - c0)
    for kind, s in seen.items():
        ratios = {m: statistics.median(s[m][SLOWDOWN]) / statistics.median(s[m][1.0])
                  for m in ("wall", "scaled", "cpu")}
        print(f"{kind:12s} loop {statistics.median(s['loop']) * 1e6:7.1f} us   "
              + "   ".join(f"{m} x{r:.3f}" for m, r in ratios.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
