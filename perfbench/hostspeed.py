"""The host's speed, tracked with a fixed reference loop.

On a shared virtual machine the same code runs up to 1.4 times slower (at
times twice) for phases of seconds to minutes, longer than one run.  So a
run times a fixed pure-Python loop of the benchmark's own (a sparse
polynomial product, the kind of work that dominates skewchar) every
PERIOD_S seconds between ops, and scales each measured time t by
NOMINAL_MS / (the median of the reference samples nearest to t).  A scaled
time is the time the host would have taken at the speed at which the
reference loop takes NOMINAL_MS; program changes move it, the host's phases
much less.  The reference never calls the program.
"""

import bisect
import gc
import statistics
import time

NOMINAL_MS = 0.6  # the reference loop's median time on the machine that defined the benchmark
PERIOD_S = 0.2
WINDOW = 6  # samples per scale estimate

_P = {(i, 2 * i % 5): 3 * i + 1 for i in range(48)}
_Q = {(i % 7, i): 5 * i - 2 for i in range(48)}


def reference_ms():
    """Fastest of three runs of the reference loop, in ms, without the
    garbage collector (which would charge the program's heap to the host)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            out = {}
            for (a1, a2), ca in _P.items():
                for (b1, b2), cb in _Q.items():
                    key = (a1 + b1, a2 + b2)
                    out[key] = out.get(key, 0) + ca * cb
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best * 1000


class HostSpeed:
    def __init__(self):
        self.times = []  # perf_counter() of each sample
        self.refs = []  # reference_ms() of each sample
        self.sample()

    def sample(self):
        self.refs.append(reference_ms())
        self.times.append(time.perf_counter())

    def tick(self):
        """Take a sample if PERIOD_S has passed since the last one."""
        if time.perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def scale(self, t):
        """Factor for a time measured around perf_counter() value t."""
        j = bisect.bisect_left(self.times, t)
        lo = max(0, min(j - WINDOW // 2, len(self.times) - WINDOW))
        return NOMINAL_MS / statistics.median(self.refs[lo:lo + WINDOW])

    def current(self):
        """Factor for a time measured just now."""
        return NOMINAL_MS / statistics.median(self.refs[-WINDOW:])

    def typical(self):
        """Median factor over the run so far, to report next to the results."""
        return NOMINAL_MS / statistics.median(self.refs)
