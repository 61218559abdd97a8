"""Host-speed correction of wall times.

The shared host this benchmark was tuned on runs the same code up to 1.5
times slower from one minute to the next, and also from one second to the
next.  A sampler measures that speed while the workload runs: a thread
wakes every `INTERVAL_S` of wall time, takes the interpreter lock from the
workload between two of its bytecodes, and times one fixed chunk of
pure-Python work.  A timed interval is then reported at reference speed:

    corrected = (wall time - sampler time) * REF_CHUNK_S / mean chunk time

The mean is the harmonic mean of the chunks sampled during the interval,
or of the last `NEAREST` chunks when fewer fell inside it.  Samples fall
about evenly in wall time, so this is the chunk time at the interval's mean
speed.  `REF_CHUNK_S` is a constant, so corrected times read as seconds on
a host where the chunk takes that long.  A call shorter than the sampling
period is scaled instead by the chunk's fastest call next to it (`probe`,
`at_fastest`).

The chunk does not call delta0lab, so a change to the library moves the
corrected time as it moves the wall time, with one exception: the chunk
runs with the caches as the workload left them, so a change to the
library's memory footprint can move the chunk time a little too.  Wall
times without the correction are printed beside the metrics.

A thread, not a SIGALRM handler: with a handler, even an empty one,
sat-pr's peak RSS varied by 7% from run to run, and with the thread it
does not.  The chunk makes no object the garbage collector tracks, so it
does not move the workload's collections either.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from array import array

INTERVAL_S = 0.01
NEAREST = 15
# about the chunk's median time in the sampler on the host the bounds were
# tuned on (2 vCPUs of a shared Intel Xeon, Python 3.11); it sets the scale
REF_CHUNK_S = 1.5e-4
# about the chunk's fastest call in a warm loop on that host, the scale of
# calls too short for the sampler (see `probe`)
REF_FASTEST_S = 8e-5


def reference_chunk() -> int:
    """Fixed work: small-int arithmetic, dict stores, one big-int product.
    It makes no object the garbage collector tracks, so that it does not
    move the workload's collections."""
    d = {}
    x = 7
    for i in range(300):
        d[i & 63] = x
        x = (x * 31 + i) & 0xFFFFFFFF
    b = (1 << 4000) + x
    return (b * b) % ((1 << 3001) - 1) + len(d)


class HostSpeed:
    """The sampler; `mark()` starts an interval and `since()` ends it."""

    def __init__(self) -> None:
        # arrays, not lists: the samples add no objects to the workload's heap
        self.at = array("d")     # when each sample started
        self.cost = array("d")   # how long it took, all of it
        self.took = array("d")   # how long its reference chunk took
        self._done = threading.Event()
        self._thread: threading.Thread | None = None
        self.fastest = math.inf   # the chunk's fastest call in `probe`

    def _sample(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        reference_chunk()
        t1 = clock()
        # `at` last: a reader that sees a sample's start sees all of it
        self.took.append(t1 - t0)
        self.cost.append(clock() - t0)
        self.at.append(t0)

    def _run(self) -> None:
        while not self._done.wait(INTERVAL_S):
            self._sample()

    def start(self) -> None:
        self._sample()   # one sample before the first period ends
        self._done.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._done.set()
        self._thread.join()

    def probe(self, times: int = 10) -> None:
        """Calls the chunk back to back and keeps its fastest call."""
        clock = time.perf_counter
        for _ in range(times):
            t0 = clock()
            reference_chunk()
            self.fastest = min(self.fastest, clock() - t0)

    def at_fastest(self, raw: float) -> float:
        """A fastest call, scaled by the chunk's fastest call in `probe`."""
        return raw * REF_FASTEST_S / self.fastest

    def mark(self) -> tuple[float, int]:
        # the length first: a sample taken after it has a later index
        k = len(self.at)
        return time.perf_counter(), k

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(corrected, raw) seconds since `mark`, sampler time left out.
        Before `start()` there are no samples, and both are the wall time."""
        t1 = time.perf_counter()
        t0, k0 = mark
        k1 = len(self.at)
        inside = [k for k in range(k0, k1) if t0 <= self.at[k] <= t1]
        raw = t1 - t0 - sum(self.cost[k] for k in inside)
        if not self.took:
            return raw, raw
        if len(inside) >= NEAREST:
            chunks = [self.took[k] for k in inside]
        else:
            chunks = self.took[max(k1 - NEAREST, 0):k1]
        # samples fall evenly in wall time, so the mean speed over the
        # interval is the mean of 1/chunk time
        return raw * REF_CHUNK_S / statistics.harmonic_mean(chunks), raw
