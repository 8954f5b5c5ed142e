"""Host-speed calibration: a fixed reference loop, timed while qfun runs.

The benchmark's host is a shared virtual machine whose CPU speed drifts by
up to 1.7x within a minute (see baseline.md).  Raw times then measure the
host as much as qfun.  So while the benchmark times qfun, a sampler thread
times a fixed piece of pure-Python work every few milliseconds -- the kinds
of operations qfun spends its time on: Fraction arithmetic, small dicts
keyed by tuples, integer hashing.  Each stretch of qfun's time is then
scaled by how much slower than nominal the reference ran around it:

    normalized = raw * REF_S / reference time

A normalized time is in "reference seconds": the time the work would take
on a host where one reference measurement takes REF_S.  It moves with
qfun's own cost and not with the host's speed, because the reference work
is the benchmark's own and no change to qfun touches it.

Most measurements run between jobs, one before each.  Within a long job a sampler thread
measures; it holds the GIL while it does, so qfun is paused then, and those
pauses are cut out of the job's interval before it is scaled.  The sampler
is not load: it sleeps between measurements, and the program still runs
one job at a time on one thread.
"""

from __future__ import annotations

import bisect
import gc
import threading
import time
from fractions import Fraction

# nominal seconds of one measure().  On the 2-vCPU Xeon host of baseline.md
# under Python 3.11 it took 0.55 to 1.0 ms as the host's speed drifted, so
# normalized times read close to wall times there.  A constant of the
# benchmark: changing it rescales every time metric.
REF_S = 0.0008
# time between two measurements within a long job
LONG_S = 0.1


def _reference():
    acc = Fraction(0)
    table = {}
    for i in range(1, 100):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0) + i
    return acc


def measure():
    """Seconds for two runs of the reference work, with the collector off so
    that the size of qfun's heap cannot leak into the reference."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference()
        _reference()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Reference measurements taken while qfun runs.

        with HostSpeed() as speed:
            for job in jobs:
                speed.between()
                ... time the job with time.perf_counter() ...
        raw, normalized = speed.normalize([(t0, t1), ...])

    between() measures the reference in the caller's thread, before every
    job, so every job is timed the same way whatever the host's speed, and
    short jobs undisturbed.  A sampler thread covers long jobs: every LONG_S
    it measures if nothing has been measured for LONG_S, which pauses the
    job while it does.  Each sample is (start, end, reference seconds)."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        start = time.perf_counter()
        ref = measure()
        self.samples.append((start, time.perf_counter(), ref))

    def _run(self):
        while not self._stop.wait(LONG_S):
            if time.perf_counter() - self.samples[-1][1] >= LONG_S:
                self._sample()

    def between(self):
        self._sample()

    def __enter__(self):
        for _ in range(3):  # first calls in a fresh interpreter run slow
            measure()
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        return False

    def normalize(self, intervals):
        """For each (t0, t1), the raw seconds and the reference seconds qfun
        ran in it: sampler pauses cut out, each stretch scaled by the mean
        of the two samples around it."""
        samples = sorted(self.samples)  # two threads append to it
        mids = [(a + b) / 2 for a, b, _ in samples]
        refs = [r for _, _, r in samples]
        # factor on [mids[i], mids[i + 1]], and the integral of the factor
        # from mids[0] to mids[i]
        factors = [2 * REF_S / (refs[i] + refs[i + 1]) for i in range(len(refs) - 1)]
        factors = factors or [REF_S / refs[0]]
        cum = [0.0]
        for i, f in enumerate(factors[:len(mids) - 1]):
            cum.append(cum[-1] + (mids[i + 1] - mids[i]) * f)

        def integral(t):
            i = min(max(bisect.bisect_right(mids, t) - 1, 0), len(factors) - 1)
            return cum[i] + (t - mids[i]) * factors[i]

        starts = [a for a, _, _ in samples]
        raw, normed = [], []
        for t0, t1 in intervals:
            r, n = t1 - t0, integral(t1) - integral(t0)
            # pauses overlapping the interval: samples starting before t1,
            # of which only those ending after t0
            for a, b, _ in samples[bisect.bisect_left(starts, t0 - 1.0):
                                   bisect.bisect_left(starts, t1)]:
                lo, hi = max(a, t0), min(b, t1)
                if hi > lo:
                    r -= hi - lo
                    n -= integral(hi) - integral(lo)
            raw.append(r)
            normed.append(n)
        return raw, normed
