"""CPU-speed probe: a fixed piece of pure-Python work, timed.

The benchmark's host is a shared virtual machine whose CPU speed changes
from one phase to the next, by up to about 2x, for a fraction of a second
up to longer than a whole run; no steal time shows. A time measured in a
slow phase says nothing about the code. So the worker times this probe
every INTERVAL_S while it answers questions, and scales the time around
each probe by ``REFERENCE_S / probe``: a time is reported as it would read
at the speed the probe had on a quiet core of the machine the baseline was
measured on (``README.md``).

The probe does the kind of work ramseykit does: interpreted loops, small
ints and bit masks, dict and set look-ups, tuples and calls. It never
touches ramseykit, so a change to ramseykit cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.0009  # median `probe()` on a quiet core of the baseline machine
ROUNDS = 5
INTERVAL_S = 0.1


def _step(mask: int, k: int) -> int:
    return (mask >> 1) ^ (-(mask & 1) & 0xB400) ^ k


def _kernel() -> int:
    seen: dict = {}
    members = set()
    mask, acc = 0xACE1, 0
    for k in range(2000):
        mask = _step(mask, k)
        key = (mask & 63, k & 7)
        seen[key] = seen.get(key, 0) + 1
        if mask & 3 == 0:
            members.add(mask & 255)
        acc += len(members) + (1 if (mask & 255) in members else 0)
    return acc + len(seen)


CHECK = _kernel()


def probe() -> float:
    """Median of ROUNDS timed kernels, in seconds. The median follows
    ramseykit's own slow-down more closely than the fastest kernel does."""
    times = []
    for _ in range(ROUNDS):
        t = time.perf_counter()
        if _kernel() != CHECK:
            raise RuntimeError("speed probe computed a different result")
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Sampler:
    """Runs `probe` on `sample`, at `stop` and every INTERVAL_S of wall time
    from `start` to `stop`, from a SIGALRM handler, so that a long question
    is probed while it runs.

    `clock` is ``time.perf_counter`` minus the time spent in probes, so a
    probe never counts in a measured time. `scaled(start, end)` turns an
    interval of `clock` into seconds at the reference speed: between two
    probes the factor is the mean of their REFERENCE_S / probe.
    """

    def __init__(self):
        self.paused = 0.0
        self.positions: list = []  # `clock` value at each probe
        self.factors: list = []  # REFERENCE_S / probe, one per probe
        self._busy = False

    def clock(self) -> float:
        while True:  # a probe may run between the two reads; then read again
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def sample(self) -> None:
        self._busy = True
        try:
            start = time.perf_counter()
            took = probe()
            self.positions.append(start - self.paused)
            self.factors.append(REFERENCE_S / took)
            self.paused += time.perf_counter() - start
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        try:
            self.sample()
        except RecursionError:  # the question it interrupted is at the recursion limit
            pass

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        pos, fac = self.positions, self.factors
        k = max(bisect.bisect_right(pos, start) - 1, 0)
        total = 0.0
        while start < end:
            seg_end = pos[k + 1] if k + 1 < len(pos) else end
            if seg_end > start:
                total += (min(end, seg_end) - start) * (fac[k] + fac[min(k + 1, len(fac) - 1)]) / 2
                start = seg_end
            k += 1
        return total
