"""The machine's own speed, measured through a run, to put wall times on a
fixed scale.

The benchmark runs on a few virtual CPUs of a shared host. Two things make
the same work take different wall times there:

- the process does not run all the time: the host or other processes take
  its CPU. Process CPU time leaves that out (the kernel subtracts the time
  the host steals), so the share of a window's wall time in which the
  process ran is its CPU time over its wall time, at most 1.
- the CPU runs slower in some stretches than in others, by up to a factor
  of two for seconds at a time, and CPU time shows this as wall time does.
  A `Pace` meter measures it: while it is on, a timer signal takes a
  sample every INTERVAL_S. A sample runs a fixed piece of reference work
  (about half a millisecond of the same kind of interpreted float
  arithmetic and small-array numpy calls the program spends its time in)
  twice, the first time to warm the caches the program left cold, and
  records when it ran and the thread CPU time of the second. The
  machine's speed over a window is REF_S over the mean of those times.

`factor` multiplies the two; a window's own time (its wall time less the
samples taken in it) times its factor is the time its work would have taken
at the reference speed, running all the time. A change to the program moves
the program's time and not the samples', so it moves scaled times as it
moves wall times.
"""

from __future__ import annotations

import math
import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.025
# A window with fewer samples than this takes the ones nearest its middle.
MIN_SAMPLES = 5
# Thread CPU seconds one `reference_work()` took on the reference machine
# (2 virtual CPUs, Python 3.11.7, numpy 2.4.6) in a steady stretch.
REF_S = 0.00045

_GRID = np.linspace(0.0, 1.0, 64)


def reference_work() -> float:
    """A fixed mix of interpreted float arithmetic, calls, container access
    and numpy calls on 64-element arrays."""
    acc = 0.0
    pts = [(0.1 * i, 0.2 * i) for i in range(40)]
    for _ in range(60):
        for x, y in pts:
            acc += math.hypot(x - y, y + 1.0) * 0.5
        m = np.minimum(_GRID, acc % 1.0)
        acc += float(np.sum(m * _GRID) / (np.sum(m) + 1e-9))
        acc += sum({"a": acc, "b": 1.0}.values()) * 1e-9
    return acc


def window() -> tuple[float, float]:
    """The clocks a timed window starts and ends with: wall, process CPU."""
    return time.perf_counter(), time.process_time()


class Pace:
    def __init__(self):
        self.wall0 = array("d")
        self.wall1 = array("d")
        self.cpu = array("d")       # CPU time of the timed reference work
        self.cpu_all = array("d")   # CPU time of the whole sample
        self._busy = False
        self._frozen = None

    def _sample(self, signum, frame):
        if self._busy:      # the timer fired again while a sample ran
            return
        self._busy = True
        a, c0 = time.perf_counter(), time.thread_time()
        reference_work()        # warms the caches the program left cold
        c1 = time.thread_time()
        reference_work()
        c2 = time.thread_time()
        self.cpu.append(c2 - c1)
        self.cpu_all.append(c2 - c0)
        self.wall0.append(a)
        self.wall1.append(time.perf_counter())
        self._busy = False

    def start(self):
        for _ in range(20):     # warm the reference work's code paths
            reference_work()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        t0, t1, cpu, cpu_all = (np.array(a) for a in (self.wall0, self.wall1,
                                                       self.cpu, self.cpu_all))
        self._frozen = (t0, np.concatenate([[0.0], np.cumsum(t1 - t0)]), cpu,
                        np.concatenate([[0.0], np.cumsum(cpu_all)]))

    def _in(self, cum, a, b):
        t0 = self._frozen[0]
        return cum[np.searchsorted(t0, b)] - cum[np.searchsorted(t0, a)]

    def own(self, a, b):
        """Wall time from a to b less the samples that started in it; a and
        b may be arrays of span starts and ends."""
        a, b = np.asarray(a), np.asarray(b)
        return (b - a) - self._in(self._frozen[1], a, b)

    def speed(self, a: float, b: float) -> float:
        """The machine's speed from wall time a to b against the reference
        speed: REF_S over the mean CPU time of the samples in it."""
        t0, _, cpu, _ = self._frozen
        if len(t0) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(t0)} speed samples in the run")
        i, j = (int(k) for k in np.searchsorted(t0, [a, b]))
        if j - i < MIN_SAMPLES:
            mid = int(np.searchsorted(t0, (a + b) / 2))
            i = min(max(0, mid - MIN_SAMPLES // 2), len(t0) - MIN_SAMPLES)
            j = i + MIN_SAMPLES
        return REF_S / float(np.mean(cpu[i:j]))

    def factor(self, windows) -> float:
        """The factor that puts the own time of these windows, and of spans
        in them, on the reference scale. `windows` holds (wall start, wall
        end, CPU start, CPU end) rows, as two `window()` calls give them."""
        w = np.asarray(windows, dtype=float).reshape(-1, 4)
        wall = float(np.sum(self.own(w[:, 0], w[:, 1])))
        cpu = float(np.sum(w[:, 3] - w[:, 2] - self._in(self._frozen[3], w[:, 0], w[:, 1])))
        return min(1.0, cpu / wall) * self.speed(w[0, 0], w[-1, 1])
