"""A clock that divides the host's speed out of measured intervals.

On a shared VM the same code runs up to 1.7x slower for spells of a
fraction of a second to minutes, while another tenant loads the
physical core; process CPU time slows with wall time, so the program is
not waiting, it runs slower. Which share of a run falls into such
spells changes from run to run, and with it every plain timing.

``HostClock`` measures the host's speed while the program runs: every
``PERIOD_S`` of wall time a SIGALRM handler times a fixed probe (numpy
ops on 64x64 arrays, the size of the program's token matrices, but none
of it tempqt code), about 50 us of work after an untimed warm-up pass. An
interval's calibrated length is its wall time, less the samples taken
inside it, times the mean over its samples of ``REFERENCE_PROBE_S /
probe time``: the time the interval would have taken on a host where
the probe takes REFERENCE_PROBE_S.
A program change still moves calibrated times one for one; only the
host's speed is divided out. The probe runs in the main thread between
bytecodes; no thread or process is started.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.01
# about the probe's time on an unloaded 2.1 GHz Xeon vCPU; calibrated
# times are times at that speed
REFERENCE_PROBE_S = 50e-6

_A = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_B = _A.T.copy()


def _work() -> None:
    for _ in range(2):
        c = _A @ _B
        np.tanh(c, out=c)
        c *= 0.5
        c += _A
        c.sum(axis=0)


def probe() -> float:
    """Seconds one fixed piece of numpy work takes.

    The work runs twice and only the second, warm-cache pass is timed,
    so what the program left in the caches does not move the probe.
    """
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class HostClock:
    """Samples the host's speed every PERIOD_S while entered."""

    def __init__(self):
        self.starts = array("d")  # perf_counter at each sample's start
        self.lengths = array("d")  # each timed probe, s
        self.costs = array("d")  # each sample's whole time, warm-up included, s
        self._saved = None

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        length = probe()
        self.starts.append(t0)
        self.lengths.append(length)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def seconds(self, t0: float, t1: float) -> float:
        """Calibrated length of the interval [t0, t1] of perf_counter time.

        Uses the samples inside the interval plus the nearest one on each
        side, so intervals shorter than PERIOD_S are covered too.
        """
        if not self.starts:
            raise RuntimeError("the host clock took no samples")
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = float(sum(self.costs[lo:hi]))
        near = np.asarray(self.lengths[max(lo - 1, 0) : hi + 1])
        return (t1 - t0 - inside) * float(np.mean(REFERENCE_PROBE_S / near))

    def probe_us(self) -> tuple:
        """(p10, median, p90) of the probe times in microseconds."""
        lengths = np.asarray(self.lengths) * 1e6
        return tuple(float(v) for v in np.percentile(lengths, [10, 50, 90]))
