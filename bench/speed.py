"""Host-speed-corrected timing of a region of code.

On a shared virtual machine the same single-threaded code runs at speeds
that differ by up to 1.9x from one minute to the next, with no steal time:
CPU time stretches as much as wall time, so neither repeats within a run
nor CPU clocks average the slow phases away.  `SpeedMeter` measures the
speed of the core the timed code runs on while it runs: a SIGALRM timer
interrupts the main thread every INTERVAL_S, and the handler times a fixed
piece of reference work in thread CPU time (a wait for the interpreter
lock does not count).  The region's time is then reported as

    (wall seconds - seconds spent in the reference) * REF_S / mean reference time

that is, in seconds at the speed at which the reference takes REF_S.  A
change to the timed code moves the figure in full; a change of host speed
that slows the reference as much as the code cancels out.

Signal handlers run only on the main thread, between bytecodes, so a meter
must be used from the main thread; a long C call delays a sample but does
not bias it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
PY_ITERS = 2500
NP_ITERS = 30
# The reference's time on one unslowed vCPU of the machine in README.md, so
# that corrected seconds there read close to wall seconds.
REF_S = 4.7e-4

_A = np.ones((24, 24))
_X = np.ones((24, 3))
_IDX = np.arange(0, 24, 2)


def reference_s() -> float:
    """Thread CPU seconds of one pass of the fixed reference work.

    The work mixes what emtgis spends its time on: interpreter bytecode,
    and numpy calls on arrays the size of a small net's kernel step.
    """
    t0 = time.thread_time()
    table, acc = {}, 0
    for i in range(PY_ITERS):
        acc += (i * 7) % 13
        table[i & 63] = acc
    for _ in range(NP_ITERS):
        inj = np.zeros((25, 3))
        np.add.at(inj, _IDX, _X[_IDX])
        inj[:24] += (_A @ _X) * 0.5
    return time.thread_time() - t0


class SpeedMeter:
    """Context manager; after exit holds `wall_s`, `ref_s` and `seconds`."""

    def __enter__(self):
        self.samples = [reference_s()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        self.samples.append(reference_s())

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        inside = sum(self.samples[1:])
        self.samples.append(reference_s())
        self.ref_s = statistics.fmean(self.samples)
        self.seconds = (self.wall_s - inside) * REF_S / self.ref_s
        return False
