"""Host-speed sampler: CPU time normalized by a fixed probe timed every 5 ms.

The benchmark host is a small VM that shares its physical cores with other
tenants.  Two things stretch the wall time of the same op, each by up to
~2x, in phases that last from milliseconds to minutes: the hypervisor
takes the vCPU away (steal), and a busy neighbour on the same core slows
it.  Raw wall times of two runs of the same code can differ by half.

``clock()`` is the main thread's CPU time, which does not advance while
the vCPU is taken away.  (The process's CPU time would also count NumPy's
BLAS threads, which spin while NumPy is imported.)  A SIGALRM interval
timer interrupts the running op every ``PERIOD_S`` and times ``probe()``, a
~0.05 ms loop of dict and integer work that uses no ofetsim or NumPy code,
on the same clock.  An
interval's host-speed factor is the mean probe time inside it over
``PROBE_REF_S``.  Its normalized time is its CPU time, less the sampler's
own, divided by that factor: CPU seconds on a host where the probe takes
``PROBE_REF_S``.  Because the probes run during the op, they see the same
neighbour phases the op sees.

Stdlib only, so that a fresh interpreter can start it before it imports
NumPy or ofetsim.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.005
PROBE_N = 300
PROBE_REF_S = 5e-5

clock = time.thread_time


def probe() -> float:
    """CPU seconds for a fixed loop of dict and integer work."""
    t0 = clock()
    d, acc = {}, 0
    for k in range(PROBE_N):
        d[k & 15] = k * 3
        acc += d.get(k & 7, 0) ^ (k << 1)
    return clock() - t0


class Sampler:
    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0          # CPU seconds inside the handler, probes included

    def _sample(self, *_):
        t0 = clock()
        self.probes.append(probe())
        self.spent += clock() - t0

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return len(self.probes), self.spent, clock()

    def since(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(normalized seconds, host-speed factor) of the interval since ``mark``."""
        n0, spent0, t0 = mark
        cpu = clock() - t0 - (self.spent - spent0)
        # an interval shorter than the period uses the latest probes
        ps = self.probes[n0:] or self.probes[-4:]
        factor = sum(ps) / len(ps) / PROBE_REF_S
        return cpu / factor, factor
