"""Host speed, measured with a fixed pure-Python reference loop.

On a shared host the work a solve gets done per second of wall time changes
by 20-40% over minutes, as other tenants' load comes and goes.  On a 2-vCPU
cloud VM, the time of this reference loop follows the solvers' slow-downs:
in a two-minute trace of gmr-deep solves interleaved with the loop, the two
correlated at 0.90-0.97 over 10- and 20-second windows, and dividing solve
times by the loop cut their quartile spread between windows from 0.16 to
0.03-0.07.  (While the host is quiet there is little drift to remove, and
the correlation is weak.)

End-to-end times are therefore reported at a fixed *reference speed*: a run
samples the loop between solves (``HostClock.tick``) and multiplies its
measured seconds by ``NOMINAL_S`` over the mean sample.  At a host speed
where the loop takes ``NOMINAL_S``, reported and measured seconds agree.
The loop never changes, and it runs with the cyclic collector off, so that
nothing the package under test does can move it.  ``NOMINAL_S`` is fixed;
changing it would rescale every reported time.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Reference-loop seconds that define the reference speed (the loop's median
#: time on the VM described above).
NOMINAL_S = 0.012

#: Wall seconds between two samples of the reference loop.
INTERVAL_S = 0.5


def reference_s() -> float:
    """Seconds for one pass of the reference loop: integer arithmetic, a dict
    keyed by tuples with min-updates, and a keyed sort, like the solvers'
    inner loops."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        best: dict[tuple[int, int], int] = {}
        for i in range(15_000):
            key = (i % 997, i % 13)
            old = best.get(key)
            best[key] = i if old is None or old > i else old + 1
        pairs = [(a, b) for a in range(100) for b in range(60)]
        pairs.sort(key=lambda p: -p[1])
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Samples the reference loop at most every ``INTERVAL_S`` of wall time;
    call ``tick`` between solves, never inside a timed one."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        if force or perf_counter() >= self._next:
            self.samples.append(reference_s())
            self._next = perf_counter() + INTERVAL_S

    def factor(self) -> float:
        """Multiply measured seconds by this to get seconds at reference speed."""
        return NOMINAL_S / statistics.fmean(self.samples)
