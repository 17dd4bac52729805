"""Host-speed probe: a fixed kernel of the benchmark's own, timed inside every
unit of work, by which that unit's time is scaled.

On a shared host the same instructions can run at half speed for a second or
two, then at full speed again, as neighbours load the physical cores.  The
slowdown shows in CPU time as well as in wall time, and slow phases come and
go within a run and from one run to the next, so no statistic of raw unit
times removes them.  The probe is a small fixed kernel of the same kind as
the hot loop of the one-thread workloads.  A SIGALRM timer runs it every
TICK_PERIOD_S in the main thread, between two Python steps of the unit, so
it runs in the same phases as the unit; its time is taken out of the unit's
time.  A unit's scale is the kernel's reference time over its mean time
since the previous unit ended.  Scaled times read as seconds on a host where
the kernel takes its reference time.  The probe calls nothing in
photonstats, so a change to the package moves scaled times as it moves raw
ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

TICK_PERIOD_S = 0.05
MIN_SAMPLES = 4
# near the kernel's time on an uncontended 2-vCPU Xeon
REFERENCE_S = 1.0e-3
EM_SWEEPS = 100

_rng = np.random.default_rng(7)
_RESPONSE = _rng.random((9, 21))
_RESPONSE /= _RESPONSE.sum(axis=0)
_RESPONSE_T = np.ascontiguousarray(_RESPONSE.T)
_FREQ = _rng.random(9)


def em_kernel() -> None:
    """Multiplicative EM sweeps on a 9 x 21 response, one thread: the small
    numpy calls per Python step of inversion, detector and calibration."""
    rho = np.full(21, 1.0 / 21)
    ratio = np.zeros(9)
    for _ in range(EM_SWEEPS):
        ratio[:] = _FREQ / (_RESPONSE @ rho)
        candidate = rho * (_RESPONSE_T @ ratio)
        candidate /= candidate.sum()
        float(_FREQ @ np.log(_RESPONSE @ candidate))
        rho = candidate


class Probe:
    """Times the kernel next to units of work; turns its times into scales."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        em_kernel()  # warm-up, not recorded

    def _once(self) -> None:
        start = time.perf_counter()
        em_kernel()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self.times)

    def spent(self, mark: int, start: float, end: float) -> float:
        """Probe time recorded since `mark` that lies within [start, end]."""
        return sum(
            t for s, t in zip(self.starts[mark:], self.times[mark:]) if start <= s and s + t <= end
        )

    def repeat(self, budget_s: float) -> None:
        """Run the kernel until `budget_s` has passed, at least once."""
        spent = 0.0
        while not spent or spent < budget_s:
            self._once()
            spent += self.times[-1]

    @contextlib.contextmanager
    def ticking(self):
        """Run the kernel every TICK_PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._once())
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, mark: int) -> float:
        """Reference time over the mean probe time since `mark`, taking at
        least the last MIN_SAMPLES times: below 1 on a slow host."""
        recent = self.times[max(0, min(mark, len(self.times) - MIN_SAMPLES)):]
        return REFERENCE_S / statistics.fmean(recent)
