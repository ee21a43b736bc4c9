"""Host-speed sampling, so host time can be compared across runs.

On a shared host the same repetition can take twice as long from one
minute to the next, because other machines' work slows this one down while
it runs.  :class:`HostSpeed` times a unit of work and measures that
slowdown meanwhile: every ``INTERVAL_S`` an interval timer runs a fixed
pure-Python kernel in a signal handler and times it.  The unit's host time,
minus the time spent in the kernel, divided by the kernel's mean slowdown
against ``REF_SAMPLE_S`` is the unit's time in *reference seconds*: host
seconds on a host running at the reference speed.

The kernel allocates no containers, so it never triggers a garbage
collection of the program's objects.  Signals are handled only while the
process runs, so time the process spends descheduled by its own operating
system is not seen; the benchmark runs alone, so that does not arise.
"""

from __future__ import annotations

import signal
import time
from typing import Any, List

INTERVAL_S = 0.05
#: Kernel time on the reference host (the uncontended 2-vCPU host the
#: benchmark was defined on; see README.md).  Only scales the results.
REF_SAMPLE_S = 3.6e-4

_TABLE = list(range(256))


def calibration_kernel() -> int:
    table, acc = _TABLE, 0
    for i in range(4000):
        acc = (acc + table[i & 255] * i) & 0xFFFFF
    return acc


class HostSpeed:
    """Times its body in host seconds and, when sampling, reference seconds.

    ``sample=False`` only times the body (traced runs, whose spans must not
    contain the kernel).
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.samples: List[float] = []
        #: Host seconds of the body, without the kernel's time.
        self.seconds = 0.0
        self._previous: Any = None
        self._start = 0.0

    def _sample(self, _signum: int = 0, _frame: Any = None) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if not self.sample:
            self.seconds = time.perf_counter() - self._start
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # A pending sample runs before this line, so it is inside the unit.
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - sum(self.samples)
        if not self.samples:
            self._sample()  # unit shorter than one interval

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the reference kernel time."""
        return sum(self.samples) / len(self.samples) / REF_SAMPLE_S

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown
