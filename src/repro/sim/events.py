"""Event primitives for the discrete-event simulation engine.

The REACT middleware in the paper runs on PlanetLab in wall-clock time; here
the same components are driven by a deterministic discrete-event simulator.
Events are totally ordered by ``(time, priority, sequence)`` so that two runs
with the same seed replay identically, independent of heap tie-breaking.

:class:`Event` carries ``__slots__``: millions of them exist over a long run.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable


class EventKind(enum.IntEnum):
    """Well-known event categories used by the REACT platform.

    The integer values double as scheduling *priorities* for events that fire
    at the same simulated instant: lower value fires first.  The ordering is
    deliberate — completions must be observed before a batch trigger decides
    which tasks are still unassigned, and arrivals must be registered before
    the batch that could assign them.
    """

    #: A worker finished (or abandoned past deadline) a task.
    TASK_COMPLETION = 0
    #: A worker joined the region.
    WORKER_ARRIVAL = 1
    #: A worker left the region (churn extension).
    WORKER_DEPARTURE = 2
    #: A new task was submitted by a requester.
    TASK_ARRIVAL = 3
    #: The Dynamic Assignment Component re-evaluates Eq. (2) for running tasks.
    REASSIGNMENT_CHECK = 4
    #: The Scheduling Component wakes up to run a matching batch.
    BATCH_TRIGGER = 5
    #: A matching batch (whose simulated latency elapsed) publishes results.
    BATCH_COMPLETE = 6
    #: Generic user callback (examples / tests).
    CALLBACK = 7
    #: End-of-simulation sentinel.
    STOP = 8
    #: Chaos fault activation/deactivation (:mod:`repro.chaos`).  Lowest
    #: priority on purpose: a fault striking at time t observes the state
    #: *after* every ordinary event of that instant has been processed.
    FAULT_INJECTION = 9


_SEQUENCE = itertools.count()


@dataclass(order=False, slots=True)
class Event:
    """A scheduled occurrence in simulated time.

    Events compare by ``(time, priority, seq)``.  ``seq`` is a process-global
    monotone counter, so insertion order breaks the remaining ties, which
    keeps the event loop fully deterministic.
    """

    time: float
    kind: EventKind
    callback: Callable[["Event"], None]
    payload: Any = None
    priority: int = field(default=-1)
    seq: int = field(default_factory=lambda: next(_SEQUENCE))
    cancelled: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not self.time >= 0:  # also rejects NaN
            raise ValueError(f"event time must be non-negative, got {self.time}")
        if self.priority < 0:
            self.priority = int(self.kind)

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine skips it when popped.

        Prefer :meth:`~repro.sim.engine.Engine.cancel` when an engine handle
        is around — it additionally feeds the heap-compaction accounting.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(t={self.time:.3f}, kind={self.kind.name}, "
            f"seq={self.seq}{', CANCELLED' if self.cancelled else ''})"
        )

