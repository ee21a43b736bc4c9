"""Event primitives for the discrete-event simulation engine.

The REACT middleware in the paper runs on PlanetLab in wall-clock time; here
the same components are driven by a deterministic discrete-event simulator.
The engine orders events by ``(time, kind, seq)`` in its heap entries, so
that two runs with the same seed replay identically; the :class:`Event`
itself is only the handle a caller keeps to cancel it.
"""

from __future__ import annotations

import enum
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
    #: Chaos fault activation/deactivation (:mod:`repro.chaos`).  Lowest
    #: priority on purpose: a fault striking at time t observes the state
    #: *after* every ordinary event of that instant has been processed.
    FAULT_INJECTION = 9


class Event:
    """A scheduled callback: what :meth:`~repro.sim.engine.Engine.schedule`
    returns and :meth:`~repro.sim.engine.Engine.cancel` takes."""

    __slots__ = ("time", "callback", "payload", "cancelled")

    def __init__(
        self, time: float, callback: Callable[["Event"], None], payload: Any = None
    ) -> None:
        self.time = time
        self.callback = callback
        self.payload = payload
        self.cancelled = False
