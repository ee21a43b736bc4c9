"""Deterministic discrete-event simulation engine.

A minimal event loop over a binary heap of ``(time, kind, seq, Event)``
tuples.  The ordering keys live in the entry, so the heap's comparisons run
in C and never reach the :class:`Event` handle; ``kind`` is the
:class:`EventKind` priority of same-time events and ``seq`` this engine's
scheduling order.  The REACT platform components (:mod:`repro.platform`)
schedule all of their behaviour — task arrivals, batch triggers, matcher
latency, task completions, Eq. (2) monitor sweeps — through this engine,
which is what lets a slow matcher (Greedy, Fig. 5) visibly starve the task
queue exactly as on the paper's testbed.

The loop pops the head entry, skips it if cancelled, sets ``now`` and calls
the callback — nothing else.  Every event waits in the heap until its turn,
so a same-time, higher-priority event scheduled by a callback fires next
because of the heap order alone.  A cancelled event stays in the heap until
it reaches the head.

Two clocks, one loop
--------------------
The live gateway's :class:`~repro.service.runtime.WallClockRuntime` owns an
``Engine`` and drives it with ``run(until=head)`` once per due instant; it
queues events through :meth:`Engine.schedule_at`, which places an event at
exactly the absolute time it is given.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from .events import Event, EventKind

__all__ = ["Engine", "SimulationError"]

_HeapEntry = Tuple[float, int, int, Event]


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling into the past)."""


class Engine:
    """Discrete-event engine with a monotone simulated clock.

    The engine is single-threaded and deterministic: given the same sequence
    of ``schedule`` calls it dispatches the same events in the same order.
    Structured run telemetry comes from the observability tracer
    (:mod:`repro.obs`), not from the engine.
    """

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._seq = itertools.count()
        self._now: float = 0.0
        self._running = False
        self._stopped = False
        self._dispatched = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far."""
        return self._dispatched

    @property
    def pending(self) -> int:
        """Number of events still queued, **including cancelled ones**."""
        return len(self._heap)

    @property
    def pending_active(self) -> int:
        """Number of queued events that will actually fire (cancelled ones
        excluded).  O(pending) — a diagnostic, not a hot-path counter."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    # ------------------------------------------------------------- schedule
    def schedule(
        self,
        delay: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        # ``not >=`` so NaN is rejected too, at no extra comparison.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + delay, kind, callback, payload)

    def schedule_at(
        self,
        time: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at exactly the absolute simulated time ``time``.

        No delay arithmetic: ``now + (time - now)`` need not round-trip, and
        two events meant for one literal instant must share it.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self._now}"
            )
        return self._push(time, kind, callback, payload)

    def _push(
        self,
        time: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any,
    ) -> Event:
        event = Event(time, callback, payload)
        heapq.heappush(self._heap, (time, kind, next(self._seq), event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event: it is skipped when it reaches the head."""
        event.cancelled = True

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------ run
    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the heap drains or ``until`` is reached.

        Returns the simulated time at which the loop stopped.  Events with
        ``time > until`` remain queued, so a later ``run`` call resumes where
        this one paused.  ``until`` is inclusive: a head event at exactly
        ``until`` still fires.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        if until is not None and math.isnan(until):
            # NaN compares False with every event time: the loop would
            # never stop at the horizon.
            raise SimulationError("cannot run until NaN")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                if self._stopped:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    self._now = until
                    break
                event = heappop(heap)[3]
                if event.cancelled:
                    continue
                self._now = time
                self._dispatched += 1
                event.callback(event)
            else:
                if until is not None and until > self._now:
                    # Heap drained; a horizon was given, so advance to it.
                    self._now = until
        finally:
            self._running = False
        return self._now

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if empty.

        Pops cancelled head entries on the way, so afterwards ``pending``
        counts no cancelled event ahead of the returned time.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def drain(self) -> int:
        """Drop every pending event; return how many were still live.

        The owner of a finished run calls this: a pending event's callback
        points into the components that hold this engine (and a
        :class:`~repro.sim.process.PeriodicProcess` holds its pending event),
        so each dropped event is disarmed — its callback and payload
        cleared — and the run's object graph is left without a cycle.
        """
        live = 0
        for entry in self._heap:
            event = entry[3]
            live += not event.cancelled
            event.cancelled = True
            event.callback = _dropped
            event.payload = None
        self._heap.clear()
        return live


def _dropped(event: Event) -> None:
    """The callback of an event :meth:`Engine.drain` dropped."""
