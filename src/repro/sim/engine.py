"""Deterministic discrete-event simulation engine.

A minimal event loop over a binary heap of
``(time, priority, seq, Event)`` tuples — tuple entries keep the heap's
comparisons in C instead of calling :meth:`Event.__lt__` per sift step.  The
REACT platform components (:mod:`repro.platform`) schedule all of their
behaviour — task arrivals, batch triggers, matcher latency, task
completions, Eq. (2) monitor sweeps — through this engine, which is what
lets a slow matcher (Greedy, Fig. 5) visibly starve the task queue exactly
as on the paper's testbed.

The loop pops the head entry, skips it if cancelled, sets ``now`` and calls
the callback — nothing else.  Every event waits in the heap until its turn,
so a same-time, higher-priority event scheduled by a callback fires next
because of the heap order alone.

Cancelled events routed through :meth:`Engine.cancel` are counted, and when
they exceed ``COMPACT_FRACTION`` of a non-trivial heap the heap is rebuilt
without them (``peek_time``/``pending_active`` stay consistent either way).

Two clocks, one loop
--------------------
The live gateway's :class:`~repro.service.runtime.WallClockRuntime` owns an
``Engine`` and drives it with ``run(until=head)`` once per due instant; it
queues events through :meth:`Engine.schedule_at`, which places an event at
exactly the absolute time it is given.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from .events import Event, EventKind

__all__ = ["Engine", "SimulationError"]

_HeapEntry = Tuple[float, int, int, Event]

#: Compact the heap when cancelled entries exceed this fraction of it.
COMPACT_FRACTION = 0.5
#: ... but never bother below this many queued events.
COMPACT_MIN_PENDING = 64


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
        self._now: float = 0.0
        self._running = False
        self._stopped = False
        self._dispatched = 0
        self._cancelled_in_heap = 0

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
        """Number of events still queued, **including cancelled ones**.

        Cheap (O(1)) but misleading for backpressure decisions when many
        queued events have been cancelled; use :attr:`pending_active` there.
        """
        return len(self._heap)

    @property
    def pending_active(self) -> int:
        """Number of queued events that will actually fire (cancelled ones
        excluded).  O(pending) — a diagnostic, not a hot-path counter."""
        heap = self._heap
        cancelled = 0
        for entry in heap:
            if entry[3].cancelled:
                cancelled += 1
        return len(heap) - cancelled

    # ------------------------------------------------------------- schedule
    def schedule(
        self,
        delay: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = -1,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        # ``not >=`` so NaN is rejected too, at no extra comparison.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(
            time=self._now + delay,
            kind=kind,
            callback=callback,
            payload=payload,
            priority=priority,
        )
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = -1,
    ) -> Event:
        """Schedule ``callback`` at exactly the absolute simulated time ``time``.

        No delay arithmetic: ``now + (time - now)`` need not round-trip, and
        two events meant for one literal instant must share it.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self._now}"
            )
        event = Event(
            time=time, kind=kind, callback=callback, payload=payload, priority=priority
        )
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event and feed the compaction accounting.

        Equivalent to ``event.cancel()`` plus bookkeeping: when cancelled
        entries exceed ``COMPACT_FRACTION`` of a heap larger than
        ``COMPACT_MIN_PENDING`` the heap is rebuilt without them, keeping
        long runs with heavy cancellation (churn, chaos, retainer release)
        from dragging dead entries through every sift.
        """
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            len(heap) > COMPACT_MIN_PENDING
            and self._cancelled_in_heap > COMPACT_FRACTION * len(heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        In place: ``run`` holds the heap list across callbacks, and a
        callback's ``cancel`` may land here.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------ run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Dispatch events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.

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
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                if self._stopped:
                    break
                if max_events is not None and fired >= max_events:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    self._now = until
                    break
                event = heappop(heap)[3]
                if event.cancelled:
                    if self._cancelled_in_heap > 0:
                        self._cancelled_in_heap -= 1
                    continue
                self._now = time
                self._dispatched += 1
                fired += 1
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

        Lazily pops cancelled head entries (consistent with
        :attr:`pending_active`: after a call, ``pending`` counts no
        cancelled events ahead of the returned time).
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            if self._cancelled_in_heap > 0:
                self._cancelled_in_heap -= 1
        return heap[0][0] if heap else None

    def drain(self) -> List[Event]:
        """Remove every pending event; return the live ones in firing order.

        The owner of a finished run calls this: a pending event's callback
        points into the components that hold this engine, so until the heap
        is emptied the run's object graph is cyclic.
        """
        heap = self._heap
        live = [entry[3] for entry in sorted(heap) if not entry[3].cancelled]
        heap.clear()
        self._cancelled_in_heap = 0
        return live
