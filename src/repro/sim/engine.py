"""Deterministic discrete-event simulation engine.

A minimal, allocation-light event loop: a binary heap of
``(time, priority, seq, Event)`` tuples — tuple entries keep the heap's
comparisons in C instead of calling :meth:`Event.__lt__` per sift step.  The
REACT platform components (:mod:`repro.platform`) schedule all of their
behaviour — task arrivals, batch triggers, matcher latency, task
completions, Eq. (2) monitor sweeps — through this engine, which is what
lets a slow matcher (Greedy, Fig. 5) visibly starve the task queue exactly
as on the paper's testbed.

Batched cohort dispatch
-----------------------
``run()`` drains every event sharing the head ``(time, priority)`` key into
a *cohort* and walks it in ``seq`` order.  Consecutive cohort members bound
for the same callback that has a registered **cohort handler**
(:meth:`Engine.register_cohort_handler`) are delivered as one
``handler(now, events)`` call instead of N separate callbacks; everything
else takes the compatibility path (`event.callback(event)` per event), which
is byte-identical to the sequential engine.  The total dispatch order is
exactly the sequential ``(time, priority, seq)`` order: cohort members keep
their seq order, events scheduled *by* a cohort carry later sequence numbers
so they form follow-up cohorts, and a same-time higher-priority event
scheduled mid-cohort preempts the remaining members just as it would have in
the one-at-a-time loop.

Allocation hygiene
------------------
``schedule(..., transient=True)`` draws events from a free-list
:class:`~repro.sim.events.EventPool` and recycles them right after dispatch;
only call sites that drop the returned handle may opt in.  Cancelled events
routed through :meth:`Engine.cancel` are counted, and when they exceed
``compact_fraction`` of a non-trivial heap the heap is rebuilt without them
(``peek_time``/``pending_active`` stay consistent either way).

Two clocks, one dispatcher
--------------------------
The live gateway's :class:`~repro.service.runtime.WallClockRuntime` owns an
``Engine`` and drives it with ``run(until=head)`` once per due instant; it
queues events through :meth:`Engine.push_at`, the one entry point that
places an event at an exact absolute time without delay arithmetic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .clock import CohortHandler
from .events import Event, EventKind, EventPool

__all__ = ["CohortHandler", "Engine", "SimulationError"]

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
        self._dispatching = False
        self._dispatched = 0
        self._cancelled_in_heap = 0
        self._pool = EventPool()
        self._cohort_handlers: Dict[Callable[[Event], None], CohortHandler] = {}

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

    @property
    def event_pool(self) -> EventPool:
        """The engine's free list for ``transient=True`` events."""
        return self._pool

    # ------------------------------------------------------------- schedule
    def schedule(
        self,
        delay: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = -1,
        transient: bool = False,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``transient=True`` draws the event from the :class:`EventPool` and
        recycles it immediately after dispatch (or on a cancelled pop): use
        it only when the returned handle is dropped.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if transient:
            event = self._pool.acquire(
                self._now + delay, kind, callback, payload, priority
            )
        else:
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
        transient: bool = False,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self._now}"
            )
        return self.schedule(
            time - self._now, kind, callback, payload, priority, transient
        )

    def push_at(
        self,
        time: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
        priority: int = -1,
    ) -> Event:
        """Queue ``callback`` at exactly ``time`` (never pooled).

        The seam for a driver that owns the clock: ``schedule_at`` goes
        through ``now + (time - now)``, which need not round-trip, and two
        events meant for one literal instant must form one cohort.
        """
        if time < self._now:
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
        """Rebuild the heap without cancelled entries (pool-releasing them).

        In place: ``run`` holds the heap list across callbacks, and a
        callback's ``cancel`` may land here.
        """
        release = self._pool.release
        heap = self._heap
        kept: List[_HeapEntry] = []
        for entry in heap:
            event = entry[3]
            if event.cancelled:
                if event.transient:
                    release(event)
            else:
                kept.append(entry)
        heapq.heapify(kept)
        heap[:] = kept
        self._cancelled_in_heap = 0

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------- cohorts
    def register_cohort_handler(
        self, callback: Callable[[Event], None], handler: CohortHandler
    ) -> None:
        """Route every cohort of ``callback`` events through ``handler``.

        ``handler(now, events)`` receives the consecutive run of
        non-cancelled events sharing the head ``(time, priority)`` that are
        bound for ``callback``, in ``seq`` order, instead of one
        ``callback(event)`` call each.  Handlers must preserve per-event
        semantics (the bit-equivalence suites compare against the sequential
        path) and must not structurally mutate the engine heap — scheduling
        new events is fine, draining it is not (see :meth:`drain`).
        """
        self._cohort_handlers[callback] = handler

    def unregister_cohort_handler(self, callback: Callable[[Event], None]) -> None:
        """Remove a cohort route; ``callback`` reverts to per-event dispatch."""
        self._cohort_handlers.pop(callback, None)

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
        self._running = True
        self._stopped = False
        fired = 0
        heap = self._heap
        handlers = self._cohort_handlers
        pool_release = self._pool.release
        drained = False
        try:
            while True:
                if not heap:
                    drained = True
                    break
                if self._stopped:
                    break
                if max_events is not None and fired >= max_events:
                    break
                key_time, key_priority = heap[0][0], heap[0][1]
                if until is not None and key_time > until:
                    self._now = until
                    break
                if key_time < self._now:  # pragma: no cover - defensive
                    raise SimulationError("heap produced an out-of-order event")

                event = heapq.heappop(heap)[3]
                if event.cancelled:
                    if self._cancelled_in_heap > 0:
                        self._cancelled_in_heap -= 1
                    if event.transient:
                        pool_release(event)
                    continue

                if not (
                    heap and heap[0][0] == key_time and heap[0][1] == key_priority
                ):
                    # Fast path: a cohort of one (the overwhelmingly common
                    # case) dispatches inline with no cohort list at all.
                    self._now = key_time
                    self._dispatched += 1
                    fired += 1
                    handler = handlers.get(event.callback) if handlers else None
                    if handler is None:
                        event.callback(event)
                    else:
                        self._dispatching = True
                        try:
                            handler(key_time, [event])
                        finally:
                            self._dispatching = False
                    if event.transient:
                        pool_release(event)
                    continue

                # Slow path: drain the rest of the head cohort — every
                # queued event at exactly (key_time, key_priority), capped
                # by the remaining max_events budget (counting only
                # not-yet-cancelled ones, mirroring the sequential loop's
                # accounting).
                cohort: List[Event] = [event]
                budget = None if max_events is None else max_events - fired
                live = 1
                while heap and heap[0][0] == key_time and heap[0][1] == key_priority:
                    if budget is not None and live >= budget:
                        break
                    peer = heapq.heappop(heap)[3]
                    if peer.cancelled:
                        if self._cancelled_in_heap > 0:
                            self._cancelled_in_heap -= 1
                        if peer.transient:
                            pool_release(peer)
                        continue
                    cohort.append(peer)
                    live += 1
                self._now = key_time

                fired += self._dispatch_cohort(
                    cohort, key_time, key_priority, handlers, pool_release
                )
        finally:
            self._running = False
        if drained and until is not None and until > self._now:
            # Heap drained; a horizon was given, so advance to it.
            self._now = until
        return self._now

    def _dispatch_cohort(
        self,
        cohort: List[Event],
        key_time: float,
        key_priority: int,
        handlers: Dict[Callable[[Event], None], CohortHandler],
        pool_release: Callable[[Event], None],
    ) -> int:
        """Dispatch one drained cohort in seq order; returns events fired.

        Re-checks cancellation per event (an earlier member may cancel a
        later one), honours ``stop()`` between members by pushing the
        remainder back, and yields to a same-time *higher-priority* event
        that a member scheduled — exactly what the one-at-a-time loop did.
        """
        heap = self._heap
        fired = 0
        index = 0
        n = len(cohort)
        self._dispatching = True
        try:
            while index < n:
                if self._stopped:
                    break
                # A member's callback may have scheduled an event at this
                # same time with a smaller priority value; sequentially it
                # would fire before the rest of this cohort does.
                if heap:
                    head = heap[0]
                    if head[0] == key_time and head[1] < key_priority:
                        break
                event = cohort[index]
                if event.cancelled:
                    index += 1
                    if event.transient:
                        pool_release(event)
                    continue
                handler = handlers.get(event.callback) if handlers else None
                if handler is None:
                    index += 1
                    self._dispatched += 1
                    fired += 1
                    event.callback(event)
                    if event.transient:
                        pool_release(event)
                    continue
                # Batched path: the consecutive run of live events bound for
                # this same callback becomes one handler call.
                batch = [event]
                scan = index + 1
                while scan < n:
                    peer = cohort[scan]
                    if peer.callback != event.callback:
                        break
                    if not peer.cancelled:
                        batch.append(peer)
                    scan += 1
                # Cancelled peers swallowed by the run above still need
                # their pool slot back.
                for position in range(index, scan):
                    member = cohort[position]
                    if member.cancelled and member.transient:
                        pool_release(member)
                index = scan
                self._dispatched += len(batch)
                fired += len(batch)
                handler(key_time, batch)
                for member in batch:
                    if member.transient:
                        pool_release(member)
        finally:
            self._dispatching = False
            if index < n:
                # stop() or a preempting event: the undispatched tail goes
                # back on the heap so a later run() resumes exactly here.
                for event in cohort[index:]:
                    heapq.heappush(
                        heap, (event.time, event.priority, event.seq, event)
                    )
        return fired

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if empty.

        Lazily pops cancelled head entries (consistent with
        :attr:`pending_active`: after a call, ``pending`` counts no
        cancelled events ahead of the returned time).
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            event = heapq.heappop(heap)[3]
            if self._cancelled_in_heap > 0:
                self._cancelled_in_heap -= 1
            if event.transient:
                self._pool.release(event)
        return heap[0][0] if heap else None

    def drain(self) -> Iterable[Event]:
        """Remove and yield all pending events (testing helper).

        Refuses to run while a cohort is mid-dispatch: handlers must never
        structurally mutate the heap under the run loop's feet.
        """
        if self._dispatching:
            raise SimulationError(
                "drain() during cohort dispatch: handlers must not mutate "
                "the engine heap"
            )
        return self._drain_iter()

    def _drain_iter(self) -> Iterator[Event]:
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event.cancelled:
                yield event
        self._cancelled_in_heap = 0
