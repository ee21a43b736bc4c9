"""The clock/event-source protocol shared by every platform component.

The REACT middleware components (Profiling, Task Management, Scheduling,
Dynamic Assignment — :mod:`repro.platform`) and the retainer layer
(:mod:`repro.retainer`) never depend on *how* time advances; they only
``schedule`` callbacks, ``cancel`` them and read ``now``.
:class:`EventClock` names exactly that surface, so the same component
instances run unmodified on either

* the deterministic DES :class:`~repro.sim.engine.Engine`, where ``now`` is
  simulated seconds and ``run()`` drives dispatch, or
* the wall-clock asyncio runtime
  (:class:`repro.service.runtime.WallClockRuntime`), where ``now`` is
  monotonic seconds since service start and the event loop drives dispatch.

The protocol is structural (:class:`typing.Protocol`): ``Engine`` satisfies
it without importing this module at runtime, and the conformance battery in
``tests/service/test_clock_protocol.py`` pins the behavioural contract both
implementations must honour (ordering, cancellation, ``now`` monotonicity).

Contract highlights
-------------------
* ``now`` is monotone nondecreasing and constant per instant (every event
  due at one time observes the same ``now``).
* Events fire in ``(time, kind, seq)`` order for events that are queued
  together: the :class:`~repro.sim.events.EventKind` value is the priority
  of same-time events, and ``seq`` is the order they were scheduled in.
* ``cancel(event)`` before dispatch guarantees the callback never runs.
* ``schedule`` with a negative delay (or ``schedule_at`` in the past) raises
  :class:`~repro.sim.engine.SimulationError`.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from .events import Event, EventKind


@runtime_checkable
class EventClock(Protocol):
    """Event-source surface the platform components are written against."""

    @property
    def now(self) -> float:
        """Current time in seconds (simulated or wall-derived)."""
        ...

    def schedule(
        self,
        delay: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from ``now``."""
        ...

    def schedule_at(
        self,
        time: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at the absolute clock time ``time``."""
        ...

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event; its callback will never run."""
        ...
