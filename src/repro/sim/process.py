"""Lightweight recurring-process helpers on top of any :class:`~repro.sim.clock.EventClock`.

The REACT server components need two scheduling idioms beyond one-shot
events: *periodic* activities (the Dynamic Assignment monitor sweep, periodic
batch triggers) and *generator-driven* arrival processes (the next arrival
time depends on a random draw).  Both are provided here so platform code
stays declarative.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .clock import EventClock
from .events import Event, EventKind


class PeriodicProcess:
    """Fires ``action(now)`` every ``period`` seconds until stopped.

    The first firing happens at ``start`` (default: one period from now).
    """

    def __init__(
        self,
        engine: EventClock,
        period: float,
        action: Callable[[float], None],
        kind: EventKind = EventKind.CALLBACK,
        start: Optional[float] = None,
    ) -> None:
        if not period > 0:  # also rejects NaN
            raise ValueError(f"period must be positive, got {period}")
        self._engine = engine
        self._period = period
        self._action = action
        self._kind = kind
        self._stopped = False
        first_delay = period if start is None else max(0.0, start - engine.now)
        self._pending: Optional[Event] = engine.schedule(first_delay, kind, self._fire)

    @property
    def period(self) -> float:
        return self._period

    def _fire(self, event: Event) -> None:
        # The event has left the heap; holding it would keep this process
        # reachable from its own callback.
        self._pending = None
        if self._stopped:
            return
        self._action(self._engine.now)
        if not self._stopped:
            self._pending = self._engine.schedule(self._period, self._kind, self._fire)

    def stop(self) -> None:
        self._stopped = True
        if self._pending is not None:
            self._engine.cancel(self._pending)
            self._pending = None


class GeneratorProcess:
    """Drives a generator of ``(delay, payload)`` pairs through the engine.

    Each yielded pair schedules ``action(payload)`` after ``delay`` seconds
    of simulated time, then pulls the next pair.  Arrival processes
    (:mod:`repro.workload.arrivals`) are expressed this way so the stochastic
    gap structure lives with the workload code, not the platform.
    """

    def __init__(
        self,
        engine: EventClock,
        gaps: Iterator[tuple[float, object]],
        action: Callable[[object], None],
        kind: EventKind = EventKind.CALLBACK,
    ) -> None:
        self._engine = engine
        self._gaps = gaps
        self._action = action
        self._kind = kind
        self._stopped = False
        self._count = 0
        self._advance()

    @property
    def emitted(self) -> int:
        """Number of payloads delivered so far."""
        return self._count

    def _advance(self) -> None:
        if self._stopped:
            return
        try:
            delay, payload = next(self._gaps)
        except StopIteration:
            return
        if delay < 0:
            raise ValueError(f"generator produced a negative delay: {delay}")
        self._engine.schedule(delay, self._kind, self._fire, payload=payload)

    def _fire(self, event: Event) -> None:
        if self._stopped:
            return
        self._count += 1
        self._action(event.payload)
        self._advance()

    def stop(self) -> None:
        self._stopped = True
