"""Wall-clock asyncio event source satisfying the :class:`EventClock` protocol.

:class:`WallClockRuntime` is a thin wall-clock driver over one DES
:class:`~repro.sim.engine.Engine` it owns: the engine holds the ``(time,
kind, seq)`` heap, cancellation, dispatch order and the dispatch count,
and the runtime decides *when* the engine runs — as the asyncio loop's
monotonic clock reaches each due instant — instead of jumping straight to
the next event.  The platform components cannot tell the difference — they
see the :class:`~repro.sim.clock.EventClock` surface only — which is what
lets one :class:`~repro.platform.scheduling.SchedulingComponent` instance
run a simulation today and a live gateway tomorrow, through the same loop.

Design notes
------------

* **One armed timer.**  Instead of one ``loop.call_at`` per event (which
  would make ``cancel`` an O(log n) loop-handle dance), the runtime arms a
  single timer for the engine's head.  Scheduling an earlier event re-arms;
  cancellation just flags the event (lazily skipped by the engine), and
  cancelling the last live one releases :meth:`WallClockRuntime.drained`
  waiters at once.
* **One engine run per due instant.**  When the timer fires, the runtime
  calls ``engine.run(until=head)`` for each due head time in turn, so the
  dispatch order is the engine's own — the DES and the live path share one
  event loop rather than mirroring it.
* **Frozen ``now``.**  ``now`` is monotone nondecreasing and *frozen* for
  the duration of one due instant, so every event of the instant observes
  the same ``now`` — the DES engine gives the same guarantee, and the Eq. 2
  sweep's batch evaluation depends on it.  A late instant observes the
  monotone floor, not its scheduled time.  Between instants the clock is
  re-read, so a callback loop cannot livelock the loop at one instant.
* **Sliced draining.**  One timer firing drains due instants for at most
  :data:`DRAIN_SLICE_WALL` wall seconds (checked between instants); if the
  runtime is still behind it yields the loop one iteration (``call_soon``)
  and resumes.  Without the slice, a runtime that falls behind real time —
  self-rescheduling events whose processing outpaces their period under
  CPU contention — would drain forever inside one callback, starving every
  socket on the loop: heartbeats and answers stop flowing, so the backlog
  that caused the lag can never clear, and the loop livelocks at 100% CPU.
* **``time_scale``.**  Clock seconds per wall second.  1.0 for real
  serving; the conformance and gateway tests run at 50-500x so a "10
  simulated seconds" scenario finishes in tens of milliseconds of real
  time.  Scaling happens at the clock read, so schedules/deadlines are
  expressed in *clock* seconds everywhere.

The runtime never blocks the loop: ``_fire`` runs synchronously (platform
callbacks are plain functions), then control returns to asyncio.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, List, Optional

from ..sim.engine import Engine, SimulationError
from ..sim.events import Event, EventKind

#: Wall seconds one timer firing may spend draining before yielding the
#: loop back to I/O.  Large enough that no sane backlog ever hits it;
#: small enough that sockets stay responsive while the runtime catches up.
DRAIN_SLICE_WALL = 0.05


class ServiceRuntimeError(RuntimeError):
    """Raised for misuse of the wall-clock runtime (e.g. use after close)."""


class WallClockRuntime:
    """Monotonic wall-clock event source driven by an asyncio loop."""

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        time_scale: float = 1.0,
    ) -> None:
        if not time_scale > 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._scale = time_scale
        self._origin = self._loop.time()
        self._engine = Engine()
        self._timer: Optional[asyncio.Handle] = None
        #: Clock time the armed timer targets (inf = no timer armed).
        self._armed_for = math.inf
        self._dispatching = False
        #: Clock value every callback in the current instant observes.
        self._frozen: Optional[float] = None
        #: Monotone floor: ``now`` never reads below the last dispatch time.
        self._floor = 0.0
        self._closed = False
        self._idle_waiters: List[asyncio.Future[None]] = []

    # ------------------------------------------------------------------ time
    def _read(self) -> float:
        return (self._loop.time() - self._origin) * self._scale

    @property
    def now(self) -> float:
        """Monotonic clock seconds since the runtime was created."""
        if self._frozen is not None:
            return self._frozen
        value = self._read()
        if value < self._floor:
            return self._floor
        self._floor = value
        return value

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far."""
        return self._engine.dispatched

    @property
    def pending(self) -> int:
        """Queued events, including cancelled ones (cheap)."""
        return self._engine.pending

    @property
    def pending_active(self) -> int:
        """Queued events that will actually fire."""
        return self._engine.pending_active

    @property
    def time_scale(self) -> float:
        return self._scale

    @property
    def closed(self) -> bool:
        return self._closed

    def peek_time(self) -> Optional[float]:
        """Clock time of the next non-cancelled event, or None."""
        return self._engine.peek_time()

    # ------------------------------------------------------------- schedule
    def schedule(
        self,
        delay: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` clock seconds from now."""
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = self._engine.schedule_at(self.now + delay, kind, callback, payload)
        self._arm()
        return event

    def schedule_at(
        self,
        time: float,
        kind: EventKind,
        callback: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute clock time ``time``.

        The event is placed at exactly ``time`` rather than via a delay
        round-trip: wall time advances between two ``now`` reads, so
        ``schedule(time - now, ...)`` would give two events scheduled for
        the same literal instant slightly different times.
        """
        if self._closed:
            raise ServiceRuntimeError("runtime is closed")
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={now}"
            )
        event = self._engine.schedule_at(time, kind, callback, payload)
        self._arm()
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (lazily skipped at dispatch).

        Cancelling the last live event releases :meth:`drained` waiters now,
        not at the cancelled event's due time.
        """
        self._engine.cancel(event)
        if self._idle_waiters and self._engine.pending_active == 0:
            self._arm()

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Drop every pending event and refuse further scheduling."""
        self._closed = True
        self._cancel_timer()
        if self._dispatching:
            # The engine stops after the running callback; _fire drops the
            # rest once run() returns.
            self._engine.stop()
        else:
            self._engine.drain()
        self._notify_idle()

    async def drained(self) -> None:
        """Await the instant the engine holds no live events.

        Events scheduled *while* waiting extend the wait; a closed runtime
        resolves immediately.
        """
        if self._closed or self.peek_time() is None:
            return
        waiter: asyncio.Future[None] = self._loop.create_future()
        self._idle_waiters.append(waiter)
        await waiter

    async def run_for(self, clock_seconds: float) -> None:
        """Let the runtime dispatch for ``clock_seconds`` of clock time.

        Test/driver convenience: sleeps the calling coroutine for the
        corresponding *wall* duration while timers fire underneath.
        """
        await asyncio.sleep(clock_seconds / self._scale)

    # ------------------------------------------------------------ internals
    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed_for = math.inf

    def _notify_idle(self) -> None:
        if not self._idle_waiters:
            return
        waiters, self._idle_waiters = self._idle_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def _arm(self) -> None:
        """Point the single timer at the engine's head (no-op mid-dispatch)."""
        if self._dispatching or self._closed:
            return
        head = self._engine.peek_time()
        if head is None:
            self._cancel_timer()
            self._notify_idle()
            return
        if self._timer is not None and self._armed_for <= head:
            return
        self._cancel_timer()
        self._armed_for = head
        wall_at = self._origin + head / self._scale
        self._timer = self._loop.call_at(
            max(wall_at, self._loop.time()), self._fire
        )

    def _fire(self) -> None:
        """Timer callback: run the engine through due instants for one
        slice, then re-arm.

        Draining is bounded to :data:`DRAIN_SLICE_WALL` wall seconds per
        firing, checked between instants; a runtime still behind after the
        slice re-queues itself with ``call_soon`` so the loop can service
        I/O in between — the sockets delivering answers are what shrink the
        backlog.
        """
        self._timer = None
        self._armed_for = math.inf
        engine = self._engine
        slice_end = self._loop.time() + DRAIN_SLICE_WALL
        behind = False
        self._dispatching = True
        try:
            while not self._closed:
                head = engine.peek_time()
                if head is None or head > max(self._read(), self._floor):
                    break
                if self._loop.time() >= slice_end:
                    behind = True
                    break
                # Every callback of the instant observes one frozen `now`:
                # its due time, or the floor if an outside read already
                # moved past it, so `now` stays monotone.
                self._floor = max(self._floor, head)
                self._frozen = self._floor
                try:
                    engine.run(until=head)
                finally:
                    self._frozen = None
        finally:
            self._dispatching = False
        if self._closed:
            self._engine.drain()
            return
        if behind:
            # -inf keeps _arm from cancelling this handle: any head is later.
            self._armed_for = -math.inf
            self._timer = self._loop.call_soon(self._fire)
            return
        self._arm()
