"""Sim-time tracing: spans and instant events with structured attributes.

The tracer records :class:`TraceEvent` objects stamped with *simulated*
seconds (the discrete-event engine clock), in the vocabulary of the Chrome
trace-event format so the exporters can emit Perfetto-loadable traces
without translation:

* ``ph="X"`` — a *complete* span with an explicit start and duration
  (matching batches, worker executions);
* ``ph="i"`` — an *instant* event (task submitted, Eq. 2 withdrawal,
  chaos fault activation).

Events live in a bounded ring buffer (``max_events``), so a long run keeps
the most recent window instead of growing without bound.  The engine keeps
no event log of its own; this tracer is the one structured path for run
instrumentation.

When tracing is disabled the platform holds :data:`NULL_TRACER`, whose
methods are empty.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Default ring-buffer capacity: generous for any quick/CI run, bounded for
#: the paper-scale ones (~35 MB of events at most).
DEFAULT_MAX_EVENTS = 200_000

#: Well-known track ids (Chrome trace ``tid``); worker executions render on
#: per-worker tracks offset by :data:`WORKER_TRACK_BASE`.
PLATFORM_TRACK = 0
SCHEDULER_TRACK = 1
MONITOR_TRACK = 2
CHAOS_TRACK = 3
WORKER_TRACK_BASE = 100

TRACK_NAMES: Dict[int, str] = {
    PLATFORM_TRACK: "platform",
    SCHEDULER_TRACK: "scheduling",
    MONITOR_TRACK: "dynamic-assignment",
    CHAOS_TRACK: "chaos",
}


@dataclass(frozen=True)
class TraceEvent:
    """One recorded trace event in sim-time seconds."""

    name: str
    cat: str
    ph: str  # "X" (complete span) | "i" (instant)
    ts: float  # simulated seconds
    dur: float = 0.0  # simulated seconds; only meaningful for ph="X"
    tid: int = PLATFORM_TRACK
    args: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "tid": self.tid,
        }
        if self.ph == "X":
            out["dur"] = self.dur
        if self.args:
            out["args"] = dict(self.args)
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceEvent":
        return cls(
            name=payload["name"],
            cat=payload.get("cat", ""),
            ph=payload.get("ph", "i"),
            ts=float(payload["ts"]),
            dur=float(payload.get("dur", 0.0)),
            tid=int(payload.get("tid", PLATFORM_TRACK)),
            args=tuple(sorted(payload.get("args", {}).items())),
        )


class Tracer:
    """Records sim-time events into a bounded ring buffer."""

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_events: Optional[int] = DEFAULT_MAX_EVENTS,
    ) -> None:
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._max_events = max_events
        self.events: Deque[TraceEvent] = deque(maxlen=max_events)
        #: Events evicted by the ring buffer (oldest-first), for reporting.
        self.dropped = 0
        #: Total events ever recorded (recorded = appended, pre-eviction);
        #: the perf overhead guard uses this as the call count.
        self.recorded = 0

    # ----------------------------------------------------------------- time
    def set_clock(self, clock: Callable[[], float]) -> None:
        """Late-bind the sim clock (the engine is usually built later)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------ recording
    def _append(self, event: TraceEvent) -> None:
        if self._max_events is not None and len(self.events) == self._max_events:
            self.dropped += 1
        self.events.append(event)
        self.recorded += 1

    def instant(self, name: str, cat: str = "", tid: int = PLATFORM_TRACK, **args: Any) -> None:
        """Record an instant event at the current sim time."""
        self._append(
            TraceEvent(
                name=name, cat=cat, ph="i", ts=self._clock(), tid=tid,
                args=tuple(sorted(args.items())),
            )
        )

    def complete(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        cat: str = "",
        tid: int = PLATFORM_TRACK,
        **args: Any,
    ) -> None:
        """Record a span with explicit start (and optional end) sim times.

        Most platform spans — a matching batch, a worker execution — know
        both endpoints only when they finish, so this explicit form is the
        workhorse; ``end=None`` means "now".
        """
        if end is None:
            end = self._clock()
        self._append(
            TraceEvent(
                name=name, cat=cat, ph="X", ts=start, dur=max(0.0, end - start),
                tid=tid, args=tuple(sorted(args.items())),
            )
        )

    # ------------------------------------------------------------- querying
    def __len__(self) -> int:
        return len(self.events)

    def by_name(self, name: str) -> List[TraceEvent]:
        return [e for e in self.events if e.name == name]


class NullTracer:
    """No-op tracer: the disabled-observability fast path."""

    __slots__ = ()
    enabled = False
    events: Tuple[TraceEvent, ...] = ()
    dropped = 0
    recorded = 0

    def set_clock(self, clock: Callable[[], float]) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def instant(self, name: str, cat: str = "", tid: int = PLATFORM_TRACK, **args: Any) -> None:
        pass

    def complete(self, name, start, end=None, cat="", tid=PLATFORM_TRACK, **args) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def by_name(self, name: str) -> List[TraceEvent]:
        return []


NULL_TRACER = NullTracer()


def worker_track(worker_id: int) -> int:
    """Chrome-trace track id for one worker's execution spans."""
    return WORKER_TRACK_BASE + worker_id
