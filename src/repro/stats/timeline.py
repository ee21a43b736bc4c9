"""Time-series instrumentation of a running REACT server.

The paper explains Fig. 5's Greedy collapse through *queueing* ("the
matching takes too long, causing a lot of queueing for the tasks") but
never shows the queues themselves.  :class:`TimelineRecorder` samples a
server's internal state on a fixed simulated-time grid — unassigned queue
length, tasks in execution, busy/available workers, trained workers,
cumulative matcher busy-time — producing the series that make the collapse
mechanism visible (see ``examples/queue_dynamics.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from ..sim.engine import Engine
from ..sim.events import EventKind
from ..sim.process import PeriodicProcess
from ..sim.weak import weak_method

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..platform.server import REACTServer


@dataclass(frozen=True)
class TimelineSample:
    """One snapshot of server state at a simulated instant."""

    time: float
    unassigned: int
    executing: int
    busy_workers: int
    available_workers: int
    trained_workers: int
    completed: int
    completed_on_time: int
    expired_unassigned: int
    matcher_busy_seconds: float


@dataclass
class Timeline:
    """An ordered collection of samples with column accessors."""

    samples: List[TimelineSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def column(self, name: str) -> List[float]:
        """Extract one field across all samples (e.g. ``"unassigned"``)."""
        if not self.samples:
            return []
        if not hasattr(self.samples[0], name):
            raise KeyError(f"unknown timeline column {name!r}")
        return [getattr(s, name) for s in self.samples]

    def peak(self, name: str) -> float:
        values = self.column(name)
        if not values:
            raise ValueError("empty timeline")
        return max(values)

    def at(self, time: float) -> TimelineSample:
        """The latest sample at or before ``time``."""
        candidates = [s for s in self.samples if s.time <= time]
        if not candidates:
            raise ValueError(f"no sample at or before t={time}")
        return candidates[-1]

    def as_rows(self) -> List[Dict[str, float]]:
        """Dict rows (for CSV export / reporting)."""
        return [vars(s) | {} for s in self.samples]


class TimelineRecorder:
    """Samples a server's state every ``period`` simulated seconds."""

    def __init__(
        self,
        engine: Engine,
        server: "REACTServer",
        period: float = 10.0,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._server = server
        self.timeline = Timeline()
        self._process = PeriodicProcess(
            engine, period=period, action=weak_method(self._sample),
            kind=EventKind.CALLBACK, start=engine.now,
        )

    def _sample(self, now: float) -> None:
        server = self._server
        metrics = server.metrics
        table = server.profiling
        available = table.n_available
        total_online = int(table.online[: table.size].sum())
        self.timeline.samples.append(
            TimelineSample(
                time=now,
                unassigned=server.task_management.unassigned_count,
                executing=server.task_management.assigned_count,
                busy_workers=total_online - available,
                available_workers=available,
                trained_workers=table.trained_count(
                    server.policy.min_history
                ),
                completed=metrics.completed,
                completed_on_time=metrics.completed_on_time,
                expired_unassigned=metrics.expired_unassigned,
                matcher_busy_seconds=metrics.matcher_simulated_seconds,
            )
        )

    def stop(self) -> None:
        self._process.stop()


def summarize_timeline(timeline: Timeline) -> Dict[str, float]:
    """Headline dynamics: peaks and end-state of the key series."""
    if not timeline.samples:
        return {}
    last = timeline.samples[-1]
    return {
        "samples": len(timeline),
        "peak_unassigned": timeline.peak("unassigned"),
        "peak_executing": timeline.peak("executing"),
        "peak_busy_workers": timeline.peak("busy_workers"),
        "final_completed": last.completed,
        "final_on_time": last.completed_on_time,
        "final_matcher_busy_seconds": round(last.matcher_busy_seconds, 1),
    }
