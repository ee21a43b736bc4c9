"""Worker churn: connectivity sessions and departures.

Section I motivates REACT with a "highly dynamic crowd" where "even the
most reliable workers may have short connectivity cycles", and §III-C
promises that the Dynamic Assignment Component "is able to deal with
changes in the worker set ... by reassigning the tasks when workers abandon
the system and new workers can receive unassigned tasks".

:class:`ChurnProcess` drives that behaviour end to end: each worker
alternates between online *sessions* (exponential, mean
``mean_session_s``) and offline *absences* (exponential, mean
``mean_absence_s``).  Going offline uses the server's churn path — a task
the worker held is withdrawn and re-queued; coming back online re-registers
the same profile with the history he left with, as a returning worker
would have it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..model.worker import WorkerBehavior, WorkerProfile
from ..model.worker_table import WorkerHistory
from ..sim.clock import EventClock
from ..sim.events import Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..platform.server import RegionServer


@dataclass
class ChurnStats:
    departures: int = 0
    returns: int = 0
    tasks_disrupted: int = 0


@dataclass
class _WorkerChurnState:
    profile: WorkerProfile
    behavior: Optional[WorkerBehavior]
    online: bool = True
    #: what the server observed of him, kept while he is away
    history: Optional[WorkerHistory] = None


class ChurnProcess:
    """Alternating online/offline sessions for every worker of a server.

    Parameters
    ----------
    mean_session_s / mean_absence_s:
        Means of the exponential online/offline durations.
    rng:
        Stream for the session draws (`repro.sim.rng.STREAM_CHURN`).
    """

    def __init__(
        self,
        engine: EventClock,
        server: "RegionServer",
        rng: np.random.Generator,
        mean_session_s: float = 300.0,
        mean_absence_s: float = 120.0,
    ) -> None:
        if mean_session_s <= 0 or mean_absence_s <= 0:
            raise ValueError("session/absence means must be positive")
        self._engine = engine
        self._server = server
        self._rng = rng
        self._mean_session = mean_session_s
        self._mean_absence = mean_absence_s
        self._states: Dict[int, _WorkerChurnState] = {}
        self._stopped = False
        self.stats = ChurnStats()

    def track_all_workers(self) -> None:
        """Start churn cycles for every worker currently on the server."""
        for profile in self._server.profiling.profiles():
            self.track(profile, self._server.behavior_of(profile.worker_id))

    def track(self, profile: WorkerProfile, behavior: Optional[WorkerBehavior]) -> None:
        if profile.worker_id in self._states:
            raise ValueError(f"worker {profile.worker_id} already tracked")
        state = _WorkerChurnState(profile=profile, behavior=behavior)
        self._states[profile.worker_id] = state
        self._schedule_departure(state)

    # ------------------------------------------------------------- cycles
    def _schedule_departure(self, state: _WorkerChurnState) -> None:
        delay = float(self._rng.exponential(self._mean_session))
        self._engine.schedule(
            delay, EventKind.WORKER_DEPARTURE, self._depart, payload=state
        )

    def _schedule_return(self, state: _WorkerChurnState) -> None:
        delay = float(self._rng.exponential(self._mean_absence))
        self._engine.schedule(
            delay, EventKind.WORKER_ARRIVAL, self._return, payload=state
        )

    def _depart(self, event: Event) -> None:
        if self._stopped:
            return
        state: _WorkerChurnState = event.payload
        if not state.online:  # pragma: no cover - defensive
            return
        worker_id = state.profile.worker_id
        if self._server.profiling.current_task(worker_id) is not None:
            self.stats.tasks_disrupted += 1
        if worker_id in self._server.profiling:
            state.history = self._server.remove_worker(worker_id)
        state.online = False
        self.stats.departures += 1
        self._schedule_return(state)

    def _return(self, event: Event) -> None:
        if self._stopped:
            return
        state: _WorkerChurnState = event.payload
        if state.online:  # pragma: no cover - defensive
            return
        # The same human comes back, and his row continues his history.
        self._server.add_worker(state.profile, state.behavior, state.history)
        state.online = True
        self.stats.returns += 1
        self._schedule_departure(state)

    def stop(self) -> None:
        self._stopped = True
