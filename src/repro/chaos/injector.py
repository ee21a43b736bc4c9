"""The FaultInjector: wires a :class:`FaultSchedule` into a live server.

The injector schedules one FAULT_INJECTION event per fault activation and
(for windowed faults) one per deactivation, then perturbs the platform
through the explicit chaos interfaces the components expose:

* ``server.inject_abandonment`` — abandonment waves corrupt in-flight
  executions;
* ``server.execution_hook`` — no-show faults flip fresh assignments (the
  hook gets each new :class:`~repro.platform.task_management.Assignment`);
* ``profiling.observation_hook`` — stale-profile faults distort what the
  worker table (the Profiling Component) records;
* ``scheduling.latency_hook`` — matcher stalls inflate batch latency;
* ``dynamic_assignment.suspended`` / ``scheduling.suspended`` +
  ``server.orphan_assigned_tasks`` — sweep outages and blackouts.

Overlapping faults of the same kind compose: stall latencies add, no-show
probabilities apply independently, distortions multiply, and suspensions
are reference-counted so the component only resumes when the *last*
overlapping window closes.  All randomness (wave victim choice, no-show
coins) comes from a private generator seeded by ``schedule.seed``, so a
chaos run is exactly as deterministic as the fault-free simulation it
perturbs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..obs.runtime import NULL_OBS
from ..obs.trace import CHAOS_TRACK
from ..platform.task_management import Assignment
from ..sim.engine import Engine
from ..sim.events import Event, EventKind
from .faults import (
    AbandonmentWave,
    BlackoutFault,
    Fault,
    FaultSchedule,
    MatcherStallFault,
    NoShowFault,
    StaleProfileFault,
    SweepOutageFault,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..platform.server import REACTServer


@dataclass(frozen=True)
class FaultLogEntry:
    """One injector action, for reports and recovery assertions."""

    time: float
    kind: str
    action: str  # "activate" | "deactivate"
    detail: str = ""


class FaultInjector:
    """Executes a :class:`FaultSchedule` against one REACT server.

    Once armed, the server owns the injector through the hooks it installs,
    and the injector refers back to the server weakly: a caller may drop
    the injector after :meth:`arm`, and the run stays free of cycles.
    """

    def __init__(
        self,
        engine: Engine,
        server: "REACTServer",
        schedule: FaultSchedule,
    ) -> None:
        self.engine = engine
        self._server = weakref.ref(server)
        self.schedule = schedule
        self._rng = np.random.default_rng(np.random.SeedSequence(schedule.seed))
        self.log: List[FaultLogEntry] = []
        self._armed = False
        # Telemetry rides on the server's observability (no-op by default).
        obs = getattr(server, "obs", NULL_OBS)
        self._tracer = obs.tracer
        self._obs_activations = obs.registry.counter(
            "react_chaos_fault_activations_total",
            "Fault activations performed by the injector",
            labelnames=("kind",),
        )
        obs.registry.gauge(
            "react_chaos_faults_active", "Fault windows currently open",
            source=self._open_windows,
        )
        # Active-fault state; lists/counters so overlapping windows compose.
        self._active_stalls: List[MatcherStallFault] = []
        self._active_no_shows: List[NoShowFault] = []
        self._active_distortions: List[StaleProfileFault] = []
        self._sweep_suspensions = 0
        self._blackouts = 0
        self._orphans: Dict[BlackoutFault, List[int]] = {}

    @property
    def server(self) -> "REACTServer":
        server = self._server()
        if server is None:
            raise ReferenceError("the injector's server is gone")
        return server

    # ------------------------------------------------------------- arming
    def arm(self) -> "FaultInjector":
        """Install hooks and schedule every fault of the schedule.

        Must be called before the engine advances past the earliest
        ``fault.start`` (normally right after ``server.start()`` at t=0).
        """
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        self.server.execution_hook = self._execution_hook
        self.server.profiling.observation_hook = self._observation_hook
        self.server.scheduling.latency_hook = self._latency_hook
        for fault in self.schedule:
            self.engine.schedule_at(
                fault.start, EventKind.FAULT_INJECTION, self._activate, payload=fault
            )
            if fault.duration > 0:
                self.engine.schedule_at(
                    fault.end, EventKind.FAULT_INJECTION, self._deactivate, payload=fault
                )
        return self

    # ------------------------------------------------------------ dispatch
    def _activate(self, event: Event) -> None:
        fault: Fault = event.payload
        self.server.metrics.chaos_faults_injected += 1
        detail = ""
        if isinstance(fault, AbandonmentWave):
            detail = f"abandoned={self._strike_wave(fault)}"
        elif isinstance(fault, NoShowFault):
            self._active_no_shows.append(fault)
        elif isinstance(fault, StaleProfileFault):
            self._active_distortions.append(fault)
        elif isinstance(fault, MatcherStallFault):
            self._active_stalls.append(fault)
        elif isinstance(fault, SweepOutageFault):
            self._sweep_suspensions += 1
            self._sync_suspensions()
        elif isinstance(fault, BlackoutFault):
            self._blackouts += 1
            self._sync_suspensions()
            orphans = self.server.orphan_assigned_tasks()
            self._orphans[fault] = orphans
            detail = f"orphaned={len(orphans)}"
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown fault type {type(fault).__name__}")
        self.log.append(
            FaultLogEntry(time=self.engine.now, kind=fault.kind, action="activate", detail=detail)
        )
        self._obs_activations.labels(kind=fault.kind).inc()
        self._tracer.instant(
            f"fault.{fault.kind}",
            cat="chaos",
            tid=CHAOS_TRACK,
            action="activate",
            detail=detail,
        )

    def _deactivate(self, event: Event) -> None:
        fault: Fault = event.payload
        detail = ""
        if isinstance(fault, NoShowFault):
            self._active_no_shows.remove(fault)
        elif isinstance(fault, StaleProfileFault):
            self._active_distortions.remove(fault)
        elif isinstance(fault, MatcherStallFault):
            self._active_stalls.remove(fault)
        elif isinstance(fault, SweepOutageFault):
            self._sweep_suspensions -= 1
            self._sync_suspensions()
        elif isinstance(fault, BlackoutFault):
            self._blackouts -= 1
            self._sync_suspensions()
            detail = f"readopted={self._readopt(fault)}"
        self.log.append(
            FaultLogEntry(time=self.engine.now, kind=fault.kind, action="deactivate", detail=detail)
        )
        self._tracer.instant(
            f"fault.{fault.kind}",
            cat="chaos",
            tid=CHAOS_TRACK,
            action="deactivate",
            detail=detail,
        )

    # ------------------------------------------------------- fault actions
    def _strike_wave(self, fault: AbandonmentWave) -> int:
        """Make ``fraction`` of currently-executing workers walk away."""
        profiling = self.server.profiling
        victims = [
            task_id
            for worker_id in profiling
            if profiling.is_online(worker_id)
            and (task_id := profiling.current_task(worker_id)) is not None
        ]
        victims.sort()  # registration order varies; task-id order is stable
        count = int(round(fault.fraction * len(victims)))
        if count == 0 or not victims:
            return 0
        chosen = self._rng.choice(len(victims), size=min(count, len(victims)), replace=False)
        struck = 0
        for index in sorted(int(i) for i in chosen):
            if self.server.inject_abandonment(victims[index]):
                struck += 1
        return struck

    def _readopt(self, fault: BlackoutFault) -> int:
        """Count orphans re-adopted at recovery and restart the scheduler."""
        orphans = self._orphans.pop(fault, [])
        readopted = sum(
            1 for task_id in orphans if self.server.task_management.is_queued(task_id)
        )
        self.server.metrics.readopted_tasks += readopted
        if self._blackouts == 0:
            self.server.scheduling.maybe_trigger()
        return readopted

    def _sync_suspensions(self) -> None:
        self.server.dynamic_assignment.suspended = (
            self._sweep_suspensions + self._blackouts
        ) > 0
        self.server.scheduling.suspended = self._blackouts > 0

    # --------------------------------------------------------------- hooks
    def _execution_hook(self, assignment: Assignment) -> None:
        for fault in self._active_no_shows:
            if assignment.abandoned:
                break
            if self._rng.random() < fault.probability:
                assignment.abandoned = True
                assignment.duration = fault.hold_time
                self.server.metrics.chaos_no_shows += 1

    def _observation_hook(self, worker_id: int, execution_time: float) -> float:
        for fault in self._active_distortions:
            execution_time *= fault.distortion
            self.server.metrics.chaos_corrupted_observations += 1
        return execution_time

    def _latency_hook(self, latency: float) -> float:
        for fault in self._active_stalls:
            latency += fault.extra_latency
            self.server.metrics.matcher_stall_seconds += fault.extra_latency
        return latency

    def _open_windows(self) -> int:
        """Fault windows currently open (the active-faults gauge value)."""
        return (
            len(self._active_stalls)
            + len(self._active_no_shows)
            + len(self._active_distortions)
            + self._sweep_suspensions
            + self._blackouts
        )

    # ------------------------------------------------------------- queries
    def entries(self, kind: Optional[str] = None) -> List[FaultLogEntry]:
        if kind is None:
            return list(self.log)
        return [entry for entry in self.log if entry.kind == kind]
