"""Live region server: the pull delivery of the shared REACT region server.

:class:`~repro.platform.server.RegionServer` owns the component wiring,
lifecycle, departures, submit/adopt, running expiry, Eq. 2 withdrawals and
the summary.  :class:`LiveRegionServer` adds only what pull delivery needs:

* An assignment parks a :class:`DispatchNotice` in the worker's inbox,
  handed out on the next heartbeat only if (phase, worker, generation) still
  match (AMT-style: the middleware never calls the worker, the worker polls).
* A result arrives via :meth:`LiveRegionServer.submit_answer`, checked on
  (phase, worker): a dawdler whose task was withdrawn gets ``stale`` back
  and is released, not credited.
* Positive feedback is ``met_deadline``: a service must not draw feedback
  coins from the experiment RNG streams.
* Liveness culling replaces simulated churn; a departure also drops the
  worker's inbox slot and last-seen time.
* Registration and a stale answer poke the scheduler (fresh supply); the
  simulator does not, because there a trigger decides when a batch fires.
* The default cost model is :class:`~repro.platform.cost.ZeroCost`: the
  matcher's latency is real wall time here.

``tests/service/test_server_conformance.py`` runs this and the simulated
delivery through one battery on the DES engine; the gateway suite runs this
one on the wall-clock runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..model.task import Task, TaskPhase
from ..model.worker import WorkerProfile
from ..obs.runtime import ObservabilityLike
from ..platform.cost import CostModel, ZeroCost
from ..platform.policies import SchedulingPolicy
from ..platform.server import RegionServer
from ..sim.clock import EventClock
from ..sim.process import PeriodicProcess
from ..sim.rng import RngRegistry
from ..stats.metrics import MetricsCollector

#: Seconds between liveness sweeps when a ``liveness_timeout`` is set.
LIVENESS_INTERVAL = 2.0


@dataclass
class DispatchNotice:
    """One published assignment awaiting delivery to its worker."""

    task_id: int
    worker_id: int
    #: ``task.assignments`` stamp at publication; delivery and answers are
    #: validated against it so a withdrawn-then-reassigned task can never be
    #: answered by a stale worker.
    generation: int
    category: str
    reward: float
    #: Absolute clock deadline the worker must beat.
    deadline_at: float
    assigned_at: float


@dataclass(frozen=True)
class AnswerOutcome:
    """Result of one :meth:`LiveRegionServer.submit_answer` call."""

    status: str  # "completed" | "stale" | "unknown_task" | "unknown_worker"
    met_deadline: bool = False

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class LiveRegionServer(RegionServer):
    """Pull delivery: live workers poll for assignments and post answers."""

    def __init__(
        self,
        clock: EventClock,
        policy: SchedulingPolicy,
        rng: RngRegistry,
        cost_model: Optional[CostModel] = None,
        metrics: Optional[MetricsCollector] = None,
        observability: Optional[ObservabilityLike] = None,
        liveness_timeout: Optional[float] = None,
        on_dispatch: Optional[Callable[[DispatchNotice], None]] = None,
    ) -> None:
        if liveness_timeout is not None and liveness_timeout <= 0:
            raise ValueError("liveness_timeout must be positive")
        # Live mode defaults to ZeroCost: the matcher's latency is real wall
        # time here, not a simulated charge.
        cost_model = cost_model if cost_model is not None else ZeroCost()
        super().__init__(clock, policy, rng, cost_model, metrics, observability)
        self._liveness_timeout = liveness_timeout
        self._on_dispatch = on_dispatch
        #: Undelivered assignment per worker (a worker executes one task at
        #: a time, so one slot suffices — a newer dispatch for the same
        #: worker cannot occur while the old one is live).
        self._inbox: Dict[int, DispatchNotice] = {}
        self._last_seen: Dict[int, float] = {}
        self._liveness_sweep: Optional[PeriodicProcess] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Arm the periodic batch trigger, Eq. 2 monitor and liveness sweep."""
        super().start()
        if self._liveness_timeout is not None:
            self._liveness_sweep = PeriodicProcess(
                self.engine,
                period=LIVENESS_INTERVAL,
                action=self._cull_dead_workers,
            )

    def stop(self) -> None:
        super().stop()
        if self._liveness_sweep is not None:
            self._liveness_sweep.stop()
            self._liveness_sweep = None

    # -------------------------------------------------------------- workers
    def add_worker(self, profile: WorkerProfile, behavior: object = None) -> None:
        """A live worker connects (HTTP register).

        ``behavior`` is accepted and ignored: live workers have no simulated
        ground truth.
        """
        self.profiling.register(profile)
        self._last_seen[profile.worker_id] = self.engine.now
        self._tracer.instant("worker.registered", cat="service", worker_id=profile.worker_id)
        # Fresh supply may make queued work matchable right away.
        self.scheduling.maybe_trigger()

    def _forget(self, worker_id: int) -> None:
        self._inbox.pop(worker_id, None)
        self._last_seen.pop(worker_id, None)

    def heartbeat(self, worker_id: int) -> Optional[DispatchNotice]:
        """Worker keep-alive; returns a pending assignment, if any.

        Raises :class:`KeyError` for an unknown worker (the gateway maps
        that to 404 so a culled worker knows to re-register).
        """
        if worker_id not in self.profiling:
            raise KeyError(worker_id)
        self._last_seen[worker_id] = self.engine.now
        notice = self._inbox.pop(worker_id, None)
        if notice is None:
            return None
        # Deliver only if the assignment is still current: Eq. 2 or expiry
        # may have withdrawn it between publication and this poll.
        try:
            task = self.task_management.get(notice.task_id)
        except KeyError:  # pragma: no cover - tasks are never deleted
            return None
        if (
            task.phase is not TaskPhase.ASSIGNED
            or task.assigned_worker != worker_id
            or task.assignments != notice.generation
        ):
            return None
        return notice

    def submit_answer(self, worker_id: int, task_id: int) -> AnswerOutcome:
        """Answer callback: the worker returns a result for ``task_id``."""
        if worker_id not in self.profiling:
            return AnswerOutcome(status="unknown_worker")
        try:
            task = self.task_management.get(task_id)
        except KeyError:
            return AnswerOutcome(status="unknown_task")
        now = self.engine.now
        self._last_seen[worker_id] = now
        if task.phase is not TaskPhase.ASSIGNED or task.assigned_worker != worker_id:
            # Withdrawn while the worker dawdled: the answer is discarded (he
            # was released when the task left him) — the DES completion
            # event's stale path.
            self._end_dawdle(task_id, worker_id)
            self.scheduling.maybe_trigger()
            return AnswerOutcome(status="stale")
        assigned_at = task.assigned_at if task.assigned_at is not None else now
        self.task_management.complete(task, now)
        on_time = task.met_deadline
        self._record_completion(task, worker_id, now - assigned_at, on_time)
        return AnswerOutcome(status="completed", met_deadline=on_time)

    # ---------------------------------------------------------------- tasks
    def task_status(self, task_id: int) -> Dict[str, object]:
        """Requester-facing task state (gateway GET /tasks/{id})."""
        task = self.task_management.get(task_id)
        return {
            "task_id": task.task_id,
            "phase": task.phase.name.lower(),
            "assignments": task.assignments,
            "submitted_at": task.submitted_at,
            "completed_at": task.completed_at,
            "met_deadline": task.met_deadline if task.completed_at is not None else None,
        }

    @property
    def in_flight(self) -> int:
        """Tasks submitted and not yet finished (backpressure signal)."""
        return self.task_management.in_flight

    # ------------------------------------------------------------- delivery
    def _deliver(self, task: Task, worker: WorkerProfile) -> None:
        """Park a dispatch notice for the worker's next heartbeat."""
        notice = DispatchNotice(
            task_id=task.task_id,
            worker_id=worker.worker_id,
            generation=task.assignments,
            category=task.category.value,
            reward=task.reward,
            deadline_at=task.absolute_deadline,
            assigned_at=self.engine.now,
        )
        self._inbox[worker.worker_id] = notice
        if self._on_dispatch is not None:
            self._on_dispatch(notice)

    # ------------------------------------------------------------- liveness
    def _cull_dead_workers(self, now: float) -> None:
        assert self._liveness_timeout is not None  # armed only when set
        cutoff = now - self._liveness_timeout
        dead = [
            worker_id
            for worker_id, seen in self._last_seen.items()
            if seen < cutoff
        ]
        for worker_id in dead:
            self._tracer.instant(
                "worker.liveness_cull", cat="service", worker_id=worker_id
            )
            self.remove_worker(worker_id)
        if dead:
            self.scheduling.maybe_trigger()
