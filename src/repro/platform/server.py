"""REACT region server (§III-A, Figure 1).

:class:`RegionServer` wires the four components — Profiling (the
:class:`~repro.model.worker_table.WorkerTable` held as ``profiling``), Task
Management, Scheduling, Dynamic Assignment — to an
:class:`~repro.sim.clock.EventClock` for one region, and owns everything
that does not depend on how work reaches a worker.  A subclass is a
*delivery*: it implements :meth:`RegionServer._deliver` (an assignment was
published) and :meth:`RegionServer._forget` (a worker departed), and feeds
accepted results to :meth:`RegionServer._record_completion`.

:class:`REACTServer` is the push delivery of the simulation.  It owns the
worker ground truth (:class:`WorkerBehavior`): on assignment it draws the
worker's *actual* duration and schedules the completion event; the
components only ever see the outcome, as the real middleware only observes
what human workers return.  A dawdler whose task was pulled back by Eq. (2)
is released at once and still "finishes" at his sampled time — the
completion event carries the :class:`~.task_management.Assignment` record
and, finding it no longer live, discards the result.
The pull delivery for live workers is ``repro.service.bridge.LiveRegionServer``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.deadline import DeadlineEstimator
from ..graph.builders import AssignmentGraphBuilder, BudgetGate, RewardRange
from ..model.feedback import FeedbackModel
from ..model.task import Task, TaskPhase
from ..model.worker import WorkerBehavior, WorkerProfile
from ..model.worker_table import WorkerHistory, WorkerTable
from ..obs.runtime import ObservabilityLike, resolve
from ..obs.trace import worker_track
from ..sim.clock import EventClock
from ..sim.events import Event, EventKind
from ..sim.process import PeriodicProcess
from ..sim.rng import (
    STREAM_FEEDBACK,
    STREAM_MATCHER,
    STREAM_WORKER_BEHAVIOR,
    BlockReader,
    RngRegistry,
)
from ..sim.weak import weak_method
from ..stats.duration_models import make_family
from ..stats.metrics import MetricsCollector, TaskOutcome
from .cost import CostModel, PaperCalibratedCost
from .dynamic_assignment import DynamicAssignmentComponent
from .policies import SchedulingPolicy
from .resilience import DegradedModeController, ResilienceConfig
from .scheduling import BatchRecord, SchedulingComponent
from .task_management import Assignment, TaskManagementComponent


class RegionServer:
    """One region's middleware instance, independent of work delivery."""

    def __init__(
        self,
        engine: EventClock,
        policy: SchedulingPolicy,
        rng: RngRegistry,
        cost_model: CostModel,
        metrics: Optional[MetricsCollector] = None,
        observability: Optional[ObservabilityLike] = None,
        reward_ranges: Optional[Dict[int, RewardRange]] = None,
        resilience: Optional[ResilienceConfig] = None,
        budget: Optional[BudgetGate] = None,
    ) -> None:
        self.engine = engine
        self.policy = policy
        self.resilience = resilience
        self.obs = resolve(observability)
        self.obs.bind_engine(engine)
        self._tracer = self.obs.tracer
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.metrics.bind_registry(self.obs.registry)

        self.profiling = WorkerTable()
        self.task_management = TaskManagementComponent(budget=budget)
        self.estimator = DeadlineEstimator(
            min_history=policy.min_history,
            family=make_family(policy.duration_model),
        )
        # Estimator fit tallies (current worker-table rows, refits), read
        # from the estimator's plain int counters at snapshot time (see
        # docs/OBSERVABILITY.md).
        registry = self.obs.registry
        estimator = self.estimator
        registry.gauge(
            "react_fit_cache_hits", "DeadlineEstimator fit-cache hits",
            source=lambda: estimator.cache_hits,
        )
        registry.gauge(
            "react_fit_cache_misses", "DeadlineEstimator fit-cache misses",
            source=lambda: estimator.cache_misses,
        )

        # With the probabilistic model off (traditional), edges are never
        # pruned: bound 0 keeps every candidate edge.
        bound = policy.edge_probability_bound if policy.use_probabilistic_model else 0.0
        builder = AssignmentGraphBuilder(
            weight_function=policy.build_weight_function(),
            estimator=self.estimator,
            edge_probability_bound=bound,
            reward_ranges=reward_ranges,
            budget=budget,
        )
        self.scheduling = SchedulingComponent(
            engine=engine,
            policy=policy,
            task_management=self.task_management,
            profiling=self.profiling,
            builder=builder,
            matcher=policy.build_matcher(),
            cost_model=cost_model,
            matcher_rng=rng.stream(STREAM_MATCHER),
            # Child -> owner callbacks are weak (repro.sim.weak): the
            # server owns its components, not the other way round.
            on_assign=weak_method(self._on_assign),
            on_retired=weak_method(self._on_retired),
            on_batch=weak_method(self._on_batch),
            observability=self.obs,
        )
        self.degraded_mode: Optional[DegradedModeController] = None
        if resilience is not None and resilience.latency_budget is not None:
            self.degraded_mode = DegradedModeController(
                engine=engine,
                scheduling=self.scheduling,
                config=resilience,
                metrics=self.metrics,
                observability=self.obs,
            )
        self.dynamic_assignment = DynamicAssignmentComponent(
            engine=engine,
            policy=policy,
            task_management=self.task_management,
            profiling=self.profiling,
            estimator=self.estimator,
            on_withdraw=weak_method(self._on_withdraw),
            observability=self.obs,
        )
        self._batch_timer: Optional[PeriodicProcess] = None
        self._started = False
        #: budget hook (:mod:`repro.scenarios.budget`): called once per
        #: completed task with (task, worker_id) so the requester's ledger
        #: can be charged exactly when the reward is actually owed
        self.completion_hook: Optional[Callable[[Task, int], None]] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Arm the periodic batch trigger and the Eq. 2 monitor."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self.dynamic_assignment.start()
        self._batch_timer = PeriodicProcess(
            self.engine,
            period=self.policy.batch_period,
            action=self.scheduling.periodic_trigger,
            kind=EventKind.BATCH_TRIGGER,
        )

    def stop(self) -> None:
        self.dynamic_assignment.stop()
        if self._batch_timer is not None:
            self._batch_timer.stop()
            self._batch_timer = None
        if self.degraded_mode is not None:
            self.degraded_mode.finalize()
        self._started = False

    # -------------------------------------------------------------- workers
    def add_worker(
        self,
        profile: WorkerProfile,
        behavior: Optional[WorkerBehavior] = None,
        history: Optional[WorkerHistory] = None,
    ) -> None:
        """Register a worker, continuing ``history`` (the record
        :meth:`remove_worker` returned) if given; ``behavior`` is the
        delivery's business."""
        self.profiling.register(profile, history)

    def behavior_of(self, worker_id: int) -> Optional[WorkerBehavior]:
        """The simulated ground truth of a worker; None without one."""
        return None

    def remove_worker(self, worker_id: int) -> WorkerHistory:
        """Worker churn: an online worker leaves the region.

        A task he was executing is withdrawn and re-queued (the paper's
        Dynamic Assignment Component "is able to deal with changes in the
        worker set ... by reassigning the tasks when workers abandon the
        system").  Returns his history, for a caller that registers him
        again.
        """
        task_id = self.profiling.current_task(worker_id)
        self.profiling.set_online(worker_id, False)
        if task_id is not None:
            assignment = self.task_management.assignment(task_id)
            if assignment is not None and assignment.worker_id == worker_id:
                task = assignment.task
                self.task_management.withdraw(task)
                self.profiling.release(worker_id)
                self._tracer.instant(
                    "task.withdrawn",
                    cat="task",
                    task_id=task.task_id,
                    worker_id=worker_id,
                    reason="worker_departed",
                )
                self._on_withdraw(task)
        history = self.profiling.deregister(worker_id)
        self._forget(worker_id)
        return history

    def _forget(self, worker_id: int) -> None:
        """Delivery hook: drop per-worker delivery state of a departed worker."""
        raise NotImplementedError

    # ---------------------------------------------------------------- tasks
    def submit_task(self, task: Task) -> None:
        """Requester entry point: register the task and poke the scheduler."""
        task.submitted_at = self.engine.now if task.submitted_at == 0.0 else task.submitted_at
        self.metrics.record_received()
        self._tracer.instant(
            "task.submitted", cat="task", task_id=task.task_id, deadline=task.deadline
        )
        self._enqueue(task)

    def adopt_task(self, task: Task) -> None:
        """Take over a task migrated from another server (region split).

        Unlike :meth:`submit_task`, the task was already counted as
        received by its original server, so only the queueing happens here.
        """
        self._tracer.instant("task.adopted", cat="task", task_id=task.task_id)
        self._enqueue(task)

    def _enqueue(self, task: Task) -> None:
        """Queue the task and poke the scheduler, or shed it at intake.

        A shed task (requester budget dry) books the same expired-unassigned
        outcome as a queue retirement so ``check_conservation`` still
        balances (finished = completed + shed).
        """
        if self.task_management.add_task(task):
            self.scheduling.maybe_trigger()
            return
        self._tracer.instant(
            "task.shed",
            cat="task",
            task_id=task.task_id,
            reason="budget_exhausted",
            requester_id=task.requester_id,
        )
        self._record_unserved(task)

    def _record_unserved(self, task: Task) -> None:
        """Book a task that leaves the system without a result."""
        self.metrics.record_expired_unassigned(
            TaskOutcome(
                task_id=task.task_id,
                submitted_at=task.submitted_at,
                completed_at=None,
                deadline=task.deadline,
                met_deadline=False,
                positive_feedback=False,
                assignments=task.assignments,
                final_worker=None,
                worker_time=None,
                total_time=None,
            )
        )

    # ------------------------------------------------------------ callbacks
    def _on_assign(self, assignment: Assignment) -> None:
        """Assignment published: watch it, hand it to the delivery, arm its expiry."""
        task = assignment.task
        self.metrics.record_assignment(first=assignment.generation == 1)
        self._tracer.instant(
            "task.assigned",
            cat="task",
            task_id=task.task_id,
            worker_id=assignment.worker_id,
            generation=assignment.generation,
        )
        self.dynamic_assignment.track(assignment)
        finish = self._deliver(assignment)
        # AMT expiry semantics: if the deadline passes while the task is
        # still out with this worker, the platform pulls it back.  Only
        # armed when the deadline is still ahead — a task knowingly handed
        # out late (traditional's assign_expired) runs to completion — and
        # when the delivery's known finish does not come first: a result
        # that lands before the deadline leaves the expiry nothing to do.
        # At equality the expiry is armed; event priority orders the two.
        if self.policy.expire_running_tasks:
            now = self.engine.now
            remaining = task.absolute_deadline - now
            if remaining > 0:
                if finish is None or finish >= remaining:
                    self.engine.schedule(
                        remaining, EventKind.CALLBACK, self._on_running_expiry,
                        payload=assignment,
                    )
                else:
                    assignment.skipped_expiry_at = now + remaining

    def _deliver(self, assignment: Assignment) -> Optional[float]:
        """Delivery hook: route a published assignment to its worker.

        Returns the delay until the worker's result lands, when the delivery
        knows it; None when it does not (the result may never come).
        """
        raise NotImplementedError

    def _record_completion(
        self, task: Task, worker_id: int, duration: float, positive_feedback: bool
    ) -> None:
        """Book a result the delivery accepted (``task`` already completed)."""
        now = self.engine.now
        on_time = task.met_deadline
        self._tracer.complete(
            "task.execution",
            start=now - duration,
            end=now,
            cat="task",
            tid=worker_track(worker_id),
            task_id=task.task_id,
            worker_id=worker_id,
            on_time=on_time,
        )
        self.profiling.complete(
            worker_id,
            execution_time=duration,
            category=task.category,
            positive_feedback=positive_feedback,
        )
        self.metrics.record_completion(
            TaskOutcome(
                task_id=task.task_id,
                submitted_at=task.submitted_at,
                completed_at=now,
                deadline=task.deadline,
                met_deadline=on_time,
                positive_feedback=positive_feedback,
                assignments=task.assignments,
                final_worker=worker_id,
                worker_time=task.worker_time,
                total_time=task.total_time,
            )
        )
        if self.completion_hook is not None:
            self.completion_hook(task, worker_id)
        # A completion frees a worker; queued tasks may now be matchable.
        self.scheduling.maybe_trigger()

    def _end_dawdle(self, task_id: int, worker_id: int) -> None:
        """A stale result: the task left the worker while he dawdled.

        He was released when the task left him, so only the trace records it.
        """
        self._tracer.instant(
            "worker.dawdle_end", cat="task", task_id=task_id, worker_id=worker_id
        )

    def _on_running_expiry(self, event: Event) -> None:
        """AMT semantics: the deadline lapsed while the task was out.

        The task returns to the repository as unassigned (§II).  The worker,
        if he is still registered and nominally on it, is released; an
        abandoner has already walked away.
        """
        assignment: Assignment = event.payload
        if not assignment.live():
            return
        task, worker_id = assignment.task, assignment.worker_id
        elapsed = self.engine.now - assignment.assigned_at
        self.task_management.withdraw(task)
        self.metrics.expiry_returns += 1
        self._tracer.instant(
            "task.expiry_return", cat="task", task_id=task.task_id, worker_id=worker_id
        )
        self.profiling.record_expiry(worker_id, task.task_id, elapsed)
        self._on_withdraw(task)

    def _on_withdraw(self, task: Task) -> None:
        """A task was pulled back from its worker and is queued again."""
        self._requeue_after_withdrawal(task)
        self.scheduling.maybe_trigger()

    def _on_batch(self, record: BatchRecord) -> None:
        self.metrics.record_matcher_run(record.simulated_seconds)
        if self.degraded_mode is not None:
            self.degraded_mode.observe(record)

    def _on_retired(self, retired: list[Task]) -> None:
        for task in retired:
            self._tracer.instant("task.expired", cat="task", task_id=task.task_id)
            self._record_unserved(task)

    # ----------------------------------------------------------- resilience
    def _requeue_after_withdrawal(self, task: Task) -> None:
        """Apply the resilience policy to a freshly withdrawn task.

        Without a :class:`ResilienceConfig` this is a no-op and the task —
        already back in the unassigned pool — is immediately matchable, the
        paper's behaviour.  With one, the task is either retired (its
        reassignment budget is spent) or parked for an exponential-backoff
        delay before the matcher may see it again.
        """
        config = self.resilience
        if config is None or task.phase is not TaskPhase.UNASSIGNED:
            return
        if not self.task_management.is_queued(task.task_id):
            return
        if (
            config.max_reassignments is not None
            and task.assignments >= config.max_reassignments
        ):
            self.task_management.retire_unassigned(task)
            self.metrics.reassignment_budget_exhausted += 1
            self._tracer.instant(
                "task.retired",
                cat="resilience",
                task_id=task.task_id,
                reason="reassignment_budget",
                assignments=task.assignments,
            )
            self._record_unserved(task)
            return
        if config.backoff_enabled:
            delay = config.backoff_delay(task.assignments)
            if delay > 0:
                self.task_management.defer(task)
                self.metrics.deferred_retries += 1
                self._tracer.instant(
                    "task.deferred",
                    cat="resilience",
                    task_id=task.task_id,
                    delay=delay,
                    assignments=task.assignments,
                )
                self.engine.schedule(
                    delay,
                    EventKind.CALLBACK,
                    self._on_deferred_release,
                    payload=task,
                )

    def _on_deferred_release(self, event: Event) -> None:
        task: Task = event.payload
        if self.task_management.release_deferred(task):
            self.scheduling.maybe_trigger()

    def orphan_assigned_tasks(self) -> List[int]:
        """Chaos: a blackout wipes the server's assignment state.

        Every assigned task is pulled back into the unassigned pool (from
        which recovery re-adopts it) and its worker — if he still claims it
        — is detached and freed; his pending completion becomes a stale
        dawdle, because its record is no longer live.  Returns the orphaned
        task ids.
        """
        now = self.engine.now
        orphaned: List[int] = []
        for task in self.task_management.assigned_tasks():
            worker_id = task.assigned_worker
            assigned_at = task.assigned_at if task.assigned_at is not None else now
            self.task_management.withdraw(task)
            if worker_id is not None and worker_id in self.profiling:
                self.profiling.record_withdrawal(
                    worker_id, elapsed=now - assigned_at, task_id=task.task_id
                )
            orphaned.append(task.task_id)
        self.metrics.blackout_orphaned += len(orphaned)
        return orphaned

    # -------------------------------------------------------------- summary
    def drain_and_summary(self) -> Dict[str, float]:
        """Metrics summary plus queue state (for end-of-run reporting)."""
        summary = self.metrics.summary()
        summary["pending_unassigned"] = self.task_management.unassigned_count
        summary["pending_assigned"] = self.task_management.assigned_count
        summary["pending_deferred"] = self.task_management.deferred_count
        summary["withdrawals"] = len(self.dynamic_assignment.withdrawals)
        summary["batches"] = len(self.scheduling.batches)
        summary["aborted_batches"] = self.scheduling.aborted_batches
        return summary


class REACTServer(RegionServer):
    """Push delivery: simulated workers, driven by the simulation engine."""

    def __init__(
        self,
        engine: EventClock,
        policy: SchedulingPolicy,
        rng: RngRegistry,
        cost_model: Optional[CostModel] = None,
        metrics: Optional[MetricsCollector] = None,
        reward_ranges: Optional[Dict[int, RewardRange]] = None,
        resilience: Optional[ResilienceConfig] = None,
        observability: Optional[ObservabilityLike] = None,
        budget: Optional[BudgetGate] = None,
    ) -> None:
        cost_model = cost_model if cost_model is not None else PaperCalibratedCost()
        super().__init__(
            engine, policy, rng, cost_model, metrics, observability,
            reward_ranges, resilience, budget,
        )
        self._behaviors: Dict[int, WorkerBehavior] = {}
        # Outcome draws are all random/uniform and this server is the
        # stream's only consumer, so they are read a block at a time.
        self._behavior_rng = BlockReader(rng.stream(STREAM_WORKER_BEHAVIOR))
        self._feedback = FeedbackModel(rng.stream(STREAM_FEEDBACK))
        #: the completion events' callback: weak, because a record in the
        #: assigned pool holds its event, which must not hold the server
        self._complete = weak_method(self._on_completion)
        #: chaos hook (:class:`repro.chaos.NoShowFault`): may change each
        #: fresh assignment's drawn ``duration`` and ``abandoned`` before its
        #: events are scheduled
        self.execution_hook: Optional[Callable[[Assignment], None]] = None

    # -------------------------------------------------------------- workers
    def add_worker(
        self,
        profile: WorkerProfile,
        behavior: Optional[WorkerBehavior] = None,
        history: Optional[WorkerHistory] = None,
    ) -> None:
        if behavior is None:
            raise ValueError(
                "REACTServer simulates worker outcomes and requires a "
                "WorkerBehavior; live workers belong on a LiveRegionServer"
            )
        super().add_worker(profile, history=history)
        self._behaviors[profile.worker_id] = behavior

    def behavior_of(self, worker_id: int) -> Optional[WorkerBehavior]:
        return self._behaviors.get(worker_id)

    def _forget(self, worker_id: int) -> None:
        self._behaviors.pop(worker_id, None)

    # ------------------------------------------------------------- delivery
    def _deliver(self, assignment: Assignment) -> Optional[float]:
        """Draw the worker's true outcome and schedule its completion.

        Returns the drawn duration once ``execution_hook`` has had its say,
        or None for an abandonment: no result will land.
        """
        draw = self._behaviors[assignment.worker_id].sample_outcome(self._behavior_rng)
        assignment.duration = draw.duration
        assignment.abandoned = draw.abandoned
        if self.execution_hook is not None:
            self.execution_hook(assignment)
        assignment.completion_event = self.engine.schedule(
            assignment.duration, EventKind.TASK_COMPLETION, self._complete,
            payload=assignment,
        )
        return None if assignment.abandoned else assignment.duration

    def _on_completion(self, event: Event) -> None:
        assignment: Assignment = event.payload
        assignment.completion_event = None
        task, worker_id = assignment.task, assignment.worker_id
        if not assignment.live():
            # The task was withdrawn (or the worker deregistered) while the
            # human dawdled; his sampled duration just elapsed.  He was
            # released when the task left him.
            self._end_dawdle(task.task_id, worker_id)
            return
        if assignment.abandoned:
            # The worker walks away without informing the platform (§IV-B):
            # he becomes available for other tasks, but the task stays
            # "assigned" until Eq. 2 or the deadline-expiry pulls it back.
            self.profiling.release(worker_id)
            self._tracer.instant(
                "task.abandoned",
                cat="task",
                task_id=task.task_id,
                worker_id=worker_id,
            )
            return
        self.task_management.complete(task, self.engine.now)
        feedback = self._feedback.judge(
            self._behaviors[worker_id],
            task.met_deadline,
            category=task.category,
        )
        self._record_completion(task, worker_id, assignment.duration, feedback.positive)

    # ----------------------------------------------------- chaos interface
    def inject_abandonment(self, task_id: int) -> bool:
        """Chaos: the worker on ``task_id`` walks away *right now* (§IV-B).

        Cancels his sampled finish and replays the abandonment path
        immediately: the worker is freed without returning a result and the
        task stays ASSIGNED until Eq. 2 or the deadline expiry rescues it —
        exactly the paper's silent-abandonment semantics, just at an
        injected instant.  Returns False when the task has no live
        current assignment whose completion is still pending.
        """
        assignment = self.task_management.assignment(task_id)
        if assignment is None or assignment.completion_event is None:
            return False
        self.engine.cancel(assignment.completion_event)
        assignment.abandoned = True
        assignment.completion_event = self.engine.schedule(
            0.0, EventKind.TASK_COMPLETION, self._complete, payload=assignment
        )
        if assignment.skipped_expiry_at is not None:
            # No result will land now, so the deadline must pull it back:
            # arm the skipped expiry at the instant it would have had.
            self.engine.schedule_at(
                assignment.skipped_expiry_at,
                EventKind.CALLBACK,
                self._on_running_expiry,
                payload=assignment,
            )
            assignment.skipped_expiry_at = None
        self.metrics.chaos_abandonments += 1
        return True
