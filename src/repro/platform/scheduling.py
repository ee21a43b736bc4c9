"""Scheduling Component (§III-A, §IV-A).

Matches unassigned tasks to available workers: builds the pruned weighted
bipartite graph (Eq. 3 + Eq. 1), runs the policy's matcher, and publishes
the assignments after the matcher's *simulated* latency has elapsed — that
latency, charged by the :mod:`~repro.platform.cost` model, is what lets a
slow matcher starve the queue exactly as in the paper's Fig. 5.

Batching follows §IV-A: "Our solution works in batches, which are initiated
periodically, or if the number of unassigned tasks has exceeded a boundary."
Only one batch runs at a time; tasks arriving mid-batch wait for the next
trigger, and the trigger is re-evaluated as soon as a batch publishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..core.matching.base import Matcher, MatchingResult
from ..graph.builders import AssignmentGraphBuilder, GraphBuildReport
from ..model.task import Task
from ..model.worker_table import WorkerTable
from ..obs.runtime import ObservabilityLike, resolve
from ..obs.trace import SCHEDULER_TRACK
from ..sim.clock import EventClock
from ..sim.events import Event, EventKind
from .cost import BatchShape, CostModel
from .policies import SchedulingPolicy
from .task_management import Assignment, TaskManagementComponent


@dataclass
class BatchRecord:
    """Trace of one matching batch (for tests and reporting)."""

    started_at: float
    published_at: float
    n_workers: int
    n_tasks: int
    n_edges: int
    matched: int
    retired_expired: int
    simulated_seconds: float
    build_report: Optional[GraphBuildReport] = field(default=None, repr=False)


class SchedulingComponent:
    """Batch construction, matching and assignment publication."""

    def __init__(
        self,
        engine: EventClock,
        policy: SchedulingPolicy,
        task_management: TaskManagementComponent,
        profiling: WorkerTable,
        builder: AssignmentGraphBuilder,
        matcher: Matcher,
        cost_model: CostModel,
        matcher_rng: np.random.Generator,
        on_assign: Callable[[Assignment], None],
        on_retired: Callable[[List[Task]], None],
        on_batch: Optional[Callable[[BatchRecord], None]] = None,
        observability: Optional[ObservabilityLike] = None,
    ) -> None:
        self._engine = engine
        self._policy = policy
        self._tasks = task_management
        self._profiles = profiling
        self._builder = builder
        self._matcher = matcher
        self._cost = cost_model
        self._rng = matcher_rng
        self._on_assign = on_assign
        self._on_retired = on_retired
        self._on_batch = on_batch
        obs = resolve(observability)
        self._tracer = obs.tracer
        self._obs_latency = obs.registry.histogram(
            "react_batch_latency_seconds",
            "Simulated matcher latency charged per published batch",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0),
        )
        obs.registry.counter(
            "react_batches_aborted_total", "Batches dropped by a blackout suspension",
            source=lambda: self.aborted_batches,
        )
        self._obs_queue_depth = obs.registry.gauge(
            "react_unassigned_tasks", "Unassigned-task queue depth after last batch"
        )
        self._obs_in_flight = obs.registry.gauge(
            "react_assigned_tasks", "Tasks out with a worker after last batch"
        )
        self._busy = False
        self.batches: List[BatchRecord] = []
        #: Chaos hook (:class:`repro.chaos.MatcherStallFault`): maps the cost
        #: model's latency to the latency actually charged for this batch.
        self.latency_hook: Optional[Callable[[float], float]] = None
        #: Blackout switch: while True no batch starts and any in-flight
        #: batch publishes nothing (its tasks silently rejoin the queue).
        self.suspended = False
        #: Batches whose publication was dropped by a suspension (blackout).
        self.aborted_batches = 0

    # ------------------------------------------------------------ triggers
    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def matcher(self) -> Matcher:
        return self._matcher

    def set_matcher(self, matcher: Matcher) -> None:
        """Hot-swap the matching algorithm (degraded-mode fallback).

        Takes effect from the next batch; a batch already in flight
        publishes the result its original matcher produced.
        """
        self._matcher = matcher

    def maybe_trigger(self) -> bool:
        """Threshold trigger: start a batch when enough tasks queued.

        Called on every task arrival and withdrawal.  Returns True when a
        batch was started.  A batch is pointless (and, with a near-zero
        cost model, a livelock risk) when no worker is available, so the
        trigger also requires at least one free worker.
        """
        if self._busy or self.suspended:
            return False
        if self._tasks.unassigned_count < self._policy.batch_threshold:
            return False
        if not self._profiles.n_available:
            return False
        self._start_batch()
        return True

    def periodic_trigger(self, now: float) -> None:
        """Fallback periodic trigger (drains stragglers below threshold).

        Mirrors :meth:`maybe_trigger`'s free-worker guard: with nobody to
        match, a batch would only burn simulated matcher latency and churn
        the event queue before returning every task to the queue.  Queued
        tasks whose deadline lapses while no worker is around are still
        retired on schedule — just without the pointless batch.
        """
        if self._busy or self.suspended or self._tasks.unassigned_count == 0:
            return
        if not self._profiles.n_available:
            if not self._policy.assign_expired:
                retired = self._tasks.retire_expired(now)
                if retired:
                    self._on_retired(retired)
            return
        self._start_batch()

    # --------------------------------------------------------------- batch
    def _start_batch(self) -> None:
        self._busy = True
        now = self._engine.now
        batch, retired = self._tasks.checkout_batch(
            now, assign_expired=self._policy.assign_expired
        )
        if retired:
            self._on_retired(retired)
        rows = self._profiles.rows(self._profiles.available_slots())

        graph, report = self._builder.build(rows, batch, now)
        result = self._matcher.match(graph, self._rng)
        result.validate()

        if self._policy.charge_region_graph:
            # The paper's O(V·E) accounting for Greedy: the server maintains
            # the *region* graph in real time (§IV-A), and the Greedy scan
            # walks that whole edge list — every in-flight task × every
            # online worker — for each task it matches.  Fig. 3's
            # calibration counts the same way (there the batch is the whole
            # graph).
            region_tasks = self._tasks.in_flight
            region_workers = len(self._profiles)
            cost_tasks = region_tasks
            cost_edges = region_tasks * region_workers
        else:
            cost_tasks = len(batch)
            cost_edges = graph.n_edges
        shape = BatchShape(
            n_workers=len(rows),
            n_tasks=cost_tasks,
            n_edges=cost_edges,
            cycles=getattr(getattr(self._matcher, "params", None), "cycles", 0),
        )
        latency = self._cost.seconds(self._matcher.name, shape)
        if self.latency_hook is not None:
            latency = self.latency_hook(latency)

        payload = _PendingBatch(
            started_at=now,
            # Ids, not slots: a registration change before publication
            # may compact the table and move every slot.
            workers=rows.worker_ids.tolist(),
            batch=batch,
            result=result,
            report=report,
            retired=len(retired),
            latency=latency,
            matcher_name=self._matcher.name,
            cycles=int(shape.cycles),
        )
        self._engine.schedule(
            latency, EventKind.BATCH_COMPLETE, self._publish, payload=payload
        )

    def _publish(self, event: Event) -> None:
        pending: _PendingBatch = event.payload
        now = self._engine.now
        if self.suspended:
            # The region server blacked out while the matcher ran: the batch
            # result is lost and its tasks rejoin the queue for re-adoption
            # once the server recovers.
            for task in pending.batch:
                self._tasks.return_unmatched(task)
            self.aborted_batches += 1
            self._tracer.instant(
                "batch.aborted",
                cat="scheduler",
                tid=SCHEDULER_TRACK,
                n_tasks=len(pending.batch),
            )
            self._busy = False
            return
        # Dense task -> worker row (precomputed for REACT and Greedy batches):
        # one list index per task instead of a dict build + lookup.
        dense = pending.result.task_assignment_dense().tolist()
        matched = 0
        for j, task in enumerate(pending.batch):
            worker_idx = dense[j]
            if worker_idx < 0:
                self._tasks.return_unmatched(task)
                continue
            worker_id = pending.workers[worker_idx]
            # A worker may have gone offline (churn) or left this region
            # (split migration) while the matcher ran; his matched task
            # silently rejoins the queue.
            if not self._profiles.is_free(worker_id):
                self._tasks.return_unmatched(task)
                continue
            assignment = self._tasks.commit_assignment(task, worker_id, now)
            self._profiles.assign(worker_id, task.task_id)
            matched += 1
            self._on_assign(assignment)

        record = BatchRecord(
            started_at=pending.started_at,
            published_at=now,
            n_workers=len(pending.workers),
            n_tasks=len(pending.batch),
            n_edges=pending.result.graph.n_edges,
            matched=matched,
            retired_expired=pending.retired,
            simulated_seconds=pending.latency,
            build_report=pending.report,
        )
        self.batches.append(record)
        self._obs_latency.observe(pending.latency)
        self._obs_queue_depth.set(self._tasks.unassigned_count)
        self._obs_in_flight.set(self._tasks.assigned_count)
        self._tracer.complete(
            "batch",
            start=pending.started_at,
            end=now,
            cat="scheduler",
            tid=SCHEDULER_TRACK,
            matcher=pending.matcher_name,
            cycles=pending.cycles,
            n_workers=len(pending.workers),
            n_tasks=len(pending.batch),
            n_edges=pending.result.graph.n_edges,
            matched=matched,
            fitness=round(pending.result.total_weight, 6),
            latency=pending.latency,
        )
        if self._on_batch is not None:
            self._on_batch(record)
        self._busy = False
        # Tasks queued while the matcher was running may already exceed the
        # threshold; chain straight into the next batch — but only when this
        # batch made progress or new work arrived mid-run, otherwise an
        # unmatchable backlog + a near-zero-latency matcher would spin
        # forever at the same simulated instant.
        new_arrivals = self._tasks.unassigned_count > (len(pending.batch) - matched)
        # The published batch (its graph and matching) must be garbage
        # before the next one builds, or two batches' arrays peak together.
        event.payload = None
        del pending
        if matched > 0 or new_arrivals:
            self.maybe_trigger()


@dataclass
class _PendingBatch:
    started_at: float
    #: the batch's worker ids (graph row order)
    workers: List[int]
    batch: List[Task]
    result: MatchingResult
    report: GraphBuildReport
    retired: int
    latency: float
    #: Matcher identity captured at batch start: a degraded-mode hot-swap
    #: mid-flight must not relabel the batch its original matcher produced.
    matcher_name: str = "?"
    cycles: int = 0
