"""Metrics collection for the end-to-end experiments (Figs. 5-8).

The collector observes every task lifecycle event emitted by the platform
and accumulates exactly the series the paper plots:

* Fig. 5 — cumulative count of tasks finished *before their deadline*,
  indexed by the running count of received tasks;
* Fig. 6 — cumulative count of *positive feedbacks*, same index;
* Fig. 7 — average execution time at the final worker, per technique;
* Fig. 8 — average total time (submission → completion, including queueing
  and any reassignments), per technique.

It also keeps bookkeeping (received / assigned / reassigned / completed /
expired counters) whose conservation laws the integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..obs.registry import NULL_INSTRUMENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry


#: (collector field, metric name, registry factory, HELP) of every series
#: :meth:`MetricsCollector.bind_registry` exports by reading the field.
REGISTRY_SERIES = (
    ("received", "react_tasks_received_total", "counter",
     "Tasks submitted by requesters"),
    ("assigned", "react_tasks_assigned_total", "counter",
     "Assignments published (incl. reassignments)"),
    ("reassignments", "react_task_reassignments_total", "counter",
     "Assignments beyond each task's first"),
    ("completed", "react_tasks_completed_total", "counter",
     "Tasks completed by a worker"),
    ("completed_on_time", "react_tasks_completed_on_time_total", "counter",
     "Completions before the deadline"),
    ("positive_feedbacks", "react_positive_feedbacks_total", "counter",
     "Completions earning positive feedback"),
    ("expired_unassigned", "react_tasks_expired_unassigned_total", "counter",
     "Tasks whose deadline lapsed while still queued"),
    ("matcher_invocations", "react_matcher_runs_total", "counter",
     "Matching batches published"),
    ("matcher_simulated_seconds", "react_matcher_simulated_seconds_total", "counter",
     "Simulated matcher latency charged across batches"),
) + tuple(
    # Counters the platform bumps as bare attributes; exported as gauges
    # named after the field.
    (name, f"react_{name}", "gauge", f"MetricsCollector.{name}")
    for name in (
        "expiry_returns",
        "chaos_faults_injected",
        "chaos_abandonments",
        "chaos_no_shows",
        "chaos_corrupted_observations",
        "matcher_stall_seconds",
        "blackout_orphaned",
        "readopted_tasks",
        "deferred_retries",
        "reassignment_budget_exhausted",
        "degraded_mode_switches",
        "degraded_mode_seconds",
    )
)


@dataclass
class TaskOutcome:
    """Final record of one task's journey through the platform."""

    task_id: int
    submitted_at: float
    completed_at: Optional[float]
    deadline: float
    met_deadline: bool
    positive_feedback: bool
    assignments: int
    final_worker: Optional[int]
    worker_time: Optional[float]
    total_time: Optional[float]


@dataclass
class MetricsCollector:
    """Accumulates task outcomes and exposes the paper's figure series."""

    received: int = 0
    assigned: int = 0
    reassignments: int = 0
    completed: int = 0
    completed_on_time: int = 0
    expired_unassigned: int = 0
    #: running tasks pulled back by the AMT deadline-expiry rule (§II)
    expiry_returns: int = 0
    positive_feedbacks: int = 0
    matcher_invocations: int = 0
    matcher_simulated_seconds: float = 0.0

    # Chaos / resilience accounting (src/repro/chaos, platform/resilience).
    #: fault activations performed by a FaultInjector
    chaos_faults_injected: int = 0
    #: executions flipped to walk-aways by an AbandonmentWave
    chaos_abandonments: int = 0
    #: assignments converted to no-shows by a NoShowFault
    chaos_no_shows: int = 0
    #: profile observations distorted by a StaleProfileFault
    chaos_corrupted_observations: int = 0
    #: extra matcher latency charged by MatcherStallFaults
    matcher_stall_seconds: float = 0.0
    #: assigned tasks orphaned (re-queued) by region-server blackouts
    blackout_orphaned: int = 0
    #: orphaned tasks still queued — and therefore re-adopted — at recovery
    readopted_tasks: int = 0
    #: withdrawn tasks parked by the retry exponential backoff
    deferred_retries: int = 0
    #: tasks retired because they exhausted the per-task reassignment budget
    reassignment_budget_exhausted: int = 0
    #: degraded-mode (fallback matcher) engagements
    degraded_mode_switches: int = 0
    #: total simulated seconds spent in degraded mode
    degraded_mode_seconds: float = 0.0

    outcomes: List[TaskOutcome] = field(default_factory=list)
    #: (received_so_far, on_time_so_far) appended at every completion — Fig. 5.
    deadline_series: List[tuple[int, int]] = field(default_factory=list)
    #: (received_so_far, positive_so_far) appended at every completion — Fig. 6.
    feedback_series: List[tuple[int, int]] = field(default_factory=list)

    # Histogram handles (repro.obs).  Plain class attributes, not dataclass
    # fields: without a bound registry every completion lands on the shared
    # no-op instrument.  ``bind_registry`` swaps in live histograms.
    _obs_total_time = NULL_INSTRUMENT
    _obs_worker_time = NULL_INSTRUMENT

    def bind_registry(self, registry: "MetricsRegistry") -> None:
        """Expose this collector's bookkeeping on a metrics registry.

        Every counter and gauge reads its collector field when the registry
        is sampled, so the export matches the collector exactly whenever
        binding happens.  Only the two histograms are pushed, because no
        field holds their buckets.
        """
        for field_name, metric, kind, help_text in REGISTRY_SERIES:
            getattr(registry, kind)(
                metric, help_text, source=partial(getattr, self, field_name)
            )
        self._obs_total_time = registry.histogram(
            "react_task_total_time_seconds",
            "Submission-to-completion time of completed tasks",
        )
        self._obs_worker_time = registry.histogram(
            "react_task_worker_time_seconds",
            "Execution time at the final worker of completed tasks",
        )

    # ----------------------------------------------------------- recording
    def record_received(self) -> None:
        self.received += 1

    def record_assignment(self, first: bool) -> None:
        self.assigned += 1
        if not first:
            self.reassignments += 1

    def record_matcher_run(self, simulated_seconds: float) -> None:
        self.matcher_invocations += 1
        self.matcher_simulated_seconds += simulated_seconds

    def record_completion(self, outcome: TaskOutcome) -> None:
        self.completed += 1
        if outcome.met_deadline:
            self.completed_on_time += 1
        if outcome.positive_feedback:
            self.positive_feedbacks += 1
        if outcome.total_time is not None:
            self._obs_total_time.observe(outcome.total_time)
        if outcome.worker_time is not None:
            self._obs_worker_time.observe(outcome.worker_time)
        self.outcomes.append(outcome)
        self.deadline_series.append((self.received, self.completed_on_time))
        self.feedback_series.append((self.received, self.positive_feedbacks))

    def record_expired_unassigned(self, outcome: TaskOutcome) -> None:
        """A task whose deadline lapsed while still queued (never completed)."""
        self.expired_unassigned += 1
        self.outcomes.append(outcome)

    # ------------------------------------------------------------ summary
    @property
    def on_time_fraction(self) -> float:
        """Fraction of *received* tasks that finished before their deadline
        (the y-axis of Figs. 9)."""
        return self.completed_on_time / self.received if self.received else 0.0

    @property
    def positive_feedback_fraction(self) -> float:
        """Fraction of received tasks earning positive feedback (Fig. 10)."""
        return self.positive_feedbacks / self.received if self.received else 0.0

    def average_worker_time(self) -> Optional[float]:
        """Fig. 7: mean execution time at the final worker, completed tasks."""
        times = [o.worker_time for o in self.outcomes if o.worker_time is not None]
        return float(np.mean(times)) if times else None

    def average_total_time(self) -> Optional[float]:
        """Fig. 8: mean submission→completion time, completed tasks."""
        times = [o.total_time for o in self.outcomes if o.total_time is not None]
        return float(np.mean(times)) if times else None

    def total_time_percentiles(self, qs: tuple[float, ...] = (50, 95, 99)) -> Dict[float, float]:
        """Submission→completion latency percentiles (retainer comparison)."""
        times = [o.total_time for o in self.outcomes if o.total_time is not None]
        if not times:
            return {}
        values = np.percentile(times, qs)
        return dict(zip(qs, (float(v) for v in values)))

    def check_conservation(self) -> None:
        """Invariant: every received task is completed, expired, or in flight.

        Raises ``AssertionError`` when the accounting does not balance; the
        integration suite calls this after every simulated run.
        """
        finished = self.completed + self.expired_unassigned
        if finished > self.received:
            raise AssertionError(
                f"accounting violation: finished={finished} > received={self.received}"
            )
        if self.completed_on_time > self.completed:
            raise AssertionError("on-time count exceeds completed count")
        if self.positive_feedbacks > self.completed:
            raise AssertionError("positive feedbacks exceed completed count")
        if len(self.deadline_series) != self.completed:
            raise AssertionError("deadline series length mismatch")

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline numbers, used by reporting and EXPERIMENTS.md."""
        return {
            "received": self.received,
            "completed": self.completed,
            "completed_on_time": self.completed_on_time,
            "on_time_fraction": round(self.on_time_fraction, 4),
            "positive_feedbacks": self.positive_feedbacks,
            "positive_feedback_fraction": round(self.positive_feedback_fraction, 4),
            "reassignments": self.reassignments,
            "expired_unassigned": self.expired_unassigned,
            "expiry_returns": self.expiry_returns,
            "avg_worker_time": _round_opt(self.average_worker_time()),
            "avg_total_time": _round_opt(self.average_total_time()),
            "matcher_invocations": self.matcher_invocations,
            "matcher_simulated_seconds": round(self.matcher_simulated_seconds, 3),
            "chaos_faults_injected": self.chaos_faults_injected,
            "chaos_abandonments": self.chaos_abandonments,
            "chaos_no_shows": self.chaos_no_shows,
            "chaos_corrupted_observations": self.chaos_corrupted_observations,
            "matcher_stall_seconds": round(self.matcher_stall_seconds, 3),
            "blackout_orphaned": self.blackout_orphaned,
            "readopted_tasks": self.readopted_tasks,
            "deferred_retries": self.deferred_retries,
            "reassignment_budget_exhausted": self.reassignment_budget_exhausted,
            "degraded_mode_switches": self.degraded_mode_switches,
            "degraded_mode_seconds": round(self.degraded_mode_seconds, 3),
        }


def _round_opt(value: Optional[float], digits: int = 3) -> Optional[float]:
    return None if value is None else round(value, digits)
