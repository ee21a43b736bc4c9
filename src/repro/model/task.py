"""Task model.

Section III-B of the paper associates each task with
``<id, latitude, longitude, deadline, reward, description>`` plus a
category (used by the Eq. 1 weight function).  The deadline is *soft
real-time*: missing it is not catastrophic, but the system maximises the
number of deadlines met.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional


class TaskCategory(enum.Enum):
    """Task categories from the paper's motivating applications (§I, §II).

    ``__hash__`` is pinned to the identity hash: enum members are singletons
    (equality already *is* identity), and the default ``Enum.__hash__`` is a
    Python-level call that shows up in the per-batch weight loops, where
    these members key the per-worker accuracy dicts.  Identity hashing keeps
    dict/equality semantics unchanged and moves the lookup onto the C path.
    """

    __hash__ = object.__hash__

    TRAFFIC_MONITORING = "traffic-monitoring"
    LOCATION_SURVEY = "location-survey"
    POI_SUGGESTION = "poi-suggestion"
    PRICE_CHECK = "price-check"
    ENTERTAINMENT = "entertainment"
    IMAGE_LABELING = "image-labeling"
    GENERIC = "generic"


class TaskPhase(enum.Enum):
    """Lifecycle of a task inside the Task Management Component."""

    UNASSIGNED = "unassigned"
    ASSIGNED = "assigned"
    COMPLETED = "completed"
    EXPIRED = "expired"


_TASK_IDS = itertools.count()


def _next_task_id() -> int:
    return next(_TASK_IDS)


@dataclass
class Task:
    """A crowdsourcing task as submitted by a requester.

    Attributes
    ----------
    deadline:
        Relative interval (seconds) within which the task should complete,
        counted from :attr:`submitted_at` (paper: ``deadline_j``; the
        experiments draw it uniformly from [60, 120] s).
    reward:
        Monetary reward; used by the reward-range pruning extension
        (§III-C "Task Rewards") and charged against the submitting
        requester's budget in the budget-constrained scenarios.
    requester_id:
        Owner of the task for per-requester budget accounting
        (:mod:`repro.scenarios.budget`); None means unbudgeted — the
        paper's original experiments, where requesters are anonymous.
    """

    latitude: float
    longitude: float
    deadline: float
    reward: float = 0.05
    category: TaskCategory = TaskCategory.GENERIC
    description: str = ""
    task_id: int = field(default_factory=_next_task_id)
    submitted_at: float = 0.0
    requester_id: Optional[int] = None

    # Mutable platform-side state --------------------------------------
    phase: TaskPhase = TaskPhase.UNASSIGNED
    assigned_worker: Optional[int] = None
    assigned_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: number of times the task was handed to a worker (>=2 means reassigned)
    assignments: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.deadline < math.inf:
            raise ValueError(
                f"deadline must be positive and finite, got {self.deadline}"
            )
        if not (-90.0 <= self.latitude <= 90.0):
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not (-180.0 <= self.longitude <= 180.0):
            raise ValueError(f"longitude out of range: {self.longitude}")
        if not 0.0 <= self.reward < math.inf:
            raise ValueError(
                f"reward must be non-negative and finite, got {self.reward}"
            )

    # ------------------------------------------------------------ timing
    @property
    def absolute_deadline(self) -> float:
        """Wall (simulated) time at which the task expires."""
        return self.submitted_at + self.deadline

    def time_to_deadline(self, now: float) -> float:
        """``TimeToDeadline_ij``: interval from assignment-time ``now`` to expiry."""
        return self.absolute_deadline - now

    def is_expired(self, now: float) -> bool:
        """Whether the task's deadline has passed at sim time ``now``.

        Boundary convention (pinned by tests): a task whose deadline equals
        the current sim time is *expired*.  This matches Eq. 2/3, which
        close the assignment window at ``time_to_deadline <= elapsed`` and
        return zero completion probability at ``TTD <= 0`` — so the Eq. 2
        sweep and ``retire_expired`` classify the boundary identically.
        (Completion exactly *at* the deadline still counts as on time; see
        :meth:`met_deadline`.)
        """
        return now >= self.absolute_deadline

    # ---------------------------------------------------------- lifecycle
    def mark_assigned(self, worker_id: int, now: float) -> None:
        if self.phase in (TaskPhase.COMPLETED, TaskPhase.EXPIRED):
            raise ValueError(f"cannot assign finished task {self.task_id}")
        self.phase = TaskPhase.ASSIGNED
        self.assigned_worker = worker_id
        self.assigned_at = now
        self.assignments += 1

    def mark_unassigned(self) -> None:
        """Return the task to the unassigned pool (reassignment path)."""
        if self.phase is not TaskPhase.ASSIGNED:
            raise ValueError(f"task {self.task_id} is not assigned")
        self.phase = TaskPhase.UNASSIGNED
        self.assigned_worker = None
        self.assigned_at = None

    def mark_completed(self, now: float) -> None:
        if self.phase is not TaskPhase.ASSIGNED:
            raise ValueError(f"task {self.task_id} is not assigned")
        self.phase = TaskPhase.COMPLETED
        self.completed_at = now

    def mark_expired(self) -> None:
        self.phase = TaskPhase.EXPIRED

    # ------------------------------------------------------------ results
    @property
    def met_deadline(self) -> bool:
        """True iff the task completed no later than its deadline."""
        return (
            self.phase is TaskPhase.COMPLETED
            and self.completed_at is not None
            and self.completed_at <= self.absolute_deadline
        )

    @property
    def total_time(self) -> Optional[float]:
        """End-to-end time from submission to completion (Fig. 8 metric)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def worker_time(self) -> Optional[float]:
        """Execution time at the final worker only (Fig. 7 metric)."""
        if self.completed_at is None or self.assigned_at is None:
            return None
        return self.completed_at - self.assigned_at


def reset_task_ids() -> None:
    """Reset the global id counter (test isolation helper)."""
    global _TASK_IDS
    _TASK_IDS = itertools.count()
