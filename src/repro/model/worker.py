"""Worker model.

Two views of a worker are deliberately kept separate, mirroring the paper:

* :class:`WorkerBehavior` — the *latent* ground truth the simulator uses to
  generate outcomes: a per-worker execution-time range inside [1, 20] s, a
  50% probability of dawdling (stretching the execution up to 130 s), and a
  latent answer quality ``q`` (the CrowdFlower "trust"; 70% of workers have
  q > 0.5).  The platform never reads these fields.
* :class:`WorkerProfile` — what the Profiling Component *observes*:
  completion times, positive/negative feedback per category, availability.
  Everything REACT decides (Eq. 1 weights, Eq. 2/3 probabilities) derives
  from this view only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from .task import TaskCategory


@dataclass(frozen=True)
class ExecutionDraw:
    """One sampled worker execution: how long, and whether he walked away.

    ``duration`` is when the worker stops being occupied by the task; for an
    abandoned execution no result is ever returned to the platform — the
    worker silently walks away at ``duration`` ("he/she might even abandon
    the task completely without informing the crowdsourcing system", §IV-B).
    """

    duration: float
    abandoned: bool = False


@dataclass(frozen=True)
class WorkerBehavior:
    """Latent ground-truth behaviour of a worker (simulator-only).

    Parameters follow §V-C of the paper: each worker has a unique
    ``(min_time, max_time)`` execution window constrained to [1, 20] s; with
    probability ``delay_probability`` (0.5 in the paper) the worker *delays
    or abandons* the task — a delay stretches the draw up to ``delay_cap``
    (130 s), while an abandonment (fraction ``abandon_probability`` of the
    delay events) returns no result at all.  ``quality`` is the latent
    probability that an on-time answer earns positive feedback.
    """

    min_time: float
    max_time: float
    quality: float
    delay_probability: float = 0.5
    delay_cap: float = 130.0
    #: Given a delay event, probability the worker abandons outright.
    abandon_probability: float = 0.5
    #: Lower edge of the slow-finish draw; ``None`` means ``max_time``.
    #: The paper only bounds delays by "up to 130 seconds"; the end-to-end
    #: configs raise this floor so that delayed executions rarely beat the
    #: 60-120 s deadlines, which is what its traditional-baseline numbers
    #: imply (see DESIGN.md / EXPERIMENTS.md calibration notes).
    delay_floor: Optional[float] = None
    #: Heterogeneous-task extension (Assadi et al.): per-category latent
    #: quality overriding ``quality`` for the listed categories.  ``None``
    #: (the default) keeps the paper's single-skill worker; categories not
    #: in the mapping fall back to ``quality``.
    quality_by_category: Optional[Mapping[TaskCategory, float]] = None

    def __post_init__(self) -> None:
        if not (0 < self.min_time <= self.max_time):
            raise ValueError(
                f"need 0 < min_time <= max_time, got ({self.min_time}, {self.max_time})"
            )
        if not (0.0 <= self.quality <= 1.0):
            raise ValueError(f"quality must be in [0,1], got {self.quality}")
        if not (0.0 <= self.delay_probability <= 1.0):
            raise ValueError(
                f"delay_probability must be in [0,1], got {self.delay_probability}"
            )
        if not (0.0 <= self.abandon_probability <= 1.0):
            raise ValueError(
                f"abandon_probability must be in [0,1], got {self.abandon_probability}"
            )
        if self.delay_cap < self.max_time:
            raise ValueError(
                f"delay_cap ({self.delay_cap}) must be >= max_time ({self.max_time})"
            )
        if self.delay_floor is not None and not (
            self.max_time <= self.delay_floor <= self.delay_cap
        ):
            raise ValueError(
                f"delay_floor ({self.delay_floor}) must lie in "
                f"[max_time={self.max_time}, delay_cap={self.delay_cap}]"
            )
        if self.quality_by_category is not None:
            for category, q in self.quality_by_category.items():
                if not (0.0 <= q <= 1.0):
                    raise ValueError(
                        f"quality for {category} must be in [0,1], got {q}"
                    )

    def sample_outcome(self, rng: np.random.Generator) -> ExecutionDraw:
        """Draw one execution outcome.

        Nominal path (probability ``1 − delay_probability``):
        Uniform(min_time, max_time), result returned.  Delay path: either a
        slow finish Uniform(max_time, delay_cap), or an abandonment — the
        worker stays occupied until ``delay_cap`` and returns nothing.
        """
        if rng.random() < self.delay_probability:
            if rng.random() < self.abandon_probability:
                return ExecutionDraw(duration=self.delay_cap, abandoned=True)
            floor = self.max_time if self.delay_floor is None else self.delay_floor
            return ExecutionDraw(duration=float(rng.uniform(floor, self.delay_cap)))
        return ExecutionDraw(duration=float(rng.uniform(self.min_time, self.max_time)))

    def quality_for(self, category: Optional[TaskCategory]) -> float:
        """Latent quality on ``category`` tasks (heterogeneous extension).

        Falls back to the scalar ``quality`` when no category is given or
        the worker has no per-category skill entry for it, so homogeneous
        populations behave exactly as before.
        """
        if category is not None and self.quality_by_category is not None:
            return self.quality_by_category.get(category, self.quality)
        return self.quality

    def sample_feedback(
        self,
        rng: np.random.Generator,
        on_time: bool,
        category: Optional[TaskCategory] = None,
    ) -> bool:
        """Requester feedback: positive iff on time and Bernoulli(quality).

        ``category`` selects the per-type skill when the worker has one;
        the draw count is identical either way, so seeded runs without
        per-category skills are unperturbed.
        """
        if not on_time:
            return False
        return bool(rng.random() < self.quality_for(category))


@dataclass
class CategoryStats:
    """Per-category feedback tallies used by the Eq. 1 weight."""

    positive: int = 0
    finished: int = 0

    def record(self, positive: bool) -> None:
        self.finished += 1
        if positive:
            self.positive += 1

    @property
    def accuracy(self) -> float:
        """``Σ PositiveTask / Σ FinishedTask`` — zero before any history."""
        if self.finished == 0:
            return 0.0
        return self.positive / self.finished


@dataclass
class WorkerProfile:
    """Platform-observable worker state (the Profiling Component's record).

    Holds the worker's id, location, availability, completed-task execution
    times (``ExecTime_ih`` history feeding the power-law estimator) and
    per-category feedback statistics (feeding the Eq. 1 weight).
    """

    worker_id: int
    latitude: float = 0.0
    longitude: float = 0.0
    available: bool = True
    online: bool = True
    current_task: Optional[int] = None
    #: observed task durations: completions plus *censored* observations
    #: (when a task is withdrawn after ``t`` seconds, the platform has
    #: observed that this worker holds tasks at least ``t`` seconds — the
    #: only signal it will ever get about a chronic dawdler).
    execution_times: List[float] = field(default_factory=list)
    category_stats: Dict[TaskCategory, CategoryStats] = field(default_factory=dict)
    #: total tasks ever handed to this worker (drives the cold-start rule:
    #: "for the first z *assignments* of a new worker ...", §IV-A).
    assignment_count: int = 0
    #: how many of ``execution_times`` are censored withdrawal observations
    censored_observations: int = 0

    # ------------------------------------------------------------ history
    @property
    def completed_tasks(self) -> int:
        """Number of duration observations (completed + censored)."""
        return len(self.execution_times)

    def record_completion(
        self, execution_time: float, category: TaskCategory, positive_feedback: bool
    ) -> None:
        """Record a finished task: duration + requester feedback."""
        if execution_time <= 0:
            raise ValueError(f"execution_time must be positive, got {execution_time}")
        self.execution_times.append(float(execution_time))
        stats = self.category_stats.setdefault(category, CategoryStats())
        stats.record(positive_feedback)

    def record_censored(self, elapsed: float) -> None:
        """Record a withdrawal as a censored duration observation.

        The worker held the task ``elapsed`` seconds without delivering; the
        true duration is at least that.  Folding the lower bound into the
        history is what lets the Eq. 3 pruning eventually stop feeding tasks
        to workers who never complete anything.
        """
        if elapsed <= 0:
            return
        self.execution_times.append(float(elapsed))
        self.censored_observations += 1

    def accuracy(self, category: TaskCategory) -> float:
        """Observed accuracy for ``category`` (Eq. 1 numerator/denominator)."""
        stats = self.category_stats.get(category)
        return 0.0 if stats is None else stats.accuracy

    # ------------------------------------------------------- availability
    def assign(self, task_id: int) -> None:
        if not self.available or not self.online:
            raise ValueError(f"worker {self.worker_id} is not available")
        self.available = False
        self.current_task = task_id
        self.assignment_count += 1

    def release(self) -> None:
        """Worker becomes available again (after completion/dawdle ends)."""
        self.available = True
        self.current_task = None
