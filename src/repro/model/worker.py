"""Worker model.

Two views of a worker are deliberately kept separate, mirroring the paper:

* :class:`WorkerBehavior` — the *latent* ground truth the simulator uses to
  generate outcomes: a per-worker execution-time range inside [1, 20] s, a
  50% probability of dawdling (stretching the execution up to 130 s), and a
  latent answer quality ``q`` (the CrowdFlower "trust"; 70% of workers have
  q > 0.5).  The platform never reads these fields.
* :class:`WorkerProfile` — the worker's immutable identity: id and
  location.  What the Profiling Component *observes* (status, completion
  times, positive/negative feedback per category) lives in the worker's
  :class:`~repro.model.worker_table.WorkerTable` row.  Everything REACT
  decides (Eq. 1 weights, Eq. 2/3 probabilities) derives from these
  observations only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Protocol

import numpy as np

from .task import TaskCategory


class UniformDraws(Protocol):
    """Scalar ``random()``/``uniform()`` draws: a plain
    :class:`numpy.random.Generator`, or the simulator's
    :class:`~repro.sim.rng.BlockReader` serving the same values in blocks."""

    def random(self) -> float: ...

    def uniform(self, low: float, high: float) -> float: ...


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

    def sample_outcome(self, rng: UniformDraws) -> ExecutionDraw:
        """Draw one execution outcome.

        Nominal path (probability ``1 − delay_probability``):
        Uniform(min_time, max_time), result returned.  Delay path: either a
        slow finish Uniform(max_time, delay_cap), or an abandonment — the
        worker stays occupied until ``delay_cap`` and returns nothing.
        Only ``random``/``uniform`` draws, so a
        :class:`~repro.sim.rng.BlockReader` serves the same values.
        """
        if rng.random() < self.delay_probability:
            if rng.random() < self.abandon_probability:
                return ExecutionDraw(duration=self.delay_cap, abandoned=True)
            floor = self.max_time if self.delay_floor is None else self.delay_floor
            return ExecutionDraw(duration=rng.uniform(floor, self.delay_cap))
        return ExecutionDraw(duration=rng.uniform(self.min_time, self.max_time))

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


@dataclass(frozen=True)
class WorkerProfile:
    """A worker's identity as the platform sees it: id and location.

    Immutable; what the Profiling Component observes of the worker
    (status, completion times, feedback) lives in his
    :class:`~repro.model.worker_table.WorkerTable` row.  The location is
    range-checked as a :class:`~repro.model.task.Task`'s is.
    """

    worker_id: int
    latitude: float = 0.0
    longitude: float = 0.0

    def __post_init__(self) -> None:
        if not (-90.0 <= self.latitude <= 90.0):
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not (-180.0 <= self.longitude <= 180.0):
            raise ValueError(f"longitude out of range: {self.longitude}")
