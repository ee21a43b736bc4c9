"""Edge weight functions ``F(worker_i, task_j)`` (paper §IV-A).

The paper's experiments use the worker-"quality" weight of Eq. (1):

    F(worker_i, task_j) = Σ PositiveTask_ij / Σ FinishedTask_ij ∈ [0, 1]

i.e. the fraction of positive feedbacks the worker has earned on tasks in
the same category.  §IV-A also sketches a distance-based weight for
location-critical applications ("we could use their geographical distance on
the weight in order to get the nearest worker"); both are implemented, plus
a hybrid combination, behind a common callable protocol so the Scheduling
Component is weight-agnostic.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..model.region import haversine_km, haversine_km_matrix
from ..model.task import Task
from ..model.worker import WorkerProfile
from ..model.worker_table import WorkerRows


def _pairwise_km(workers: WorkerRows, tasks: Sequence[Task]) -> np.ndarray:
    """(workers × tasks) great-circle distance matrix, one broadcast call."""
    wlat = workers.latitude
    wlon = workers.longitude
    tlat = np.array([t.latitude for t in tasks], dtype=np.float64)
    tlon = np.array([t.longitude for t in tasks], dtype=np.float64)
    return haversine_km_matrix(
        wlat[:, None], wlon[:, None], tlat[None, :], tlon[None, :]
    )


class WeightFunction(abc.ABC):
    """Computes ``w_ij`` for worker/task pairs.

    ``matrix`` is the vectorized entry point used during graph construction
    (one call per batch instead of one per edge) and reads the worker
    table's columns; ``single`` exists for tests and ad-hoc inspection and
    must agree with ``matrix``.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def matrix(self, workers: WorkerRows, tasks: Sequence[Task]) -> np.ndarray:
        """(len(workers), len(tasks)) array of weights in [0, 1].

        The array is the caller's: it must be freshly allocated and shared
        with no other object, because the graph builder overwrites the
        cold-start rows in place.
        """

    def single(self, worker: WorkerRows, task: Task) -> float:
        """The weight of one worker (a one-row ``worker``) for ``task``."""
        return float(self.matrix(worker, [task])[0, 0])


class AccuracyWeight(WeightFunction):
    """Eq. (1): per-category positive-feedback fraction.

    Workers with no finished tasks in the category get weight 0 — the
    cold-start rule in :mod:`repro.graph.builders` separately overrides the
    weight to the maximum for a new worker's first ``z`` assignments ("to
    train him"), so this function stays a pure mirror of Eq. (1).
    """

    name = "accuracy"

    def matrix(self, workers: WorkerRows, tasks: Sequence[Task]) -> np.ndarray:
        # One gather of the table's accuracy column per task category.
        return workers.accuracy([task.category for task in tasks])


class DistanceWeight(WeightFunction):
    """Proximity weight: 1 at zero distance, 0 at/after ``max_km``.

    The paper suggests using the worker-task geographical distance so that
    "a worker who is physically located on the requested location would
    provide accurate results"; we map distance to [0, 1] with a linear decay
    so it composes with Eq. (1) weights.
    """

    name = "distance"

    def __init__(self, max_km: float = 10.0) -> None:
        if max_km <= 0:
            raise ValueError(f"max_km must be positive, got {max_km}")
        self.max_km = max_km

    def matrix(self, workers: WorkerRows, tasks: Sequence[Task]) -> np.ndarray:
        km = _pairwise_km(workers, tasks)
        return np.maximum(0.0, 1.0 - km / self.max_km)

    def matrix_scalar(
        self, workers: Sequence[WorkerProfile], tasks: Sequence[Task]
    ) -> np.ndarray:
        """Pre-vectorization reference path (one scalar haversine per cell).

        Kept as the bit-equivalence oracle for :meth:`matrix` and as the
        baseline side of the ``distance_weight`` perf benchmark; not used
        on any hot path.
        """
        out = np.empty((len(workers), len(tasks)), dtype=np.float64)
        for i, worker in enumerate(workers):
            for j, task in enumerate(tasks):
                km = haversine_km(
                    worker.latitude, worker.longitude, task.latitude, task.longitude
                )
                out[i, j] = max(0.0, 1.0 - km / self.max_km)
        return out


class TravelTimeWeight(WeightFunction):
    """Travel-time-aware spatial weight (Liu & Xu-style edge utility).

    Converts the worker→task great-circle distance into a travel time at
    ``speed_kmh`` and maps it linearly onto [0, 1]: weight 1 for a worker
    already on site, 0 once the trip alone would eat ``horizon_s`` seconds
    — i.e. the worker could not plausibly reach the task within a typical
    deadline, so the edge is worthless to every matcher.
    """

    name = "travel-time"

    def __init__(self, speed_kmh: float = 30.0, horizon_s: float = 600.0) -> None:
        if speed_kmh <= 0:
            raise ValueError(f"speed_kmh must be positive, got {speed_kmh}")
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {horizon_s}")
        self.speed_kmh = speed_kmh
        self.horizon_s = horizon_s

    def matrix(self, workers: WorkerRows, tasks: Sequence[Task]) -> np.ndarray:
        km = _pairwise_km(workers, tasks)
        travel_s = km / self.speed_kmh * 3600.0
        return np.clip(1.0 - travel_s / self.horizon_s, 0.0, 1.0)


class HybridWeight(WeightFunction):
    """Convex combination ``β·accuracy + (1−β)·distance``."""

    name = "hybrid"

    def __init__(self, beta: float = 0.5, max_km: float = 10.0) -> None:
        if not (0.0 <= beta <= 1.0):
            raise ValueError(f"beta must be in [0,1], got {beta}")
        self.beta = beta
        self._accuracy = AccuracyWeight()
        self._distance = DistanceWeight(max_km=max_km)

    def matrix(self, workers: WorkerRows, tasks: Sequence[Task]) -> np.ndarray:
        return self.beta * self._accuracy.matrix(workers, tasks) + (
            1.0 - self.beta
        ) * self._distance.matrix(workers, tasks)


class ConstantWeight(WeightFunction):
    """All edges share one weight (testing / uniform-baseline helper)."""

    name = "constant"

    def __init__(self, value: float = 1.0) -> None:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"value must be in [0,1], got {value}")
        self.value = value

    def matrix(self, workers: WorkerRows, tasks: Sequence[Task]) -> np.ndarray:
        return np.full((len(workers), len(tasks)), self.value, dtype=np.float64)


def make_weight_function(name: str, **kwargs: float) -> WeightFunction:
    """Factory by name: accuracy | distance | travel-time | hybrid | constant."""
    factories = {
        "accuracy": AccuracyWeight,
        "distance": DistanceWeight,
        "travel-time": TravelTimeWeight,
        "hybrid": HybridWeight,
        "constant": ConstantWeight,
    }
    if name not in factories:
        raise KeyError(f"unknown weight function {name!r}; known: {sorted(factories)}")
    return factories[name](**kwargs)
