"""Reference graph build: a Python walk over every worker.

Test oracle for :class:`repro.graph.builders.AssignmentGraphBuilder`.  This
is the builder as it was before the columnar worker table: the Eq. 3
parameter gather, the Eq. 1 accuracy lookups, the worker locations, the
cold-start rule and the reward ranges are all read one :class:`Worker` at
a time.  A :class:`Worker` is the oracle's own record of what the
Profiling Component was told, kept apart from the worker table.  The
production builder must produce a bit-identical keep mask, weight matrix
and :class:`~repro.graph.builders.GraphBuildReport` for the same workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.deadline import DeadlineEstimator
from repro.core.kernels.deadline import powerlaw_ccdf_values
from repro.core.weights import (
    AccuracyWeight,
    ConstantWeight,
    DistanceWeight,
    HybridWeight,
    WeightFunction,
)
from repro.graph.builders import MAX_WEIGHT, AssignmentGraphBuilder, GraphBuildReport
from repro.model.region import haversine_km_matrix
from repro.model.task import Task, TaskCategory
from repro.stats.powerlaw import PowerLawFit


@dataclass
class Worker:
    """One worker's identity and §III-A history, as the oracle tracks it."""

    worker_id: int
    latitude: float
    longitude: float
    execution_times: List[float] = field(default_factory=list)
    assignment_count: int = 0
    #: category -> [positive, finished]
    feedback: Dict[TaskCategory, List[int]] = field(default_factory=dict)

    def complete(self, duration: float, category: TaskCategory, positive: bool) -> None:
        self.execution_times.append(duration)
        counts = self.feedback.setdefault(category, [0, 0])
        counts[0] += positive
        counts[1] += 1

    def accuracy(self, category: TaskCategory) -> float:
        positive, finished = self.feedback.get(category, (0, 0))
        return 0.0 if finished == 0 else positive / finished


def eq3_matrix(
    estimator: DeadlineEstimator, workers: Sequence[Worker], ttd: np.ndarray
) -> np.ndarray:
    """Eq. 3 over the worker × TTD grid, one fit lookup per worker."""
    out = np.empty((len(workers), len(ttd)), dtype=np.float64)
    rows: List[int] = []
    alpha: List[float] = []
    k_min: List[float] = []
    for i, worker in enumerate(workers):
        fit = estimator.fit_worker(worker.execution_times)
        if fit is None:
            out[i, :] = 1.0
        elif isinstance(fit, PowerLawFit):
            rows.append(i)
            alpha.append(fit.alpha)
            k_min.append(fit.k_min)
        else:
            out[i, :] = 1.0 - fit.ccdf(ttd)
    if rows:
        out[rows, :] = 1.0 - powerlaw_ccdf_values(
            np.asarray(alpha, dtype=np.float64)[:, None],
            np.asarray(k_min, dtype=np.float64)[:, None],
            ttd[None, :],
        )
    out[:, ttd <= 0] = 0.0
    return np.clip(out, 0.0, 1.0)


def _accuracy(workers: Sequence[Worker], tasks: Sequence[Task]) -> np.ndarray:
    out = np.empty((len(workers), len(tasks)), dtype=np.float64)
    categories: dict = {}
    for j, task in enumerate(tasks):
        categories.setdefault(task.category, []).append(j)
    for category, cols in categories.items():
        column = np.array([w.accuracy(category) for w in workers], dtype=np.float64)
        out[:, cols] = column[:, None]
    return out


def _distance(
    workers: Sequence[Worker], tasks: Sequence[Task], max_km: float
) -> np.ndarray:
    wlat = np.array([w.latitude for w in workers], dtype=np.float64)
    wlon = np.array([w.longitude for w in workers], dtype=np.float64)
    tlat = np.array([t.latitude for t in tasks], dtype=np.float64)
    tlon = np.array([t.longitude for t in tasks], dtype=np.float64)
    km = haversine_km_matrix(wlat[:, None], wlon[:, None], tlat[None, :], tlon[None, :])
    return np.maximum(0.0, 1.0 - km / max_km)


def weight_matrix(
    function: WeightFunction, workers: Sequence[Worker], tasks: Sequence[Task]
) -> np.ndarray:
    """The weight functions the builder tests use, one worker at a time."""
    if isinstance(function, AccuracyWeight):
        return _accuracy(workers, tasks)
    if isinstance(function, DistanceWeight):
        return _distance(workers, tasks, function.max_km)
    if isinstance(function, HybridWeight):
        return function.beta * _accuracy(workers, tasks) + (1.0 - function.beta) * _distance(
            workers, tasks, function._distance.max_km
        )
    if isinstance(function, ConstantWeight):
        return np.full((len(workers), len(tasks)), function.value, dtype=np.float64)
    raise TypeError(f"no per-worker reference for {function!r}")


def build(
    builder: AssignmentGraphBuilder,
    estimator: DeadlineEstimator,
    workers: Sequence[Worker],
    tasks: Sequence[Task],
    now: float,
) -> Tuple[np.ndarray, np.ndarray, GraphBuildReport]:
    """``(keep, weights, report)`` of the per-worker build.

    ``estimator`` evaluates Eq. 3 (pass one that shares no state with the
    builder's, so the two fit independently); ``weights`` already carries
    the cold-start override.
    """
    report = GraphBuildReport()
    n_w, n_t = len(workers), len(tasks)
    if n_w == 0 or n_t == 0:
        return np.zeros((n_w, n_t), dtype=bool), np.zeros((n_w, n_t)), report
    report.candidate_edges = n_w * n_t
    ttd = np.array([task.time_to_deadline(now) for task in tasks], dtype=np.float64)
    cold_start = np.array(
        [w.assignment_count < estimator.min_history for w in workers], dtype=bool
    )
    report.cold_start_workers = int(cold_start.sum())
    if builder.edge_probability_bound > 0.0:
        prob = eq3_matrix(estimator, workers, ttd)
        keep = prob >= builder.edge_probability_bound
        keep |= cold_start[:, None] & (ttd > 0)[None, :]
    else:
        keep = np.ones((n_w, n_t), dtype=bool)
    report.pruned_by_probability = report.candidate_edges - int(keep.sum())

    weights = weight_matrix(builder.weight_function, workers, tasks)
    weights = np.where(~cold_start[:, None], weights, MAX_WEIGHT)

    if builder.reward_ranges:
        rewards = np.array([task.reward for task in tasks], dtype=np.float64)
        for i, worker in enumerate(workers):
            accepted = builder.reward_ranges.get(worker.worker_id)
            if accepted is None:
                continue
            ok = (rewards >= accepted.low) & (rewards <= accepted.high)
            report.pruned_by_reward += int((keep[i] & ~ok).sum())
            keep[i] &= ok

    if builder.budget is not None:
        funded = np.array([builder.budget.allows(task) for task in tasks], dtype=bool)
        if not funded.all():
            report.pruned_by_budget = int((keep & ~funded[None, :]).sum())
            keep &= funded[None, :]

    report.kept_edges = int(keep.sum())
    return keep, weights, report
