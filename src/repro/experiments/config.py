"""Experiment configurations (one dataclass per paper experiment family).

Defaults reproduce the paper's §V setup exactly; the harnesses and the
pytest-benchmark suites construct these, and EXPERIMENTS.md records the
values used for each regenerated figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class MatchingSweepConfig:
    """Figs. 3-4: matching micro-benchmark on full graphs.

    "We initiate 1000 workers and we match them with a number of tasks that
    range from 1 to 1000 ... We use a full graph where all the tasks are
    connected with edges with every worker."  Weights are U[0, 1].
    """

    n_workers: int = 1000
    task_counts: Tuple[int, ...] = (1, 100, 250, 500, 750, 1000)
    cycles_settings: Tuple[int, ...] = (1000, 3000)
    k_constant: float = 0.05
    seed: int = 7
    #: Also run the offline-optimal Hungarian reference (slow at 1000²).
    include_hungarian: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not self.task_counts or min(self.task_counts) < 1:
            raise ValueError("task_counts must be non-empty positive")
        if max(self.task_counts) > self.n_workers * 100:
            raise ValueError("task count implausibly exceeds worker pool")


@dataclass(frozen=True)
class EndToEndConfig:
    """Figs. 5-8: one region server under sustained task arrivals.

    Paper: 750 online workers, 9.375 tasks/s, 8371 tasks total, batch
    threshold 10, REACT cycles 1000, reassignment threshold 10%, z = 3,
    deadlines U[60, 120] s.
    """

    n_workers: int = 750
    arrival_rate: float = 9.375
    n_tasks: int = 8371
    seed: int = 42
    #: "poisson" or "deterministic" inter-arrival gaps.
    arrival_process: str = "deterministic"
    #: Extra simulated seconds after the last arrival so in-flight work drains.
    drain_time: float = 600.0
    deadline_low: float = 60.0
    deadline_high: float = 120.0
    #: Matcher-latency model: "paper" (Fig. 3 calibration) or "zero".
    cost_model: str = "paper"
    #: Worker churn (§I "short connectivity cycles"): mean online-session
    #: seconds, or None for a static crowd.
    churn_mean_session: Optional[float] = None
    #: Mean offline-absence seconds (only used when churn is enabled).
    churn_mean_absence: float = 120.0
    #: Marketplace mode (docs/RETAINER.md): when set, workers are NOT
    #: pre-connected — they arrive Poisson at this rate (per second) and, if
    #: nothing engages them, browse off after ``worker_patience`` seconds.
    #: Retainer policies require this mode; None keeps the classic §V-C
    #: setup where the whole crowd is online at t = 0.
    worker_arrival_rate: Optional[float] = None
    #: Idle seconds before an unretained marketplace worker leaves.
    worker_patience: float = 30.0

    def __post_init__(self) -> None:
        if self.n_workers < 1 or self.n_tasks < 1:
            raise ValueError("n_workers and n_tasks must be >= 1")
        # ``not x > 0`` rather than ``x <= 0``: NaN fails every comparison,
        # and a NaN run length never ends.
        if not self.arrival_rate > 0:
            raise ValueError("arrival_rate must be positive")
        if self.arrival_process not in ("poisson", "deterministic"):
            raise ValueError(f"unknown arrival process {self.arrival_process!r}")
        if self.cost_model not in ("paper", "zero"):
            raise ValueError(f"unknown cost model {self.cost_model!r}")
        if not 0 <= self.drain_time < math.inf:
            raise ValueError("drain_time must be non-negative and finite")
        if self.churn_mean_session is not None and not self.churn_mean_session > 0:
            raise ValueError("churn_mean_session must be positive")
        if not self.churn_mean_absence > 0:
            raise ValueError("churn_mean_absence must be positive")
        if self.worker_arrival_rate is not None:
            if not self.worker_arrival_rate > 0:
                raise ValueError("worker_arrival_rate must be positive")
            if self.churn_mean_session is not None:
                raise ValueError(
                    "marketplace mode and churn are mutually exclusive "
                    "(patience departures replace the churn process)"
                )
        if not self.worker_patience > 0:
            raise ValueError("worker_patience must be positive")

    @property
    def horizon(self) -> float:
        """Simulated end time: all arrivals plus the drain window."""
        return self.n_tasks / self.arrival_rate + self.drain_time


@dataclass(frozen=True)
class ScalabilityConfig:
    """Figs. 9-10: the size/rate sweep.

    "We use a graph size of 100, 250, 500, 750 and 1000 workers and the
    tasks are received with a rate of 1.5, 3.125, 6.25, 9.375 and 12.5
    tasks per second respectively."  Tasks scale with the run duration so
    every size sees the same simulated time window.
    """

    worker_sizes: Tuple[int, ...] = (100, 250, 500, 750, 1000)
    rates: Tuple[float, ...] = (1.5, 3.125, 6.25, 9.375, 12.5)
    #: Simulated seconds of arrivals at every size point.
    duration: float = 893.0  # = 8371 / 9.375, the Fig. 5 run length
    seed: int = 42
    drain_time: float = 600.0
    cost_model: str = "paper"

    def __post_init__(self) -> None:
        if len(self.worker_sizes) != len(self.rates):
            raise ValueError("worker_sizes and rates must align")
        if min(self.worker_sizes) < 1 or min(self.rates) <= 0:
            raise ValueError("sizes must be >= 1 and rates positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def points(self) -> Sequence[Tuple[int, float, int]]:
        """(workers, rate, n_tasks) per sweep point."""
        return [
            (w, r, max(1, int(round(r * self.duration))))
            for w, r in zip(self.worker_sizes, self.rates)
        ]

    def endtoend_config(self, workers: int, rate: float, n_tasks: int) -> EndToEndConfig:
        return EndToEndConfig(
            n_workers=workers,
            arrival_rate=rate,
            n_tasks=n_tasks,
            seed=self.seed,
            drain_time=self.drain_time,
            cost_model=self.cost_model,
        )


@dataclass(frozen=True)
class AblationConfig:
    """Parameter sweeps around the design choices DESIGN.md calls out."""

    cycles_sweep: Tuple[int, ...] = (100, 300, 1000, 3000, 10000)
    threshold_sweep: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)
    z_sweep: Tuple[int, ...] = (0, 1, 3, 5, 10)
    k_sweep: Tuple[float, ...] = (0.01, 0.1, 1.0, 10.0)
    seed: int = 11
