"""Scalability experiment driver (Figs. 9-10).

Runs the §V-C end-to-end scenario at each (worker-count, arrival-rate)
point of the paper's sweep and reports, per technique, the fraction of
tasks finished before their deadline (Fig. 9) and the fraction earning
positive feedback (Fig. 10).  :func:`repro.dist.run_scalability_sharded`
drives the sweep, one :func:`evaluate_point` shard per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..platform.policies import SchedulingPolicy
from .config import ScalabilityConfig
from .endtoend import run_endtoend


@dataclass(frozen=True)
class ScalabilityPoint:
    """One (technique, size) measurement of the sweep."""

    policy_name: str
    n_workers: int
    arrival_rate: float
    n_tasks: int
    on_time_fraction: float
    positive_feedback_fraction: float
    avg_worker_time: Optional[float]
    avg_total_time: Optional[float]
    reassignments: int
    expired_unassigned: int


@dataclass
class ScalabilityResult:
    config: ScalabilityConfig
    points: List[ScalabilityPoint] = field(default_factory=list)

    def series(self, policy_name: str) -> List[ScalabilityPoint]:
        return [p for p in self.points if p.policy_name == policy_name]

    def policies(self) -> List[str]:
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.policy_name)
        return list(seen)


def evaluate_point(
    config: ScalabilityConfig,
    workers: int,
    rate: float,
    n_tasks: int,
    policy: SchedulingPolicy,
) -> ScalabilityPoint:
    """One (technique, size) cell of the sweep — hermetic, so shardable."""
    point_config = config.endtoend_config(workers, rate, n_tasks)
    run = run_endtoend(policy, point_config)
    summary = run.summary
    return ScalabilityPoint(
        policy_name=policy.name,
        n_workers=workers,
        arrival_rate=rate,
        n_tasks=n_tasks,
        on_time_fraction=summary["on_time_fraction"],
        positive_feedback_fraction=summary["positive_feedback_fraction"],
        avg_worker_time=run.avg_worker_time,
        avg_total_time=run.avg_total_time,
        reassignments=int(summary["reassignments"]),
        expired_unassigned=int(summary["expired_unassigned"]),
    )
