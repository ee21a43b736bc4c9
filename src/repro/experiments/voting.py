"""Replication / majority-voting comparison (paper §VI contrast).

The related-work systems the paper positions against (Karger-Oh-Shah's
budget-optimal allocation, CDAS) achieve reliability by *multi-assignment*:
every task goes to R workers and a majority vote decides the answer.  The
paper's counter-claim: "our technique manages to define the most suitable
workers before the execution of the tasks and thus to reduce the cost of
the multiple assignments."

This experiment quantifies that trade-off on the §V-C workload:

* **Replication-R baseline**: an AMT-like platform (uniform assignment, no
  profiling) submits R clones of every task; a logical task succeeds when a
  majority of its clones return a positive (on-time, correct) answer.
* **REACT reference**: single assignment with Eq. 1 quality weights and the
  Eq. 2/3 deadline model; a task succeeds when its one answer is positive.

Reported per configuration: the success fraction, the *payment cost* per
logical task (one reward per clone vs. one per task) and the worker
executions consumed (including REACT's reassignment retries — its honest
overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..model.task import Task
from ..platform.policies import SchedulingPolicy, react_policy, traditional_policy
from .config import EndToEndConfig
from .endtoend import arm_arrivals, assemble_run


@dataclass(frozen=True)
class VotingConfig:
    """Workload knobs for the voting comparison.

    The worker pool is sized for the *highest* replication level so every
    configuration faces the same crowd; lower levels simply leave capacity
    idle (favouring the replication baseline — the comparison is
    conservative for REACT).
    """

    n_workers: int = 250
    arrival_rate: float = 0.75
    n_tasks: int = 2500
    replication_levels: Tuple[int, ...] = (1, 3, 5)
    seed: int = 33
    drain_time: float = 400.0

    def __post_init__(self) -> None:
        self.endtoend_config()  # validates the workload fields
        if not self.replication_levels or min(self.replication_levels) < 1:
            raise ValueError("replication levels must be >= 1")
        if any(r % 2 == 0 for r in self.replication_levels):
            raise ValueError("replication levels must be odd (majority vote)")

    def endtoend_config(self) -> EndToEndConfig:
        """The §V-C single-region workload, without the matcher cost model."""
        return EndToEndConfig(
            n_workers=self.n_workers,
            arrival_rate=self.arrival_rate,
            n_tasks=self.n_tasks,
            seed=self.seed,
            drain_time=self.drain_time,
            cost_model="zero",
        )


@dataclass(frozen=True)
class VotingPoint:
    """Outcome of one configuration of the comparison."""

    label: str
    replication: int
    success_fraction: float
    rewards_per_task: float
    executions_per_task: float
    logical_tasks: int


@dataclass
class VotingResult:
    config: VotingConfig
    points: List[VotingPoint] = field(default_factory=list)

    def by_label(self) -> Dict[str, VotingPoint]:
        return {p.label: p for p in self.points}


def _run(
    policy: SchedulingPolicy,
    config: VotingConfig,
    replication: int,
    label: str,
) -> VotingPoint:
    workload = config.endtoend_config()
    with assemble_run(policy, workload) as (engine, rng, server, crowd):
        for profile, behavior in crowd:
            server.add_worker(profile, behavior)
        server.start()

        clone_to_logical: Dict[int, int] = {}
        logical_count = 0

        def submit(template: Task) -> None:
            nonlocal logical_count
            logical = logical_count
            logical_count += 1
            for _ in range(replication):
                clone = Task(
                    latitude=template.latitude,
                    longitude=template.longitude,
                    deadline=template.deadline,
                    reward=template.reward,
                    category=template.category,
                    description=template.description,
                    submitted_at=engine.now,
                )
                clone_to_logical[clone.task_id] = logical
                server.submit_task(clone)

        arm_arrivals(engine, rng, workload, submit)
        engine.run(until=workload.horizon)
        server.stop()

    # Aggregate clone outcomes per logical task.  The requester votes over
    # the answers that arrived *by the deadline*: success requires at least
    # one on-time answer and a strict majority of the on-time answers to be
    # correct (positive_feedback == correctness draw for on-time answers).
    arrived: Dict[int, int] = {}
    correct: Dict[int, int] = {}
    executions = 0
    for outcome in server.metrics.outcomes:
        logical = clone_to_logical[outcome.task_id]
        arrived.setdefault(logical, 0)
        correct.setdefault(logical, 0)
        if outcome.met_deadline:
            arrived[logical] += 1
            correct[logical] += int(outcome.positive_feedback)
        executions += outcome.assignments
    successes = sum(
        1
        for logical, n_arrived in arrived.items()
        if n_arrived > 0 and correct[logical] * 2 > n_arrived
    )

    return VotingPoint(
        label=label,
        replication=replication,
        success_fraction=successes / logical_count if logical_count else 0.0,
        rewards_per_task=float(replication),
        executions_per_task=executions / logical_count if logical_count else 0.0,
        logical_tasks=logical_count,
    )


def run_voting_comparison(config: Optional[VotingConfig] = None) -> VotingResult:
    """REACT single-assignment vs. replication-R majority voting."""
    config = config or VotingConfig()
    result = VotingResult(config=config)
    result.points.append(_run(react_policy(), config, replication=1, label="react"))
    for level in config.replication_levels:
        result.points.append(
            _run(
                traditional_policy(),
                config,
                replication=level,
                label=f"vote-{level}",
            )
        )
    return result


def report_voting(result: VotingResult) -> str:
    """Text report: reliability vs. payment/execution cost."""
    from ..stats.summaries import format_table

    rows = [
        (
            p.label,
            p.replication,
            f"{p.success_fraction:.1%}",
            f"{p.rewards_per_task:.0f}",
            f"{p.executions_per_task:.2f}",
        )
        for p in result.points
    ]
    return (
        "# Replication / majority voting vs. REACT single assignment (§VI)\n"
        "# success = majority of answers positive (on time & correct)\n"
        + format_table(
            ["configuration", "R", "success", "rewards/task", "executions/task"],
            rows,
        )
    )
