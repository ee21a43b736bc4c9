"""Chaos experiment driver: robustness under injected faults.

Runs each scheduling technique twice on the *same* seeded workload — once
fault-free and once under a :class:`~repro.chaos.FaultSchedule` — with the
cross-component invariants (I1-I4, I6, I7) re-audited every simulated second, and
reports how gracefully each technique degrades.  This is the executable
form of the paper's central robustness claim: REACT keeps meeting soft
deadlines when workers dawdle, abandon, churn and the middleware itself
misbehaves, and its advantage over Greedy and the AMT-like Traditional
baseline must *survive* the chaos, not just the happy path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..chaos import FaultInjector, FaultLogEntry, FaultSchedule
from ..obs.runtime import ObservabilityLike
from ..platform.invariants import InvariantMonitor
from ..platform.policies import SchedulingPolicy
from ..platform.resilience import ResilienceConfig
from .config import EndToEndConfig
from .endtoend import arm_arrivals, assemble_run

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos scenario: workload + fault schedule + resilience knobs."""

    n_workers: int = 120
    arrival_rate: float = 1.5
    n_tasks: int = 900
    seed: int = 42
    deadline_low: float = 60.0
    deadline_high: float = 120.0
    #: Extra simulated seconds after the last arrival (and last fault).
    drain_time: float = 400.0
    #: Invariant re-audit period in simulated seconds.
    invariant_period: float = 1.0
    #: Resilience layer applied to every non-traditional policy (None
    #: disables: withdrawn tasks requeue instantly, no degraded mode).
    resilience: Optional[ResilienceConfig] = ResilienceConfig(
        retry_backoff_base=1.0,
        retry_backoff_factor=2.0,
        retry_backoff_cap=20.0,
        max_reassignments=12,
        latency_budget=15.0,
    )

    def __post_init__(self) -> None:
        self.endtoend_config()  # validates the workload fields
        if not self.invariant_period > 0:
            raise ValueError("invariant_period must be positive")

    def endtoend_config(self) -> EndToEndConfig:
        """The §V-C single-region workload every chaos run faces."""
        return EndToEndConfig(
            n_workers=self.n_workers,
            arrival_rate=self.arrival_rate,
            n_tasks=self.n_tasks,
            seed=self.seed,
            drain_time=self.drain_time,
            deadline_low=self.deadline_low,
            deadline_high=self.deadline_high,
        )

    @property
    def arrival_horizon(self) -> float:
        return self.n_tasks / self.arrival_rate

    def horizon(self, schedule: Optional[FaultSchedule]) -> float:
        """End of run: arrivals done, faults closed, drain elapsed."""
        fault_end = schedule.horizon if schedule is not None else 0.0
        return max(self.arrival_horizon, fault_end) + self.drain_time


def standard_schedule(config: ChaosConfig, seed: int = 0) -> FaultSchedule:
    """The all-faults scenario scaled to the config's arrival window."""
    spacing = config.arrival_horizon / 7.0
    return FaultSchedule.standard(
        first_start=spacing,
        spacing=spacing,
        window=spacing / 3.0,
        seed=seed,
    )


@dataclass
class ChaosRunResult:
    """Everything one audited (possibly faulted) run produces."""

    policy_name: str
    faulted: bool
    summary: Dict[str, float]
    on_time_fraction: float
    invariant_audits: int
    fault_log: List[FaultLogEntry] = field(default_factory=list)
    #: (task_id, met_deadline, completed_at) triples for recovery analysis.
    outcomes: List[tuple] = field(default_factory=list)


def run_chaos(
    policy: SchedulingPolicy,
    config: ChaosConfig,
    schedule: Optional[FaultSchedule] = None,
    observability: Optional[ObservabilityLike] = None,
) -> ChaosRunResult:
    """One audited run; ``schedule=None`` gives the fault-free twin."""
    logger.info(
        "chaos: policy=%s seed=%d faulted=%s",
        policy.name, config.seed, schedule is not None,
    )
    workload = config.endtoend_config()
    resilience = config.resilience if policy.use_probabilistic_model else None
    with assemble_run(policy, workload, observability, resilience) as (
        engine, rng, server, crowd
    ):
        for profile, behavior in crowd:
            server.add_worker(profile, behavior)
        server.start()

        monitor = InvariantMonitor(engine, server, period=config.invariant_period).start()
        injector: Optional[FaultInjector] = None
        if schedule is not None:
            injector = FaultInjector(engine, server, schedule).arm()

        arm_arrivals(engine, rng, workload, server.submit_task)
        engine.run(until=config.horizon(schedule))
        monitor.stop()
        server.stop()
        server.metrics.check_conservation()

        metrics = server.metrics
        return ChaosRunResult(
            policy_name=policy.name,
            faulted=schedule is not None,
            summary=server.drain_and_summary(),
            on_time_fraction=metrics.on_time_fraction,
            invariant_audits=monitor.audits,
            fault_log=list(injector.log) if injector is not None else [],
            outcomes=[
                (o.task_id, o.met_deadline, o.completed_at) for o in metrics.outcomes
            ],
        )


def report_chaos(results: Dict[str, Dict[str, ChaosRunResult]]) -> str:
    """Text report: per-policy degradation under the fault schedule."""
    lines = [
        "# Chaos: on-time ratio under injected faults vs. fault-free twin",
        "# (same seed; invariants I1-I4, I6, I7 audited every simulated second)",
        f"{'policy':<14}{'clean':>9}{'faulted':>9}{'delta':>9}"
        f"{'audits':>9}{'faults':>8}{'degraded':>10}",
    ]
    for name, pair in results.items():
        clean, faulted = pair["clean"], pair["faulted"]
        delta = faulted.on_time_fraction - clean.on_time_fraction
        lines.append(
            f"{name:<14}"
            f"{clean.on_time_fraction:>8.1%}"
            f"{faulted.on_time_fraction:>8.1%}"
            f"{delta:>+8.1%}"
            f"{faulted.invariant_audits:>9d}"
            f"{int(faulted.summary['chaos_faults_injected']):>8d}"
            f"{int(faulted.summary['degraded_mode_switches']):>10d}"
        )
    lines.append("")
    lines.append("# faulted-run fault/recovery counters")
    counter_keys = (
        "chaos_abandonments",
        "chaos_no_shows",
        "chaos_corrupted_observations",
        "matcher_stall_seconds",
        "blackout_orphaned",
        "readopted_tasks",
        "deferred_retries",
        "reassignment_budget_exhausted",
        "aborted_batches",
    )
    header = f"{'policy':<14}" + "".join(f"{k.split('_')[-1][:9]:>10}" for k in counter_keys)
    lines.append(header)
    for name, pair in results.items():
        summary = pair["faulted"].summary
        lines.append(
            f"{name:<14}" + "".join(f"{summary[k]:>10}" for k in counter_keys)
        )
    return "\n".join(lines)
