"""Chaos experiment driver: robustness under injected faults.

Runs each scheduling technique twice on the *same* seeded workload — once
fault-free and once under a :class:`~repro.chaos.FaultSchedule` — with the
cross-component invariants (I1-I7) re-audited every simulated second, and
reports how gracefully each technique degrades.  This is the executable
form of the paper's central robustness claim: REACT keeps meeting soft
deadlines when workers dawdle, abandon, churn and the middleware itself
misbehaves, and its advantage over Greedy and the AMT-like Traditional
baseline must *survive* the chaos, not just the happy path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..chaos import FaultInjector, FaultLogEntry, FaultSchedule
from ..model.task import reset_task_ids
from ..obs.runtime import ObservabilityLike
from ..platform.cost import PaperCalibratedCost
from ..platform.invariants import InvariantMonitor
from ..platform.policies import (
    SchedulingPolicy,
    greedy_policy,
    react_policy,
    traditional_policy,
)
from ..platform.resilience import ResilienceConfig
from ..platform.server import REACTServer
from ..sim.engine import Engine
from ..sim.events import EventKind
from ..sim.process import GeneratorProcess
from ..sim.rng import STREAM_TASKS, STREAM_WORKER_POPULATION, RngRegistry
from ..workload.arrivals import deterministic_gaps
from ..workload.generators import TaskGeneratorConfig, TrafficMonitoringGenerator
from ..workload.population import PopulationConfig, generate_population

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
        if self.n_workers < 1 or self.n_tasks < 1:
            raise ValueError("n_workers and n_tasks must be >= 1")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.drain_time < 0:
            raise ValueError("drain_time must be non-negative")
        if self.invariant_period <= 0:
            raise ValueError("invariant_period must be positive")

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
    reset_task_ids()
    engine = Engine()
    rng = RngRegistry(seed=config.seed)
    resilience = config.resilience if policy.use_probabilistic_model else None
    server = REACTServer(
        engine=engine,
        policy=policy,
        rng=rng,
        cost_model=PaperCalibratedCost(batch_overhead=0.1),
        resilience=resilience,
        observability=observability,
    )
    for profile, behavior in generate_population(
        rng.stream(STREAM_WORKER_POPULATION), PopulationConfig(size=config.n_workers)
    ):
        server.add_worker(profile, behavior)
    server.start()

    monitor = InvariantMonitor(engine, server, period=config.invariant_period).start()
    injector: Optional[FaultInjector] = None
    if schedule is not None:
        injector = FaultInjector(engine, server, schedule).arm()

    generator = TrafficMonitoringGenerator(
        rng.stream(STREAM_TASKS),
        TaskGeneratorConfig(
            deadline_low=config.deadline_low, deadline_high=config.deadline_high
        ),
    )

    def submit(_payload: object) -> None:
        server.submit_task(generator.make(submitted_at=engine.now))

    GeneratorProcess(
        engine,
        deterministic_gaps(config.arrival_rate, config.n_tasks),
        submit,
        kind=EventKind.TASK_ARRIVAL,
    )
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


def default_policies() -> Sequence[SchedulingPolicy]:
    return (react_policy(cycles=1000), greedy_policy(), traditional_policy())


def run_chaos_comparison(
    config: ChaosConfig,
    schedule: Optional[FaultSchedule] = None,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
) -> Dict[str, Dict[str, ChaosRunResult]]:
    """Faulted + fault-free twin runs for every policy, same seed.

    Returns ``{policy: {"faulted": ..., "clean": ...}}``.  The sequential
    reference for :func:`repro.dist.run_chaos_sharded`, which the CLI runs
    (and which adds per-run telemetry).
    """
    if schedule is None:
        schedule = standard_schedule(config)
    results: Dict[str, Dict[str, ChaosRunResult]] = {}
    for policy in policies if policies is not None else default_policies():
        if policy.name in results:
            raise ValueError(f"duplicate policy name {policy.name!r}")
        results[policy.name] = {
            "clean": run_chaos(policy, config, schedule=None),
            "faulted": run_chaos(policy, config, schedule=schedule),
        }
    return results


def report_chaos(results: Dict[str, Dict[str, ChaosRunResult]]) -> str:
    """Text report: per-policy degradation under the fault schedule."""
    lines = [
        "# Chaos: on-time ratio under injected faults vs. fault-free twin",
        "# (same seed; invariants I1-I7 audited every simulated second)",
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
