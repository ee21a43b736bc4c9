"""Scenario experiment driver: budgets × geography × heterogeneous tasks.

Runs one policy through the full scenario pack — per-requester budgets
(:mod:`repro.scenarios.budget`), hot-region arrival skew over a multi-cell
:class:`~repro.model.region.RegionGrid` (:mod:`repro.scenarios.spatial`)
and specialist workers (:mod:`repro.scenarios.heterogeneous`) — under the
multi-region :class:`~repro.platform.coordinator.Coordinator`, so region
splits, cross-region task migration and budget load shedding actually
execute instead of sitting behind unit tests.

The comparison entry point runs REACT/Metropolis/Greedy plus the two
related-work baselines (:func:`repro.scenarios.baselines.scenario_policies`)
under the same seed: identical arrival trace, identical worker population
and placement, identical budgets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..model.task import reset_task_ids
from ..obs.runtime import ObservabilityLike
from ..platform.coordinator import Coordinator
from ..platform.cost import PaperCalibratedCost
from ..platform.policies import SchedulingPolicy
from ..platform.server import REACTServer
from ..scenarios.baselines import scenario_policies
from ..scenarios.budget import BudgetLedger
from ..scenarios.heterogeneous import SpecialistConfig, specialize_population
from ..scenarios.spatial import SpatialConfig, SpatialSampler
from ..sim.engine import Engine
from ..sim.events import EventKind
from ..sim.process import GeneratorProcess
from ..sim.rng import (
    STREAM_ARRIVALS,
    STREAM_SCENARIO_GEO,
    STREAM_TASKS,
    STREAM_WORKER_POPULATION,
    RngRegistry,
)
from ..workload.arrivals import poisson_gaps
from ..workload.generators import CategoryMixGenerator, TaskGeneratorConfig
from ..workload.population import PopulationConfig, generate_population
from .endtoend import BATCH_OVERHEAD_SECONDS

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario run: workload, geometry, budgets and specialization."""

    seed: int = 7
    n_tasks: int = 450
    n_workers: int = 120
    #: Poisson arrival rate (tasks/s); with the default worker population
    #: this oversubscribes the hot region so the overload remedy fires.
    arrival_rate: float = 2.5
    #: Simulated horizon: arrivals span ``n_tasks / arrival_rate`` seconds,
    #: the slack beyond that lets queued work drain.
    horizon: float = 400.0
    deadline_low: float = 60.0
    deadline_high: float = 120.0
    spatial: SpatialConfig = field(default_factory=SpatialConfig)
    specialist: SpecialistConfig = field(default_factory=SpecialistConfig)
    #: Queue depth above which the coordinator splits a region (None
    #: disables splitting — the §V-D no-remedy control).
    overload_queue_limit: Optional[int] = 15
    max_splits_per_submit: int = 4
    #: Requester population; tasks are attributed round-robin.
    n_requesters: int = 6
    #: Per-requester budget.  The §V-C reward band averages $0.055/task, so
    #: the default funds ~22 completions per requester — under an even
    #: share of the feasible workload, so budgets bind mid-run and the
    #: edge-gating and shedding paths actually execute for every policy.
    requester_budget: float = 1.2

    def __post_init__(self) -> None:
        if self.n_tasks < 1 or self.n_workers < 1:
            raise ValueError("need at least one task and one worker")
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not (0 < self.deadline_low <= self.deadline_high):
            raise ValueError("need 0 < deadline_low <= deadline_high")
        if self.n_requesters < 1:
            raise ValueError(f"n_requesters must be >= 1, got {self.n_requesters}")
        if self.requester_budget < 0:
            raise ValueError("requester_budget must be non-negative")


@dataclass
class ScenarioResult:
    """Everything the scenario report (and its merge contract) needs.

    Deliberately contains no raw ``region_id`` values: region ids come from
    a process-global counter, so embedding them would make the sharded
    drivers' outputs depend on how many regions earlier runs in the same
    process created — breaking the sharded-vs-sequential byte-identity
    contract.  ``regions_final`` (a count) carries the same information.
    """

    policy_name: str
    config: ScenarioConfig
    summary: Dict[str, float]
    splits_performed: int
    tasks_migrated: int
    workers_migrated: int
    regions_final: int
    shed_by_budget: int
    budget: Dict[str, float]


def run_scenario(
    policy: SchedulingPolicy,
    config: ScenarioConfig,
    observability: Optional[ObservabilityLike] = None,
) -> ScenarioResult:
    """Simulate one technique under the full scenario pack."""
    logger.info(
        "scenario: policy=%s seed=%d tasks=%d workers=%d requesters=%d",
        policy.name, config.seed, config.n_tasks, config.n_workers,
        config.n_requesters,
    )
    reset_task_ids()
    engine = Engine()
    rng = RngRegistry(seed=config.seed)
    sampler = SpatialSampler(config.spatial, rng.stream(STREAM_SCENARIO_GEO))
    ledger = BudgetLedger(
        {rid: config.requester_budget for rid in range(config.n_requesters)}
    )

    def server_factory(
        engine: Engine,
        policy: SchedulingPolicy,
        server_rng: RngRegistry,
        cost_model: object,
    ) -> REACTServer:
        server = REACTServer(
            engine=engine,
            policy=policy,
            rng=server_rng,
            cost_model=cost_model,  # type: ignore[arg-type]
            budget=ledger,
        )
        # Charge-on-completion: the reward is owed when the work lands.
        server.completion_hook = lambda task, worker_id: ledger.charge(task)
        return server

    coordinator = Coordinator(
        engine=engine,
        policy=policy,
        regions=list(config.spatial.make_grid().regions),
        rng=rng,
        cost_model=PaperCalibratedCost(batch_overhead=BATCH_OVERHEAD_SECONDS),
        overload_queue_limit=config.overload_queue_limit,
        max_splits_per_submit=config.max_splits_per_submit,
        observability=observability,
        server_factory=server_factory,
    )

    population = specialize_population(
        generate_population(
            rng.stream(STREAM_WORKER_POPULATION),
            PopulationConfig(size=config.n_workers),
        ),
        config.specialist,
    )
    for profile, behavior in population:
        profile.latitude, profile.longitude = sampler.worker_location()
        coordinator.add_worker(profile, behavior)

    generator = CategoryMixGenerator(
        rng.stream(STREAM_TASKS),
        categories=config.specialist.categories,
        config=TaskGeneratorConfig(
            deadline_low=config.deadline_low, deadline_high=config.deadline_high
        ),
    )
    gaps = poisson_gaps(
        config.arrival_rate, rng.stream(STREAM_ARRIVALS), config.n_tasks
    )
    arrivals = 0

    def on_arrival(_payload: object) -> None:
        nonlocal arrivals
        task = generator.make(submitted_at=engine.now)
        # The mix generator draws deadlines/rewards/categories; geography
        # and ownership are the scenario's to shape.
        task.latitude, task.longitude = sampler.task_location()
        task.requester_id = arrivals % config.n_requesters
        arrivals += 1
        coordinator.submit_task(task)

    GeneratorProcess(engine, gaps, on_arrival, kind=EventKind.TASK_ARRIVAL)

    engine.run(until=config.horizon)
    for server in coordinator.servers:
        server.stop()
    summary = coordinator.aggregate_summary()
    # Conservation only balances at the coordinator: a migrated task is
    # *received* on its original server but finishes on its adopter, so the
    # per-server check would misfire by design.
    finished = summary.get("completed", 0) + summary.get("expired_unassigned", 0)
    if finished > summary.get("received", 0):
        raise AssertionError(
            f"accounting violation: finished={finished} > "
            f"received={summary.get('received', 0)}"
        )

    shed = sum(s.task_management.shed_by_budget for s in coordinator.servers)
    logger.info(
        "scenario: policy=%s done splits=%d migrated=%d shed=%d",
        policy.name, coordinator.splits_performed, coordinator.tasks_migrated, shed,
    )
    return ScenarioResult(
        policy_name=policy.name,
        config=config,
        summary=summary,
        splits_performed=coordinator.splits_performed,
        tasks_migrated=coordinator.tasks_migrated,
        workers_migrated=coordinator.workers_migrated,
        regions_final=len(coordinator.regions),
        shed_by_budget=shed,
        budget=ledger.summary(),
    )


def run_scenario_comparison(
    config: ScenarioConfig,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
) -> Dict[str, ScenarioResult]:
    """Run every policy on the same seeded scenario; keyed by policy name.

    The sequential reference for :func:`repro.dist.run_scenario_sharded`,
    which the CLI runs.
    """
    results: Dict[str, ScenarioResult] = {}
    for policy in policies if policies is not None else scenario_policies():
        if policy.name in results:
            raise ValueError(f"duplicate policy name {policy.name!r}")
        results[policy.name] = run_scenario(policy, config)
    return results


def report_scenario(results: Dict[str, ScenarioResult]) -> str:
    """Human-readable scenario comparison (CI greps the footer line)."""
    lines: List[str] = []
    lines.append("Scenario pack: budgets x hot-region skew x heterogeneous tasks")
    lines.append("=" * 78)
    header = (
        f"{'policy':<16}{'on-time':>9}{'completed':>11}{'splits':>8}"
        f"{'migrated':>10}{'regions':>9}{'shed':>6}{'spent':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, result in results.items():
        summary = result.summary
        lines.append(
            f"{name:<16}"
            f"{summary.get('on_time_fraction', 0.0):>9.3f}"
            f"{int(summary.get('completed', 0)):>11d}"
            f"{result.splits_performed:>8d}"
            f"{result.tasks_migrated:>10d}"
            f"{result.regions_final:>9d}"
            f"{result.shed_by_budget:>6d}"
            f"{result.budget.get('total_spent', 0.0):>8.2f}"
        )
    lines.append("-" * len(header))
    total_splits = sum(r.splits_performed for r in results.values())
    total_migrated = sum(r.tasks_migrated for r in results.values())
    lines.append(
        f"total splits performed: {total_splits} "
        f"(tasks migrated cross-region: {total_migrated})"
    )
    return "\n".join(lines)
