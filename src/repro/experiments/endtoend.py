"""End-to-end experiment driver (Figs. 5-8).

Builds one region server under the given policy, feeds it the §V-C
workload, and returns the series/summaries the paper's Figures 5-8 plot.
:func:`repro.dist.run_comparison_sharded` runs REACT, Greedy and
Traditional through :func:`run_endtoend` under the *same* seed, so all
three face an identical arrival trace and worker population.  The chaos and voting experiments reuse that seeded run
through :func:`assemble_run` and :func:`arm_arrivals`.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..model.task import Task, reset_task_ids
from ..model.worker import WorkerBehavior, WorkerProfile
from ..obs.runtime import ObservabilityLike
from ..platform.cost import CostModel, PaperCalibratedCost, ZeroCost
from ..platform.policies import (
    RetainerSpec,
    SchedulingPolicy,
    greedy_policy,
    react_policy,
    react_retainer_policy,
    traditional_policy,
)
from ..platform.resilience import ResilienceConfig
from ..platform.server import REACTServer
from ..retainer.adaptive import AdaptivePoolSizer, EwmaRateEstimator
from ..retainer.pool import RetainerPool
from ..retainer.recruit import RetainerRecruiter, charge_task_payments
from ..sim.engine import Engine
from ..sim.events import EventKind
from ..sim.process import GeneratorProcess
from ..sim.rng import (
    STREAM_ARRIVALS,
    STREAM_CHURN,
    STREAM_TASKS,
    STREAM_WORKER_ARRIVALS,
    STREAM_WORKER_POPULATION,
    RngRegistry,
)
from ..stats.metrics import MetricsCollector
from ..workload.arrivals import deterministic_gaps, poisson_gaps
from ..workload.churn import ChurnProcess
from ..workload.generators import TaskGeneratorConfig, TrafficMonitoringGenerator
from ..workload.population import PopulationConfig, generate_population
from .config import EndToEndConfig

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetainerRunStats:
    """Supply-side accounting of one marketplace-mode run.

    Produced for every marketplace run — a plain on-demand policy gets
    zero wage spend, which is what makes the cost columns of the retainer
    comparison directly comparable.
    """

    pool_capacity: int
    workers_arrived: int
    workers_retained: int
    walk_ins: int
    patience_departures: int
    releases: int
    repooled: int
    wage_cost: float
    assignment_cost: float
    total_cost: float
    cost_per_completed: float


@dataclass
class EndToEndResult:
    """Everything the Figs. 5-8 reports need from one run."""

    policy_name: str
    config: EndToEndConfig
    summary: Dict[str, float]
    deadline_series: List[tuple[int, int]]
    feedback_series: List[tuple[int, int]]
    avg_worker_time: Optional[float]
    avg_total_time: Optional[float]
    withdrawals: int
    batches: int
    max_batch_tasks: int
    metrics: MetricsCollector
    #: p95 of submission→completion latency (the retainer headline metric).
    p95_total_time: Optional[float] = None
    #: Marketplace/retainer accounting; None outside marketplace mode.
    retainer: Optional[RetainerRunStats] = None


#: Fixed per-invocation server cost (graph construction + marshalling) in
#: the end-to-end experiments.  Calibrated from the paper's §III-A remark
#: that "the selection of the workers to assign 1000 tasks takes almost 10
#: seconds" — i.e. ~10 ms of per-task platform overhead beyond the matching
#: loop itself; a ~10-25-task batch costs a few hundred milliseconds.
BATCH_OVERHEAD_SECONDS = 0.1


def _cost_model(config: EndToEndConfig) -> CostModel:
    if config.cost_model == "paper":
        return PaperCalibratedCost(batch_overhead=BATCH_OVERHEAD_SECONDS)
    return ZeroCost()


@contextmanager
def assemble_run(
    policy: SchedulingPolicy,
    config: EndToEndConfig,
    observability: Optional[ObservabilityLike] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> Iterator[
    Tuple[Engine, RngRegistry, REACTServer, List[Tuple[WorkerProfile, WorkerBehavior]]]
]:
    """The seeded single-region run every §V-C-based experiment starts from.

    Resets the task ids and builds the engine, the ``config.seed`` registry
    and the server under the config's cost model, then draws the crowd.  The
    crowd is yielded unregistered: the classic setup adds it at t = 0,
    marketplace mode hands it to the recruiter as supply.

    The run ends with the ``with`` block: the engine's pending events are
    dropped then, because they hold callbacks into the server, which holds
    the engine.  The run's objects are then freed by reference counting as
    soon as the caller lets go of them (DESIGN.md, "Ownership").
    """
    reset_task_ids()
    engine = Engine()
    rng = RngRegistry(seed=config.seed)
    server = REACTServer(
        engine=engine,
        policy=policy,
        rng=rng,
        cost_model=_cost_model(config),
        resilience=resilience,
        observability=observability,
    )
    crowd = generate_population(
        rng.stream(STREAM_WORKER_POPULATION),
        PopulationConfig(size=config.n_workers),
    )
    try:
        yield engine, rng, server, crowd
    finally:
        engine.drain()


def arm_arrivals(
    engine: Engine,
    rng: RngRegistry,
    config: EndToEndConfig,
    submit: Callable[[Task], None],
) -> None:
    """Schedule the config's traffic-monitoring arrivals; each task goes to
    ``submit`` at its arrival time."""
    generator = TrafficMonitoringGenerator(
        rng.stream(STREAM_TASKS),
        TaskGeneratorConfig(
            deadline_low=config.deadline_low, deadline_high=config.deadline_high
        ),
    )
    if config.arrival_process == "poisson":
        gaps = poisson_gaps(config.arrival_rate, rng.stream(STREAM_ARRIVALS), config.n_tasks)
    else:
        gaps = deterministic_gaps(config.arrival_rate, config.n_tasks)

    def on_arrival(_payload: object) -> None:
        submit(generator.make(submitted_at=engine.now))

    GeneratorProcess(engine, gaps, on_arrival, kind=EventKind.TASK_ARRIVAL)


def run_endtoend(
    policy: SchedulingPolicy,
    config: EndToEndConfig,
    observability: Optional[ObservabilityLike] = None,
) -> EndToEndResult:
    """Simulate one technique under the §V-C workload.

    ``observability`` (see :mod:`repro.obs`) attaches a live tracer/registry
    to the server; None keeps the zero-overhead no-op instruments.
    """
    logger.info(
        "endtoend: policy=%s seed=%d tasks=%d workers=%d",
        policy.name, config.seed, config.n_tasks, config.n_workers,
    )
    if policy.retainer is not None and config.worker_arrival_rate is None:
        raise ValueError(
            f"policy {policy.name!r} has a retainer but the config is not in "
            "marketplace mode; set EndToEndConfig.worker_arrival_rate"
        )
    with assemble_run(policy, config, observability) as (engine, rng, server, population):
        pool: Optional[RetainerPool] = None
        recruiter: Optional[RetainerRecruiter] = None
        sizer: Optional[AdaptivePoolSizer] = None
        if config.worker_arrival_rate is not None:
            # Marketplace mode: the crowd arrives over time; a retainer policy
            # banks arrivals into a paid pool, an on-demand policy lets them
            # browse (and leave after `worker_patience` idle seconds).
            spec = policy.retainer
            if spec is not None:
                pool = RetainerPool(
                    engine,
                    capacity=spec.size,
                    cost=spec.cost_config(),
                    release_latency=spec.release_latency,
                    observability=observability,
                )
            recruiter = RetainerRecruiter(
                engine,
                server,
                supply=population,
                gaps=poisson_gaps(
                    config.worker_arrival_rate, rng.stream(STREAM_WORKER_ARRIVALS)
                ),
                patience=config.worker_patience,
                pool=pool,
                sweep_interval=spec.sweep_interval if spec is not None else 1.0,
                observability=observability,
            )
            if spec is not None and spec.adaptive and pool is not None:
                # Live arrival-rate tracking -> periodic c* retunes (ROADMAP:
                # "couple the closed forms back into the simulation").
                sizer = AdaptivePoolSizer(
                    engine,
                    pool,
                    EwmaRateEstimator(),
                    wage_per_second=spec.wage_per_second,
                    wait_cost_per_second=spec.wait_cost_per_second,
                    interval=spec.adaptive_interval,
                    metrics=server.metrics,
                    on_evict=recruiter.release_to_walkin,
                )
        else:
            for profile, behavior in population:
                server.add_worker(profile, behavior)
        server.start()
        if recruiter is not None:
            recruiter.start(prefill=policy.retainer.size if policy.retainer else 0)

        churn: Optional[ChurnProcess] = None
        if config.churn_mean_session is not None:
            churn = ChurnProcess(
                engine,
                server,
                rng=rng.stream(STREAM_CHURN),
                mean_session_s=config.churn_mean_session,
                mean_absence_s=config.churn_mean_absence,
            )
            churn.track_all_workers()

        def submit(task: Task) -> None:
            server.submit_task(task)
            if sizer is not None:
                sizer.observe_arrival()
            if recruiter is not None:
                recruiter.notify_demand()

        arm_arrivals(engine, rng, config, submit)
        engine.run(until=config.horizon)
        if churn is not None:
            churn.stop()
        if sizer is not None:
            sizer.stop()
        if recruiter is not None:
            recruiter.stop()
        server.stop()
        server.metrics.check_conservation()

        metrics = server.metrics
        retainer_stats: Optional[RetainerRunStats] = None
        if recruiter is not None:
            retainer_stats = _settle_retainer(policy, metrics, pool, recruiter)
        logger.info(
            "endtoend: policy=%s done received=%d completed=%d on_time=%d",
            policy.name, metrics.received, metrics.completed, metrics.completed_on_time,
        )
        return EndToEndResult(
            policy_name=policy.name,
            config=config,
            summary=server.drain_and_summary(),
            deadline_series=list(metrics.deadline_series),
            feedback_series=list(metrics.feedback_series),
            avg_worker_time=metrics.average_worker_time(),
            avg_total_time=metrics.average_total_time(),
            withdrawals=len(server.dynamic_assignment.withdrawals),
            batches=len(server.scheduling.batches),
            max_batch_tasks=max(
                (b.n_tasks for b in server.scheduling.batches), default=0
            ),
            metrics=metrics,
            p95_total_time=metrics.total_time_percentiles().get(95),
            retainer=retainer_stats,
        )


def _settle_retainer(
    policy: SchedulingPolicy,
    metrics: MetricsCollector,
    pool: Optional[RetainerPool],
    recruiter: RetainerRecruiter,
) -> RetainerRunStats:
    """Close the economic books of one marketplace run."""
    stats = recruiter.stats
    if pool is None:
        # On-demand baseline: no wage, flat payment per completed task —
        # keeps the cost columns comparable across the policy pair.
        spec = RetainerSpec()
        assignment_cost = spec.task_payment * metrics.completed
        return RetainerRunStats(
            pool_capacity=0,
            workers_arrived=stats.arrived,
            workers_retained=0,
            walk_ins=stats.walk_ins,
            patience_departures=stats.patience_departures,
            releases=0,
            repooled=0,
            wage_cost=0.0,
            assignment_cost=assignment_cost,
            total_cost=assignment_cost,
            cost_per_completed=(
                assignment_cost / metrics.completed if metrics.completed else 0.0
            ),
        )
    charge_task_payments(
        pool,
        [(o.final_worker, o.worker_time) for o in metrics.outcomes],
    )
    ledger = pool.ledger
    assert policy.retainer is not None  # checked in run_endtoend
    return RetainerRunStats(
        # Final capacity: equals the spec size unless adaptive retunes moved it.
        pool_capacity=pool.capacity,
        workers_arrived=stats.arrived,
        workers_retained=stats.retained,
        walk_ins=stats.walk_ins,
        patience_departures=stats.patience_departures,
        releases=stats.releases_requested,
        repooled=stats.repooled,
        wage_cost=ledger.retainer_cost,
        assignment_cost=ledger.assignment_cost,
        total_cost=ledger.total_cost,
        cost_per_completed=ledger.cost_per_task(metrics.completed),
    )


def default_policies() -> Sequence[SchedulingPolicy]:
    """The three §V-C techniques with the paper's parameters."""
    return (react_policy(cycles=1000), greedy_policy(), traditional_policy())


def retainer_policies(spec: Optional[RetainerSpec] = None) -> Sequence[SchedulingPolicy]:
    """The retainer comparison pair: plain REACT vs REACT + retainer.

    Both run in marketplace mode on the same seed, so they face identical
    worker-arrival and task-arrival traces; only the supply treatment
    differs.
    """
    return (react_policy(cycles=1000), react_retainer_policy(retainer=spec))
