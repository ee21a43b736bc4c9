"""Tiered escalation benefit (§III-A tiers).

The paper sketches multi-tier region organisation "to collect task
information from all the users in a scalable manner" without evaluating
it.  This bench constructs the situation tiers exist for — workers
clustered in a few hot cells while tasks arrive uniformly over the whole
area — and measures the fraction of tasks served with escalation enabled
versus a flat per-cell deployment where a task may only use its own cell's
workers.
"""

import dataclasses

from repro.model.region import RegionGrid
from repro.model.task import Task, TaskCategory
from repro.platform.coordinator import Coordinator
from repro.platform.cost import ZeroCost
from repro.platform.policies import react_policy
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from repro.sim.process import GeneratorProcess
from repro.sim.rng import STREAM_ARRIVALS, STREAM_TASKS, RngRegistry
from repro.workload.arrivals import poisson_gaps
from repro.workload.population import PopulationConfig, generate_population

SIDE = 4  # 4x4 leaf grid
WORKERS = 80
TASKS = 400
RATE = 0.8
#: workers live only in these leaf cells (two hot corners)
HOT_CELLS = ((0, 0), (3, 3))


def _run(escalate_after):
    engine = Engine()
    rng = RngRegistry(seed=55)
    coordinator = Coordinator(
        engine=engine,
        policy=react_policy(batch_threshold=1),
        regions=list(RegionGrid(0, 1, 0, 1, SIDE, SIDE).regions),
        rng=rng,
        escalate_after=escalate_after,
        escalation_interval=2.0,
        cost_model=ZeroCost(),
    )
    placement = rng.stream("placement")
    population = generate_population(
        rng.stream("population"), PopulationConfig(size=WORKERS)
    )
    for i, (profile, behavior) in enumerate(population):
        r, c = HOT_CELLS[i % len(HOT_CELLS)]
        latitude = float((r + placement.random()) / SIDE)
        longitude = float((c + placement.random()) / SIDE)
        profile = dataclasses.replace(profile, latitude=latitude, longitude=longitude)
        coordinator.add_worker(profile, behavior)

    task_rng = rng.stream(STREAM_TASKS)

    def submit(_):
        coordinator.submit_task(
            Task(
                latitude=float(task_rng.uniform(0.0, 0.999)),
                longitude=float(task_rng.uniform(0.0, 0.999)),
                deadline=float(task_rng.uniform(60.0, 120.0)),
                category=TaskCategory.LOCATION_SURVEY,
                submitted_at=engine.now,
            )
        )

    GeneratorProcess(
        engine,
        poisson_gaps(RATE, rng.stream(STREAM_ARRIVALS), TASKS),
        submit,
        kind=EventKind.TASK_ARRIVAL,
    )
    engine.run(until=TASKS / RATE + 300.0)
    summary = coordinator.aggregate_summary()
    summary["escalations"] = len(coordinator.escalations)
    coordinator.stop()
    return summary


def test_tiered_escalation_benefit(benchmark):
    with_escalation = benchmark.pedantic(_run, args=(10.0,), rounds=1, iterations=1)
    # "flat" deployment: escalation effectively disabled (fires after the
    # longest deadline has already lapsed)
    flat = _run(130.0)

    print()
    print("# tiered escalation (workers clustered in 2 of 16 cells)")
    print(f"flat per-cell deployment:  on_time={flat['on_time_fraction']:.1%} "
          f"escalations={flat['escalations']:.0f}")
    print(f"escalation after 10 s:     "
          f"on_time={with_escalation['on_time_fraction']:.1%} "
          f"escalations={with_escalation['escalations']:.0f}")

    assert with_escalation["escalations"] > 0
    # with workers absent from 14 of 16 cells, a flat deployment loses most
    # tasks; escalation recovers the large majority of them
    assert flat["on_time_fraction"] < 0.35
    assert with_escalation["on_time_fraction"] > 2 * flat["on_time_fraction"]
