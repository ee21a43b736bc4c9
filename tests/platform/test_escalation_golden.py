"""Golden pin of the seeded §III-A tier-escalation runs.

The workload is the one ``benchmarks/bench_tiers.py`` measures: 80 workers
clustered in two corner cells of a 4×4 leaf grid, 400 tasks arriving
uniformly over the whole area.  With escalation after 10 s, 253 of 400
tasks finish on time through 440 hand-offs; with escalation after 130 s
(longer than any deadline, so never), 37 do and nothing is handed off.
The full hand-off sequence is pinned in ``goldens/escalation_records.json``
so a refactor of the escalation sweep cannot move a single decision.
Regenerate after an intentional behaviour change with:

    PYTHONPATH=src python tests/platform/test_escalation_golden.py
"""

import dataclasses
import json
from pathlib import Path

from repro.model.region import RegionGrid
from repro.model.task import Task, TaskCategory, reset_task_ids
from repro.platform.coordinator import Coordinator
from repro.platform.cost import ZeroCost
from repro.platform.policies import react_policy
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from repro.sim.process import GeneratorProcess
from repro.sim.rng import STREAM_ARRIVALS, STREAM_TASKS, RngRegistry
from repro.workload.arrivals import poisson_gaps
from repro.workload.population import PopulationConfig, generate_population

GOLDEN = Path(__file__).parent / "goldens" / "escalation_records.json"

SIDE = 4
WORKERS = 80
TASKS = 400
RATE = 0.8
HOT_CELLS = ((0, 0), (3, 3))


def _deploy(engine, rng, escalate_after):
    return Coordinator(
        engine=engine,
        policy=react_policy(batch_threshold=1),
        regions=list(RegionGrid(0, 1, 0, 1, SIDE, SIDE).regions),
        rng=rng,
        escalate_after=escalate_after,
        escalation_interval=2.0,
        cost_model=ZeroCost(),
    )


def _run(escalate_after):
    reset_task_ids()
    engine = Engine()
    rng = RngRegistry(seed=55)
    coordinator = _deploy(engine, rng, escalate_after)
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
    records = [
        [r.time, r.task_id, r.waited, r.network_wide]
        for r in coordinator.escalations
    ]
    coordinator.stop()
    return summary, records


def test_escalation_after_10s_golden():
    summary, records = _run(10.0)
    assert summary["received"] == 400
    assert summary["completed_on_time"] == 253
    assert len(records) == 440
    assert records == json.loads(GOLDEN.read_text())


def test_escalation_never_fires_golden():
    summary, records = _run(130.0)
    assert summary["received"] == 400
    assert summary["completed_on_time"] == 37
    assert records == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_run(10.0)[1]) + "\n")
    print(f"wrote {GOLDEN}")
