"""End-to-end runs under continuous invariant auditing.

Every simulated second, every cross-component invariant (I1-I4, I6, I7) is
re-checked while the full workload — dawdlers, abandoners, Eq. 2 rescues,
expiry pull-backs, matcher latency — plays out.  This is the strongest
correctness statement the suite makes about the platform's state machine.
"""

import pytest

from repro.model.task import Task, TaskCategory
from repro.platform.cost import PaperCalibratedCost
from repro.platform.invariants import InvariantMonitor
from repro.platform.policies import greedy_policy, react_policy, traditional_policy
from repro.platform.server import REACTServer
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from repro.sim.process import GeneratorProcess
from repro.sim.rng import STREAM_TASKS, STREAM_WORKER_POPULATION, RngRegistry
from repro.workload.arrivals import deterministic_gaps
from repro.workload.population import PopulationConfig, generate_population


def _audited_run(policy, n_workers=40, rate=0.5, n_tasks=150, seed=19):
    engine = Engine()
    rng = RngRegistry(seed=seed)
    server = REACTServer(
        engine=engine,
        policy=policy,
        rng=rng,
        cost_model=PaperCalibratedCost(batch_overhead=0.1),
    )
    for profile, behavior in generate_population(
        rng.stream(STREAM_WORKER_POPULATION), PopulationConfig(size=n_workers)
    ):
        server.add_worker(profile, behavior)
    server.start()
    monitor = InvariantMonitor(engine, server, period=1.0).start()

    task_rng = rng.stream(STREAM_TASKS)

    def submit(_):
        server.submit_task(
            Task(
                latitude=0.0, longitude=0.0,
                deadline=float(task_rng.uniform(60.0, 120.0)),
                category=TaskCategory.GENERIC,
                submitted_at=engine.now,
            )
        )

    GeneratorProcess(
        engine, deterministic_gaps(rate, n_tasks), submit, kind=EventKind.TASK_ARRIVAL
    )
    engine.run(until=n_tasks / rate + 300.0)
    monitor.stop()
    server.stop()
    return server, monitor


@pytest.mark.parametrize(
    "policy_factory",
    [react_policy, greedy_policy, traditional_policy],
    ids=["react", "greedy", "traditional"],
)
def test_policy_holds_invariants_throughout(policy_factory):
    server, monitor = _audited_run(policy_factory())
    assert monitor.audits > 500  # audited every simulated second
    assert server.metrics.received == 150


def test_invariants_hold_under_churn():
    import numpy as np

    from repro.workload.churn import ChurnProcess

    engine = Engine()
    rng = RngRegistry(seed=7)
    server = REACTServer(engine=engine, policy=react_policy(), rng=rng)
    for profile, behavior in generate_population(
        rng.stream(STREAM_WORKER_POPULATION), PopulationConfig(size=25)
    ):
        server.add_worker(profile, behavior)
    server.start()
    monitor = InvariantMonitor(engine, server, period=1.0).start()
    churn = ChurnProcess(
        engine, server, np.random.default_rng(3),
        mean_session_s=40.0, mean_absence_s=20.0,
    )
    churn.track_all_workers()

    task_rng = rng.stream(STREAM_TASKS)

    def submit(_):
        server.submit_task(
            Task(latitude=0.0, longitude=0.0,
                 deadline=float(task_rng.uniform(60.0, 120.0)),
                 submitted_at=engine.now)
        )

    GeneratorProcess(
        engine, deterministic_gaps(0.4, 80), submit, kind=EventKind.TASK_ARRIVAL
    )
    engine.run(until=450.0)
    assert monitor.audits >= 450
    assert churn.stats.departures > 0
