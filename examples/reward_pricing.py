#!/usr/bin/env python
"""The §III-C pricing extension: reward-range edge filtering.

"If the reward_j of task_j does not meet the reward range demands of the
worker_i the respective (worker_i, task_j) edge would not be instantiated."

This example gives every worker a declared acceptable-reward range and
submits a mixed workload of cheap ($0.02) and premium ($0.15) tasks.  It
shows, straight from the assignment-graph builder's report, how many edges
the pricing filter removes, and then runs the full platform to show that
picky (premium-only) workers never end up executing cheap tasks.

Run:  python examples/reward_pricing.py
"""

import numpy as np

from repro.core.deadline import DeadlineEstimator
from repro.core.weights import AccuracyWeight
from repro.graph.builders import AssignmentGraphBuilder, RewardRange
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerBehavior, WorkerProfile
from repro.model.worker_table import WorkerTable
from repro.platform.policies import react_policy
from repro.platform.server import REACTServer
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from repro.sim.rng import RngRegistry

N_PICKY = 10      # workers demanding >= $0.10
N_FLEXIBLE = 10   # workers accepting anything
CHEAP, PREMIUM = 0.02, 0.15


def graph_level_demo() -> None:
    """Show the filter acting inside graph construction."""
    profiling = WorkerTable()
    for i in range(4):
        profiling.register(WorkerProfile(worker_id=i))
        for _ in range(5):  # no cold-start boost; weights from history
            profiling.assign(i, task_id=0)
            profiling.complete(i, 3.0, TaskCategory.GENERIC, True)
    workers = profiling.rows(profiling.available_slots())
    ranges = {
        0: RewardRange(low=0.10),          # premium only
        1: RewardRange(low=0.10),
        2: RewardRange(),                  # anything
        # worker 3 declared no range -> anything
    }
    tasks = [
        Task(latitude=0, longitude=0, deadline=90, reward=CHEAP),
        Task(latitude=0, longitude=0, deadline=90, reward=PREMIUM),
    ]
    builder = AssignmentGraphBuilder(
        weight_function=AccuracyWeight(),
        estimator=DeadlineEstimator(min_history=3),
        edge_probability_bound=0.1,
        reward_ranges=ranges,
    )
    graph, report = builder.build(workers, tasks, now=0.0)
    print("Graph-construction view")
    print(f"  candidate edges:        {report.candidate_edges}")
    print(f"  pruned by reward range: {report.pruned_by_reward}")
    print(f"  edges kept:             {report.kept_edges}")
    cheap_edges = np.flatnonzero(graph.edge_tasks == 0)
    print(f"  workers connected to the $%.2f task: "
          % CHEAP + str(sorted(graph.edge_workers[cheap_edges].tolist())))


def platform_level_demo() -> None:
    """Run the full platform with reward ranges enforced end to end."""
    engine = Engine()
    rng = RngRegistry(seed=5)
    reward_ranges = {i: RewardRange(low=0.10) for i in range(N_PICKY)}
    server = REACTServer(
        engine=engine,
        policy=react_policy(batch_threshold=1),
        rng=rng,
        reward_ranges=reward_ranges,
    )
    behavior = WorkerBehavior(
        min_time=2.0, max_time=6.0, quality=0.9, delay_probability=0.0
    )
    for i in range(N_PICKY + N_FLEXIBLE):
        server.add_worker(WorkerProfile(worker_id=i), behavior)
    server.start()

    reward_of_task: dict[int, float] = {}
    task_rng = np.random.default_rng(3)
    for i in range(120):
        reward = CHEAP if task_rng.random() < 0.5 else PREMIUM

        def submit(event, reward=reward):
            task = Task(
                latitude=0, longitude=0, deadline=90.0, reward=reward,
                submitted_at=engine.now,
            )
            reward_of_task[task.task_id] = reward
            server.submit_task(task)

        engine.schedule_at(1.5 * i, EventKind.TASK_ARRIVAL, submit)

    engine.run(until=1.5 * 120 + 200.0)

    picky_cheap = sum(
        1
        for o in server.metrics.outcomes
        if o.final_worker is not None
        and o.final_worker < N_PICKY
        and reward_of_task[o.task_id] == CHEAP
    )
    picky_total = sum(
        1
        for o in server.metrics.outcomes
        if o.final_worker is not None and o.final_worker < N_PICKY
    )
    print()
    print("Platform view")
    print(f"  tasks completed:                    {server.metrics.completed}")
    print(f"  executions by premium-only workers: {picky_total}")
    print(f"  ... of which were cheap tasks:      {picky_cheap}  (must be 0)")
    assert picky_cheap == 0, "pricing filter violated"


if __name__ == "__main__":
    graph_level_demo()
    platform_level_demo()
