"""Memory ceiling of one batch: the graph build and the Greedy match.

A batch may hold its own graph plus one dense worker × task float64
matrix at a time, with 10% to spare for the boolean masks and the
per-row and per-column arrays.  The batch is 400 workers × 800 tasks:
trained workers whose Eq. 3 fits prune a few edges, cold-start workers
that connect everywhere, and expired columns that keep no edge, so about
95% of the cells become edges (the seed-42 §V-C run keeps 89%).  Peaks are
what ``tracemalloc`` traces (NumPy reports its buffers to it) while the
call runs; the graph's edge arrays are counted for the match too, since
they are alive throughout it.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.deadline import DeadlineEstimator
from repro.core.matching.greedy import GreedyMatcher
from repro.core.weights import AccuracyWeight
from repro.graph.builders import AssignmentGraphBuilder
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import WorkerTable

N_WORKERS, N_TASKS = 400, 800
N_COLD, N_EXPIRED = 40, 40
CATEGORIES = (TaskCategory.GENERIC, TaskCategory.PRICE_CHECK, TaskCategory.TRAFFIC_MONITORING)
NOW = 30.0


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(1)
    table = WorkerTable()
    for worker_id in range(N_WORKERS):
        table.register(WorkerProfile(worker_id=worker_id))
        if worker_id < N_COLD:
            continue
        for i, duration in enumerate(5.0 + rng.pareto(2.0, 8) * 15.0):
            table.complete(
                worker_id, float(duration), CATEGORIES[i % 3], bool(rng.random() < 0.8)
            )
            table.assign(worker_id, task_id=0)
            table.release(worker_id)
    tasks = [
        Task(
            latitude=0.0,
            longitude=0.0,
            deadline=20.0 if j < N_EXPIRED else float(rng.uniform(60.0, 120.0)),
            submitted_at=0.0,
            category=CATEGORIES[j % 3],
        )
        for j in range(N_TASKS)
    ]
    builder = AssignmentGraphBuilder(
        AccuracyWeight(), DeadlineEstimator(min_history=3), edge_probability_bound=0.1
    )
    rows = table.rows(table.available_slots())
    # Bring every fit up to date, so the traced build allocates no fit.
    graph, report = builder.build(rows, tasks, NOW)
    assert report.cold_start_workers == N_COLD
    assert 0 < report.pruned_by_probability
    assert graph.n_edges > 0.9 * N_WORKERS * N_TASKS
    return builder, rows, tasks, graph


def _peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _budget(graph):
    edge_bytes = (
        graph.edge_workers.nbytes + graph.edge_tasks.nbytes + graph.edge_weights.nbytes
    )
    dense = graph.n_workers * graph.n_tasks * np.dtype(np.float64).itemsize
    return edge_bytes, 1.1 * (edge_bytes + dense)


def test_build_holds_one_dense_matrix_besides_its_graph(batch):
    builder, rows, tasks, _ = batch
    (graph, _), peak = _peak(lambda: builder.build(rows, tasks, NOW))
    _, budget = _budget(graph)
    assert peak <= budget, f"build peaked at {peak / 1e6:.2f} MB, budget {budget / 1e6:.2f} MB"


def test_greedy_holds_one_dense_matrix_besides_the_graph(batch):
    *_, graph = batch
    result, peak = _peak(lambda: GreedyMatcher().match(graph))
    assert result.size == N_WORKERS
    edge_bytes, budget = _budget(graph)
    assert edge_bytes + peak <= budget, (
        f"match peaked at {peak / 1e6:.2f} MB over the graph's "
        f"{edge_bytes / 1e6:.2f} MB, budget {budget / 1e6:.2f} MB"
    )
