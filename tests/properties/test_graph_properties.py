"""Property-based tests on graph construction and the Eq. 3 builder."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import DeadlineEstimator
from repro.core.weights import ConstantWeight
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import AssignmentGraphBuilder
from repro.model.task import Task, TaskCategory
from repro.model.worker import WorkerProfile
from repro.model.worker_table import WorkerTable


@st.composite
def dense_weights(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    values = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(values).reshape(rows, cols)


class TestBipartiteGraphLaws:
    @given(weights=dense_weights())
    @settings(max_examples=60, deadline=None)
    def test_dense_round_trip(self, weights):
        graph = BipartiteGraph.full(weights)
        assert np.allclose(graph.to_dense(), weights)
        assert graph.n_edges == weights.size

    @given(weights=dense_weights(), threshold=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_prune_below_keeps_only_heavy(self, weights, threshold):
        pruned = BipartiteGraph.from_dense(weights, mask=weights >= threshold)
        assert pruned.n_edges == int((weights >= threshold).sum())
        if pruned.n_edges:
            assert pruned.edge_weights.min() >= threshold


@st.composite
def worker_histories(draw):
    n = draw(st.integers(1, 6))
    histories = []
    for _ in range(n):
        count = draw(st.integers(0, 6))
        times = draw(
            st.lists(st.floats(1.0, 200.0), min_size=count, max_size=count)
        )
        histories.append(times)
    return histories


def _rows(histories, min_assignments=0):
    """Table rows of workers with ``histories``, recorded through the
    Profiling Component; each was assigned once per duration, and at least
    ``min_assignments`` times."""
    profiling = WorkerTable()
    for worker_id, times in enumerate(histories):
        profiling.register(WorkerProfile(worker_id=worker_id))
        for _ in range(max(min_assignments, len(times))):
            profiling.assign(worker_id, task_id=0)
            profiling.release(worker_id)
        for t in times:
            profiling.complete(worker_id, t, TaskCategory.GENERIC, True)
    return profiling.rows_of(range(len(histories)))


class TestBuilderLaws:
    @given(
        histories=worker_histories(),
        n_tasks=st.integers(1, 5),
        deadline=st.floats(10.0, 200.0),
        bound=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_builder_output_always_consistent(self, histories, n_tasks, deadline, bound):
        workers = _rows(histories)
        tasks = [
            Task(latitude=0, longitude=0, deadline=deadline, submitted_at=0.0)
            for _ in range(n_tasks)
        ]
        builder = AssignmentGraphBuilder(
            weight_function=ConstantWeight(0.5),
            estimator=DeadlineEstimator(min_history=3),
            edge_probability_bound=bound,
        )
        graph, report = builder.build(workers, tasks, now=0.0)
        # structural consistency
        assert graph.n_workers == len(workers)
        assert graph.n_tasks == n_tasks
        assert report.kept_edges == graph.n_edges
        assert report.kept_edges + report.pruned_by_probability >= 0
        assert graph.n_edges <= len(workers) * n_tasks
        # cold-start workers always fully connected (deadline > 0 here)
        cold = np.flatnonzero(workers.assignment_count < 3)
        if len(cold):
            degrees = np.bincount(graph.edge_workers, minlength=graph.n_workers)
            for w in cold:
                assert degrees[w] == n_tasks

    @given(
        histories=worker_histories(),
        bound_low=st.floats(0.0, 0.5),
        bound_high=st.floats(0.5, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_higher_bound_prunes_more(self, histories, bound_low, bound_high):
        workers = _rows(histories, min_assignments=3)  # no cold-start boost
        tasks = [Task(latitude=0, longitude=0, deadline=60.0, submitted_at=0.0)]

        def edges_at(bound):
            builder = AssignmentGraphBuilder(
                weight_function=ConstantWeight(0.5),
                estimator=DeadlineEstimator(min_history=3),
                edge_probability_bound=bound,
            )
            graph, _ = builder.build(workers, tasks, now=0.0)
            return graph.n_edges

        assert edges_at(bound_high) <= edges_at(bound_low)
