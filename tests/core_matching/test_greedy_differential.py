"""Differential oracle: the dense-argmax Greedy against the lexsort walk.

:class:`~repro.core.matching.greedy.GreedyMatcher` must pick exactly what
:mod:`tests.core_matching.greedy_oracle` picks: the same edge indices in
the same (task) order, the same ``stats`` and the same dense task → worker
row.  The graphs are drawn to stress the tie rule (a tie goes to the
lowest edge index): edges in shuffled order, weights from a few levels,
all-``MAX_WEIGHT`` cold-start blocks, tasks and workers without edges,
lopsided shapes and empty graphs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching.greedy import GreedyMatcher
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import MAX_WEIGHT

from . import greedy_oracle as oracle

#: Weight levels that make equal-weight edges collide at shared vertices.
TIE_LEVELS = (0.0, 0.25, 0.5, 0.75, MAX_WEIGHT)


def assert_same_matching(graph: BipartiteGraph) -> None:
    got = GreedyMatcher().match(graph)
    want = oracle.greedy_match(graph)
    assert got.edge_indices.tolist() == want.edge_indices.tolist()
    assert got.stats == want.stats
    assert got.algorithm == want.algorithm
    assert np.array_equal(got.task_assignment_dense(), want.task_assignment_dense())
    assert got.task_assignment() == want.task_assignment()


def graph_from_matrix(
    weights: np.ndarray, keep: np.ndarray, order: str, rng: np.random.Generator
) -> BipartiteGraph:
    """The kept cells of a (workers × tasks) matrix, edges listed in ``order``."""
    dense = BipartiteGraph.from_dense(weights, mask=keep)
    if order == "worker-major":
        return dense
    n = dense.n_edges
    perm = {
        "shuffled": rng.permutation(n),
        "reversed": np.arange(n)[::-1],
        "task-major": np.lexsort((dense.edge_workers, dense.edge_tasks)),
    }[order]
    return BipartiteGraph(
        dense.n_workers,
        dense.n_tasks,
        dense.edge_workers[perm],
        dense.edge_tasks[perm],
        dense.edge_weights[perm],
    )


@st.composite
def graphs(draw):
    n_workers = draw(st.integers(0, 14))
    n_tasks = draw(st.integers(0, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (n_workers, n_tasks)
    levels = draw(st.sampled_from(["continuous", "ties", "cold-start"]))
    if levels == "continuous":
        weights = rng.random(shape)
    else:
        weights = rng.choice(TIE_LEVELS, size=shape)
    if levels == "cold-start" and n_workers:
        # Workers without history weigh MAX_WEIGHT on every task they reach.
        cold = rng.random(n_workers) < draw(st.sampled_from([0.3, 1.0]))
        weights[cold, :] = MAX_WEIGHT
    keep = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    if n_workers and draw(st.booleans()):
        keep[rng.integers(n_workers), :] = False  # a worker without edges
    if n_tasks and draw(st.booleans()):
        keep[:, rng.integers(n_tasks)] = False  # a task without edges
    order = draw(st.sampled_from(["worker-major", "shuffled", "reversed", "task-major"]))
    return graph_from_matrix(weights, keep, order, rng)


class TestGreedyMatchesOracle:
    @given(graph=graphs())
    @settings(max_examples=300, deadline=None)
    def test_drawn_graphs(self, graph):
        assert_same_matching(graph)

    def test_empty_graphs(self):
        for n_workers, n_tasks in [(0, 0), (0, 3), (3, 0), (4, 5)]:
            assert_same_matching(BipartiteGraph.empty(n_workers, n_tasks))

    def test_lopsided_shapes_with_ties(self):
        rng = np.random.default_rng(7)
        for shape in [(3, 200), (200, 3), (1, 50), (50, 1)]:
            weights = rng.choice(TIE_LEVELS, size=shape)
            keep = rng.random(shape) < 0.7
            for order in ("worker-major", "shuffled", "task-major"):
                assert_same_matching(graph_from_matrix(weights, keep, order, rng))

    def test_cold_start_block_in_any_order(self):
        # Every edge weighs MAX_WEIGHT: each task takes the free worker of
        # its lowest-index edge, whatever order the edges are listed in.
        rng = np.random.default_rng(11)
        weights = np.full((30, 40), MAX_WEIGHT)
        keep = rng.random((30, 40)) < 0.5
        for order in ("worker-major", "shuffled", "reversed", "task-major"):
            assert_same_matching(graph_from_matrix(weights, keep, order, rng))

    def test_one_swap_from_worker_major_order_with_ties(self):
        # One adjacent swap in a builder-ordered edge list is enough to make
        # argmax's lowest-worker tie rule wrong: the matcher must see the
        # order is not worker-major and break ties by edge index.
        rng = np.random.default_rng(17)
        for _ in range(20):
            weights = rng.choice(TIE_LEVELS, size=(6, 9))
            dense = BipartiteGraph.from_dense(weights, mask=rng.random((6, 9)) < 0.8)
            perm = np.arange(dense.n_edges)
            swap = rng.integers(dense.n_edges - 1)
            perm[[swap, swap + 1]] = perm[[swap + 1, swap]]
            assert_same_matching(
                BipartiteGraph(
                    dense.n_workers,
                    dense.n_tasks,
                    dense.edge_workers[perm],
                    dense.edge_tasks[perm],
                    dense.edge_weights[perm],
                )
            )
        # All weights tied and the first two edges swapped: task 0's tie
        # goes to worker 1, listed first, not to worker 0.
        dense = BipartiteGraph.from_dense(np.full((3, 3), MAX_WEIGHT))
        perm = np.array([3, 0, 1, 2, 4, 5, 6, 7, 8])
        swapped = BipartiteGraph(
            3, 3, dense.edge_workers[perm], dense.edge_tasks[perm], dense.edge_weights[perm]
        )
        assert_same_matching(swapped)
        assert GreedyMatcher().match(swapped).task_assignment() == {0: 1, 1: 0, 2: 2}

    def test_tie_goes_to_the_lowest_edge_index(self):
        # Worker 1's edge is listed first, so task 0 takes worker 1 even
        # though argmax over the row alone would pick worker 0.
        graph = BipartiteGraph.from_edges(2, 1, [(1, 0, 0.5), (0, 0, 0.5)])
        result = GreedyMatcher().match(graph)
        assert result.edge_indices.tolist() == [0]
        assert result.task_assignment() == {0: 1}
