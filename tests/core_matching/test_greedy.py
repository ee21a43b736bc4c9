"""Unit tests for the Greedy matchers."""

import tracemalloc

import numpy as np
import pytest

from repro.core.matching.greedy import GreedyMatcher, SortedGreedyMatcher
from repro.core.matching.hungarian import HungarianMatcher
from repro.graph.bipartite import BipartiteGraph


class TestGreedy:
    def test_valid_matching(self, small_graph):
        result = GreedyMatcher().match(small_graph)
        result.validate()

    def test_each_task_takes_best_free_worker(self):
        # Task order matters: task 0 takes worker 1 (0.8 > 0.9? no - 0.9 is
        # worker 0).  Check the exact paper semantics: task 0 scans its
        # edges, takes max weight -> worker 0 (0.9).  Task 1's only edge is
        # worker 0 (taken) -> unmatched.  Task 2 takes worker 1 (0.7).
        edges = [(0, 0, 0.9), (0, 1, 0.5), (1, 0, 0.8), (1, 2, 0.7), (2, 2, 0.6)]
        graph = BipartiteGraph.from_edges(3, 3, edges)
        result = GreedyMatcher().match(graph)
        assert result.task_assignment() == {0: 0, 2: 1}
        assert result.total_weight == pytest.approx(1.6)

    def test_near_optimal_on_full_graph(self, rng):
        """Fig. 4: 'the Greedy succeeds an almost optimal behavior because
        we use a full graph'."""
        graph = BipartiteGraph.full(rng.random((100, 60)))
        greedy = GreedyMatcher().match(graph).total_weight
        optimal = HungarianMatcher().match(graph).total_weight
        assert greedy >= 0.95 * optimal

    def test_full_graph_matches_all_tasks(self, rng):
        graph = BipartiteGraph.full(rng.random((30, 20)))
        assert GreedyMatcher().match(graph).size == 20

    def test_empty_graph(self):
        assert GreedyMatcher().match(BipartiteGraph.empty(2, 2)).size == 0

    def test_deterministic(self, small_graph):
        a = GreedyMatcher().match(small_graph)
        b = GreedyMatcher().match(small_graph)
        assert np.array_equal(a.edge_indices, b.edge_indices)

    def test_ties_broken_stably(self):
        graph = BipartiteGraph.from_edges(2, 1, [(0, 0, 0.5), (1, 0, 0.5)])
        a = GreedyMatcher().match(graph)
        b = GreedyMatcher().match(graph)
        assert a.pairs() == b.pairs()

    def test_returns_the_dense_task_worker_row(self):
        edges = [(0, 0, 0.9), (0, 1, 0.5), (1, 0, 0.8), (1, 2, 0.7), (2, 2, 0.6)]
        result = GreedyMatcher().match(BipartiteGraph.from_edges(3, 3, edges))
        assert result.task_worker.tolist() == [0, -1, 1]

    def test_backlog_batch_allocation_stays_small(self):
        # The shape of the largest seed-42 §V-C Greedy batch: 460 tasks ×
        # 831 workers, ~90% of the cells kept, a cold-start block at
        # MAX_WEIGHT.  One match holds a dense weight view (~3.1 MB) and
        # peaks there; with an edge-index view beside it the peak was near
        # 7 MB, and a sort of the 344k edges plus per-edge Python lists
        # peaked above 28 MB.
        rng = np.random.default_rng(3)
        weights = rng.random((831, 460))
        weights[:120] = 1.0
        graph = BipartiteGraph.from_dense(weights, mask=rng.random((831, 460)) < 0.9)
        tracemalloc.start()
        try:
            result = GreedyMatcher().match(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.size == 460
        assert peak < 16e6


class TestSortedGreedy:
    def test_valid_matching(self, small_graph):
        SortedGreedyMatcher().match(small_graph).validate()

    def test_takes_globally_heaviest_edge_first(self):
        # Global greedy prefers (0,0,0.9) before task order matters.
        edges = [(0, 1, 0.8), (0, 0, 0.9), (1, 1, 0.3)]
        graph = BipartiteGraph.from_edges(2, 2, edges)
        result = SortedGreedyMatcher().match(graph)
        assert result.task_assignment() == {0: 0, 1: 1}
        assert result.total_weight == pytest.approx(1.2)

    def test_at_least_half_optimal(self, rng):
        """Classic guarantee: global greedy is a 1/2-approximation."""
        for trial in range(5):
            graph = BipartiteGraph.full(rng.random((15, 15)))
            greedy = SortedGreedyMatcher().match(graph).total_weight
            optimal = HungarianMatcher().match(graph).total_weight
            assert greedy >= 0.5 * optimal

    def test_empty_graph(self):
        assert SortedGreedyMatcher().match(BipartiteGraph.empty(2, 2)).size == 0
