"""CSR adjacency caches and the trusted pruning path of BipartiteGraph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph


def _random_graph(seed: int, n_workers: int, n_tasks: int, density: float):
    rng = np.random.default_rng(seed)
    weights = rng.random((n_workers, n_tasks))
    mask = rng.random((n_workers, n_tasks)) < density
    return BipartiteGraph.from_dense(np.where(mask, weights, np.nan))


class TestCsrAdjacency:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_flatnonzero_scan(self, seed):
        graph = _random_graph(seed, 13, 9, density=0.4)
        for task in range(graph.n_tasks):
            expected = np.flatnonzero(graph.edge_tasks == task)
            assert np.array_equal(graph.edges_of_task(task), expected)

    def test_indices_ascending(self):
        graph = _random_graph(3, 20, 20, density=0.5)
        for task in range(graph.n_tasks):
            edges = graph.edges_of_task(task)
            assert np.all(np.diff(edges) > 0) or len(edges) <= 1

    def test_out_of_range_vertices_empty(self):
        graph = _random_graph(0, 4, 4, density=1.0)
        for bad in (-1, 4, 100):
            assert graph.edges_of_task(bad).size == 0
            assert graph.edges_of_task(bad).dtype == np.int64

    def test_empty_graph(self):
        graph = BipartiteGraph.empty(3, 5)
        assert graph.edges_of_task(2).size == 0

    def test_isolated_vertices(self):
        graph = BipartiteGraph.from_edges(4, 4, [(1, 2, 0.5)])
        assert graph.edges_of_task(0).size == 0
        assert np.array_equal(graph.edges_of_task(2), [0])
        assert graph.edges_of_task(3).size == 0


class TestDegreeCaches:
    def test_values_match_bincount(self):
        graph = _random_graph(7, 11, 6, density=0.6)
        assert np.array_equal(
            graph.worker_degrees(), np.bincount(graph.edge_workers, minlength=11)
        )
        assert np.array_equal(
            graph.task_degrees(), np.bincount(graph.edge_tasks, minlength=6)
        )

    def test_returns_fresh_copies(self):
        graph = _random_graph(7, 8, 8, density=0.5)
        first = graph.worker_degrees()
        first[:] = -1
        assert np.array_equal(
            graph.worker_degrees(), np.bincount(graph.edge_workers, minlength=8)
        )


class TestTrustedPruning:
    def test_pruned_graph_revalidates_cleanly(self):
        graph = _random_graph(1, 15, 15, density=0.7)
        pruned = graph.prune_below(0.5)
        # Round-trip through the validating constructor: the trusted path
        # must only ever produce graphs the validator would accept.
        BipartiteGraph(
            n_workers=pruned.n_workers,
            n_tasks=pruned.n_tasks,
            edge_workers=pruned.edge_workers,
            edge_tasks=pruned.edge_tasks,
            edge_weights=pruned.edge_weights,
        )
        assert np.all(pruned.edge_weights >= 0.5)
        assert pruned.n_workers == graph.n_workers
        assert pruned.n_tasks == graph.n_tasks

    def test_pruned_adjacency_consistent(self):
        graph = _random_graph(2, 10, 10, density=0.8)
        pruned = graph.with_pruned_edges(graph.edge_weights >= 0.3)
        for task in range(pruned.n_tasks):
            expected = np.flatnonzero(pruned.edge_tasks == task)
            assert np.array_equal(pruned.edges_of_task(task), expected)

    def test_parent_cache_not_shared_with_pruned_copy(self):
        graph = _random_graph(4, 6, 6, density=1.0)
        graph.edges_of_task(0)  # warm the parent's CSR cache
        pruned = graph.prune_below(0.9)
        assert len(pruned.edges_of_task(0)) == np.count_nonzero(
            pruned.edge_tasks == 0
        )

    def test_keep_mask_shape_still_checked(self):
        graph = _random_graph(5, 4, 4, density=1.0)
        with pytest.raises(ValueError, match="one entry per edge"):
            graph.with_pruned_edges(np.ones(3, dtype=bool))

    def test_prune_everything(self):
        graph = _random_graph(6, 5, 5, density=1.0)
        pruned = graph.prune_below(2.0)
        assert pruned.is_empty
        assert pruned.edges_of_task(0).size == 0
        assert pruned.worker_degrees().sum() == 0
