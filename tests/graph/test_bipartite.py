"""Unit tests for the bipartite graph structure."""

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph


class TestConstruction:
    def test_from_edges(self, sparse_graph):
        assert sparse_graph.n_workers == 3
        assert sparse_graph.n_tasks == 3
        assert sparse_graph.n_edges == 5

    def test_full_graph(self, rng):
        weights = rng.random((4, 6))
        graph = BipartiteGraph.full(weights)
        assert graph.n_edges == 24
        assert np.allclose(graph.to_dense(), weights)

    def test_from_dense_with_nan_holes(self):
        weights = np.array([[0.5, np.nan], [np.nan, 0.7]])
        graph = BipartiteGraph.from_dense(weights)
        assert graph.n_edges == 2
        assert set(zip(graph.edge_workers, graph.edge_tasks)) == {(0, 0), (1, 1)}

    def test_from_dense_with_mask(self):
        weights = np.ones((2, 2))
        mask = np.array([[True, False], [False, True]])
        graph = BipartiteGraph.from_dense(weights, mask=mask)
        assert graph.n_edges == 2

    def test_empty_graph(self):
        graph = BipartiteGraph.empty(5, 3)
        assert graph.is_empty
        assert graph.n_edges == 0

    def test_full_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            BipartiteGraph.full(np.array([[1.0, np.nan]]))


class TestValidation:
    def test_out_of_range_worker_rejected(self):
        with pytest.raises(ValueError, match="edge_workers"):
            BipartiteGraph.from_edges(2, 2, [(2, 0, 0.5)])

    def test_out_of_range_task_rejected(self):
        with pytest.raises(ValueError, match="edge_tasks"):
            BipartiteGraph.from_edges(2, 2, [(0, 2, 0.5)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BipartiteGraph.from_edges(2, 2, [(0, 0, -0.5)])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BipartiteGraph.from_edges(2, 2, [(0, 0, float("inf"))])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BipartiteGraph.from_edges(2, 2, [(0, 0, 0.5), (0, 0, 0.6)])

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            BipartiteGraph(
                n_workers=2,
                n_tasks=2,
                edge_workers=np.array([0]),
                edge_tasks=np.array([0, 1]),
                edge_weights=np.array([0.5]),
            )

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            BipartiteGraph.from_dense(np.ones((2, 2)), mask=np.ones((3, 2), dtype=bool))


class TestQueries:
    def test_to_dense_fill(self, sparse_graph):
        dense = sparse_graph.to_dense(fill=-1.0)
        assert dense[0, 0] == 0.9
        assert dense[2, 0] == -1.0
