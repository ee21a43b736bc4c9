"""Unit tests for the Traditional/uniform matcher."""

import numpy as np
import pytest

from repro.core.kernels import reference
from repro.core.matching.uniform import UniformMatcher
from repro.graph.bipartite import BipartiteGraph


class TestUniform:
    def test_valid_matching(self, small_graph, rng):
        UniformMatcher().match(small_graph, rng).validate()

    def test_full_graph_matches_all_tasks(self, rng):
        graph = BipartiteGraph.full(rng.random((30, 20)))
        assert UniformMatcher().match(graph, rng).size == 20

    def test_ignores_weights(self):
        """Uniform assignment must not systematically prefer heavy edges."""
        # Worker 0 has weight ~1 to the task, worker 1 weight ~0; uniform
        # matching should pick each roughly half the time.
        graph = BipartiteGraph.from_edges(2, 1, [(0, 0, 1.0), (1, 0, 0.0)])
        rng = np.random.default_rng(0)
        picks = [UniformMatcher().match(graph, rng).pairs()[0][0] for _ in range(400)]
        heavy_fraction = np.mean([p == 0 for p in picks])
        assert 0.4 < heavy_fraction < 0.6

    def test_respects_graph_structure(self, rng):
        """Only existing edges may be used."""
        graph = BipartiteGraph.from_edges(3, 3, [(0, 0, 0.5), (1, 1, 0.5)])
        result = UniformMatcher().match(graph, rng)
        assert set(result.pairs()) <= {(0, 0), (1, 1)}

    def test_empty_graph(self, rng):
        assert UniformMatcher().match(BipartiteGraph.empty(2, 2), rng).size == 0

    def test_task_with_no_edges_left_unmatched(self, rng):
        graph = BipartiteGraph.from_edges(2, 2, [(0, 0, 0.5)])
        result = UniformMatcher().match(graph, rng)
        assert result.task_assignment().keys() == {0}

    def test_deterministic_given_rng(self, small_graph):
        a = UniformMatcher().match(small_graph, np.random.default_rng(3))
        b = UniformMatcher().match(small_graph, np.random.default_rng(3))
        assert np.array_equal(a.edge_indices, b.edge_indices)


def _assert_matches_oracle(graph: BipartiteGraph, seed: int) -> None:
    """Same edges and same post-call RNG state as the seed slice walk."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = UniformMatcher().match(graph, rng).edge_indices
    want = reference.uniform_match(
        graph.edge_workers, graph.edge_tasks, graph.n_workers, graph.n_tasks, oracle_rng
    )
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _dense_graph(seed: int, n_workers: int, n_tasks: int, keep_frac: float):
    """``from_dense`` graph; ``keep_frac`` 1.0 gives the complete graph."""
    rng = np.random.default_rng(seed)
    weights = rng.random((n_workers, n_tasks))
    if keep_frac >= 1.0:
        return BipartiteGraph.from_dense(weights)
    return BipartiteGraph.from_dense(
        weights, mask=rng.random((n_workers, n_tasks)) < keep_frac
    )


class TestMatchesReference:
    """The production matcher against :func:`reference.uniform_match`.

    Complete worker-major graphs take the shared free-list path; every
    other graph takes the slice walk.  Both must pick the oracle's edges
    with the oracle's draws.
    """

    @pytest.mark.parametrize("keep_frac", [1.0, 0.7, 0.2])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_dense_graphs(self, seed, keep_frac):
        shape = np.random.default_rng(10_000 + seed).integers(1, 40, size=2)
        _assert_matches_oracle(_dense_graph(seed, *shape.tolist(), keep_frac), seed)

    @pytest.mark.parametrize(
        "n_workers, n_tasks",
        [(1, 1), (1, 30), (30, 1), (5, 60), (60, 5), (20, 2000)],
    )
    @pytest.mark.parametrize("keep_frac", [1.0, 0.5])
    def test_shapes(self, n_workers, n_tasks, keep_frac):
        for seed in range(5):
            graph = _dense_graph(seed, n_workers, n_tasks, keep_frac)
            if graph.is_empty:
                continue
            _assert_matches_oracle(graph, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_complete_graph_out_of_worker_major_order(self, seed):
        rng = np.random.default_rng(seed)
        n_workers, n_tasks = rng.integers(2, 12, size=2).tolist()
        pairs = [(w, t) for w in range(n_workers) for t in range(n_tasks)]
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        task_major = sorted(pairs, key=lambda p: (p[1], p[0]))
        for edges in (shuffled, task_major):
            graph = BipartiteGraph.from_edges(
                n_workers, n_tasks, [(w, t, 0.5) for w, t in edges]
            )
            _assert_matches_oracle(graph, seed)

    def test_one_swapped_pair_leaves_the_shared_path(self):
        # Complete, and worker-major except for worker 0's two edges: the
        # tasks' neighbour slices now differ from the ascending free list.
        edges = [(0, 1, 0.5), (0, 0, 0.5), (1, 0, 0.5), (1, 1, 0.5)]
        graph = BipartiteGraph.from_edges(2, 2, edges)
        for seed in range(50):
            _assert_matches_oracle(graph, seed)

    def test_isolated_workers_do_not_stall_the_walk(self):
        # Worker 2 has no edge, so it never counts as takeable.
        edges = [(0, t, 0.5) for t in range(4)] + [(1, 3, 0.5)]
        graph = BipartiteGraph.from_edges(3, 4, edges)
        for seed in range(20):
            _assert_matches_oracle(graph, seed)
