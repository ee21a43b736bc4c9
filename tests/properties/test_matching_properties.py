"""Property-based tests on matching invariants (hypothesis).

Core invariants of the paper's §III-C program, checked over randomly
generated graphs for every matcher:

* every produced matching is valid (no two edges share a vertex);
* the objective never exceeds the Hungarian optimum;
* REACT dominates the empty matching (weights are non-negative);
* pruning edges can never increase the optimal objective.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching.greedy import GreedyMatcher, SortedGreedyMatcher
from repro.core.matching.hungarian import HungarianMatcher
from repro.core.matching.metropolis import MetropolisMatcher, MetropolisParameters
from repro.core.matching.react import ReactMatcher, ReactParameters
from repro.core.matching.uniform import UniformMatcher
from repro.graph.bipartite import BipartiteGraph


@st.composite
def bipartite_graphs(draw):
    """Random sparse bipartite graphs with weights in [0, 1]."""
    n_workers = draw(st.integers(min_value=1, max_value=12))
    n_tasks = draw(st.integers(min_value=1, max_value=12))
    cells = [(w, t) for w in range(n_workers) for t in range(n_tasks)]
    chosen = draw(
        st.lists(st.sampled_from(cells), min_size=0, max_size=len(cells), unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    edges = [(w, t, x) for (w, t), x in zip(chosen, weights)]
    return BipartiteGraph.from_edges(n_workers, n_tasks, edges)


MATCHERS = [
    ReactMatcher(ReactParameters(cycles=400)),
    MetropolisMatcher(MetropolisParameters(cycles=400)),
    GreedyMatcher(),
    SortedGreedyMatcher(),
    UniformMatcher(),
    HungarianMatcher(),
]


@pytest.mark.parametrize("matcher", MATCHERS, ids=lambda m: m.name)
class TestUniversalInvariants:
    @given(graph=bipartite_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matching_always_valid(self, matcher, graph, seed):
        result = matcher.match(graph, np.random.default_rng(seed))
        result.validate()

    @given(graph=bipartite_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_never_beats_optimal(self, matcher, graph, seed):
        result = matcher.match(graph, np.random.default_rng(seed))
        optimal = HungarianMatcher().match(graph)
        assert result.total_weight <= optimal.total_weight + 1e-9

    @given(graph=bipartite_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matching_within_cardinality_bound(self, matcher, graph, seed):
        result = matcher.match(graph, np.random.default_rng(seed))
        assert result.size <= min(graph.n_workers, graph.n_tasks)


class TestStructuralProperties:
    @given(graph=bipartite_graphs())
    @settings(max_examples=40, deadline=None)
    def test_greedy_matches_every_matchable_task_on_positive_graphs(self, graph):
        """Each task with an edge to some free worker in task order gets
        matched or its candidate workers were taken by earlier tasks."""
        result = GreedyMatcher().match(graph)
        matched_tasks = set(result.tasks.tolist())
        matched_workers = set(result.workers.tolist())
        for task in range(graph.n_tasks):
            if task in matched_tasks:
                continue
            incident = np.flatnonzero(graph.edge_tasks == task)
            # every neighbouring worker must be taken (otherwise greedy
            # would have matched this task)
            neighbours = set(graph.edge_workers[incident].tolist())
            assert neighbours <= matched_workers

    @given(graph=bipartite_graphs(), threshold=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_pruning_never_improves_optimum(self, graph, threshold):
        optimal = HungarianMatcher().match(graph).total_weight
        keep = graph.edge_weights >= threshold
        pruned = BipartiteGraph(
            graph.n_workers,
            graph.n_tasks,
            graph.edge_workers[keep],
            graph.edge_tasks[keep],
            graph.edge_weights[keep],
        )
        pruned_optimal = HungarianMatcher().match(pruned).total_weight
        assert pruned_optimal <= optimal + 1e-9

    @given(graph=bipartite_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_react_weight_consistent_with_selection(self, graph, seed):
        result = ReactMatcher(ReactParameters(cycles=300)).match(
            graph, np.random.default_rng(seed)
        )
        recomputed = float(graph.edge_weights[result.edge_indices].sum())
        assert result.total_weight == pytest.approx(recomputed)
