"""Unit tests for the Metropolis matching baseline."""

import math

import numpy as np
import pytest

from repro.core.matching.metropolis import MetropolisMatcher, MetropolisParameters
from repro.core.matching.react import ReactMatcher, ReactParameters
from repro.graph.bipartite import BipartiteGraph


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetropolisParameters(cycles=-1)
        with pytest.raises(ValueError):
            MetropolisParameters(k_constant=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: MetropolisParameters(k_constant=x),
            lambda x: ReactParameters(k_constant=x),
            lambda x: ReactParameters(adaptive_cycles=True, adaptive_factor=x),
        ],
        ids=["metropolis_k", "react_k", "react_adaptive_factor"],
    )
    def test_non_finite_rejected_at_construction(self, make, value):
        """A NaN K would otherwise match silently and a NaN adaptive factor
        fail only at the first ``match``."""
        with pytest.raises(ValueError, match="finite"):
            make(value)


class TestCorrectness:
    def test_valid_matching(self, small_graph, rng):
        result = MetropolisMatcher(MetropolisParameters(cycles=2000)).match(
            small_graph, rng
        )
        result.validate()

    def test_empty_graph(self):
        result = MetropolisMatcher().match(
            BipartiteGraph.empty(3, 3), np.random.default_rng(0)
        )
        assert result.size == 0

    def test_deterministic_given_rng(self, small_graph):
        matcher = MetropolisMatcher(MetropolisParameters(cycles=500))
        a = matcher.match(small_graph, np.random.default_rng(7))
        b = matcher.match(small_graph, np.random.default_rng(7))
        assert np.array_equal(a.edge_indices, b.edge_indices)

    def test_stats_cover_all_cycles(self, small_graph, rng):
        result = MetropolisMatcher(MetropolisParameters(cycles=777)).match(
            small_graph, rng
        )
        assert sum(result.stats.values()) == 777


class TestPaperComparison:
    def test_react_beats_metropolis_at_equal_cycles(self):
        """Fig. 4's headline: REACT > Metropolis for the same cycle budget,
        because Metropolis lacks the g(x')=0 eviction rule."""
        rng_graph = np.random.default_rng(11)
        wins = 0
        for trial in range(5):
            graph = BipartiteGraph.full(rng_graph.random((40, 40)))
            cycles = 1500
            react = ReactMatcher(ReactParameters(cycles=cycles)).match(
                graph, np.random.default_rng(trial)
            )
            metro = MetropolisMatcher(MetropolisParameters(cycles=cycles)).match(
                graph, np.random.default_rng(trial)
            )
            if react.total_weight > metro.total_weight:
                wins += 1
        assert wins >= 4  # dominant, allowing one unlucky draw

    def test_metropolis_cannot_displace_matched_edges(self):
        """A conflicting heavier edge is (almost surely) rejected, not
        evicted: with one matched light edge blocking a heavy one, the
        output keeps whichever got matched first unless a removal fires."""
        graph = BipartiteGraph.from_edges(2, 1, [(0, 0, 0.9), (1, 0, 0.05)])
        # K tiny -> removal probability exp(-w/K) ~ 0, collapse prob ~ 0:
        # whatever is matched first stays.
        matcher = MetropolisMatcher(MetropolisParameters(cycles=500, k_constant=0.001))
        result = matcher.match(graph, np.random.default_rng(1))
        assert result.size == 1


class TestCollapseBranch:
    def test_high_temperature_allows_collapse(self):
        """With K huge, conflicting additions are accepted (g(x')=0 branch),
        collapsing the matching to the single new edge."""
        graph = BipartiteGraph.full(np.random.default_rng(0).random((6, 6)))
        matcher = MetropolisMatcher(MetropolisParameters(cycles=2000, k_constant=1e9))
        result = matcher.match(graph, np.random.default_rng(3))
        result.validate()
        assert result.stats["collapses"] > 0
