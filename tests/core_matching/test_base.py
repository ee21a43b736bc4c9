"""Unit tests for the matching-result container and validation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.matching.base import (
    MatchingError,
    MatchingResult,
    empty_result,
    has_duplicates,
)


class TestMatchingResult:
    def test_total_weight_and_size(self, sparse_graph):
        result = MatchingResult(
            graph=sparse_graph, edge_indices=np.array([0, 3]), algorithm="test"
        )
        # edges: (0,0,0.9) and (1,2,0.7)
        assert result.size == 2
        assert result.total_weight == pytest.approx(1.6)
        assert result.pairs() == [(0, 0), (1, 2)]
        assert result.task_assignment() == {0: 0, 2: 1}

    def test_validate_accepts_proper_matching(self, sparse_graph):
        result = MatchingResult(
            graph=sparse_graph, edge_indices=np.array([1, 2, 4]), algorithm="test"
        )
        # (0,1), (1,0), (2,2): all distinct workers and tasks
        result.validate()

    def test_validate_rejects_shared_worker(self, sparse_graph):
        result = MatchingResult(
            graph=sparse_graph, edge_indices=np.array([0, 1]), algorithm="test"
        )
        # (0,0) and (0,1) share worker 0
        with pytest.raises(MatchingError, match="worker"):
            result.validate()

    def test_validate_rejects_shared_task(self, sparse_graph):
        result = MatchingResult(
            graph=sparse_graph, edge_indices=np.array([0, 2]), algorithm="test"
        )
        # (0,0) and (1,0) share task 0
        with pytest.raises(MatchingError, match="task"):
            result.validate()

    def test_duplicate_edge_rejected_at_construction(self, sparse_graph):
        with pytest.raises(MatchingError, match="duplicate"):
            MatchingResult(
                graph=sparse_graph, edge_indices=np.array([0, 0]), algorithm="test"
            )

    def test_out_of_range_edge_rejected(self, sparse_graph):
        with pytest.raises(MatchingError, match="range"):
            MatchingResult(
                graph=sparse_graph, edge_indices=np.array([99]), algorithm="test"
            )

    def test_empty_result(self, sparse_graph):
        result = empty_result(sparse_graph, "none")
        assert result.size == 0
        assert result.total_weight == 0.0
        result.validate()


class TestHasDuplicates:
    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.int64,
            st.integers(0, 40),
            # A narrow range makes repeats common; the wide one covers
            # values far from zero in both directions.
            elements=st.one_of(st.integers(-3, 3), st.integers(-(2**62), 2**62)),
        )
    )
    @example(np.empty(0, dtype=np.int64))
    @example(np.array([7], dtype=np.int64))
    @example(np.array([7, 7], dtype=np.int64))
    def test_same_verdict_as_unique(self, values):
        assert has_duplicates(values) == (len(np.unique(values)) != len(values))
