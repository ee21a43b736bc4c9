"""Unit tests for the matcher name table."""

import pytest

from repro.core.matching.greedy import GreedyMatcher
from repro.core.matching.metropolis import MetropolisMatcher
from repro.core.matching.react import ReactMatcher
from repro.core.matching.registry import available_matchers, create_matcher


class TestCreate:
    def test_known_names(self):
        assert set(available_matchers()) == {
            "react", "metropolis", "greedy", "sorted-greedy", "hungarian", "uniform",
            "threshold",
        }

    def test_react_with_parameters(self):
        matcher = create_matcher("react", cycles=42, k_constant=2.0, adaptive_cycles=True)
        assert isinstance(matcher, ReactMatcher)
        assert matcher.params.cycles == 42
        assert matcher.params.k_constant == 2.0
        assert matcher.params.adaptive_cycles

    def test_metropolis_with_parameters(self):
        matcher = create_matcher("metropolis", cycles=7)
        assert isinstance(matcher, MetropolisMatcher)
        assert matcher.params.cycles == 7

    def test_defaults_when_unspecified(self):
        assert create_matcher("react").params.cycles == 1000

    def test_deterministic_matcher_rejects_cycles(self):
        with pytest.raises(ValueError, match="parameters"):
            create_matcher("greedy", cycles=10)

    def test_plain_deterministic(self):
        assert isinstance(create_matcher("greedy"), GreedyMatcher)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown matcher"):
            create_matcher("quantum")

