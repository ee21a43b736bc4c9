"""Weighted bipartite graph matching algorithms (paper §IV-A, §V-B)."""

from .base import Matcher, MatchingError, MatchingResult, empty_result
from .greedy import GreedyMatcher, SortedGreedyMatcher
from .hungarian import HungarianMatcher
from .metropolis import MetropolisMatcher, MetropolisParameters
from .react import ReactMatcher, ReactParameters
from .registry import available_matchers, create_matcher
from .uniform import UniformMatcher

__all__ = [
    "Matcher",
    "MatchingError",
    "MatchingResult",
    "empty_result",
    "GreedyMatcher",
    "SortedGreedyMatcher",
    "HungarianMatcher",
    "MetropolisMatcher",
    "MetropolisParameters",
    "ReactMatcher",
    "ReactParameters",
    "available_matchers",
    "create_matcher",
    "UniformMatcher",
]
