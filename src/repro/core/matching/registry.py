"""Name → matcher factory table.

Experiment configs refer to matchers by name ("react", "greedy", ...); the
table turns those names into configured instances so the harnesses stay
declarative.  It is fixed: a new matcher is added here.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .base import Matcher
from .greedy import GreedyMatcher, SortedGreedyMatcher
from .hungarian import HungarianMatcher
from .metropolis import MetropolisMatcher, MetropolisParameters
from .react import ReactMatcher, ReactParameters
from .threshold import ThresholdMatcher
from .uniform import UniformMatcher

MatcherFactory = Callable[..., Matcher]

_FACTORIES: Dict[str, MatcherFactory] = {
    "react": ReactMatcher,
    "metropolis": MetropolisMatcher,
    "greedy": GreedyMatcher,
    "sorted-greedy": SortedGreedyMatcher,
    "hungarian": HungarianMatcher,
    "threshold": ThresholdMatcher,
    "uniform": UniformMatcher,
}


def create_matcher(
    name: str,
    *,
    cycles: Optional[int] = None,
    k_constant: Optional[float] = None,
    adaptive_cycles: bool = False,
) -> Matcher:
    """Instantiate a matcher by name.

    ``cycles`` / ``k_constant`` apply to the randomized matchers and are
    rejected (rather than silently ignored) for deterministic ones.
    """
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown matcher {name!r}; known: {sorted(_FACTORIES)}"
        )
    randomized = name in ("react", "metropolis")
    if not randomized and (cycles is not None or k_constant is not None or adaptive_cycles):
        raise ValueError(f"matcher {name!r} does not take cycles/K parameters")
    if name == "react":
        params = ReactParameters(
            cycles=1000 if cycles is None else cycles,
            k_constant=0.05 if k_constant is None else k_constant,
            adaptive_cycles=adaptive_cycles,
        )
        return ReactMatcher(params)
    if name == "metropolis":
        params = MetropolisParameters(
            cycles=1000 if cycles is None else cycles,
            k_constant=0.05 if k_constant is None else k_constant,
        )
        return MetropolisMatcher(params)
    return _FACTORIES[name]()


def available_matchers() -> list[str]:
    return sorted(_FACTORIES)

