"""Threshold ("ratio") matching baseline for heterogeneous tasks.

Assadi, Hsu & Jabbari study online task assignment with heterogeneous
tasks and derive competitive-ratio guarantees for *threshold* rules: an
edge is only usable when the worker's (estimated) skill on the task's type
clears a quality bar, and among usable edges the highest-quality ones are
taken first.  :class:`ThresholdMatcher` is the batch analogue: discard
every edge whose weight falls below ``threshold``, then run the
``sorted-greedy`` descending-weight sweep over what survives.

Against REACT's WBGM this trades throughput for per-assignment quality —
with per-type skills on the weight, a specialist keeps his slot for his
specialty even when a generalist would have matched first, but tasks with
no qualified worker in the batch go unassigned rather than to a weak match.
"""

from __future__ import annotations

from .greedy import SortedGreedyMatcher


class ThresholdMatcher(SortedGreedyMatcher):
    """Descending-weight sweep over edges at or above a quality bar."""

    name = "threshold"

    def __init__(self, threshold: float = 0.5) -> None:
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0,1], got {threshold}")
        self.threshold = threshold
