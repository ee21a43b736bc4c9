"""Metropolis matching baseline (Shih 2008, as characterised in the paper).

Markov-chain Monte Carlo over matching states: each cycle flips a uniformly
random edge and the move is accepted with the Metropolis rule on the fitness
``g(x) = Σ w_ij x_ij``.  The paper's stated difference from REACT is that
Metropolis "do[es] not consider the case for g(x') = 0 at all": when the
flipped edge conflicts with the current matching, the state ``x'`` has
fitness 0, so the acceptance probability ``exp((0 − g)/K)`` is negligible
for any non-trivial matching and the move is effectively always rejected —
there is no weight-comparison eviction.  (We evaluate the rule literally: in
the measure-zero event that the draw accepts a zero-fitness state, the
conflicting matching collapses to just the new edge, which is the honest
reading of "accept x'".)

The consequence, visible in Fig. 4, is that Metropolis can only *remove then
re-add* to replace a poor edge — two lucky moves — where REACT evicts in
one, so at equal cycles REACT reaches higher output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...graph.bipartite import BipartiteGraph
from .. import kernels
from .base import Matcher, MatchingResult, empty_result


@dataclass(frozen=True)
class MetropolisParameters:
    """Tunables: iteration budget ``cycles`` and temperature ``K``."""

    cycles: int = 1000
    k_constant: float = 0.05

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {self.cycles}")
        if self.k_constant <= 0:
            raise ValueError(f"K must be positive, got {self.k_constant}")


class MetropolisMatcher(Matcher):
    """MCMC matcher without conflict eviction.

    Like :class:`~repro.core.matching.react.ReactMatcher`, the cycle loop
    runs in a kernel (:func:`repro.core.kernels.metropolis_match`) pinned
    bit for bit to the seed loop in :mod:`repro.core.kernels.reference`.
    """

    name = "metropolis"

    def __init__(self, params: Optional[MetropolisParameters] = None) -> None:
        self.params = params or MetropolisParameters()

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        rng = self._rng(rng)
        params = self.params

        picks = rng.integers(0, graph.n_edges, size=params.cycles)
        alphas = rng.random(params.cycles)

        edge_indices, stats = kernels.metropolis_match(
            graph.edge_workers,
            graph.edge_tasks,
            graph.edge_weights,
            graph.n_workers,
            graph.n_tasks,
            picks,
            alphas,
            1.0 / params.k_constant,
        )
        return MatchingResult(
            graph=graph,
            edge_indices=edge_indices,
            algorithm=self.name,
            cycles_used=params.cycles,
            stats=stats,
        )
