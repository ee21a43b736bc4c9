"""REACT Weighted Bipartite Graph Matching — Algorithm 1 of the paper.

A randomized local search over matching states.  The state ``x`` is a subset
of edges; each cycle flips one uniformly random edge and the move is judged
by the fitness ``g(x) = Σ w_ij x_ij`` (with ``g = 0`` for states where two
selected edges share a vertex):

* ``g(x') >= g(x)``            → accept (always true when adding a
  conflict-free edge, since weights are non-negative);
* ``g(x') = 0`` (conflict)     → compare the new edge's weight against every
  already-matched edge sharing one of its endpoints; if it beats *all* of
  them, evict them and accept, otherwise reject — this eviction rule is the
  paper's improvement over plain Metropolis matching;
* ``g(x') < g(x)`` (removal)   → accept with probability
  ``exp((g(x') − g(x)) / K)`` — the simulated-annealing escape hatch.

Complexity: the paper reports O(c·E) because its implementation scans the
edge list to find conflicting matched edges.  This implementation keeps
``matched-edge-of-worker`` / ``matched-edge-of-task`` indices, making every
cycle O(1) (so O(c) total); a candidate edge conflicts with at most two
matched edges, both found by direct lookup.  The simulated *latency* of the
paper's implementation is modelled separately by
:mod:`repro.platform.cost`, keeping algorithmic behaviour and testbed cost
calibration orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...graph.bipartite import BipartiteGraph
from .. import kernels
from ..kernels.reference import NO_EDGE  # noqa: F401  (re-exported sentinel)
from .base import Matcher, MatchingResult, empty_result


@dataclass(frozen=True)
class ReactParameters:
    """Tunables of Algorithm 1.

    Attributes
    ----------
    cycles:
        Iteration budget ``c``.  The paper runs 1000 in the end-to-end
        experiments and 1000/3000 in the matching micro-benchmarks, noting
        the speed/quality trade-off.
    k_constant:
        The acceptance temperature ``K`` in ``exp((g(x')-g(x))/K)``.  The
        paper never states its value; the default 0.05 keeps the
        probability of dropping a typical-weight edge (w ~ 0.5-1.0)
        negligible (e^-10 .. e^-20) while still admitting escapes from
        near-zero-weight local choices — see the ABL-K ablation bench.
    adaptive_cycles:
        §IV-A suggests "an adaptive cycles parameter based on the graph's
        order of magnitude could be selected".  When enabled the budget
        becomes ``max(cycles, adaptive_factor × E)``.
    adaptive_factor:
        Cycles per edge used by the adaptive rule.
    """

    cycles: int = 1000
    k_constant: float = 0.05
    adaptive_cycles: bool = False
    adaptive_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {self.cycles}")
        # ``0 < x < inf`` is False for NaN too.
        if not 0 < self.k_constant < math.inf:
            raise ValueError(f"K must be positive and finite, got {self.k_constant}")
        if not 0 < self.adaptive_factor < math.inf:
            raise ValueError(
                f"adaptive_factor must be positive and finite, got {self.adaptive_factor}"
            )

    def budget_for(self, n_edges: int) -> int:
        if self.adaptive_cycles:
            return max(self.cycles, int(math.ceil(self.adaptive_factor * n_edges)))
        return self.cycles


class ReactMatcher(Matcher):
    """Algorithm 1: randomized matching with conflict eviction.

    The cycle loop runs in :func:`repro.core.kernels.wbgm_accept_loop`,
    which is pinned bit for bit to the seed loop in
    :mod:`repro.core.kernels.reference` by the equivalence suite.
    """

    name = "react"

    def __init__(self, params: Optional[ReactParameters] = None) -> None:
        self.params = params or ReactParameters()

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        rng = self._rng(rng)
        params = self.params
        budget = params.budget_for(graph.n_edges)

        # Pre-draw the random sequences in bulk: one edge choice and one
        # uniform acceptance draw per cycle (guide idiom — vectorize the RNG
        # even when the loop itself is state-dependent).  The kernel and the
        # reference oracle consume exactly these two draws, so the stream
        # position after a match does not depend on the loop's decisions.
        picks = rng.integers(0, graph.n_edges, size=budget)
        alphas = rng.random(budget)

        # Looked up on the module at each call, so a profiler that wraps
        # ``kernels.wbgm_accept_loop`` sees every cycle loop.
        edge_indices, task_worker, stats = kernels.wbgm_accept_loop(
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
            cycles_used=budget,
            stats=stats,
            task_worker=task_worker,
        )
