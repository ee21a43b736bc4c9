"""Greedy matching baseline (§V-B of the paper).

"The basic idea of the Greedy matching is to select the edge
(worker_i, task_j) for any unassigned task_j ∈ V with the highest weight
w_ij, that is subject to the constraints defined for the WBGM.  The
complexity of such an approach is O(V·E) since for every task it needs to
iterate through the edges and check its weight with all of the available
workers."

Two implementations are provided:

* :class:`GreedyMatcher` — the paper's per-task scan.  Tasks are processed
  in index order; each takes its best still-free worker.  Output quality is
  near-optimal on full graphs (Fig. 4) but the O(V·E) cost is what melts
  down in Figs. 5/9 — that cost is reproduced in simulated time by
  :mod:`repro.platform.cost`.
* :class:`SortedGreedyMatcher` — an ablation variant: globally sort edges by
  descending weight and sweep once, O(E log E).  Not in the paper; included
  to quantify how much of Greedy's pain is the naive scan.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...graph.bipartite import BipartiteGraph
from .base import Matcher, MatchingResult, empty_result


class GreedyMatcher(Matcher):
    """Per-task highest-weight-edge selection (the paper's Greedy)."""

    name = "greedy"

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        ew = graph.edge_workers
        et = graph.edge_tasks
        wt = graph.edge_weights

        # Group edge indices by task once (sorted by task, then by weight
        # descending within the task) so each task's scan is a slice walk.
        # The algorithmic outcome is identical to the paper's linear scan:
        # each task takes its maximum-weight edge among free workers.
        order = np.lexsort((-wt, et))
        sorted_tasks = et[order]
        boundaries = np.searchsorted(sorted_tasks, np.arange(graph.n_tasks + 1))

        # Plain-list walk (NumPy scalar indexing costs ~100 ns per access,
        # which dominated this loop; same decisions, same output order).
        order_list = order.tolist()
        owner_list = ew[order].tolist()
        bounds = boundaries.tolist()
        worker_free = bytearray(b"\x01") * graph.n_workers
        chosen: list[int] = []
        for task in range(graph.n_tasks):
            start, stop = bounds[task], bounds[task + 1]
            for pos in range(start, stop):
                wi = owner_list[pos]
                if worker_free[wi]:
                    worker_free[wi] = 0
                    chosen.append(order_list[pos])
                    break

        return MatchingResult(
            graph=graph,
            edge_indices=np.asarray(chosen, dtype=np.int64),
            algorithm=self.name,
            stats={"tasks_matched": len(chosen)},
        )


class SortedGreedyMatcher(Matcher):
    """Global descending-weight sweep, O(E log E) (ablation variant).

    ``threshold`` is the sweep's quality bar: edges below it are never
    taken.  Here it is 0.0, no bar, since weights are non-negative;
    :class:`~repro.core.matching.threshold.ThresholdMatcher` is this sweep
    with a bar.
    """

    name = "sorted-greedy"
    threshold = 0.0

    def match(
        self, graph: BipartiteGraph, rng: Optional[np.random.Generator] = None
    ) -> MatchingResult:
        if graph.is_empty:
            return empty_result(graph, self.name)
        wt = graph.edge_weights
        order = np.argsort(-wt, kind="stable").tolist()
        # Plain lists, as in GreedyMatcher: same decisions, no NumPy scalars.
        ew = graph.edge_workers.tolist()
        et = graph.edge_tasks.tolist()
        weights = wt.tolist()
        bar = self.threshold

        worker_free = bytearray(b"\x01") * graph.n_workers
        task_free = bytearray(b"\x01") * graph.n_tasks
        chosen: list[int] = []
        for e in order:
            if weights[e] < bar:
                # Descending order: every remaining edge is below the bar.
                break
            w, t = ew[e], et[e]
            if worker_free[w] and task_free[t]:
                worker_free[w] = 0
                task_free[t] = 0
                chosen.append(e)

        return MatchingResult(
            graph=graph,
            edge_indices=np.asarray(chosen, dtype=np.int64),
            algorithm=self.name,
            stats={"tasks_matched": len(chosen)},
        )
