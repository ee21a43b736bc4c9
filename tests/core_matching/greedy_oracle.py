"""Reference Greedy: the per-task walk over task-grouped, weight-sorted edges.

Test oracle for :class:`repro.core.matching.greedy.GreedyMatcher`.  This is
the matcher as it was before the dense per-task ``argmax``: one
``np.lexsort`` groups the edges by task with weight descending (ties by
ascending edge index), and each task, in index order, walks its slice and
takes the first still-free worker.  The production matcher must return
the same edge indices in the same order and the same ``stats``.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching.base import MatchingResult, empty_result
from repro.graph.bipartite import BipartiteGraph


def greedy_match(graph: BipartiteGraph) -> MatchingResult:
    if graph.is_empty:
        return empty_result(graph, "greedy")
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
        algorithm="greedy",
        stats={"tasks_matched": len(chosen)},
    )
